//! `axpy`: single-precision `y = a * x + y` (RajaPERF *basic* group).
//!
//! The least arithmetically intense kernel of the suite (one FMA per two
//! loaded elements) and the one the paper uses for the application-level
//! offloading comparison of Figure 2: its runtime is small enough that copy,
//! map and fork/join overheads are clearly visible.
//!
//! **Operation order.** Device and reference both run `axpy_into`: each
//! `y[i]` becomes `y[i] + alpha * x[i]`, one rounded multiply and one
//! rounded add, so device results are bit-identical to the reference.

use sva_cluster::{DeviceKernel, DmaRequest, Tcdm, TileIo};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, Result};
use sva_host::HostKernelCost;

use crate::cost;
use crate::workload::{BufferKind, BufferSpec, Workload};

/// Elements of `x`/`y` processed per tile (16 KiB per buffer per tile).
const TILE_ELEMS: usize = 4096;

/// The axpy workload descriptor.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AxpyWorkload {
    /// Number of vector elements.
    pub n: usize,
    /// The scalar multiplier.
    pub alpha: f32,
}

impl AxpyWorkload {
    /// The paper's configuration: 32 768 elements (16 input pages).
    pub fn paper() -> Self {
        Self::with_elems(32_768)
    }

    /// An axpy of `n` elements (used for the input-size sweeps of Figures 2
    /// and 3).
    pub fn with_elems(n: usize) -> Self {
        Self { n, alpha: 2.5 }
    }
}

impl Workload for AxpyWorkload {
    fn name(&self) -> &'static str {
        "axpy"
    }

    fn params(&self) -> String {
        format!("{}, alpha {}", self.n, self.alpha)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                name: "x",
                elems: self.n,
                kind: BufferKind::Input,
            },
            BufferSpec {
                name: "y",
                elems: self.n,
                kind: BufferKind::InOut,
            },
        ]
    }

    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        let mut x = vec![0.0f32; self.n];
        let mut y = vec![0.0f32; self.n];
        rng.fill_f32(&mut x, -1.0, 1.0);
        rng.fill_f32(&mut y, -1.0, 1.0);
        vec![x, y]
    }

    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let x = &initial[0];
        let mut y = initial[1].clone();
        axpy_into(self.alpha, x, &mut y);
        vec![x.clone(), y]
    }

    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        let tile = TILE_ELEMS.min(self.n);
        Box::new(AxpyDevice {
            n: self.n,
            alpha: self.alpha,
            x: device_ptrs[0],
            y: device_ptrs[1],
            x_tile: vec![0.0; tile],
            y_tile: vec![0.0; tile],
        })
    }

    fn host_cost(&self) -> HostKernelCost {
        // One FMA per element; CVA6's single FPU plus loop overhead costs a
        // handful of cycles per element on top of the memory traffic.
        HostKernelCost::streaming(self.n as u64, 4.0)
    }

    fn flops(&self) -> u64 {
        2 * self.n as u64
    }
}

/// `y[i] += alpha * x[i]` over the common length of `x` and `y`.
fn axpy_into(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

/// Device-side tiled axpy.
struct AxpyDevice {
    n: usize,
    alpha: f32,
    x: Iova,
    y: Iova,
    /// Host copies of the TCDM-resident x and y tiles, reused across tiles.
    x_tile: Vec<f32>,
    y_tile: Vec<f32>,
}

impl AxpyDevice {
    fn tile_elems(&self, tile: usize) -> usize {
        let start = tile * TILE_ELEMS;
        TILE_ELEMS.min(self.n - start)
    }

    /// TCDM offsets of the x and y buffers for a tile (double-buffered).
    fn tcdm_offsets(&self, tile: usize) -> (u64, u64) {
        let set = (tile % 2) as u64;
        let set_base = set * 2 * (TILE_ELEMS as u64 * 4);
        (set_base, set_base + TILE_ELEMS as u64 * 4)
    }
}

impl DeviceKernel for AxpyDevice {
    fn name(&self) -> &str {
        "axpy"
    }

    fn num_tiles(&self) -> usize {
        self.n.div_ceil(TILE_ELEMS)
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        let elems = self.tile_elems(tile) as u64;
        let bytes = elems * 4;
        let ext_off = (tile * TILE_ELEMS * 4) as u64;
        let (x_off, y_off) = self.tcdm_offsets(tile);
        TileIo {
            inputs: vec![
                DmaRequest::input(self.x + ext_off, x_off, bytes),
                DmaRequest::input(self.y + ext_off, y_off, bytes),
            ],
            outputs: vec![DmaRequest::output(self.y + ext_off, y_off, bytes)],
        }
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        let elems = self.tile_elems(tile);
        let (x_off, y_off) = self.tcdm_offsets(tile);
        let (x, y) = (&mut self.x_tile[..elems], &mut self.y_tile[..elems]);
        tcdm.read_f32_slice(x_off, x)?;
        tcdm.read_f32_slice(y_off, y)?;
        axpy_into(self.alpha, x, y);
        tcdm.write_f32_slice(y_off, y)?;
        Ok(cost::axpy_cost().parallel_region(elems as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_manual_computation() {
        let wl = AxpyWorkload { n: 8, alpha: 2.0 };
        let init = vec![vec![1.0; 8], vec![3.0; 8]];
        let exp = wl.expected(&init);
        assert_eq!(exp[1], vec![5.0; 8]);
        assert_eq!(exp[0], vec![1.0; 8]);
    }

    #[test]
    fn paper_configuration_spans_16_pages_per_vector() {
        let wl = AxpyWorkload::paper();
        assert_eq!(wl.n, 32_768);
        let bufs = wl.buffers();
        assert_eq!(bufs.len(), 2);
        assert_eq!(bufs[0].bytes(), 128 * 1024);
        assert_eq!(bufs[0].bytes() / 4096, 32);
    }

    #[test]
    fn device_kernel_tiles_cover_whole_vector() {
        let wl = AxpyWorkload::with_elems(10_000);
        let dev = wl.device_kernel(&[Iova::new(0x1000_0000), Iova::new(0x2000_0000)]);
        let total: u64 = (0..dev.num_tiles())
            .map(|t| dev.tile_io(t).output_bytes())
            .sum();
        assert_eq!(total, 10_000 * 4);
        // Last tile is a partial tile.
        assert_eq!(dev.num_tiles(), 3);
    }

    #[test]
    fn tiles_alternate_tcdm_buffers() {
        let wl = AxpyWorkload::paper();
        let dev = wl.device_kernel(&[Iova::new(0x1000_0000), Iova::new(0x2000_0000)]);
        let t0 = dev.tile_io(0);
        let t1 = dev.tile_io(1);
        assert_ne!(t0.inputs[0].tcdm_offset, t1.inputs[0].tcdm_offset);
        assert_eq!(
            t0.inputs[0].tcdm_offset,
            dev.tile_io(2).inputs[0].tcdm_offset
        );
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let wl = AxpyWorkload::with_elems(256);
        let a = wl.init(&mut DeterministicRng::new(7));
        let b = wl.init(&mut DeterministicRng::new(7));
        let c = wl.init(&mut DeterministicRng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
