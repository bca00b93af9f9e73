//! `gesummv`: `y = α·A·x + β·B·x` (RajaPERF / PolyBench).
//!
//! A matrix-vector kernel: every matrix element is used exactly once, so the
//! kernel streams 2 MiB of matrix data for only ~0.5 MFLOP of work and sits
//! between `gemm` and `heat3d` in memory-boundedness. The device
//! implementation processes blocks of matrix rows per tile; the small `x`
//! vector is re-fetched with each tile (it shares the double-buffered tile
//! layout), and one partial `y` block is written back per tile.
//!
//! **Operation order.** Device and reference both run `gesummv_block` on
//! each block of 8 rows. Each row's two dot products start at `0.0` and
//! accumulate in ascending `j`; the 8 rows only interleave, so device
//! results are bit-identical to the reference.

use sva_cluster::{DeviceKernel, DmaRequest, Tcdm, TileIo};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, Result};
use sva_host::HostKernelCost;

use crate::cost;
use crate::workload::{BufferKind, BufferSpec, Workload};

/// Number of matrix rows processed per tile.
const ROWS_PER_TILE: usize = 8;

/// The gesummv workload descriptor.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GesummvWorkload {
    /// Matrix dimension (the paper uses 512).
    pub n: usize,
    /// The α coefficient.
    pub alpha: f32,
    /// The β coefficient.
    pub beta: f32,
}

impl GesummvWorkload {
    /// The paper's configuration: 512 × 512 matrices.
    pub fn paper() -> Self {
        Self::with_dim(512)
    }

    /// A gesummv of dimension `n` (must be a multiple of the row-block).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 8.
    pub fn with_dim(n: usize) -> Self {
        assert!(
            n > 0 && n % ROWS_PER_TILE == 0,
            "gesummv dimension must be a multiple of 8"
        );
        Self {
            n,
            alpha: 1.5,
            beta: 1.2,
        }
    }
}

impl Workload for GesummvWorkload {
    fn name(&self) -> &'static str {
        "gesummv"
    }

    fn params(&self) -> String {
        format!(
            "{0} x {0}, alpha {1}, beta {2}",
            self.n, self.alpha, self.beta
        )
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let n = self.n;
        vec![
            BufferSpec {
                name: "A",
                elems: n * n,
                kind: BufferKind::Input,
            },
            BufferSpec {
                name: "B",
                elems: n * n,
                kind: BufferKind::Input,
            },
            BufferSpec {
                name: "x",
                elems: n,
                kind: BufferKind::Input,
            },
            BufferSpec {
                name: "y",
                elems: n,
                kind: BufferKind::Output,
            },
        ]
    }

    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        let n = self.n;
        let mut a = vec![0.0f32; n * n];
        let mut b = vec![0.0f32; n * n];
        let mut x = vec![0.0f32; n];
        rng.fill_f32(&mut a, -1.0, 1.0);
        rng.fill_f32(&mut b, -1.0, 1.0);
        rng.fill_f32(&mut x, -1.0, 1.0);
        vec![a, b, x, vec![0.0f32; n]]
    }

    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = self.n;
        assert!(
            n % ROWS_PER_TILE == 0,
            "gesummv dimension must be a multiple of 8"
        );
        let (a, b, x) = (&initial[0], &initial[1], &initial[2]);
        let mut y = vec![0.0f32; n];
        let block = ROWS_PER_TILE * n;
        let blocks = a
            .chunks_exact(block)
            .zip(b.chunks_exact(block))
            .zip(y.chunks_exact_mut(ROWS_PER_TILE));
        for ((a_blk, b_blk), y_blk) in blocks {
            gesummv_block(a_blk, b_blk, x, self.alpha, self.beta, y_blk);
        }
        vec![a.clone(), b.clone(), x.clone(), y]
    }

    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        let block = ROWS_PER_TILE * self.n;
        Box::new(GesummvDevice {
            n: self.n,
            alpha: self.alpha,
            beta: self.beta,
            a: device_ptrs[0],
            b: device_ptrs[1],
            x: device_ptrs[2],
            y: device_ptrs[3],
            a_rows: vec![0.0; block],
            b_rows: vec![0.0; block],
            x_vec: vec![0.0; self.n],
            y_block: [0.0; ROWS_PER_TILE],
        })
    }

    fn host_cost(&self) -> HostKernelCost {
        HostKernelCost::streaming(2 * (self.n as u64).pow(2), 4.5)
    }

    fn flops(&self) -> u64 {
        4 * (self.n as u64).pow(2) + 3 * self.n as u64
    }
}

/// `y[r] = alpha * (A[r] · x) + beta * (B[r] · x)` for one block of
/// [`ROWS_PER_TILE`] row-major rows of `a` and `b`. The rows interleave with
/// 16 independent accumulators, each summing its products in ascending `j`.
fn gesummv_block(a: &[f32], b: &[f32], x: &[f32], alpha: f32, beta: f32, y: &mut [f32]) {
    let n = x.len();
    let a_rows: [&[f32]; ROWS_PER_TILE] = std::array::from_fn(|r| &a[r * n..][..n]);
    let b_rows: [&[f32]; ROWS_PER_TILE] = std::array::from_fn(|r| &b[r * n..][..n]);
    let mut ax = [0.0f32; ROWS_PER_TILE];
    let mut bx = [0.0f32; ROWS_PER_TILE];
    for (j, &xj) in x.iter().enumerate() {
        let rows = ax.iter_mut().zip(&mut bx).zip(a_rows.iter().zip(&b_rows));
        for ((ax, bx), (a_row, b_row)) in rows {
            *ax += a_row[j] * xj;
            *bx += b_row[j] * xj;
        }
    }
    for ((y, ax), bx) in y.iter_mut().zip(ax).zip(bx) {
        *y = alpha * ax + beta * bx;
    }
}

/// Device-side row-blocked gesummv.
struct GesummvDevice {
    n: usize,
    alpha: f32,
    beta: f32,
    a: Iova,
    b: Iova,
    x: Iova,
    y: Iova,
    /// Host copies of the TCDM-resident tile buffers, reused across tiles.
    a_rows: Vec<f32>,
    b_rows: Vec<f32>,
    x_vec: Vec<f32>,
    y_block: [f32; ROWS_PER_TILE],
}

impl GesummvDevice {
    /// TCDM layout of one buffer set: A rows, B rows, x, y block.
    fn tcdm_offsets(&self, tile: usize) -> (u64, u64, u64, u64) {
        let rows_bytes = (ROWS_PER_TILE * self.n * 4) as u64;
        let x_bytes = (self.n * 4) as u64;
        let y_bytes = (ROWS_PER_TILE * 4) as u64;
        let set_size = 2 * rows_bytes + x_bytes + y_bytes;
        let base = (tile % 2) as u64 * set_size;
        (
            base,
            base + rows_bytes,
            base + 2 * rows_bytes,
            base + 2 * rows_bytes + x_bytes,
        )
    }
}

impl DeviceKernel for GesummvDevice {
    fn name(&self) -> &str {
        "gesummv"
    }

    fn num_tiles(&self) -> usize {
        self.n / ROWS_PER_TILE
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        let n = self.n;
        let row0 = tile * ROWS_PER_TILE;
        let rows_bytes = (ROWS_PER_TILE * n * 4) as u64;
        let (a_off, b_off, x_off, y_off) = self.tcdm_offsets(tile);
        TileIo {
            inputs: vec![
                DmaRequest::input(self.a + (row0 * n * 4) as u64, a_off, rows_bytes),
                DmaRequest::input(self.b + (row0 * n * 4) as u64, b_off, rows_bytes),
                DmaRequest::input(self.x, x_off, (n * 4) as u64),
            ],
            outputs: vec![DmaRequest::output(
                self.y + (row0 * 4) as u64,
                y_off,
                (ROWS_PER_TILE * 4) as u64,
            )],
        }
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        let n = self.n;
        let (a_off, b_off, x_off, y_off) = self.tcdm_offsets(tile);
        tcdm.read_f32_slice(a_off, &mut self.a_rows)?;
        tcdm.read_f32_slice(b_off, &mut self.b_rows)?;
        tcdm.read_f32_slice(x_off, &mut self.x_vec)?;
        gesummv_block(
            &self.a_rows,
            &self.b_rows,
            &self.x_vec,
            self.alpha,
            self.beta,
            &mut self.y_block,
        );
        tcdm.write_f32_slice(y_off, &self.y_block)?;
        let macs = (2 * ROWS_PER_TILE * n) as u64;
        Ok(cost::gesummv_cost().parallel_region(macs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_manual_computation() {
        let wl = GesummvWorkload {
            n: 16,
            alpha: 1.0,
            beta: 1.0,
        };
        // A = I, B = I  =>  y = 2x.
        let n = 16;
        let mut a = vec![0.0f32; n * n];
        let mut b = vec![0.0f32; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
            b[i * n + i] = 1.0;
        }
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let exp = wl.expected(&[a, b, x.clone(), vec![0.0; n]]);
        let want: Vec<f32> = x.iter().map(|v| 2.0 * v).collect();
        assert_eq!(exp[3], want);
    }

    #[test]
    fn paper_configuration_moves_two_mebibytes() {
        let wl = GesummvWorkload::paper();
        assert_eq!(wl.n, 512);
        assert_eq!(wl.device_bytes(), 2 * 512 * 512 * 4 + 2 * 512 * 4);
        assert_eq!(wl.buffers().len(), 4);
    }

    #[test]
    fn device_tiles_cover_all_rows() {
        let wl = GesummvWorkload::paper();
        let ptrs: Vec<Iova> = (0..4).map(|i| Iova::new(0x1000_0000 * (i + 1))).collect();
        let dev = wl.device_kernel(&ptrs);
        assert_eq!(dev.num_tiles(), 64);
        let y_bytes: u64 = (0..dev.num_tiles())
            .map(|t| dev.tile_io(t).output_bytes())
            .sum();
        assert_eq!(y_bytes, 512 * 4);
        // Matrix traffic: both matrices are streamed exactly once, x once per tile.
        let in_bytes: u64 = (0..dev.num_tiles())
            .map(|t| dev.tile_io(t).input_bytes())
            .sum();
        assert_eq!(in_bytes, (2 * 512 * 512 * 4 + 64 * 512 * 4) as u64);
    }

    #[test]
    fn tile_layout_fits_the_tcdm() {
        let wl = GesummvWorkload::paper();
        let ptrs: Vec<Iova> = (0..4).map(|i| Iova::new(0x1000_0000 * (i + 1))).collect();
        let dev = wl.device_kernel(&ptrs);
        let per_set = dev.tile_io(0).input_bytes() + dev.tile_io(0).output_bytes();
        assert!(
            2 * per_set <= 128 * 1024,
            "double-buffered tile must fit the TCDM"
        );
    }
}
