//! `gemm`: single-precision general matrix-matrix multiplication
//! `C = A × B` (RajaPERF / PolyBench).
//!
//! The most arithmetically intense kernel of the suite (O(n³) FLOPs over
//! O(n²) data). The device implementation tiles `C` into 32 × 32 blocks; for
//! each block it fetches the corresponding 32-row panel of `A` (contiguous)
//! and the 32-column panel of `B` (one short burst per matrix row — the
//! strided access pattern that makes the IOMMU's per-page translation
//! visible), computes the block with all eight PEs and writes it back row by
//! row.
//!
//! **Operation order.** Device and reference both run `matmul_acc`: every
//! element of `C` starts at `0.0` and accumulates `a[i][k] * b[k][j]` in
//! ascending `k`, one rounded multiply and one rounded add per step. Device
//! results are therefore bit-identical to the reference.

use sva_cluster::{DeviceKernel, DmaRequest, Tcdm, TileIo};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, Result};
use sva_host::HostKernelCost;

use crate::cost;
use crate::workload::{BufferKind, BufferSpec, Workload};

/// Side length of a square `C` block computed per tile.
const BLOCK: usize = 32;

/// The gemm workload descriptor (square matrices).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GemmWorkload {
    /// Matrix dimension (the paper uses 128).
    pub n: usize,
}

impl GemmWorkload {
    /// The paper's configuration: 128 × 128 matrices.
    pub fn paper() -> Self {
        Self { n: 128 }
    }

    /// A gemm of dimension `n` (must be a multiple of the 32-element block).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 32.
    pub fn with_dim(n: usize) -> Self {
        assert!(
            n > 0 && n % BLOCK == 0,
            "gemm dimension must be a multiple of 32"
        );
        Self { n }
    }

    fn blocks(&self) -> usize {
        self.n / BLOCK
    }
}

impl Workload for GemmWorkload {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn params(&self) -> String {
        format!("{} x {}", self.n, self.n)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let elems = self.n * self.n;
        vec![
            BufferSpec {
                name: "A",
                elems,
                kind: BufferKind::Input,
            },
            BufferSpec {
                name: "B",
                elems,
                kind: BufferKind::Input,
            },
            BufferSpec {
                name: "C",
                elems,
                kind: BufferKind::Output,
            },
        ]
    }

    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        let elems = self.n * self.n;
        let mut a = vec![0.0f32; elems];
        let mut b = vec![0.0f32; elems];
        rng.fill_f32(&mut a, -1.0, 1.0);
        rng.fill_f32(&mut b, -1.0, 1.0);
        vec![a, b, vec![0.0f32; elems]]
    }

    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = self.n;
        let mut c = vec![0.0f32; n * n];
        matmul_acc(&initial[0], &initial[1], &mut c, n, n);
        vec![Vec::new(), Vec::new(), c]
    }

    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        Box::new(GemmDevice {
            n: self.n,
            a: device_ptrs[0],
            b: device_ptrs[1],
            c: device_ptrs[2],
            a_panel: vec![0.0; BLOCK * self.n],
            b_panel: vec![0.0; self.n * BLOCK],
            c_block: vec![0.0; BLOCK * BLOCK],
        })
    }

    fn host_cost(&self) -> HostKernelCost {
        let n = self.n as u64;
        HostKernelCost {
            ops: n * n * n,
            cycles_per_op: 4.5,
            // The host re-reads A and B once per block row.
            read_passes: self.blocks() as u32,
            write_passes: 1,
        }
    }

    fn flops(&self) -> u64 {
        2 * (self.n as u64).pow(3)
    }
}

/// `c += a · b` for row-major `a` (`rows × k`), `b` (`k × width`) and `c`
/// (`rows × width`). Loops `i → k → j`, so each `c[i][j]` accumulates its
/// products in ascending `k` while the `j` loop runs over whole rows and
/// vectorizes.
fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], k: usize, width: usize) {
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(width)) {
        for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(width)) {
            for (cij, &bkj) in c_row.iter_mut().zip(b_row) {
                *cij += aik * bkj;
            }
        }
    }
}

/// Device-side blocked gemm.
struct GemmDevice {
    n: usize,
    a: Iova,
    b: Iova,
    c: Iova,
    /// Host copies of the TCDM-resident A panel, B panel and C block,
    /// reused across tiles.
    a_panel: Vec<f32>,
    b_panel: Vec<f32>,
    c_block: Vec<f32>,
}

impl GemmDevice {
    fn blocks(&self) -> usize {
        self.n / BLOCK
    }

    /// TCDM layout of one buffer set: A panel, then B panel, then C block.
    fn tcdm_offsets(&self, tile: usize) -> (u64, u64, u64) {
        let a_panel = (BLOCK * self.n * 4) as u64;
        let b_panel = (BLOCK * self.n * 4) as u64;
        let c_block = (BLOCK * BLOCK * 4) as u64;
        let set = (tile % 2) as u64;
        let base = set * (a_panel + b_panel + c_block);
        (base, base + a_panel, base + a_panel + b_panel)
    }

    fn block_coords(&self, tile: usize) -> (usize, usize) {
        (tile / self.blocks(), tile % self.blocks())
    }
}

impl DeviceKernel for GemmDevice {
    fn name(&self) -> &str {
        "gemm"
    }

    fn num_tiles(&self) -> usize {
        self.blocks() * self.blocks()
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        let n = self.n;
        let (bi, bj) = self.block_coords(tile);
        let (a_off, b_off, c_off) = self.tcdm_offsets(tile);

        let mut inputs = Vec::with_capacity(1 + n);
        // A panel: rows bi*BLOCK .. bi*BLOCK+BLOCK are contiguous in row-major A.
        inputs.push(DmaRequest::input(
            self.a + (bi * BLOCK * n * 4) as u64,
            a_off,
            (BLOCK * n * 4) as u64,
        ));
        // B panel: for every row k of B, the 32-column slice [bj*BLOCK ..) —
        // one short strided burst per row.
        for k in 0..n {
            inputs.push(DmaRequest::input(
                self.b + ((k * n + bj * BLOCK) * 4) as u64,
                b_off + (k * BLOCK * 4) as u64,
                (BLOCK * 4) as u64,
            ));
        }
        // C block: one short burst per row of the block.
        let mut outputs = Vec::with_capacity(BLOCK);
        for i in 0..BLOCK {
            outputs.push(DmaRequest::output(
                self.c + (((bi * BLOCK + i) * n + bj * BLOCK) * 4) as u64,
                c_off + (i * BLOCK * 4) as u64,
                (BLOCK * 4) as u64,
            ));
        }
        TileIo { inputs, outputs }
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        let n = self.n;
        let (a_off, b_off, c_off) = self.tcdm_offsets(tile);
        tcdm.read_f32_slice(a_off, &mut self.a_panel)?;
        tcdm.read_f32_slice(b_off, &mut self.b_panel)?;
        self.c_block.fill(0.0);
        matmul_acc(&self.a_panel, &self.b_panel, &mut self.c_block, n, BLOCK);
        tcdm.write_f32_slice(c_off, &self.c_block)?;
        let macs = (BLOCK * BLOCK * n) as u64;
        Ok(cost::gemm_cost().parallel_region(macs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_identity_multiplication() {
        let wl = GemmWorkload::with_dim(32);
        let n = 32;
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let mut b = vec![0.0f32; n * n];
        for (i, v) in b.iter_mut().enumerate() {
            *v = i as f32;
        }
        let exp = wl.expected(&[a, b.clone(), vec![0.0; n * n]]);
        assert_eq!(exp[2], b);
    }

    #[test]
    fn paper_configuration() {
        let wl = GemmWorkload::paper();
        assert_eq!(wl.n, 128);
        assert_eq!(wl.flops(), 2 * 128u64.pow(3));
        assert_eq!(wl.device_bytes(), 3 * 128 * 128 * 4);
    }

    #[test]
    fn device_tiles_cover_all_of_c_exactly_once() {
        let wl = GemmWorkload::paper();
        let dev = wl.device_kernel(&[
            Iova::new(0x1000_0000),
            Iova::new(0x2000_0000),
            Iova::new(0x3000_0000),
        ]);
        assert_eq!(dev.num_tiles(), 16);
        let out_bytes: u64 = (0..dev.num_tiles())
            .map(|t| dev.tile_io(t).output_bytes())
            .sum();
        assert_eq!(out_bytes, (128 * 128 * 4) as u64);
    }

    #[test]
    fn b_panel_is_fetched_with_strided_bursts() {
        let wl = GemmWorkload::paper();
        let dev = wl.device_kernel(&[
            Iova::new(0x1000_0000),
            Iova::new(0x2000_0000),
            Iova::new(0x3000_0000),
        ]);
        let io = dev.tile_io(0);
        // 1 contiguous A panel + 128 strided B rows.
        assert_eq!(io.inputs.len(), 129);
        assert_eq!(io.inputs[1].len, 128);
        assert_eq!(io.input_bytes(), (32 * 128 * 4 + 128 * 32 * 4) as u64);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn dimension_must_be_block_multiple() {
        let _ = GemmWorkload::with_dim(100);
    }
}
