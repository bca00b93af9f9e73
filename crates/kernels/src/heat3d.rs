//! `heat3d`: 3-D heat-diffusion stencil (RajaPERF / PolyBench).
//!
//! A seven-point Jacobi stencil over a 64³ grid, iterated for two time steps
//! (ping-pong between the state array and a scratch array). Every grid point
//! is read and written once per step with almost no reuse, which makes this
//! the most memory-bound kernel of the suite — the one for which the paper
//! measures both the largest DMA share (up to 80.8 %) and the largest IOMMU
//! overhead without an LLC (up to 81.3 %).
//!
//! The device processes one output z-plane per tile: the three contributing
//! input planes are fetched as contiguous plane transfers, while the output
//! plane is written back row by row (the natural store pattern of the
//! stencil), giving the short-burst traffic that exposes memory latency.
//!
//! **Operation order.** Device and reference both run `stencil_row` on
//! every interior row and copy boundary rows and points unchanged. Each
//! interior point is `C_CENTER * c + C_NEIGH * (zm + zp + ym + yp + xm + xp)`,
//! summed left to right, so device results are bit-identical to the
//! reference.

use sva_cluster::{DeviceKernel, DmaRequest, Tcdm, TileIo};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, Result};
use sva_host::HostKernelCost;

use crate::cost;
use crate::workload::{BufferKind, BufferSpec, Workload};

/// The heat3d workload descriptor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Heat3dWorkload {
    /// Grid side length (the paper uses 64).
    pub n: usize,
    /// Number of Jacobi time steps (even, so the result lands back in the
    /// state array).
    pub steps: usize,
}

/// Stencil coefficients (central point and the six neighbours).
const C_CENTER: f32 = 0.4;
const C_NEIGH: f32 = 0.1;

impl Heat3dWorkload {
    /// The paper's configuration: a 64 × 64 × 64 grid.
    pub fn paper() -> Self {
        Self { n: 64, steps: 2 }
    }

    /// A grid of side `n` with `steps` time steps.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `steps` is odd (odd step counts would leave the
    /// result in the scratch array).
    pub fn with_dim(n: usize, steps: usize) -> Self {
        assert!(n >= 4, "heat3d grid must be at least 4 points per side");
        assert!(steps % 2 == 0, "heat3d step count must be even");
        Self { n, steps }
    }

    fn elems(&self) -> usize {
        self.n * self.n * self.n
    }

    /// Applies one Jacobi step from `src` into `dst` (reference).
    fn step(&self, src: &[f32], dst: &mut [f32]) {
        let n = self.n;
        let plane = n * n;
        for (z, dst_plane) in dst.chunks_exact_mut(plane).enumerate() {
            let center = &src[z * plane..][..plane];
            if z == 0 || z == n - 1 {
                dst_plane.copy_from_slice(center);
                continue;
            }
            let below = &src[(z - 1) * plane..][..plane];
            let above = &src[(z + 1) * plane..][..plane];
            plane_step(dst_plane, below, center, above, n);
        }
    }
}

/// One output z-plane of an interior z: boundary rows are copied from
/// `center`, interior rows go through `stencil_row`. All planes are
/// `n × n`, row-major.
fn plane_step(out: &mut [f32], below: &[f32], center: &[f32], above: &[f32], n: usize) {
    fn row(p: &[f32], y: usize, n: usize) -> &[f32] {
        &p[y * n..][..n]
    }
    for (y, out_row) in out.chunks_exact_mut(n).enumerate() {
        if y == 0 || y == n - 1 {
            out_row.copy_from_slice(row(center, y, n));
        } else {
            stencil_row(
                out_row,
                row(center, y, n),
                row(below, y, n),
                row(above, y, n),
                row(center, y - 1, n),
                row(center, y + 1, n),
            );
        }
    }
}

/// One interior row of the seven-point stencil: `c` is the row itself,
/// `zm`/`zp` the same row in the planes below and above, `ym`/`yp` the
/// neighbouring rows in the same plane. The two boundary points are copied.
fn stencil_row(out: &mut [f32], c: &[f32], zm: &[f32], zp: &[f32], ym: &[f32], yp: &[f32]) {
    let n = c.len();
    out[0] = c[0];
    out[n - 1] = c[n - 1];
    let m = n - 2;
    let inner = out[1..=m]
        .iter_mut()
        .zip(&c[1..=m])
        .zip(c[..m].iter().zip(&c[2..2 + m]))
        .zip(zm[1..=m].iter().zip(&zp[1..=m]))
        .zip(ym[1..=m].iter().zip(&yp[1..=m]));
    for ((((o, &c), (&xm, &xp)), (&zm, &zp)), (&ym, &yp)) in inner {
        *o = C_CENTER * c + C_NEIGH * (zm + zp + ym + yp + xm + xp);
    }
}

impl Workload for Heat3dWorkload {
    fn name(&self) -> &'static str {
        "heat3d"
    }

    fn params(&self) -> String {
        format!("{0} x {0} x {0}, {1} steps", self.n, self.steps)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                name: "u",
                elems: self.elems(),
                kind: BufferKind::InOut,
            },
            BufferSpec {
                name: "u_tmp",
                elems: self.elems(),
                kind: BufferKind::Scratch,
            },
        ]
    }

    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        let mut u = vec![0.0f32; self.elems()];
        rng.fill_f32(&mut u, 0.0, 100.0);
        vec![u, vec![0.0f32; self.elems()]]
    }

    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut a = initial[0].clone();
        let mut b = vec![0.0f32; self.elems()];
        for _ in 0..self.steps / 2 {
            self.step(&a, &mut b);
            self.step(&b, &mut a);
        }
        vec![a, Vec::new()]
    }

    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        let plane = self.n * self.n;
        Box::new(Heat3dDevice {
            n: self.n,
            steps: self.steps,
            u: device_ptrs[0],
            u_tmp: device_ptrs[1],
            planes: vec![0.0; 3 * plane],
            out: vec![0.0; plane],
        })
    }

    fn host_cost(&self) -> HostKernelCost {
        HostKernelCost {
            ops: (self.elems() * self.steps) as u64,
            cycles_per_op: 10.0,
            read_passes: self.steps as u32,
            write_passes: self.steps as u32,
        }
    }

    fn flops(&self) -> u64 {
        8 * (self.elems() * self.steps) as u64
    }
}

/// Device-side plane-streamed heat3d.
struct Heat3dDevice {
    n: usize,
    steps: usize,
    u: Iova,
    u_tmp: Iova,
    /// Host copies of the three TCDM input plane slots and the output
    /// plane, reused across tiles.
    planes: Vec<f32>,
    out: Vec<f32>,
}

impl Heat3dDevice {
    fn plane_bytes(&self) -> u64 {
        (self.n * self.n * 4) as u64
    }

    /// Source and destination arrays for a time step (ping-pong).
    fn arrays_for_step(&self, step: usize) -> (Iova, Iova) {
        if step % 2 == 0 {
            (self.u, self.u_tmp)
        } else {
            (self.u_tmp, self.u)
        }
    }

    /// `(step, z)` coordinates of a tile.
    fn tile_coords(&self, tile: usize) -> (usize, usize) {
        (tile / self.n, tile % self.n)
    }

    /// TCDM layout of one buffer set: three input planes then the output
    /// plane.
    fn tcdm_offsets(&self, tile: usize) -> (u64, u64) {
        let set = (tile % 2) as u64;
        let base = set * 4 * self.plane_bytes();
        (base, base + 3 * self.plane_bytes())
    }
}

impl DeviceKernel for Heat3dDevice {
    fn name(&self) -> &str {
        "heat3d"
    }

    fn num_tiles(&self) -> usize {
        self.steps * self.n
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        let n = self.n;
        let (step, z) = self.tile_coords(tile);
        let (src, dst) = self.arrays_for_step(step);
        let (in_off, out_off) = self.tcdm_offsets(tile);
        let plane = self.plane_bytes();

        // Input: the contributing planes (z-1, z, z+1 clamped to the grid).
        let lo = z.saturating_sub(1);
        let hi = (z + 1).min(n - 1);
        let mut inputs = Vec::with_capacity(3);
        for (slot, zz) in (lo..=hi).enumerate() {
            inputs.push(DmaRequest::input(
                src + (zz as u64) * plane,
                in_off + slot as u64 * plane,
                plane,
            ));
        }

        // Output: the z plane of the destination array, one row at a time.
        let row_bytes = (n * 4) as u64;
        let outputs = (0..n)
            .map(|y| {
                DmaRequest::output(
                    dst + (z as u64) * plane + y as u64 * row_bytes,
                    out_off + y as u64 * row_bytes,
                    row_bytes,
                )
            })
            .collect();

        TileIo { inputs, outputs }
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        let n = self.n;
        let plane = n * n;
        let (_, z) = self.tile_coords(tile);
        let (in_off, out_off) = self.tcdm_offsets(tile);
        if z == 0 || z == n - 1 {
            // Boundary plane: a copy of plane `z`, which sits in slot 0 for
            // z == 0 and in slot 1 (after plane z-1) for z == n-1.
            let center_off = if z == 0 { 0 } else { self.plane_bytes() };
            tcdm.read_f32_slice(in_off + center_off, &mut self.out)?;
        } else {
            tcdm.read_f32_slice(in_off, &mut self.planes)?;
            let (below, rest) = self.planes.split_at(plane);
            let (center, above) = rest.split_at(plane);
            plane_step(&mut self.out, below, center, above, n);
        }
        tcdm.write_f32_slice(out_off, &self.out)?;
        Ok(cost::heat3d_cost().parallel_region((n * n) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_points_are_preserved_by_the_reference() {
        let wl = Heat3dWorkload::with_dim(8, 2);
        let mut rng = DeterministicRng::new(3);
        let init = wl.init(&mut rng);
        let exp = wl.expected(&init);
        // Corner stays untouched across both steps.
        assert_eq!(exp[0][0], init[0][0]);
        let n = 8;
        let last = (n * n * n) - 1;
        assert_eq!(exp[0][last], init[0][last]);
    }

    #[test]
    fn interior_points_diffuse_towards_neighbours() {
        let wl = Heat3dWorkload::with_dim(4, 2);
        // A uniform field stays uniform under the stencil (0.4 + 6*0.1 = 1).
        let init = vec![vec![10.0f32; 64], vec![0.0f32; 64]];
        let exp = wl.expected(&init);
        for v in &exp[0] {
            assert!((v - 10.0).abs() < 1e-4);
        }
    }

    #[test]
    fn paper_configuration() {
        let wl = Heat3dWorkload::paper();
        assert_eq!(wl.n, 64);
        assert_eq!(wl.steps, 2);
        assert_eq!(wl.buffers()[0].bytes(), 1024 * 1024);
    }

    #[test]
    fn tiles_cover_both_time_steps() {
        let wl = Heat3dWorkload::paper();
        let dev = wl.device_kernel(&[Iova::new(0x1000_0000), Iova::new(0x2000_0000)]);
        assert_eq!(dev.num_tiles(), 128);
        // First-step tiles read from u, second-step tiles read from u_tmp.
        let first = dev.tile_io(1);
        let second = dev.tile_io(65);
        assert!(first.inputs[0].ext_addr.raw() < 0x2000_0000);
        assert!(second.inputs[0].ext_addr.raw() >= 0x2000_0000);
    }

    #[test]
    fn interior_tile_reads_three_planes_and_fits_tcdm() {
        let wl = Heat3dWorkload::paper();
        let dev = wl.device_kernel(&[Iova::new(0x1000_0000), Iova::new(0x2000_0000)]);
        let io = dev.tile_io(5);
        assert_eq!(io.inputs.len(), 3);
        assert_eq!(io.outputs.len(), 64);
        let set_bytes = io.input_bytes() + io.output_bytes();
        assert!(2 * set_bytes <= 128 * 1024);
        // Boundary tile only needs two planes.
        assert_eq!(dev.tile_io(0).inputs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_step_count_is_rejected() {
        let _ = Heat3dWorkload::with_dim(8, 3);
    }
}
