//! The benchmark suite registry (Table I of the paper).
//!
//! [`KernelKind`] enumerates the five evaluated kernels with their paper
//! input sizes and descriptions, and constructs the corresponding
//! [`Workload`] objects. The experiment harness iterates
//! [`KernelKind::ALL`] to regenerate the tables and figures.

use crate::axpy::AxpyWorkload;
use crate::gemm::GemmWorkload;
use crate::gesummv::GesummvWorkload;
use crate::heat3d::Heat3dWorkload;
use crate::sort::SortWorkload;
use crate::workload::Workload;

/// The kernels of the evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Generic vector-vector addition (`y = a*x + y`).
    Axpy,
    /// Generic matrix-matrix multiplication.
    Gemm,
    /// Generic matrix-vector multiplication (`y = αAx + βBx`).
    Gesummv,
    /// 3-D heat propagation equation (seven-point stencil).
    Heat3d,
    /// Parallel merge sort.
    Sort,
}

impl KernelKind {
    /// All kernels, in the order of Table I.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Gemm,
        KernelKind::Gesummv,
        KernelKind::Heat3d,
        KernelKind::Axpy,
        KernelKind::Sort,
    ];

    /// The four kernels reported in Table II / Figure 4 (axpy is used for
    /// the offloading and PTW experiments instead).
    pub const TABLE2: [KernelKind; 4] = [
        KernelKind::Gemm,
        KernelKind::Gesummv,
        KernelKind::Heat3d,
        KernelKind::Sort,
    ];

    /// Kernel name as printed in the paper.
    pub const fn name(self) -> &'static str {
        match self {
            KernelKind::Axpy => "axpy",
            KernelKind::Gemm => "gemm",
            KernelKind::Gesummv => "gesummv",
            KernelKind::Heat3d => "heat3d",
            KernelKind::Sort => "merge sort",
        }
    }

    /// The paper's input-size string (Table I).
    pub const fn input_size(self) -> &'static str {
        match self {
            KernelKind::Axpy => "32768",
            KernelKind::Gemm => "128 x 128",
            KernelKind::Gesummv => "512 x 512",
            KernelKind::Heat3d => "64 x 64 x 64",
            KernelKind::Sort => "65536",
        }
    }

    /// The paper's one-line description (Table I).
    pub const fn description(self) -> &'static str {
        match self {
            KernelKind::Axpy => "Generic vector-vector addition.",
            KernelKind::Gemm => "Generic matrix-matrix multiplication.",
            KernelKind::Gesummv => "Generic matrix-vector multiplication.",
            KernelKind::Heat3d => "3D heat propagation equation.",
            KernelKind::Sort => "Merge sort algorithm.",
        }
    }

    /// Builds the workload at the paper's input size.
    pub fn paper_workload(self) -> Box<dyn Workload> {
        match self {
            KernelKind::Axpy => Box::new(AxpyWorkload::paper()),
            KernelKind::Gemm => Box::new(GemmWorkload::paper()),
            KernelKind::Gesummv => Box::new(GesummvWorkload::paper()),
            KernelKind::Heat3d => Box::new(Heat3dWorkload::paper()),
            KernelKind::Sort => Box::new(SortWorkload::paper()),
        }
    }

    /// Builds a reduced-size workload suitable for fast functional tests and
    /// continuous integration (same code paths, smaller data).
    pub fn small_workload(self) -> Box<dyn Workload> {
        match self {
            KernelKind::Axpy => Box::new(AxpyWorkload::with_elems(6_000)),
            KernelKind::Gemm => Box::new(GemmWorkload::with_dim(64)),
            KernelKind::Gesummv => Box::new(GesummvWorkload::with_dim(128)),
            KernelKind::Heat3d => Box::new(Heat3dWorkload::with_dim(16, 2)),
            KernelKind::Sort => Box::new(SortWorkload::with_elems(16_384)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table1() {
        let rows: Vec<_> = KernelKind::ALL
            .iter()
            .map(|k| (k.name(), k.input_size(), k.description()))
            .collect();
        assert_eq!(rows.len(), 5);
        assert!(rows
            .iter()
            .any(|(n, s, _)| *n == "gemm" && *s == "128 x 128"));
        assert!(rows
            .iter()
            .any(|(n, s, _)| *n == "merge sort" && *s == "65536"));
    }

    #[test]
    fn paper_workloads_have_expected_sizes() {
        for kind in KernelKind::ALL {
            let wl = kind.paper_workload();
            assert!(!wl.buffers().is_empty());
            assert!(wl.device_bytes() > 0);
            assert!(wl.flops() > 0);
        }
        assert_eq!(
            KernelKind::Gemm.paper_workload().device_bytes(),
            3 * 64 * 1024
        );
        assert_eq!(
            KernelKind::Heat3d.paper_workload().device_bytes(),
            2 * 1024 * 1024
        );
    }

    #[test]
    fn small_workloads_are_smaller() {
        for kind in KernelKind::ALL {
            let small = kind.small_workload().device_bytes();
            let paper = kind.paper_workload().device_bytes();
            assert!(small < paper, "{kind:?}: {small} !< {paper}");
        }
    }

    #[test]
    fn init_expected_verify_roundtrip_for_every_kernel() {
        use sva_common::rng::DeterministicRng;
        for kind in KernelKind::ALL {
            let wl = kind.small_workload();
            let mut rng = DeterministicRng::new(42);
            let init = wl.init(&mut rng);
            assert_eq!(init.len(), wl.buffers().len());
            for (buf, spec) in init.iter().zip(wl.buffers()) {
                assert_eq!(buf.len(), spec.elems, "{kind:?} buffer {}", spec.name);
            }
            let expected = wl.expected(&init);
            // The reference output must verify against itself.
            wl.verify(&expected, &expected).unwrap();
            // A corrupted result buffer must be rejected.
            let mut broken = expected.clone();
            if let Some(result_idx) = wl
                .buffers()
                .iter()
                .position(|b| b.kind.is_result() && b.elems > 0)
            {
                broken[result_idx][0] += 1.0e6;
                assert!(wl.verify(&expected, &broken).is_err(), "{kind:?}");
            }
        }
    }
}
