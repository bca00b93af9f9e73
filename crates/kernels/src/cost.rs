//! Calibration constants mapping operation counts to cluster cycles.
//!
//! The compute portion of each kernel is charged through
//! [`sva_cluster::PeCost`] using the constants below. They are *calibration*
//! values, not measurements: they were chosen so the baseline (no IOMMU)
//! runtimes of Table II land in the same order of magnitude as the paper's
//! FPGA measurements, with the relative arithmetic intensity of the kernels
//! preserved (gemm most compute-bound, heat3d most memory-bound). The
//! evaluation criterion of the reproduction is the *shape* of the results —
//! relative overheads, trends with DRAM latency, effect of the LLC — which is
//! insensitive to moderate changes in these constants.

use sva_cluster::PeCost;

/// Cluster cycles one Snitch PE spends per multiply-accumulate in the inner
/// gemm loop (FPU pipelining is good for gemm, loop overhead modest).
pub const GEMM_CYCLES_PER_MAC: f64 = 2.8;

/// Cluster cycles per multiply-accumulate for the matrix-vector kernels
/// (gesummv); less reuse means more address generation per FLOP.
pub const GESUMMV_CYCLES_PER_MAC: f64 = 3.0;

/// Cluster cycles per grid-point update for the heat3d stencil (seven-point
/// stencil: ~8 FLOPs plus neighbour addressing).
pub const HEAT3D_CYCLES_PER_POINT: f64 = 8.5;

/// Cluster cycles per element per axpy update (one FMA, two loads, one
/// store from TCDM).
pub const AXPY_CYCLES_PER_ELEM: f64 = 6.0;

/// Cluster cycles per element per local-sort comparison step.
pub const SORT_CYCLES_PER_CMP: f64 = 20.0;

/// Cluster cycles per element merged in a merge pass (merging parallelises
/// poorly across PEs, so the per-element cost is charged at reduced
/// parallel efficiency through [`sort_merge_cost`]).
pub const SORT_CYCLES_PER_MERGE_ELEM: f64 = 12.0;

/// Fixed cluster cycles of overhead per parallel region (barrier, loop
/// setup).
pub const REGION_OVERHEAD: u64 = 150;

/// Cost model for the gemm inner kernel.
pub fn gemm_cost() -> PeCost {
    PeCost::new(GEMM_CYCLES_PER_MAC, REGION_OVERHEAD)
}

/// Cost model for gesummv.
pub fn gesummv_cost() -> PeCost {
    PeCost::new(GESUMMV_CYCLES_PER_MAC, REGION_OVERHEAD)
}

/// Cost model for heat3d.
pub fn heat3d_cost() -> PeCost {
    PeCost::new(HEAT3D_CYCLES_PER_POINT, REGION_OVERHEAD)
}

/// Cost model for axpy.
pub fn axpy_cost() -> PeCost {
    PeCost::new(AXPY_CYCLES_PER_ELEM, REGION_OVERHEAD)
}

/// Cost model for the local sort phase of the sort kernel.
pub fn sort_local_cost() -> PeCost {
    PeCost::new(SORT_CYCLES_PER_CMP, REGION_OVERHEAD)
}

/// Cost model for the merge phase of the sort kernel (limited parallelism:
/// a pair-wise merge keeps only part of the cluster busy).
pub fn sort_merge_cost() -> PeCost {
    PeCost::new(SORT_CYCLES_PER_MERGE_ELEM, REGION_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn gemm_is_the_most_efficient_per_op() {
        assert!(GEMM_CYCLES_PER_MAC <= GESUMMV_CYCLES_PER_MAC);
        assert!(GEMM_CYCLES_PER_MAC < HEAT3D_CYCLES_PER_POINT);
    }

    #[test]
    fn cost_models_produce_nonzero_cycles() {
        for cost in [
            gemm_cost(),
            gesummv_cost(),
            heat3d_cost(),
            axpy_cost(),
            sort_local_cost(),
        ] {
            assert!(cost.parallel_region(1000).raw() > 0);
        }
    }
}
