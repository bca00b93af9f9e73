//! Processing-element compute-cost helpers.
//!
//! The compute portion of a kernel tile is not simulated instruction by
//! instruction; instead each kernel charges a number of **cluster-domain
//! cycles** derived from its operation count and a per-kernel efficiency
//! factor (how many cycles one PE needs per elementary operation, including
//! loop and SSR/FREP overheads). These helpers centralise the conversion so
//! all kernels use the same one.

use sva_common::Cycles;

/// Number of compute PEs of the evaluated Snitch cluster (the ninth,
/// DMA-driving core is not counted).
const NUM_PES: u64 = 8;

/// Converts an operation count into host-domain cycles for a parallel region
/// executed by all eight compute PEs of the cluster.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PeCost {
    /// Cluster cycles one PE spends per elementary operation (1.0 would be a
    /// perfectly pipelined FMA per cycle; realistic kernels are higher).
    pub cycles_per_op: f64,
    /// Fixed cluster cycles charged per parallel region (fork/join barrier,
    /// loop setup).
    pub region_overhead: u64,
}

impl PeCost {
    /// Creates a cost model.
    pub fn new(cycles_per_op: f64, region_overhead: u64) -> Self {
        Self {
            cycles_per_op,
            region_overhead,
        }
    }

    /// Host-domain cycles needed to execute `ops` elementary operations
    /// spread over all PEs.
    ///
    /// Work is divided across PEs (ceiling division models the slowest PE of
    /// an uneven split), each operation costs `cycles_per_op` cluster cycles,
    /// and the per-region overhead is added once.
    pub fn parallel_region(&self, ops: u64) -> Cycles {
        let per_pe = ops.div_ceil(NUM_PES);
        let cluster_cycles =
            (per_pe as f64 * self.cycles_per_op).ceil() as u64 + self.region_overhead;
        Cycles::from_cluster_cycles(cluster_cycles)
    }

    /// Host-domain cycles for work that cannot be parallelised (runs on one
    /// PE).
    pub fn serial_region(&self, ops: u64) -> Cycles {
        let cluster_cycles = (ops as f64 * self.cycles_per_op).ceil() as u64 + self.region_overhead;
        Cycles::from_cluster_cycles(cluster_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_region_divides_work_across_pes() {
        let cost = PeCost::new(1.0, 0);
        // 800 ops over 8 PEs at 1 op/cycle = 100 cluster cycles = 250 host cycles.
        assert_eq!(cost.parallel_region(800), Cycles::new(250));
    }

    #[test]
    fn uneven_split_charges_the_slowest_pe() {
        let cost = PeCost::new(1.0, 0);
        assert_eq!(cost.parallel_region(801), cost.parallel_region(808));
    }

    #[test]
    fn overhead_is_charged_once() {
        let with = PeCost::new(1.0, 40);
        let without = PeCost::new(1.0, 0);
        let delta = with.parallel_region(800) - without.parallel_region(800);
        assert_eq!(delta, Cycles::from_cluster_cycles(40));
    }

    #[test]
    fn serial_region_uses_one_pe() {
        let cost = PeCost::new(2.0, 0);
        assert_eq!(cost.serial_region(100), Cycles::from_cluster_cycles(200));
        assert!(cost.serial_region(800) > cost.parallel_region(800));
    }
}
