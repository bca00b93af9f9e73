//! End-to-end and per-layer wallclock benchmark of the SVA simulator.
//!
//! The benchmark reaches the simulator only through its public API:
//! `Platform::new`, `OffloadRunner::{run, run_device_only}` and
//! `KernelKind::paper_workload`, plus the public stats structs it reads
//! after each point. See `perfbench/README.md` for the workloads, the
//! metrics and what each layer metric is expected to move.

pub mod pass;
pub mod points;
pub mod trace;

/// End-to-end metrics `(name, unit)`, reported by untraced runs. The
/// share of failed points, `fail_ratio`, is reported with the per-layer
/// metrics and in the result's `failed` count instead: an end-to-end
/// metric has to be a nonzero figure whose median a change can worsen.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, reported by traced runs. Names
/// ending in `_s` are host seconds, names ending in `_cycles` simulated
/// cycles.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("kernels.compute_s", "s"),
    ("kernels.plan_s", "s"),
    ("kernels.tile_io_s", "s"),
    ("kernels.init_s", "s"),
    ("kernels.reference_s", "s"),
    ("kernels.verify_s", "s"),
    ("kernels.tiles", "count"),
    ("soc.boot_s", "s"),
    ("soc.run_s", "s"),
    // `soc.run_s` split along each workload's traffic dimension; a class
    // the workload does not have reads 0.
    ("soc.run_baseline_s", "s"),
    ("soc.run_iommu_s", "s"),
    ("soc.run_iommu_llc_s", "s"),
    ("soc.run_host_only_s", "s"),
    ("soc.run_copy_s", "s"),
    ("soc.run_zero_copy_s", "s"),
    ("soc.run_premapped_s", "s"),
    ("soc.run_demand_s", "s"),
    ("soc.sim_self_s", "s"),
    ("soc.coverage", "ratio"),
    ("soc.points", "count"),
    ("soc.points_failed", "count"),
    ("fail_ratio", "ratio"),
    ("cluster.compute_cycles", "cycles"),
    ("cluster.dma_wait_cycles", "cycles"),
    ("dma.bursts", "count"),
    ("dma.bytes", "bytes"),
    ("dma.translation_cycles", "cycles"),
    ("dma.issue_stall_cycles", "cycles"),
    ("dma.fault_stall_cycles", "cycles"),
    ("dma.page_faults", "count"),
    ("iommu.translations", "count"),
    ("iommu.iotlb_hit_rate", "ratio"),
    ("iommu.atc_hit_rate", "ratio"),
    ("iommu.ptw_walks", "count"),
    ("iommu.ptw_reads", "count"),
    ("iommu.ptw_coalesced_reads", "count"),
    ("iommu.ptw_mean_cycles", "cycles"),
    ("iommu.pri_serviced", "count"),
    ("iommu.pri_dropped", "count"),
    ("iommu.walk_table_events_peak", "count"),
    ("iommu.pri_pending_peak", "count"),
    ("mem.host_accesses", "count"),
    ("mem.ptw_accesses", "count"),
    ("mem.dma_bursts", "count"),
    ("mem.dma_bytes", "bytes"),
    ("mem.llc_host_hit_rate", "ratio"),
    ("mem.llc_ptw_hit_rate", "ratio"),
    ("fabric.grants", "count"),
    ("fabric.queue_cycles", "cycles"),
    ("fabric.contended_grants", "count"),
    ("fabric.issue_stall_cycles", "cycles"),
    ("host.copy_or_map_cycles", "cycles"),
    ("host.kernel_cycles", "cycles"),
    ("host.traffic_issued", "count"),
    ("host.traffic_queue_cycles", "cycles"),
    ("sim.cycles", "cycles"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.digest", "hash"),
    ("accuracy.fig2_zero_copy_gain", "ratio"),
    ("trace.overhead_s", "s"),
];
