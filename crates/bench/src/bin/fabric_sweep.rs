//! The fabric-scaling sweep driver: cluster count × platform variant × DRAM
//! latency × channel count × arbitration policy, run point by point, with
//! per-initiator and per-channel contention statistics.
//!
//! Three sub-grids are measured:
//!
//! * the **scaling grid** — clusters × variants × latencies at the baseline
//!   fabric (one channel, round-robin), the PR 1 perf trajectory;
//! * the **QoS grid** — channels {1, 2, 4} × every arbitration policy at the
//!   highest cluster count on the IOMMU+LLC variant, which is where the
//!   bandwidth and fairness knobs actually bite;
//! * the **global-clock grid** — timed host interference × MSHR-style PTW
//!   batching at the highest cluster count (single channel, round-robin):
//!   the engine where host loads/stores and page-table walks queue on the
//!   fabric timelines like every other initiator.
//!
//! Prints the scaling table and writes the machine-readable results to
//! `BENCH_fabric.json` (override with `--out <path>`), so successive PRs
//! accumulate a perf trajectory.
//!
//! Usage: `fabric_sweep [--paper|--small] [--out <path>]`

use std::time::Instant;

use sva_bench::{with_banner, Args};
use sva_common::Cycles;
use sva_common::{ArbitrationPolicy, QueueDepths, ReplacementPolicy, TlbOrg};
use sva_kernels::KernelKind;
use sva_soc::config::SocVariant;
use sva_soc::experiments::fabric::{
    self, FabricKnobs, FabricSweepResult, SweepMeta, TlbHierarchyConfig, TlbKnobs, TlbLevelConfig,
};

fn main() {
    let args = Args::from_env("fabric_sweep [--paper|--small] [--out <path>]", true);
    let size = args.size;
    let clusters: &[usize] = if size.is_paper() {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4]
    };
    let latencies = size.latencies();
    let variants = [
        SocVariant::Baseline,
        SocVariant::Iommu,
        SocVariant::IommuLlc,
    ];
    let kernel = KernelKind::Gemm;
    let paper_size = size.is_paper();
    let max_clusters = *clusters.last().expect("non-empty cluster list");

    // Scaling grid: the PR 1 trajectory at the baseline fabric.
    let baseline = FabricKnobs::default();
    let unbounded = QueueDepths::UNBOUNDED;
    let mut grid = Vec::new();
    for &n in clusters {
        for &variant in &variants {
            for &latency in &latencies {
                grid.push((
                    n,
                    variant,
                    latency,
                    1usize,
                    ArbitrationPolicy::RoundRobin,
                    unbounded,
                    baseline,
                    TlbKnobs::default(),
                ));
            }
        }
    }
    // QoS grid: channel and policy knobs under maximal contention. The
    // single-channel round-robin corner is already in the scaling grid.
    let base_latency = latencies[0];
    let policies = [
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::Weighted(
            (0..max_clusters)
                .map(|i| 1 << (max_clusters - 1 - i))
                .map(|w: usize| w as u32)
                .collect(),
        ),
        ArbitrationPolicy::FixedPriority((0..max_clusters).map(|i| i as u8).collect()),
    ];
    for &channels in &[1usize, 2, 4] {
        for policy in &policies {
            if channels == 1 && *policy == ArbitrationPolicy::RoundRobin {
                continue;
            }
            grid.push((
                max_clusters,
                SocVariant::IommuLlc,
                base_latency,
                channels,
                policy.clone(),
                unbounded,
                baseline,
                TlbKnobs::default(),
            ));
        }
    }
    // Global-clock grid: host interference × PTW batching at maximal
    // contention (the baseline knob corner is already in the scaling grid).
    for &knobs in &FabricKnobs::ALL[1..] {
        grid.push((
            max_clusters,
            SocVariant::IommuLlc,
            base_latency,
            1usize,
            ArbitrationPolicy::RoundRobin,
            unbounded,
            knobs,
            TlbKnobs::default(),
        ));
    }
    // Queue-depth grid: the split-transaction fabric under maximal
    // contention. Finite request/response queues at the host-idle baseline
    // (DMA-only backpressure) and under the full timed engine (host stream
    // + batched walker also competing for credits). The unbounded corner is
    // already covered by the grids above.
    for &depths in &[QueueDepths::bounded(16, 16), QueueDepths::bounded(4, 4)] {
        for &knobs in &[FabricKnobs::ALL[0], FabricKnobs::ALL[3]] {
            grid.push((
                max_clusters,
                SocVariant::IommuLlc,
                base_latency,
                1usize,
                ArbitrationPolicy::RoundRobin,
                depths,
                knobs,
                TlbKnobs::default(),
            ));
        }
    }

    // TLB grid: the two-level translation hierarchy under maximal
    // contention — L1/L2 geometry x replacement policy x demand paging
    // on/off (single channel, round-robin, IOMMU+LLC; the single-level
    // premapped corner is already in the scaling grid).
    for &(l1_entries, l2_sets, l2_ways) in &[(4usize, 8usize, 4usize), (8, 16, 4)] {
        for policy in [
            ReplacementPolicy::TrueLru,
            ReplacementPolicy::PseudoLru,
            ReplacementPolicy::Fifo,
        ] {
            for demand_paging in [false, true] {
                let hierarchy = TlbHierarchyConfig {
                    l1: Some(TlbLevelConfig::new(
                        TlbOrg::fully_associative(l1_entries),
                        policy,
                        Cycles::new(1),
                    )),
                    l2: TlbLevelConfig::new(TlbOrg::new(l2_sets, l2_ways), policy, Cycles::new(4)),
                };
                grid.push((
                    max_clusters,
                    SocVariant::IommuLlc,
                    base_latency,
                    1usize,
                    ArbitrationPolicy::RoundRobin,
                    unbounded,
                    baseline,
                    TlbKnobs {
                        hierarchy,
                        demand_paging,
                    },
                ));
            }
        }
    }

    let sweep_start = Instant::now();
    let (points, points_wallclock_ms): (Vec<_>, Vec<_>) = grid
        .into_iter()
        .map(|(n, variant, latency, channels, policy, depths, knobs, tlb)| {
            let point_start = Instant::now();
            let point = fabric::run_point(
                kernel, paper_size, n, variant, latency, channels, &policy, depths, knobs, tlb,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "fabric point {n}x {variant:?} @{latency} ch{channels} {policy:?} {depths} {knobs:?} {tlb:?} failed: {e:?}"
                )
            });
            (point, point_start.elapsed().as_millis() as u64)
        })
        .unzip();
    let total_wallclock_ms = sweep_start.elapsed().as_millis() as u64;
    let result = FabricSweepResult { points };
    let meta = SweepMeta {
        total_wallclock_ms,
        points_wallclock_ms,
    };

    with_banner(
        "Fabric scaling: clusters x variant x latency x channels x policy x TLB",
        || result.render(),
    );

    let path = args.out.as_deref().unwrap_or("BENCH_fabric.json");
    std::fs::write(path, result.to_json(&meta)).expect("write the sweep JSON");
    println!(
        "wrote {} points to {path} ({total_wallclock_ms} ms)",
        result.points.len()
    );
}
