//! The fabric-scaling sweep driver: builds the grid of platform
//! configurations and runs it point by point, with per-initiator and
//! per-channel contention statistics.
//!
//! Every point runs gemm with fabric contention charged. Five sub-grids are
//! measured:
//!
//! * the **scaling grid** — clusters × variants × latencies at the baseline
//!   fabric (one channel, round-robin, unbounded queues);
//! * the **QoS grid** — channels {1, 2, 4} × every arbitration policy;
//! * the **global-clock grid** — timed host interference × MSHR-style PTW
//!   batching: the engine where host loads/stores and page-table walks
//!   queue on the fabric timelines like every other initiator;
//! * the **queue-depth grid** — finite request/response queues (the
//!   split-transaction fabric), with the host idle and under the full timed
//!   engine;
//! * the **TLB grid** — two-level translation hierarchies × replacement
//!   policy × ATS/PRI demand paging.
//!
//! All but the scaling grid run the IOMMU+LLC variant at the highest
//! cluster count and the lowest latency, which is where the fabric and
//! translation settings bite, and skip the corner the scaling grid already
//! holds. Under `FixedPriority` cluster `i` issues at priority `i`: the
//! ascending priorities let later shards outrank the earlier shards'
//! reservations, which first-fit placement in shard order would otherwise
//! always favour.
//!
//! Prints the scaling table and writes the machine-readable results to
//! `BENCH_fabric.json` (override with `--out <path>`), so successive PRs
//! accumulate a perf trajectory.
//!
//! Usage: `fabric_sweep [--paper|--small] [--out <path>]`

use std::time::Instant;

use sva_bench::{with_banner, Args};
use sva_common::{ArbitrationPolicy, Cycles, ReplacementPolicy, TlbOrg};
use sva_kernels::KernelKind;
use sva_soc::config::{PlatformConfig, SocVariant};
use sva_soc::experiments::fabric::{
    FabricSweepResult, HostTrafficConfig, SweepMeta, TlbHierarchyConfig, TlbLevelConfig,
};
use sva_soc::experiments::run_point;
use sva_soc::OffloadRunner;

fn main() {
    let args = Args::from_env("fabric_sweep [--paper|--small] [--out <path>]", true);
    let size = args.size;
    let clusters: &[usize] = if size.is_paper() {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4]
    };
    let latencies = size.latencies();
    let max_clusters = *clusters.last().expect("non-empty cluster list");
    let platform = |n: usize, variant: SocVariant, latency: u64| {
        PlatformConfig::variant(variant, latency)
            .with_clusters(n)
            .with_fabric_contention()
    };

    let mut grid = Vec::new();
    for &n in clusters {
        for variant in SocVariant::ALL {
            for &latency in &latencies {
                grid.push(platform(n, variant, latency));
            }
        }
    }
    let contended = platform(max_clusters, SocVariant::IommuLlc, latencies[0]);
    let policies = [
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::Weighted(
            (0..max_clusters)
                .map(|i| 1 << (max_clusters - 1 - i))
                .collect(),
        ),
        ArbitrationPolicy::FixedPriority((0..max_clusters).map(|i| i as u8).collect()),
    ];
    for channels in [1, 2, 4] {
        for policy in &policies {
            if channels > 1 || *policy != ArbitrationPolicy::RoundRobin {
                grid.push(
                    contended
                        .clone()
                        .with_memory_channels(channels)
                        .with_arbitration(policy.clone()),
                );
            }
        }
    }
    let noisy = contended
        .clone()
        .with_host_traffic(HostTrafficConfig::default());
    let timed = noisy.clone().with_ptw_batching();
    grid.extend([contended.clone().with_ptw_batching(), noisy, timed.clone()]);
    for depth in [16, 4] {
        for config in [&contended, &timed] {
            grid.push(config.clone().with_channel_depths(depth, depth));
        }
    }
    for (l1_entries, l2_sets, l2_ways) in [(4, 8, 4), (8, 16, 4)] {
        for policy in [
            ReplacementPolicy::TrueLru,
            ReplacementPolicy::PseudoLru,
            ReplacementPolicy::Fifo,
        ] {
            let premapped = contended.clone().with_tlb_hierarchy(TlbHierarchyConfig {
                l1: Some(TlbLevelConfig::new(
                    TlbOrg::fully_associative(l1_entries),
                    policy,
                    Cycles::new(1),
                )),
                l2: TlbLevelConfig::new(TlbOrg::new(l2_sets, l2_ways), policy, Cycles::new(4)),
            });
            grid.push(premapped.clone());
            grid.push(premapped.with_demand_paging());
        }
    }

    // One runner for the sweep prepares gemm's inputs once; every point
    // still runs on a fresh platform.
    let runner = OffloadRunner::new(0xFAB);
    let workload = if size.is_paper() {
        KernelKind::Gemm.paper_workload()
    } else {
        KernelKind::Gemm.small_workload()
    };
    let sweep_start = Instant::now();
    let (points, points_wallclock_ms): (Vec<_>, Vec<_>) = grid
        .into_iter()
        .map(|config| {
            let point_start = Instant::now();
            let point = run_point(&runner, workload.as_ref(), config.clone())
                .unwrap_or_else(|e| panic!("fabric point {config:?} failed: {e:?}"));
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
