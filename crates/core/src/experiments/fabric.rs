//! Fabric-scaling sweep: one kernel sharded across N accelerator clusters
//! that share the IOMMU and the memory fabric.
//!
//! This experiment goes beyond the paper. Its points are
//! [`Point`]s like every device-only artifact's: the [`PlatformConfig`] a
//! run used, the run's [`DeviceOnlyReport`](crate::offload::DeviceOnlyReport)
//! and the fabric's per-initiator, per-channel and grant-switch
//! accounting. The `fabric_sweep` binary in `sva_bench` builds the grid of
//! configurations (cluster count × variant × DRAM latency, plus the QoS,
//! global-clock, queue-depth and translation sub-grids) and runs it point
//! by point through [`run_point`](super::run_point).
//! [`FabricSweepResult::render`] and [`FabricSweepResult::to_json`] read
//! every coordinate from a point's configuration and every number from its
//! reports:
//!
//! * the device wall-clock (slowest shard) and its compute/DMA-wait split,
//! * the run's IOTLB hit rate (entries are tagged per device ID; note that
//!   shards are *simulated* sequentially, so cross-device thrashing of the
//!   four entries only appears at shard boundaries and the metric reads as
//!   near-flat in N — the global clock orders *accesses* on one timeline,
//!   but the IOTLB content itself still evolves in simulation order),
//! * per-initiator fabric statistics — accesses, bytes, bus occupancy and
//!   the cross-initiator queueing each DMA stream observed. Queueing is
//!   first-fit in shard order (a staircase across clusters, pessimistic for
//!   the last shard; see `sva_mem::fabric`), so read per-initiator queue
//!   cycles as a placement-order-dependent bound, not a fairness split.
//!
//! The sweep's configurations enable [fabric contention charging]
//! (`sva_mem::fabric::FabricConfig::contention_enabled`), so measured
//! queueing feeds back into latencies; with one cluster nothing queues and
//! the numbers equal the paper's single-cluster figures.

use sva_common::QueueDepths;
use sva_iommu::IommuConfig;

use super::Point;
use crate::config::PlatformConfig;
use crate::report::{percent, sci, TextTable};

/// The component settings a sweep's configurations are built from.
pub use sva_host::HostTrafficConfig;
pub use sva_iommu::{TlbHierarchyConfig, TlbLevelConfig};

// The columns of the fabric table and JSON that the configuration holds
// beyond the paper variant.
impl Point {
    /// The IOMMU settings, or the prototype's defaults (serial walker,
    /// single IOTLB, pre-mapped) for a platform without an IOMMU.
    fn iommu(&self) -> IommuConfig {
        self.config.iommu.unwrap_or_default()
    }

    /// Channel queue depths (`usize::MAX` is unbounded).
    fn depths(&self) -> QueueDepths {
        let fabric = &self.config.mem.fabric;
        QueueDepths::bounded(fabric.req_queue_depth, fabric.rsp_queue_depth)
    }

    /// Compact label of the translation hierarchy: `"single"` without an
    /// L1, else e.g. `"l1:1x4-lru+l2:8x4-lru"`.
    fn tlb_label(&self) -> String {
        let tlb = self.iommu().tlb;
        match tlb.l1 {
            None => "single".to_string(),
            Some(l1) => format!(
                "l1:{}-{}+l2:{}-{}",
                l1.org.label(),
                l1.policy.label(),
                tlb.l2.org.label(),
                tlb.l2.policy.label()
            ),
        }
    }
}

/// The full sweep.
#[derive(Clone, Debug, Default)]
pub struct FabricSweepResult {
    /// All measurement points.
    pub points: Vec<Point>,
}

impl FabricSweepResult {
    /// The point that ran on `config`.
    pub fn get(&self, config: &PlatformConfig) -> Option<&Point> {
        self.points.iter().find(|p| p.config == *config)
    }

    /// Renders the scaling table: one row per point with wall-clock,
    /// speedup, DMA share, TLB hit rates and fabric contention. The speedup
    /// is over the sweep's first one-cluster point of the same variant and
    /// DRAM latency.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Clusters",
            "Config",
            "Latency",
            "Ch",
            "Policy",
            "Qdepth",
            "Host",
            "PTW",
            "TLB",
            "Paging",
            "Wall cyc",
            "Speedup",
            "%DMA",
            "ATC hit",
            "IOTLB hit",
            "Faults",
            "Queue cyc",
            "Stall cyc",
            "Switches",
        ]);
        let pick = |on: bool, yes: &str, no: &str| if on { yes } else { no }.to_string();
        for p in &self.points {
            let (config, stats, iommu) = (&p.config, &p.report.stats, &p.report.iommu);
            let total = stats.total.raw();
            let speedup = self
                .points
                .iter()
                .find(|one| {
                    one.config.num_clusters == 1
                        && one.variant() == p.variant()
                        && one.config.mem.dram_latency == config.mem.dram_latency
                })
                .map(|one| format!("{:.2}x", one.report.stats.total.raw() as f64 / total as f64))
                .unwrap_or_else(|| "-".to_string());
            let dma_share = if total == 0 {
                0.0
            } else {
                stats.dma_wait.raw() as f64 / (total as f64 * config.num_clusters as f64)
            };
            table.row(vec![
                config.num_clusters.to_string(),
                p.variant().label().to_string(),
                config.mem.dram_latency.raw().to_string(),
                config.mem.fabric.num_channels.to_string(),
                config.mem.fabric.policy.label(),
                p.depths().label(),
                pick(config.host_traffic.is_some(), "noisy", "idle"),
                pick(p.iommu().ptw_batching, "batched", "serial"),
                p.tlb_label(),
                pick(p.iommu().demand_paging, "demand", "premap"),
                sci(total),
                speedup,
                percent(dma_share),
                percent(iommu.atc.hit_rate()),
                percent(iommu.iotlb.hit_rate()),
                iommu.page_requests.serviced.to_string(),
                p.queue_cycles().to_string(),
                p.issue_stall_cycles().to_string(),
                p.grant_switches.to_string(),
            ]);
        }
        table.render()
    }

    /// Serialises the sweep as JSON, with `meta` between the experiment tag
    /// and the points (hand-rolled; the build is offline and carries no
    /// serde_json). A queue depth of 0 encodes unbounded.
    pub fn to_json(&self, meta: &SweepMeta) -> String {
        let timings: Vec<String> = meta
            .points_wallclock_ms
            .iter()
            .map(u64::to_string)
            .collect();
        let mut out = format!(
            "{{\n  \"experiment\": \"fabric_sweep\",\n  \"meta\": {{\"total_wallclock_ms\": {}, \
             \"points_wallclock_ms\": [{}]}},\n  \"points\": [\n",
            meta.total_wallclock_ms,
            timings.join(", ")
        );
        for (i, p) in self.points.iter().enumerate() {
            let initiators: Vec<String> = p
                .initiators
                .iter()
                .map(|snap| {
                    let s = &snap.stats;
                    format!(
                        "{{\"initiator\": \"{}\", \"accesses\": {}, \"bytes\": {}, \
                         \"occupancy_cycles\": {}, \"queue_cycles\": {}, \"contended_grants\": {}, \
                         \"issue_stall_cycles\": {}, \"req_queue_peak\": {}, \"rsp_queue_peak\": {}}}",
                        snap.id.label(),
                        s.accesses(),
                        s.bytes,
                        s.occupancy_cycles,
                        s.queue_cycles,
                        s.contended_grants,
                        s.issue_stall_cycles,
                        s.req_queue_peak,
                        s.rsp_queue_peak
                    )
                })
                .collect();
            let channels: Vec<String> = p
                .channels
                .iter()
                .enumerate()
                .map(|(channel, c)| {
                    format!(
                        "{{\"channel\": {}, \"grants\": {}, \"bytes\": {}, \
                         \"occupancy_cycles\": {}, \"queue_cycles\": {}, \
                         \"issue_stall_cycles\": {}, \"req_queue_peak\": {}, \"rsp_queue_peak\": {}}}",
                        channel,
                        c.grants,
                        c.bytes,
                        c.occupancy_cycles,
                        c.queue_cycles,
                        c.issue_stall_cycles,
                        c.req_queue_peak,
                        c.rsp_queue_peak
                    )
                })
                .collect();
            let (config, stats, iommu) = (&p.config, &p.report.stats, &p.report.iommu);
            let depth = |d: usize| if d == usize::MAX { 0 } else { d };
            let depths = p.depths();
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"clusters\": {}, \"variant\": \"{}\", \
                 \"dram_latency\": {}, \"channels\": {}, \"policy\": \"{}\", \
                 \"queue_depths\": \"{}\", \"req_queue_depth\": {}, \"rsp_queue_depth\": {}, \
                 \"host_traffic\": {}, \"ptw_batching\": {}, \
                 \"tlb\": \"{}\", \"demand_paging\": {}, \
                 \"total\": {}, \"compute\": {}, \"dma_wait\": {}, \
                 \"iotlb_hit_rate\": {:.6}, \"atc_hit_rate\": {:.6}, \
                 \"page_requests\": {}, \"page_requests_dropped\": {}, \
                 \"faults_serviced\": {}, \"page_req_latency_mean\": {:.1}, \
                 \"page_req_latency_p50\": {}, \"page_req_latency_p90\": {}, \
                 \"page_req_latency_p99\": {}, \
                 \"ptw_walks\": {}, \"ptw_reads\": {}, \"ptw_coalesced_reads\": {}, \
                 \"ptw_walk_table_events_peak\": {}, \"ptw_walk_table_compacted\": {}, \
                 \"pri_pending_peak\": {}, \
                 \"verified\": {}, \"grant_switches\": {}, \
                 \"initiators\": [{}], \"per_channel\": [{}]}}{}\n",
                p.report.kernel,
                config.num_clusters,
                p.variant().label(),
                config.mem.dram_latency.raw(),
                config.mem.fabric.num_channels,
                config.mem.fabric.policy.label(),
                depths.label(),
                depth(depths.req),
                depth(depths.rsp),
                config.host_traffic.is_some(),
                p.iommu().ptw_batching,
                p.tlb_label(),
                p.iommu().demand_paging,
                stats.total.raw(),
                stats.compute.raw(),
                stats.dma_wait.raw(),
                iommu.iotlb.hit_rate(),
                iommu.atc.hit_rate(),
                iommu.page_requests.requests,
                iommu.page_requests.dropped,
                iommu.page_requests.serviced,
                iommu.page_requests.service_time.mean(),
                iommu.page_request_p50,
                iommu.page_request_p90,
                iommu.page_request_p99,
                iommu.ptw_walks,
                iommu.ptw_reads,
                iommu.ptw_coalesced_reads,
                iommu.ptw_walk_table_events_peak,
                iommu.ptw_walk_table_compacted,
                iommu.page_request_pending_peak,
                p.report.verified,
                p.grant_switches,
                initiators.join(", "),
                channels.join(", "),
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Execution metadata of one sweep run: how long it took, recorded into the
/// bench JSON so speed regressions show from one commit to the next.
#[derive(Clone, Debug, Default)]
pub struct SweepMeta {
    /// End-to-end wallclock of the sweep, milliseconds.
    pub total_wallclock_ms: u64,
    /// Per-point wallclock, milliseconds, aligned with `points` by index.
    pub points_wallclock_ms: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocVariant;
    use crate::experiments::run_point;
    use crate::offload::OffloadRunner;
    use sva_common::{ArbitrationPolicy, InitiatorId};
    use sva_kernels::KernelKind;
    use sva_mem::InitiatorSnapshot;

    /// The sweep's platform at 200 cycles: `clusters` clusters with fabric
    /// contention charged, one channel, round-robin, unbounded queues, no
    /// host traffic, serial walker, single-level TLB.
    fn contended(clusters: usize, variant: SocVariant) -> PlatformConfig {
        PlatformConfig::variant(variant, 200)
            .with_clusters(clusters)
            .with_fabric_contention()
    }

    /// Runs `kind`'s small workload on `config`; every point must verify.
    fn point(kind: KernelKind, config: PlatformConfig) -> Point {
        let workload = kind.small_workload();
        let p = run_point(&OffloadRunner::new(0xFAB), workload.as_ref(), config).unwrap();
        assert!(p.report.verified, "{kind:?} on {:?} must verify", p.config);
        p
    }

    fn gemm(config: PlatformConfig) -> Point {
        point(KernelKind::Gemm, config)
    }

    /// Summed `field` over the point's DMA initiators.
    fn dma_sum(p: &Point, field: impl Fn(&InitiatorSnapshot) -> u64) -> u64 {
        p.initiators
            .iter()
            .filter(|s| matches!(s.id, InitiatorId::Dma { .. }))
            .map(field)
            .sum()
    }

    #[test]
    fn sweep_scales_and_reports_contention() {
        let points = [1, 2, 4]
            .map(|n| gemm(contended(n, SocVariant::IommuLlc)))
            .to_vec();
        let result = FabricSweepResult { points };
        assert_eq!(result.points.len(), 3);

        let one = result.get(&contended(1, SocVariant::IommuLlc)).unwrap();
        let four = result.get(&contended(4, SocVariant::IommuLlc)).unwrap();
        assert!(
            four.report.stats.total < one.report.stats.total,
            "sharding must cut wall-clock"
        );
        // A single DMA stream observes no cross-initiator queueing (its own
        // bursts never conflict with themselves); four overlapping streams
        // must. PTW probes may *record* waits behind DMA occupancy at any
        // cluster count — that accounting is live since the global clock —
        // so the invariant is on the DMA rows.
        let dma_queue = |p| dma_sum(p, |s| s.stats.queue_cycles);
        assert_eq!(dma_queue(one), 0);
        assert!(dma_queue(four) > 0);
        // One DMA initiator per cluster shows up in the fabric stats.
        let dma_rows = |p| dma_sum(p, |_| 1);
        assert_eq!(dma_rows(one), 1);
        assert_eq!(dma_rows(four), 4);
    }

    #[test]
    fn knob_sub_grid_reports_host_and_walker_effects() {
        let base = contended(4, SocVariant::IommuLlc);
        let noisy = base.clone().with_host_traffic(HostTrafficConfig::default());
        let configs = [
            base.clone(),
            base.clone().with_ptw_batching(),
            noisy.clone(),
            noisy.clone().with_ptw_batching(),
        ];
        let result = FabricSweepResult {
            points: configs.iter().cloned().map(gemm).collect(),
        };
        let base = &result.points[0];
        let batched = &result.points[1].report.iommu;
        let noisy = result.get(&noisy).unwrap();
        // Host interference slows the device and shows up in the host row.
        assert!(
            noisy.report.stats.total > base.report.stats.total,
            "host traffic must cost cycles"
        );
        let host_queue = noisy
            .initiators
            .iter()
            .find(|s| s.id == InitiatorId::HostStream)
            .map_or(0, |s| s.stats.queue_cycles);
        assert!(host_queue > 0, "host stream queues behind DMA");
        // The batched walker coalesces and cuts memory reads.
        let serial = &base.report.iommu;
        assert_eq!(serial.ptw_coalesced_reads, 0);
        assert!(batched.ptw_coalesced_reads > 0);
        assert!(batched.ptw_reads < serial.ptw_reads);
        assert_eq!(
            batched.ptw_reads + batched.ptw_coalesced_reads,
            serial.ptw_reads,
            "walk levels conserve between the serial and batched walkers"
        );
        // JSON carries the sub-grid fields.
        let json = result.to_json(&SweepMeta::default());
        assert!(json.contains("\"host_traffic\": true"));
        assert!(json.contains("\"ptw_batching\": true"));
        assert!(json.contains("\"ptw_coalesced_reads\""));
    }

    #[test]
    fn queue_depth_sub_grid_reports_issue_stalls() {
        let timed = contended(4, SocVariant::IommuLlc)
            .with_host_traffic(HostTrafficConfig::default())
            .with_ptw_batching();
        let shallow_config = timed.clone().with_channel_depths(4, 4);
        let unbounded = gemm(timed);
        let shallow = gemm(shallow_config.clone());
        assert_eq!(unbounded.issue_stall_cycles(), 0, "inf depths never stall");
        assert!(
            shallow.issue_stall_cycles() > 0,
            "finite request queues must stall issue under contention"
        );
        let (deep_total, shallow_total) =
            (unbounded.report.stats.total, shallow.report.stats.total);
        assert!(
            shallow_total >= deep_total,
            "backpressure cannot speed the device up: {shallow_total} vs {deep_total}"
        );
        assert!(
            dma_sum(&shallow, |s| s.stats.issue_stall_cycles) > 0,
            "DMA issue must observe backpressure"
        );
        let result = FabricSweepResult {
            points: vec![unbounded, shallow],
        };
        assert!(
            result.get(&shallow_config).is_some(),
            "depth sub-grid point is addressable"
        );
        let json = result.to_json(&SweepMeta::default());
        assert!(json.contains("\"queue_depths\": \"inf\""));
        assert!(json.contains("\"queue_depths\": \"4/4\""));
        assert!(json.contains("\"req_queue_depth\": 4"));
        assert!(json.contains("\"req_queue_depth\": 0"));
        assert!(json.contains("\"issue_stall_cycles\""));
        assert!(json.contains("\"req_queue_peak\""));
    }

    #[test]
    fn sweep_meta_is_spliced_into_the_json() {
        let meta = SweepMeta {
            total_wallclock_ms: 1234,
            points_wallclock_ms: vec![400, 800],
        };
        let json = FabricSweepResult::default().to_json(&meta);
        assert_eq!(
            json,
            "{\n  \"experiment\": \"fabric_sweep\",\n  \"meta\": {\"total_wallclock_ms\": 1234, \
             \"points_wallclock_ms\": [400, 800]},\n  \"points\": [\n  ]\n}\n",
            "meta sits between the experiment tag and the points"
        );
    }

    #[test]
    fn tlb_sub_grid_reports_hierarchy_splits_and_demand_paging() {
        let single_config = contended(2, SocVariant::IommuLlc);
        let hier_config = single_config
            .clone()
            .with_tlb_hierarchy(TlbHierarchyConfig::two_level());
        let demand_config = hier_config.clone().with_demand_paging();
        let single = gemm(single_config.clone());
        let hier = gemm(hier_config);
        let demand = gemm(demand_config.clone());

        let single_stats = single.report.iommu;
        assert_eq!(single.tlb_label(), "single");
        assert_eq!(
            single_stats.atc.hit_rate(),
            0.0,
            "no ATC without the hierarchy"
        );
        assert_eq!(single_stats.page_requests.serviced, 0);

        let hier_stats = hier.report.iommu;
        assert!(
            hier_stats.atc.hit_rate() > 0.0,
            "the hierarchy splits hits into L1"
        );
        assert_eq!(
            hier_stats.page_requests.serviced, 0,
            "pre-mapped runs never fault"
        );

        let demand_stats = demand.report.iommu;
        let serviced = demand_stats.page_requests.serviced;
        assert!(serviced > 0, "cold start pages in on demand");
        assert!(demand_stats.page_requests.requests >= serviced);
        assert!(demand_stats.page_request_p50 > 0);
        assert!(demand_stats.page_request_p99 >= demand_stats.page_request_p50);
        let (hier_total, demand_total) = (hier.report.stats.total, demand.report.stats.total);
        assert!(
            demand_total > hier_total,
            "demand paging must cost wall-clock: {demand_total} vs {hier_total}"
        );

        // Points are addressable and the JSON schema carries the fields.
        let result = FabricSweepResult {
            points: vec![single, hier, demand],
        };
        assert!(result.get(&single_config).is_some());
        assert!(result.get(&demand_config).is_some());
        let json = result.to_json(&SweepMeta::default());
        assert!(json.contains("\"tlb\": \"single\""));
        assert!(json.contains("\"tlb\": \"l1:1x4-lru+l2:8x4-lru\""));
        assert!(json.contains("\"demand_paging\": true"));
        assert!(json.contains("\"atc_hit_rate\""));
        assert!(json.contains("\"faults_serviced\""));
        assert!(json.contains("\"page_req_latency_p99\""));
    }

    #[test]
    fn render_and_json_contain_every_point() {
        let mut points = Vec::new();
        for n in [1, 2] {
            for variant in [SocVariant::Baseline, SocVariant::IommuLlc] {
                let config = contended(n, variant).with_memory_channels(2);
                points.push(point(KernelKind::Axpy, config));
            }
        }
        let result = FabricSweepResult { points };
        let text = result.render();
        assert!(text.contains("Baseline") && text.contains("IOMMU+LLC"));
        assert!(text.contains("round_robin"));
        let json = result.to_json(&SweepMeta::default());
        assert_eq!(json.matches("\"kernel\"").count(), 4);
        assert!(json.contains("\"initiators\""));
        assert!(json.contains("dma[1]"));
        assert!(json.contains("\"channels\": 2"));
        assert!(json.contains("\"policy\": \"round_robin\""));
        assert!(json.contains("\"per_channel\""));
    }

    #[test]
    fn more_channels_do_not_slow_a_contended_platform() {
        // The acceptance criterion of the multi-channel backend: at 4
        // clusters, wall-clock is monotonically non-increasing as the DRAM
        // path splits 1 → 2 → 4 ways.
        let totals = [1, 2, 4].map(|ch| {
            let config = contended(4, SocVariant::IommuLlc).with_memory_channels(ch);
            gemm(config).report.stats.total
        });
        assert!(
            totals[0] >= totals[1] && totals[1] >= totals[2],
            "wall-clock must not grow with channels: {totals:?}"
        );
    }

    #[test]
    fn policies_sweep_and_verify() {
        for policy in [
            ArbitrationPolicy::RoundRobin,
            ArbitrationPolicy::Weighted(vec![4, 2, 1, 1]),
            ArbitrationPolicy::FixedPriority(vec![0, 1, 2, 3]),
        ] {
            let config = contended(4, SocVariant::IommuLlc)
                .with_memory_channels(2)
                .with_arbitration(policy.clone());
            let p = point(KernelKind::Axpy, config);
            assert_eq!(p.channels.len(), 2);
            let json = FabricSweepResult { points: vec![p] }.to_json(&SweepMeta::default());
            assert!(json.contains(&format!("\"policy\": \"{}\"", policy.label())));
        }
    }
}
