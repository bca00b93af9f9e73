//! Fabric-scaling sweep: cluster count × platform variant × DRAM latency,
//! plus the global-clock sub-grid (timed host interference × MSHR-style
//! PTW batching, [`FabricKnobs`]) and the translation sub-grid (two-level
//! TLB hierarchy × replacement policy × ATS/PRI demand paging,
//! [`TlbKnobs`] — per-level hit splits and page-request latency
//! percentiles in every point).
//!
//! This experiment goes beyond the paper: it scales the platform to N
//! accelerator clusters sharing the IOMMU and the memory fabric, shards one
//! kernel across them with static block scheduling, and reports
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
//! The sweep enables [fabric contention charging]
//! (`sva_mem::fabric::FabricConfig::contention_enabled`), so measured
//! queueing feeds back into latencies; with one cluster nothing queues and
//! the numbers equal the paper's single-cluster figures.
//!
//! [`run_point`] measures one combination on a fresh platform; the
//! `fabric_sweep` binary in `sva_bench` builds the grid and runs it point by
//! point.

use sva_kernels::KernelKind;

use crate::config::{PlatformConfig, SocVariant};
use crate::offload::OffloadRunner;
use crate::platform::Platform;
use crate::report::{percent, sci, TextTable};
use sva_common::{ArbitrationPolicy, QueueDepths, Result};
use sva_host::HostTrafficConfig;
pub use sva_iommu::{TlbHierarchyConfig, TlbLevelConfig};
use sva_mem::ChannelStats;

/// The global-clock knobs of one measurement point: timed host traffic in
/// the window and the MSHR-style batched walker. `FabricKnobs::default()`
/// is the host-idle serial-walker baseline (the PR 1/2 engine).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct FabricKnobs {
    /// Inject the default timed host-traffic stream into the window.
    pub host_traffic: bool,
    /// Enable the MSHR-style batched page-table walker.
    pub ptw_batching: bool,
}

impl FabricKnobs {
    /// Every combination, baseline first.
    pub const ALL: [FabricKnobs; 4] = [
        FabricKnobs {
            host_traffic: false,
            ptw_batching: false,
        },
        FabricKnobs {
            host_traffic: false,
            ptw_batching: true,
        },
        FabricKnobs {
            host_traffic: true,
            ptw_batching: false,
        },
        FabricKnobs {
            host_traffic: true,
            ptw_batching: true,
        },
    ];
}

/// The translation knobs of one measurement point: the TLB hierarchy and
/// ATS/PRI demand paging. `TlbKnobs::default()` is the paper prototype's
/// single IOTLB with faults-are-errors.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TlbKnobs {
    /// Translation hierarchy (the default is the prototype's single
    /// IOTLB, with no L1).
    pub hierarchy: TlbHierarchyConfig,
    /// Run with demand paging: no up-front mapping, faults are paged in
    /// through the page-request loop.
    pub demand_paging: bool,
}

impl TlbKnobs {
    /// Compact label used as the point's `tlb` field (`"single"` without
    /// an L1, else e.g. `"l1:1x4-lru+l2:8x4-lru"`).
    pub fn label(&self) -> String {
        let l2 = self.hierarchy.l2;
        match self.hierarchy.l1 {
            None => "single".to_string(),
            Some(l1) => format!(
                "l1:{}-{}+l2:{}-{}",
                l1.org.label(),
                l1.policy.label(),
                l2.org.label(),
                l2.policy.label()
            ),
        }
    }
}

/// Per-initiator numbers of one measurement point.
#[derive(Clone, Debug)]
pub struct InitiatorRow {
    /// Initiator label (`host`, `ptw`, `dma[3]`, …).
    pub initiator: String,
    /// Accesses granted by the fabric.
    pub accesses: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Data-bus occupancy attributed to the initiator.
    pub occupancy_cycles: u64,
    /// Cross-initiator queueing the initiator observed.
    pub queue_cycles: u64,
    /// Accesses that arrived while another initiator held the bus.
    pub contended_grants: u64,
    /// Issue stalls at full request queues (zero with unbounded depths).
    pub issue_stall_cycles: u64,
    /// Highest request-queue occupancy the initiator observed at admission.
    pub req_queue_peak: u64,
    /// Highest response-queue occupancy the initiator observed at a grant.
    pub rsp_queue_peak: u64,
}

/// Per-channel numbers of one measurement point.
#[derive(Clone, Debug)]
pub struct ChannelRow {
    /// Channel index.
    pub channel: usize,
    /// The channel's fabric-port accounting (see `sva_mem::channels`).
    pub stats: ChannelStats,
}

/// One measurement point of the sweep.
#[derive(Clone, Debug)]
pub struct FabricPoint {
    /// Kernel measured.
    pub kernel: String,
    /// Number of accelerator clusters.
    pub clusters: usize,
    /// Platform variant.
    pub variant: SocVariant,
    /// DRAM latency (delayer cycles).
    pub dram_latency: u64,
    /// Number of DRAM channels.
    pub channels: usize,
    /// Arbitration policy label (`round_robin`, `weighted[..]`,
    /// `fixed_priority`).
    pub policy: String,
    /// Channel queue-depth label (`inf` for the unbounded reservation
    /// model, `req/rsp` for the split-transaction configuration).
    pub queue_depths: String,
    /// Request-queue depth (0 encodes unbounded in the JSON schema).
    pub req_queue_depth: u64,
    /// Response-queue depth (0 encodes unbounded in the JSON schema).
    pub rsp_queue_depth: u64,
    /// Whether the timed host-traffic stream was injected into the window.
    pub host_traffic: bool,
    /// Whether the MSHR-style batched walker was enabled.
    pub ptw_batching: bool,
    /// Translation-hierarchy label (`"single"` for the prototype IOTLB).
    pub tlb: String,
    /// Whether the run cold-started through ATS/PRI demand paging.
    pub demand_paging: bool,
    /// Device wall-clock cycles (slowest shard).
    pub total: u64,
    /// Aggregate compute cycles across shards.
    pub compute: u64,
    /// Aggregate DMA-wait cycles across shards.
    pub dma_wait: u64,
    /// Hit rate of the shared IOTLB (the L2 of the hierarchy; 0 when the
    /// variant has no IOMMU).
    pub iotlb_hit_rate: f64,
    /// Aggregate hit rate of the per-device L1 ATCs (0 without an L1).
    pub atc_hit_rate: f64,
    /// Page requests accepted into the page-request queue.
    pub page_requests: u64,
    /// Page requests dropped at the full queue (overflow ⇒ device backoff).
    pub page_requests_dropped: u64,
    /// Page faults serviced by the host (pages paged in on demand).
    pub faults_serviced: u64,
    /// Mean page-request service latency in cycles (0 without samples).
    pub page_req_latency_mean: f64,
    /// Approximate median page-request service latency.
    pub page_req_latency_p50: u64,
    /// Approximate 90th-percentile page-request service latency.
    pub page_req_latency_p90: u64,
    /// Approximate 99th-percentile page-request service latency.
    pub page_req_latency_p99: u64,
    /// Page-table walks performed.
    pub ptw_walks: u64,
    /// PTE reads the walker issued to memory.
    pub ptw_reads: u64,
    /// Walk levels served by MSHR coalescing (nonzero only with batching).
    pub ptw_coalesced_reads: u64,
    /// Peak live window-record count of the walker's MSHR walk table
    /// (0 with batching off).
    pub ptw_walk_table_events_peak: u64,
    /// Walk-table records folded by watermark compaction at device-window
    /// boundaries (0 with batching off).
    pub ptw_walk_table_compacted: u64,
    /// Peak length of the page-request queue — the most page requests
    /// pending at once (0 with demand paging off).
    pub pri_pending_peak: u64,
    /// Whether the device results matched the host reference.
    pub verified: bool,
    /// Grants whose initiator differed from the previous grant's.
    pub grant_switches: u64,
    /// Per-initiator fabric statistics.
    pub initiators: Vec<InitiatorRow>,
    /// Per-channel DRAM statistics.
    pub per_channel: Vec<ChannelRow>,
}

impl FabricPoint {
    /// Total cross-initiator queueing observed at this point.
    pub fn queue_cycles(&self) -> u64 {
        self.initiators.iter().map(|r| r.queue_cycles).sum()
    }

    /// Total issue stalls (request-queue backpressure) observed at this
    /// point.
    pub fn issue_stall_cycles(&self) -> u64 {
        self.initiators.iter().map(|r| r.issue_stall_cycles).sum()
    }
}

/// The full sweep.
#[derive(Clone, Debug, Default)]
pub struct FabricSweepResult {
    /// All measurement points.
    pub points: Vec<FabricPoint>,
}

impl FabricSweepResult {
    /// Finds the point for a given cluster/variant/latency combination with
    /// the given channel count and policy label, at the host-idle
    /// serial-walker baseline knobs.
    pub fn get_with(
        &self,
        clusters: usize,
        variant: SocVariant,
        latency: u64,
        channels: usize,
        policy: &str,
    ) -> Option<&FabricPoint> {
        self.points.iter().find(|p| {
            p.clusters == clusters
                && p.variant == variant
                && p.dram_latency == latency
                && p.channels == channels
                && p.policy == policy
                && p.queue_depths == "inf"
                && !p.host_traffic
                && !p.ptw_batching
                && p.tlb == "single"
                && !p.demand_paging
        })
    }

    /// Finds the point of the TLB sub-grid for a given cluster count, TLB
    /// label and demand-paging flag (single channel, round-robin,
    /// IOMMU+LLC, baseline fabric knobs).
    pub fn get_tlb(
        &self,
        clusters: usize,
        latency: u64,
        tlb: &str,
        demand_paging: bool,
    ) -> Option<&FabricPoint> {
        self.points.iter().find(|p| {
            p.clusters == clusters
                && p.variant == SocVariant::IommuLlc
                && p.dram_latency == latency
                && p.channels == 1
                && p.policy == "round_robin"
                && p.queue_depths == "inf"
                && !p.host_traffic
                && !p.ptw_batching
                && p.tlb == tlb
                && p.demand_paging == demand_paging
        })
    }

    /// Finds the point of the queue-depth sub-grid for a given cluster
    /// count, depth label and knob combination (single channel,
    /// round-robin, IOMMU+LLC).
    pub fn get_depths(
        &self,
        clusters: usize,
        latency: u64,
        depths: &str,
        knobs: FabricKnobs,
    ) -> Option<&FabricPoint> {
        self.points.iter().find(|p| {
            p.clusters == clusters
                && p.variant == SocVariant::IommuLlc
                && p.dram_latency == latency
                && p.channels == 1
                && p.policy == "round_robin"
                && p.queue_depths == depths
                && p.host_traffic == knobs.host_traffic
                && p.ptw_batching == knobs.ptw_batching
                && p.tlb == "single"
                && !p.demand_paging
        })
    }

    /// Finds the point of the host-interference × PTW-batching sub-grid for
    /// a given cluster count and knob combination (single channel,
    /// round-robin, IOMMU+LLC).
    pub fn get_knobs(
        &self,
        clusters: usize,
        latency: u64,
        knobs: FabricKnobs,
    ) -> Option<&FabricPoint> {
        self.points.iter().find(|p| {
            p.clusters == clusters
                && p.variant == SocVariant::IommuLlc
                && p.dram_latency == latency
                && p.channels == 1
                && p.policy == "round_robin"
                && p.queue_depths == "inf"
                && p.host_traffic == knobs.host_traffic
                && p.ptw_batching == knobs.ptw_batching
                && p.tlb == "single"
                && !p.demand_paging
        })
    }

    /// Finds the baseline point (single channel, round-robin) for a given
    /// cluster/variant/latency combination.
    pub fn get(&self, clusters: usize, variant: SocVariant, latency: u64) -> Option<&FabricPoint> {
        self.get_with(clusters, variant, latency, 1, "round_robin")
    }

    /// Renders the scaling table: one row per point with wall-clock, speedup
    /// over one cluster, DMA share, IOTLB hit rate and fabric contention.
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
        for p in &self.points {
            let speedup = self
                .get_with(1, p.variant, p.dram_latency, p.channels, &p.policy)
                .or_else(|| self.get(1, p.variant, p.dram_latency))
                .map(|one| one.total as f64 / p.total as f64)
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string());
            let dma_share = if p.total == 0 {
                0.0
            } else {
                p.dma_wait as f64 / (p.total as f64 * p.clusters as f64)
            };
            table.row(vec![
                p.clusters.to_string(),
                p.variant.label().to_string(),
                p.dram_latency.to_string(),
                p.channels.to_string(),
                p.policy.clone(),
                p.queue_depths.clone(),
                if p.host_traffic { "noisy" } else { "idle" }.to_string(),
                if p.ptw_batching { "batched" } else { "serial" }.to_string(),
                p.tlb.clone(),
                if p.demand_paging { "demand" } else { "premap" }.to_string(),
                sci(p.total),
                speedup,
                percent(dma_share),
                percent(p.atc_hit_rate),
                percent(p.iotlb_hit_rate),
                p.faults_serviced.to_string(),
                p.queue_cycles().to_string(),
                p.issue_stall_cycles().to_string(),
                p.grant_switches.to_string(),
            ]);
        }
        table.render()
    }

    /// Serialises the sweep as JSON, with `meta` between the experiment tag
    /// and the points (hand-rolled; the build is offline and carries no
    /// serde_json).
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
                .map(|r| {
                    format!(
                        "{{\"initiator\": \"{}\", \"accesses\": {}, \"bytes\": {}, \
                         \"occupancy_cycles\": {}, \"queue_cycles\": {}, \"contended_grants\": {}, \
                         \"issue_stall_cycles\": {}, \"req_queue_peak\": {}, \"rsp_queue_peak\": {}}}",
                        r.initiator,
                        r.accesses,
                        r.bytes,
                        r.occupancy_cycles,
                        r.queue_cycles,
                        r.contended_grants,
                        r.issue_stall_cycles,
                        r.req_queue_peak,
                        r.rsp_queue_peak
                    )
                })
                .collect();
            let channels: Vec<String> = p
                .per_channel
                .iter()
                .map(|c| {
                    format!(
                        "{{\"channel\": {}, \"grants\": {}, \"bytes\": {}, \
                         \"occupancy_cycles\": {}, \"queue_cycles\": {}, \
                         \"issue_stall_cycles\": {}, \"req_queue_peak\": {}, \"rsp_queue_peak\": {}}}",
                        c.channel,
                        c.stats.grants,
                        c.stats.bytes,
                        c.stats.occupancy_cycles,
                        c.stats.queue_cycles,
                        c.stats.issue_stall_cycles,
                        c.stats.req_queue_peak,
                        c.stats.rsp_queue_peak
                    )
                })
                .collect();
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
                p.kernel,
                p.clusters,
                p.variant.label(),
                p.dram_latency,
                p.channels,
                p.policy,
                p.queue_depths,
                p.req_queue_depth,
                p.rsp_queue_depth,
                p.host_traffic,
                p.ptw_batching,
                p.tlb,
                p.demand_paging,
                p.total,
                p.compute,
                p.dma_wait,
                p.iotlb_hit_rate,
                p.atc_hit_rate,
                p.page_requests,
                p.page_requests_dropped,
                p.faults_serviced,
                p.page_req_latency_mean,
                p.page_req_latency_p50,
                p.page_req_latency_p90,
                p.page_req_latency_p99,
                p.ptw_walks,
                p.ptw_reads,
                p.ptw_coalesced_reads,
                p.ptw_walk_table_events_peak,
                p.ptw_walk_table_compacted,
                p.pri_pending_peak,
                p.verified,
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

/// Measures one (kernel, clusters, variant, latency, channels, policy,
/// knobs) combination on a fresh platform with fabric-contention charging
/// enabled.
///
/// Under [`ArbitrationPolicy::FixedPriority`] cluster `i` issues at the
/// policy's priority `i`. The sweep passes ascending priorities, so the
/// strict ordering is observable: shards are simulated in cluster order,
/// and first-fit placement already lets the earliest shard reserve first —
/// ascending priorities let *later* shards outrank those earlier
/// reservations, which is exactly the part round-robin cannot express
/// (descending or equal priorities would degenerate to it). The TLB knobs
/// apply only to variants with an IOMMU.
///
/// With [`FabricKnobs::host_traffic`] the default timed host stream is
/// injected into the measurement window (turning the global-clock engine
/// on, so host and PTW queueing is charged); with
/// [`FabricKnobs::ptw_batching`] the walker coalesces concurrent walks in
/// its MSHR-style walk table. Finite `depths` switch the fabric into the
/// split-transaction model: full request queues stall initiator issue
/// (reported per initiator as `issue_stall_cycles`), full response queues
/// delay grants. [`TlbKnobs`] select the translation hierarchy (per-device
/// L1 ATC + shared L2 IOTLB with per-level hit splits in the point) and
/// ATS/PRI demand paging (cold-start page-in with fault-latency
/// percentiles).
///
/// # Errors
///
/// Propagates platform construction and execution failures.
#[allow(clippy::too_many_arguments)] // one parameter per sweep dimension
pub fn run_point(
    kind: KernelKind,
    paper_size: bool,
    clusters: usize,
    variant: SocVariant,
    latency: u64,
    channels: usize,
    policy: &ArbitrationPolicy,
    depths: QueueDepths,
    knobs: FabricKnobs,
    tlb: TlbKnobs,
) -> Result<FabricPoint> {
    let workload = if paper_size {
        kind.paper_workload()
    } else {
        kind.small_workload()
    };
    let mut config = PlatformConfig::variant(variant, latency)
        .with_clusters(clusters)
        .with_fabric_contention()
        .with_memory_channels(channels)
        .with_arbitration(policy.clone())
        .with_channel_depths(depths.req, depths.rsp);
    if knobs.host_traffic {
        config = config.with_host_traffic(HostTrafficConfig::default());
    }
    if knobs.ptw_batching {
        config = config.with_ptw_batching();
    }
    if variant.has_iommu() {
        config = config.with_tlb_hierarchy(tlb.hierarchy);
    }
    if tlb.demand_paging {
        config = config.with_demand_paging();
    }
    let mut platform = Platform::new(config)?;
    let report = OffloadRunner::new(0xFAB).run_device_only(&mut platform, workload.as_ref())?;

    let initiators = platform
        .mem
        .fabric_stats()
        .into_iter()
        .map(|snap| InitiatorRow {
            initiator: snap.id.label(),
            accesses: snap.stats.accesses(),
            bytes: snap.stats.bytes,
            occupancy_cycles: snap.stats.occupancy_cycles,
            queue_cycles: snap.stats.queue_cycles,
            contended_grants: snap.stats.contended_grants,
            issue_stall_cycles: snap.stats.issue_stall_cycles,
            req_queue_peak: snap.stats.req_queue_peak,
            rsp_queue_peak: snap.stats.rsp_queue_peak,
        })
        .collect();

    let per_channel = platform
        .mem
        .channel_stats()
        .into_iter()
        .enumerate()
        .map(|(channel, stats)| ChannelRow { channel, stats })
        .collect();

    Ok(FabricPoint {
        kernel: workload.name().to_string(),
        clusters,
        variant,
        dram_latency: latency,
        channels: platform.mem.fabric().channel_count(),
        policy: policy.label(),
        queue_depths: depths.label(),
        req_queue_depth: if depths.req == usize::MAX {
            0
        } else {
            depths.req as u64
        },
        rsp_queue_depth: if depths.rsp == usize::MAX {
            0
        } else {
            depths.rsp as u64
        },
        host_traffic: knobs.host_traffic,
        ptw_batching: knobs.ptw_batching,
        tlb: tlb.label(),
        demand_paging: tlb.demand_paging,
        total: report.stats.total.raw(),
        compute: report.stats.compute.raw(),
        dma_wait: report.stats.dma_wait.raw(),
        iotlb_hit_rate: report.iommu.iotlb.hit_rate(),
        atc_hit_rate: report.iommu.atc.hit_rate(),
        page_requests: report.iommu.page_requests.requests,
        page_requests_dropped: report.iommu.page_requests.dropped,
        faults_serviced: report.iommu.page_requests.serviced,
        page_req_latency_mean: report.iommu.page_requests.service_time.mean(),
        page_req_latency_p50: report.iommu.page_request_p50,
        page_req_latency_p90: report.iommu.page_request_p90,
        page_req_latency_p99: report.iommu.page_request_p99,
        ptw_walks: report.iommu.ptw_walks,
        ptw_reads: report.iommu.ptw_reads,
        ptw_coalesced_reads: report.iommu.ptw_coalesced_reads,
        ptw_walk_table_events_peak: report.iommu.ptw_walk_table_events_peak as u64,
        ptw_walk_table_compacted: report.iommu.ptw_walk_table_compacted,
        pri_pending_peak: report.iommu.page_request_pending_peak as u64,
        verified: report.verified,
        grant_switches: platform.mem.fabric().grant_switches(),
        initiators,
        per_channel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One point at the baseline knobs: round-robin, unbounded queues, no
    /// host traffic, serial walker, single-level TLB.
    fn baseline_point(
        kind: KernelKind,
        clusters: usize,
        variant: SocVariant,
        channels: usize,
    ) -> FabricPoint {
        run_point(
            kind,
            false,
            clusters,
            variant,
            200,
            channels,
            &ArbitrationPolicy::RoundRobin,
            QueueDepths::UNBOUNDED,
            FabricKnobs::default(),
            TlbKnobs::default(),
        )
        .unwrap()
    }

    #[test]
    fn sweep_scales_and_reports_contention() {
        let points = [1, 2, 4]
            .map(|n| baseline_point(KernelKind::Gemm, n, SocVariant::IommuLlc, 1))
            .to_vec();
        let result = FabricSweepResult { points };
        assert_eq!(result.points.len(), 3);
        assert!(result.points.iter().all(|p| p.verified));

        let one = result.get(1, SocVariant::IommuLlc, 200).unwrap();
        let four = result.get(4, SocVariant::IommuLlc, 200).unwrap();
        assert!(four.total < one.total, "sharding must cut wall-clock");
        // A single DMA stream observes no cross-initiator queueing (its own
        // bursts never conflict with themselves); four overlapping streams
        // must. PTW probes may *record* waits behind DMA occupancy at any
        // cluster count — that accounting is live since the global clock —
        // so the invariant is on the DMA rows.
        let dma_queue = |p: &FabricPoint| -> u64 {
            p.initiators
                .iter()
                .filter(|r| r.initiator.starts_with("dma"))
                .map(|r| r.queue_cycles)
                .sum()
        };
        assert_eq!(dma_queue(one), 0);
        assert!(dma_queue(four) > 0);
        // One DMA initiator per cluster shows up in the fabric stats.
        let dma_rows = |p: &FabricPoint| {
            p.initiators
                .iter()
                .filter(|r| r.initiator.starts_with("dma"))
                .count()
        };
        assert_eq!(dma_rows(one), 1);
        assert_eq!(dma_rows(four), 4);
    }

    #[test]
    fn knob_sub_grid_reports_host_and_walker_effects() {
        let points: Vec<FabricPoint> = FabricKnobs::ALL
            .iter()
            .map(|&knobs| {
                run_point(
                    KernelKind::Gemm,
                    false,
                    4,
                    SocVariant::IommuLlc,
                    200,
                    1,
                    &ArbitrationPolicy::RoundRobin,
                    QueueDepths::UNBOUNDED,
                    knobs,
                    TlbKnobs::default(),
                )
                .unwrap()
            })
            .collect();
        assert!(points.iter().all(|p| p.verified));
        let result = FabricSweepResult { points };
        let base = result.get_knobs(4, 200, FabricKnobs::ALL[0]).unwrap();
        let batched = result.get_knobs(4, 200, FabricKnobs::ALL[1]).unwrap();
        let noisy = result.get_knobs(4, 200, FabricKnobs::ALL[2]).unwrap();
        // Host interference slows the device and shows up in the host row.
        assert!(noisy.total > base.total, "host traffic must cost cycles");
        let host_queue = |p: &FabricPoint| {
            p.initiators
                .iter()
                .find(|r| r.initiator == "host_stream")
                .map(|r| r.queue_cycles)
                .unwrap_or(0)
        };
        assert!(host_queue(noisy) > 0, "host stream queues behind DMA");
        // The batched walker coalesces and cuts memory reads.
        assert_eq!(base.ptw_coalesced_reads, 0);
        assert!(batched.ptw_coalesced_reads > 0);
        assert!(batched.ptw_reads < base.ptw_reads);
        assert_eq!(
            batched.ptw_reads + batched.ptw_coalesced_reads,
            base.ptw_reads,
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
        let run_depths = |depths: QueueDepths| {
            run_point(
                KernelKind::Gemm,
                false,
                4,
                SocVariant::IommuLlc,
                200,
                1,
                &ArbitrationPolicy::RoundRobin,
                depths,
                FabricKnobs {
                    host_traffic: true,
                    ptw_batching: true,
                },
                TlbKnobs::default(),
            )
            .unwrap()
        };
        let unbounded = run_depths(QueueDepths::UNBOUNDED);
        let shallow = run_depths(QueueDepths::bounded(4, 4));
        assert!(unbounded.verified && shallow.verified);
        assert_eq!(unbounded.issue_stall_cycles(), 0, "inf depths never stall");
        assert!(
            shallow.issue_stall_cycles() > 0,
            "finite request queues must stall issue under contention"
        );
        assert!(
            shallow.total >= unbounded.total,
            "backpressure cannot speed the device up: {} vs {}",
            shallow.total,
            unbounded.total
        );
        let dma_stalls: u64 = shallow
            .initiators
            .iter()
            .filter(|r| r.initiator.starts_with("dma"))
            .map(|r| r.issue_stall_cycles)
            .sum();
        assert!(dma_stalls > 0, "DMA issue must observe backpressure");
        let result = FabricSweepResult {
            points: vec![unbounded, shallow],
        };
        let point = result
            .get_depths(
                4,
                200,
                "4/4",
                FabricKnobs {
                    host_traffic: true,
                    ptw_batching: true,
                },
            )
            .expect("depth sub-grid point is addressable");
        assert_eq!(point.req_queue_depth, 4);
        let json = result.to_json(&SweepMeta::default());
        assert!(json.contains("\"queue_depths\": \"inf\""));
        assert!(json.contains("\"queue_depths\": \"4/4\""));
        assert!(json.contains("\"req_queue_depth\": 4"));
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
        let hierarchy = TlbHierarchyConfig::two_level();
        let run_tlb = |tlb: TlbKnobs| {
            run_point(
                KernelKind::Gemm,
                false,
                2,
                SocVariant::IommuLlc,
                200,
                1,
                &ArbitrationPolicy::RoundRobin,
                QueueDepths::UNBOUNDED,
                FabricKnobs::default(),
                tlb,
            )
            .unwrap()
        };
        let single = run_tlb(TlbKnobs::default());
        let hier = run_tlb(TlbKnobs {
            hierarchy,
            demand_paging: false,
        });
        let demand = run_tlb(TlbKnobs {
            hierarchy,
            demand_paging: true,
        });
        assert!(single.verified && hier.verified && demand.verified);

        assert_eq!(single.tlb, "single");
        assert_eq!(single.atc_hit_rate, 0.0, "no ATC without the hierarchy");
        assert_eq!(single.faults_serviced, 0);

        assert!(hier.atc_hit_rate > 0.0, "the hierarchy splits hits into L1");
        assert_eq!(hier.faults_serviced, 0, "pre-mapped runs never fault");

        assert!(demand.demand_paging);
        assert!(demand.faults_serviced > 0, "cold start pages in on demand");
        assert!(demand.page_requests >= demand.faults_serviced);
        assert!(demand.page_req_latency_p50 > 0);
        assert!(demand.page_req_latency_p99 >= demand.page_req_latency_p50);
        assert!(
            demand.total > hier.total,
            "demand paging must cost wall-clock: {} vs {}",
            demand.total,
            hier.total
        );

        // Points are addressable and the JSON schema carries the fields.
        let label = hier.tlb.clone();
        let result = FabricSweepResult {
            points: vec![single, hier, demand],
        };
        assert!(result.get_tlb(2, 200, "single", false).is_some());
        assert!(result.get_tlb(2, 200, &label, true).is_some());
        assert!(
            result.get(2, SocVariant::IommuLlc, 200).is_some(),
            "the baseline getter still finds the single-level point"
        );
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
                points.push(baseline_point(KernelKind::Axpy, n, variant, 2));
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
        let totals =
            [1, 2, 4].map(|ch| baseline_point(KernelKind::Gemm, 4, SocVariant::IommuLlc, ch).total);
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
            let p = run_point(
                KernelKind::Axpy,
                false,
                4,
                SocVariant::IommuLlc,
                200,
                2,
                &policy,
                QueueDepths::UNBOUNDED,
                FabricKnobs::default(),
                TlbKnobs::default(),
            )
            .unwrap();
            assert!(p.verified, "{policy:?} run must verify");
            assert_eq!(p.policy, policy.label());
            assert_eq!(p.per_channel.len(), 2);
        }
    }
}
