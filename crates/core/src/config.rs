//! Platform configurations.
//!
//! The evaluation compares three variants of the same SoC (Table II and
//! Figure 4):
//!
//! * **Baseline** — no IOMMU; the accelerator addresses the physically
//!   contiguous reserved DRAM directly (explicit copies are needed for
//!   offloading);
//! * **IOMMU** — the IOMMU translates device traffic, but the LLC is
//!   disabled, so page-table walks go to DRAM;
//! * **IOMMU + LLC** — the paper's proposal: the shared LLC caches host and
//!   page-table-walk traffic while device DMA bypasses it.
//!
//! All variants share the DRAM-latency knob (the AXI delayer,
//! `mem.dram_latency`) swept over 200 / 600 / 1000 cycles.
//! [`PlatformConfig::variant`] builds a variant from the components it
//! has: `mem.llc` and `iommu` are `None` where the variant lacks them.

use sva_cluster::ClusterConfig;
use sva_common::{ArbitrationPolicy, Cycles, Error, Result, TlbOrg};
use sva_host::{HostTrafficConfig, InterferenceLevel};
use sva_iommu::{IommuConfig, TlbHierarchyConfig};
use sva_mem::{LlcConfig, MemSysConfig};

/// The three platform variants of the evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SocVariant {
    /// No IOMMU (physical addressing, copy-based offload only).
    Baseline,
    /// IOMMU enabled, LLC disabled.
    Iommu,
    /// IOMMU enabled and the shared LLC caches host + PTW traffic.
    IommuLlc,
}

impl SocVariant {
    /// All variants, in the order of Table II.
    pub const ALL: [SocVariant; 3] = [
        SocVariant::Baseline,
        SocVariant::Iommu,
        SocVariant::IommuLlc,
    ];

    /// Label used in tables and figures.
    pub const fn label(self) -> &'static str {
        match self {
            SocVariant::Baseline => "Baseline",
            SocVariant::Iommu => "IOMMU",
            SocVariant::IommuLlc => "IOMMU+LLC",
        }
    }

    /// Whether the variant instantiates the IOMMU.
    pub const fn has_iommu(self) -> bool {
        !matches!(self, SocVariant::Baseline)
    }

    /// Whether the variant instantiates the LLC.
    pub const fn has_llc(self) -> bool {
        matches!(self, SocVariant::IommuLlc | SocVariant::Baseline)
    }
}

/// The DRAM-latency sweep used throughout the paper.
pub const PAPER_LATENCIES: [u64; 3] = [200, 600, 1000];

/// Full configuration of a platform instance.
///
/// It holds what the evaluation varies, and every value is read by the
/// model. The fixed calibrations of the emulated FPGA build (DDR
/// controller, LLC and L1 geometry, bus width, DMA bursts, IOMMU pipeline,
/// page-request queue and the driver's costs) are constants next to the
/// code that reads them. A component the platform lacks holds no settings:
/// the LLC, the IOMMU, an IOTLB's private L1 and the host-traffic stream
/// are `Option`s, and each per-cluster arbitration value lives in the
/// [`ArbitrationPolicy`] that reads it. The builders for an absent
/// component return the configuration unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformConfig {
    /// Memory-system details: the extra DRAM latency of the AXI delayer
    /// (`dram_latency`, the paper's knob), the LLC (`None` without one)
    /// with its DMA bypass policy, and the fabric with its channels, queues
    /// and arbitration policy.
    pub mem: MemSysConfig,
    /// The IOMMU: translation hierarchy, walker and demand paging. `None`
    /// is the paper's Baseline: the platform has no IOMMU, and devices
    /// address physical memory.
    pub iommu: Option<IommuConfig>,
    /// Cluster details (outstanding DMA bursts, double buffering), shared
    /// by every cluster.
    pub cluster: ClusterConfig,
    /// Synthetic host interference while the device runs (Figure 5's
    /// statistical model; superseded by [`PlatformConfig::host_traffic`]
    /// for fabric sweeps).
    pub interference: InterferenceLevel,
    /// Timed host-traffic stream injected into device measurement windows
    /// (`None` = host idle). It needs the global-clock engine
    /// (`mem.fabric.timed_host_ptw`, which
    /// [`PlatformConfig::with_host_traffic`] turns on), so the stream's
    /// accesses reserve bus occupancy and host/PTW queueing is charged when
    /// fabric contention charging is enabled.
    pub host_traffic: Option<HostTrafficConfig>,
    /// Number of accelerator clusters sharing the IOMMU and memory fabric.
    /// The paper's prototype has one; offloads are sharded across clusters
    /// with static block scheduling when more are instantiated.
    pub num_clusters: usize,
}

impl PlatformConfig {
    /// Builds one of the paper's three variants at a given DRAM latency.
    pub fn variant(variant: SocVariant, dram_latency: u64) -> Self {
        Self {
            mem: MemSysConfig {
                dram_latency: Cycles::new(dram_latency),
                llc: variant.has_llc().then(LlcConfig::default),
                ..MemSysConfig::default()
            },
            iommu: variant.has_iommu().then(IommuConfig::default),
            cluster: ClusterConfig::default(),
            interference: InterferenceLevel::Idle,
            host_traffic: None,
            num_clusters: 1,
        }
    }

    /// Checks that the platform can be built from this configuration and
    /// run without a panic, a silently clamped value or an ignored one. The
    /// builders pass their arguments through, and the fields are public, so
    /// a configuration can hold values the platform cannot use.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first offending field:
    ///
    /// * a zero-sized resource: `num_clusters`,
    ///   `mem.fabric.req_queue_depth`, `mem.fabric.rsp_queue_depth`,
    ///   `mem.fabric.num_channels`, the sets or ways of
    ///   `iommu.tlb.l1.org` / `iommu.tlb.l2.org`,
    ///   `cluster.dma_outstanding` or `host_traffic.region_bytes`;
    /// * `mem.fabric.timed_host_ptw`, when it is off while a `host_traffic`
    ///   stream is configured: the stream's accesses would reserve no bus
    ///   time;
    /// * `mem.fabric.policy`, if its per-cluster list (`Weighted`'s weights
    ///   or `FixedPriority`'s priorities) does not hold exactly one entry
    ///   per cluster, or `Weighted` has a zero weight.
    pub fn validate(&self) -> Result<()> {
        let invalid = |reason: String| Err(Error::InvalidConfig { reason });
        let fabric = &self.mem.fabric;
        let tlb = self.iommu.map(|iommu| iommu.tlb);
        let empty = |org: TlbOrg| org.sets == 0 || org.ways == 0;
        let zero_sized = [
            ("num_clusters", self.num_clusters == 0),
            ("mem.fabric.req_queue_depth", fabric.req_queue_depth == 0),
            ("mem.fabric.rsp_queue_depth", fabric.rsp_queue_depth == 0),
            ("mem.fabric.num_channels", fabric.num_channels == 0),
            (
                "iommu.tlb.l1.org sets and ways",
                tlb.and_then(|t| t.l1).is_some_and(|l1| empty(l1.org)),
            ),
            (
                "iommu.tlb.l2.org sets and ways",
                tlb.is_some_and(|t| empty(t.l2.org)),
            ),
            ("cluster.dma_outstanding", self.cluster.dma_outstanding == 0),
            (
                "host_traffic.region_bytes",
                self.host_traffic.is_some_and(|t| t.region_bytes == 0),
            ),
        ];
        if let Some((field, _)) = zero_sized.into_iter().find(|&(_, zero)| zero) {
            return invalid(format!("{field} must be at least 1"));
        }
        if self.host_traffic.is_some() && !fabric.timed_host_ptw {
            return invalid(
                "host_traffic needs mem.fabric.timed_host_ptw: without it the stream reserves no bus time"
                    .into(),
            );
        }
        let per_cluster = match &fabric.policy {
            ArbitrationPolicy::RoundRobin => None,
            ArbitrationPolicy::Weighted(weights) => Some(("weights", weights.len())),
            ArbitrationPolicy::FixedPriority(priorities) => Some(("priorities", priorities.len())),
        };
        if let Some((what, len)) = per_cluster {
            if len != self.num_clusters {
                return invalid(format!(
                    "mem.fabric.policy: {} has {len} {what} for {} clusters",
                    fabric.policy.label(),
                    self.num_clusters
                ));
            }
        }
        if let ArbitrationPolicy::Weighted(weights) = &fabric.policy {
            if weights.contains(&0) {
                return invalid("mem.fabric.policy: Weighted weights must be at least 1".into());
            }
        }
        Ok(())
    }

    /// The paper's baseline platform (no IOMMU) at a given latency.
    pub fn baseline(dram_latency: u64) -> Self {
        Self::variant(SocVariant::Baseline, dram_latency)
    }

    /// IOMMU without LLC at a given latency.
    pub fn iommu_no_llc(dram_latency: u64) -> Self {
        Self::variant(SocVariant::Iommu, dram_latency)
    }

    /// IOMMU with the shared LLC at a given latency.
    pub fn iommu_with_llc(dram_latency: u64) -> Self {
        Self::variant(SocVariant::IommuLlc, dram_latency)
    }

    /// Applies `edit` to the IOMMU settings. A configuration without an
    /// IOMMU is returned unchanged: a builder never adds a component.
    fn with_iommu(mut self, edit: impl FnOnce(&mut IommuConfig)) -> Self {
        if let Some(iommu) = &mut self.iommu {
            edit(iommu);
        }
        self
    }

    /// Returns a copy whose shared IOTLB holds `entries` fully-associative
    /// entries (ablation). Zero is passed through for
    /// [`PlatformConfig::validate`] to reject. Without an IOMMU the copy is
    /// unchanged.
    pub fn with_iotlb_entries(self, entries: usize) -> Self {
        self.with_iommu(|iommu| {
            iommu.tlb.l2.org = TlbOrg {
                sets: 1,
                ways: entries,
            }
        })
    }

    /// Returns a copy with a different number of outstanding DMA bursts
    /// (ablation).
    pub fn with_dma_outstanding(mut self, outstanding: usize) -> Self {
        self.cluster.dma_outstanding = outstanding;
        self
    }

    /// Returns a copy that routes device DMA through the LLC instead of the
    /// bypass (ablation of the paper's bypass argument). Without an LLC the
    /// copy is unchanged.
    pub fn with_dma_through_llc(mut self) -> Self {
        if let Some(llc) = &mut self.mem.llc {
            llc.serves_dma = true;
        }
        self
    }

    /// Returns a copy with the given interference level (Figure 5).
    pub fn with_interference(mut self, level: InterferenceLevel) -> Self {
        self.interference = level;
        self
    }

    /// Returns a copy with double buffering disabled (ablation).
    pub fn with_single_buffering(mut self) -> Self {
        self.cluster.double_buffer = false;
        self
    }

    /// Returns a copy with `n` accelerator clusters sharing the IOMMU and
    /// the memory fabric.
    pub fn with_clusters(mut self, n: usize) -> Self {
        self.num_clusters = n;
        self
    }

    /// Returns a copy whose memory fabric *charges* the cross-initiator
    /// queueing it measures (contention becomes part of reported latencies).
    pub fn with_fabric_contention(mut self) -> Self {
        self.mem.fabric.contention_enabled = true;
        self
    }

    /// Returns a copy whose DRAM backend is split into `n` page-interleaved
    /// channels (`n = 1` is the paper's single shared data path).
    pub fn with_memory_channels(mut self, n: usize) -> Self {
        self.mem.fabric.num_channels = n;
        self
    }

    /// Returns a copy using the given fabric arbitration policy. A
    /// `Weighted` or `FixedPriority` list must hold one entry per cluster
    /// ([`PlatformConfig::validate`] rejects any other length): cluster `i`
    /// gets weight or DMA request priority `list[i]`.
    pub fn with_arbitration(mut self, policy: ArbitrationPolicy) -> Self {
        self.mem.fabric.policy = policy;
        self
    }

    /// Returns a copy whose DRAM channels carry request/response queues of
    /// the given depths: the split-transaction fabric. A full request queue
    /// stalls initiator issue (credit-based backpressure, reported as
    /// `issue_stall_cycles`); a full response queue delays grants. A depth
    /// of `usize::MAX`, the default, is unbounded: both at `usize::MAX` are
    /// cycle-identical to the pure reservation model.
    pub fn with_channel_depths(mut self, req: usize, rsp: usize) -> Self {
        self.mem.fabric.req_queue_depth = req;
        self.mem.fabric.rsp_queue_depth = rsp;
        self
    }

    /// Returns a copy that injects a timed host-traffic stream into every
    /// device measurement window (and turns the global-clock engine on —
    /// untimed host traffic could not contend).
    pub fn with_host_traffic(mut self, traffic: HostTrafficConfig) -> Self {
        self.host_traffic = Some(traffic);
        self.mem.fabric.timed_host_ptw = true;
        self
    }

    /// Returns a copy with the IOMMU's MSHR-style batched page-table walker
    /// enabled: concurrent walks that need a PTE read already in flight
    /// coalesce onto it instead of issuing their own. Without an IOMMU the
    /// copy is unchanged.
    pub fn with_ptw_batching(self) -> Self {
        self.with_iommu(|iommu| iommu.ptw_batching = true)
    }

    /// Returns a copy whose IOMMU runs the given **translation
    /// hierarchy**: an optional private L1 ATC per device in front of the
    /// shared IOTLB, each level with its own organisation, replacement
    /// policy and lookup latency (charged into every translation). The
    /// default, [`TlbHierarchyConfig::default`], is the paper prototype's
    /// single IOTLB. Without an IOMMU the copy is unchanged.
    pub fn with_tlb_hierarchy(self, hierarchy: TlbHierarchyConfig) -> Self {
        self.with_iommu(|iommu| iommu.tlb = hierarchy)
    }

    /// Returns a copy with the two-level hierarchy
    /// ([`TlbHierarchyConfig::two_level`]: 4-entry fully-associative ATC
    /// per device, 32-entry 8×4 shared L2, true LRU). Without an IOMMU the
    /// copy is unchanged.
    pub fn with_default_tlb_hierarchy(self) -> Self {
        self.with_tlb_hierarchy(TlbHierarchyConfig::two_level())
    }

    /// Returns a copy with **ATS/PRI-style demand paging**: zero-copy
    /// offloads skip the driver's up-front `map_buffer` pass, every page
    /// the device touches faults on first access, the fault enqueues a
    /// page request on the IOMMU's bounded queue, and the host driver
    /// services it by mapping the page through the timed memory system
    /// while the faulting DMA engine stalls-and-retries. Fault service
    /// latency is surfaced through `OffloadReport::iommu`
    /// (`page_requests`, percentiles) and the DMA engines'
    /// `fault_stall_cycles`.
    ///
    /// Workloads whose tile planning peeks device-visible memory before
    /// the first DMA touch (the sort kernel's merge-path pre-pass) work
    /// too: the executor's plan pass pages its reads in through the same
    /// ATS/PRI stall-and-retry loop, so a cold probe faults, waits for the
    /// host to map the page, and re-reads instead of failing.
    ///
    /// Without an IOMMU the copy is unchanged.
    pub fn with_demand_paging(self) -> Self {
        self.with_iommu(|iommu| iommu.demand_paging = true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_match_table2_configurations() {
        let base = PlatformConfig::baseline(600);
        assert!(base.iommu.is_none());
        assert!(
            base.mem.llc.is_some(),
            "the baseline platform keeps its LLC for the host"
        );

        let no_llc = PlatformConfig::iommu_no_llc(600);
        assert_eq!(no_llc.iommu, Some(IommuConfig::default()));
        assert!(no_llc.mem.llc.is_none());

        let with_llc = PlatformConfig::iommu_with_llc(600);
        assert_eq!(with_llc.iommu, Some(IommuConfig::default()));
        let llc = with_llc.mem.llc.expect("IOMMU+LLC has an LLC");
        assert!(!llc.serves_dma, "DMA must bypass the LLC by default");
    }

    #[test]
    fn paper_iotlb_has_four_entries() {
        for v in [SocVariant::Iommu, SocVariant::IommuLlc] {
            let tlb = PlatformConfig::variant(v, 200).iommu.unwrap().tlb;
            assert!(tlb.l1.is_none(), "the prototype has no private L1");
            assert_eq!(tlb.l2.org, TlbOrg::fully_associative(4));
            assert_eq!(tlb.l2.lookup_latency, Cycles::new(2));
        }
    }

    #[test]
    fn ablation_builders() {
        let c = PlatformConfig::iommu_with_llc(200)
            .with_iotlb_entries(16)
            .with_dma_outstanding(8)
            .with_dma_through_llc()
            .with_single_buffering()
            .with_interference(InterferenceLevel::RandomTraffic);
        assert_eq!(c.iommu.unwrap().tlb.l2.org, TlbOrg::fully_associative(16));
        assert_eq!(c.cluster.dma_outstanding, 8);
        assert!(c.mem.llc.unwrap().serves_dma);
        assert!(!c.cluster.double_buffer);
        assert_eq!(c.interference, InterferenceLevel::RandomTraffic);
    }

    /// A builder for a component the configuration lacks returns it
    /// unchanged: it never adds the component, so a Baseline stays
    /// IOMMU-free and an LLC-free platform stays LLC-free.
    #[test]
    fn builders_for_absent_components_change_nothing() {
        let base = PlatformConfig::baseline(200);
        let built = base
            .clone()
            .with_iotlb_entries(16)
            .with_ptw_batching()
            .with_default_tlb_hierarchy()
            .with_demand_paging();
        assert_eq!(built, base);
        let no_llc = PlatformConfig::iommu_no_llc(200);
        assert_eq!(no_llc.clone().with_dma_through_llc(), no_llc);
    }

    #[test]
    fn labels_are_paper_labels() {
        assert_eq!(SocVariant::Baseline.label(), "Baseline");
        assert_eq!(SocVariant::Iommu.label(), "IOMMU");
        assert_eq!(SocVariant::IommuLlc.label(), "IOMMU+LLC");
    }
}
