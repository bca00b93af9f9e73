//! The assembled prototype platform (Figure 1 of the paper), scaled to N
//! accelerator clusters.
//!
//! The paper's prototype instantiates one Snitch cluster behind the IOMMU.
//! [`Platform`] generalises that to `num_clusters` executors sharing the
//! IOMMU and the memory fabric: cluster `i` presents IOMMU device ID
//! `DEVICE_ID + 2·i` for its data traffic, attached to the process address
//! space (`DEVICE_ID` is the driver's, [`sva_host::driver::DEVICE_ID`]). The
//! odd IDs stay reserved for the clusters' instruction-fetch ports, which
//! the model does not simulate. With `num_clusters == 1` the platform is
//! exactly the paper's.

use sva_cluster::ClusterExecutor;
use sva_common::{Error, GlobalClock, Result, VirtAddr};
use sva_host::driver::DEVICE_ID;
use sva_host::{CopyEngine, HostCpu, HostTrafficStream, IommuDriver, MappingCost, MappingHandle};
use sva_iommu::{Iommu, IommuStats};
use sva_mem::MemorySystem;
use sva_vm::{AddressSpace, FrameAllocator};

use crate::config::PlatformConfig;

/// Seed of Figure 5's statistical host interference.
const INTERFERENCE_SEED: u64 = 0x5EED ^ 0xA11CE;

/// The full SoC: host subsystem, IOMMU, accelerator clusters, memory system
/// and the software state (process address space, driver, allocators).
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    /// The global simulation clock owned by the platform: shared with the
    /// memory system (which stamps otherwise-unstamped accesses with it)
    /// and the host CPU (which advances it as it executes). Cluster
    /// executors keep their own per-shard cursors — shards of one offload
    /// run concurrently in simulated time.
    pub clock: GlobalClock,
    /// The shared memory system (LLC, DRAM, delayer, L2 SPM).
    pub mem: MemorySystem,
    /// The CVA6 host core.
    pub cpu: HostCpu,
    /// The timed host-traffic stream injected into device measurement
    /// windows, when configured.
    pub host_traffic: Option<HostTrafficStream>,
    /// The RISC-V IOMMU shared by every cluster, present exactly when the
    /// configuration has one ([`PlatformConfig::iommu`]). Without it the
    /// clusters present bus addresses.
    pub iommu: Option<Iommu>,
    /// The Snitch cluster executors. Cluster `i`'s DMA engine presents
    /// device ID [`Platform::cluster_device_id`]`(i)`.
    pub clusters: Vec<ClusterExecutor>,
    /// The user process running the heterogeneous application.
    pub space: AddressSpace,
    /// Frame allocator for Linux-managed memory (user pages, page tables).
    pub frames: FrameAllocator,
    /// Frame allocator for the reserved physically contiguous DMA area.
    pub reserved: FrameAllocator,
    /// The IOMMU driver (kernel module + userspace library model).
    pub driver: IommuDriver,
    /// The host copy engine used by copy-based offloading.
    pub copy: CopyEngine,
}

impl Clone for Platform {
    /// A cloned platform is an **independent** simulation: because
    /// [`GlobalClock`] handles share their counter, a derived clone would
    /// leave both platforms advancing (and rewinding) each other's time.
    /// The manual impl fresh-wires a new clock seeded at the original's
    /// current reading and re-attaches it to the memory system and the
    /// host CPU.
    fn clone(&self) -> Self {
        let clock = GlobalClock::new();
        clock.advance_to(self.clock.now());
        let mut mem = self.mem.clone();
        mem.attach_clock(&clock);
        let mut cpu = self.cpu.clone();
        cpu.attach_clock(&clock);
        Self {
            config: self.config.clone(),
            clock,
            mem,
            cpu,
            host_traffic: self.host_traffic.clone(),
            iommu: self.iommu.clone(),
            clusters: self.clusters.clone(),
            space: self.space.clone(),
            frames: self.frames.clone(),
            reserved: self.reserved.clone(),
            driver: self.driver.clone(),
            copy: self.copy.clone(),
        }
    }
}

impl Platform {
    /// Builds and boots a platform: constructs the memory system, creates the
    /// user process, and — when the variant has an IOMMU — attaches every
    /// cluster to the process's IOMMU domain (cluster 0 through the driver,
    /// the paper's flow; further clusters directly against the same IO page
    /// table). Under [`sva_common::ArbitrationPolicy::FixedPriority`]
    /// cluster `i`'s DMA engine issues at the policy's priority `i`, and at
    /// priority 0 under every other policy.
    ///
    /// # Errors
    ///
    /// Returns [`sva_common::Error::InvalidConfig`] for a configuration
    /// [`PlatformConfig::validate`] rejects, and allocation failures while
    /// setting up the address space or the IOMMU structures.
    pub fn new(config: PlatformConfig) -> Result<Self> {
        config.validate()?;
        let clock = GlobalClock::new();
        let mut mem = MemorySystem::new(config.mem.clone());
        mem.attach_clock(&clock);
        mem.set_interference(config.interference.to_config(INTERFERENCE_SEED));

        let mut cpu = HostCpu::new();
        cpu.attach_clock(&clock);
        let host_traffic = config.host_traffic.map(HostTrafficStream::new);
        let mut iommu = config.iommu.map(Iommu::new);
        let num_clusters = config.num_clusters;
        let clusters = (0..num_clusters)
            .map(|i| {
                let priority = config.mem.fabric.policy.priority(i);
                ClusterExecutor::new(config.cluster, data_device_id(i), priority)
            })
            .collect();
        let mut frames = FrameAllocator::linux_pool();
        let reserved = FrameAllocator::reserved_pool();
        let space = AddressSpace::new(&mut mem, &mut frames)?;
        let mut driver = IommuDriver::new();

        if let Some(iommu) = &mut iommu {
            driver.attach(&mut cpu, &mut mem, iommu, &mut frames, space.pscid())?;
            // Clusters beyond the first share the IO page table the driver
            // built for cluster 0 — same process, same mappings.
            let root = driver.io_table().expect("driver attached").root();
            for i in 1..num_clusters {
                iommu.attach_device(
                    &mut mem,
                    &mut frames,
                    data_device_id(i),
                    space.pscid(),
                    root,
                )?;
            }
        }

        Ok(Self {
            config,
            clock,
            mem,
            cpu,
            host_traffic,
            iommu,
            clusters,
            space,
            frames,
            reserved,
            driver,
            copy: CopyEngine::new(),
        })
    }

    /// The configuration this platform was built from.
    pub const fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Number of accelerator clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The first cluster executor (the paper's single cluster).
    pub fn cluster(&self) -> &ClusterExecutor {
        &self.clusters[0]
    }

    /// IOMMU device ID presented by cluster `index`'s DMA data traffic.
    pub fn cluster_device_id(&self, index: usize) -> u32 {
        data_device_id(index)
    }

    /// Convenience: the DRAM latency knob of this instance (the AXI
    /// delayer's `mem.dram_latency`).
    pub fn dram_latency(&self) -> u64 {
        self.config.mem.dram_latency.raw()
    }

    /// The IOMMU's statistics, all zero without an IOMMU.
    pub fn iommu_stats(&self) -> IommuStats {
        self.iommu
            .as_ref()
            .map_or_else(IommuStats::default, Iommu::stats)
    }

    /// Maps `bytes` of the process's memory at `va` for the devices through
    /// the driver (Listing 1's `create_iommu_mapping`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IommuNotPresent`] without an IOMMU, and propagates
    /// the driver's errors.
    pub fn map_buffer(&mut self, va: VirtAddr, bytes: u64) -> Result<(MappingHandle, MappingCost)> {
        let iommu = self.iommu.as_mut().ok_or(Error::IommuNotPresent)?;
        self.driver.map_buffer(
            &mut self.cpu,
            &mut self.mem,
            iommu,
            &self.space,
            &mut self.frames,
            va,
            bytes,
        )
    }
}

/// IOMMU device ID of cluster `index`'s DMA data traffic.
fn data_device_id(index: usize) -> u32 {
    DEVICE_ID + 2 * index as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocVariant;

    #[test]
    fn all_variants_boot() {
        for variant in SocVariant::ALL {
            let config = PlatformConfig::variant(variant, 600);
            let platform = Platform::new(config).unwrap();
            assert_eq!(platform.dram_latency(), 600);
            assert_eq!(platform.iommu.is_some(), variant.has_iommu());
            assert_eq!(platform.mem.llc().is_some(), variant.has_llc());
        }
    }

    #[test]
    fn translating_platforms_have_an_attached_device() {
        let platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        assert!(platform.iommu.as_ref().unwrap().ddt().is_some());
        assert!(platform.driver.io_table().is_some());
    }

    #[test]
    fn baseline_platform_has_no_device_directory() {
        let platform = Platform::new(PlatformConfig::baseline(200)).unwrap();
        assert!(platform.iommu.is_none());
        assert!(platform.driver.io_table().is_none());
    }

    /// Asserts that `Platform::new` rejects `config` with an
    /// `InvalidConfig` error naming `field`.
    fn assert_rejects(config: PlatformConfig, field: &str) {
        match Platform::new(config) {
            Err(sva_common::Error::InvalidConfig { reason }) => {
                assert!(reason.contains(field), "reason {reason:?} misses {field}");
            }
            Err(other) => panic!("{field}: wrong error {other}"),
            Ok(_) => panic!("{field}: an invalid value was accepted"),
        }
    }

    #[test]
    fn zero_clusters_are_rejected() {
        let mut config = PlatformConfig::iommu_with_llc(200);
        config.num_clusters = 0;
        assert_rejects(config, "num_clusters");
    }

    #[test]
    fn zero_depth_request_queue_is_rejected() {
        let mut config = PlatformConfig::iommu_with_llc(200).with_channel_depths(4, 4);
        config.mem.fabric.req_queue_depth = 0;
        assert_rejects(config, "mem.fabric.req_queue_depth");
    }

    #[test]
    fn zero_depth_response_queue_is_rejected() {
        let mut config = PlatformConfig::iommu_with_llc(200).with_channel_depths(4, 4);
        config.mem.fabric.rsp_queue_depth = 0;
        assert_rejects(config, "mem.fabric.rsp_queue_depth");
    }

    #[test]
    fn zero_memory_channels_are_rejected() {
        let mut config = PlatformConfig::iommu_with_llc(200);
        config.mem.fabric.num_channels = 0;
        assert_rejects(config, "mem.fabric.num_channels");
    }

    #[test]
    fn zero_iotlb_entries_are_rejected_without_a_hierarchy() {
        let config = PlatformConfig::iommu_with_llc(200).with_iotlb_entries(0);
        assert_rejects(config.clone(), "iommu.tlb.l2.org");
        // Behind an L1 the shared level is sized, and checked, the same way.
        let behind_l1 = config.with_default_tlb_hierarchy().with_iotlb_entries(0);
        assert_rejects(behind_l1, "iommu.tlb.l2.org");
    }

    #[test]
    fn zero_outstanding_dma_bursts_are_rejected() {
        let mut config = PlatformConfig::iommu_with_llc(200);
        config.cluster.dma_outstanding = 0;
        assert_rejects(config, "cluster.dma_outstanding");
    }

    #[test]
    fn empty_tlb_levels_are_rejected() {
        let mut config = PlatformConfig::iommu_with_llc(200).with_default_tlb_hierarchy();
        let tlb = &mut config.iommu.as_mut().unwrap().tlb;
        tlb.l1.as_mut().unwrap().org.sets = 0;
        assert_rejects(config, "iommu.tlb.l1.org");
        let mut config = PlatformConfig::iommu_with_llc(200).with_default_tlb_hierarchy();
        config.iommu.as_mut().unwrap().tlb.l2.org.ways = 0;
        assert_rejects(config, "iommu.tlb.l2.org");
    }

    #[test]
    fn weighted_policy_needs_a_positive_weight_per_cluster() {
        use sva_common::ArbitrationPolicy;
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(4);
        let short = config
            .clone()
            .with_arbitration(ArbitrationPolicy::Weighted(vec![8, 1, 1]));
        assert_rejects(short, "mem.fabric.policy");
        let zero = config
            .clone()
            .with_arbitration(ArbitrationPolicy::Weighted(vec![8, 0, 1, 1]));
        assert_rejects(zero, "mem.fabric.policy");
        let long = config
            .clone()
            .with_arbitration(ArbitrationPolicy::Weighted(vec![8, 4, 2, 1, 1]));
        assert_rejects(long, "mem.fabric.policy");
        let full = config.with_arbitration(ArbitrationPolicy::Weighted(vec![8, 4, 2, 1]));
        assert!(Platform::new(full).is_ok());
    }

    /// `FixedPriority` carries exactly one DMA priority per cluster.
    #[test]
    fn fixed_priority_needs_one_priority_per_cluster() {
        use sva_common::ArbitrationPolicy;
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(3);
        for wrong in [vec![0, 1], vec![0, 1, 2, 3]] {
            let fixed = config
                .clone()
                .with_arbitration(ArbitrationPolicy::FixedPriority(wrong));
            assert_rejects(fixed, "mem.fabric.policy");
        }
        let fixed = config.with_arbitration(ArbitrationPolicy::FixedPriority(vec![2, 0, 1]));
        assert!(Platform::new(fixed).is_ok());
    }

    #[test]
    fn host_traffic_without_timed_host_ptw_is_rejected() {
        let mut config = PlatformConfig::iommu_with_llc(200);
        config.host_traffic = Some(sva_host::HostTrafficConfig::default());
        assert_rejects(config.clone(), "mem.fabric.timed_host_ptw");
        config.mem.fabric.timed_host_ptw = true;
        assert!(Platform::new(config).is_ok());
    }

    #[test]
    fn builders_pass_zero_through_to_validation() {
        let config = PlatformConfig::iommu_with_llc(200);
        assert_rejects(config.clone().with_clusters(0), "num_clusters");
        assert_rejects(
            config.clone().with_memory_channels(0),
            "mem.fabric.num_channels",
        );
        assert_rejects(
            config.clone().with_channel_depths(0, 4),
            "mem.fabric.req_queue_depth",
        );
        assert_rejects(
            config.with_channel_depths(4, 0),
            "mem.fabric.rsp_queue_depth",
        );
    }

    #[test]
    fn dram_latency_reads_the_delayer_setting() {
        let mut config = PlatformConfig::iommu_with_llc(200);
        config.mem.dram_latency = sva_common::Cycles::new(1000);
        assert_eq!(Platform::new(config).unwrap().dram_latency(), 1000);
    }

    #[test]
    fn zero_host_traffic_region_is_rejected() {
        let traffic = sva_host::HostTrafficConfig {
            region_bytes: 0,
            ..sva_host::HostTrafficConfig::default()
        };
        let config = PlatformConfig::iommu_with_llc(200).with_host_traffic(traffic);
        assert_rejects(config, "host_traffic.region_bytes");
    }

    #[test]
    fn default_platform_has_one_cluster() {
        let platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        assert_eq!(platform.num_clusters(), 1);
        assert_eq!(platform.cluster_device_id(0), 1);
        assert_eq!(platform.iommu.as_ref().unwrap().attached_devices(), &[1]);
    }

    #[test]
    fn multi_cluster_platform_attaches_every_data_device() {
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(4);
        let platform = Platform::new(config).unwrap();
        assert_eq!(platform.num_clusters(), 4);
        for i in 0..4 {
            assert_eq!(
                platform.clusters[i].device_id(),
                platform.cluster_device_id(i)
            );
        }
        // One data context per cluster; the odd IDs stay unattached.
        let iommu = platform.iommu.as_ref().unwrap();
        assert_eq!(iommu.attached_devices(), &[1, 3, 5, 7]);
    }

    #[test]
    fn multi_cluster_baseline_boots_without_iommu_state() {
        let config = PlatformConfig::baseline(200).with_clusters(3);
        let platform = Platform::new(config).unwrap();
        assert_eq!(platform.num_clusters(), 3);
        assert!(platform.iommu.is_none());
    }
}
