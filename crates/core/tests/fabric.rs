//! Integration tests of the QoS-aware fabric arbitration: starvation-freedom
//! of the weighted policy, strict ordering of fixed-priority arbitration
//! under synthetic two-initiator contention, the IOTLB/fabric stat-sum
//! invariants on a multi-cluster platform running each policy, and the
//! global-clock engine (timed host traffic contending with DMA/PTW, the
//! MSHR-style batched walker).

use sva_common::{ArbitrationPolicy, Cycles, InitiatorId, MemPortReq, PhysAddr, PortTiming};
use sva_host::HostTrafficConfig;
use sva_kernels::GemmWorkload;
use sva_mem::fabric::{Fabric, FabricConfig};
use sva_soc::config::PlatformConfig;
use sva_soc::offload::OffloadRunner;
use sva_soc::platform::Platform;

const DRAM_BASE: u64 = 0x8000_0000;

fn burst(device: u32, priority: u8) -> MemPortReq {
    MemPortReq::read(InitiatorId::dma(device), PhysAddr::new(DRAM_BASE), 2048)
        .as_burst()
        .with_priority(priority)
}

fn timing(occupancy: u64) -> PortTiming {
    PortTiming {
        latency: Cycles::new(200),
        occupancy: Cycles::new(occupancy),
    }
}

/// Weighted arbitration must not starve the low-weight initiator: under
/// sustained two-initiator contention with a 16:1 weight skew, every access
/// of the light stream is still placed within the bus time the heavy stream
/// has reserved so far, and the skew shows up as a queueing imbalance —
/// not as denial of service.
#[test]
fn weighted_arbitration_is_starvation_free() {
    let mut fabric = Fabric::new(FabricConfig {
        policy: ArbitrationPolicy::Weighted(vec![16, 1]),
        ..FabricConfig::default()
    });
    const ROUNDS: u64 = 64;
    const OCC: u64 = 256;
    let mut heavy_reserved = 0u64;
    for i in 0..ROUNDS {
        let t = Cycles::new(i * 10);
        fabric.admit(&burst(1, 0).at(t), timing(OCC));
        heavy_reserved += OCC;
        let q = fabric.admit(&burst(3, 0).at(t), timing(OCC)).queue;
        // Bounded waiting: the light stream can only ever wait behind bus
        // time that has actually been reserved, never indefinitely.
        assert!(
            q.raw() <= heavy_reserved,
            "round {i}: light stream waited {q} behind {heavy_reserved} reserved cycles"
        );
    }
    let heavy = fabric.initiator_stats(InitiatorId::dma(1)).unwrap();
    let light = fabric.initiator_stats(InitiatorId::dma(3)).unwrap();
    // Both streams got all their grants — nobody was dropped or deferred
    // past the measurement window.
    assert_eq!(heavy.accesses(), ROUNDS);
    assert_eq!(light.accesses(), ROUNDS);
    assert_eq!(heavy.bytes, light.bytes);
    // The skew shifts the queueing burden onto the light stream...
    assert!(
        heavy.queue_cycles < light.queue_cycles,
        "weight 16 should out-queue weight 1: heavy={} light={}",
        heavy.queue_cycles,
        light.queue_cycles
    );
    // ...but the light stream still makes continuous progress: its average
    // wait per access stays below one full rotation of both streams.
    let avg_wait = light.queue_cycles / light.accesses();
    assert!(
        avg_wait <= 2 * OCC,
        "light stream's average wait {avg_wait} exceeds a bus rotation"
    );
}

/// Fixed-priority arbitration orders strictly: the high-priority initiator
/// never waits for low-priority occupancy, the low-priority initiator
/// absorbs all queueing, and equal priorities degenerate to the first-fit
/// round-robin behaviour.
#[test]
fn fixed_priority_orders_strictly_under_contention() {
    let mut fabric = Fabric::new(FabricConfig {
        policy: ArbitrationPolicy::FixedPriority(vec![0, 2]),
        ..FabricConfig::default()
    });
    for i in 0..32u64 {
        let t = Cycles::new(i * 10);
        fabric.admit(&burst(1, 0).at(t), timing(256)); // low priority
        fabric.admit(&burst(3, 2).at(t), timing(256)); // high priority
    }
    let low = fabric.initiator_stats(InitiatorId::dma(1)).unwrap();
    let high = fabric.initiator_stats(InitiatorId::dma(3)).unwrap();
    assert_eq!(
        high.queue_cycles, 0,
        "high priority must never wait for low-priority occupancy"
    );
    assert_eq!(high.contended_grants, 0);
    assert!(
        low.queue_cycles > 0,
        "low priority absorbs the contention under strict ordering"
    );

    // Equal priorities: fixed-priority placement equals round-robin's.
    let drive = |policy: ArbitrationPolicy| -> Vec<u64> {
        let mut fabric = Fabric::new(FabricConfig {
            policy,
            ..FabricConfig::default()
        });
        let mut queues = Vec::new();
        for i in 0..32u64 {
            let t = Cycles::new(i * 10);
            queues.push(fabric.admit(&burst(1, 1).at(t), timing(256)).queue.raw());
            queues.push(fabric.admit(&burst(3, 1).at(t), timing(256)).queue.raw());
        }
        queues
    };
    // Both streams present priority 1: an equal level under
    // FixedPriority, and ignored under RoundRobin.
    assert_eq!(
        drive(ArbitrationPolicy::FixedPriority(vec![1, 1])),
        drive(ArbitrationPolicy::RoundRobin),
        "equal priorities must degenerate to round-robin placement"
    );
}

/// The per-device IOTLB statistics and the per-initiator fabric statistics
/// keep summing to their global counters whichever arbitration policy and
/// channel split the platform runs — the accounting invariants of PR 1 hold
/// under the QoS layer.
#[test]
fn stat_sums_hold_under_every_policy() {
    let policies = [
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::Weighted(vec![4, 2, 1, 1]),
        ArbitrationPolicy::FixedPriority(vec![0, 1, 2, 3]),
    ];
    for policy in policies {
        let config = PlatformConfig::iommu_with_llc(200)
            .with_clusters(4)
            .with_fabric_contention()
            .with_memory_channels(2)
            .with_arbitration(policy.clone());
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(0xFA1)
            .run_device_only(&mut platform, &GemmWorkload::with_dim(64))
            .unwrap();
        assert!(report.verified, "{policy:?} run must verify");

        // IOTLB: per-device stats sum to the global hit/miss counters.
        let iommu = platform.iommu.as_ref().unwrap();
        let global = iommu.iotlb().stats();
        let per_device = iommu.device_iotlb_stats();
        assert!(per_device.len() >= 4, "one IOTLB row per data device");
        assert_eq!(
            per_device.iter().map(|(_, s)| s.total()).sum::<u64>(),
            global.total(),
            "{policy:?}: per-device IOTLB rows must sum to the global stats"
        );

        // Fabric: per-initiator rows sum to the global memory statistics,
        // and per-channel rows sum to the fabric totals.
        let mem_stats = *platform.mem.stats();
        let snaps = platform.mem.fabric_stats();
        let dma_bursts: u64 = snaps
            .iter()
            .filter(|s| matches!(s.id, InitiatorId::Dma { .. }))
            .map(|s| s.stats.accesses())
            .sum();
        let dma_bytes: u64 = snaps
            .iter()
            .filter(|s| matches!(s.id, InitiatorId::Dma { .. }))
            .map(|s| s.stats.bytes)
            .sum();
        assert_eq!(mem_stats.dma_bursts, dma_bursts);
        assert_eq!(mem_stats.dma_bytes, dma_bytes);
        let total = platform.mem.fabric().total();
        let per_channel = platform.mem.channel_stats();
        assert_eq!(per_channel.len(), 2);
        assert_eq!(
            per_channel.iter().map(|c| c.bytes).sum::<u64>(),
            total.bytes
        );
        assert_eq!(
            per_channel.iter().map(|c| c.queue_cycles).sum::<u64>(),
            total.queue_cycles
        );
    }
}

/// The global-clock engine end to end: with a timed host-traffic stream
/// injected into the measurement window of a contended multi-cluster run,
/// (a) the host and PTW initiators observe nonzero queueing (they are on
/// the fabric timelines now), (b) the device slows down relative to the
/// host-idle run, and (c) the host-idle configuration's wall-clock is
/// untouched by the engine merely existing.
#[test]
fn timed_host_traffic_contends_with_dma_and_ptw() {
    let wl = GemmWorkload::with_dim(64);
    let run = |host: bool| {
        let mut config = PlatformConfig::iommu_with_llc(200)
            .with_clusters(4)
            .with_fabric_contention();
        if host {
            config = config.with_host_traffic(HostTrafficConfig::default());
        }
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(0x6C0C)
            .run_device_only(&mut platform, &wl)
            .unwrap();
        assert!(report.verified, "host={host} run must verify");
        let queue_of = |id: InitiatorId| {
            platform
                .mem
                .fabric()
                .initiator_stats(id)
                .map(|s| s.queue_cycles)
                .unwrap_or(0)
        };
        (
            report.stats.total.raw(),
            queue_of(InitiatorId::HostStream),
            queue_of(InitiatorId::Ptw),
        )
    };
    let (idle_total, _, _) = run(false);
    let (noisy_total, host_queue, ptw_queue) = run(true);
    assert!(
        host_queue > 0,
        "the host stream must queue behind DMA occupancy"
    );
    assert!(
        ptw_queue > 0,
        "page-table walks must queue behind host/DMA occupancy"
    );
    assert!(
        noisy_total > idle_total,
        "host interference must slow the device: idle={idle_total} noisy={noisy_total}"
    );
}

/// The MSHR-style batched walker on a multi-cluster platform: per-device
/// IOTLB misses of the shared working set coalesce in the walk table, so
/// batching cuts the walker's memory reads without changing results, and
/// read+coalesced totals are conserved.
#[test]
fn ptw_batching_coalesces_cross_device_walks() {
    let wl = GemmWorkload::with_dim(64);
    let run = |batching: bool| {
        let mut config = PlatformConfig::iommu_with_llc(200)
            .with_clusters(4)
            .with_fabric_contention();
        if batching {
            config = config.with_ptw_batching();
        }
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(0xBA7C)
            .run_device_only(&mut platform, &wl)
            .unwrap();
        assert!(report.verified, "batching={batching} run must verify");
        report.iommu
    };
    let serial = run(false);
    let batched = run(true);
    assert_eq!(serial.ptw_coalesced_reads, 0);
    assert!(batched.ptw_coalesced_reads > 0, "concurrent walks coalesce");
    assert!(
        batched.ptw_reads < serial.ptw_reads,
        "batching must cut walker memory reads: {} vs {}",
        batched.ptw_reads,
        serial.ptw_reads
    );
    // Same translation work happened either way: every level of every walk
    // resolved exactly once, by a read or by coalescing.
    assert_eq!(serial.ptw_walks, batched.ptw_walks);
    assert_eq!(
        batched.ptw_reads + batched.ptw_coalesced_reads,
        serial.ptw_reads,
        "levels are conserved between the serial and batched walkers"
    );
}
