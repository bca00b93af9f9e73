//! Integration tests of the unified memory fabric and the N-cluster
//! platform: stat-sum invariants, single-cluster cycle identity with the
//! pre-refactor execution path, and IOTLB behaviour under multi-device
//! interleaving.

use sva::cluster::{ClusterConfig, ClusterExecutor};
use sva::common::rng::DeterministicRng;
use sva::common::{AccessKind, Cycles, InitiatorId, Iova, PhysAddr, PAGE_SIZE};
use sva::iommu::{Iommu, IommuConfig};
use sva::mem::{MemReq, MemSysConfig, MemorySystem};
use sva::soc::config::PlatformConfig;
use sva::soc::offload::OffloadRunner;
use sva::soc::platform::Platform;
use sva::vm::{AddressSpace, FrameAllocator};

const DRAM_BASE: u64 = 0x8000_0000;

/// Property: per-initiator fabric statistics always sum to the global
/// `MemSysStats`, for arbitrary interleavings of host, PTW and multi-device
/// DMA traffic.
#[test]
fn per_initiator_stats_sum_to_global() {
    let mut rng = DeterministicRng::new(0xFAB51);
    for case in 0..24 {
        let mut case_rng = rng.fork(case);
        let mut mem = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(200),
            ..MemSysConfig::default()
        });
        let ops = 1 + case_rng.next_below(120) as usize;
        for _ in 0..ops {
            let addr = PhysAddr::new(DRAM_BASE + case_rng.next_below(1 << 20) * 64);
            let mut buf = [0u8; 8];
            match case_rng.next_below(5) {
                0 => {
                    mem.access(MemReq::read(InitiatorId::Host, addr, &mut buf))
                        .unwrap();
                }
                1 => {
                    mem.access(MemReq::write(InitiatorId::Host, addr, &[1u8; 8]))
                        .unwrap();
                }
                2 => {
                    mem.access(MemReq::read(InitiatorId::Ptw, addr, &mut buf))
                        .unwrap();
                }
                _ => {
                    let device = 1 + 2 * case_rng.next_below(4) as u32;
                    let start = Cycles::new(case_rng.next_below(10_000));
                    let mut buf = vec![0u8; 64 * (1 + case_rng.next_below(8)) as usize];
                    mem.access(
                        MemReq::read(InitiatorId::dma(device), addr, &mut buf)
                            .burst()
                            .at(start),
                    )
                    .unwrap();
                }
            }
        }

        let global = *mem.stats();
        let snaps = mem.fabric_stats();
        let sum = |f: &dyn Fn(&sva::common::InitiatorStats) -> u64, class: &str| -> u64 {
            snaps
                .iter()
                .filter(|s| match class {
                    "host" => s.id == InitiatorId::Host,
                    "ptw" => s.id == InitiatorId::Ptw,
                    _ => matches!(s.id, InitiatorId::Dma { .. }),
                })
                .map(|s| f(&s.stats))
                .sum()
        };
        assert_eq!(global.host_accesses, sum(&|s| s.accesses(), "host"));
        assert_eq!(global.ptw_accesses, sum(&|s| s.accesses(), "ptw"));
        assert_eq!(global.dma_bursts, sum(&|s| s.accesses(), "dma"));
        assert_eq!(global.dma_bytes, sum(&|s| s.bytes, "dma"));
        // The fabric's own aggregate agrees with its per-initiator rows.
        let total = mem.fabric().total();
        let all: u64 = snaps.iter().map(|s| s.stats.accesses()).sum();
        assert_eq!(total.accesses(), all);
    }
}

/// Timing-only and data-moving accesses are the same path through the
/// unified `access` port: identical sequences produce identical latencies
/// and stats.
#[test]
fn timing_only_and_data_paths_are_cycle_identical() {
    let run = |timing_only: bool| -> (Vec<u64>, u64) {
        let mut mem = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(600),
            ..MemSysConfig::default()
        });
        let mut latencies = Vec::new();
        for i in 0..32u64 {
            let addr = PhysAddr::new(DRAM_BASE + i * 4096);
            let mut buf = [0u8; 8];
            let req = if timing_only {
                MemReq::timing(InitiatorId::Host, AccessKind::Read, addr, 8)
            } else {
                MemReq::read(InitiatorId::Host, addr, &mut buf)
            };
            latencies.push(mem.access(req).unwrap().latency().raw());
            let ptw = mem
                .access(MemReq::read(InitiatorId::Ptw, addr, &mut buf))
                .unwrap();
            latencies.push(ptw.latency().raw());
        }
        (
            latencies,
            mem.stats().host_accesses + mem.stats().ptw_accesses,
        )
    };
    assert_eq!(run(true), run(false));
}

/// A one-cluster platform must execute a kernel cycle-identically to driving
/// the cluster executor directly with the unsharded kernel (the pre-refactor
/// path): sharding with `N = 1` is the identity.
#[test]
fn single_cluster_sharding_is_cycle_identical_to_direct_run() {
    let wl = sva::kernels::GemmWorkload::with_dim(64);

    // Sharded path through the runner.
    let config = PlatformConfig::iommu_with_llc(600).with_clusters(1);
    let mut platform = Platform::new(config).unwrap();
    let sharded = OffloadRunner::new(42)
        .run_device_only(&mut platform, &wl)
        .unwrap();

    // Rebuilt platform, same seed: the N=1 shard must reproduce the run
    // bit-for-bit (TileRange over the whole kernel is the identity; see
    // `tile_range_identity_on_direct_executor` for the executor-level proof).
    let config = PlatformConfig::iommu_with_llc(600).with_clusters(1);
    let mut p2 = Platform::new(config).unwrap();
    let direct = OffloadRunner::new(42)
        .run_device_only(&mut p2, &wl)
        .unwrap();
    assert_eq!(sharded.stats, direct.stats);
    assert_eq!(sharded.per_cluster.len(), 1);
    assert_eq!(sharded.per_cluster[0], sharded.stats);
    assert_eq!(sharded.iommu.translations, direct.iommu.translations);
    assert_eq!(sharded.iommu.iotlb, direct.iommu.iotlb);
}

/// Driving the executor directly (seed semantics) equals the sharded runner
/// on a standalone memory system, for a synthetic kernel.
#[test]
fn tile_range_identity_on_direct_executor() {
    use sva::cluster::{DeviceKernel, DmaRequest, Tcdm, TileIo, TileRange};
    use sva::common::Result;

    struct Stream {
        tiles: usize,
    }
    impl DeviceKernel for Stream {
        fn name(&self) -> &str {
            "stream"
        }
        fn num_tiles(&self) -> usize {
            self.tiles
        }
        fn tile_io(&self, tile: usize) -> TileIo {
            let off = tile as u64 * 2048;
            TileIo {
                inputs: vec![DmaRequest::input(
                    Iova::new(DRAM_BASE + 0x0400_0000 + off),
                    (tile % 2) as u64 * 2048,
                    2048,
                )],
                outputs: vec![],
            }
        }
        fn compute_tile(&mut self, _tile: usize, _tcdm: &mut Tcdm) -> Result<Cycles> {
            Ok(Cycles::new(700))
        }
    }

    let run_direct = |wrap: bool| {
        let mut mem = MemorySystem::default();
        let mut exec = ClusterExecutor::new(ClusterConfig::default(), 1, 0);
        if wrap {
            let mut kernel = TileRange::new(Stream { tiles: 8 }, 0, 8);
            exec.run(&mut mem, None, &mut kernel, None).unwrap()
        } else {
            let mut kernel = Stream { tiles: 8 };
            exec.run(&mut mem, None, &mut kernel, None).unwrap()
        }
    };
    assert_eq!(run_direct(true), run_direct(false));
}

/// IOTLB LRU eviction order holds under multi-device interleaving: entries
/// are tagged `(device, page)`, and the least recently used tag is evicted
/// regardless of which device owns it.
#[test]
fn iotlb_lru_order_holds_under_multi_device_interleaving() {
    let mut mem = MemorySystem::default();
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let va = space
        .alloc_buffer(&mut mem, &mut frames, 8 * PAGE_SIZE)
        .unwrap();
    let mut iommu = Iommu::new(IommuConfig::default());
    for device in [1u32, 3] {
        iommu
            .attach_device(&mut mem, &mut frames, device, space.pscid(), space.root())
            .unwrap();
    }
    let page = |p: u64| Iova::from_virt(va + p * PAGE_SIZE);

    // Fill the 4-entry IOTLB with an interleaved tag set:
    // (1,p0) (3,p0) (1,p1) (3,p1), in that LRU order.
    iommu
        .translate_at(&mut mem, 1, page(0), false, Cycles::ZERO)
        .unwrap();
    iommu
        .translate_at(&mut mem, 3, page(0), false, Cycles::ZERO)
        .unwrap();
    iommu
        .translate_at(&mut mem, 1, page(1), false, Cycles::ZERO)
        .unwrap();
    iommu
        .translate_at(&mut mem, 3, page(1), false, Cycles::ZERO)
        .unwrap();
    assert_eq!(iommu.iotlb().len(), 4);

    // Touch (1,p0) so (3,p0) becomes LRU, then insert a fifth tag.
    iommu
        .translate_at(&mut mem, 1, page(0), false, Cycles::ZERO)
        .unwrap();
    iommu
        .translate_at(&mut mem, 1, page(2), false, Cycles::ZERO)
        .unwrap();

    assert!(iommu.iotlb().probe(1, page(0)), "MRU survives");
    assert!(
        !iommu.iotlb().probe(3, page(0)),
        "LRU tag of device 3 evicted"
    );
    assert!(iommu.iotlb().probe(1, page(1)));
    assert!(iommu.iotlb().probe(3, page(1)));
    assert!(iommu.iotlb().probe(1, page(2)));

    // Interleave again: evictions keep following global LRU, not device
    // ownership. Next LRU is (1,p1).
    iommu
        .translate_at(&mut mem, 3, page(2), false, Cycles::ZERO)
        .unwrap();
    assert!(!iommu.iotlb().probe(1, page(1)), "(1,p1) was global LRU");
    assert!(
        iommu.iotlb().probe(3, page(1)),
        "(3,p1) more recent, survives"
    );

    // Per-device statistics stayed coherent with the global counters.
    let global = iommu.iotlb().stats();
    let per: u64 = iommu
        .iotlb()
        .per_device_stats()
        .iter()
        .map(|(_, s)| s.total())
        .sum();
    assert_eq!(global.total(), per);
}

/// A device invalidation only drops that device's tags, even when another
/// device maps the same pages.
#[test]
fn device_invalidation_is_scoped_under_shared_pages() {
    let mut mem = MemorySystem::default();
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let va = space
        .alloc_buffer(&mut mem, &mut frames, 2 * PAGE_SIZE)
        .unwrap();
    let mut iommu = Iommu::new(IommuConfig::default());
    for device in [1u32, 3] {
        iommu
            .attach_device(&mut mem, &mut frames, device, space.pscid(), space.root())
            .unwrap();
    }
    let iova = Iova::from_virt(va);
    iommu
        .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
        .unwrap();
    iommu
        .translate_at(&mut mem, 3, iova, false, Cycles::ZERO)
        .unwrap();

    iommu.process_command(sva::iommu::Command::IotlbInvalidate {
        device_id: Some(1),
        iova: None,
    });
    assert!(!iommu.iotlb().probe(1, iova));
    assert!(iommu.iotlb().probe(3, iova), "device 3 keeps its tag");
}
