//! Cross-layer invalidation property test.
//!
//! A page shootdown (`IOTINVAL.VMA`) must purge **every** structure a
//! translation can be cached in — the per-device L1 ATCs, the shared L2
//! IOTLB and the page-table walker's in-flight MSHR registers — atomically
//! with respect to the model: after the command returns, no stale
//! translation may be served to any device at any simulated time, even
//! while conceptually concurrent walks overlap the remap on the global
//! clock.
//!
//! The test drives a `DeterministicRng`-randomised interleaving of timed
//! translations (deliberately overlapping arrival times, so the batched
//! walker keeps registers in flight) and page remaps (unmap → new frame →
//! `invalidate_page` for every device), and checks after every single
//! operation that each device's next translation resolves to the page
//! table's *current* frame — a stale ATC entry, L2 entry or MSHR register
//! would surface as a translation to the old frame.

use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, PAGE_SIZE};
use sva_iommu::{Command, Iommu, IommuConfig, TlbHierarchyConfig};
use sva_mem::{MemSysConfig, MemorySystem};
use sva_vm::{AddressSpace, FrameAllocator, PteFlags};

const PAGES: u64 = 8;
const DEVICES: [u32; 2] = [1, 3];
const OPS: usize = 400;

#[test]
fn no_stale_translation_survives_invalidate_page_under_concurrent_walks() {
    // High DRAM latency and no LLC keep PTE reads in flight for a long
    // window, maximising the chance a stale MSHR register could serve a
    // later walk if invalidation failed to purge it.
    let mut mem = MemorySystem::new(MemSysConfig {
        dram_latency: Cycles::new(800),
        llc: None,
        ..MemSysConfig::default()
    });
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let va = space
        .alloc_buffer(&mut mem, &mut frames, PAGES * PAGE_SIZE)
        .unwrap();

    let mut iommu = Iommu::new(IommuConfig {
        tlb: TlbHierarchyConfig::two_level(),
        ptw_batching: true,
        ..IommuConfig::default()
    });
    for device in DEVICES {
        iommu
            .attach_device(&mut mem, &mut frames, device, space.pscid(), space.root())
            .unwrap();
    }

    let mut rng = DeterministicRng::new(0xD00D_F00D);
    // Advancing base time keeps walk arrivals overlapping (same few-hundred
    // cycle window) without ever rewinding the simulated clock order.
    let mut base = 0u64;

    for op in 0..OPS {
        base += rng.next_below(40);
        let page = rng.next_below(PAGES);
        let page_va = va + page * PAGE_SIZE;
        let iova = Iova::from_virt(page_va);

        if rng.chance(0.3) {
            // Shootdown: move the page to a fresh frame, then invalidate it
            // for every device, exactly like the driver's remap flow.
            space.page_table().unmap_page(&mut mem, page_va).unwrap();
            let new_pa = frames.alloc_frame().unwrap();
            space
                .page_table()
                .map_page(&mut mem, &mut frames, page_va, new_pa, PteFlags::user_rw())
                .unwrap();
            for device in DEVICES {
                iommu.process_command(Command::IotlbInvalidate {
                    device_id: Some(device),
                    iova: Some(iova),
                });
            }
            // Immediately after the shootdown nothing may still hold the
            // page, at either level.
            for device in DEVICES {
                assert!(
                    !iommu.iotlb().probe(device, iova),
                    "op {op}: stale L2 entry for device {device} page {page}"
                );
                if let Some(atc) = iommu.atc(device) {
                    assert!(
                        !atc.probe(device, iova),
                        "op {op}: stale L1 ATC entry for device {device} page {page}"
                    );
                }
            }
        }

        // A translation from a random device at a (possibly overlapping)
        // time must resolve to the page table's current frame — never a
        // pre-invalidation one cached in a TLB level or latched in an
        // in-flight MSHR register.
        let device = DEVICES[rng.next_below(DEVICES.len() as u64) as usize];
        let offset = rng.next_below(PAGE_SIZE);
        let now = Cycles::new(base + rng.next_below(200));
        let (pa, _) = iommu
            .translate_at(&mut mem, device, iova + offset, false, now)
            .unwrap();
        let expected = space.translate(&mem, page_va + offset).unwrap();
        assert_eq!(
            pa, expected,
            "op {op}: device {device} translated page {page} to a stale frame"
        );
    }

    // The run must actually have exercised the interesting machinery.
    let stats = iommu.stats();
    assert!(stats.atc.hits > 0, "ATCs served hits");
    assert!(stats.iotlb.total() > 0, "L2 was probed");
    assert!(stats.ptw_walks > 0, "walks happened");
    assert!(
        iommu.iotlb().invalidations() > 0,
        "invalidations were processed"
    );
}
