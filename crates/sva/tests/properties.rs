//! Property-based tests of the core data structures and invariants.
//!
//! The build environment is offline, so instead of `proptest` these
//! properties are driven by the workspace's own [`DeterministicRng`]: each
//! property runs a fixed number of randomised cases from a fixed seed, which
//! keeps failures reproducible run-to-run.

use sva::axi::BurstPlan;
use sva::common::rng::DeterministicRng;
use sva::common::{Cycles, Iova, PhysAddr, VirtAddr, PAGE_SIZE};
use sva::iommu::{Iommu, IommuConfig};
use sva::mem::{MemorySystem, SparseMemory};
use sva::vm::{AddressSpace, FrameAllocator, PageTable, PteFlags};

/// Runs `f` for `cases` deterministic random cases derived from `seed`.
fn check<F: FnMut(&mut DeterministicRng)>(seed: u64, cases: usize, mut f: F) {
    let mut rng = DeterministicRng::new(seed);
    for case in 0..cases {
        let mut case_rng = rng.fork(case as u64);
        f(&mut case_rng);
    }
}

/// Burst plans cover exactly the requested bytes, never cross 4 KiB
/// boundaries and never exceed the maximum burst size.
#[test]
fn burst_plan_invariants() {
    check(0xB0057, 256, |rng| {
        let addr = rng.next_below(0x1_0000_0000);
        let len = rng.next_below(200_000);
        let max_burst = [256u64, 1024, 2048, 4096][rng.next_below(4) as usize];

        let plan = BurstPlan::split(PhysAddr::new(addr), len, max_burst);
        assert_eq!(plan.total_bytes(), len);
        let touched = plan.pages_touched();
        let mut expected_next = PhysAddr::new(addr);
        let mut pages = 0;
        for burst in plan {
            assert!(burst.len > 0);
            assert!(burst.len <= max_burst);
            // Contiguous, in order.
            assert_eq!(burst.addr, expected_next);
            expected_next = burst.end();
            // Never crosses a page boundary.
            assert_eq!(burst.addr.page_number(), (burst.end() - 1u64).page_number());
            pages += u64::from(burst.addr.page_offset() == 0 || burst.addr == PhysAddr::new(addr));
        }
        // Every byte was yielded, and each page touched starts one burst.
        assert_eq!(expected_next, PhysAddr::new(addr + len));
        assert_eq!(touched, pages);
    });
}

/// Sparse memory behaves like a flat byte array.
#[test]
fn sparse_memory_matches_flat_model() {
    check(0x5AA, 64, |rng| {
        let mut mem = SparseMemory::new(1 << 16);
        let mut model = vec![0u8; 1 << 16];
        let writes = 1 + rng.next_below(19) as usize;
        for _ in 0..writes {
            let offset = rng.next_below(60_000);
            let len = 1 + rng.next_below(199) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
            if offset as usize + data.len() <= model.len() {
                mem.write(offset, &data).unwrap();
                model[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
            }
        }
        let mut out = vec![0u8; model.len()];
        mem.read(0, &mut out).unwrap();
        assert_eq!(out, model);
    });
}

/// Mapping pages and translating them through the page table is the identity
/// on (page, offset) pairs, and unmapped pages always fault.
#[test]
fn page_table_roundtrip() {
    check(0x9A6E, 24, |rng| {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let pt = PageTable::create(&mut frames).unwrap();
        let base = VirtAddr::new(0x4000_0000);
        let offset = rng.next_below(PAGE_SIZE);
        let n_pages = 1 + rng.next_below(23) as usize;
        let mut pages: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        while pages.len() < n_pages {
            pages.insert(rng.next_below(512));
        }
        let mut mapping = Vec::new();
        for &p in &pages {
            let pa = frames.alloc_frame().unwrap();
            pt.map_page(
                &mut mem,
                &mut frames,
                base + p * PAGE_SIZE,
                pa,
                PteFlags::user_rw(),
            )
            .unwrap();
            mapping.push((p, pa));
        }
        for (p, pa) in mapping {
            let got = pt.translate(&mem, base + p * PAGE_SIZE + offset).unwrap();
            assert_eq!(got, pa + offset);
        }
        // A page index outside the mapped set faults.
        let unmapped = (0..1024u64).find(|p| !pages.contains(p)).unwrap();
        assert!(pt.translate(&mem, base + unmapped * PAGE_SIZE).is_err());
    });
}

/// The IOMMU translation agrees with the process page table for every offset
/// of a mapped buffer, regardless of the access pattern.
#[test]
fn iommu_matches_software_walk() {
    check(0x1077, 24, |rng| {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 8 * PAGE_SIZE)
            .unwrap();
        let mut iommu = Iommu::new(IommuConfig::default());
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let n_offsets = 1 + rng.next_below(39) as usize;
        for _ in 0..n_offsets {
            let off = rng.next_below(8 * PAGE_SIZE);
            let iova = Iova::from_virt(va + off);
            let (pa, cycles) = iommu
                .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
                .unwrap();
            assert_eq!(pa, space.translate(&mem, va + off).unwrap());
            assert!(cycles.raw() > 0);
        }
        let stats = iommu.stats();
        assert_eq!(stats.iotlb.total(), stats.translations);
        assert!(stats.ptw_walks as usize <= 8usize.max(stats.iotlb.misses as usize));
    });
}

/// The IOTLB never grows beyond its capacity and always serves hits for the
/// most recently used page.
#[test]
fn iotlb_capacity_and_mru() {
    check(0x71B, 16, |rng| {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 64 * PAGE_SIZE)
            .unwrap();
        let mut iommu = Iommu::new(IommuConfig::default());
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();

        let n = 1 + rng.next_below(99) as usize;
        for _ in 0..n {
            let p = rng.next_below(64);
            let iova = Iova::from_virt(va + p * PAGE_SIZE);
            iommu
                .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
                .unwrap();
            assert!(iommu.iotlb().len() <= 4);
            // Immediately repeating the same page is always an IOTLB hit.
            let before = iommu.stats().iotlb.hits;
            iommu
                .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
                .unwrap();
            assert_eq!(iommu.stats().iotlb.hits, before + 1);
        }
    });
}

/// Functional correctness of the device axpy for arbitrary problem sizes
/// (not just the paper's power-of-two sizes).
#[test]
fn device_axpy_matches_reference_for_odd_sizes() {
    use sva::kernels::AxpyWorkload;
    use sva::soc::config::PlatformConfig;
    use sva::soc::offload::{OffloadMode, OffloadRunner};
    use sva::soc::platform::Platform;

    check(0xA4B, 8, |rng| {
        let n = 1 + rng.next_below(5_999) as usize;
        let workload = AxpyWorkload::with_elems(n);
        let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        let report = OffloadRunner::new(n as u64)
            .run(&mut platform, &workload, OffloadMode::ZeroCopy)
            .unwrap();
        assert!(report.verified);
    });
}
