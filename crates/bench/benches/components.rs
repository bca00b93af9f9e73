//! Criterion micro-benchmarks of the individual hardware models: IOMMU
//! translation, DMA bursts, page-table construction and LLC accesses.
//!
//! These quantify the simulator's own hot paths so regressions in the models
//! (which every experiment depends on) are caught early.

use criterion::{criterion_group, criterion_main, Criterion};

use sva_cluster::{DmaConfig, DmaEngine, DmaRequest, Tcdm};
use sva_common::{Cycles, InitiatorId, Iova, PhysAddr, PAGE_SIZE};
use sva_iommu::{Iommu, IommuConfig};
use sva_mem::{MemReq, MemSysConfig, MemorySystem};
use sva_vm::{AddressSpace, FrameAllocator, PteFlags};

fn translation_setup() -> (MemorySystem, Iommu, Iova) {
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
    (mem, iommu, Iova::from_virt(va))
}

fn bench_iommu_translate(c: &mut Criterion) {
    let mut group = c.benchmark_group("iommu/translate");
    group.bench_function("iotlb_hit", |b| {
        let (mut mem, mut iommu, iova) = translation_setup();
        iommu.translate(&mut mem, 1, iova, false).unwrap();
        b.iter(|| iommu.translate(&mut mem, 1, iova, false).unwrap())
    });
    group.bench_function("iotlb_miss_walk", |b| {
        let (mut mem, mut iommu, iova) = translation_setup();
        let mut page = 0u64;
        b.iter(|| {
            // Sweep pages so the 4-entry IOTLB keeps missing.
            page = (page + 1) % 64;
            iommu
                .translate(&mut mem, 1, iova + page * PAGE_SIZE, false)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_dma_burst(c: &mut Criterion) {
    c.bench_function("dma/64KiB_bypass_transfer", |b| {
        let mut mem = MemorySystem::new(MemSysConfig::default());
        let mut iommu = Iommu::new(IommuConfig::disabled());
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(DmaConfig::default());
        let addr = Iova::new(
            sva_axi::addrmap::DRAM_BASE + sva_axi::addrmap::LLC_BYPASS_OFFSET + 0x10_0000,
        );
        b.iter(|| {
            dma.execute(
                &mut mem,
                &mut iommu,
                &mut tcdm,
                &[DmaRequest::input(addr, 0, 64 * 1024)],
                Cycles::ZERO,
            )
            .unwrap()
        })
    });
}

fn bench_page_table_map(c: &mut Criterion) {
    c.bench_function("vm/map_64_pages", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::default();
            let mut frames = FrameAllocator::linux_pool();
            let pt = sva_vm::PageTable::create(&mut frames).unwrap();
            for i in 0..64u64 {
                let pa = frames.alloc_frame().unwrap();
                pt.map_page(
                    &mut mem,
                    &mut frames,
                    sva_common::VirtAddr::new(0x4000_0000 + i * PAGE_SIZE),
                    pa,
                    PteFlags::user_rw(),
                )
                .unwrap();
            }
        })
    });
}

fn bench_llc_host_access(c: &mut Criterion) {
    c.bench_function("mem/host_read_llc_hit", |b| {
        let mut mem = MemorySystem::default();
        let addr = PhysAddr::new(sva_axi::addrmap::DRAM_BASE + 0x8000);
        let mut buf = [0u8; 8];
        let mut read = |mem: &mut MemorySystem| {
            mem.access(MemReq::read(InitiatorId::Host, addr, &mut buf))
                .unwrap()
        };
        read(&mut mem);
        b.iter(|| read(&mut mem))
    });
}

criterion_group!(
    name = components;
    config = Criterion::default().sample_size(20);
    targets =
        bench_iommu_translate,
        bench_dma_burst,
        bench_page_table_map,
        bench_llc_host_access
);
criterion_main!(components);
