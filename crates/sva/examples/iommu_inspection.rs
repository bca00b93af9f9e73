//! Drive the IOMMU model directly: map pages, watch the IOTLB and the
//! page-table walker at work, and trigger an IO page fault.
//!
//! ```text
//! cargo run --release --example iommu_inspection
//! ```
//!
//! This example skips the offload runtime and uses the subsystem crates
//! directly — useful when extending the IOMMU model or studying how the
//! shared LLC changes the walker's latency.

use sva::common::{Cycles, Iova, PAGE_SIZE};
use sva::iommu::{Command, Iommu, IommuConfig};
use sva::mem::{MemSysConfig, MemorySystem};
use sva::vm::{AddressSpace, FrameAllocator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A memory system at 600 cycles of DRAM latency, with the shared LLC.
    let mut mem = MemorySystem::new(MemSysConfig {
        dram_latency: Cycles::new(600),
        ..MemSysConfig::default()
    });

    // A user process with an 8-page buffer.
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames)?;
    let va = space.alloc_buffer(&mut mem, &mut frames, 8 * PAGE_SIZE)?;
    println!("user buffer at {va} backed by scattered physical pages:");
    for page in 0..8u64 {
        let pa = space.translate(&mem, va + page * PAGE_SIZE)?;
        println!(
            "  page {page}: {va_page} -> {pa}",
            va_page = va + page * PAGE_SIZE
        );
    }

    // Attach the accelerator (device id 1) to the process page table.
    let mut iommu = Iommu::new(IommuConfig::default());
    iommu.attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())?;

    // Translate every page twice: the first access walks the tables, the
    // second hits the 4-entry IOTLB (as long as it has not been evicted).
    println!("\ntranslations (device id 1):");
    for pass in 0..2 {
        for page in 0..8u64 {
            let iova = Iova::from_virt(va + page * PAGE_SIZE);
            let (pa, cycles) = iommu.translate_at(&mut mem, 1, iova, false, Cycles::ZERO)?;
            println!("  pass {pass} page {page}: {iova} -> {pa} in {cycles}");
        }
    }
    let stats = iommu.stats();
    println!("\nIOTLB: {}", stats.iotlb);
    println!(
        "page-table walks: {} (average {:.1} cycles, min {:?}, max {:?})",
        stats.ptw_walks,
        stats.ptw_time.mean(),
        stats.ptw_time.min(),
        stats.ptw_time.max()
    );

    // Invalidate the IOTLB the way the driver does after changing mappings:
    // for every device, since all of a process's devices share its table.
    iommu.process_command(Command::IotlbInvalidate {
        device_id: None,
        iova: None,
    });
    println!("\nafter IOTINVAL.VMA the next access walks the tables again:");
    let (_, cycles) = iommu.translate_at(&mut mem, 1, Iova::from_virt(va), false, Cycles::ZERO)?;
    println!("  re-walk took {cycles}");

    // Accessing an unmapped IOVA raises an IO page fault and lands in the
    // fault queue, like the real fault-reporting path.
    let bad = Iova::new(0x7000_0000);
    match iommu.translate_at(&mut mem, 1, bad, true, Cycles::ZERO) {
        Err(e) => println!("\naccess to unmapped {bad} failed as expected: {e}"),
        Ok(_) => unreachable!("unmapped access must fault"),
    }
    if let Some(fault) = iommu.pop_fault() {
        println!(
            "fault record: device {} iova {} write={} reason {:?}",
            fault.device_id, fault.iova, fault.is_write, fault.reason
        );
    }
    Ok(())
}
