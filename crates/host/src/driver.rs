//! The Linux IOMMU driver model.
//!
//! The paper implements a small device driver plus a userspace library that
//! lets the application attach the accelerator to an IOMMU domain and create
//! IO-virtual ↔ physical mappings before an offload (`create_iommu_mapping`
//! in Listing 1). The cost of that step — the "map" bars of Figures 2
//! and 3 — is dominated by three ingredients, all modelled here:
//!
//! * the fixed cost of entering the kernel through `ioctl` and returning;
//! * per-page work: pinning the user page (touching `struct page`
//!   metadata), building the scatter list, and writing up to three IO
//!   page-table entries per 4 KiB page;
//! * the IOTLB/device-directory invalidation commands issued afterwards.
//!
//! Because the driver performs these accesses through the CVA6's cache
//! hierarchy, the freshly written page-table entries end up in the shared
//! LLC — which is exactly why the IOMMU's later page-table walks hit there
//! (Section IV-C of the paper).

use sva_axi::addrmap::DRAM_BASE;
use sva_common::{Cycles, Error, InitiatorId, Iova, PhysAddr, Result, VirtAddr, MIB, PAGE_SIZE};
use sva_iommu::{Command, Iommu, PageRequestHandler};
use sva_mem::{MemReq, MemorySystem};
use sva_vm::{AddressSpace, FrameAllocator, PageTable, PteFlags};

use crate::cpu::HostCpu;

/// Base physical address of the kernel's `struct page` array in the model
/// (inside the Linux-managed DRAM half, cacheable).
const STRUCT_PAGE_ARRAY_BASE: u64 = DRAM_BASE + 16 * MIB;

/// Base physical address of the driver's scatter-list / bookkeeping arena.
const DRIVER_ARENA_BASE: u64 = DRAM_BASE + 24 * MIB;

/// Fixed host cycles for an `ioctl` round trip (syscall entry/exit,
/// argument copy, dispatch) on the 50 MHz CVA6 running Linux.
const IOCTL_OVERHEAD: u64 = 15_000;

/// Host cycles per memory-mapped IOMMU register access (the register window
/// is an uncached device region).
const MMIO_ACCESS: u64 = 40;

/// Arithmetic/bookkeeping instructions executed per mapped page.
const PER_PAGE_OPS: u64 = 60;

/// Cycles from a device's page-request group hitting the IOMMU queue to the
/// host fault handler starting to run (interrupt delivery, context switch
/// into the IOMMU driver's PRI thread).
const FAULT_SIGNAL_LATENCY: Cycles = Cycles::new(800);

/// Handler cycles per serviced page request (looking the faulting
/// process/VMA up, pinning the page, building the mapping request) — on
/// top of the timed page-table touches the handler performs on the fabric.
const PER_FAULT_CYCLES: Cycles = Cycles::new(1_200);

/// IOMMU device ID of the cluster's DMA traffic that the driver attaches.
/// On a platform with several clusters, cluster `i` presents
/// `DEVICE_ID + 2·i`, attached to the same IO page table.
pub const DEVICE_ID: u32 = 1;

/// Accounting of a mapping or unmapping operation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MappingCost {
    /// Host cycles the operation took.
    pub cycles: Cycles,
    /// Pages mapped or unmapped.
    pub pages: u64,
    /// IO page-table entries written.
    pub pte_writes: u64,
}

/// A live IOVA mapping returned by [`IommuDriver::map_buffer`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MappingHandle {
    /// First IO virtual address of the mapping (equal to the user virtual
    /// address of the buffer).
    pub iova: Iova,
    /// Length of the mapping in bytes.
    pub len: u64,
    /// Number of 4 KiB pages covered.
    pub pages: u64,
}

/// The IOMMU driver: owns the accelerator's IO page table and mirrors the
/// kernel driver's map/unmap/attach entry points.
#[derive(Clone, Debug)]
pub struct IommuDriver {
    io_table: Option<PageTable>,
    mapped_pages: u64,
}

impl IommuDriver {
    /// Creates a driver with no device attached.
    pub fn new() -> Self {
        Self {
            io_table: None,
            mapped_pages: 0,
        }
    }

    /// The accelerator's IO page table, once attached.
    pub const fn io_table(&self) -> Option<&PageTable> {
        self.io_table.as_ref()
    }

    /// Number of pages currently mapped for the device.
    pub const fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Attaches the accelerator to a fresh IOMMU domain: allocates the IO
    /// page table, installs the device context and programs the IOMMU's
    /// `ddtp` register.
    ///
    /// # Errors
    ///
    /// Returns allocation failures from the frame pool.
    pub fn attach(
        &mut self,
        cpu: &mut HostCpu,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        frames: &mut FrameAllocator,
        pscid: u32,
    ) -> Result<MappingCost> {
        let start = cpu.elapsed();
        let io_table = PageTable::create(frames)?;
        iommu.attach_device(mem, frames, DEVICE_ID, pscid, io_table.root())?;
        self.io_table = Some(io_table);
        // Probing capabilities, programming ddtp and the queue registers.
        for _ in 0..6 {
            cpu.execute(MMIO_ACCESS);
        }
        cpu.execute(IOCTL_OVERHEAD);
        Ok(MappingCost {
            cycles: cpu.elapsed() - start,
            pages: 0,
            pte_writes: 0,
        })
    }

    /// Maps the user buffer `[va, va + len)` of `space` into the device's IO
    /// address space at the identical IO virtual addresses (`iova == va`),
    /// the way the paper's zero-copy offload does.
    ///
    /// Performs the functional page-table updates *and* charges the host
    /// cycles of the driver work, including the timed page-table-entry
    /// stores that leave the PTE lines in the LLC.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IommuNotPresent`] if [`IommuDriver::attach`] has not
    /// been called, plus page faults for unmapped user pages.
    // The signature mirrors the kernel driver entry point: every platform
    // component the real ioctl touches is threaded through explicitly.
    #[allow(clippy::too_many_arguments)]
    pub fn map_buffer(
        &mut self,
        cpu: &mut HostCpu,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        space: &AddressSpace,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        len: u64,
    ) -> Result<(MappingHandle, MappingCost)> {
        let io_table = self.io_table.ok_or(Error::IommuNotPresent)?;
        let start = cpu.elapsed();
        // ioctl entry.
        cpu.execute(IOCTL_OVERHEAD / 2);

        let base = va.page_base();
        let end = (va + len).align_up(PAGE_SIZE);
        let pages = (end - base) / PAGE_SIZE;
        let mut pte_writes = 0u64;

        for i in 0..pages {
            let page_va = base + i * PAGE_SIZE;
            let pa = space.translate(mem, page_va)?;

            // Pin the user page: read its struct page descriptor and its
            // reference-count line, then append a scatter-list entry.
            let pfn = (pa.raw() - DRAM_BASE) >> 12;
            cpu.load(mem, PhysAddr::new(STRUCT_PAGE_ARRAY_BASE + pfn * 64), 8)?;
            cpu.load(
                mem,
                PhysAddr::new(STRUCT_PAGE_ARRAY_BASE + 8 * MIB + pfn * 64),
                8,
            )?;
            cpu.store(mem, PhysAddr::new(DRIVER_ARENA_BASE + (i % 4096) * 16), 16)?;
            cpu.execute(PER_PAGE_OPS);

            // Build the IO page-table entry (functional), then perform the
            // timed stores the kernel does, so the PTE lines are hot in the
            // LLC when the IOMMU walks them.
            io_table.map_page(mem, frames, page_va, pa, PteFlags::user_rw())?;
            let walk = io_table.walk(mem, page_va)?;
            for (level, (pte_addr, pte)) in walk.entries.iter().enumerate() {
                if level + 1 == walk.entries.len() {
                    cpu.store_u64(mem, *pte_addr, pte.raw())?;
                    pte_writes += 1;
                } else {
                    cpu.load(mem, *pte_addr, 8)?;
                }
            }
            self.mapped_pages += 1;
        }

        // Invalidate the IOTLB so stale translations are never used, then
        // fence. Each command is a couple of uncached MMIO/queue accesses.
        // Every cluster's data device shares the IO page table, so the
        // invalidation names no device.
        iommu.process_command(Command::IotlbInvalidate {
            device_id: None,
            iova: None,
        });
        iommu.process_command(Command::Fence);
        cpu.execute(MMIO_ACCESS * 3);

        // ioctl exit.
        cpu.execute(IOCTL_OVERHEAD / 2);

        Ok((
            MappingHandle {
                iova: Iova::from_virt(base),
                len,
                pages,
            },
            MappingCost {
                cycles: cpu.elapsed() - start,
                pages,
                pte_writes,
            },
        ))
    }

    /// Removes a mapping created by [`IommuDriver::map_buffer`] and
    /// invalidates the IOTLB of every device on the IO page table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IommuNotPresent`] if the device was never attached.
    pub fn unmap_buffer(
        &mut self,
        cpu: &mut HostCpu,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        handle: MappingHandle,
    ) -> Result<MappingCost> {
        let io_table = self.io_table.ok_or(Error::IommuNotPresent)?;
        let start = cpu.elapsed();
        cpu.execute(IOCTL_OVERHEAD / 2);
        let mut pte_writes = 0;
        for i in 0..handle.pages {
            let page_va = VirtAddr::from_iova(handle.iova) + i * PAGE_SIZE;
            let walk = io_table.walk(mem, page_va)?;
            if let Some((pte_addr, _)) = walk.entries.last() {
                // Clearing the leaf entry is the unmap: a timed store of an
                // invalid PTE.
                cpu.store_u64(mem, *pte_addr, 0)?;
                pte_writes += 1;
            }
            cpu.execute(PER_PAGE_OPS / 2);
            self.mapped_pages = self.mapped_pages.saturating_sub(1);
        }
        iommu.process_command(Command::IotlbInvalidate {
            device_id: None,
            iova: None,
        });
        cpu.execute(MMIO_ACCESS * 2);
        cpu.execute(IOCTL_OVERHEAD / 2);
        Ok(MappingCost {
            cycles: cpu.elapsed() - start,
            pages: handle.pages,
            pte_writes,
        })
    }
}

impl Default for IommuDriver {
    fn default() -> Self {
        Self::new()
    }
}

/// The host side of the ATS/PRI demand-paging loop: borrows the driver,
/// the faulting process' address space and the frame allocator for the
/// duration of a device run and services the IOMMU's page-request queue.
///
/// Servicing a request mirrors what the kernel's IO-page-fault handler
/// does: resolve the faulting IOVA against the process page table (the
/// host mapping must exist — demand paging makes *device* mappings lazy,
/// not host ones), install the leaf into the device's IO page table, and
/// touch the page-table memory **through the timed memory system** as
/// host-initiated fabric traffic, so the handler's stores queue behind
/// concurrent DMA like any other initiator. All pending requests are
/// drained into one **group response**; its completion time is when the
/// faulting device may retry.
pub struct FaultServicer<'a> {
    driver: &'a mut IommuDriver,
    space: &'a AddressSpace,
    frames: &'a mut FrameAllocator,
}

impl<'a> FaultServicer<'a> {
    /// Creates a servicer around the driver state of one platform.
    pub fn new(
        driver: &'a mut IommuDriver,
        space: &'a AddressSpace,
        frames: &'a mut FrameAllocator,
    ) -> Self {
        Self {
            driver,
            space,
            frames,
        }
    }
}

impl PageRequestHandler for FaultServicer<'_> {
    fn service(
        &mut self,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        now: Cycles,
    ) -> Result<Cycles> {
        let io_table = self.driver.io_table.ok_or(Error::IommuNotPresent)?;
        // Interrupt delivery + handler entry.
        let mut t = now + FAULT_SIGNAL_LATENCY;
        let mut serviced_at: Vec<Cycles> = Vec::new();
        let mut any = false;
        while let Some(req) = iommu.pop_page_request() {
            any = true;
            t += PER_FAULT_CYCLES;
            let page_va = VirtAddr::from_iova(req.iova).page_base();
            // The host mapping must exist; a request for a page the process
            // never mapped is unresolvable and answered "invalid" (the
            // device's retry faults again, which is terminal).
            let Ok(pa) = self.space.translate(mem, page_va) else {
                iommu.note_page_request_failed();
                continue;
            };
            // Functional mapping into the IO page table, then the timed
            // page-table touches: the handler reads the non-leaf levels and
            // writes the leaf PTE on the fabric as host traffic.
            io_table.map_page(
                mem,
                self.frames,
                page_va,
                pa.page_base(),
                PteFlags::user_rw(),
            )?;
            let walk = io_table.walk(mem, page_va)?;
            for (level, (pte_addr, pte)) in walk.entries.iter().enumerate() {
                let rsp = if level + 1 == walk.entries.len() {
                    let bytes = pte.raw().to_le_bytes();
                    mem.access(MemReq::write(InitiatorId::Host, *pte_addr, &bytes).at(t))?
                } else {
                    let mut bytes = [0u8; 8];
                    mem.access(MemReq::read(InitiatorId::Host, *pte_addr, &mut bytes).at(t))?
                };
                t += rsp.latency();
            }
            self.driver.mapped_pages += 1;
            serviced_at.push(req.issued_at);
        }
        if any {
            // The page tables changed under the walker: in-flight MSHR
            // registers must not serve pre-update PTE values (the fence
            // the handler issues before responding).
            iommu.purge_walk_table();
            iommu.note_group_response();
            for issued in serviced_at {
                iommu.note_page_request_serviced(issued, t);
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_iommu::{IommuConfig, TlbHierarchyConfig};
    use sva_mem::MemSysConfig;

    fn setup(
        latency: u64,
        llc: bool,
    ) -> (MemorySystem, FrameAllocator, AddressSpace, HostCpu, Iommu) {
        let mut mem = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc: llc.then(sva_mem::LlcConfig::default),
            ..MemSysConfig::default()
        });
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        (mem, frames, space, HostCpu::default(), Iommu::default())
    }

    #[test]
    fn map_then_translate_through_iommu() {
        let (mut mem, mut frames, mut space, mut cpu, mut iommu) = setup(200, true);
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 16 * PAGE_SIZE)
            .unwrap();
        let mut driver = IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();
        let (handle, cost) = driver
            .map_buffer(
                &mut cpu,
                &mut mem,
                &mut iommu,
                &space,
                &mut frames,
                va,
                16 * PAGE_SIZE,
            )
            .unwrap();
        assert_eq!(handle.pages, 16);
        assert_eq!(cost.pages, 16);
        assert_eq!(cost.pte_writes, 16);
        assert!(cost.cycles.raw() > 10_000);
        assert_eq!(driver.mapped_pages(), 16);

        // The IOMMU can now translate every page to the same physical page
        // the host sees.
        for i in 0..16u64 {
            let iova = Iova::from_virt(va + i * PAGE_SIZE + 7);
            let (pa, _) = iommu
                .translate_at(&mut mem, 1, iova, true, Cycles::ZERO)
                .unwrap();
            assert_eq!(pa, space.translate(&mem, va + i * PAGE_SIZE + 7).unwrap());
        }
    }

    #[test]
    fn mapping_without_attach_fails() {
        let (mut mem, mut frames, mut space, mut cpu, mut iommu) = setup(200, true);
        let va = space
            .alloc_buffer(&mut mem, &mut frames, PAGE_SIZE)
            .unwrap();
        let mut driver = IommuDriver::default();
        assert!(matches!(
            driver.map_buffer(
                &mut cpu,
                &mut mem,
                &mut iommu,
                &space,
                &mut frames,
                va,
                PAGE_SIZE
            ),
            Err(Error::IommuNotPresent)
        ));
    }

    #[test]
    fn unmap_revokes_translations() {
        let (mut mem, mut frames, mut space, mut cpu, mut iommu) = setup(200, true);
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 2 * PAGE_SIZE)
            .unwrap();
        let mut driver = IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();
        let (handle, _) = driver
            .map_buffer(
                &mut cpu,
                &mut mem,
                &mut iommu,
                &space,
                &mut frames,
                va,
                2 * PAGE_SIZE,
            )
            .unwrap();
        iommu
            .translate_at(&mut mem, 1, handle.iova, false, Cycles::ZERO)
            .unwrap();
        driver
            .unmap_buffer(&mut cpu, &mut mem, &mut iommu, handle)
            .unwrap();
        assert!(iommu
            .translate_at(&mut mem, 1, handle.iova, false, Cycles::ZERO)
            .is_err());
        assert_eq!(driver.mapped_pages(), 0);
    }

    /// Every cluster's data device is attached to the driver's IO page
    /// table, so an unmap must revoke what each of them cached: in the
    /// shared IOTLB and in every device's private L1.
    #[test]
    fn unmap_revokes_the_translations_of_every_device_on_the_table() {
        let other = DEVICE_ID + 2;
        for tlb in [
            TlbHierarchyConfig::default(),
            TlbHierarchyConfig::two_level(),
        ] {
            let (mut mem, mut frames, mut space, mut cpu, _) = setup(200, true);
            let mut iommu = Iommu::new(IommuConfig {
                tlb,
                ..IommuConfig::default()
            });
            let va = space
                .alloc_buffer(&mut mem, &mut frames, 2 * PAGE_SIZE)
                .unwrap();
            let mut driver = IommuDriver::default();
            driver
                .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
                .unwrap();
            let root = driver.io_table().unwrap().root();
            iommu
                .attach_device(&mut mem, &mut frames, other, space.pscid(), root)
                .unwrap();
            let (handle, _) = driver
                .map_buffer(
                    &mut cpu,
                    &mut mem,
                    &mut iommu,
                    &space,
                    &mut frames,
                    va,
                    2 * PAGE_SIZE,
                )
                .unwrap();
            for device in [DEVICE_ID, other] {
                iommu
                    .translate_at(&mut mem, device, handle.iova, false, Cycles::ZERO)
                    .unwrap();
            }
            driver
                .unmap_buffer(&mut cpu, &mut mem, &mut iommu, handle)
                .unwrap();
            for device in [DEVICE_ID, other] {
                assert!(
                    iommu
                        .translate_at(&mut mem, device, handle.iova, false, Cycles::ZERO)
                        .is_err(),
                    "device {device} still translates an unmapped page with {tlb:?}"
                );
            }
        }
    }

    #[test]
    fn mapping_cost_scales_less_than_copying_with_latency() {
        // Fig. 3: from 200 to 1000 cycles of DRAM latency the mapping time
        // grows by only ~2.1x because most driver accesses hit in the caches.
        let run = |latency| {
            let (mut mem, mut frames, mut space, mut cpu, mut iommu) = setup(latency, true);
            let va = space
                .alloc_buffer(&mut mem, &mut frames, 16 * PAGE_SIZE)
                .unwrap();
            let mut driver = IommuDriver::default();
            driver
                .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
                .unwrap();
            cpu.reset_elapsed();
            let (_, cost) = driver
                .map_buffer(
                    &mut cpu,
                    &mut mem,
                    &mut iommu,
                    &space,
                    &mut frames,
                    va,
                    16 * PAGE_SIZE,
                )
                .unwrap();
            cost.cycles.as_f64()
        };
        let ratio = run(1000) / run(200);
        assert!(
            ratio > 1.3 && ratio < 3.0,
            "mapping should scale sub-linearly with latency, got {ratio:.2}"
        );
    }

    #[test]
    fn mapping_leaves_ptes_in_the_llc() {
        let (mut mem, mut frames, mut space, mut cpu, mut iommu) = setup(1000, true);
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 8 * PAGE_SIZE)
            .unwrap();
        let mut driver = IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();
        driver
            .map_buffer(
                &mut cpu,
                &mut mem,
                &mut iommu,
                &space,
                &mut frames,
                va,
                8 * PAGE_SIZE,
            )
            .unwrap();
        // Warm the device-context cache with one translation, then check that
        // a walk of a *different* page (IOTLB miss, but PTE lines written by
        // the driver) hits in the LLC: two orders of magnitude below the
        // 3x DRAM latency a cold walk would pay.
        iommu
            .translate_at(&mut mem, 1, Iova::from_virt(va), false, Cycles::ZERO)
            .unwrap();
        let (_, cycles) = iommu
            .translate_at(
                &mut mem,
                1,
                Iova::from_virt(va + PAGE_SIZE),
                false,
                Cycles::ZERO,
            )
            .unwrap();
        assert!(
            cycles.raw() < 300,
            "post-map walk should hit in the LLC, took {cycles}"
        );
    }
}
