//! The cluster DMA engine.
//!
//! The ninth core of the Snitch cluster drives a DMA engine that moves tile
//! data between DRAM and the TCDM in long AXI bursts. Its interaction with
//! the IOMMU is the central mechanism of the paper's evaluation:
//!
//! * every burst is capped by the AXI maximum burst length and split at 4 KiB
//!   page boundaries;
//! * when the IOMMU translates, every burst presents a translation request
//!   at its issue time; an IOTLB miss serialises the burst behind a
//!   multi-read page-table walk, reducing the engine's effective bandwidth;
//! * without the IOMMU, bursts address the physically contiguous reserved
//!   DRAM (or the LLC-bypass window) directly.
//!
//! The engine can keep a limited number of bursts outstanding; latency is
//! overlapped across them, but the data bus serialises the payloads.
//!
//! Each burst moves its payload in one copy, straight between its TCDM range
//! and memory, and a transfer allocates nothing: [`BurstPlan`] computes the
//! bursts as it yields them, and the in-flight completion times live in a
//! queue the engine reuses across calls.

use std::collections::VecDeque;

use sva_axi::BurstPlan;
use sva_common::{Cycles, InitiatorId, Iova, PhysAddr, Result};
use sva_iommu::{recover_page_faults, Iommu, PageRequestHandler};
use sva_mem::{MemReq, MemorySystem};

use crate::tcdm::Tcdm;

/// Direction of a DMA transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// DRAM → TCDM (input tile refill).
    ToTcdm,
    /// TCDM → DRAM (output tile write-back).
    FromTcdm,
}

/// One DMA transfer request as programmed by the kernel's DMA core.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DmaRequest {
    /// Transfer direction.
    pub dir: Direction,
    /// External address: an IO virtual address when the IOMMU translates, or
    /// a bus address (reserved DRAM / bypass window) otherwise.
    pub ext_addr: Iova,
    /// Destination (or source) offset inside the TCDM.
    pub tcdm_offset: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

impl DmaRequest {
    /// Convenience constructor for an input transfer.
    pub const fn input(ext_addr: Iova, tcdm_offset: u64, len: u64) -> Self {
        Self {
            dir: Direction::ToTcdm,
            ext_addr,
            tcdm_offset,
            len,
        }
    }

    /// Convenience constructor for an output transfer.
    pub const fn output(ext_addr: Iova, tcdm_offset: u64, len: u64) -> Self {
        Self {
            dir: Direction::FromTcdm,
            ext_addr,
            tcdm_offset,
            len,
        }
    }
}

/// Maximum bytes per AXI burst (256 beats × 8 B).
pub const MAX_BURST_BYTES: u64 = 2048;

/// Host-domain cycles to program one transfer descriptor.
const ISSUE_OVERHEAD: Cycles = Cycles::new(20);

/// Statistics accumulated by the DMA engine.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Transfer requests executed.
    pub requests: u64,
    /// AXI bursts issued.
    pub bursts: u64,
    /// Bytes moved in either direction.
    pub bytes: u64,
    /// Cycles spent blocked on address translation.
    pub translation_cycles: u64,
    /// Cycles burst issue stalled waiting for a request-queue credit at the
    /// fabric port (the target channel's request FIFO was full). The stall
    /// pushes the engine's issue pipeline back — the next burst cannot
    /// issue while the current one waits for a credit — which is the
    /// upstream backpressure a split-transaction fabric exerts. Always zero
    /// with the default unbounded queue depths.
    pub issue_stall_cycles: u64,
    /// IO page faults the engine recovered from through the ATS/PRI
    /// stall-and-retry loop (always zero with demand paging off — faults
    /// are errors then).
    pub page_faults: u64,
    /// Cycles bursts stalled waiting for page-request group responses
    /// (fault detection → resume), including overflow backoff. The stall is
    /// charged **serially onto the batch completion time**, not into the
    /// burst issue schedule: bursts keep their fault-free placement on the
    /// contended fabric timelines, so a demand-paged run is always the
    /// matching pre-mapped run plus its fault-service time. (Re-timing
    /// issue instead de-correlates the DMA streams — staggered bursts can
    /// dodge each other's contention and report a *lower* contended wall
    /// clock than the pre-mapped run, which made the comparison lie.)
    pub fault_stall_cycles: u64,
    /// Total cycles the engine was busy (issue to last completion), summed
    /// over transfer batches.
    pub busy_cycles: u64,
}

/// The cluster DMA engine.
#[derive(Clone, Debug)]
pub struct DmaEngine {
    /// Maximum number of bursts kept in flight.
    max_outstanding: usize,
    /// Device ID presented to the IOMMU for data traffic.
    device_id: u32,
    /// Arbitration priority the engine's bursts present at the fabric port
    /// (see `ArbitrationPolicy` in `sva_common`). Zero keeps the engine in
    /// the normal arbitration pool.
    priority: u8,
    stats: DmaStats,
    /// Completion times of the bursts in flight during one batch, oldest
    /// first. Emptied at the start of every batch; kept between batches
    /// only so its storage is reused.
    in_flight: VecDeque<Cycles>,
}

impl DmaEngine {
    /// Creates an engine keeping up to `max_outstanding` bursts in flight,
    /// presenting `device_id` to the IOMMU and `priority` at the fabric
    /// port.
    pub fn new(max_outstanding: usize, device_id: u32, priority: u8) -> Self {
        Self {
            max_outstanding,
            device_id,
            priority,
            stats: DmaStats::default(),
            in_flight: VecDeque::new(),
        }
    }

    /// Device ID the engine presents to the IOMMU for data traffic.
    pub(crate) const fn device_id(&self) -> u32 {
        self.device_id
    }

    /// Statistics accumulated so far.
    pub const fn stats(&self) -> &DmaStats {
        &self.stats
    }

    /// Clears the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = DmaStats::default();
    }

    /// Executes a batch of transfer requests starting no earlier than
    /// `start`, moving the data between `mem` and `tcdm`, and returns the
    /// completion time of the last burst. Burst addresses are translated
    /// through `iommu`; with `None` they are bus addresses, used as they
    /// are at no translation cost.
    ///
    /// With a `pri` handler present and demand paging configured on the
    /// IOMMU, a translation fault no longer aborts the transfer: the engine
    /// issues a **page-request group** covering the rest of the faulting
    /// transfer, **stalls** until the host's group response completes (plus
    /// a backoff penalty when the group overflowed the bounded page-request
    /// queue), and **retries** the translation; a fault that repeats on the
    /// serviced burst is terminal ([`sva_iommu::recover_page_faults`]). The
    /// full round trip is charged **serially** onto the batch completion
    /// ([`DmaStats::fault_stall_cycles`]): the bursts keep the fault-free
    /// issue schedule on the fabric, and the accumulated fault-service time
    /// is added to the returned completion, so a cold-start demand-paged
    /// batch always finishes no earlier than its pre-mapped twin.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable IO page faults (no handler, demand paging
    /// off, or the host has no backing mapping) and out-of-range TCDM or
    /// memory accesses.
    pub fn execute(
        &mut self,
        mem: &mut MemorySystem,
        mut iommu: Option<&mut Iommu>,
        tcdm: &mut Tcdm,
        requests: &[DmaRequest],
        start: Cycles,
        mut pri: Option<&mut (dyn PageRequestHandler + '_)>,
    ) -> Result<Cycles> {
        let mut issue_free = start;
        let mut data_bus_free = start;
        let mut completion = start;
        // Fault-service time accumulated across the batch. Charged serially
        // onto the completion below instead of pushing `issue_t` back, so
        // the bursts keep their fault-free fabric placement (see
        // [`DmaStats::fault_stall_cycles`]).
        let mut fault_stall = Cycles::ZERO;
        let device_id = self.device_id;
        let outstanding = &mut self.in_flight;
        outstanding.clear();

        for req in requests {
            self.stats.requests += 1;
            issue_free += ISSUE_OVERHEAD;
            let plan =
                BurstPlan::split(PhysAddr::new(req.ext_addr.raw()), req.len, MAX_BURST_BYTES);
            let mut done: u64 = 0;
            for burst in plan {
                // Respect the outstanding-transaction limit.
                let mut issue_t = issue_free;
                if outstanding.len() >= self.max_outstanding {
                    let oldest = outstanding
                        .pop_front()
                        .expect("outstanding queue is non-empty");
                    issue_t = issue_t.max(oldest);
                }

                // Translation: the engine presents the burst address to the
                // IOMMU at its issue time, so an IOTLB miss's page-table
                // walk lands at the right point on the fabric timelines;
                // IOTLB hits are cheap, misses serialise the burst behind
                // the walk. Under demand paging a fault turns into an
                // ATS/PRI stall-and-retry instead of an error: the device
                // requests the rest of this transfer, the faulting page plus
                // everything it is about to touch.
                let is_write = req.dir == Direction::FromTcdm;
                let iova = Iova::new(burst.addr.raw());
                let (pa, trans) = match iommu.as_deref_mut() {
                    Some(iommu) => {
                        let (translated, stall, faults) = recover_page_faults(
                            mem,
                            iommu,
                            pri.as_deref_mut(),
                            device_id,
                            req.len - done,
                            issue_t,
                            |mem, iommu| {
                                iommu.translate_at(mem, device_id, iova, is_write, issue_t)
                            },
                        )?;
                        self.stats.page_faults += faults;
                        self.stats.fault_stall_cycles += stall.raw();
                        fault_stall += stall;
                        translated
                    }
                    None => (burst.addr, Cycles::ZERO),
                };
                self.stats.translation_cycles += trans.raw();
                issue_t += trans;

                // Data movement + timing. The engine presents its own device
                // identity and issue time at the fabric port, so per-cluster
                // contention is observable in the fabric statistics. The
                // payload moves in one copy between memory and the burst's
                // TCDM range, which is checked before the burst reaches the
                // fabric.
                let initiator = InitiatorId::dma(device_id);
                let offset = req.tcdm_offset + done;
                let access = match req.dir {
                    Direction::ToTcdm => {
                        MemReq::read(initiator, pa, tcdm.bytes_mut(offset, burst.len)?)
                    }
                    Direction::FromTcdm => {
                        MemReq::write(initiator, pa, tcdm.bytes(offset, burst.len)?)
                    }
                };
                let rsp = mem.access(access.burst().priority(self.priority).at(issue_t))?;
                let timing = rsp.timing;
                // Credit-based issue: if the target channel's request queue
                // was full, the burst sat at the fabric port for
                // `issue_stall` cycles before it could even enter the
                // fabric. The stall holds the engine's request channel —
                // the next burst cannot issue until the credit was granted
                // — which is how full channel FIFOs push contention
                // upstream into the engine. (When contention charging is
                // on, the stall is also part of the returned latency, so
                // the data path sees it too.)
                let credit_granted = issue_t + rsp.issue_stall;
                self.stats.issue_stall_cycles += rsp.issue_stall.raw();

                let data_start = (issue_t + timing.latency).max(data_bus_free);
                let burst_done = data_start + timing.occupancy;
                data_bus_free = burst_done;
                completion = completion.max(burst_done);
                outstanding.push_back(burst_done);

                // The request channel is free again shortly after the
                // request-queue credit was granted.
                issue_free = credit_granted + Cycles::new(1);

                self.stats.bursts += 1;
                self.stats.bytes += burst.len;
                done += burst.len;
            }
        }
        completion += fault_stall;
        self.stats.busy_cycles += (completion.saturating_sub(start)).raw();
        Ok(completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_axi::addrmap::{DRAM_BASE, LLC_BYPASS_OFFSET};
    use sva_common::{Error, PAGE_SIZE};
    use sva_iommu::IommuConfig;
    use sva_mem::MemSysConfig;
    use sva_vm::{AddressSpace, FrameAllocator};

    fn bypass_addr(offset: u64) -> Iova {
        Iova::new(DRAM_BASE + LLC_BYPASS_OFFSET + offset)
    }

    #[test]
    fn baseline_transfer_moves_data_both_ways() {
        let mut mem = MemorySystem::default();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(2, 1, 0);

        // Put a pattern in DRAM, DMA it in, mangle it, DMA it out elsewhere.
        let src: Vec<u8> = (0..8192u32).map(|i| (i % 250) as u8).collect();
        mem.write_phys(PhysAddr::new(DRAM_BASE + 0x10_0000), &src)
            .unwrap();

        let t_in = dma
            .execute(
                &mut mem,
                None,
                &mut tcdm,
                &[DmaRequest::input(bypass_addr(0x10_0000), 0, 8192)],
                Cycles::ZERO,
                None,
            )
            .unwrap();
        assert!(t_in.raw() > 0);
        let mut check = vec![0u8; 8192];
        tcdm.read(0, &mut check).unwrap();
        assert_eq!(check, src);

        dma.execute(
            &mut mem,
            None,
            &mut tcdm,
            &[DmaRequest::output(bypass_addr(0x20_0000), 0, 8192)],
            t_in,
            None,
        )
        .unwrap();
        let mut out = vec![0u8; 8192];
        mem.read_phys(PhysAddr::new(DRAM_BASE + 0x20_0000), &mut out)
            .unwrap();
        assert_eq!(out, src);

        let stats = dma.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.bytes, 16384);
        assert_eq!(stats.bursts, 8);
        assert_eq!(stats.translation_cycles, 0, "bus addresses cost nothing");
    }

    #[test]
    fn translated_transfer_reads_scattered_user_pages() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 4 * PAGE_SIZE)
            .unwrap();
        let data: Vec<u8> = (0..4 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        space.write_virt(&mut mem, va, &data).unwrap();

        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(2, 1, 0);
        dma.execute(
            &mut mem,
            Some(&mut iommu),
            &mut tcdm,
            &[DmaRequest::input(Iova::from_virt(va), 0, 4 * PAGE_SIZE)],
            Cycles::ZERO,
            None,
        )
        .unwrap();
        let mut check = vec![0u8; data.len()];
        tcdm.read(0, &mut check).unwrap();
        assert_eq!(check, data);
        assert_eq!(iommu.stats().iotlb.misses, 4);
        assert!(dma.stats().translation_cycles > 0);
    }

    #[test]
    fn translation_faults_propagate() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(2, 1, 0);
        let err = dma.execute(
            &mut mem,
            Some(&mut iommu),
            &mut tcdm,
            &[DmaRequest::input(Iova::new(0x6666_0000), 0, 64)],
            Cycles::ZERO,
            None,
        );
        assert!(err.is_err());
    }

    /// A burst's TCDM range is checked before the burst reaches the
    /// fabric, in both directions: an out-of-range offset fails with
    /// `TcdmOverflow`, and the failing burst is granted nothing. So does an
    /// offset whose range would pass `u64::MAX`.
    #[test]
    fn out_of_range_tcdm_offset_fails_before_the_fabric() {
        for dir in [Direction::ToTcdm, Direction::FromTcdm] {
            let mut mem = MemorySystem::default();
            let mut tcdm = Tcdm::new(4096);
            let mut dma = DmaEngine::new(2, 1, 0);
            // One-burst transfers: the first ends at the TCDM's last byte,
            // the second 64 B past it.
            let req = DmaRequest {
                dir,
                ext_addr: bypass_addr(0x10_0000),
                tcdm_offset: 2048 + 64,
                len: 2048,
            };
            let fits = DmaRequest { len: 1984, ..req };
            dma.execute(&mut mem, None, &mut tcdm, &[fits], Cycles::ZERO, None)
                .unwrap();
            let granted = mem.fabric().grants();
            assert_eq!(granted, 1, "{dir:?}: the fitting burst is granted");
            let err = dma.execute(&mut mem, None, &mut tcdm, &[req], Cycles::ZERO, None);
            assert!(
                matches!(
                    err,
                    Err(Error::TcdmOverflow {
                        requested: 4160,
                        ..
                    })
                ),
                "{dir:?}: {err:?}"
            );
            assert_eq!(mem.fabric().grants(), granted, "{dir:?}: no grant");
            assert_eq!(mem.stats().dma_bursts, 1, "{dir:?}: no burst counted");
            let wraps = DmaRequest {
                tcdm_offset: u64::MAX - 63,
                len: 128,
                ..req
            };
            let err = dma.execute(&mut mem, None, &mut tcdm, &[wraps], Cycles::ZERO, None);
            assert!(
                matches!(
                    err,
                    Err(Error::TcdmOverflow {
                        requested: u64::MAX,
                        available: 4096,
                    })
                ),
                "{dir:?}: {err:?}"
            );
            assert_eq!(mem.fabric().grants(), granted, "{dir:?}: no grant");
            assert_eq!(mem.stats().dma_bursts, 1, "{dir:?}: no burst counted");
        }
    }

    /// The ATS/PRI loop end to end at the engine level: nothing is
    /// device-mapped up front, every page faults on first touch, the host
    /// servicer pages them in, and the transfer still completes with the
    /// right data — slower than the pre-mapped run, with the fault stalls
    /// accounted.
    #[test]
    fn demand_paged_transfer_stalls_retries_and_completes() {
        use sva_host::{FaultServicer, IommuDriver};
        use sva_iommu::TlbHierarchyConfig;
        use sva_vm::AddressSpace;

        let len = 8 * PAGE_SIZE;
        let run = |demand: bool| -> (Cycles, DmaStats, sva_iommu::IommuStats, Vec<u8>) {
            let mut mem = MemorySystem::default();
            let mut frames = FrameAllocator::linux_pool();
            let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
            let va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();
            let data: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
            space.write_virt(&mut mem, va, &data).unwrap();

            let mut iommu = Iommu::new(IommuConfig {
                demand_paging: demand,
                tlb: TlbHierarchyConfig::two_level(),
                ..IommuConfig::default()
            });
            let mut cpu = sva_host::HostCpu::default();
            let mut driver = IommuDriver::default();
            driver
                .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
                .unwrap();
            if !demand {
                driver
                    .map_buffer(&mut cpu, &mut mem, &mut iommu, &space, &mut frames, va, len)
                    .unwrap();
            }

            let mut tcdm = Tcdm::default();
            let mut dma = DmaEngine::new(2, 1, 0);
            let mut servicer = FaultServicer::new(&mut driver, &space, &mut frames);
            let done = dma
                .execute(
                    &mut mem,
                    Some(&mut iommu),
                    &mut tcdm,
                    &[DmaRequest::input(Iova::from_virt(va), 0, len)],
                    Cycles::ZERO,
                    Some(&mut servicer),
                )
                .unwrap();
            let mut check = vec![0u8; len as usize];
            tcdm.read(0, &mut check).unwrap();
            (done, *dma.stats(), iommu.stats(), check)
        };

        let (premapped_done, premapped_stats, _, premapped_data) = run(false);
        assert_eq!(
            premapped_stats.page_faults, 0,
            "pre-mapped run never faults"
        );
        let (demand_done, demand_stats, iommu_stats, demand_data) = run(true);

        assert_eq!(demand_data, premapped_data, "paged-in data is correct");
        assert!(demand_stats.page_faults > 0, "cold start must fault");
        assert!(demand_stats.fault_stall_cycles > 0);
        assert!(
            demand_done > premapped_done,
            "demand paging must cost cycles: {demand_done} vs {premapped_done}"
        );
        let pri = iommu_stats.page_requests;
        assert_eq!(pri.serviced, 8, "every page was paged in exactly once");
        assert_eq!(pri.failed, 0);
        assert!(pri.group_responses > 0);
        assert_eq!(pri.service_time.count(), 8);
        assert!(iommu_stats.page_request_p50 > 0);
        assert!(iommu_stats.page_request_p99 >= iommu_stats.page_request_p50);
    }

    /// A truly unmapped address (no host backing) stays a terminal fault
    /// even with demand paging and a handler: the host marks its one page
    /// request failed, and the retry's repeated fault is terminal.
    #[test]
    fn demand_paging_cannot_recover_bad_addresses() {
        use sva_host::{FaultServicer, IommuDriver};
        use sva_vm::AddressSpace;

        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        let mut cpu = sva_host::HostCpu::default();
        let mut driver = IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(2, 1, 0);
        let mut servicer = FaultServicer::new(&mut driver, &space, &mut frames);
        let err = dma.execute(
            &mut mem,
            Some(&mut iommu),
            &mut tcdm,
            &[DmaRequest::input(Iova::new(0x6666_0000), 0, 64)],
            Cycles::ZERO,
            Some(&mut servicer),
        );
        assert!(matches!(err, Err(Error::IoPageFault { .. })));
        let pri = iommu.stats().page_requests;
        assert_eq!(
            (pri.requests, pri.failed, pri.group_responses),
            (1, 1, 1),
            "one request, marked failed by the host, then the terminal fault"
        );
        // The abort is not silent: giving up records a terminal fault the
        // driver can observe on the fault queue.
        let fault = iommu.pop_fault().expect("terminal fault recorded");
        assert_eq!(fault.iova, Iova::new(0x6666_0000));
        assert_eq!(fault.reason, sva_iommu::FaultReason::PageNotMapped);
        assert_eq!(iommu.pop_fault(), None, "recorded once");
    }

    /// One transfer longer than the page-request queue: its first fault's
    /// group covers all 20 pages, the 16-entry queue drops the last 4, and
    /// the engine serves the overflow backoff on top of the host's group
    /// response. The dropped tail faults again at its first burst and is
    /// paged in by a second group, and the data arrives intact.
    #[test]
    fn demand_paged_transfer_longer_than_the_queue_backs_off_and_completes() {
        use sva_host::{FaultServicer, IommuDriver};
        use sva_iommu::pri::PAGE_REQUEST_BACKOFF;
        use sva_iommu::queues::PAGE_REQUEST_ENTRIES;

        let pages = 20u64;
        let len = pages * PAGE_SIZE;
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 233) as u8).collect();
        space.write_virt(&mut mem, va, &data).unwrap();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        let mut cpu = sva_host::HostCpu::default();
        let mut driver = IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();
        let mut tcdm = Tcdm::default();
        let mut dma = DmaEngine::new(2, 1, 0);
        let mut servicer = FaultServicer::new(&mut driver, &space, &mut frames);
        dma.execute(
            &mut mem,
            Some(&mut iommu),
            &mut tcdm,
            &[DmaRequest::input(Iova::from_virt(va), 0, len)],
            Cycles::ZERO,
            Some(&mut servicer),
        )
        .unwrap();

        let mut check = vec![0u8; len as usize];
        tcdm.read(0, &mut check).unwrap();
        assert_eq!(check, data, "paged-in data is correct");
        let queue = PAGE_REQUEST_ENTRIES as u64;
        let pri = iommu.stats().page_requests;
        assert_eq!(pri.dropped, pages - queue, "the queue drops the tail");
        assert_eq!(pri.serviced, pages, "every page is paged in once");
        assert_eq!(pri.group_responses, 2);
        assert_eq!(dma.stats().page_faults, 2, "the group, then its tail");
        // Each group's stall is its requests' service latency; the
        // overflowing first group's also carries the backoff.
        let service = pri.service_time;
        let first = service.max().unwrap();
        let tail_total = service.sum() - queue * first;
        assert_eq!(tail_total % (pages - queue), 0, "one response per group");
        let tail = tail_total / (pages - queue);
        assert!(tail < first, "the 4-page tail is serviced faster");
        assert_eq!(
            dma.stats().fault_stall_cycles,
            first + PAGE_REQUEST_BACKOFF.raw() + tail
        );
    }

    #[test]
    fn translation_stalls_increase_transfer_time() {
        // Same 64 KiB transfer: once from contiguous reserved DRAM without
        // translation, once through the IOMMU at high DRAM latency without
        // an LLC. The translated variant must be noticeably slower.
        let latency = 1000;
        let len = 16 * PAGE_SIZE;

        let mut mem_a = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc: None,
            ..MemSysConfig::default()
        });
        let mut tcdm_a = Tcdm::default();
        let mut dma_a = DmaEngine::new(2, 1, 0);
        let t_baseline = dma_a
            .execute(
                &mut mem_a,
                None,
                &mut tcdm_a,
                &[DmaRequest::input(bypass_addr(0x40_0000), 0, len)],
                Cycles::ZERO,
                None,
            )
            .unwrap();

        let mut mem_b = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc: None,
            ..MemSysConfig::default()
        });
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem_b, &mut frames).unwrap();
        let va = space.alloc_buffer(&mut mem_b, &mut frames, len).unwrap();
        let mut iommu_b = Iommu::default();
        iommu_b
            .attach_device(&mut mem_b, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let mut tcdm_b = Tcdm::default();
        let mut dma_b = DmaEngine::new(2, 1, 0);
        let t_translated = dma_b
            .execute(
                &mut mem_b,
                Some(&mut iommu_b),
                &mut tcdm_b,
                &[DmaRequest::input(Iova::from_virt(va), 0, len)],
                Cycles::ZERO,
                None,
            )
            .unwrap();

        assert!(
            t_translated.raw() as f64 > t_baseline.raw() as f64 * 1.5,
            "translated {t_translated} should be much slower than baseline {t_baseline}"
        );
    }

    /// Queue-aware issue: under a split-transaction fabric with a one-slot
    /// request queue, an engine issuing into a bus already backed up by
    /// another initiator stalls at the port (its own waiting request holds
    /// the slot), and the stall is visible both in the engine's statistics
    /// and in the fabric's per-initiator row. With unbounded depths the
    /// same workload never stalls and the completion time matches the pure
    /// reservation model.
    #[test]
    fn shallow_request_queue_stalls_burst_issue() {
        let run = |bounded: bool| -> (Cycles, u64, u64) {
            let mut fabric = sva_mem::FabricConfig {
                contention_enabled: true,
                ..sva_mem::FabricConfig::default()
            };
            if bounded {
                fabric.req_queue_depth = 1;
                fabric.rsp_queue_depth = 1;
            }
            let mut mem = MemorySystem::new(MemSysConfig {
                dram_latency: Cycles::new(600),
                fabric,
                ..MemSysConfig::default()
            });
            let mut tcdm = Tcdm::default();
            // Stream 1 saturates the bus first (shard order: it is placed
            // first-fit and never queues)...
            let mut dma_a = DmaEngine::new(2, 1, 0);
            dma_a
                .execute(
                    &mut mem,
                    None,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                    Cycles::ZERO,
                    None,
                )
                .unwrap();
            // ...then stream 2 issues the same transfer from the same local
            // zero: every burst queues behind stream 1's reservations, so
            // its waiting requests pile up at the one-slot request FIFO.
            let mut dma_b = DmaEngine::new(2, 3, 0);
            let done = dma_b
                .execute(
                    &mut mem,
                    None,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0x10_0000), 0, 32 * 1024)],
                    Cycles::ZERO,
                    None,
                )
                .unwrap();
            let row = mem
                .fabric()
                .initiator_stats(sva_common::InitiatorId::dma(3))
                .unwrap();
            (
                done,
                dma_b.stats().issue_stall_cycles,
                row.issue_stall_cycles,
            )
        };
        let (unbounded_done, unbounded_stall, _) = run(false);
        assert_eq!(unbounded_stall, 0, "unbounded depths never stall");
        let (bounded_done, engine_stall, fabric_stall) = run(true);
        assert!(
            engine_stall > 0,
            "burst issue must stall at the full request queue"
        );
        assert_eq!(
            engine_stall, fabric_stall,
            "engine and fabric agree on the stall"
        );
        assert!(
            bounded_done >= unbounded_done,
            "backpressure cannot finish earlier: {bounded_done} vs {unbounded_done}"
        );
    }

    /// Regression (measurement windows must not leak credits): after
    /// `open_measurement_window`, a fresh engine re-running the same
    /// transfer from local cycle zero observes exactly what a fresh memory
    /// system would — stale queue entries and outstanding reservations from
    /// the previous window are gone, for the engine's stats and the
    /// fabric's alike.
    #[test]
    fn measurement_window_does_not_leak_credits_or_outstanding_entries() {
        let shallow_mem = || {
            MemorySystem::new(MemSysConfig {
                dram_latency: Cycles::new(600),
                fabric: sva_mem::FabricConfig {
                    contention_enabled: true,
                    req_queue_depth: 1,
                    rsp_queue_depth: 1,
                    ..sva_mem::FabricConfig::default()
                },
                ..MemSysConfig::default()
            })
        };
        // Runs one transfer on a private clone of `mem` (the probe must not
        // perturb the system it probes).
        let transfer = |mem: &MemorySystem, device_id: u32| -> (Cycles, u64) {
            let mut mem = mem.clone();
            let mut tcdm = Tcdm::default();
            let mut dma = DmaEngine::new(2, device_id, 0);
            let done = dma
                .execute(
                    &mut mem,
                    None,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0), 0, 16 * 1024)],
                    Cycles::ZERO,
                    None,
                )
                .unwrap();
            (done, dma.stats().issue_stall_cycles)
        };
        // Window 1: two engines congest the shallow queues.
        let mut mem = shallow_mem();
        {
            let mut tcdm = Tcdm::default();
            for device in [1u32, 3] {
                DmaEngine::new(2, device, 0)
                    .execute(
                        &mut mem,
                        None,
                        &mut tcdm,
                        &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                        Cycles::ZERO,
                        None,
                    )
                    .unwrap();
            }
        }
        // Window 2 on the used system vs window 1 on a fresh system.
        mem.open_measurement_window();
        let used = transfer(&mem, 5);
        let fresh = transfer(&shallow_mem(), 5);
        assert_eq!(
            used, fresh,
            "a fresh window must behave like a fresh system (no leaked credits)"
        );
        // A cloned platform is equally independent: congesting the original
        // after the clone must not stall the clone.
        let mem_clone = mem.clone();
        {
            let mut tcdm = Tcdm::default();
            DmaEngine::new(2, 7, 0)
                .execute(
                    &mut mem,
                    None,
                    &mut tcdm,
                    &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                    Cycles::ZERO,
                    None,
                )
                .unwrap();
        }
        let clone_run = transfer(&mem_clone, 5);
        assert_eq!(clone_run, fresh, "clones must not share credit queues");

        // Dropped-record carryover: a window that overflowed the fault
        // queue AND the PRI queue must not leak its drop counters or its
        // PRI queue peak into the next window's accounting. (The memory
        // half is `open_measurement_window` above; the IOMMU half is
        // `Iommu::reset_stats`, invoked per measurement window by the
        // offload runner.)
        let mut frames = FrameAllocator::linux_pool();
        let mut space_mem = MemorySystem::default();
        let space = AddressSpace::new(&mut space_mem, &mut frames).unwrap();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        iommu
            .attach_device(&mut space_mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        // Overflow the fault queue with terminal faults (what the bounded
        // PRI retry loop records when it gives up on an address).
        for i in 0..sva_iommu::queues::FAULT_QUEUE_ENTRIES as u64 + 1 {
            let bad = Iova::new(0x7F00_0000 + i * sva_common::PAGE_SIZE);
            iommu.record_terminal_fault(1, bad, false);
        }
        // Overflow the 16-entry PRI queue with a 20-page group, then
        // service it.
        let (enqueued, dropped) = iommu.enqueue_page_requests(
            &space_mem,
            1,
            Iova::new(0x7F10_0000),
            20 * sva_common::PAGE_SIZE,
            false,
            Cycles::new(10),
        );
        assert_eq!(
            (enqueued, dropped),
            (16, 4),
            "16-entry queue drops the rest"
        );
        while iommu.pop_page_request().is_some() {}
        iommu.note_page_request_serviced(Cycles::new(10), Cycles::new(500));
        let dirty = iommu.stats();
        assert!(dirty.fault_records_dropped > 0);
        assert!(dirty.page_requests.dropped > 0);
        assert_eq!(dirty.page_request_pending_peak, 16);

        // Next window: every drop counter and the PRI queue peak restart
        // from zero, exactly like a fresh IOMMU's.
        space_mem.open_measurement_window();
        iommu.reset_stats();
        let next = iommu.stats();
        assert_eq!(next.fault_records_dropped, 0, "fault drops carried over");
        assert_eq!(next.page_requests.dropped, 0, "PRI drops carried over");
        assert_eq!(next.page_requests.requests, 0);
        assert_eq!(next.page_requests.service_time.count(), 0);
        assert_eq!(
            next.page_request_pending_peak, 0,
            "PRI queue peak carried over"
        );
    }

    #[test]
    fn outstanding_bursts_overlap_latency() {
        let run = |outstanding: usize| -> u64 {
            let mut mem = MemorySystem::new(MemSysConfig {
                dram_latency: Cycles::new(1000),
                ..MemSysConfig::default()
            });
            let mut tcdm = Tcdm::default();
            let mut dma = DmaEngine::new(outstanding, 1, 0);
            dma.execute(
                &mut mem,
                None,
                &mut tcdm,
                &[DmaRequest::input(bypass_addr(0), 0, 32 * 1024)],
                Cycles::ZERO,
                None,
            )
            .unwrap()
            .raw()
        };
        let serial = run(1);
        let pipelined = run(4);
        assert!(
            pipelined * 2 < serial,
            "4 outstanding bursts ({pipelined}) should be at least 2x faster than 1 ({serial})"
        );
    }
}
