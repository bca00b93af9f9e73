//! Lockstep property suite for the PRI `(device, page)` dedup.
//!
//! `Iommu::enqueue_page_requests` skips every page of a group that a
//! queued request of the same device already names. The suite drives one
//! IOMMU and a [`QueueModel`] kept here (a bounded FIFO with a per-page
//! queue scan) through a `DeterministicRng` mix of page-request groups
//! (overlapping ranges, two devices, mapped-page skips, groups longer than
//! the 16-entry queue, so it overflows), host pops and measurement-window
//! resets (`reset_stats`, which covers the queue's `reset_dropped` path
//! while pending entries survive), asserting after every operation that
//! the IOMMU and the model agree on every `(enqueued, dropped)` outcome,
//! every popped request and the queue length.
//!
//! A teeth test proves the comparison catches a stale entry: one planted in
//! the model suppresses a legitimate request the IOMMU enqueues.

use std::collections::VecDeque;

use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, VirtAddr, PAGE_SIZE};
use sva_iommu::queues::PAGE_REQUEST_ENTRIES;
use sva_iommu::{Iommu, IommuConfig, PageRequest};
use sva_mem::MemorySystem;
use sva_vm::{AddressSpace, FrameAllocator, PageTable, PteFlags};

const PAGES: u64 = 24;
/// The longest page-request group, in pages: longer than the queue.
const MAX_GROUP_PAGES: u64 = 20;
const DEVICES: [u32; 2] = [1, 3];
const OPS: usize = 600;

struct Harness {
    mem: MemorySystem,
    frames: FrameAllocator,
    space: AddressSpace,
    io_tables: Vec<PageTable>,
    va: VirtAddr,
    mapped: Vec<[bool; PAGES as usize]>,
}

/// A host space with `PAGES` backed pages, and an IOMMU with one
/// initially-empty IO page table per device.
fn harness() -> (Harness, Iommu) {
    let mut mem = MemorySystem::default();
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let va = space
        .alloc_buffer(&mut mem, &mut frames, PAGES * PAGE_SIZE)
        .unwrap();
    let mut iommu = Iommu::new(IommuConfig {
        demand_paging: true,
        ..IommuConfig::default()
    });
    let mut io_tables = Vec::new();
    for &dev in &DEVICES {
        let io_table = PageTable::create(&mut frames).unwrap();
        iommu
            .attach_device(&mut mem, &mut frames, dev, space.pscid(), io_table.root())
            .unwrap();
        io_tables.push(io_table);
    }
    (
        Harness {
            mem,
            frames,
            space,
            io_tables,
            va,
            mapped: vec![[false; PAGES as usize]; DEVICES.len()],
        },
        iommu,
    )
}

/// The page-request queue with a per-page queue scan: a FIFO of at most
/// [`PAGE_REQUEST_ENTRIES`] requests. A page needs a
/// request when the harness has not mapped it into the device's IO table
/// (mapped pages are read-write) and no queued request of the device
/// covers it.
#[derive(Default)]
struct QueueModel {
    queue: VecDeque<PageRequest>,
}

impl QueueModel {
    fn enqueue(
        &mut self,
        h: &Harness,
        dev_idx: usize,
        start: Iova,
        len: u64,
        is_write: bool,
        now: Cycles,
    ) -> (u64, u64) {
        let device_id = DEVICES[dev_idx];
        let base = Iova::from_virt(h.va);
        let (mut enqueued, mut dropped) = (0, 0);
        let mut page = start.page_base();
        while page < start + len.max(1) {
            let idx = (page.raw() - base.raw()) / PAGE_SIZE;
            let mapped = idx < PAGES && h.mapped[dev_idx][idx as usize];
            let pending = self
                .queue
                .iter()
                .any(|r| r.device_id == device_id && r.iova == page);
            if !mapped && !pending {
                if self.queue.len() < PAGE_REQUEST_ENTRIES {
                    self.queue.push_back(PageRequest {
                        device_id,
                        iova: page,
                        is_write,
                        issued_at: now,
                    });
                    enqueued += 1;
                } else {
                    dropped += 1;
                }
            }
            page += PAGE_SIZE;
        }
        (enqueued, dropped)
    }
}

/// The core lockstep property: the IOMMU is observationally identical to
/// the queue-scan model across enqueue / overflow-drop / pop / map-page /
/// window-reset interleavings.
#[test]
fn dedup_index_stays_in_lockstep_with_the_queue() {
    let mut rng = DeterministicRng::new(0x9B1_DED0);
    let (mut h, mut iommu) = harness();
    let mut model = QueueModel::default();
    let mut popped = 0u64;
    let mut overflowed = 0u64;
    let mut resets = 0u64;
    for i in 0..OPS {
        match rng.next_below(10) {
            // A page-request group: random device, start page, length —
            // overlapping earlier groups so the dedup probe actually fires.
            0..=5 => {
                let dev_idx = rng.next_below(DEVICES.len() as u64) as usize;
                let page = rng.next_below(PAGES);
                let len = (1 + rng.next_below(MAX_GROUP_PAGES)) * PAGE_SIZE;
                let start = Iova::from_virt(h.va) + page * PAGE_SIZE + rng.next_below(PAGE_SIZE);
                let is_write = rng.next_below(3) == 0;
                let t = Cycles::new(i as u64 * 7);
                let a =
                    iommu.enqueue_page_requests(&h.mem, DEVICES[dev_idx], start, len, is_write, t);
                let b = model.enqueue(&h, dev_idx, start, len, is_write, t);
                assert_eq!(a, b, "op {i}: group outcome diverged");
                overflowed += a.1;
            }
            // A host pop: the IOMMU and the model surface the same request.
            6..=7 => {
                let a = iommu.pop_page_request();
                let b = model.queue.pop_front();
                assert_eq!(a, b, "op {i}: popped request diverged");
                popped += u64::from(a.is_some());
            }
            // The host maps a page into one device's IO table: later
            // groups skip it (even if a request for it is still queued).
            8 => {
                let dev_idx = rng.next_below(DEVICES.len() as u64) as usize;
                let page = rng.next_below(PAGES) as usize;
                if !h.mapped[dev_idx][page] {
                    let host_va = h.va + page as u64 * PAGE_SIZE;
                    let pa = h.space.translate(&h.mem, host_va).unwrap();
                    h.io_tables[dev_idx]
                        .map_page(&mut h.mem, &mut h.frames, host_va, pa, PteFlags::user_rw())
                        .unwrap();
                    h.mapped[dev_idx][page] = true;
                }
            }
            // A measurement-window reset: statistics (and the queue's drop
            // counter) restart, pending requests survive.
            _ => {
                iommu.reset_stats();
                resets += 1;
                assert_eq!(
                    iommu.stats().page_request_pending_peak,
                    iommu.pending_page_requests(),
                    "op {i}: peak restarts at the carried-over size"
                );
            }
        }
        assert_eq!(
            iommu.pending_page_requests(),
            model.queue.len(),
            "op {i}: queue lengths diverged"
        );
    }
    assert!(popped > 0, "the mix must exercise the pop path");
    assert!(overflowed > 0, "the mix must exercise the overflow path");
    assert!(resets > 0, "the mix must exercise the window reset");
    // Drain to the end: every remaining pop agrees.
    loop {
        let a = iommu.pop_page_request();
        assert_eq!(a, model.queue.pop_front(), "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(iommu.pending_page_requests(), 0);
}

/// Teeth: a stale entry in the model — device 1 supposedly has page 0
/// pending while the IOMMU's queue holds nothing — suppresses a legitimate
/// request, and the comparison catches it as an enqueue-count divergence on
/// the very next group.
#[test]
fn harness_catches_an_injected_stale_entry() {
    let (h, mut iommu) = harness();
    let start = Iova::from_virt(h.va);
    let mut model = QueueModel::default();
    model.queue.push_back(PageRequest {
        device_id: DEVICES[0],
        iova: start,
        is_write: false,
        issued_at: Cycles::ZERO,
    });
    let a = iommu.enqueue_page_requests(&h.mem, DEVICES[0], start, PAGE_SIZE, false, Cycles::ZERO);
    let b = model.enqueue(&h, 0, start, PAGE_SIZE, false, Cycles::ZERO);
    assert_ne!(
        a, b,
        "the lockstep harness failed to catch a stale dedup entry"
    );
}
