//! The IOMMU page-table walker, with an optional MSHR-style walk table.
//!
//! On every IOTLB miss the walker performs up to [`sva_vm::PT_LEVELS`]
//! **dependent** reads through the IOMMU's dedicated AXI master port — each
//! read's address is computed from the previous read's data, so their
//! latencies add up. This serialisation is why the paper measures up to a
//! 300 % latency increase for a single DMA transfer on a miss, and why
//! letting these reads hit in the shared LLC (Section IV-C) recovers almost
//! all of the loss.
//!
//! Every PTE read is stamped with its issue time on the global simulation
//! clock ([`PageTableWalker::walk_at`]), so walks queue behind concurrent
//! DMA and host occupancy on the memory fabric like any other initiator.
//!
//! # The MSHR-style walk table
//!
//! With N clusters streaming through a shared buffer, the same page-table
//! entries are walked over and over: each device's IOTLB misses
//! independently (entries are tagged per device), so the serial walker pays
//! K full walks for K concurrent misses of the same page. Real walkers keep
//! *miss status holding registers*: a second walk that needs a PTE read
//! already in flight latches onto it instead of issuing its own.
//!
//! [`PageTableWalker::with_batching`] enables exactly that model. The walk
//! table records every in-flight PTE read as `(address, value, issue time,
//! completion time)`. A walk that reaches a PTE whose read is outstanding
//! at its current time — issued at or before `now`, completing after it —
//! **coalesces**: it waits until that read completes (paying
//! `completion − now`, not a fresh memory read) and consumes the recorded
//! value. Because the table is keyed by PTE address, the per-level reads of
//! walks from *different devices* batch naturally — same-page walks share
//! all levels, and walks of neighbouring regions share the upper levels.
//! A register never serves a walk outside its `[issued, completion)`
//! window: the table is a set of in-flight registers, **not** a translation
//! cache, so a later, non-overlapping walk always re-reads. The entry
//! count bounds how many reads may be *in flight at any instant* (a read
//! issued while all registers are busy is never held, the serial
//! fallback); records of completed reads are retained for the rest of the
//! measurement window because conceptually concurrent walks are simulated
//! sequentially and may revisit any instant of it. The table is purged by
//! every invalidation command and statistics reset.
//!
//! # The indexed walk table
//!
//! Retaining completed records all window makes the table grow with the
//! walk count, and the original store was a flat `Vec` scanned twice per
//! PTE fetch (the coalescing probe and the in-flight concurrency count) —
//! O(walks²) per measurement window on translation storms. The walk table
//! is an index instead:
//!
//! * **Coalescing probe** — a per-PTE-address `BTreeMap` of
//!   `[issued, complete)` windows keyed by issue time: "is a read of this
//!   PTE outstanding at `now`?" is one floor lookup (walked backward past
//!   dead windows, see below) plus an O(1) `max_complete` short-circuit
//!   for probes past every recorded completion.
//! * **Concurrency bound** — a boundary-delta in-flight counter (the
//!   [`sva_common::TimedQueue`] occupancy engine): every held read pushes
//!   its `[issued, complete)` residency, and the MSHR capacity check is
//!   `occupancy_at(now)`, O(log n) instead of a full-table filter.
//!
//! The index reproduces the flat table's *first-inserted-match* semantics
//! exactly. Two windows of the same address can only overlap when the
//! later-inserted one has the strictly smaller issue time (a walk only
//! issues its own read at an instant no held window covers), so among the
//! windows covering an instant the first-inserted is precisely the one
//! with the greatest issue time — the one the backward floor-walk meets
//! first. The pre-index algorithm lives on as the reference table of this
//! module's tests, which a randomized lockstep drives against the index the
//! way the walker does; the walker-level outcomes are pinned by
//! `crates/iommu/tests/ptw_identity.rs`.
//!
//! Like the fabric's reservation index, the live set is bounded by
//! **watermark compaction**: [`PageTableWalker::compact_walk_table_before`]
//! folds every window completing at or before a no-earlier-arrival
//! watermark (the caller guarantees no later walk is stamped before it) and
//! is applied automatically alongside `MemorySystem::compact_fabric_before`
//! at sharded device-window boundaries, with the established
//! `event_count`/`compacted_events`/`watermark`/`debug_validate`
//! observables.
//!
//! With batching disabled the walker is exactly the serial walker of the
//! paper's prototype, read for read and cycle for cycle.

use std::collections::BTreeMap;

use sva_common::stats::RunningStats;
use sva_common::{Cycles, Error, InitiatorId, Iova, PhysAddr, Result, TimedQueue, VirtAddr};
use sva_mem::{MemReq, MemorySystem};
use sva_vm::page_table::{pte_address, PT_LEVELS};
use sva_vm::Pte;

/// Default number of in-flight PTE reads the walk table can hold.
pub const DEFAULT_MSHR_ENTRIES: usize = 8;

/// Outcome of one page-table walk.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PtwResult {
    /// The leaf entry found by the walk.
    pub leaf: Pte,
    /// Total walk latency (sum of the dependent reads and coalesced waits).
    pub cycles: Cycles,
    /// Number of memory reads issued.
    pub reads: u32,
    /// Number of levels served by coalescing onto an in-flight read of
    /// another walk instead of issuing a memory read (always zero with
    /// batching disabled).
    pub coalesced: u32,
}

/// One recorded `[issued, complete)` window in the indexed store (the issue
/// time is the map key).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct WalkWindow {
    /// The value the read returns.
    value: u64,
    /// Global-clock cycle at which the read completes.
    complete: u64,
}

/// The window set of one PTE address.
#[derive(Clone, Debug, Default)]
struct AddrWindows {
    /// Windows keyed by issue time. Keys are unique: a second read of the
    /// same address at the same instant would have coalesced onto the held
    /// window covering that instant instead of being held itself.
    by_issue: BTreeMap<u64, WalkWindow>,
    /// Greatest completion time over the windows — a probe at or past it
    /// cannot be served and short-circuits without touching the map.
    max_complete: u64,
}

/// The indexed MSHR walk-table store: per-address issue-time-keyed window
/// maps for the coalescing probe plus a boundary-delta occupancy timeline
/// for the in-flight concurrency bound. Cycle-identical to the flat
/// reference table the test module keeps.
#[derive(Clone, Debug)]
struct WalkTable {
    addrs: BTreeMap<u64, AddrWindows>,
    /// `[issued, complete)` residency of every held read: the MSHR
    /// concurrency bound is one `occupancy_at` floor lookup.
    in_flight: TimedQueue,
    /// Live window records (the `event_count` observable).
    records: usize,
    /// Peak live record count over the window.
    events_peak: usize,
    /// Records folded away by watermark compaction.
    compacted: u64,
    /// The compaction watermark (0 until the first compaction).
    watermark: u64,
}

impl Default for WalkTable {
    fn default() -> Self {
        Self {
            addrs: BTreeMap::new(),
            in_flight: TimedQueue::unbounded_recording(),
            records: 0,
            events_peak: 0,
            compacted: 0,
            watermark: 0,
        }
    }
}

impl WalkTable {
    /// The register whose read is outstanding at `now` for `pte_addr`, if
    /// any: `(value, complete)`.
    ///
    /// Backward floor-walk from the greatest issue time at or before `now`.
    /// The first *covering* window met is the naive table's first-inserted
    /// covering entry (overlapping same-address windows are inserted in
    /// strictly decreasing issue-time order — see the module docs). Dead
    /// windows with a later issue time than a covering one are possible
    /// (a short re-read nested inside a long out-of-order window) and are
    /// simply stepped over.
    fn probe(&self, pte_addr: u64, now: u64) -> Option<(u64, u64)> {
        let aw = self.addrs.get(&pte_addr)?;
        if now >= aw.max_complete {
            return None;
        }
        aw.by_issue
            .range(..=now)
            .rev()
            .find(|(_, w)| w.complete > now)
            .map(|(_, w)| (w.value, w.complete))
    }

    /// Number of held reads in flight at `now` (issued at or before it,
    /// completing after it).
    fn in_flight_at(&self, now: u64) -> usize {
        self.in_flight.occupancy_at(now)
    }

    /// Holds a read in a register. The caller guarantees `complete > issued`
    /// (a zero-latency read can never serve a coalescing walk nor count as
    /// in flight, so it is never held) and that no held window of
    /// `pte_addr` covers `issued` (the probe ran first), which makes the
    /// issue-time key unique.
    fn hold(&mut self, pte_addr: u64, value: u64, issued: u64, complete: u64) {
        debug_assert!(complete > issued);
        let aw = self.addrs.entry(pte_addr).or_default();
        aw.max_complete = aw.max_complete.max(complete);
        let prev = aw.by_issue.insert(issued, WalkWindow { value, complete });
        debug_assert!(prev.is_none(), "held window would have served the probe");
        self.in_flight.push(issued, complete);
        self.records += 1;
        self.events_peak = self.events_peak.max(self.records);
    }

    /// Folds every window completing at or before watermark `w` out of the
    /// index. The caller guarantees no later walk is stamped before `w`
    /// (the no-earlier-arrival contract the fabric's compaction uses), so a
    /// folded window could never again serve a probe or count as in flight.
    fn compact_before(&mut self, w: u64) {
        if w <= self.watermark {
            return;
        }
        self.watermark = w;
        let mut folded = 0usize;
        self.addrs.retain(|_, aw| {
            if aw.max_complete <= w {
                folded += aw.by_issue.len();
                return false;
            }
            let before = aw.by_issue.len();
            aw.by_issue.retain(|_, win| win.complete > w);
            folded += before - aw.by_issue.len();
            true
        });
        self.records -= folded;
        self.compacted += folded as u64;
        self.in_flight.compact_before(w);
    }

    /// Live window records held by the index.
    fn event_count(&self) -> usize {
        self.records
    }

    /// Peak live record count over the window.
    const fn events_peak(&self) -> usize {
        self.events_peak
    }

    /// Records folded away by [`WalkTable::compact_before`].
    const fn compacted_events(&self) -> u64 {
        self.compacted
    }

    /// The compaction watermark (0 until the first compaction).
    const fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Drops every register (invalidation); statistics survive.
    fn clear(&mut self) {
        self.addrs.clear();
        self.records = 0;
        self.watermark = 0;
        self.in_flight.clear_entries();
    }

    /// Clears registers *and* the lifecycle statistics.
    fn reset(&mut self) {
        self.clear();
        self.events_peak = 0;
        self.compacted = 0;
        self.in_flight.reset();
    }

    /// Checks the index invariants: the record count matches the maps, every
    /// window is non-empty and at or under its address's `max_complete`,
    /// and the in-flight timeline's prefix is consistent.
    ///
    /// # Panics
    ///
    /// Panics when the index is inconsistent.
    fn debug_validate(&self) {
        let mut records = 0usize;
        for (addr, aw) in &self.addrs {
            assert!(!aw.by_issue.is_empty(), "empty window set for {addr:#x}");
            let mut max_complete = 0u64;
            for (&issued, w) in &aw.by_issue {
                assert!(w.complete > issued, "empty window at {addr:#x}@{issued}");
                max_complete = max_complete.max(w.complete);
            }
            assert_eq!(
                aw.max_complete, max_complete,
                "stale max_complete for {addr:#x}"
            );
            records += aw.by_issue.len();
        }
        assert_eq!(self.records, records, "record count diverged from the maps");
        self.in_flight.debug_validate();
    }
}

/// The hardware page-table walker.
#[derive(Clone, Debug, Default)]
pub struct PageTableWalker {
    walk_time: RunningStats,
    walks: u64,
    faults: u64,
    /// Total PTE reads issued to memory.
    pte_reads: u64,
    /// Total levels served by MSHR coalescing instead of a memory read.
    coalesced_reads: u64,
    /// Whether the MSHR-style walk table is active.
    batching: bool,
    /// Capacity of the walk table (ignored with batching off).
    mshr_entries: usize,
    /// The in-flight PTE reads.
    table: WalkTable,
}

impl PageTableWalker {
    /// Creates a serial walker (no batching) with empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a walker with the MSHR-style walk table enabled, holding up
    /// to `mshr_entries` in-flight PTE reads (clamped to at least one).
    pub fn with_batching(mshr_entries: usize) -> Self {
        Self {
            batching: true,
            mshr_entries: mshr_entries.max(1),
            ..Self::default()
        }
    }

    /// Whether the MSHR-style walk table is active.
    pub const fn batching(&self) -> bool {
        self.batching
    }

    /// One timestamped PTE fetch: either coalesce onto an in-flight read of
    /// the same PTE or issue a timed read on the PTW port at `now`.
    /// `in_flight_limit` is the walk's resolved MSHR concurrency bound
    /// (capacity clamped by port credits, computed once per walk).
    /// Returns the raw PTE value, the completion time, and whether the
    /// level coalesced.
    fn fetch_pte(
        &mut self,
        mem: &mut MemorySystem,
        pte_addr: PhysAddr,
        now: Cycles,
        in_flight_limit: usize,
    ) -> Result<(u64, Cycles, bool)> {
        if self.batching {
            // A register serves this walk only while its read is genuinely
            // outstanding at the walk's current time: issued at or before
            // `now` and completing after it. Entries outside that window are
            // dead *for this walk* but may still serve a conceptually
            // concurrent walk whose time falls inside it (shards are
            // simulated sequentially, so arrival times interleave
            // arbitrarily) — they are only reclaimed by watermark
            // compaction or an invalidation.
            if let Some((value, complete)) = self.table.probe(pte_addr.raw(), now.raw()) {
                self.coalesced_reads += 1;
                return Ok((value, Cycles::new(complete), true));
            }
        }
        let mut buf = [0u8; 8];
        let rsp = mem.access(MemReq::read(InitiatorId::Ptw, pte_addr, &mut buf).at(now))?;
        let value = u64::from_le_bytes(buf);
        let complete = now + rsp.latency();
        self.pte_reads += 1;
        if self.batching {
            // The MSHR capacity is a *concurrency* bound: a new read is only
            // held in a register if fewer than `in_flight_limit` reads are
            // in flight at its issue instant — an unheld read simply cannot
            // be coalesced on (the serial fallback). Records of completed
            // reads are retained for the rest of the measurement window,
            // because shards are simulated sequentially: a later-simulated,
            // conceptually concurrent walk may revisit any instant of the
            // window and must find the registers that were live then. The
            // table is purged per window (statistics reset) and on every
            // invalidation. A zero-latency read is never held: its empty
            // window can neither serve a coalescing walk nor count as in
            // flight.
            let in_flight_now = self.table.in_flight_at(now.raw());
            if in_flight_now < in_flight_limit && complete > now {
                self.table
                    .hold(pte_addr.raw(), value, now.raw(), complete.raw());
            }
        }
        Ok((value, complete, false))
    }

    /// The walk's in-flight concurrency bound: the MSHR capacity,
    /// additionally clamped by the walker's *port credits*. Under a
    /// split-transaction fabric with a finite request queue
    /// (`FabricConfig::req_queue_depth`), the walker cannot keep more reads
    /// in flight than its port has request-queue slots, however large its
    /// walk table is. The clamp mirrors the fabric's own participation
    /// rule — PTW grants only take request-queue credits under the
    /// global-clock engine (`timed_host_ptw`), so without it the walker
    /// does not throttle itself for slots its traffic never occupies.
    /// Resolved once per walk, not once per PTE read.
    fn in_flight_limit(&self, mem: &MemorySystem) -> usize {
        let fabric = &mem.config().fabric;
        let port_credits = if fabric.timed_host_ptw {
            fabric.req_queue_depth.max(1)
        } else {
            usize::MAX
        };
        self.mshr_entries.min(port_credits)
    }

    /// Walks the Sv39 table rooted at `root` for `iova`, issuing PTE reads
    /// on the PTW port of `mem` stamped with the memory system's global
    /// clock.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoPageFault`] if the walk reaches an invalid entry or
    /// the leaf does not permit the requested access.
    pub fn walk(
        &mut self,
        mem: &mut MemorySystem,
        root: PhysAddr,
        iova: Iova,
        is_write: bool,
    ) -> Result<PtwResult> {
        let now = mem.clock().now();
        self.walk_at(mem, root, iova, is_write, now)
    }

    /// Walks the Sv39 table rooted at `root` for `iova`, with the walk
    /// issued at global-clock cycle `now`: each dependent PTE read is
    /// stamped with the completion time of the previous one, so the walk
    /// contends with concurrent fabric traffic level by level.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoPageFault`] if the walk reaches an invalid entry or
    /// the leaf does not permit the requested access.
    pub fn walk_at(
        &mut self,
        mem: &mut MemorySystem,
        root: PhysAddr,
        iova: Iova,
        is_write: bool,
        now: Cycles,
    ) -> Result<PtwResult> {
        self.walks += 1;
        let va = VirtAddr::from_iova(iova);
        let mut table = root;
        let mut t = now;
        let mut reads = 0u32;
        let mut coalesced = 0u32;
        let in_flight_limit = if self.batching {
            self.in_flight_limit(mem)
        } else {
            0
        };

        for level in 0..PT_LEVELS {
            let pte_addr = pte_address(table, va, level);
            let (raw, complete, hit_mshr) = self.fetch_pte(mem, pte_addr, t, in_flight_limit)?;
            t = complete;
            if hit_mshr {
                coalesced += 1;
            } else {
                reads += 1;
            }
            let pte = Pte::from_raw(raw);

            if !pte.is_valid() {
                self.faults += 1;
                self.walk_time.record_cycles(t - now);
                return Err(Error::IoPageFault { iova, is_write });
            }
            if pte.is_leaf() {
                if !pte.permits(is_write) {
                    self.faults += 1;
                    self.walk_time.record_cycles(t - now);
                    return Err(Error::IoPageFault { iova, is_write });
                }
                self.walk_time.record_cycles(t - now);
                return Ok(PtwResult {
                    leaf: pte,
                    cycles: t - now,
                    reads,
                    coalesced,
                });
            }
            table = pte.phys_addr();
        }

        // Sv39 never has pointer entries at the last level; reaching here
        // means the table is malformed.
        self.faults += 1;
        self.walk_time.record_cycles(t - now);
        Err(Error::IoPageFault { iova, is_write })
    }

    /// Per-walk latency statistics (the quantity plotted in Figure 5).
    pub const fn walk_time(&self) -> RunningStats {
        self.walk_time
    }

    /// Number of walks performed.
    pub const fn walks(&self) -> u64 {
        self.walks
    }

    /// Number of walks that ended in an IO page fault.
    pub const fn faults(&self) -> u64 {
        self.faults
    }

    /// Total PTE reads issued to memory.
    pub const fn pte_reads(&self) -> u64 {
        self.pte_reads
    }

    /// Total levels served by coalescing onto in-flight reads.
    pub const fn coalesced_reads(&self) -> u64 {
        self.coalesced_reads
    }

    /// Live window records held by the walk table.
    pub fn walk_table_events(&self) -> usize {
        self.table.event_count()
    }

    /// Peak live record count over the measurement window.
    pub fn walk_table_events_peak(&self) -> usize {
        self.table.events_peak()
    }

    /// Window records folded away by watermark compaction.
    pub fn walk_table_compacted_events(&self) -> u64 {
        self.table.compacted_events()
    }

    /// The walk table's compaction watermark (0 until the first
    /// compaction).
    pub fn walk_table_watermark(&self) -> u64 {
        self.table.watermark()
    }

    /// Folds every walk-table window completing at or before watermark `w`.
    /// Contract: no later walk will be stamped before `w` (the same
    /// no-earlier-arrival watermark `Fabric::compact_before` uses); applied
    /// at sharded device-window boundaries.
    pub fn compact_walk_table_before(&mut self, w: Cycles) {
        self.table.compact_before(w.raw());
    }

    /// Checks the indexed walk table's internal invariants.
    ///
    /// # Panics
    ///
    /// Panics when the index is inconsistent.
    #[doc(hidden)]
    pub fn debug_validate_walk_table(&self) {
        self.table.debug_validate();
    }

    /// Purges the walk table (an IOTLB/DDT invalidation command reached the
    /// IOMMU, or the page tables changed under the walker).
    pub fn invalidate_walk_table(&mut self) {
        self.table.clear();
    }

    /// Clears all statistics and the walk table.
    pub fn reset_stats(&mut self) {
        self.walk_time.reset();
        self.walks = 0;
        self.faults = 0;
        self.pte_reads = 0;
        self.coalesced_reads = 0;
        self.table.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_common::rng::DeterministicRng;
    use sva_common::PAGE_SIZE;
    use sva_mem::{MemSysConfig, MemorySystem};
    use sva_vm::{AddressSpace, FrameAllocator};

    fn mapped_space(llc: bool, latency: u64) -> (MemorySystem, AddressSpace, Iova) {
        mapped_space_pages(llc, latency, 2)
    }

    fn mapped_space_pages(
        llc: bool,
        latency: u64,
        pages: u64,
    ) -> (MemorySystem, AddressSpace, Iova) {
        let mut mem = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc: llc.then(sva_mem::LlcConfig::default),
            ..MemSysConfig::default()
        });
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, pages * PAGE_SIZE)
            .unwrap();
        (mem, space, Iova::from_virt(va))
    }

    #[test]
    fn walk_finds_mapped_page() {
        let (mut mem, space, iova) = mapped_space(true, 200);
        let mut ptw = PageTableWalker::new();
        let res = ptw.walk(&mut mem, space.root(), iova, true).unwrap();
        assert_eq!(res.reads, 3);
        assert_eq!(res.coalesced, 0);
        assert_eq!(
            res.leaf.phys_addr(),
            space
                .translate(&mem, VirtAddr::from_iova(iova))
                .unwrap()
                .page_base()
        );
        assert_eq!(ptw.walks(), 1);
        assert_eq!(ptw.faults(), 0);
        assert_eq!(ptw.pte_reads(), 3);
        assert_eq!(ptw.walk_time().count(), 1);
    }

    #[test]
    fn walk_of_unmapped_page_faults() {
        let (mut mem, space, _) = mapped_space(true, 200);
        let mut ptw = PageTableWalker::new();
        let err = ptw.walk(&mut mem, space.root(), Iova::new(0x7777_0000), false);
        assert!(matches!(err, Err(Error::IoPageFault { .. })));
        assert_eq!(ptw.faults(), 1);
    }

    #[test]
    fn walk_cost_scales_with_dram_latency_without_llc() {
        let (mut mem_fast, space_fast, iova_fast) = mapped_space(false, 200);
        let (mut mem_slow, space_slow, iova_slow) = mapped_space(false, 1000);
        let mut ptw = PageTableWalker::new();
        let fast = ptw
            .walk(&mut mem_fast, space_fast.root(), iova_fast, false)
            .unwrap();
        let slow = ptw
            .walk(&mut mem_slow, space_slow.root(), iova_slow, false)
            .unwrap();
        // Three dependent reads, each paying the extra 800 cycles.
        let delta = slow.cycles - fast.cycles;
        assert!(delta.raw() >= 3 * 800, "delta = {delta}");
    }

    #[test]
    fn walk_is_cheap_when_ptes_hit_in_llc() {
        let (mut mem, space, iova) = mapped_space(true, 1000);
        let mut ptw = PageTableWalker::new();
        // First walk brings the PTE lines into the LLC...
        let cold = ptw.walk(&mut mem, space.root(), iova, false).unwrap();
        // ...so a walk of the neighbouring page (same PTE cache lines) hits.
        let warm = ptw
            .walk(&mut mem, space.root(), iova + PAGE_SIZE, false)
            .unwrap();
        assert!(
            warm.cycles.raw() * 10 < cold.cycles.raw(),
            "warm walk ({}) should be an order of magnitude cheaper than cold ({})",
            warm.cycles,
            cold.cycles
        );
    }

    #[test]
    fn write_to_read_only_page_faults() {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        // Map one page read-only by hand.
        let va = VirtAddr::new(0x4000_0000);
        let pa = frames.alloc_frame().unwrap();
        space
            .page_table()
            .map_page(&mut mem, &mut frames, va, pa, sva_vm::PteFlags::user_ro())
            .unwrap();
        let mut ptw = PageTableWalker::new();
        assert!(ptw
            .walk(&mut mem, space.root(), Iova::from_virt(va), false)
            .is_ok());
        assert!(matches!(
            ptw.walk(&mut mem, space.root(), Iova::from_virt(va), true),
            Err(Error::IoPageFault { is_write: true, .. })
        ));
    }

    /// MSHR coalescing: K concurrent walks of the same page cost one walk's
    /// worth of memory reads; the followers latch onto the in-flight reads.
    #[test]
    fn concurrent_same_page_walks_coalesce_to_one_walks_reads() {
        const K: u64 = 5;
        let (mut mem, space, iova) = mapped_space(false, 600);
        let mut ptw = PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES);
        let first = ptw
            .walk_at(&mut mem, space.root(), iova, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(first.reads, 3);
        assert_eq!(first.coalesced, 0);
        for i in 1..K {
            // Overlapping arrivals: each follower starts while the leader's
            // reads are still in flight.
            let res = ptw
                .walk_at(&mut mem, space.root(), iova, false, Cycles::new(i * 10))
                .unwrap();
            assert_eq!(res.reads, 0, "follower {i} must not issue reads");
            assert_eq!(res.coalesced, 3, "follower {i} coalesces every level");
            assert_eq!(res.leaf, first.leaf, "coalesced walks see the same PTE");
            // The follower finishes when the leader's leaf read does.
            assert_eq!(Cycles::new(i * 10) + res.cycles, first.cycles);
        }
        assert_eq!(ptw.pte_reads(), 3, "K walks, one walk's worth of reads");
        assert_eq!(ptw.coalesced_reads(), (K - 1) * 3);
        ptw.debug_validate_walk_table();
    }

    /// Walks of different pages in the same region share the upper levels of
    /// the table: only the leaf read is issued per extra page.
    #[test]
    fn concurrent_neighbour_walks_share_upper_levels() {
        let (mut mem, space, iova) = mapped_space_pages(false, 600, 4);
        let mut ptw = PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES);
        let first = ptw
            .walk_at(&mut mem, space.root(), iova, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(first.reads, 3);
        let second = ptw
            .walk_at(
                &mut mem,
                space.root(),
                iova + PAGE_SIZE,
                false,
                Cycles::new(7),
            )
            .unwrap();
        assert_eq!(second.coalesced, 2, "level-0/1 reads are shared");
        assert_eq!(second.reads, 1, "only the leaf read is issued");
        assert_ne!(second.leaf, first.leaf);
    }

    /// A walk arriving after the in-flight reads completed must re-read: the
    /// walk table is a set of MSHRs, not a translation cache.
    #[test]
    fn expired_entries_do_not_serve_later_walks() {
        let (mut mem, space, iova) = mapped_space(false, 600);
        let mut ptw = PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES);
        let first = ptw
            .walk_at(&mut mem, space.root(), iova, false, Cycles::ZERO)
            .unwrap();
        let later = first.cycles + Cycles::new(1);
        let second = ptw
            .walk_at(&mut mem, space.root(), iova, false, later)
            .unwrap();
        assert_eq!(second.reads, 3, "non-overlapping walk issues all reads");
        assert_eq!(second.coalesced, 0);
    }

    /// Batching off is the serial walker, read for read and cycle for cycle,
    /// even under arrival patterns that would coalesce.
    #[test]
    fn batching_off_is_equivalent_to_the_serial_walker() {
        let run = |batching: bool| -> Vec<(u64, u32, u32)> {
            let (mut mem, space, iova) = mapped_space_pages(false, 600, 4);
            let mut ptw = if batching {
                PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES)
            } else {
                PageTableWalker::new()
            };
            let mut out = Vec::new();
            for i in 0..6u64 {
                let page = i % 4;
                let res = ptw
                    .walk_at(
                        &mut mem,
                        space.root(),
                        iova + page * PAGE_SIZE,
                        false,
                        Cycles::new(i * 5),
                    )
                    .unwrap();
                out.push((res.cycles.raw(), res.reads, res.coalesced));
            }
            out
        };
        let serial = run(false);
        assert!(
            serial.iter().all(|&(_, reads, co)| reads == 3 && co == 0),
            "serial walker never coalesces: {serial:?}"
        );
        // A second serial run is deterministic; with batching the same
        // arrivals coalesce and walks get cheaper, never more expensive.
        assert_eq!(serial, run(false));
        let batched = run(true);
        assert!(batched.iter().any(|&(_, _, co)| co > 0));
        for (s, b) in serial.iter().zip(&batched) {
            assert!(b.0 <= s.0, "batching must not slow a walk: {b:?} vs {s:?}");
        }
    }

    /// Stat conservation across MSHR sizes: every walk resolves every level
    /// either by a memory read or by coalescing, whatever the table size,
    /// and all sizes agree on the leaves.
    #[test]
    fn stats_conserve_across_batch_sizes() {
        for entries in [1usize, 2, 4, 8, 64] {
            let (mut mem, space, iova) = mapped_space_pages(false, 600, 8);
            let mut ptw = PageTableWalker::with_batching(entries);
            let mut walks = 0u64;
            for i in 0..16u64 {
                let page = i % 8;
                let res = ptw
                    .walk_at(
                        &mut mem,
                        space.root(),
                        iova + page * PAGE_SIZE,
                        false,
                        Cycles::new(i * 3),
                    )
                    .unwrap();
                walks += 1;
                assert_eq!(
                    res.reads + res.coalesced,
                    3,
                    "every level resolves exactly once ({entries} entries)"
                );
            }
            assert_eq!(ptw.walks(), walks);
            assert_eq!(
                ptw.pte_reads() + ptw.coalesced_reads(),
                walks * 3,
                "reads + coalesced levels conserve across {entries} MSHR entries"
            );
            assert_eq!(ptw.faults(), 0);
            ptw.debug_validate_walk_table();
        }
    }

    /// The walker's in-flight reads are bounded by its port's credits: with
    /// a one-slot request queue at the fabric (under the global-clock
    /// engine, where PTW traffic actually takes credits), only one PTE read
    /// can be held as an in-flight register at a time, however large the
    /// walk table — so a follower that would have coalesced on a second
    /// register re-reads instead. Conservation still holds, and the
    /// credit-bound walker never issues fewer reads than the unbounded one.
    /// Without `timed_host_ptw` the clamp must not apply (the fabric never
    /// takes PTW credits then).
    #[test]
    fn port_credits_bound_the_walk_table() {
        let run = |req_depth: usize, timed: bool| -> (u64, u64) {
            let mut mem = MemorySystem::new(MemSysConfig {
                dram_latency: Cycles::new(600),
                llc: None,
                fabric: sva_mem::FabricConfig {
                    req_queue_depth: req_depth,
                    timed_host_ptw: timed,
                    ..sva_mem::FabricConfig::default()
                },
            });
            let mut frames = FrameAllocator::linux_pool();
            let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
            let va = space
                .alloc_buffer(&mut mem, &mut frames, 4 * PAGE_SIZE)
                .unwrap();
            let iova = Iova::from_virt(va);
            let mut ptw = PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES);
            let mut walks = 0u64;
            // Overlapping walks of two neighbouring pages: with full
            // credits the second page's leaf read is held and later walks
            // coalesce on it; with one credit it cannot be held while the
            // first page's read is outstanding.
            for i in 0..6u64 {
                let page = i % 2;
                let res = ptw
                    .walk_at(
                        &mut mem,
                        space.root(),
                        iova + page * PAGE_SIZE,
                        false,
                        Cycles::new(i * 5),
                    )
                    .unwrap();
                walks += 1;
                assert_eq!(res.reads + res.coalesced, 3, "levels resolve once");
            }
            assert_eq!(ptw.pte_reads() + ptw.coalesced_reads(), walks * 3);
            (ptw.pte_reads(), ptw.coalesced_reads())
        };
        let (full_reads, full_coalesced) = run(usize::MAX, true);
        let (credit_reads, credit_coalesced) = run(1, true);
        assert!(full_coalesced > 0);
        assert!(
            credit_reads > full_reads,
            "one port credit must force re-reads: {credit_reads} vs {full_reads}"
        );
        assert!(credit_coalesced < full_coalesced);
        // Outside the timed engine, PTW traffic never takes request-queue
        // credits, so the walk table must not throttle itself.
        assert_eq!(
            run(1, false),
            (full_reads, full_coalesced),
            "the clamp must mirror the fabric's participation rule"
        );
    }

    /// Invalidation purges the in-flight registers: a concurrent walk after
    /// an invalidation re-reads instead of consuming a dead entry.
    #[test]
    fn invalidation_purges_the_walk_table() {
        let (mut mem, space, iova) = mapped_space(false, 600);
        let mut ptw = PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES);
        ptw.walk_at(&mut mem, space.root(), iova, false, Cycles::ZERO)
            .unwrap();
        ptw.invalidate_walk_table();
        let res = ptw
            .walk_at(&mut mem, space.root(), iova, false, Cycles::new(10))
            .unwrap();
        assert_eq!(res.reads, 3, "post-invalidation walk re-reads every level");
        assert_eq!(res.coalesced, 0);
    }

    /// The lifecycle observables behave like the fabric's: holds raise the
    /// live count and the peak, compaction folds dead windows (monotonically
    /// advancing the watermark) without disturbing live ones, invalidation
    /// clears the live set but keeps the window statistics, and a stats
    /// reset clears both.
    #[test]
    fn walk_table_lifecycle_observables() {
        let (mut mem, space, iova) = mapped_space_pages(false, 600, 4);
        let mut ptw = PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES);
        for i in 0..4u64 {
            ptw.walk_at(
                &mut mem,
                space.root(),
                iova + (i % 4) * PAGE_SIZE,
                false,
                Cycles::new(i * 2000),
            )
            .unwrap();
        }
        let live = ptw.walk_table_events();
        assert!(live > 0);
        assert_eq!(ptw.walk_table_events_peak(), live, "append-only until now");
        assert_eq!(ptw.walk_table_compacted_events(), 0);
        ptw.debug_validate_walk_table();
        // Everything from the first three walks is long dead at 6000.
        ptw.compact_walk_table_before(Cycles::new(6000));
        assert_eq!(ptw.walk_table_watermark(), 6000);
        assert!(ptw.walk_table_compacted_events() > 0);
        assert!(ptw.walk_table_events() < live);
        assert_eq!(ptw.walk_table_events_peak(), live, "peak survives folding");
        ptw.debug_validate_walk_table();
        // A stale watermark never rewinds.
        ptw.compact_walk_table_before(Cycles::new(10));
        assert_eq!(ptw.walk_table_watermark(), 6000);
        ptw.invalidate_walk_table();
        assert_eq!(ptw.walk_table_events(), 0);
        assert!(ptw.walk_table_compacted_events() > 0, "fold total survives");
        ptw.reset_stats();
        assert_eq!(ptw.walk_table_events_peak(), 0);
        assert_eq!(ptw.walk_table_compacted_events(), 0);
        assert_eq!(ptw.walk_table_watermark(), 0);
    }

    /// One PTE read held by the reference table.
    #[derive(Copy, Clone, Debug)]
    struct WalkEntry {
        pte_addr: u64,
        value: u64,
        issued: u64,
        complete: u64,
    }

    /// The pre-index walk table, kept as the executable specification of
    /// the MSHR semantics: a flat insertion-ordered `Vec` whose coalescing
    /// probe is a first-match scan and whose concurrency bound is a
    /// full-table filter. `widen` moves every window's completion edge
    /// that many cycles later at probe time: zero for the specification,
    /// one for the off-by-one mutant the lockstep must catch.
    #[derive(Default)]
    struct NaiveWalkTable {
        table: Vec<WalkEntry>,
        events_peak: usize,
        widen: u64,
    }

    /// The table operations the walker issues on a PTE fetch.
    trait Table {
        fn probe(&self, pte_addr: u64, now: u64) -> Option<(u64, u64)>;
        fn in_flight_at(&self, now: u64) -> usize;
        fn hold(&mut self, pte_addr: u64, value: u64, issued: u64, complete: u64);
    }

    impl Table for NaiveWalkTable {
        fn probe(&self, pte_addr: u64, now: u64) -> Option<(u64, u64)> {
            self.table
                .iter()
                .find(|e| {
                    e.pte_addr == pte_addr && e.issued <= now && e.complete + self.widen > now
                })
                .map(|e| (e.value, e.complete))
        }

        fn in_flight_at(&self, now: u64) -> usize {
            self.table
                .iter()
                .filter(|e| e.issued <= now && e.complete > now)
                .count()
        }

        fn hold(&mut self, pte_addr: u64, value: u64, issued: u64, complete: u64) {
            self.table.push(WalkEntry {
                pte_addr,
                value,
                issued,
                complete,
            });
            self.events_peak = self.events_peak.max(self.table.len());
        }
    }

    impl Table for WalkTable {
        fn probe(&self, pte_addr: u64, now: u64) -> Option<(u64, u64)> {
            WalkTable::probe(self, pte_addr, now)
        }

        fn in_flight_at(&self, now: u64) -> usize {
            WalkTable::in_flight_at(self, now)
        }

        fn hold(&mut self, pte_addr: u64, value: u64, issued: u64, complete: u64) {
            WalkTable::hold(self, pte_addr, value, issued, complete);
        }
    }

    /// What one fetch observed: the `(value, complete)` of the window that
    /// served the probe, or the in-flight count at the issue instant and
    /// whether the issued read was held.
    #[derive(Debug, PartialEq, Eq)]
    enum Fetch {
        Coalesced(u64, u64),
        Issued { in_flight: usize, held: bool },
    }

    /// One fetch the way `PageTableWalker::fetch_pte` makes it: probe
    /// first; on a miss, issue a read completing `latency` cycles later and
    /// hold it while fewer than `limit` reads are in flight at `now`.
    fn fetch(
        t: &mut impl Table,
        pte_addr: u64,
        now: u64,
        value: u64,
        latency: u64,
        limit: usize,
    ) -> Fetch {
        if let Some((value, complete)) = t.probe(pte_addr, now) {
            return Fetch::Coalesced(value, complete);
        }
        let in_flight = t.in_flight_at(now);
        let held = in_flight < limit && latency > 0;
        if held {
            t.hold(pte_addr, value, now, now + latency);
        }
        Fetch::Issued { in_flight, held }
    }

    /// Drives the indexed table and `reference` in lockstep over a
    /// randomized fetch storm: shard cursors that advance independently and
    /// sometimes restart at zero, arrivals landing exactly on recorded
    /// completion instants, zero-latency reads, invalidations and window
    /// resets. Returns the number of coalesced fetches and of reads the
    /// limit kept out of the table, or the first divergence.
    fn lockstep(
        rng: &mut DeterministicRng,
        limit: usize,
        mut reference: NaiveWalkTable,
    ) -> std::result::Result<(usize, usize), String> {
        let mut indexed = WalkTable::default();
        let shards = 1 + rng.next_below(4) as usize;
        let mut cursors = vec![0u64; shards];
        let mut completions: Vec<(u64, u64)> = Vec::new();
        let (mut coalesced, mut refused) = (0, 0);
        for i in 0..400usize {
            let (pte_addr, now) = if !completions.is_empty() && rng.next_below(6) == 0 {
                completions[rng.next_below(completions.len() as u64) as usize]
            } else {
                let shard = i % shards;
                if rng.next_below(40) == 0 {
                    cursors[shard] = 0;
                }
                cursors[shard] += rng.next_below(60);
                (0x8000_0000 + 8 * rng.next_below(6), cursors[shard])
            };
            let value = rng.next_u64();
            let latency = if rng.next_below(10) == 0 {
                0
            } else {
                1 + rng.next_below(400)
            };
            let a = fetch(&mut indexed, pte_addr, now, value, latency, limit);
            let b = fetch(&mut reference, pte_addr, now, value, latency, limit);
            if a != b {
                return Err(format!(
                    "fetch {i} of {pte_addr:#x} at {now}: indexed {a:?} vs reference {b:?}"
                ));
            }
            match a {
                Fetch::Coalesced(..) => coalesced += 1,
                Fetch::Issued { held: true, .. } => completions.push((pte_addr, now + latency)),
                Fetch::Issued { held: false, .. } => refused += usize::from(latency > 0),
            }
            match rng.next_below(150) {
                0 => {
                    indexed.clear();
                    reference.table.clear();
                }
                1 => {
                    indexed.reset();
                    reference.table.clear();
                    reference.events_peak = 0;
                }
                _ => {}
            }
            indexed.debug_validate();
            let counts = (indexed.event_count(), indexed.events_peak());
            let expected = (reference.table.len(), reference.events_peak);
            if counts != expected {
                return Err(format!(
                    "after fetch {i}: indexed (events, peak) {counts:?} vs reference {expected:?}"
                ));
            }
        }
        Ok((coalesced, refused))
    }

    /// The indexed walk table is cycle-identical to the flat reference on
    /// every probe, in-flight count, hold decision and record count,
    /// across MSHR limits.
    #[test]
    fn walk_table_is_cycle_identical_to_the_naive_reference() {
        let mut rng = DeterministicRng::new(0x977A_7AB1);
        let (mut coalesced, mut refused) = (0, 0);
        for round in 0..8 {
            for limit in [1usize, 2, 3, 8, 64] {
                match lockstep(&mut rng, limit, NaiveWalkTable::default()) {
                    Ok((c, r)) => (coalesced, refused) = (coalesced + c, refused + r),
                    Err(err) => panic!("round {round}, limit {limit}: {err}"),
                }
            }
        }
        assert!(coalesced > 0, "the storm must coalesce");
        assert!(refused > 0, "the storm must fill the table to its limit");
    }

    /// The lockstep has teeth: a reference whose windows serve one cycle
    /// past their completion (`[issued, complete]` instead of
    /// `[issued, complete)`) diverges once an arrival lands exactly on a
    /// recorded completion instant.
    #[test]
    fn walk_table_lockstep_catches_a_widened_completion_edge() {
        let mut rng = DeterministicRng::new(0x977A_0FF1);
        let widened = || NaiveWalkTable {
            widen: 1,
            ..NaiveWalkTable::default()
        };
        assert!(
            (0..4).any(|_| lockstep(&mut rng, 8, widened()).is_err()),
            "the walk-table lockstep failed to catch a one-cycle completion-edge skew"
        );
    }
}
