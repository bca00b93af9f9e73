//! The top-level IOMMU model.
//!
//! [`Iommu::translate_at`] is the single entry point the cluster DMA engine
//! uses: it runs the device-context lookup, the TLB lookups and, on a miss,
//! the page-table walk, and returns the physical address together with the
//! number of cycles the translation added to the transaction.
//!
//! # The translation hierarchy
//!
//! [`IommuConfig::tlb`] configures one shared IOTLB and, optionally, one
//! private L1 address-translation cache (ATC) per device in front of it,
//! each with its own organisation ([`sva_common::TlbOrg`]), replacement
//! policy ([`sva_common::ReplacementPolicy`]) and lookup latency. The
//! default is the paper prototype's: no ATC and a single 4-entry,
//! fully-associative, true-LRU IOTLB. A translation probes the ATC (if
//! any), then the shared IOTLB (filling the ATC on a hit), then walks the
//! page table (filling every level), charging the per-level latencies
//! into the cycles it returns — so TLB pressure shows up in DMA issue
//! times, not only in hit rates. Invalidation commands purge every level
//! plus the walker's in-flight MSHR registers.
//!
//! # Untimed probes
//!
//! Every `probe`/`peek` entry point in this crate —
//! [`Iommu::probe_translation`], [`IoTlb::probe`],
//! [`DeviceDirectory::peek`] — is **untimed and uncounted by contract**:
//! no cycles are charged, no global-clock traffic is issued, no
//! replacement state moves, and no hit/miss statistic or fault record is
//! touched. They exist for functional inspection (address-generation
//! pre-passes, tests, experiment harnesses) and are invisible to the
//! timing model; use [`Iommu::translate_at`] for anything a device would
//! actually issue.

use sva_common::stats::{Histogram, HitMiss, RunningStats};
use sva_common::{Cycles, Error, Iova, PhysAddr, ReplacementPolicy, Result, TlbOrg};
use sva_mem::MemorySystem;
use sva_vm::FrameAllocator;

use crate::ddt::{DeviceContext, DeviceDirectory};
use crate::iotlb::IoTlb;
use crate::pri::PageRequestStats;
use crate::ptw::{PageTableWalker, DEFAULT_MSHR_ENTRIES};
use crate::queues::{
    BoundedQueue, Command, FaultReason, FaultRecord, PageRequest, FAULT_QUEUE_ENTRIES,
    PAGE_REQUEST_ENTRIES,
};

/// Fixed pipeline latency added to every translated transaction.
const PIPELINE_LATENCY: Cycles = Cycles::new(2);

/// Width of one bucket of the page-request service-latency histogram.
const PRI_HIST_BUCKET: u64 = 512;
/// Number of buckets of the page-request service-latency histogram.
const PRI_HIST_BUCKETS: usize = 256;

/// Geometry, policy and lookup cost of one level of the translation
/// hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbLevelConfig {
    /// Organisation of the level (`sets × ways`).
    pub org: TlbOrg,
    /// Replacement policy of the level.
    pub policy: ReplacementPolicy,
    /// Cycles charged for probing this level (hit or miss detection).
    pub lookup_latency: Cycles,
}

impl TlbLevelConfig {
    /// Creates a level configuration.
    pub const fn new(org: TlbOrg, policy: ReplacementPolicy, lookup_latency: Cycles) -> Self {
        Self {
            org,
            policy,
            lookup_latency,
        }
    }
}

/// The translation hierarchy: an optional private L1 ATC per device in
/// front of the shared IOTLB.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbHierarchyConfig {
    /// The per-device L1 address-translation cache; `None` (the paper
    /// prototype) lets every device look up the shared IOTLB directly.
    pub l1: Option<TlbLevelConfig>,
    /// The shared IOTLB: the only TLB without an L1, the L2 behind the
    /// ATCs with one.
    pub l2: TlbLevelConfig,
}

impl TlbHierarchyConfig {
    /// The two-level hierarchy: a small private ATC (4 fully-associative
    /// entries, 1-cycle lookup) in front of a 32-entry 8×4 set-associative
    /// shared IOTLB (4-cycle lookup), both true-LRU.
    pub fn two_level() -> Self {
        Self {
            l1: Some(TlbLevelConfig::new(
                TlbOrg::fully_associative(4),
                ReplacementPolicy::TrueLru,
                Cycles::new(1),
            )),
            l2: TlbLevelConfig::new(
                TlbOrg::new(8, 4),
                ReplacementPolicy::TrueLru,
                Cycles::new(4),
            ),
        }
    }
}

impl Default for TlbHierarchyConfig {
    /// The paper prototype's IOTLB: no L1, and one shared level of 4
    /// fully-associative true-LRU entries with a 2-cycle lookup.
    fn default() -> Self {
        Self {
            l1: None,
            l2: TlbLevelConfig::new(
                TlbOrg::fully_associative(4),
                ReplacementPolicy::TrueLru,
                Cycles::new(2),
            ),
        }
    }
}

/// Configuration of a translating IOMMU (first-stage Sv39 translation, the
/// paper's *IOMMU* and *IOMMU + LLC* platforms). A platform without an
/// IOMMU has neither a configuration nor an [`Iommu`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IommuConfig {
    /// The translation hierarchy (the prototype's single 4-entry IOTLB by
    /// default).
    pub tlb: TlbHierarchyConfig,
    /// Enables the MSHR-style batched page-table walker: concurrent walks
    /// that need a PTE read already in flight coalesce onto it instead of
    /// issuing their own (see [`crate::ptw`]), with a walk table of
    /// [`DEFAULT_MSHR_ENTRIES`] in-flight PTE reads. Off by default — the
    /// serial walker is the paper's prototype.
    pub ptw_batching: bool,
    /// ATS/PRI-style demand paging: a translation fault enqueues a page
    /// request for the host instead of producing a terminal error, and the
    /// faulting device stalls-and-retries (see [`crate::pri`]). Off by
    /// default — faults are errors, as in the paper prototype.
    pub demand_paging: bool,
}

/// Snapshot of the IOMMU's statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct IommuStats {
    /// Translation requests served.
    pub translations: u64,
    /// Hit/miss counts of the shared IOTLB (the only TLB without an L1; the
    /// L2 level behind the ATCs with one).
    pub iotlb: HitMiss,
    /// Aggregate hit/miss counts of the per-device L1 ATCs (all zero
    /// without an L1).
    pub atc: HitMiss,
    /// Device-context cache hit/miss counts.
    pub dc_cache: HitMiss,
    /// Number of page-table walks performed.
    pub ptw_walks: u64,
    /// Number of walks that faulted.
    pub ptw_faults: u64,
    /// PTE reads the walker issued to memory.
    pub ptw_reads: u64,
    /// Walk levels served by MSHR coalescing instead of a memory read
    /// (always zero with batching off).
    pub ptw_coalesced_reads: u64,
    /// Per-walk latency statistics (Figure 5 reports the mean).
    pub ptw_time: RunningStats,
    /// Total cycles spent translating (IOTLB + DDT + PTW + pipeline).
    pub translation_cycles: u64,
    /// Fault records dropped at the full fault queue (previously lost
    /// silently; see [`crate::queues::BoundedQueue::dropped`]).
    pub fault_records_dropped: u64,
    /// Page-request path accounting (all zero with demand paging off).
    pub page_requests: PageRequestStats,
    /// Approximate median page-request service latency (from the latency
    /// histogram; 0 without samples).
    pub page_request_p50: u64,
    /// Approximate 90th-percentile page-request service latency.
    pub page_request_p90: u64,
    /// Approximate 99th-percentile page-request service latency.
    pub page_request_p99: u64,
    /// Peak length of the page-request queue — the most page requests
    /// pending at once (0 with demand paging off).
    pub page_request_pending_peak: usize,
    /// Peak live window-record count of the walker's MSHR walk table
    /// (always zero with batching off).
    pub ptw_walk_table_events_peak: usize,
    /// Walk-table window records folded away by watermark compaction at
    /// device-window boundaries.
    pub ptw_walk_table_compacted: u64,
}

/// The ATS/PRI page-request path of a demand-paging IOMMU.
#[derive(Clone, Debug)]
struct PageRequestPath {
    /// The page-request queue, [`PAGE_REQUEST_ENTRIES`] deep.
    queue: BoundedQueue<PageRequest>,
    /// Peak length of the queue over the measurement window.
    peak: usize,
    stats: PageRequestStats,
    /// Service latencies, for the percentiles.
    latency: Histogram,
}

/// The RISC-V IOMMU.
#[derive(Clone, Debug)]
pub struct Iommu {
    config: IommuConfig,
    ddt: Option<DeviceDirectory>,
    /// The shared IOTLB: the only TLB without an L1, the L2 behind the
    /// ATCs with one.
    iotlb: IoTlb,
    /// Per-device L1 address-translation caches, ordered by device ID;
    /// instantiated lazily on first translation and only when
    /// `config.tlb.l1` is set.
    atcs: Vec<(u32, IoTlb)>,
    ptw: PageTableWalker,
    /// The fault queue, [`FAULT_QUEUE_ENTRIES`] deep.
    faults: BoundedQueue<FaultRecord>,
    /// The page-request path, present exactly with demand paging.
    pri: Option<PageRequestPath>,
    translations: u64,
    translation_cycles: u64,
}

impl Iommu {
    /// Creates a translating IOMMU in the given configuration.
    pub fn new(config: IommuConfig) -> Self {
        Self {
            ddt: None,
            iotlb: IoTlb::with_org(config.tlb.l2.org, config.tlb.l2.policy),
            atcs: Vec::new(),
            ptw: if config.ptw_batching {
                PageTableWalker::with_batching(DEFAULT_MSHR_ENTRIES)
            } else {
                PageTableWalker::new()
            },
            faults: BoundedQueue::new(FAULT_QUEUE_ENTRIES),
            pri: config.demand_paging.then(|| PageRequestPath {
                queue: BoundedQueue::new(PAGE_REQUEST_ENTRIES),
                peak: 0,
                stats: PageRequestStats::default(),
                latency: Histogram::new(PRI_HIST_BUCKET, PRI_HIST_BUCKETS),
            }),
            translations: 0,
            translation_cycles: 0,
            config,
        }
    }

    /// The device directory, if one has been programmed.
    pub fn ddt(&self) -> Option<&DeviceDirectory> {
        self.ddt.as_ref()
    }

    /// Convenience setup used by the driver model and examples: allocates a
    /// device directory (if none exists) and installs a translating device
    /// context for `device_id` pointing at `root_pt`.
    ///
    /// # Errors
    ///
    /// Returns allocation or directory errors.
    pub fn attach_device(
        &mut self,
        mem: &mut MemorySystem,
        frames: &mut FrameAllocator,
        device_id: u32,
        pscid: u32,
        root_pt: PhysAddr,
    ) -> Result<()> {
        if self.ddt.is_none() {
            self.ddt = Some(DeviceDirectory::create(frames)?);
        }
        let ddt = self.ddt.as_mut().expect("directory just created");
        ddt.install(mem, device_id, DeviceContext::translating(pscid, root_pt))
    }

    /// Processes one driver command (invalidations and fences).
    ///
    /// An `IOTINVAL.VMA` purges **every** cached-translation structure the
    /// scoped pages could live in: the per-device L1 ATCs, the shared L2
    /// IOTLB *and* the page-table walker's in-flight MSHR registers — no
    /// stale translation survives at any layer (a property test in
    /// `tests/invalidation.rs` pins this under concurrent walks).
    pub fn process_command(&mut self, command: Command) {
        match command {
            Command::IotlbInvalidate { device_id, iova } => {
                match (device_id, iova) {
                    (Some(d), Some(a)) => {
                        self.iotlb.invalidate_page(d, a);
                        if let Some(atc) = self.atc_mut_existing(d) {
                            atc.invalidate_page(d, a);
                        }
                    }
                    (Some(d), None) => {
                        self.iotlb.invalidate_device(d);
                        if let Some(atc) = self.atc_mut_existing(d) {
                            atc.invalidate_all();
                        }
                    }
                    _ => {
                        self.iotlb.invalidate_all();
                        for (_, atc) in &mut self.atcs {
                            atc.invalidate_all();
                        }
                    }
                }
                // The page tables may have changed: in-flight walk-table
                // registers must not serve pre-invalidation PTE values.
                self.ptw.invalidate_walk_table();
            }
            Command::DdtInvalidate => {
                if let Some(ddt) = &mut self.ddt {
                    ddt.invalidate_cache();
                }
                self.ptw.invalidate_walk_table();
            }
            Command::Fence => {}
        }
    }

    /// Position of `device_id` in the sorted ATC list.
    fn atc_index(&self, device_id: u32) -> std::result::Result<usize, usize> {
        self.atcs.binary_search_by_key(&device_id, |(d, _)| *d)
    }

    /// The L1 ATC of `device_id`, if one has been instantiated.
    fn atc_mut_existing(&mut self, device_id: u32) -> Option<&mut IoTlb> {
        self.atc_index(device_id)
            .ok()
            .map(|pos| &mut self.atcs[pos].1)
    }

    /// The L1 ATC of `device_id`, created on first use from the L1 level
    /// configuration. Only called when an L1 is configured.
    fn atc_mut(&mut self, device_id: u32, level: TlbLevelConfig) -> &mut IoTlb {
        let pos = match self.atc_index(device_id) {
            Ok(pos) => pos,
            Err(pos) => {
                self.atcs
                    .insert(pos, (device_id, IoTlb::with_org(level.org, level.policy)));
                pos
            }
        };
        &mut self.atcs[pos].1
    }

    /// Translates an IO virtual address for `device_id`, with the request
    /// arriving at global-clock cycle `now` (the issue time of the DMA burst
    /// presenting it), and returns the physical address and the cycles the
    /// translation added to the transaction. On an IOTLB miss the
    /// page-table walk is issued at `now` plus the lookup latencies, so its
    /// per-level reads are timestamped and contend on the memory fabric.
    ///
    /// Under demand paging a request that is going to fault is **squashed
    /// before it perturbs anything**: an untimed probe detects the missing
    /// (or permission-lacking) mapping and the fault returns without timed
    /// walk reads, TLB state movement or statistics. A faulting attempt's
    /// partial walk would otherwise warm the LLC with page-table lines and
    /// reserve fabric slots, making the post-fault retry *cheaper* than the
    /// identical translation in a pre-mapped run — the fault-stagger
    /// anomaly where cold-start paging could report a lower contended wall
    /// clock than its pre-mapped twin. The fault's real cost is carried by
    /// the PRI stall-and-retry loop, which dwarfs the squashed walk.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoPageFault`] or [`Error::UnknownDevice`] on
    /// translation failure; a corresponding record is pushed to the fault
    /// queue (except for demand-paging page faults, which are reported
    /// through the page-request path instead).
    pub fn translate_at(
        &mut self,
        mem: &mut MemorySystem,
        device_id: u32,
        iova: Iova,
        is_write: bool,
        now: Cycles,
    ) -> Result<(PhysAddr, Cycles)> {
        if self.config.demand_paging
            && peek_root(self.ddt.as_ref(), mem, device_id)
                .is_some_and(|root| !can_access(mem, root, iova, is_write))
        {
            return Err(Error::IoPageFault { iova, is_write });
        }
        self.translations += 1;
        let result = self.translate_first_stage(mem, device_id, iova, is_write, now);
        if let Ok((_, cycles)) = &result {
            self.translation_cycles += cycles.raw();
        }
        result
    }

    /// Untimed, side-effect-free translation for functional inspection of
    /// device-visible memory: resolves the device context straight from the
    /// in-memory directory ([`DeviceDirectory::peek`]) and walks the page
    /// table with functional reads. This is what a DMA core's
    /// address-generation pre-pass (e.g. the sort kernel's merge-path
    /// binary search) uses to peek at DRAM-resident data without
    /// disturbing the timing model, and what the page-request path uses to
    /// find the unmapped pages of a transfer.
    ///
    /// **Contract (shared by every `probe`/`peek` entry point of this
    /// crate):** no cycles are charged, no timed memory traffic is issued,
    /// no TLB/DC-cache replacement state moves, and no hit/miss statistic
    /// or fault record is produced — by design, probes are invisible to
    /// both the timing model and the accounting. See the crate-level
    /// "Untimed probes" section.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoPageFault`] for unmapped addresses and
    /// [`Error::UnknownDevice`] for devices without a valid context.
    pub fn probe_translation(
        &self,
        mem: &MemorySystem,
        device_id: u32,
        iova: Iova,
    ) -> Result<PhysAddr> {
        let Some(ddt) = self.ddt.as_ref() else {
            return Err(Error::UnknownDevice { device_id });
        };
        let ctx = ddt.peek(mem, device_id)?;
        let va = sva_common::VirtAddr::from_iova(iova);
        let table = sva_vm::PageTable::from_root(ctx.root_pt);
        match table.translate(mem, va) {
            Ok(pa) => Ok(pa),
            Err(Error::HostPageFault { .. }) => Err(Error::IoPageFault {
                iova,
                is_write: false,
            }),
            Err(e) => Err(e),
        }
    }

    fn translate_first_stage(
        &mut self,
        mem: &mut MemorySystem,
        device_id: u32,
        iova: Iova,
        is_write: bool,
        now: Cycles,
    ) -> Result<(PhysAddr, Cycles)> {
        let mut cycles = PIPELINE_LATENCY;

        // 1. Device context.
        let Some(ddt) = self.ddt.as_mut() else {
            self.faults.push(FaultRecord {
                device_id,
                iova,
                is_write,
                reason: FaultReason::DeviceNotConfigured,
            });
            return Err(Error::UnknownDevice { device_id });
        };
        let (ctx, dc_cycles) = match ddt.lookup(mem, device_id, now) {
            Ok(r) => r,
            Err(e) => {
                self.faults.push(FaultRecord {
                    device_id,
                    iova,
                    is_write,
                    reason: FaultReason::DeviceNotConfigured,
                });
                return Err(e);
            }
        };
        cycles += dc_cycles;

        // 2. TLB lookups: the private L1 ATC, if configured, then the
        // shared IOTLB, each level charging its configured lookup latency
        // into the transaction. A cached entry that does not permit the
        // access falls through to a fresh walk, so the fault is reported
        // with up-to-date state.
        let permits = |entry: &crate::iotlb::IoTlbEntry| {
            entry.flags.contains(sva_vm::PteFlags::W) || !is_write
        };
        let tlb = self.config.tlb;
        if let Some(l1) = tlb.l1 {
            cycles += l1.lookup_latency;
            if let Some(entry) = self.atc_mut(device_id, l1).lookup(device_id, iova) {
                if permits(&entry) {
                    return Ok((entry.translate(iova), cycles));
                }
            }
        }
        cycles += tlb.l2.lookup_latency;
        if let Some(entry) = self.iotlb.lookup(device_id, iova) {
            if permits(&entry) {
                // A shared-level hit refills the private ATC.
                if let Some(l1) = tlb.l1 {
                    self.atc_mut(device_id, l1)
                        .fill(device_id, iova, entry.ppn, entry.flags);
                }
                return Ok((entry.translate(iova), cycles));
            }
        }

        // 3. Page-table walk, issued at the request's arrival plus the
        // pipeline/DDT/TLB latencies already accumulated. A successful walk
        // fills every level above it.
        match self
            .ptw
            .walk_at(mem, ctx.root_pt, iova, is_write, now + cycles)
        {
            Ok(res) => {
                cycles += res.cycles;
                self.iotlb
                    .fill(device_id, iova, res.leaf.ppn(), res.leaf.flags());
                if let Some(l1) = tlb.l1 {
                    self.atc_mut(device_id, l1).fill(
                        device_id,
                        iova,
                        res.leaf.ppn(),
                        res.leaf.flags(),
                    );
                }
                Ok((res.leaf.phys_addr() + iova.page_offset(), cycles))
            }
            Err(e) => {
                let reason = match &e {
                    Error::IoPageFault { .. } => FaultReason::PageNotMapped,
                    _ => FaultReason::DeviceNotConfigured,
                };
                // With demand paging, a not-mapped fault is recoverable: it
                // is reported through the page-request queue by the device
                // (ATS/PRI), not the terminal fault queue.
                if !(self.config.demand_paging && reason == FaultReason::PageNotMapped) {
                    self.faults.push(FaultRecord {
                        device_id,
                        iova,
                        is_write,
                        reason,
                    });
                }
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // The ATS/PRI page-request path (demand paging)
    // ------------------------------------------------------------------

    /// Whether the IOMMU translates with demand paging on.
    pub const fn demand_paging(&self) -> bool {
        self.config.demand_paging
    }

    /// Issues a **page-request group** on behalf of `device_id`: one
    /// request per page of `[start, start + len)` the device cannot
    /// already access (unmapped, or mapped without write permission for a
    /// write group), stamped `now`, pushed into the bounded page-request
    /// queue. Pages already accessible — or already pending in the queue —
    /// are skipped.
    ///
    /// Returns `(enqueued, dropped)`; a nonzero `dropped` means the queue
    /// overflowed mid-group and the device must back off (the tail pages
    /// will fault again and re-request). Without demand paging the IOMMU
    /// has no page-request queue, and nothing is enqueued.
    pub fn enqueue_page_requests(
        &mut self,
        mem: &MemorySystem,
        device_id: u32,
        start: Iova,
        len: u64,
        is_write: bool,
        now: Cycles,
    ) -> (u64, u64) {
        let Some(pri) = self.pri.as_mut() else {
            return (0, 0);
        };
        let root = peek_root(self.ddt.as_ref(), mem, device_id);
        let mut enqueued = 0u64;
        let mut dropped = 0u64;
        let first = start.page_base();
        let end = start + len.max(1);
        let mut page = first;
        while page < end {
            // Every pushed request's IOVA is a page base, so a page is
            // pending exactly when a queued request of the device names it.
            let needed = !root.is_some_and(|root| can_access(mem, root, page, is_write))
                && !pri
                    .queue
                    .iter()
                    .any(|r| r.device_id == device_id && r.iova == page);
            if needed {
                if pri.queue.push(PageRequest {
                    device_id,
                    iova: page,
                    is_write,
                    issued_at: now,
                }) {
                    pri.peak = pri.peak.max(pri.queue.len());
                    enqueued += 1;
                    pri.stats.requests += 1;
                } else {
                    // The queue is full; keep scanning so every request of
                    // the group that fails to enqueue is counted — the
                    // drop statistics promise a per-request count. An
                    // overflow-dropped request is not pending and stays
                    // re-requestable.
                    dropped += 1;
                    pri.stats.dropped += 1;
                }
            }
            page += sva_common::PAGE_SIZE;
        }
        (enqueued, dropped)
    }

    /// Removes and returns the oldest pending page request (host side).
    pub fn pop_page_request(&mut self) -> Option<PageRequest> {
        self.pri.as_mut()?.queue.pop()
    }

    /// Number of pending page requests.
    pub fn pending_page_requests(&self) -> usize {
        self.pri.as_ref().map_or(0, |pri| pri.queue.len())
    }

    /// Records one request resolved by the host: issued at `issued`,
    /// completed (group response observed by the device) at `completed`.
    /// The service latency feeds the latency statistics. This and the
    /// other `note_*` records do nothing without demand paging, which
    /// issues no page requests.
    pub fn note_page_request_serviced(&mut self, issued: Cycles, completed: Cycles) {
        if let Some(pri) = &mut self.pri {
            let latency = completed.saturating_sub(issued);
            pri.stats.serviced += 1;
            pri.stats.service_time.record_cycles(latency);
            pri.latency.record(latency.raw());
        }
    }

    /// Records one request the host could not resolve (no backing host
    /// mapping); the device's retry faults again and turns it into a
    /// terminal fault.
    pub fn note_page_request_failed(&mut self) {
        if let Some(pri) = &mut self.pri {
            pri.stats.failed += 1;
        }
    }

    /// Records the completion of one group response.
    pub fn note_group_response(&mut self) {
        if let Some(pri) = &mut self.pri {
            pri.stats.group_responses += 1;
        }
    }

    /// Purges the walker's in-flight MSHR registers (the host changed the
    /// page tables while servicing page requests; the fence after the
    /// update must not let stale in-flight PTE values serve later walks).
    pub fn purge_walk_table(&mut self) {
        self.ptw.invalidate_walk_table();
    }

    /// Folds translation-path history that can no longer influence the
    /// simulation: every walk-table window completing at or before
    /// watermark `w`. Contract: no later walk is stamped before `w` (the
    /// same no-earlier-arrival watermark
    /// `MemorySystem::compact_fabric_before` uses); the offload driver
    /// applies both together at sharded device-window boundaries.
    pub fn compact_translation_before(&mut self, w: Cycles) {
        self.ptw.compact_walk_table_before(w);
    }

    /// Records a **terminal** IO page fault in the fault queue.
    ///
    /// The demand-paging path reports *recoverable* not-mapped faults
    /// through the page-request queue instead of the fault queue; when the
    /// device gives up (see [`crate::pri::recover_page_faults`]) the fault
    /// is terminal after all and must still reach the driver, so the
    /// device records it here before aborting (otherwise the abort would
    /// be invisible to a host polling the fault queue).
    pub fn record_terminal_fault(&mut self, device_id: u32, iova: Iova, is_write: bool) {
        self.faults.push(FaultRecord {
            device_id,
            iova,
            is_write,
            reason: FaultReason::PageNotMapped,
        });
    }

    /// Oldest unread fault, if any.
    pub fn pop_fault(&mut self) -> Option<FaultRecord> {
        self.faults.pop()
    }

    /// Number of pending fault records.
    pub fn pending_faults(&self) -> usize {
        self.faults.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IommuStats {
        let mut atc = HitMiss::new();
        for (_, tlb) in &self.atcs {
            let s = tlb.stats();
            atc.hits += s.hits;
            atc.misses += s.misses;
        }
        let pri = self.pri.as_ref();
        let percentile = |q| pri.map_or(0, |pri| pri.latency.percentile(q));
        IommuStats {
            translations: self.translations,
            iotlb: self.iotlb.stats(),
            atc,
            dc_cache: self
                .ddt
                .as_ref()
                .map(|d| d.cache_stats())
                .unwrap_or_default(),
            ptw_walks: self.ptw.walks(),
            ptw_faults: self.ptw.faults(),
            ptw_reads: self.ptw.pte_reads(),
            ptw_coalesced_reads: self.ptw.coalesced_reads(),
            ptw_time: self.ptw.walk_time(),
            translation_cycles: self.translation_cycles,
            fault_records_dropped: self.faults.dropped(),
            page_requests: pri.map(|pri| pri.stats).unwrap_or_default(),
            page_request_p50: percentile(0.50),
            page_request_p90: percentile(0.90),
            page_request_p99: percentile(0.99),
            page_request_pending_peak: pri.map_or(0, |pri| pri.peak),
            ptw_walk_table_events_peak: self.ptw.walk_table_events_peak(),
            ptw_walk_table_compacted: self.ptw.walk_table_compacted_events(),
        }
    }

    /// Direct access to the shared IOTLB — the only TLB without an L1, the
    /// L2 behind the ATCs with one (for ablation experiments and tests).
    pub const fn iotlb(&self) -> &IoTlb {
        &self.iotlb
    }

    /// Direct access to the L1 ATC of `device_id`, if an L1 is configured
    /// and the device has translated at least once.
    pub fn atc(&self, device_id: u32) -> Option<&IoTlb> {
        self.atc_index(device_id).ok().map(|pos| &self.atcs[pos].1)
    }

    /// Per-device IOTLB hit/miss statistics, ordered by device ID. Devices
    /// that never presented a translation are absent.
    pub fn device_iotlb_stats(&self) -> &[(u32, sva_common::stats::HitMiss)] {
        self.iotlb.per_device_stats()
    }

    /// Device IDs with an installed device context, in ascending order
    /// (empty when no directory has been programmed).
    pub fn attached_devices(&self) -> &[u32] {
        self.ddt.as_ref().map(|d| d.device_ids()).unwrap_or(&[])
    }

    /// Clears all statistics; cached state (IOTLB, ATCs, DC cache) is
    /// preserved.
    pub fn reset_stats(&mut self) {
        self.iotlb.reset_stats();
        for (_, atc) in &mut self.atcs {
            atc.reset_stats();
        }
        self.ptw.reset_stats();
        self.faults.reset_dropped();
        if let Some(pri) = &mut self.pri {
            pri.queue.reset_dropped();
            // Requests still pending across the window boundary stay
            // pending; only the peak restarts, at the carried-over length.
            pri.peak = pri.queue.len();
            pri.stats = PageRequestStats::default();
            pri.latency = Histogram::new(PRI_HIST_BUCKET, PRI_HIST_BUCKETS);
        }
        self.translations = 0;
        self.translation_cycles = 0;
    }
}

impl Default for Iommu {
    fn default() -> Self {
        Self::new(IommuConfig::default())
    }
}

/// The root of `device_id`'s IO page table, peeked from the directory
/// ([`DeviceDirectory::peek`], untimed); `None` without a directory or a
/// valid context for the device.
fn peek_root(
    ddt: Option<&DeviceDirectory>,
    mem: &MemorySystem,
    device_id: u32,
) -> Option<PhysAddr> {
    ddt.and_then(|ddt| ddt.peek(mem, device_id).ok())
        .map(|ctx| ctx.root_pt)
}

/// Untimed probe of whether a device whose IO page table is rooted at
/// `root` ([`peek_root`]) can already perform the given access to `iova`
/// without host intervention: the page must be mapped **and** the leaf
/// must permit the access type (a resident read-only page still needs a
/// page request for a write — the host services it by upgrading the
/// mapping).
fn can_access(mem: &MemorySystem, root: PhysAddr, iova: Iova, is_write: bool) -> bool {
    let table = sva_vm::PageTable::from_root(root);
    let va = sva_common::VirtAddr::from_iova(iova);
    match table.walk(mem, va) {
        Ok(path) => path
            .leaf()
            .is_some_and(|pte| pte.is_valid() && pte.permits(is_write)),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_common::{VirtAddr, PAGE_SIZE};
    use sva_vm::AddressSpace;

    fn setup() -> (MemorySystem, FrameAllocator, AddressSpace, VirtAddr) {
        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 8 * PAGE_SIZE)
            .unwrap();
        (mem, frames, space, va)
    }

    #[test]
    fn translating_mode_matches_software_walk() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        for page in 0..8u64 {
            let iova = Iova::from_virt(va + page * PAGE_SIZE + 16);
            let (pa, _) = iommu
                .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
                .unwrap();
            assert_eq!(
                pa,
                space.translate(&mem, va + page * PAGE_SIZE + 16).unwrap()
            );
        }
    }

    #[test]
    fn iotlb_miss_costs_more_than_hit() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);
        let (_, miss_cycles) = iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        let (_, hit_cycles) = iommu
            .translate_at(&mut mem, 1, iova + 64, false, Cycles::ZERO)
            .unwrap();
        assert!(
            miss_cycles.raw() > 10 * hit_cycles.raw(),
            "miss {miss_cycles} should dwarf hit {hit_cycles}"
        );
        let stats = iommu.stats();
        assert_eq!(stats.iotlb.misses, 1);
        assert_eq!(stats.iotlb.hits, 1);
        assert_eq!(stats.ptw_walks, 1);
    }

    #[test]
    fn unmapped_iova_faults_and_is_recorded() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let bad = Iova::new(0x7FFF_0000);
        assert!(matches!(
            iommu.translate_at(&mut mem, 1, bad, true, Cycles::ZERO),
            Err(Error::IoPageFault { .. })
        ));
        assert_eq!(iommu.pending_faults(), 1);
        let fault = iommu.pop_fault().unwrap();
        assert_eq!(fault.iova, bad);
        assert_eq!(fault.reason, FaultReason::PageNotMapped);
        assert!(fault.is_write);
    }

    #[test]
    fn unknown_device_faults() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        assert!(matches!(
            iommu.translate_at(&mut mem, 9, Iova::from_virt(va), false, Cycles::ZERO),
            Err(Error::UnknownDevice { device_id: 9 })
        ));
        assert_eq!(iommu.pending_faults(), 1);
    }

    #[test]
    fn invalidation_forces_new_walks() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);
        iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(iommu.stats().ptw_walks, 1);
        iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(iommu.stats().ptw_walks, 1);

        iommu.process_command(Command::IotlbInvalidate {
            device_id: None,
            iova: None,
        });
        iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(iommu.stats().ptw_walks, 2);
    }

    #[test]
    fn small_iotlb_thrashes_on_wide_strides() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        // Touch 8 distinct pages twice; with only 4 IOTLB entries the second
        // sweep misses again.
        for _ in 0..2 {
            for page in 0..8u64 {
                let iova = Iova::from_virt(va + page * PAGE_SIZE);
                iommu
                    .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
                    .unwrap();
            }
        }
        let stats = iommu.stats();
        assert_eq!(stats.iotlb.misses, 16);
        assert_eq!(stats.iotlb.hits, 0);
    }

    fn hierarchy_config() -> IommuConfig {
        IommuConfig {
            tlb: TlbHierarchyConfig::two_level(),
            ..IommuConfig::default()
        }
    }

    #[test]
    fn hierarchy_l1_miss_fills_from_l2_and_walks_once() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(hierarchy_config());
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);

        // Cold: L1 miss, L2 miss, one walk; both levels fill.
        iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        let s = iommu.stats();
        assert_eq!(s.atc.misses, 1);
        assert_eq!(s.iotlb.misses, 1);
        assert_eq!(s.ptw_walks, 1);
        assert!(iommu.atc(1).unwrap().probe(1, iova));
        assert!(iommu.iotlb().probe(1, iova));

        // Warm: L1 hit, L2 untouched, no walk.
        iommu
            .translate_at(&mut mem, 1, iova + 64, false, Cycles::ZERO)
            .unwrap();
        let s = iommu.stats();
        assert_eq!(s.atc.hits, 1);
        assert_eq!(s.iotlb.total(), 1, "an L1 hit never reaches L2");
        assert_eq!(s.ptw_walks, 1);

        // Thrash the tiny L1 (4 entries) with 5 more pages, then return to
        // the first page: L1 misses, the 32-entry L2 still hits, no walk.
        for page in 1..6u64 {
            iommu
                .translate_at(
                    &mut mem,
                    1,
                    Iova::from_virt(va + page * PAGE_SIZE),
                    false,
                    Cycles::ZERO,
                )
                .unwrap();
        }
        let walks_before = iommu.stats().ptw_walks;
        let l2_hits_before = iommu.stats().iotlb.hits;
        iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        let s = iommu.stats();
        assert_eq!(s.ptw_walks, walks_before, "L2 hit avoids the walk");
        assert_eq!(s.iotlb.hits, l2_hits_before + 1);
    }

    #[test]
    fn hierarchy_charges_per_level_latencies() {
        // The pipeline and device-context latencies are the same for an
        // L1 hit and an L2 hit, so the cycle delta is exactly the L2 knob.
        let config = IommuConfig {
            tlb: TlbHierarchyConfig {
                l1: Some(TlbLevelConfig::new(
                    TlbOrg::fully_associative(1),
                    ReplacementPolicy::TrueLru,
                    Cycles::new(3),
                )),
                l2: TlbLevelConfig::new(
                    TlbOrg::fully_associative(8),
                    ReplacementPolicy::TrueLru,
                    Cycles::new(11),
                ),
            },
            ..IommuConfig::default()
        };
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(config);
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let a = Iova::from_virt(va);
        let b = Iova::from_virt(va + PAGE_SIZE);
        // Warm both pages (b last, so the 1-entry L1 holds b).
        iommu
            .translate_at(&mut mem, 1, a, false, Cycles::ZERO)
            .unwrap();
        iommu
            .translate_at(&mut mem, 1, b, false, Cycles::ZERO)
            .unwrap();
        // DC cache is warm now: a translation of b hits L1.
        let (_, l1_hit) = iommu
            .translate_at(&mut mem, 1, b, false, Cycles::ZERO)
            .unwrap();
        // A translation of a misses L1 (holds b) but hits L2.
        let (_, l2_hit) = iommu
            .translate_at(&mut mem, 1, a, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(
            l2_hit - l1_hit,
            Cycles::new(11),
            "the L2 hit pays exactly the L2 lookup latency on top"
        );
    }

    #[test]
    fn hierarchy_invalidation_purges_both_levels() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(hierarchy_config());
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        let iova = Iova::from_virt(va);
        iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        assert!(iommu.atc(1).unwrap().probe(1, iova));
        assert!(iommu.iotlb().probe(1, iova));

        iommu.process_command(Command::IotlbInvalidate {
            device_id: Some(1),
            iova: Some(iova),
        });
        assert!(!iommu.atc(1).unwrap().probe(1, iova), "L1 purged");
        assert!(!iommu.iotlb().probe(1, iova), "L2 purged");
        let walks = iommu.stats().ptw_walks;
        iommu
            .translate_at(&mut mem, 1, iova, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(iommu.stats().ptw_walks, walks + 1, "re-walk after purge");
    }

    #[test]
    fn single_level_config_keeps_atc_stats_at_zero() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        iommu
            .translate_at(&mut mem, 1, Iova::from_virt(va), false, Cycles::ZERO)
            .unwrap();
        let s = iommu.stats();
        assert_eq!(s.atc.total(), 0);
        assert!(iommu.atc(1).is_none());
    }

    /// Satellite regression: fault records dropped at the full fault queue
    /// used to vanish silently — the drop counter now surfaces through
    /// `IommuStats::fault_records_dropped`.
    #[test]
    fn fault_queue_overflow_is_surfaced_not_silent() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::default();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        for i in 0..FAULT_QUEUE_ENTRIES as u64 + 1 {
            let bad = Iova::new(0x7F00_0000 + i * PAGE_SIZE);
            assert!(iommu
                .translate_at(&mut mem, 1, bad, false, Cycles::ZERO)
                .is_err());
        }
        assert_eq!(
            iommu.pending_faults(),
            FAULT_QUEUE_ENTRIES,
            "queue holds its capacity"
        );
        assert_eq!(
            iommu.stats().fault_records_dropped,
            1,
            "the overflowed record is counted, not lost"
        );
        iommu.reset_stats();
        assert_eq!(iommu.stats().fault_records_dropped, 0);
    }

    #[test]
    fn page_request_groups_dedup_skip_mapped_and_overflow() {
        let (mut mem, mut frames, space, va) = setup();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        // Attach against a *fresh* IO table so nothing is device-mapped.
        let io_table = sva_vm::PageTable::create(&mut frames).unwrap();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), io_table.root())
            .unwrap();
        assert!(iommu.demand_paging());

        // Map page 2 of 20 into the device table: the group must skip it.
        let pa = space.translate(&mem, va + 2 * PAGE_SIZE).unwrap();
        io_table
            .map_page(
                &mut mem,
                &mut frames,
                va + 2 * PAGE_SIZE,
                pa,
                sva_vm::PteFlags::user_rw(),
            )
            .unwrap();

        let iova = Iova::from_virt(va);
        let group = 20 * PAGE_SIZE;
        let (queued, dropped) =
            iommu.enqueue_page_requests(&mem, 1, iova, group, false, Cycles::new(5));
        // 20 pages, one mapped → 19 candidates; the queue holds 16.
        assert_eq!(queued, PAGE_REQUEST_ENTRIES as u64);
        assert_eq!(dropped, 3);
        assert_eq!(iommu.pending_page_requests(), PAGE_REQUEST_ENTRIES);
        let s = iommu.stats();
        assert_eq!(s.page_requests.requests, 16);
        assert_eq!(s.page_requests.dropped, 3);

        // Re-requesting the same range enqueues nothing new (dedup against
        // pending entries), but the tail pages still drop.
        let (queued2, dropped2) =
            iommu.enqueue_page_requests(&mem, 1, iova, group, false, Cycles::new(9));
        assert_eq!(queued2, 0);
        assert_eq!(dropped2, 3);

        // The requests pop in page order and skip the mapped page.
        let pages: Vec<u64> = std::iter::from_fn(|| iommu.pop_page_request())
            .map(|r| (r.iova.raw() - iova.raw()) / PAGE_SIZE)
            .collect();
        let expected: Vec<u64> = (0..17).filter(|&p| p != 2).collect();
        assert_eq!(pages, expected);
    }

    #[test]
    fn write_groups_request_upgrades_for_read_only_pages() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        let io_table = sva_vm::PageTable::create(&mut frames).unwrap();
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), io_table.root())
            .unwrap();
        // Map one page read-only into the device table.
        let va = sva_common::VirtAddr::new(0x4000_0000);
        let pa = frames.alloc_frame().unwrap();
        io_table
            .map_page(&mut mem, &mut frames, va, pa, sva_vm::PteFlags::user_ro())
            .unwrap();
        let iova = Iova::from_virt(va);
        // A read group has nothing to request: the page is accessible.
        let (queued, _) = iommu.enqueue_page_requests(&mem, 1, iova, 1, false, Cycles::ZERO);
        assert_eq!(queued, 0, "resident readable page needs no read request");
        // A write group must request the page so the host can upgrade the
        // mapping — a permission fault is serviceable, not just a missing
        // page.
        let (queued, _) = iommu.enqueue_page_requests(&mem, 1, iova, 1, true, Cycles::ZERO);
        assert_eq!(queued, 1, "read-only page needs a write page-request");
        let req = iommu.pop_page_request().unwrap();
        assert!(req.is_write);
    }

    #[test]
    fn serviced_page_requests_feed_the_latency_statistics() {
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        iommu.note_page_request_serviced(Cycles::new(100), Cycles::new(500));
        iommu.note_page_request_serviced(Cycles::new(200), Cycles::new(400));
        iommu.note_page_request_serviced(Cycles::new(900), Cycles::new(1_000));
        let s = iommu.stats();
        assert_eq!(s.page_requests.serviced, 3);
        let service = s.page_requests.service_time;
        assert!((service.mean() - (400.0 + 200.0 + 100.0) / 3.0).abs() < 1e-9);
        assert_eq!((service.min(), service.max()), (Some(100), Some(400)));
        assert!(s.page_request_p99 >= s.page_request_p50);
        iommu.reset_stats();
        assert_eq!(iommu.stats().page_requests, PageRequestStats::default());
    }

    #[test]
    fn demand_paging_faults_bypass_the_fault_queue() {
        let (mut mem, mut frames, space, _) = setup();
        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            ..IommuConfig::default()
        });
        iommu
            .attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root())
            .unwrap();
        assert!(iommu
            .translate_at(&mut mem, 1, Iova::new(0x7F00_0000), false, Cycles::ZERO)
            .is_err());
        assert_eq!(
            iommu.pending_faults(),
            0,
            "recoverable faults are reported through the page-request path"
        );
    }
}
