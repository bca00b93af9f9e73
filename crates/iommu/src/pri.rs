//! The ATS/PRI-style page-request interface.
//!
//! With demand paging enabled (`IommuConfig::demand_paging`), an IO page
//! fault is no longer a terminal error: the faulting device issues a
//! **page-request group** — the faulting page plus the remaining pages of
//! the transfer it is about to touch — into the IOMMU's bounded
//! page-request queue, stalls, and retries once the host driver has made
//! the pages resident. The pieces of that loop are split across the
//! workspace the same way the real stack is:
//!
//! * the **queue** and its overflow accounting live on the [`crate::Iommu`],
//!   which builds them only with demand paging (a
//!   [`crate::queues::BoundedQueue`] of
//!   [`crate::queues::PAGE_REQUEST_ENTRIES`] [`crate::queues::PageRequest`]s;
//!   a full queue drops the request, which the device answers with
//!   [`PAGE_REQUEST_BACKOFF`]);
//! * the **host side** is abstracted as the [`PageRequestHandler`] trait
//!   defined here. `sva_host::driver::FaultServicer` implements it: it
//!   drains the queue, maps each page into the device's IO page table —
//!   touching the page-table memory through the **timed** memory system as
//!   host-initiated fabric traffic — and answers with one **group
//!   response** whose completion time the device resumes at;
//! * the **device side** is [`recover_page_faults`], the stall-and-retry
//!   loop the cluster's DMA engine runs around each burst translation and
//!   its executor around each tile's address-generation pre-pass.
//!
//! A handler drains the whole queue on every call, so the faulting page,
//! the first of its group, always enters an empty queue and is serviced:
//! the retry either succeeds or faults again because the host marked the
//! page failed. A fault that repeats on the access just serviced is
//! therefore terminal.
//!
//! Per-request service latency (request issue → group response) is
//! accumulated on the IOMMU ([`PageRequestStats`]) and surfaced through
//! `IommuStats`, including approximate percentiles from a latency
//! histogram.

use sva_common::stats::RunningStats;
use sva_common::{Cycles, Error, Result};
use sva_mem::MemorySystem;

use crate::iommu::Iommu;

/// Extra stall a device serves after its page-request group overflowed the
/// queue (the dropped tail must re-fault and re-request).
pub const PAGE_REQUEST_BACKOFF: Cycles = Cycles::new(1_000);

/// Host-side servicing of the IOMMU's page-request queue.
///
/// Implementors model the host driver's IO-page-fault handler. A call must
/// drain the queue completely and answer with a single group response; the
/// returned cycle is the global-clock time at which that response reaches
/// the device, i.e. the earliest time a faulting DMA engine may retry.
pub trait PageRequestHandler {
    /// Services every pending page request, starting at global-clock cycle
    /// `now` (the faulting device's current time).
    ///
    /// # Errors
    ///
    /// Propagates memory-system failures; an *unresolvable* request (the
    /// host itself has no mapping for the page) is not an error — it is
    /// marked failed on the IOMMU, and the device's retry faults again and
    /// becomes the terminal [`sva_common::Error::IoPageFault`].
    fn service(&mut self, mem: &mut MemorySystem, iommu: &mut Iommu, now: Cycles)
        -> Result<Cycles>;
}

/// Runs a device's `attempt` until it succeeds, recovering from each IO
/// page fault through the page-request path: the device enqueues a group
/// of `group_len` bytes from the faulting address, `handler` services it,
/// and the device retries once the group response arrives, plus
/// [`PAGE_REQUEST_BACKOFF`] when the group overflowed the queue and at
/// least one cycle after the fault. The first fault is serviced at `now`,
/// each later one when the stall so far has passed.
///
/// Returns the attempt's value, the cycles the device stalled and the
/// number of faults it recovered from.
///
/// # Errors
///
/// A fault is terminal without demand paging, without a handler, or when
/// it repeats on the access whose page request was just serviced. Under
/// demand paging a terminal fault is recorded on the fault queue first
/// (the IOMMU routed it to the page-request path). Errors other than IO
/// page faults, and the handler's, propagate unchanged.
pub fn recover_page_faults<T>(
    mem: &mut MemorySystem,
    iommu: &mut Iommu,
    mut handler: Option<&mut (dyn PageRequestHandler + '_)>,
    device_id: u32,
    group_len: u64,
    now: Cycles,
    mut attempt: impl FnMut(&mut MemorySystem, &mut Iommu) -> Result<T>,
) -> Result<(T, Cycles, u64)> {
    let mut stall = Cycles::ZERO;
    let mut faults = 0;
    let mut serviced = None;
    loop {
        let (iova, is_write) = match attempt(mem, iommu) {
            Ok(value) => return Ok((value, stall, faults)),
            Err(Error::IoPageFault { iova, is_write }) => (iova, is_write),
            Err(other) => return Err(other),
        };
        let recoverable = iommu.demand_paging() && serviced != Some((iova, is_write));
        let Some(handler) = handler.as_deref_mut().filter(|_| recoverable) else {
            if iommu.demand_paging() {
                iommu.record_terminal_fault(device_id, iova, is_write);
            }
            return Err(Error::IoPageFault { iova, is_write });
        };
        let t = now + stall;
        let (_, dropped) =
            iommu.enqueue_page_requests(mem, device_id, iova, group_len, is_write, t);
        let mut resume = handler.service(mem, iommu, t)?;
        if dropped > 0 {
            resume += PAGE_REQUEST_BACKOFF;
        }
        stall += resume.max(t + Cycles::new(1)) - t;
        faults += 1;
        serviced = Some((iova, is_write));
    }
}

/// Accounting of the page-request path, kept by the [`Iommu`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PageRequestStats {
    /// Page requests accepted into the queue.
    pub requests: u64,
    /// Page requests dropped at the full queue (the device backs off and
    /// re-faults).
    pub dropped: u64,
    /// Group responses the host produced.
    pub group_responses: u64,
    /// Requests resolved by mapping the page.
    pub serviced: u64,
    /// Requests the host could not resolve (no backing host mapping).
    pub failed: u64,
    /// Per-request service latency: request issue → group-response
    /// completion.
    pub service_time: RunningStats,
}
