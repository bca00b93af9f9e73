//! IOMMU command, fault and page-request queues.
//!
//! The RISC-V IOMMU is programmed through in-memory circular queues: the
//! **command queue**, through which the driver issues invalidation and fence
//! commands, the **fault queue**, through which the IOMMU reports IO page
//! faults back to the driver, and — when demand paging is enabled — the
//! **page-request queue** (the ATS/PRI model), through which a device asks
//! the host to make pages resident instead of aborting on a translation
//! fault. The model applies each [`Command`] as the IOMMU receives it
//! (`Iommu::process_command`) and keeps the fault and page-request queues
//! as bounded FIFOs; a full queue **drops** the entry and counts the drop
//! ([`BoundedQueue::dropped`]), which is exactly the overflow behaviour the
//! specification defines (and, for the page-request queue, what forces the
//! requesting device into retry backoff).

use std::collections::VecDeque;

use sva_common::{Cycles, Iova};

/// Capacity of the fault queue, the prototype's 64 entries. A record is
/// pushed only for a terminal fault, and a platform run stops at its first.
pub const FAULT_QUEUE_ENTRIES: usize = 64;

/// Capacity of the page-request queue of a demand-paging IOMMU; a full
/// queue drops requests and the device answers with retry backoff
/// ([`crate::pri::PAGE_REQUEST_BACKOFF`]).
pub const PAGE_REQUEST_ENTRIES: usize = 16;

/// Commands accepted by the IOMMU command queue (the subset used by the
/// Linux driver for first-stage translation).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `IOTINVAL.VMA` — invalidate IOTLB entries. `None` fields mean
    /// "all" (global invalidation).
    IotlbInvalidate {
        /// Restrict the invalidation to one device's address space.
        device_id: Option<u32>,
        /// Restrict the invalidation to one page.
        iova: Option<Iova>,
    },
    /// `IODIR.INVAL_DDT` — invalidate the device-context cache.
    DdtInvalidate,
    /// `IOFENCE.C` — completion fence; the driver waits for it before
    /// considering previous commands globally visible.
    Fence,
}

/// Why a fault was recorded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultReason {
    /// No valid leaf PTE for the IOVA.
    PageNotMapped,
    /// Leaf PTE present but the access type is not permitted.
    PermissionDenied,
    /// The device has no valid device context.
    DeviceNotConfigured,
}

/// One record in the fault queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Device that caused the fault.
    pub device_id: u32,
    /// Faulting IO virtual address.
    pub iova: Iova,
    /// Whether the faulting access was a write.
    pub is_write: bool,
    /// Classification of the fault.
    pub reason: FaultReason,
}

/// One entry in the page-request queue: a device asking the host to make a
/// page resident (the ATS/PRI "Page Request" message). The faulting DMA
/// engine enqueues a **group** of these — the faulting page plus the rest
/// of the transfer it is about to touch — then stalls until the host's
/// group response (see `crate::pri`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PageRequest {
    /// Device that needs the page.
    pub device_id: u32,
    /// Faulting IO virtual address (the page base is what gets mapped).
    pub iova: Iova,
    /// Whether the blocked access is a write.
    pub is_write: bool,
    /// Global-clock cycle the device issued the request; the difference to
    /// the group response's completion is the request's service latency.
    pub issued_at: Cycles,
}

/// A bounded FIFO used for all three queues.
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    entries: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an entry; if the queue is full the entry is **dropped** and
    /// the drop counter incremented (matching the IOMMU's queue-overflow
    /// behaviour). Callers must not ignore the `false` return when the
    /// entry carries state the producer needs delivered — the `Iommu`
    /// surfaces the counters through its statistics so lost records are
    /// always observable.
    pub fn push(&mut self, entry: T) -> bool {
        if self.entries.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.entries.push_back(entry);
        true
    }

    /// Removes and returns the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        self.entries.pop_front()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries the queue can hold.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries dropped because the queue was full.
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Resets the drop counter (a statistics reset; entries are preserved).
    pub fn reset_dropped(&mut self) {
        self.dropped = 0;
    }

    /// Iterates over queued entries from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert!(q.is_empty());
        for i in 0..3 {
            assert!(q.push(i));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        q.reset_dropped();
        assert_eq!(q.dropped(), 0);
        assert_eq!(q.len(), 2, "resetting the counter keeps the entries");
    }

    #[test]
    fn command_and_fault_types_are_constructible() {
        let cmd = Command::IotlbInvalidate {
            device_id: Some(1),
            iova: None,
        };
        assert_ne!(cmd, Command::Fence);
        let fault = FaultRecord {
            device_id: 1,
            iova: Iova::new(0x1000),
            is_write: true,
            reason: FaultReason::PageNotMapped,
        };
        assert_eq!(fault.reason, FaultReason::PageNotMapped);
    }
}
