//! Splitting of DMA transfers into AXI bursts.
//!
//! The AXI specification requires that a burst never crosses a 4 KiB address
//! boundary and never exceeds 256 beats. The cluster DMA engine therefore
//! chops a large 1-D transfer into a sequence of bursts; when the IOMMU is
//! enabled, **each burst that starts on a new page** needs a fresh IOTLB
//! lookup, and a miss serialises the burst behind a multi-access page-table
//! walk. This is the microarchitectural mechanism behind the bandwidth loss
//! quantified in Section IV-B of the paper.

use core::iter::FusedIterator;

use sva_common::{PhysAddr, PAGE_SIZE};

/// A single AXI burst: a contiguous transfer that respects the 4 KiB boundary
/// rule and the maximum burst length.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Burst {
    /// Start address of the burst. For DMA through the IOMMU this is an IO
    /// virtual address reinterpreted as a bus address prior to translation.
    pub addr: PhysAddr,
    /// Length of the burst in bytes (1 ..= max burst bytes).
    pub len: u64,
}

impl Burst {
    /// One past the last byte of the burst.
    pub const fn end(&self) -> PhysAddr {
        PhysAddr::new(self.addr.raw() + self.len)
    }
}

/// The burst decomposition of one DMA transfer: an iterator that yields the
/// bursts in issue order, computing each from the transfer's remaining
/// bytes, so no transfer allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BurstPlan {
    /// Start of the next burst.
    next: PhysAddr,
    /// Bytes not yet yielded.
    remaining: u64,
    max_burst_bytes: u64,
}

impl BurstPlan {
    /// Splits a transfer of `len` bytes starting at `addr` into bursts of at
    /// most `max_burst_bytes` bytes that never cross a 4 KiB boundary.
    ///
    /// A zero-length transfer produces an empty plan.
    ///
    /// # Panics
    ///
    /// Panics if `max_burst_bytes` is zero.
    pub fn split(addr: PhysAddr, len: u64, max_burst_bytes: u64) -> Self {
        assert!(max_burst_bytes > 0, "maximum burst size must be non-zero");
        Self {
            next: addr,
            remaining: len,
            max_burst_bytes,
        }
    }

    /// Total number of bytes the remaining bursts carry.
    pub const fn total_bytes(&self) -> u64 {
        self.remaining
    }

    /// Number of distinct 4 KiB pages the remaining bursts touch — an upper
    /// bound on the number of IOTLB lookups the transfer can miss on.
    pub fn pages_touched(&self) -> u64 {
        if self.remaining == 0 {
            return 0;
        }
        let last = self.next + (self.remaining - 1);
        last.page_number() - self.next.page_number() + 1
    }
}

impl Iterator for BurstPlan {
    type Item = Burst;

    fn next(&mut self) -> Option<Burst> {
        if self.remaining == 0 {
            return None;
        }
        let to_page_end = PAGE_SIZE - self.next.page_offset();
        let len = self.remaining.min(self.max_burst_bytes).min(to_page_end);
        let burst = Burst {
            addr: self.next,
            len,
        };
        self.next += len;
        self.remaining -= len;
        Some(burst)
    }
}

impl FusedIterator for BurstPlan {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_transfer_is_empty() {
        let mut plan = BurstPlan::split(PhysAddr::new(0x8000_0000), 0, 2048);
        assert_eq!(plan.total_bytes(), 0);
        assert_eq!(plan.pages_touched(), 0);
        assert_eq!(plan.next(), None);
    }

    #[test]
    fn aligned_transfer_splits_at_max_burst() {
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0000), 8192, 2048);
        assert_eq!(plan.total_bytes(), 8192);
        assert_eq!(plan.pages_touched(), 2);
        let lens: Vec<u64> = plan.map(|b| b.len).collect();
        assert_eq!(lens, [2048; 4]);
    }

    #[test]
    fn bursts_never_cross_page_boundaries() {
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0F00), 5 * 1024, 2048);
        assert_eq!(plan.total_bytes(), 5 * 1024);
        for b in plan.clone() {
            let last = b.end() - 1u64;
            assert_eq!(
                b.addr.page_number(),
                last.page_number(),
                "burst {b:?} crosses a page boundary"
            );
            assert!(b.len <= 2048);
        }
        // 0x0F00..0x1000 (256 B), then 2048, 2048, then remainder 768.
        let lens: Vec<u64> = plan.map(|b| b.len).collect();
        assert_eq!(lens, [256, 2048, 2048, 768]);
    }

    #[test]
    fn new_page_flags_mark_translation_points() {
        // 2 pages, burst size = 1 KiB -> 8 bursts, translations at burst 0 and 4.
        let plan = BurstPlan::split(PhysAddr::new(0x8000_0000), 8192, 1024);
        let flags: Vec<bool> = plan
            .scan(None, |prev: &mut Option<Burst>, b| {
                let new_page =
                    prev.is_none_or(|p| (p.end() - 1u64).page_number() != b.addr.page_number());
                *prev = Some(b);
                Some(new_page)
            })
            .collect();
        assert_eq!(
            flags,
            vec![true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn small_unaligned_transfer_single_burst() {
        let mut plan = BurstPlan::split(PhysAddr::new(0x8000_0123), 64, 2048);
        assert_eq!(plan.pages_touched(), 1);
        let only = plan.next().expect("one burst");
        assert_eq!((only.addr, only.len), (PhysAddr::new(0x8000_0123), 64));
        assert_eq!(plan.next(), None);
        assert_eq!(plan.next(), None, "the plan stays exhausted");
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn zero_max_burst_panics() {
        let _ = BurstPlan::split(PhysAddr::new(0), 64, 0);
    }
}
