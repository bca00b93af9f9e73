//! Physical frame allocation.
//!
//! The simulated Linux kernel needs physical 4 KiB frames for three purposes:
//! user pages backing `malloc`ed buffers, page-table pages for the process /
//! IOMMU page tables, and the physically contiguous buffers in the reserved
//! DRAM area used by the copy-based offload flow. [`FrameAllocator`] is a
//! simple bump allocator over a physical range; separate allocators are
//! instantiated for the Linux-managed half of DRAM and for the reserved
//! contiguous area.

use sva_axi::addrmap::{DRAM_BASE, DRAM_SIZE};
use sva_common::addr::PhysRange;
use sva_common::{Error, PhysAddr, Result, MIB, PAGE_SIZE};

/// A bump allocator handing out 4 KiB physical frames from a fixed range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameAllocator {
    range: PhysRange,
    next: PhysAddr,
    allocated_frames: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or `len` is not a multiple of the
    /// page size.
    pub fn new(base: PhysAddr, len: u64) -> Self {
        assert!(
            base.is_aligned(PAGE_SIZE),
            "frame pool base must be page-aligned"
        );
        assert!(
            len % PAGE_SIZE == 0,
            "frame pool length must be page-aligned"
        );
        Self {
            range: PhysRange::from_base_len(base, len),
            next: base,
            allocated_frames: 0,
        }
    }

    /// The allocator Linux uses for user pages and page tables in the paper's
    /// memory layout: the lower (Linux-managed) half of DRAM, minus the first
    /// 64 MiB which hold the kernel image and boot memory.
    pub fn linux_pool() -> Self {
        let base = PhysAddr::new(DRAM_BASE + 64 * MIB);
        Self::new(base, DRAM_SIZE / 2 - 64 * MIB)
    }

    /// The allocator for physically contiguous DMA buffers in the reserved
    /// upper half of DRAM (used by the copy-based offload flow).
    pub fn reserved_pool() -> Self {
        let base = PhysAddr::new(DRAM_BASE + DRAM_SIZE / 2);
        Self::new(base, DRAM_SIZE / 2)
    }

    /// The range this allocator manages.
    pub const fn range(&self) -> PhysRange {
        self.range
    }

    /// Number of frames handed out so far.
    pub const fn allocated_frames(&self) -> u64 {
        self.allocated_frames
    }

    /// Bytes still available.
    pub fn remaining_bytes(&self) -> u64 {
        self.range.end - self.next
    }

    /// Allocates one 4 KiB frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] when the pool is exhausted.
    pub fn alloc_frame(&mut self) -> Result<PhysAddr> {
        self.alloc_contiguous(1)
    }

    /// Allocates `frames` physically contiguous 4 KiB frames and returns the
    /// base address of the run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] when the pool cannot satisfy the
    /// request.
    pub fn alloc_contiguous(&mut self, frames: u64) -> Result<PhysAddr> {
        let bytes = frames * PAGE_SIZE;
        if self.remaining_bytes() < bytes {
            return Err(Error::OutOfMemory {
                what: "physical frame pool",
            });
        }
        let base = self.next;
        self.next += bytes;
        self.allocated_frames += frames;
        Ok(base)
    }

    /// Allocates enough contiguous frames to hold `bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] when the pool cannot satisfy the
    /// request.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Result<PhysAddr> {
        self.alloc_contiguous(bytes.div_ceil(PAGE_SIZE))
    }

    /// Releases every allocation, returning the pool to its initial state.
    /// Individual frees are not supported (the experiments build a fresh
    /// platform per run).
    pub fn reset(&mut self) {
        self.next = self.range.start;
        self.allocated_frames = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_page_aligned_and_disjoint() {
        let mut alloc = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let a = alloc.alloc_frame().unwrap();
        let b = alloc.alloc_frame().unwrap();
        assert!(a.is_aligned(PAGE_SIZE));
        assert!(b.is_aligned(PAGE_SIZE));
        assert_eq!(b - a, PAGE_SIZE);
        assert_eq!(alloc.allocated_frames(), 2);
    }

    #[test]
    fn contiguous_allocation_spans_requested_size() {
        let mut alloc = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let base = alloc.alloc_contiguous(16).unwrap();
        let after = alloc.alloc_frame().unwrap();
        assert_eq!(after - base, 16 * PAGE_SIZE);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut alloc = FrameAllocator::new(PhysAddr::new(0x8000_0000), 4 * PAGE_SIZE);
        assert!(alloc.alloc_contiguous(5).is_err());
        alloc.alloc_contiguous(4).unwrap();
        assert!(alloc.alloc_frame().is_err());
        alloc.reset();
        assert!(alloc.alloc_frame().is_ok());
    }

    #[test]
    fn alloc_bytes_rounds_up_to_pages() {
        let mut alloc = FrameAllocator::new(PhysAddr::new(0x8000_0000), 64 * PAGE_SIZE);
        let a = alloc.alloc_bytes(1).unwrap();
        let b = alloc.alloc_bytes(PAGE_SIZE + 1).unwrap();
        assert_eq!(b - a, PAGE_SIZE);
        let c = alloc.alloc_frame().unwrap();
        assert_eq!(c - b, 2 * PAGE_SIZE);
    }

    #[test]
    fn standard_pools_do_not_overlap() {
        let linux = FrameAllocator::linux_pool();
        let reserved = FrameAllocator::reserved_pool();
        assert!(!linux.range().overlaps(&reserved.range()));
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_base_rejected() {
        let _ = FrameAllocator::new(PhysAddr::new(0x8000_0010), PAGE_SIZE);
    }
}
