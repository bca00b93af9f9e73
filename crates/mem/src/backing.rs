//! Sparse functional byte storage.
//!
//! The simulated platform exposes a 2 GiB DRAM and a 1 MiB scratchpad, but a
//! benchmark run only ever touches a few megabytes of them. [`SparseMemory`]
//! stores contents in 4 KiB frames allocated on first touch so the simulator
//! never reserves the full address space. Unwritten bytes read as zero,
//! matching zero-initialised DRAM on the FPGA after the bitstream is loaded.
//!
//! The store is a **two-level frame table**. The top level, indexed by
//! `offset >> 21`, is a lazily grown vector of leaves; a leaf, allocated on
//! the first write inside its 2 MiB, holds 512 thin frame pointers
//! (`Option<Box<[u8; 4096]>>`, 8 bytes each), indexed by the frame's
//! position within the leaf. Locating a frame is two dependent indexed
//! loads, and the table costs 4 KiB per touched 2 MiB plus 8 bytes per
//! 2 MiB below the highest touched offset: a write at the 1 GiB reserved
//! pool adds about 8 KiB, not a table entry for every frame below it. (The
//! per-frame hash engine lives on in `tests/reference/backing.rs`, the
//! executable reference the lockstep suite `tests/backing_identity.rs` runs
//! this store against.) A generation-tagged last-frame memo carries
//! cross-call locality — a sequential DMA burst touches the same frame for
//! 64 beats in a row — and the typed accessors ([`SparseMemory::read_u64`]
//! & friends) take a single-frame fast path whenever the access does not
//! straddle a frame boundary, which holds for every aligned PTE fetch,
//! page-table write and kernel element access.
//!
//! Frames come from a [`FramePool`], a shared list of spare frames. A store
//! materialises each new frame from its pool, zero-filled, and allocates
//! one only when the pool is empty; when it is dropped or cleared it hands
//! every frame back, and the pool then keeps at most as many spares as the
//! store held. A store attached to a pool that already holds frames of its
//! own leaves that many fewer spares in it
//! ([`SparseMemory::attach_pool`]). Each store starts with a private pool,
//! which behaves like plain allocation. A sweep that boots one platform
//! per point attaches one shared pool to each point's DRAM store
//! ([`crate::MemorySystem::attach_frame_pool`]), so a point reuses the
//! frames of the point before it instead of faulting fresh heap pages in,
//! while the spares and the attached store's frames together never
//! outnumber the larger of the two points. The spares are freed with the
//! pool.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use sva_common::{Error, Result, PAGE_SIZE};

/// Frame index of an offset (`offset >> 12`).
const FRAME_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

/// Offset within a frame (`offset & 0xFFF`).
const FRAME_MASK: u64 = PAGE_SIZE - 1;

/// Bytes per frame.
const FRAME_BYTES: usize = PAGE_SIZE as usize;

/// Leaf index of a frame index (`frame >> 9`): one leaf covers 2 MiB.
const LEAF_SHIFT: u32 = 9;

/// Frames per leaf.
const LEAF_FRAMES: usize = 1 << LEAF_SHIFT;

/// Position of a frame within its leaf (`frame & 0x1FF`).
const LEAF_MASK: u64 = LEAF_FRAMES as u64 - 1;

/// One resident frame.
type Frame = Box<[u8; FRAME_BYTES]>;

/// The frames of one 2 MiB span; absent (`None`) frames read as zero.
type Leaf = [Option<Frame>; LEAF_FRAMES];

/// Spare frames shared by the stores attached to it (see the module doc).
/// A store takes its new frames from here before it allocates, and hands
/// them all back when it is dropped or cleared.
#[derive(Default)]
pub struct FramePool {
    spare: RefCell<Vec<Frame>>,
}

impl FramePool {
    /// Number of spare frames the pool holds.
    pub fn spare_frames(&self) -> usize {
        self.spare.borrow().len()
    }

    /// A zero-filled frame: a spare one while the pool holds any, else a
    /// freshly allocated one.
    #[inline(never)]
    fn take(&self) -> Frame {
        match self.spare.borrow_mut().pop() {
            Some(mut frame) => {
                frame.fill(0);
                frame
            }
            None => vec![0u8; FRAME_BYTES]
                .into_boxed_slice()
                .try_into()
                .expect("frame-sized allocation"),
        }
    }
}

impl fmt::Debug for FramePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FramePool")
            .field("spare_frames", &self.spare_frames())
            .finish()
    }
}

/// The last-frame memo: remembers the presence of the most recently probed
/// frame so a run of accesses to the same frame (sequential DMA beats,
/// back-to-back PTE fetches into one table page) skips re-probing the frame
/// table. Tagged with the store's generation so [`SparseMemory::clear`]
/// invalidates it wholesale.
#[derive(Copy, Clone, Debug)]
struct FrameMemo {
    /// Generation of the store this memo was taken in.
    generation: u64,
    /// The memoised frame index.
    frame: u64,
    /// Whether that frame was resident. Frames never *become* absent except
    /// through [`SparseMemory::clear`] (which bumps the generation), so a
    /// `true` memo stays true; a `false` memo is refreshed by the write that
    /// materialises the frame.
    present: bool,
}

/// Frame-granular sparse byte store of a fixed capacity, laid out as a
/// two-level frame table.
#[derive(Clone, Debug)]
pub struct SparseMemory {
    /// Top level of the frame table, indexed by leaf and grown lazily to
    /// the highest written leaf. Absent leaves and beyond-the-end leaves
    /// read as zero.
    leaves: Vec<Option<Box<Leaf>>>,
    /// Number of resident (allocated) frames.
    resident: usize,
    capacity: u64,
    /// Bumped by [`SparseMemory::clear`]; tags [`FrameMemo`] validity.
    generation: u64,
    memo: Cell<FrameMemo>,
    /// Where new frames come from and where dropped ones go.
    pool: Rc<FramePool>,
}

impl SparseMemory {
    /// Creates a store covering offsets `0..capacity`, with a private
    /// frame pool.
    pub fn new(capacity: u64) -> Self {
        Self {
            leaves: Vec::new(),
            resident: 0,
            capacity,
            generation: 1,
            // Generation 0 never matches a live store, so the initial memo
            // is inert.
            memo: Cell::new(FrameMemo {
                generation: 0,
                frame: 0,
                present: false,
            }),
            pool: Rc::default(),
        }
    }

    /// Takes new frames from `pool`, and hands every frame back to it on
    /// drop or [`SparseMemory::clear`], instead of using the current pool.
    /// Resident frames stay resident; contents do not change.
    ///
    /// The pool's spares stand for the frames of the store dropped last,
    /// and this store holds its resident frames already, so the pool frees
    /// that many spares: spares and resident frames together never
    /// outnumber the larger of the two stores.
    pub fn attach_pool(&mut self, pool: &Rc<FramePool>) {
        let mut spare = pool.spare.borrow_mut();
        let keep = spare.len().saturating_sub(self.resident);
        spare.truncate(keep);
        drop(spare);
        self.pool = Rc::clone(pool);
    }

    /// The pool this store takes its frames from.
    pub fn pool(&self) -> &Rc<FramePool> {
        &self.pool
    }

    /// Capacity in bytes.
    pub const fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of frames that have been touched (allocated) so far.
    pub fn resident_frames(&self) -> usize {
        self.resident
    }

    /// Resident (allocated) bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident as u64 * PAGE_SIZE
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(Error::OutOfBounds {
                addr: sva_common::PhysAddr::new(offset),
                len,
            });
        }
        Ok(())
    }

    /// The resident frame at `idx`, if any, straight from the table.
    #[inline]
    fn frame(&self, idx: u64) -> Option<&[u8]> {
        let leaf = self.leaves.get((idx >> LEAF_SHIFT) as usize)?.as_deref()?;
        leaf[(idx & LEAF_MASK) as usize].as_deref().map(|f| &f[..])
    }

    /// The resident frame at `idx`, if any, going through the last-frame
    /// memo: a memo hit answers presence without touching the frame table;
    /// a miss probes the table and refreshes the memo.
    #[inline]
    fn frame_memoized(&self, idx: u64) -> Option<&[u8]> {
        let memo = self.memo.get();
        if memo.generation == self.generation && memo.frame == idx {
            if !memo.present {
                return None;
            }
            return self.frame(idx);
        }
        let data = self.frame(idx);
        self.memo.set(FrameMemo {
            generation: self.generation,
            frame: idx,
            present: data.is_some(),
        });
        data
    }

    /// The frame at `idx`, materialising it (and its leaf, growing the top
    /// level) if absent. Refreshes a memo that recorded this frame as
    /// absent.
    #[inline]
    fn frame_mut(&mut self, idx: u64) -> &mut [u8] {
        let leaf_idx = (idx >> LEAF_SHIFT) as usize;
        if leaf_idx >= self.leaves.len() {
            self.leaves.resize_with(leaf_idx + 1, || None);
        }
        let leaf =
            self.leaves[leaf_idx].get_or_insert_with(|| Box::new([const { None }; LEAF_FRAMES]));
        let slot = &mut leaf[(idx & LEAF_MASK) as usize];
        if slot.is_none() {
            self.resident += 1;
            self.memo.set(FrameMemo {
                generation: self.generation,
                frame: idx,
                present: true,
            });
        }
        &mut slot.get_or_insert_with(|| self.pool.take())[..]
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_range(offset, buf.len() as u64)?;
        let in_frame = (offset & FRAME_MASK) as usize;
        // Single-frame fast path: one copy, no chunk loop.
        if in_frame + buf.len() <= FRAME_BYTES {
            match self.frame_memoized(offset >> FRAME_SHIFT) {
                Some(data) => buf.copy_from_slice(&data[in_frame..in_frame + buf.len()]),
                None => buf.fill(0),
            }
            return Ok(());
        }
        let mut done = 0usize;
        while done < buf.len() {
            let cur = offset + done as u64;
            let in_frame = (cur & FRAME_MASK) as usize;
            let chunk = (buf.len() - done).min(FRAME_BYTES - in_frame);
            match self.frame_memoized(cur >> FRAME_SHIFT) {
                Some(data) => {
                    buf[done..done + chunk].copy_from_slice(&data[in_frame..in_frame + chunk]);
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
        Ok(())
    }

    /// Writes `buf` starting at `offset`, allocating frames as needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        self.check_range(offset, buf.len() as u64)?;
        let mut done = 0usize;
        while done < buf.len() {
            let cur = offset + done as u64;
            let in_frame = (cur & FRAME_MASK) as usize;
            let chunk = (buf.len() - done).min(FRAME_BYTES - in_frame);
            let data = self.frame_mut(cur >> FRAME_SHIFT);
            data[in_frame..in_frame + chunk].copy_from_slice(&buf[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `offset` (used for page-table entries).
    ///
    /// Takes the single-frame fast path when the access does not straddle a
    /// frame boundary — always, for the 8-byte-aligned PTE fetches of the
    /// page-table walker.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn read_u64(&self, offset: u64) -> Result<u64> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 8 <= FRAME_BYTES {
            self.check_range(offset, 8)?;
            return Ok(match self.frame_memoized(offset >> FRAME_SHIFT) {
                Some(data) => u64::from_le_bytes(
                    data[in_frame..in_frame + 8]
                        .try_into()
                        .expect("8-byte slice"),
                ),
                None => 0,
            });
        }
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn write_u64(&mut self, offset: u64, value: u64) -> Result<u64> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 8 <= FRAME_BYTES {
            self.check_range(offset, 8)?;
            let data = self.frame_mut(offset >> FRAME_SHIFT);
            data[in_frame..in_frame + 8].copy_from_slice(&value.to_le_bytes());
            return Ok(value);
        }
        self.write(offset, &value.to_le_bytes())?;
        Ok(value)
    }

    /// Reads a little-endian `f32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn read_f32(&self, offset: u64) -> Result<f32> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 4 <= FRAME_BYTES {
            self.check_range(offset, 4)?;
            return Ok(match self.frame_memoized(offset >> FRAME_SHIFT) {
                Some(data) => f32::from_le_bytes(
                    data[in_frame..in_frame + 4]
                        .try_into()
                        .expect("4-byte slice"),
                ),
                None => 0.0,
            });
        }
        let mut b = [0u8; 4];
        self.read(offset, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Writes a little-endian `f32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    #[inline]
    pub fn write_f32(&mut self, offset: u64, value: f32) -> Result<()> {
        let in_frame = (offset & FRAME_MASK) as usize;
        if in_frame + 4 <= FRAME_BYTES {
            self.check_range(offset, 4)?;
            let data = self.frame_mut(offset >> FRAME_SHIFT);
            data[in_frame..in_frame + 4].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        self.write(offset, &value.to_le_bytes())
    }

    /// Fills `len` bytes starting at `offset` with `value`.
    ///
    /// Zero-filling a frame that was never touched is a no-op: absent frames
    /// already read as zero, so no frame is materialised and
    /// [`SparseMemory::resident_frames`] does not grow.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the range exceeds the capacity.
    pub fn fill(&mut self, offset: u64, len: u64, value: u8) -> Result<()> {
        self.check_range(offset, len)?;
        let mut done = 0u64;
        while done < len {
            let cur = offset + done;
            let in_frame = (cur & FRAME_MASK) as usize;
            let n = ((len - done) as usize).min(FRAME_BYTES - in_frame);
            let idx = cur >> FRAME_SHIFT;
            if value != 0 || self.frame(idx).is_some() {
                self.frame_mut(idx)[in_frame..in_frame + n].fill(value);
            }
            done += n as u64;
        }
        Ok(())
    }

    /// Drops all contents, returning the store to the all-zero state. The
    /// frames go back to the pool.
    pub fn clear(&mut self) {
        self.release_frames();
        // Invalidate every outstanding memo wholesale.
        self.generation += 1;
    }

    /// Hands every resident frame back to the pool, which then keeps at
    /// most as many spares as the store held, and empties the table.
    fn release_frames(&mut self) {
        let keep = self.resident;
        let mut spare = self.pool.spare.borrow_mut();
        spare.truncate(keep);
        for leaf in self.leaves.iter_mut().flatten() {
            for frame in leaf.iter_mut().filter_map(Option::take) {
                if spare.len() < keep {
                    spare.push(frame);
                }
            }
        }
        self.leaves.clear();
        self.resident = 0;
    }

    /// Checks the store's internal invariants: the resident counter matches
    /// the frame table and a present memo points at a resident frame.
    ///
    /// # Panics
    ///
    /// Panics when the frame table is inconsistent.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let live = self
            .leaves
            .iter()
            .flatten()
            .map(|leaf| leaf.iter().flatten().count())
            .sum::<usize>();
        assert_eq!(live, self.resident, "resident counter out of sync");
        let memo = self.memo.get();
        if memo.generation == self.generation && memo.present {
            assert!(
                self.frame(memo.frame).is_some(),
                "memo marks absent frame {} present",
                memo.frame
            );
        }
    }
}

impl Drop for SparseMemory {
    fn drop(&mut self) {
        self.release_frames();
    }
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = SparseMemory::new(1 << 20);
        let mut buf = [0xFFu8; 16];
        mem.read(0x1234, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_frame_boundary() {
        let mut mem = SparseMemory::new(1 << 20);
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        mem.write(PAGE_SIZE - 100, &data).unwrap();
        let mut back = vec![0u8; 10_000];
        mem.read(PAGE_SIZE - 100, &mut back).unwrap();
        assert_eq!(back, data);
        // 3996..13996 touches frames 0 through 3.
        assert_eq!(mem.resident_frames(), 4);
        assert_eq!(mem.resident_bytes(), 4 * PAGE_SIZE);
        mem.debug_validate();
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut mem = SparseMemory::new(4096);
        assert!(mem.write(4090, &[0u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert!(mem.read(4095, &mut buf).is_err());
        assert!(mem.read(u64::MAX, &mut buf).is_err());
        // Exactly at the end is fine.
        assert!(mem.write(4088, &[1u8; 8]).is_ok());
    }

    #[test]
    fn u64_and_f32_accessors() {
        let mut mem = SparseMemory::new(1 << 16);
        mem.write_u64(0x100, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(mem.read_u64(0x100).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        mem.write_f32(0x200, 3.5).unwrap();
        assert_eq!(mem.read_f32(0x200).unwrap(), 3.5);
    }

    #[test]
    fn typed_accessors_handle_frame_straddles() {
        let mut mem = SparseMemory::new(1 << 16);
        // 8-byte value split 3/5 across the frame-0/frame-1 boundary.
        mem.write_u64(PAGE_SIZE - 3, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(mem.read_u64(PAGE_SIZE - 3).unwrap(), 0x0123_4567_89AB_CDEF);
        // 4-byte value split 1/3.
        mem.write_f32(2 * PAGE_SIZE - 1, -7.25).unwrap();
        assert_eq!(mem.read_f32(2 * PAGE_SIZE - 1).unwrap(), -7.25);
        assert_eq!(mem.resident_frames(), 3);
        // Out-of-bounds straddles are rejected like everything else.
        assert!(mem.read_u64((1 << 16) - 4).is_err());
        mem.debug_validate();
    }

    #[test]
    fn fill_and_clear() {
        let mut mem = SparseMemory::new(1 << 16);
        mem.fill(100, 5000, 0xAB).unwrap();
        let mut buf = [0u8; 4];
        mem.read(4000, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 4]);
        mem.clear();
        mem.read(4000, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    /// Regression (the PR 10 satellite bugfix): a large zero fill of
    /// untouched memory must not materialise frames — sparseness is the
    /// point of the store, and `resident_frames` feeds the sparseness
    /// observability in the perf artifact.
    #[test]
    fn zero_fill_of_absent_frames_is_a_no_op() {
        let mut mem = SparseMemory::new(64 << 20);
        mem.fill(0, 32 << 20, 0).unwrap();
        assert_eq!(mem.resident_frames(), 0);
        assert_eq!(mem.resident_bytes(), 0);
        // A resident frame in the range is still zeroed by the fill.
        mem.write_u64(5 * PAGE_SIZE + 8, 0x55).unwrap();
        mem.fill(0, 32 << 20, 0).unwrap();
        assert_eq!(mem.read_u64(5 * PAGE_SIZE + 8).unwrap(), 0);
        assert_eq!(mem.resident_frames(), 1, "only the pre-touched frame");
        // Partial-frame zero fill over absent frames is also a no-op.
        mem.fill(10 * PAGE_SIZE + 100, 300, 0).unwrap();
        assert_eq!(mem.resident_frames(), 1);
        mem.debug_validate();
    }

    /// A write at the 1 GiB reserved pool allocates one 4 KiB leaf and a
    /// top level of 513 leaf pointers: KiB of table, where a table indexed
    /// by frame needs an entry for each of the 262,144 frames below it.
    #[test]
    fn a_frame_at_one_gib_allocates_kib_of_table() {
        assert_eq!(std::mem::size_of::<Option<Frame>>(), 8, "thin pointers");
        let mut mem = SparseMemory::new(2 << 30);
        mem.write_u64(1 << 30, 0x1234).unwrap();
        let top = mem.leaves.capacity() * std::mem::size_of::<Option<Box<Leaf>>>();
        let leaves = mem.leaves.iter().flatten().count() * std::mem::size_of::<Leaf>();
        assert_eq!(leaves, 4096, "one leaf");
        assert!(top + leaves <= 16 << 10, "{} bytes of table", top + leaves);
        assert_eq!(mem.resident_frames(), 1);
        assert_eq!(mem.read_u64(1 << 30).unwrap(), 0x1234);
        mem.debug_validate();
    }

    /// The memo survives interleaved reads and writes and is invalidated
    /// by `clear`.
    #[test]
    fn memo_stays_coherent_across_clear() {
        let mut mem = SparseMemory::new(1 << 16);
        assert_eq!(mem.read_u64(0x100).unwrap(), 0); // memoise frame 0 absent
        mem.write_u64(0x100, 7).unwrap(); // materialise + refresh memo
        assert_eq!(mem.read_u64(0x100).unwrap(), 7);
        mem.clear();
        assert_eq!(mem.read_u64(0x100).unwrap(), 0, "clear invalidates memo");
        mem.write_u64(0x100, 9).unwrap();
        assert_eq!(mem.read_u64(0x100).unwrap(), 9);
        mem.debug_validate();
    }
}
