//! Lockstep identity property suite for the two-level backing store.
//!
//! [`SparseMemory`] (two-level frame table + generation-tagged memo + typed
//! single-frame fast paths) must be **observation-identical** to the
//! [`NaiveSparseMemory`] reference (the original per-frame hash-map engine,
//! kept in `reference/backing.rs`) on every operation: identical read-back
//! bytes, identical typed values, identical error outcomes and identical
//! resident-frame accounting. The suite drives both engines through
//! `DeterministicRng` operation sequences covering
//!
//! * generic reads/writes of random lengths, biased to land on and straddle
//!   frame boundaries and 2 MiB leaf edges,
//! * the typed `u64`/`f32` accessor pairs on aligned, unaligned and
//!   straddling offsets,
//! * `fill` with zero and non-zero values (the zero-fill-of-absent-frames
//!   no-op spec fix applies to both engines),
//! * periodic `clear` (generation bump on the indexed engine),
//! * out-of-bounds attempts at the end of the store, asserting both engines
//!   reject them,
//!
//! in windows around the offsets the platform uses: the start of DRAM, the
//! 64 MiB user pool, the 1 GiB reserved pool and the 2 GiB end, and the
//! whole 1 MiB scratchpad store. The lockstep runs on stores with a private
//! frame pool and on stores attached to a [`FramePool`] that earlier stores
//! left full of non-zero frames, where every byte no op wrote must still
//! read zero. It proves the harness has teeth by catching a store with the
//! stale-memo bug injected ([`StaleMemoStore`]) and a store whose pool
//! recycles frames without zero-filling them ([`UnzeroedRecycling`]).

#[path = "reference/backing.rs"]
mod reference;

use std::collections::BTreeSet;
use std::rc::Rc;

use reference::NaiveSparseMemory;
use sva_common::rng::DeterministicRng;
use sva_common::{Result, PAGE_SIZE};
use sva_mem::{FramePool, SparseMemory};

const MIB: u64 = 1 << 20;

/// Bytes one leaf of the frame table covers.
const LEAF: u64 = 2 * MIB;

/// Half-width of the window the lockstep works in around each anchor.
const REACH: u64 = 8 * PAGE_SIZE;

/// A stretch of a store the lockstep works in, around one anchor offset.
#[derive(Copy, Clone)]
struct Window {
    lo: u64,
    anchor: u64,
    hi: u64,
}

/// A store's capacity and the windows the lockstep works in.
struct Layout {
    capacity: u64,
    windows: Vec<Window>,
}

impl Layout {
    /// Windows of `REACH` bytes on either side of each anchor, clipped to
    /// the store.
    fn new(capacity: u64, anchors: &[u64]) -> Self {
        let windows = anchors
            .iter()
            .map(|&anchor| Window {
                lo: anchor.saturating_sub(REACH),
                anchor,
                hi: (anchor + REACH).min(capacity),
            })
            .collect();
        Self { capacity, windows }
    }

    /// The 2 GiB DRAM store: the start of DRAM and the leaf edges after it,
    /// the user pool at 64 MiB, the reserved pool at 1 GiB and the leaf
    /// after it, and the end of DRAM. Every anchor is a leaf edge.
    fn dram() -> Self {
        let gib = 1024 * MIB;
        Self::new(
            2 * gib,
            &[0, LEAF, 2 * LEAF, 64 * MIB, gib, gib + LEAF, 2 * gib],
        )
    }

    /// The 1 MiB scratchpad store, which lies inside one leaf.
    fn scratchpad() -> Self {
        Self::new(MIB, &[0, MIB / 2, MIB])
    }

    /// Picks an offset with `room` bytes after it inside one window. Half
    /// of the draws land within ±8 bytes of a frame edge (the window's
    /// anchor for a third of those), so straddles and edge-exact accesses
    /// are exercised constantly, not occasionally.
    fn pick(&self, rng: &mut DeterministicRng, room: u64) -> u64 {
        let w = self.windows[rng.next_below(self.windows.len() as u64) as usize];
        let max = w.hi - room;
        let edge = match rng.next_below(6) {
            0 => w.anchor,
            1 | 2 => w.lo + PAGE_SIZE * (1 + rng.next_below((w.hi - w.lo) / PAGE_SIZE - 1)),
            _ => return w.lo + rng.next_below(max - w.lo + 1),
        };
        (edge + rng.next_below(17))
            .saturating_sub(8)
            .clamp(w.lo, max)
    }

    /// Every frame the windows overlap.
    fn frames(&self) -> BTreeSet<u64> {
        self.windows
            .iter()
            .flat_map(|w| w.lo / PAGE_SIZE..w.hi.div_ceil(PAGE_SIZE))
            .collect()
    }
}

/// What the lockstep drives: the two-level store, or a mutant standing in
/// for it. Reads, accounting and validation go to the store itself.
trait Store {
    fn store(&self) -> &SparseMemory;
    fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()>;
    fn write_u64(&mut self, offset: u64, value: u64) -> Result<u64>;
    fn write_f32(&mut self, offset: u64, value: f32) -> Result<()>;
    fn fill(&mut self, offset: u64, len: u64, value: u8) -> Result<()>;
    fn clear(&mut self);
}

impl Store for SparseMemory {
    fn store(&self) -> &SparseMemory {
        self
    }
    fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        SparseMemory::write(self, offset, buf)
    }
    fn write_u64(&mut self, offset: u64, value: u64) -> Result<u64> {
        SparseMemory::write_u64(self, offset, value)
    }
    fn write_f32(&mut self, offset: u64, value: f32) -> Result<()> {
        SparseMemory::write_f32(self, offset, value)
    }
    fn fill(&mut self, offset: u64, len: u64, value: u8) -> Result<()> {
        SparseMemory::fill(self, offset, len, value)
    }
    fn clear(&mut self) {
        SparseMemory::clear(self);
    }
}

/// Runs one random operation against both engines and asserts every
/// observable agrees. Returns a digest contribution so the caller can prove
/// the sequence actually touched data.
fn lockstep_op(
    rng: &mut DeterministicRng,
    layout: &Layout,
    indexed: &mut impl Store,
    naive: &mut NaiveSparseMemory,
) -> u64 {
    let mut digest = 0u64;
    match rng.next_below(10) {
        // Generic write of a random chunk (1..=200 bytes, boundary-biased).
        0..=2 => {
            let offset = layout.pick(rng, 200);
            let len = 1 + rng.next_below(200) as usize;
            let seed = rng.next_below(u64::MAX);
            let buf: Vec<u8> = (0..len).map(|i| (seed as usize + i) as u8).collect();
            indexed.write(offset, &buf).unwrap();
            naive.write(offset, &buf).unwrap();
        }
        // Generic read + byte-for-byte compare.
        3..=4 => {
            let offset = layout.pick(rng, 200);
            let len = 1 + rng.next_below(200) as usize;
            let mut a = vec![0u8; len];
            let mut b = vec![0xFFu8; len];
            indexed.store().read(offset, &mut a).unwrap();
            naive.read(offset, &mut b).unwrap();
            assert_eq!(a, b, "read divergence at offset {offset} len {len}");
            digest = a
                .iter()
                .fold(digest, |d, &x| d.wrapping_mul(31).wrapping_add(x as u64));
        }
        // Typed u64 pair: write on one draw, read-compare on the next.
        5 => {
            let offset = layout.pick(rng, 8);
            if rng.next_below(2) == 0 {
                let v = rng.next_below(u64::MAX);
                assert_eq!(
                    indexed.write_u64(offset, v).unwrap(),
                    naive.write_u64(offset, v).unwrap()
                );
            } else {
                let a = indexed.store().read_u64(offset).unwrap();
                let b = naive.read_u64(offset).unwrap();
                assert_eq!(a, b, "u64 divergence at offset {offset}");
                digest = digest.wrapping_mul(31).wrapping_add(a);
            }
        }
        // Typed f32 pair (bit-compared: NaN payloads must survive).
        6 => {
            let offset = layout.pick(rng, 4);
            if rng.next_below(2) == 0 {
                let v = f32::from_bits(rng.next_below(u64::MAX) as u32);
                indexed.write_f32(offset, v).unwrap();
                naive.write_f32(offset, v).unwrap();
            } else {
                let a = indexed.store().read_f32(offset).unwrap().to_bits();
                let b = naive.read_f32(offset).unwrap().to_bits();
                assert_eq!(a, b, "f32 divergence at offset {offset}");
                digest = digest.wrapping_mul(31).wrapping_add(a as u64);
            }
        }
        // Fill — zero half the time, so the absent-frame no-op spec fix is
        // continuously cross-checked against the resident accounting below.
        7 => {
            let len = 1 + rng.next_below(3 * PAGE_SIZE);
            let offset = layout.pick(rng, len);
            let value = if rng.next_below(2) == 0 {
                0
            } else {
                rng.next_below(256) as u8
            };
            indexed.fill(offset, len, value).unwrap();
            naive.fill(offset, len, value).unwrap();
        }
        // Out-of-bounds attempts: both engines must reject, neither may
        // mutate (resident accounting is compared after every op).
        8 => {
            let end = layout.capacity;
            let offset = end - rng.next_below(16);
            let len = 32usize;
            let mut buf = vec![0u8; len];
            assert!(indexed.store().read(offset, &mut buf).is_err());
            assert!(naive.read(offset, &mut buf).is_err());
            assert!(indexed.write(offset, &buf).is_err());
            assert!(naive.write(offset, &buf).is_err());
            assert!(indexed.store().read_u64(end - 4).is_err());
            assert!(naive.read_u64(end - 4).is_err());
        }
        // Rare clear: resets contents and bumps the indexed generation, so
        // stale-memo coverage spans clears.
        _ => {
            if rng.next_below(8) == 0 {
                indexed.clear();
                naive.clear();
            }
        }
    }
    let store = indexed.store();
    assert_eq!(
        store.resident_frames(),
        naive.resident_frames(),
        "resident_frames divergence"
    );
    assert_eq!(
        store.resident_bytes(),
        naive.resident_bytes(),
        "resident_bytes divergence"
    );
    store.debug_validate();
    digest
}

/// Drives `ops` lockstep operations from `seed` on `indexed`, an empty
/// store of the layout's capacity; returns the read digest.
fn run_lockstep(seed: u64, ops: usize, layout: &Layout, indexed: &mut impl Store) -> u64 {
    let mut rng = DeterministicRng::new(seed);
    let mut naive = NaiveSparseMemory::new(layout.capacity);
    let mut digest = 0u64;
    for _ in 0..ops {
        digest = digest.wrapping_add(lockstep_op(&mut rng, layout, indexed, &mut naive));
    }
    // Final sweep: every frame the lockstep can reach must agree
    // byte-for-byte, including frames only one engine might have
    // materialized.
    let indexed = indexed.store();
    let mut a = vec![0u8; PAGE_SIZE as usize];
    let mut b = vec![0u8; PAGE_SIZE as usize];
    let mut resident = 0;
    for frame in layout.frames() {
        indexed.read(frame * PAGE_SIZE, &mut a).unwrap();
        naive.read(frame * PAGE_SIZE, &mut b).unwrap();
        assert_eq!(a, b, "final sweep divergence in frame {frame}");
        resident += usize::from(a.iter().any(|&x| x != 0));
    }
    assert!(
        resident <= indexed.resident_frames(),
        "nonzero frames outside the resident set"
    );
    indexed.debug_validate();
    digest
}

const SEEDS: [u64; 4] = [11, 23, 47, 8191];

#[test]
fn two_level_store_is_identical_to_naive_reference() {
    for layout in [Layout::dram(), Layout::scratchpad()] {
        let mut total = 0u64;
        for seed in SEEDS {
            let mut store = SparseMemory::new(layout.capacity);
            total = total.wrapping_add(run_lockstep(seed, 4000, &layout, &mut store));
        }
        // The digest must be non-zero: a sequence that never read data back
        // would vacuously pass, so prove the suite actually observed contents.
        assert_ne!(total, 0, "lockstep sequences never observed any data");
    }
}

/// What a dropped store left in the frames it hands back.
const STALE: u8 = 0xA5;

/// A pool that an earlier store left full of non-zero frames: one per
/// frame the layout reaches, every byte [`STALE`].
fn dirty_pool(layout: &Layout) -> Rc<FramePool> {
    let pool = Rc::new(FramePool::default());
    let mut earlier = SparseMemory::new(layout.capacity);
    earlier.attach_pool(&pool);
    for frame in layout.frames() {
        earlier.fill(frame * PAGE_SIZE, PAGE_SIZE, STALE).unwrap();
    }
    drop(earlier);
    assert_eq!(
        pool.spare_frames(),
        layout.frames().len(),
        "every frame kept"
    );
    pool
}

/// A store attached to a pool of dirty frames is as observation-identical
/// to the reference as a store on fresh frames: bytes no op wrote read
/// zero, and the resident accounting counts only the frames the store
/// materialised.
#[test]
fn stores_on_recycled_frames_are_identical_to_naive_reference() {
    for layout in [Layout::dram(), Layout::scratchpad()] {
        for seed in SEEDS {
            let pool = dirty_pool(&layout);
            let mut store = SparseMemory::new(layout.capacity);
            store.attach_pool(&pool);
            run_lockstep(seed, 4000, &layout, &mut store);
            assert!(
                pool.spare_frames() < layout.frames().len(),
                "seed {seed}: the store took recycled frames"
            );
            // Dropping the store hands its frames back; the pool keeps as
            // many as the store held.
            let held = store.resident_frames();
            drop(store);
            assert_eq!(pool.spare_frames(), held, "seed {seed}");
        }
    }
}

/// Every window of the DRAM layout receives writes, so the lockstep spans
/// the leaf edges, both pools and the end of DRAM rather than a few of them.
#[test]
fn lockstep_reaches_every_window() {
    let layout = Layout::dram();
    let mut rng = DeterministicRng::new(11);
    let mut hits = vec![0usize; layout.windows.len()];
    for _ in 0..4000 {
        let offset = layout.pick(&mut rng, 200);
        let w = layout
            .windows
            .iter()
            .position(|w| (w.lo..=w.hi - 200).contains(&offset))
            .expect("offset inside a window with room after it");
        hits[w] += 1;
    }
    assert!(hits.iter().all(|&h| h > 100), "{hits:?}");
}

/// The two-level store with the stale-memo bug injected: once a read has
/// found a frame absent, reads of that frame keep serving zeros until a read
/// of another frame replaces the memo, even after a write has materialised
/// it. The real memo never goes stale this way, because the write that
/// materialises a frame refreshes it.
struct StaleMemoStore {
    store: SparseMemory,
    written: BTreeSet<u64>,
    /// The frame the last read found absent, if it found one.
    absent_memo: Option<u64>,
}

impl StaleMemoStore {
    fn read_u64(&mut self, offset: u64) -> Result<u64> {
        let frame = offset / PAGE_SIZE;
        if self.absent_memo == Some(frame) {
            return Ok(0);
        }
        self.absent_memo = (!self.written.contains(&frame)).then_some(frame);
        self.store.read_u64(offset)
    }

    fn write_u64(&mut self, offset: u64, value: u64) -> Result<u64> {
        // The bug: materialising the frame leaves the memo untouched.
        self.written.insert(offset / PAGE_SIZE);
        self.store.write_u64(offset, value)
    }
}

#[test]
fn lockstep_catches_injected_stale_memo() {
    // Teeth: drive the exact staleness window through the lockstep
    // comparators. A read of an absent frame memoises "absent", a write
    // then materialises the frame, and the read-back is served from the
    // stale memo: zeros instead of the written bytes. The suite must detect
    // this the moment such a store stands in for the two-level engine.
    const CAPACITY: u64 = 64 * PAGE_SIZE;
    let caught = std::panic::catch_unwind(|| {
        let mut indexed = StaleMemoStore {
            store: SparseMemory::new(CAPACITY),
            written: BTreeSet::new(),
            absent_memo: None,
        };
        let mut naive = NaiveSparseMemory::new(CAPACITY);
        for frame in 0..CAPACITY / PAGE_SIZE {
            let offset = frame * PAGE_SIZE + 8;
            // 1. Observe the absent frame (both engines agree: zero).
            assert_eq!(
                indexed.read_u64(offset).unwrap(),
                naive.read_u64(offset).unwrap()
            );
            // 2. Materialise it with a nonzero value on both engines.
            indexed.write_u64(offset, 0xDEAD_BEEF_0000 + frame).unwrap();
            naive.write_u64(offset, 0xDEAD_BEEF_0000 + frame).unwrap();
            // 3. Lockstep read-back: the stale memo serves zeros.
            assert_eq!(
                indexed.read_u64(offset).unwrap(),
                naive.read_u64(offset).unwrap(),
                "stale-memo divergence in frame {frame}"
            );
        }
    })
    .is_err();
    assert!(
        caught,
        "lockstep suite failed to catch the injected stale-memo bug"
    );
}

/// The two-level store behind a pool that recycles frames without
/// zero-filling them: a frame it materialises still holds the bytes a
/// dropped store left in it ([`STALE`]), under whatever the op writes.
struct UnzeroedRecycling {
    store: SparseMemory,
    /// The frames materialised since the last clear.
    resident: BTreeSet<u64>,
}

impl UnzeroedRecycling {
    /// Materialises every absent frame of `offset..offset + len` with stale
    /// bytes, as the write that follows would from the faulty pool.
    fn recycle(&mut self, offset: u64, len: u64) {
        for frame in offset / PAGE_SIZE..(offset + len).div_ceil(PAGE_SIZE) {
            if self.resident.insert(frame) {
                self.store
                    .fill(frame * PAGE_SIZE, PAGE_SIZE, STALE)
                    .unwrap();
            }
        }
    }
}

impl Store for UnzeroedRecycling {
    fn store(&self) -> &SparseMemory {
        &self.store
    }
    fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        if offset.saturating_add(buf.len() as u64) <= self.store.capacity() {
            self.recycle(offset, buf.len() as u64);
        }
        self.store.write(offset, buf)
    }
    fn write_u64(&mut self, offset: u64, value: u64) -> Result<u64> {
        self.recycle(offset, 8);
        self.store.write_u64(offset, value)
    }
    fn write_f32(&mut self, offset: u64, value: f32) -> Result<()> {
        self.recycle(offset, 4);
        self.store.write_f32(offset, value)
    }
    fn fill(&mut self, offset: u64, len: u64, value: u8) -> Result<()> {
        // A zero fill materialises nothing, so only a non-zero one recycles.
        if value != 0 {
            self.recycle(offset, len);
        }
        self.store.fill(offset, len, value)
    }
    fn clear(&mut self) {
        self.resident.clear();
        self.store.clear();
    }
}

/// Teeth for the zero-fill: the lockstep, unchanged, catches a store
/// whose recycled frames keep a dropped store's bytes.
#[test]
fn lockstep_catches_recycling_without_zero_fill() {
    for layout in [Layout::dram(), Layout::scratchpad()] {
        let caught = std::panic::catch_unwind(|| {
            let mut mutant = UnzeroedRecycling {
                store: SparseMemory::new(layout.capacity),
                resident: BTreeSet::new(),
            };
            run_lockstep(SEEDS[0], 4000, &layout, &mut mutant);
        })
        .is_err();
        assert!(
            caught,
            "lockstep suite failed to catch frames recycled without a zero fill"
        );
    }
}

#[test]
fn reference_engine_roundtrip_and_zero_fill_no_op() {
    let mut mem = NaiveSparseMemory::new(1 << 20);
    let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
    mem.write(PAGE_SIZE - 100, &data).unwrap();
    let mut back = vec![0u8; 10_000];
    mem.read(PAGE_SIZE - 100, &mut back).unwrap();
    assert_eq!(back, data);
    assert_eq!(mem.resident_frames(), 4);
    mem.clear();
    mem.fill(0, 1 << 20, 0).unwrap();
    assert_eq!(mem.resident_frames(), 0, "spec fix applies to the twin");
    mem.write_u64(8, 0x77).unwrap();
    assert_eq!(mem.read_u64(8).unwrap(), 0x77);
    assert!(mem.read_u64((1 << 20) - 4).is_err());
}
