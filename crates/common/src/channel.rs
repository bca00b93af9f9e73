//! Bounded request/response channels and issue credits.
//!
//! The memory fabric of this simulator is call-driven: initiators present
//! accesses stamped with arrival times on the global clock rather than being
//! stepped cycle by cycle. A hardware FIFO therefore cannot be modelled as a
//! mutable ring buffer — entries are recorded in *simulation* order, which is
//! not time order (the shards of a multi-cluster offload all restart their
//! cursor at zero). [`TimedQueue`] models a bounded queue as an **occupancy
//! timeline** instead: every entry occupies the interval `[enter, exit)` on
//! the shared virtual timeline, the queue is *full at time `t`* when `depth`
//! entries cover `t`, and admission of a new entry arriving at `t` is delayed
//! to the earliest instant at which occupancy drops below the depth. The
//! delay is exactly the stall a master-side handshake would observe when the
//! channel FIFO is full.
//!
//! # The event-indexed engine
//!
//! The timeline is an ordered map of boundary events (`+1` delta at an
//! interval's enter, `−1` at its exit) that eagerly maintains the **running
//! prefix** of those deltas: each boundary stores the occupancy level
//! holding on `[boundary, next boundary)`. Every query locates once and
//! walks forward from there:
//!
//! * [`TimedQueue::occupancy_at`] locates the first boundary past `t` and
//!   reads the level of the one before it;
//! * [`TimedQueue::admit_at`] reads that same level and, while it is at the
//!   depth, walks boundaries forward until the level drops below it
//!   (occupancy only changes at a boundary, so the admission point is the
//!   arrival itself or a boundary). It returns the admission point and the
//!   level holding there; [`TimedQueue::admission_at`] keeps the first;
//! * [`TimedQueue::push`] admits with `admit_at` and splices the new
//!   interval in with one forward pass from its enter boundary: it raises
//!   every boundary in `[enter, exit)` by one level and inserts a missing
//!   enter or exit boundary at the position the pass has reached. The pass
//!   covers as many boundaries as the interval overlaps, which a bounded
//!   queue's depth keeps short. Callers that query admission first and
//!   commit later (the fabric reads both channel queues while it places a
//!   grant) hand the query's result to [`TimedQueue::push_admitted`].
//!
//! **Watermark compaction** ([`TimedQueue::compact_before`]) keeps memory
//! bounded inside a measurement window: when the caller can guarantee no
//! future arrival or query before an instant `w` (a monotone open-loop
//! arrival process), every boundary before `w` collapses into a single
//! base-occupancy constant. A cycle-exact linear-scan model lives in the
//! property suite's tree (`tests/reference/timed_queue.rs`), which drives
//! both on randomized batches.
//!
//! [`ReservationIndex`] is the sibling engine for the fabric's
//! **bus-reservation timelines**: overlapping, payload-carrying intervals
//! that the placement loop probes for conflicts. It keys reservations by
//! their *end* so finished history is invisible to the probe, and carries
//! the same watermark-compaction discipline (see its type docs).
//!
//! # Chunked maps with a finger
//!
//! Both engines keep their ordered map as a list of short sorted chunks. A
//! measurement window cannot be compacted while cluster shards restart
//! their cursors at zero, so these maps hold the whole window (tens of
//! thousands of entries). Each shard, though, sweeps them in time order,
//! so nearly every operation lands next to where the previous operation
//! on the same map ended. Each map therefore keeps a **finger** at that
//! position. A lookup checks first whether its key falls in the finger's
//! chunk — bounded by that chunk's first key and the next chunk's — and
//! then walks a few entries from the finger's index; only when either
//! check fails does it binary search the chunks' first keys and then the
//! chunk. The finger is a hint checked on every use, so a stale one costs
//! a search, never a wrong answer. Walks and inserts take the position a
//! lookup returned, so each operation on the grant path locates once:
//! admission reads its level and walks from one lookup, the splice inserts
//! its boundaries at the positions its pass reaches, and the reservation
//! probe walks from one lookup.
//!
//! The queues are plain values: the fabric owns one request and one
//! response queue per DRAM channel, so cloning a platform clones its queue
//! state with it and two clones never share credits.
//!
//! [`QueueDepths`] is the configuration vocabulary: a request-queue and a
//! response-queue depth, where [`QueueDepths::UNBOUNDED`] (`usize::MAX`)
//! reproduces the pure reservation model cycle-for-cycle (nothing ever
//! stalls, and the queue machinery is skipped entirely).

use core::cell::Cell;
use core::fmt;

/// Depth configuration of one channel's request and response queues.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QueueDepths {
    /// Request-queue depth (slots a grant occupies from admission until the
    /// bus starts serving it). `usize::MAX` means unbounded.
    pub req: usize,
    /// Response-queue depth (slots a completion occupies from its bus grant
    /// until the initiator retires it). `usize::MAX` means unbounded.
    pub rsp: usize,
}

impl QueueDepths {
    /// Unbounded queues: the pure reservation model, cycle-identical to the
    /// pre-split-transaction fabric.
    pub const UNBOUNDED: QueueDepths = QueueDepths {
        req: usize::MAX,
        rsp: usize::MAX,
    };

    /// Finite depths for both queues. Zero is passed through: a platform
    /// configuration rejects it.
    pub const fn bounded(req: usize, rsp: usize) -> QueueDepths {
        QueueDepths { req, rsp }
    }

    /// Whether both queues are unbounded (the default).
    pub const fn is_unbounded(&self) -> bool {
        self.req == usize::MAX && self.rsp == usize::MAX
    }

    /// Stable label for tables and JSON output (`inf` or `req/rsp`).
    pub fn label(&self) -> String {
        if self.is_unbounded() {
            "inf".to_string()
        } else {
            let part = |d: usize| {
                if d == usize::MAX {
                    "inf".to_string()
                } else {
                    d.to_string()
                }
            };
            format!("{}/{}", part(self.req), part(self.rsp))
        }
    }
}

impl Default for QueueDepths {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

impl fmt::Display for QueueDepths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One boundary event of the indexed occupancy timeline.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Boundary {
    /// Net interval enters minus exits at exactly this instant (the raw
    /// delta of the event index; kept so the maintained prefix below is
    /// checkable — see [`TimedQueue::debug_validate`]).
    delta: i32,
    /// The maintained running prefix: occupancy holding on
    /// `[this boundary, next boundary)`.
    occ: u32,
}

/// Entries per chunk of a [`ChunkMap`] before it splits in two.
const CHUNK: usize = 64;

/// Keys a [`ChunkMap`] lookup steps over from the finger, either way,
/// before it falls back to a binary search of the chunk.
const WALK: usize = 4;

/// A position in a [`ChunkMap`]: entry `i` of chunk `c`. `i` may equal the
/// chunk's length, the gap before the next chunk's first entry.
#[derive(Copy, Clone, Debug, Default)]
struct Pos {
    c: usize,
    i: usize,
}

/// An ordered map stored as a list of short sorted chunks of entries, with
/// a finger at the position where the last operation ended.
///
/// A lookup ([`ChunkMap::locate`]) first checks the finger: when the key
/// falls in the finger's chunk (the chunk's first key and the next chunk's
/// first key bound it), it walks at most [`WALK`] entries from the
/// finger's index. Otherwise it binary searches the chunks' first keys (a
/// small contiguous array) and then the chunk. Walks and inserts take the
/// position a lookup returned, so an operation that locates once reads,
/// walks and inserts without searching again.
#[derive(Clone, Debug)]
struct ChunkMap<K, V> {
    /// First key of each chunk; chunks are non-empty, sorted and disjoint.
    firsts: Vec<K>,
    chunks: Vec<Vec<(K, V)>>,
    len: usize,
    /// Where the last operation ended: only a hint, checked on every use,
    /// so a stale finger costs a search and never a wrong answer.
    finger: Cell<Pos>,
}

impl<K, V> Default for ChunkMap<K, V> {
    fn default() -> Self {
        Self {
            firsts: Vec::new(),
            chunks: Vec::new(),
            len: 0,
            finger: Cell::default(),
        }
    }
}

impl<K: Copy + Ord, V: Copy> ChunkMap<K, V> {
    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.firsts.clear();
        self.chunks.clear();
        self.len = 0;
        self.finger.set(Pos::default());
    }

    /// Whether chunk `c` holds `k` or would receive it: it is the last
    /// chunk whose first key is at or below `k`, or the first chunk.
    fn owns(&self, c: usize, k: K) -> bool {
        c < self.chunks.len()
            && (c == 0 || self.firsts[c] <= k)
            && self.firsts.get(c + 1).is_none_or(|&next| k < next)
    }

    /// The position of the first entry whose key is at or above `k`: where
    /// `k` is held or would be inserted. Leaves the finger there.
    fn locate(&self, k: K) -> Pos {
        let f = self.finger.get();
        let pos = if self.owns(f.c, k) {
            Pos {
                c: f.c,
                i: seek(&self.chunks[f.c], f.i, k),
            }
        } else {
            let c = self.firsts.partition_point(|&x| x <= k).saturating_sub(1);
            let i = self
                .chunks
                .get(c)
                .map_or(0, |ch| ch.partition_point(|e| e.0 < k));
            Pos { c, i }
        };
        self.finger.set(pos);
        pos
    }

    /// The entry at `pos`, if any.
    fn get_mut(&mut self, pos: Pos) -> Option<&mut (K, V)> {
        match self.chunks.get(pos.c) {
            // The gap at a chunk's end is the next chunk's first entry.
            Some(ch) if pos.i == ch.len() => self.chunks.get_mut(pos.c + 1)?.first_mut(),
            _ => self.chunks.get_mut(pos.c)?.get_mut(pos.i),
        }
    }

    /// The entry just before `pos`.
    fn before(&self, pos: Pos) -> Option<&(K, V)> {
        match pos.i.checked_sub(1) {
            Some(i) => self.chunks.get(pos.c)?.get(i),
            None => self.chunks.get(pos.c.checked_sub(1)?)?.last(),
        }
    }

    /// Every entry from `pos` on, in order, each with its position.
    fn walk(&self, pos: Pos) -> impl Iterator<Item = (Pos, &(K, V))> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .skip(pos.c)
            .flat_map(move |(c, ch)| {
                let from = if c == pos.c { pos.i } else { 0 };
                (from..)
                    .zip(&ch[from..])
                    .map(move |(i, e)| (Pos { c, i }, e))
            })
    }

    /// Applies `f` to every entry from `pos` on, in order, until it returns
    /// `false`; returns the position of the entry it stopped at (the end of
    /// the last chunk if it never stopped).
    fn update_from(&mut self, mut pos: Pos, mut f: impl FnMut(&mut (K, V)) -> bool) -> Pos {
        while let Some(ch) = self.chunks.get_mut(pos.c) {
            while let Some(e) = ch.get_mut(pos.i) {
                if !f(e) {
                    return pos;
                }
                pos.i += 1;
            }
            if pos.c + 1 == self.chunks.len() {
                break;
            }
            pos = Pos { c: pos.c + 1, i: 0 };
        }
        pos
    }

    /// Inserts an entry at `pos`, which must be where [`ChunkMap::locate`]
    /// places `k` (a key the map does not hold). Returns the entry's
    /// position and leaves the finger there.
    fn insert_at(&mut self, pos: Pos, k: K, v: V) -> Pos {
        debug_assert!(self.before(pos).is_none_or(|e| e.0 < k), "unsorted insert");
        self.len += 1;
        if self.chunks.is_empty() {
            self.firsts.push(k);
            self.chunks.push(chunk(&[(k, v)]));
            self.finger.set(Pos::default());
            return Pos::default();
        }
        let Pos { c, i } = pos;
        let ch = &mut self.chunks[c];
        debug_assert!(ch.get(i).is_none_or(|e| k < e.0), "unsorted insert");
        ch.insert(i, (k, v));
        if i == 0 {
            self.firsts[c] = k;
        }
        let mut at = pos;
        if ch.len() > CHUNK {
            let half = ch.len() / 2;
            let upper = chunk(&ch[half..]);
            ch.truncate(half);
            self.firsts.insert(c + 1, upper[0].0);
            self.chunks.insert(c + 1, upper);
            if i >= half {
                at = Pos {
                    c: c + 1,
                    i: i - half,
                };
            }
        }
        self.finger.set(at);
        at
    }

    /// Inserts an entry under a key the map does not hold.
    fn insert(&mut self, k: K, v: V) {
        let pos = self.locate(k);
        self.insert_at(pos, k, v);
    }

    /// Removes every entry with a key below `w`; returns how many were
    /// removed and the value of the last of them.
    fn drain_before(&mut self, w: K) -> (usize, Option<V>) {
        if self.chunks.is_empty() {
            return (0, None);
        }
        let pos = self.locate(w);
        let last = self.before(pos).map(|e| e.1);
        let Pos { c, i } = pos;
        let removed = self.chunks[..c].iter().map(Vec::len).sum::<usize>() + i;
        self.chunks.drain(..c);
        self.firsts.drain(..c);
        let head = &mut self.chunks[0];
        head.drain(..i);
        match head.first() {
            Some(e) => self.firsts[0] = e.0,
            None => {
                self.chunks.remove(0);
                self.firsts.remove(0);
            }
        }
        self.finger.set(Pos::default());
        self.len -= removed;
        (removed, last)
    }

    /// Every entry, in order.
    fn iter(&self) -> impl Iterator<Item = &(K, V)> + '_ {
        self.chunks.iter().flatten()
    }
}

/// A new chunk holding `entries`, with room to grow to its split size.
fn chunk<E: Copy>(entries: &[E]) -> Vec<E> {
    let mut ch = Vec::with_capacity(CHUNK + 1);
    ch.extend_from_slice(entries);
    ch
}

/// The index of the first of the sorted `entries` whose key is at or above
/// `k`, found by walking at most [`WALK`] entries either way from `from`,
/// else by a binary search.
fn seek<K: Copy + Ord, V>(entries: &[(K, V)], from: usize, k: K) -> usize {
    let mut i = from.min(entries.len());
    for _ in 0..WALK {
        if i > 0 && entries[i - 1].0 >= k {
            i -= 1;
        } else if i < entries.len() && entries[i].0 < k {
            i += 1;
        } else {
            return i;
        }
    }
    entries.partition_point(|e| e.0 < k)
}

/// A bounded queue modelled as an event-indexed occupancy timeline.
///
/// Entries may be recorded in any order of `enter` times (simulation order is
/// not time order); occupancy at an instant is the number of recorded
/// intervals covering it. Admission of an arrival at `t` is the earliest
/// `a >= t` at which occupancy is below the configured depth. With
/// `depth == usize::MAX` admission is always immediate and no entries are
/// recorded, so the unbounded queue costs nothing.
///
/// See the module documentation for the engine: boundary deltas with an
/// eagerly maintained running prefix in an ordered map, plus watermark
/// compaction ([`TimedQueue::compact_before`]).
#[derive(Clone, Debug, Default)]
pub struct TimedQueue {
    depth: usize,
    /// Whether intervals are recorded at all. Bounded queues always record
    /// (admission needs the history); unbounded queues default to not
    /// recording — they can never stall, so the bookkeeping would be pure
    /// overhead — unless built with [`TimedQueue::unbounded_recording`]
    /// (an observable in-flight record like the walker's MSHR occupancy).
    record: bool,
    /// The event index: boundary instant → (delta, occupancy level on the
    /// half-open span up to the next boundary).
    timeline: ChunkMap<u64, Boundary>,
    /// Occupancy holding below the earliest retained boundary: 0 until
    /// compaction folds finished history into it.
    base: u32,
    /// Everything before this instant has been compacted away; the caller
    /// guaranteed no arrival or query below it. Queries below the watermark
    /// are clamped to it (they read the folded base constant).
    watermark: u64,
    /// Latest exit among the recorded entries: queries at or past it cannot
    /// be covered by anything, which keeps the common "arrival beyond the
    /// backlog" case O(1) (arrivals are not monotone, so unsolicited pruning
    /// by time is impossible — compaction needs the caller's watermark).
    max_exit: u64,
    /// Boundary events folded away by watermark compaction.
    compacted_events: u64,
    /// Total admission delay accumulated across all pushes.
    stall_cycles: u64,
    /// Entries admitted.
    admissions: u64,
}

impl TimedQueue {
    /// Creates a queue of the given depth (0 is clamped to 1;
    /// `usize::MAX` means unbounded).
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            record: depth != usize::MAX,
            ..Self::default()
        }
    }

    /// An unbounded queue that still records every interval, so in-flight
    /// occupancy is observable ([`TimedQueue::occupancy_at`]) even though
    /// nothing can ever stall. Pushes and occupancy queries ride the same
    /// O(log n) index as bounded queues.
    pub fn unbounded_recording() -> Self {
        Self {
            depth: usize::MAX,
            record: true,
            ..Self::default()
        }
    }

    /// The configured depth.
    pub const fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the queue is unbounded (depth `usize::MAX`).
    pub const fn is_unbounded(&self) -> bool {
        self.depth == usize::MAX
    }

    /// The occupancy level holding just before the boundary at `pos`: the
    /// level of the boundary before it, or the folded base.
    fn level_before(&self, pos: Pos) -> u32 {
        self.timeline.before(pos).map_or(self.base, |(_, b)| b.occ)
    }

    /// Number of recorded intervals covering `t`.
    ///
    /// Queries below the compaction watermark read the folded base constant
    /// (the caller promised not to ask about compacted history).
    pub fn occupancy_at(&self, t: u64) -> usize {
        let t = t.max(self.watermark);
        // Non-recording queues never raise `max_exit` above zero.
        if t >= self.max_exit {
            return 0;
        }
        // `t < max_exit`, so `t + 1` cannot overflow: the level holding at
        // `t` is the one before the first boundary past it.
        self.level_before(self.timeline.locate(t + 1)) as usize
    }

    /// The combined covering query: the earliest instant at or after `t` at
    /// which a new entry can be admitted **and** the occupancy already
    /// holding at that instant, found in one walk of the event index.
    ///
    /// Occupancy only changes at a boundary, so the admission point is
    /// either `t` itself or the first later boundary whose level is below
    /// the depth; the walk reads the level as it goes. The map's finger is
    /// left at the admission point, where [`TimedQueue::push_admitted`]
    /// splices the entry in.
    pub fn admit_at(&self, t: u64) -> (u64, usize) {
        let t = t.max(self.watermark);
        if t >= self.max_exit {
            // Every recorded interval has closed by `t` (the trailing
            // boundary's level is 0), so nothing covers it.
            return (t, 0);
        }
        // One locate finds the first boundary past `t`; the level holding
        // at `t` is the one before it, and the walk goes on from there. The
        // trailing boundary's level is 0, so the walk always ends admitted.
        let first = self.timeline.locate(t + 1);
        let (mut at, mut level, mut end) = (t, self.level_before(first), first);
        for (pos, &(k, b)) in self.timeline.walk(first) {
            if (level as usize) < self.depth {
                break;
            }
            (at, level, end) = (k, b.occ, pos);
        }
        debug_assert!((level as usize) < self.depth, "occupancy never dropped");
        self.timeline.finger.set(end);
        (at, level as usize)
    }

    /// Earliest instant at or after `t` at which a new entry can be
    /// admitted (occupancy below the depth). Pure query — nothing is
    /// recorded.
    pub fn admission_at(&self, t: u64) -> u64 {
        self.admit_at(t).0
    }

    /// Splices the interval `[enter, exit)` into the index in one forward
    /// pass from one locate, given the occupancy `level` holding at `enter`
    /// before the new entry (what [`TimedQueue::admit_at`] reports): every
    /// boundary the interval covers gains one level, existing
    /// `enter`/`exit` boundaries take the `+1`/`−1` delta, and missing ones
    /// are inserted where the pass stands, seeded with the levels read on
    /// the way. Returns the occupancy at `enter` including the new entry.
    fn splice(&mut self, enter: u64, exit: u64, level: u32) -> usize {
        debug_assert!(enter < exit, "intervals occupy at least one cycle");
        debug_assert!(enter >= self.watermark, "insert below the watermark");
        let timeline = &mut self.timeline;
        let mut entered = timeline.locate(enter);
        // The enter boundary takes the `+1` delta; a missing one is inserted
        // at the level holding there, and the walk below raises it.
        match timeline.get_mut(entered) {
            Some((k, b)) if *k == enter => b.delta += 1,
            _ => {
                let boundary = Boundary {
                    delta: 1,
                    occ: level,
                };
                entered = timeline.insert_at(entered, enter, boundary);
            }
        }
        // Every boundary in `[enter, exit)` gains one level; the last level
        // read, without the new entry, is the one holding just before `exit`.
        let mut before_exit = level;
        let pos = timeline.update_from(entered, |(k, b)| {
            if *k >= exit {
                return false;
            }
            before_exit = b.occ;
            b.occ += 1;
            true
        });
        match timeline.get_mut(pos) {
            Some((k, b)) if *k == exit => b.delta -= 1,
            _ => {
                let exited = Boundary {
                    delta: -1,
                    occ: before_exit,
                };
                timeline.insert_at(pos, exit, exited);
            }
        }
        // Leave the finger on the enter boundary: the same stream's next
        // arrival most likely lands just past it, inside this entry.
        timeline.finger.set(entered);
        self.max_exit = self.max_exit.max(exit);
        level as usize + 1
    }

    /// Admits an entry arriving at `enter` that holds its slot until `exit`
    /// (clamped to occupy at least one cycle past admission). Returns the
    /// admission time and the occupancy including the new entry.
    pub fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let admission = self.admit_at(enter);
        self.stall_cycles += admission.0 - enter;
        (admission.0, self.push_admitted(admission, exit))
    }

    /// Records an entry at an admission point found by
    /// [`TimedQueue::admit_at`]: `admission` is that query's result, with
    /// no push in between. The entry holds its slot until `exit` (clamped
    /// to occupy at least one cycle). Returns the occupancy including the
    /// new entry.
    ///
    /// The second half of [`TimedQueue::push`], for callers that decide
    /// where an entry goes before committing it; no stall is accounted
    /// (the caller knows the original arrival).
    pub fn push_admitted(&mut self, admission: (u64, usize), exit: u64) -> usize {
        debug_assert_eq!(self.admit_at(admission.0), admission, "stale admission");
        self.admissions += 1;
        if !self.record {
            // Nothing can ever stall and nobody queries occupancy of a
            // non-recording unbounded queue: skip the bookkeeping entirely
            // so the default configuration costs nothing.
            return 0;
        }
        let (enter, level) = admission;
        self.splice(enter, exit.max(enter + 1), level as u32)
    }

    /// Folds every boundary event before `w` into the base-occupancy
    /// constant, bounding the index's memory inside a measurement window.
    ///
    /// The caller guarantees no future push **or** query concerns an
    /// instant before `w` — the "earliest possible future arrival" of a
    /// monotone (open-loop) arrival process. Queries below the watermark
    /// are clamped to it and read the folded constant; statistics are
    /// untouched. A no-op for non-recording queues and watermarks that do
    /// not advance.
    pub fn compact_before(&mut self, w: u64) {
        if !self.record || w <= self.watermark {
            return;
        }
        let (folded, last) = self.timeline.drain_before(w);
        if let Some(b) = last {
            self.base = b.occ;
        }
        self.compacted_events += folded as u64;
        self.watermark = w;
    }

    /// Boundary events currently held by the index (2 per recorded entry
    /// minus shared/compacted boundaries) — the memory-bound observable the
    /// compaction tests watch.
    pub fn event_count(&self) -> usize {
        self.timeline.len()
    }

    /// Boundary events folded away by [`TimedQueue::compact_before`].
    pub const fn compacted_events(&self) -> u64 {
        self.compacted_events
    }

    /// The compaction watermark (0 until the first compaction).
    pub const fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Checks the running-prefix invariant of the event index: every
    /// boundary's level equals its predecessor's level (or the folded base)
    /// plus its delta, and the trailing level is zero (every interval is
    /// closed). The property suite runs this after randomized batches.
    ///
    /// # Panics
    ///
    /// Panics when the index is inconsistent.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let mut level = i64::from(self.base);
        let mut last = 0u32;
        for &(k, b) in self.timeline.iter() {
            level += i64::from(b.delta);
            assert!(level >= 0, "negative occupancy at boundary {k}");
            assert_eq!(
                i64::from(b.occ),
                level,
                "running prefix diverged from the deltas at boundary {k}"
            );
            last = b.occ;
        }
        assert_eq!(last, 0, "trailing occupancy must be zero");
    }

    /// Total admission delay accumulated across all pushes.
    pub const fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Entries admitted so far.
    pub const fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Drops every recorded interval (a new measurement window opens; the
    /// stall and admission statistics survive, like every other fabric
    /// statistic).
    pub fn clear_entries(&mut self) {
        self.timeline.clear();
        self.base = 0;
        self.watermark = 0;
        self.max_exit = 0;
    }

    /// Clears entries *and* statistics.
    pub fn reset(&mut self) {
        self.clear_entries();
        self.compacted_events = 0;
        self.stall_cycles = 0;
        self.admissions = 0;
    }
}

/// An end-indexed interval timeline for bus-reservation conflict probes.
///
/// The memory fabric places every grant as an interval `[start, start +
/// occupancy)` on its channel's virtual timeline; a candidate placement
/// `[placed, placed + span)` conflicts with an existing reservation
/// `[start, end)` exactly when `start < placed + span && end > placed`
/// (plus an arbitration-policy predicate over the reservation's owner and
/// priority, which the caller supplies). Reservations overlap freely —
/// priority winners and weighted bypasses land on top of the traffic they
/// outrank — and carry per-entry payloads, so the boundary-delta engine of
/// [`TimedQueue`] does not fit; instead the index keys every reservation by
/// its **end**: `(end, insertion seq) → (start, owner, priority)`.
///
/// Keying by end makes finished history invisible to the hot query: a
/// reservation with `end <= placed` can never conflict with a placement at
/// or after `placed`, and the ordered probe never visits it. Only ends in
/// `(placed, placed + span + max_len)` are walked — an entry whose end lies
/// at or beyond that bound starts at or after `placed + span` (no single
/// reservation is longer than `max_len`) and cannot overlap either. The
/// probe therefore costs O(log n + live backlog) instead of the
/// O(window density) start-keyed scan it replaces, where the former scan's
/// window covered `max_len` cycles of mostly-finished history.
///
/// An idle bus costs no locate: the index keeps the latest end inserted
/// since its last clear, and a placement starting at or after it returns
/// `None` at once, like [`TimedQueue::admit_at`] past its latest exit. The
/// shortcut is exact, because no reservation can end after the placement
/// starts.
///
/// **Watermark compaction** ([`ReservationIndex::compact_before`]) mirrors
/// the [`TimedQueue::compact_before`] contract: when the caller guarantees
/// no future placement probe or insertion concerns an instant before `w`,
/// every reservation ending at or before `w` is dropped outright — unlike
/// the occupancy timeline there is no base constant to fold into, because a
/// wholly-past reservation can never conflict again. Entries straddling the
/// watermark (`start < w < end`) survive untouched.
#[derive(Clone, Debug, Default)]
pub struct ReservationIndex {
    /// The end-keyed interval map: `(end, seq)` → `(start, owner, prio)`.
    /// The insertion sequence disambiguates equal ends and starts at 1.
    by_end: ChunkMap<(u64, u64), (u64, usize, u8)>,
    /// Longest single reservation seen since the last clear, bounding how
    /// far beyond a placement window a conflicting end can lie.
    max_len: u64,
    /// Latest end inserted since the last clear: a placement at or after it
    /// conflicts with nothing. Compaction leaves it alone (it only drops
    /// entries ending earlier), so it stays an upper bound on every live end.
    max_end: u64,
    /// Monotonic insertion counter.
    seq: u64,
    /// Everything ending at or before this instant has been compacted away;
    /// the caller guaranteed no placement or insertion below it.
    watermark: u64,
    /// Reservations dropped by watermark compaction.
    compacted_events: u64,
}

impl ReservationIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the reservation `[start, end)` owned by `owner` at request
    /// priority `prio`. Intervals occupy at least one cycle.
    pub fn insert(&mut self, start: u64, end: u64, owner: usize, prio: u8) {
        debug_assert!(end > start, "reservations occupy at least one cycle");
        debug_assert!(start >= self.watermark, "insert below the watermark");
        self.seq += 1;
        self.by_end.insert((end, self.seq), (start, owner, prio));
        self.max_len = self.max_len.max(end - start);
        self.max_end = self.max_end.max(end);
    }

    /// The latest end among reservations that overlap the candidate
    /// placement `[placed, placed + span)` **and** satisfy the caller's
    /// arbitration predicate `queues_behind(owner, prio)`; `None` when the
    /// placement is conflict-free.
    ///
    /// Jumping a blocked placement to this end is a sound joint step: every
    /// conflicting reservation overlaps *all* candidate instants in
    /// `[placed, its end)` (its start is below `placed + span`, hence below
    /// every later candidate's window too), so no conflict-free instant
    /// exists before the latest conflicting end. Iterating placement from
    /// this jump reaches the same fixpoint — the earliest conflict-free
    /// instant — as the one-conflict-at-a-time retry it replaces, which is
    /// what keeps the indexed engine cycle-identical to the naive scan.
    ///
    /// A placement at or after the latest end inserted since the last clear
    /// returns `None` without a locate: nothing ends after it starts.
    pub fn max_conflicting_end(
        &self,
        placed: u64,
        span: u64,
        mut queues_behind: impl FnMut(usize, u8) -> bool,
    ) -> Option<u64> {
        if placed >= self.max_end {
            return None;
        }
        let window_end = placed
            .checked_add(span)
            .and_then(|x| x.checked_add(self.max_len));
        let mut latest = None;
        // Sequence numbers never reach `u64::MAX`, so this locates the
        // first reservation ending after `placed`.
        let first = self.by_end.locate((placed, u64::MAX));
        for (_, &((end, _), (start, owner, prio))) in self.by_end.walk(first) {
            if window_end.is_some_and(|hi| end >= hi) {
                break;
            }
            if start < placed.saturating_add(span) && queues_behind(owner, prio) {
                // Ends come in ascending order, so the last match is the
                // latest conflicting end.
                latest = Some(end);
            }
        }
        latest
    }

    /// Drops every reservation ending at or before `w`.
    ///
    /// The caller guarantees no future insertion or placement probe
    /// concerns an instant before `w` — the "earliest possible future
    /// arrival" of the window (all placements start at or after their
    /// arrival, so a reservation wholly before `w` can never conflict
    /// again). Statistics are untouched; regressing watermarks are ignored.
    pub fn compact_before(&mut self, w: u64) {
        if w <= self.watermark {
            return;
        }
        // Sequence numbers start at 1, so `(w + 1, 0)` sorts after every
        // key ending at or before `w` and before every later one.
        let (folded, _) = self.by_end.drain_before((w + 1, 0));
        self.compacted_events += folded as u64;
        self.watermark = w;
    }

    /// Reservations currently held by the index — the memory-bound
    /// observable the compaction tests watch.
    pub fn event_count(&self) -> usize {
        self.by_end.len()
    }

    /// Reservations dropped by [`ReservationIndex::compact_before`].
    pub const fn compacted_events(&self) -> u64 {
        self.compacted_events
    }

    /// The compaction watermark (0 until the first compaction).
    pub const fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Longest single reservation seen since the last clear.
    pub const fn max_reservation_len(&self) -> u64 {
        self.max_len
    }

    /// Checks the index invariants: every retained reservation occupies at
    /// least one cycle, is no longer than the tracked maximum length, ends
    /// no later than the tracked latest end, and ends past the watermark.
    ///
    /// # Panics
    ///
    /// Panics when the index is inconsistent.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        for &((end, seq), (start, _, _)) in self.by_end.iter() {
            assert!(end > start, "empty reservation at seq {seq}");
            assert!(end - start <= self.max_len, "max_len undercounts {seq}");
            assert!(end <= self.max_end, "max_end undercounts {seq}");
            assert!(end > self.watermark, "compacted entry survived: {seq}");
        }
    }

    /// Drops every reservation and resets the watermark/max-length state (a
    /// new measurement window opens; the compaction statistic survives,
    /// like every other fabric statistic).
    pub fn clear(&mut self) {
        self.by_end.clear();
        self.max_len = 0;
        self.max_end = 0;
        self.seq = 0;
        self.watermark = 0;
    }

    /// Clears reservations *and* statistics.
    pub fn reset(&mut self) {
        self.clear();
        self.compacted_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_labels_and_clamps() {
        assert!(QueueDepths::default().is_unbounded());
        assert_eq!(QueueDepths::UNBOUNDED.label(), "inf");
        let d = QueueDepths::bounded(4, 8);
        assert_eq!(d.label(), "4/8");
        assert_eq!(d.to_string(), "4/8");
        assert!(!d.is_unbounded());
        let zero = QueueDepths::bounded(0, 0);
        assert_eq!((zero.req, zero.rsp), (0, 0), "zero is not clamped");
    }

    #[test]
    fn unbounded_queue_never_stalls_and_records_nothing() {
        let mut q = TimedQueue::new(usize::MAX);
        assert!(q.is_unbounded());
        for i in 0..100u64 {
            let (admitted, occ) = q.push(i, i + 1000);
            assert_eq!(admitted, i);
            assert_eq!(occ, 0);
        }
        assert_eq!(q.stall_cycles(), 0);
        assert_eq!(q.admissions(), 100);
        assert_eq!(q.admission_at(50), 50);
        assert_eq!(q.event_count(), 0, "non-recording queues index nothing");
    }

    #[test]
    fn full_queue_delays_admission_to_the_earliest_exit() {
        let mut q = TimedQueue::new(2);
        q.push(0, 100);
        q.push(0, 60);
        // Both slots busy at t=10: the arrival waits for the earliest exit.
        assert_eq!(q.admission_at(10), 60);
        let (admitted, occ) = q.push(10, 200);
        assert_eq!(admitted, 60);
        assert_eq!(occ, 2, "the freed slot is immediately re-occupied");
        assert_eq!(q.stall_cycles(), 50);
        q.debug_validate();
    }

    #[test]
    fn admission_respects_entries_recorded_out_of_time_order() {
        let mut q = TimedQueue::new(1);
        // Simulation order: a late interval first, then an early one.
        q.push(500, 600);
        q.push(0, 100);
        // An arrival at 50 waits for the early interval, lands in the gap.
        assert_eq!(q.admission_at(50), 100);
        // An arrival at 450 fits before the late interval... but pushing it
        // with a long hold overlaps [500, 600): admission only guarantees
        // occupancy below depth *at the admission instant* (the queue is a
        // timeline, not a scheduler), exactly like a FIFO whose head drains
        // late.
        assert_eq!(q.admission_at(550), 600);
        q.debug_validate();
    }

    #[test]
    fn zero_length_holds_occupy_one_cycle() {
        let mut q = TimedQueue::new(1);
        let (admitted, _) = q.push(10, 10);
        assert_eq!(admitted, 10);
        assert_eq!(q.occupancy_at(10), 1);
        assert_eq!(q.admission_at(10), 11, "degenerate hold still occupies");
    }

    #[test]
    fn clear_entries_keeps_statistics() {
        let mut q = TimedQueue::new(1);
        q.push(0, 100);
        q.push(0, 100);
        assert_eq!(q.stall_cycles(), 100);
        q.clear_entries();
        assert_eq!(q.occupancy_at(50), 0);
        assert_eq!(q.stall_cycles(), 100, "stats survive the window boundary");
        q.reset();
        assert_eq!(q.stall_cycles(), 0);
    }

    #[test]
    fn unbounded_recording_queue_tracks_in_flight_occupancy() {
        let mut q = TimedQueue::unbounded_recording();
        q.push(0, 100);
        q.push(10, 50);
        q.push(200, 300);
        assert_eq!(q.occupancy_at(20), 2);
        assert_eq!(q.occupancy_at(75), 1);
        assert_eq!(q.occupancy_at(150), 0);
        assert_eq!(q.stall_cycles(), 0, "unbounded queues never stall");
        assert_eq!(q.admission_at(20), 20);
        q.clear_entries();
        assert_eq!(q.occupancy_at(20), 0);
    }

    #[test]
    fn admit_at_returns_admission_and_occupancy_together() {
        let mut q = TimedQueue::new(2);
        q.push(0, 100);
        q.push(0, 60);
        // Full at 10: admitted at the earliest exit, where one entry still
        // covers (occupancy *before* the new entry).
        assert_eq!(q.admit_at(10), (60, 1));
        // Free at 70: immediate admission over the surviving entry.
        assert_eq!(q.admit_at(70), (70, 1));
        // Beyond the backlog: free and empty.
        assert_eq!(q.admit_at(500), (500, 0));
    }

    #[test]
    fn deep_clone_does_not_share_credits() {
        let mut a = TimedQueue::new(1);
        a.push(0, 100);
        let mut b = a.clone();
        // The copy carries the state at the point of cloning...
        assert_eq!(b.occupancy_at(50), 1);
        assert_eq!(b.admission_at(50), 100);
        // ...but acquisitions no longer cross over.
        b.push(100, 500);
        assert_eq!(a.admission_at(200), 200);
        assert_eq!(b.admission_at(200), 500);
        a.push(200, 300);
        assert_eq!(b.occupancy_at(250), 1, "A's entry must not land in B");
        assert_eq!(a.occupancy_at(400), 0, "B's entry must not land in A");
        a.debug_validate();
        b.debug_validate();
    }

    #[test]
    fn compaction_folds_history_and_preserves_late_queries() {
        let mut q = TimedQueue::new(2);
        q.push(0, 100);
        q.push(50, 150);
        q.push(120, 300);
        let events_before = q.event_count();
        // Everything before 200 is history; [120, 300) straddles the
        // watermark and must survive as the base/boundary split.
        q.compact_before(200);
        assert!(q.event_count() < events_before);
        assert!(q.compacted_events() > 0);
        assert_eq!(q.watermark(), 200);
        assert_eq!(q.occupancy_at(250), 1, "the straddling entry still covers");
        assert_eq!(q.occupancy_at(350), 0);
        assert_eq!(q.admission_at(250), 250, "depth 2, one cover: free");
        // Queries below the watermark clamp onto the folded constant.
        assert_eq!(q.occupancy_at(0), q.occupancy_at(200));
        q.debug_validate();
        // New pushes at or past the watermark behave normally.
        let (admitted, occ) = q.push(250, 400);
        assert_eq!((admitted, occ), (250, 2));
        q.debug_validate();
    }

    #[test]
    fn compaction_is_idempotent_and_monotone() {
        let mut q = TimedQueue::new(1);
        q.push(0, 10);
        q.push(20, 30);
        q.compact_before(15);
        let events = q.event_count();
        q.compact_before(15);
        q.compact_before(5); // regressing watermarks are ignored
        assert_eq!(q.event_count(), events);
        assert_eq!(q.watermark(), 15);
        assert_eq!(q.occupancy_at(25), 1);
        q.debug_validate();
    }

    /// The chunked map answers every lookup like a `BTreeMap` across chunk
    /// splits, range updates and front drains, on keys drawn at random.
    #[test]
    fn chunk_map_matches_btreemap() {
        use crate::rng::DeterministicRng;
        use std::collections::btree_map::{BTreeMap, Entry};
        let mut rng = DeterministicRng::new(0xC4A2_0001);
        let mut map: ChunkMap<u64, u64> = ChunkMap::default();
        let mut reference = BTreeMap::new();
        let mut watermark = 0u64;
        for step in 0..6000u64 {
            let k = watermark + rng.next_below(3000);
            if let Entry::Vacant(slot) = reference.entry(k) {
                slot.insert(step);
                map.insert(k, step);
            }
            let (lo, hi) = (k, k + rng.next_below(200));
            map.update_from(map.locate(lo), |e| {
                let inside = e.0 <= hi;
                e.1 += u64::from(inside);
                inside
            });
            for v in reference.range_mut(lo..=hi).map(|(_, v)| v) {
                *v += 1;
            }
            let q = watermark + rng.next_below(3200);
            let past = map.locate(q + 1);
            let floor = reference.range(..=q).next_back().map(|(&k, &v)| (k, v));
            assert_eq!(
                map.before(past).copied(),
                floor,
                "floor({q}) at step {step}"
            );
            let after: Vec<_> = map.walk(past).take(3).map(|(_, &e)| e).collect();
            let expected: Vec<_> = reference
                .range(q + 1..)
                .take(3)
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(after, expected, "walk past {q} at step {step}");
            if step % 500 == 499 {
                watermark += 400;
                let kept = reference.split_off(&watermark);
                let drained = std::mem::replace(&mut reference, kept);
                let last = drained.values().next_back().copied();
                assert_eq!(map.drain_before(watermark), (drained.len(), last));
            }
            assert_eq!(map.len(), reference.len());
        }
        let all: Vec<_> = map.iter().copied().collect();
        assert_eq!(all, reference.into_iter().collect::<Vec<_>>());
    }

    /// The finger under the access pattern of sequential cluster shards:
    /// monotone sweeps that each restart at key 0, with far jumps mixed in,
    /// over a map of dozens of chunks. Every operation the engines use —
    /// locate, floor, forward walk, positional insert (splitting chunks at
    /// and beside the finger), range update and front drain — must answer
    /// like a `BTreeMap`, whether the finger was right, stale or in
    /// another chunk.
    #[test]
    fn chunk_map_finger_matches_btreemap_under_shard_restart_sweeps() {
        use crate::rng::DeterministicRng;
        use std::collections::btree_map::{BTreeMap, Entry};
        let mut rng = DeterministicRng::new(0x5EE9_F1A6);
        let mut map: ChunkMap<u64, u64> = ChunkMap::default();
        let mut reference = BTreeMap::new();
        // A first shard lays down a sparse timeline of ~70 chunks.
        for k in (0..40_000u64).step_by(13) {
            map.insert(k, k);
            reference.insert(k, k);
        }
        let mut floor_key = 0u64;
        for sweep in 0..8u64 {
            let mut cursor = floor_key;
            for step in 0..1500u64 {
                // Mostly short forward steps; one lookup in 16 jumps far
                // (another initiator's arrival) without moving the sweep.
                let q = if rng.next_below(16) == 0 {
                    floor_key + rng.next_below(45_000)
                } else {
                    cursor += rng.next_below(40);
                    cursor
                };
                let label = format!("sweep {sweep} step {step} key {q}");
                let pos = map.locate(q);
                let at = reference.range(q..).next().map(|(&k, &v)| (k, v));
                let walked: Vec<_> = map.walk(pos).take(4).map(|(_, &e)| e).collect();
                let expected: Vec<_> = reference
                    .range(q..)
                    .take(4)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                assert_eq!(walked, expected, "walk from {label}");
                assert_eq!(walked.first().copied(), at, "locate {label}");
                let floor = reference.range(..q).next_back().map(|(&k, &v)| (k, v));
                assert_eq!(map.before(pos).copied(), floor, "floor {label}");
                if at.is_none_or(|(k, _)| k != q) {
                    // Insert at the located position, then a key just past
                    // it through a fresh lookup beside the finger: dense
                    // runs split chunks right where the finger stands.
                    let put = map.insert_at(pos, q, step);
                    assert_eq!(map.get_mut(put).map(|e| e.0), Some(q), "insert {label}");
                    reference.insert(q, step);
                    if let Entry::Vacant(slot) = reference.entry(q + 1) {
                        slot.insert(step);
                        map.insert(q + 1, step);
                    }
                }
                // Raise the next few entries from the located key on.
                let hi = q + rng.next_below(60);
                map.update_from(map.locate(q), |e| {
                    if e.0 > hi {
                        return false;
                    }
                    e.1 += 1;
                    true
                });
                for v in reference.range_mut(q..=hi).map(|(_, v)| v) {
                    *v += 1;
                }
                assert_eq!(map.len(), reference.len(), "{label}");
            }
            assert!(
                map.chunks.len() >= 20,
                "only {} chunks live",
                map.chunks.len()
            );
            // Between shards, drain a little history off the front.
            floor_key += 300;
            let kept = reference.split_off(&floor_key);
            let drained = std::mem::replace(&mut reference, kept);
            let last = drained.values().next_back().copied();
            assert_eq!(map.drain_before(floor_key), (drained.len(), last));
        }
        let all: Vec<_> = map.iter().copied().collect();
        assert_eq!(all, reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn reservation_index_probes_only_live_conflicts() {
        let mut idx = ReservationIndex::new();
        idx.insert(0, 100, 0, 0); // long-finished by the probe below
        idx.insert(150, 400, 1, 0); // live: covers the candidate window
        idx.insert(500, 520, 2, 0); // future but within start < placed+span? no
        assert_eq!(idx.max_reservation_len(), 250);
        // Candidate [200, 232): only the live interval conflicts.
        assert_eq!(idx.max_conflicting_end(200, 32, |_, _| true), Some(400));
        // The same probe with the predicate rejecting owner 1 is free.
        assert_eq!(idx.max_conflicting_end(200, 32, |o, _| o != 1), None);
        // A probe past every end is free without iterating history.
        assert_eq!(idx.max_conflicting_end(600, 32, |_, _| true), None);
        // Abutting intervals do not overlap: [500, 520) vs [480, 500).
        assert_eq!(idx.max_conflicting_end(480, 20, |o, _| o == 2), None);
        idx.debug_validate();
    }

    #[test]
    fn reservation_index_returns_the_latest_conflicting_end() {
        let mut idx = ReservationIndex::new();
        // Overlapping reservations (a priority winner on top of the traffic
        // it outranked): the probe must report the latest end, because no
        // conflict-free instant exists before it.
        idx.insert(100, 300, 0, 0);
        idx.insert(120, 500, 1, 1);
        idx.insert(130, 180, 2, 0);
        assert_eq!(idx.max_conflicting_end(150, 8, |_, _| true), Some(500));
        // Filtering to the short middle entry jumps only past it.
        assert_eq!(idx.max_conflicting_end(150, 8, |o, _| o == 2), Some(180));
    }

    /// The idle-bus shortcut: a probe at or after the latest end inserted
    /// since the last clear answers `None` without a locate, and stays
    /// exact just before that end, after compaction and after a clear.
    #[test]
    fn reservation_index_probe_at_or_after_the_latest_end_is_free() {
        let mut idx = ReservationIndex::new();
        idx.insert(100, 300, 0, 0);
        idx.insert(120, 250, 1, 0);
        assert_eq!(idx.max_conflicting_end(299, 1, |_, _| true), Some(300));
        assert_eq!(idx.max_conflicting_end(300, 64, |_, _| true), None);
        assert_eq!(idx.max_conflicting_end(10_000, 64, |_, _| true), None);
        // Compaction drops [120, 250) and keeps the straddler: the probe is
        // exact on both sides of the latest end.
        idx.compact_before(260);
        assert_eq!(idx.event_count(), 1);
        assert_eq!(idx.max_conflicting_end(280, 8, |_, _| true), Some(300));
        assert_eq!(idx.max_conflicting_end(300, 8, |_, _| true), None);
        idx.compact_before(400);
        assert_eq!(idx.event_count(), 0);
        assert_eq!(idx.max_conflicting_end(400, 8, |_, _| true), None);
        idx.debug_validate();
        // A new window restarts at zero: its reservations are found again
        // below the old window's latest end, and the bound follows them.
        idx.clear();
        assert_eq!(idx.max_conflicting_end(0, 8, |_, _| true), None);
        idx.insert(0, 40, 2, 0);
        assert_eq!(idx.max_conflicting_end(10, 8, |_, _| true), Some(40));
        assert_eq!(idx.max_conflicting_end(40, 8, |_, _| true), None);
        idx.debug_validate();
    }

    #[test]
    fn reservation_index_compaction_drops_only_finished_history() {
        let mut idx = ReservationIndex::new();
        idx.insert(0, 100, 0, 0);
        idx.insert(50, 150, 1, 0);
        idx.insert(120, 300, 2, 0); // straddles the watermark below
        idx.compact_before(150);
        assert_eq!(idx.event_count(), 1, "straddling entries survive");
        assert_eq!(idx.compacted_events(), 2);
        assert_eq!(idx.watermark(), 150);
        // The surviving straddler still conflicts with placements past w.
        assert_eq!(idx.max_conflicting_end(200, 16, |_, _| true), Some(300));
        // Idempotent and monotone: regressing watermarks are ignored.
        idx.compact_before(150);
        idx.compact_before(10);
        assert_eq!(idx.event_count(), 1);
        assert_eq!(idx.watermark(), 150);
        idx.debug_validate();
        // A window boundary resets the watermark but keeps the statistic.
        idx.clear();
        assert_eq!(idx.watermark(), 0);
        assert_eq!(idx.event_count(), 0);
        assert_eq!(idx.compacted_events(), 2);
        idx.reset();
        assert_eq!(idx.compacted_events(), 0);
    }

    #[test]
    fn reservation_index_compaction_is_exact_for_probes_past_the_watermark() {
        // Exactness, not approximation: a compacted index must answer every
        // probe at or past the watermark identically to an uncompacted twin.
        let mut plain = ReservationIndex::new();
        let mut compacted = ReservationIndex::new();
        let spans: [(u64, u64); 6] = [
            (0, 40),
            (30, 90),
            (95, 100),
            (110, 260),
            (255, 270),
            (290, 315),
        ];
        for (i, &(s, e)) in spans.iter().enumerate() {
            plain.insert(s, e, i, (i % 3) as u8);
            compacted.insert(s, e, i, (i % 3) as u8);
        }
        compacted.compact_before(105);
        for placed in 105..350 {
            for span in [1u64, 8, 64] {
                assert_eq!(
                    plain.max_conflicting_end(placed, span, |_, p| p > 0),
                    compacted.max_conflicting_end(placed, span, |_, p| p > 0),
                    "diverged at placed={placed} span={span}"
                );
            }
        }
    }
}
