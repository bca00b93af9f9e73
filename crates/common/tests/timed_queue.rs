//! Property suite: the event-indexed [`TimedQueue`] against the linear-scan
//! reference model [`NaiveTimedQueue`] (`reference/timed_queue.rs`).
//!
//! Both engines are driven push-by-push on `DeterministicRng`-generated
//! out-of-order interval batches across a spread of depths; admission
//! times, returned occupancies, interleaved probe queries, stalls and
//! admission counts must all be identical. The split admit/commit path
//! the fabric uses (`admit_at`, then `push_admitted` with its result) is
//! driven the same way. The same driver is then pointed at a deliberately
//! broken index (an off-by-one on the exit boundary delta) and must detect
//! the divergence — proving the suite has the power to catch exactly the
//! class of bug the index could hide.

#[path = "reference/timed_queue.rs"]
mod reference;

use reference::NaiveTimedQueue;
use sva_common::rng::DeterministicRng;
use sva_common::TimedQueue;

/// The behaviour surface the driver compares, implemented by both engines
/// (and by the deliberately broken one).
trait QueueModel {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize);
    fn occupancy_at(&self, t: u64) -> usize;
    fn admission_at(&self, t: u64) -> u64;
    fn stall_cycles(&self) -> u64;
    fn admissions(&self) -> u64;
    fn validate(&self) {}
}

impl QueueModel for TimedQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        TimedQueue::push(self, enter, exit)
    }
    fn occupancy_at(&self, t: u64) -> usize {
        TimedQueue::occupancy_at(self, t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        TimedQueue::admission_at(self, t)
    }
    fn stall_cycles(&self) -> u64 {
        TimedQueue::stall_cycles(self)
    }
    fn admissions(&self) -> u64 {
        TimedQueue::admissions(self)
    }
    fn validate(&self) {
        self.debug_validate();
    }
}

impl QueueModel for NaiveTimedQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        NaiveTimedQueue::push(self, enter, exit)
    }
    fn occupancy_at(&self, t: u64) -> usize {
        NaiveTimedQueue::occupancy_at(self, t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        NaiveTimedQueue::admission_at(self, t)
    }
    fn stall_cycles(&self) -> u64 {
        NaiveTimedQueue::stall_cycles(self)
    }
    fn admissions(&self) -> u64 {
        NaiveTimedQueue::admissions(self)
    }
}

/// The indexed queue driven through the split admit/commit path: admission
/// is queried first and its result handed to `push_admitted`, the way the
/// fabric commits a grant after placing it. The stall is accounted here,
/// because `push_admitted` only sees the admission point.
struct SplitQueue {
    queue: TimedQueue,
    stall: u64,
}

impl QueueModel for SplitQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let admission = self.queue.admit_at(enter);
        self.stall += admission.0 - enter;
        (admission.0, self.queue.push_admitted(admission, exit))
    }
    fn occupancy_at(&self, t: u64) -> usize {
        self.queue.occupancy_at(t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        self.queue.admission_at(t)
    }
    fn stall_cycles(&self) -> u64 {
        self.stall
    }
    fn admissions(&self) -> u64 {
        self.queue.admissions()
    }
    fn validate(&self) {
        self.queue.debug_validate();
    }
}

/// An indexed queue with an injected off-by-one in the delta index: the
/// exit boundary lands one cycle late, so every interval appears to cover
/// one extra cycle. The suite must flag this as divergent from the naive
/// reference.
struct OffByOneQueue(TimedQueue);

impl QueueModel for OffByOneQueue {
    fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let exit = exit.max(enter).saturating_add(1);
        self.0.push(enter, exit)
    }
    fn occupancy_at(&self, t: u64) -> usize {
        self.0.occupancy_at(t)
    }
    fn admission_at(&self, t: u64) -> u64 {
        self.0.admission_at(t)
    }
    fn stall_cycles(&self) -> u64 {
        self.0.stall_cycles()
    }
    fn admissions(&self) -> u64 {
        self.0.admissions()
    }
}

/// One randomized out-of-order interval batch: `shards` independent streams
/// that each restart their cursor near zero (the multi-cluster shape that
/// makes simulation order diverge from time order), interleaved round-robin.
fn generate_batch(rng: &mut DeterministicRng, pushes: usize) -> Vec<(u64, u64)> {
    let shards = 1 + rng.next_below(4) as usize;
    let mut cursors = vec![0u64; shards];
    let mut batch = Vec::with_capacity(pushes);
    for i in 0..pushes {
        let shard = i % shards;
        // Mostly forward motion within a shard, occasional re-issue at the
        // same instant, occasional long leap.
        let advance = match rng.next_below(10) {
            0 => 0,
            9 => 200 + rng.next_below(800),
            _ => rng.next_below(40),
        };
        cursors[shard] += advance;
        let enter = cursors[shard];
        // Includes zero-length holds (exit == enter), which the queue
        // clamps to one occupied cycle.
        let hold = rng.next_below(120);
        batch.push((enter, enter + hold));
    }
    batch
}

/// Drives `a` and `b` through the same batch, comparing every push result
/// and interleaved probe queries. Returns the first mismatch, if any.
fn compare_on_batch(
    a: &mut dyn QueueModel,
    b: &mut dyn QueueModel,
    batch: &[(u64, u64)],
    rng: &mut DeterministicRng,
) -> Option<String> {
    for (i, &(enter, exit)) in batch.iter().enumerate() {
        let ra = a.push(enter, exit);
        let rb = b.push(enter, exit);
        if ra != rb {
            return Some(format!(
                "push #{i} [{enter}, {exit}): indexed {ra:?} vs reference {rb:?}"
            ));
        }
        a.validate();
        // Probe around the action: the admitted instant, a nearby past
        // instant and a random future one.
        let probes = [
            ra.0,
            enter.saturating_sub(rng.next_below(50)),
            enter + rng.next_below(300),
        ];
        for t in probes {
            let (oa, ob) = (a.occupancy_at(t), b.occupancy_at(t));
            if oa != ob {
                return Some(format!(
                    "occupancy_at({t}) after push #{i}: indexed {oa} vs reference {ob}"
                ));
            }
            let (aa, ab) = (a.admission_at(t), b.admission_at(t));
            if aa != ab {
                return Some(format!(
                    "admission_at({t}) after push #{i}: indexed {aa} vs reference {ab}"
                ));
            }
        }
    }
    if a.stall_cycles() != b.stall_cycles() {
        return Some(format!(
            "stall_cycles: {} vs {}",
            a.stall_cycles(),
            b.stall_cycles()
        ));
    }
    if a.admissions() != b.admissions() {
        return Some(format!(
            "admissions: {} vs {}",
            a.admissions(),
            b.admissions()
        ));
    }
    None
}

/// Depths the randomized comparison sweeps, including the two unbounded
/// flavours (`None` = `unbounded_recording`).
const DEPTHS: [Option<usize>; 8] = [
    Some(1),
    Some(2),
    Some(3),
    Some(4),
    Some(8),
    Some(16),
    Some(64),
    None,
];

fn build_pair(depth: Option<usize>) -> (TimedQueue, NaiveTimedQueue) {
    match depth {
        Some(d) => (TimedQueue::new(d), NaiveTimedQueue::new(d)),
        None => (
            TimedQueue::unbounded_recording(),
            NaiveTimedQueue::unbounded_recording(),
        ),
    }
}

#[test]
fn indexed_engine_matches_naive_reference_on_randomized_batches() {
    let mut rng = DeterministicRng::new(0x71ED_0001);
    for round in 0..40 {
        let pushes = 60 + rng.next_below(140) as usize;
        let batch = generate_batch(&mut rng, pushes);
        for depth in DEPTHS {
            let (mut indexed, mut naive) = build_pair(depth);
            let mut probe_rng = DeterministicRng::new(0x9000 + round);
            if let Some(err) = compare_on_batch(&mut indexed, &mut naive, &batch, &mut probe_rng) {
                panic!("round {round}, depth {depth:?}: {err}");
            }
        }
    }
}

#[test]
fn split_admit_and_commit_matches_naive_reference() {
    let mut rng = DeterministicRng::new(0x71ED_0004);
    for round in 0..40 {
        let pushes = 60 + rng.next_below(140) as usize;
        let batch = generate_batch(&mut rng, pushes);
        for depth in DEPTHS {
            let (queue, mut naive) = build_pair(depth);
            let mut split = SplitQueue { queue, stall: 0 };
            let mut probe_rng = DeterministicRng::new(0xA000 + round);
            if let Some(err) = compare_on_batch(&mut split, &mut naive, &batch, &mut probe_rng) {
                panic!("round {round}, depth {depth:?}: {err}");
            }
        }
    }
}

#[test]
fn suite_catches_an_injected_off_by_one_in_the_delta_index() {
    let mut rng = DeterministicRng::new(0x71ED_0002);
    let mut caught = false;
    for round in 0..10 {
        let batch = generate_batch(&mut rng, 120);
        // Narrow depths make the extra covered cycle observable as a
        // different admission or stall.
        for depth in [1usize, 2, 3, 4] {
            let mut broken = OffByOneQueue(TimedQueue::new(depth));
            let mut naive = NaiveTimedQueue::new(depth);
            let mut probe_rng = DeterministicRng::new(0xB000 + round);
            if compare_on_batch(&mut broken, &mut naive, &batch, &mut probe_rng).is_some() {
                caught = true;
            }
        }
    }
    assert!(
        caught,
        "the off-by-one exit boundary must be observable on at least one batch"
    );
}

#[test]
fn compaction_preserves_results_and_bounds_the_index() {
    // Monotone (open-loop) batches: each batch's earliest arrival is a
    // valid watermark for the history before it, so the compacted queue
    // must behave identically to an uncompacted twin while holding far
    // fewer boundary events.
    let mut rng = DeterministicRng::new(0x71ED_0003);
    for depth in [2usize, 8, 64] {
        let mut compacted = TimedQueue::new(depth);
        let mut plain = TimedQueue::new(depth);
        let mut cursor = 0u64;
        let mut peak_events = 0usize;
        for _ in 0..50 {
            compacted.compact_before(cursor);
            let mut batch = Vec::new();
            for _ in 0..40 {
                cursor += rng.next_below(30);
                batch.push((cursor, cursor + rng.next_below(100)));
            }
            for &(enter, exit) in &batch {
                let rc = compacted.push(enter, exit);
                let rp = plain.push(enter, exit);
                assert_eq!(rc, rp, "compaction changed a push result");
            }
            compacted.debug_validate();
            peak_events = peak_events.max(compacted.event_count());
        }
        assert_eq!(compacted.stall_cycles(), plain.stall_cycles());
        assert!(compacted.compacted_events() > 0, "compaction never fired");
        assert!(
            peak_events < plain.event_count() / 4,
            "compaction failed to bound the index: peak {peak_events} vs {} retained",
            plain.event_count()
        );
    }
}

#[test]
fn naive_reference_matches_on_the_documented_cases() {
    // The reference model must mirror every documented TimedQueue
    // behaviour (the property suite covers randomized batches).
    let mut q = NaiveTimedQueue::new(2);
    q.push(0, 100);
    q.push(0, 60);
    assert_eq!(q.admission_at(10), 60);
    let (admitted, occ) = q.push(10, 200);
    assert_eq!((admitted, occ), (60, 2));
    assert_eq!(q.stall_cycles(), 50);
    assert_eq!(q.entry_count(), 3);

    let mut u = NaiveTimedQueue::new(usize::MAX);
    let (admitted, occ) = u.push(5, 500);
    assert_eq!((admitted, occ), (5, 0));

    let mut r = NaiveTimedQueue::unbounded_recording();
    r.push(0, 100);
    r.push(10, 50);
    assert_eq!(r.occupancy_at(20), 2);
    r.reset();
    assert_eq!(r.occupancy_at(20), 0);
    assert_eq!(r.admissions(), 0);
}
