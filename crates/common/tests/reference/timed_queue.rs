//! `NaiveTimedQueue`: the linear-scan model `sva_common::TimedQueue`
//! replaced, kept as the executable specification the property suite
//! (`tests/timed_queue.rs`) runs the event-indexed engine against.

/// One occupancy interval held by a [`NaiveTimedQueue`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct QueueEntry {
    /// First cycle the entry occupies a slot.
    enter: u64,
    /// First cycle the slot is free again (`exit > enter`).
    exit: u64,
}

/// The original queue engine: a flat interval list answering every query
/// with a full scan. The suite drives it and the indexed engine on
/// randomized out-of-order interval batches and demands identical
/// admissions, stalls and peaks.
#[derive(Clone, Debug, Default)]
pub struct NaiveTimedQueue {
    depth: usize,
    record: bool,
    entries: Vec<QueueEntry>,
    max_exit: u64,
    peak: usize,
    stall_cycles: u64,
    admissions: u64,
}

impl NaiveTimedQueue {
    /// Creates a queue of the given depth (0 is clamped to 1;
    /// `usize::MAX` means unbounded).
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            record: depth != usize::MAX,
            ..Self::default()
        }
    }

    /// The recording unbounded FIFO, mirroring
    /// `TimedQueue::unbounded_recording`.
    pub fn unbounded_recording() -> Self {
        Self {
            depth: usize::MAX,
            record: true,
            ..Self::default()
        }
    }

    /// Number of recorded intervals covering `t` — a full scan.
    pub fn occupancy_at(&self, t: u64) -> usize {
        self.entries
            .iter()
            .filter(|e| e.enter <= t && t < e.exit)
            .count()
    }

    /// Earliest admission at or after `t` — repeated covering scans, one
    /// per candidate exit.
    pub fn admission_at(&self, t: u64) -> u64 {
        if self.depth == usize::MAX || t >= self.max_exit {
            return t;
        }
        let mut at = t;
        loop {
            let mut covering = 0usize;
            let mut next_exit = u64::MAX;
            for e in &self.entries {
                if e.enter <= at && at < e.exit {
                    covering += 1;
                    next_exit = next_exit.min(e.exit);
                }
            }
            if covering < self.depth {
                return at;
            }
            debug_assert!(next_exit > at, "exit times strictly exceed covers");
            at = next_exit;
        }
    }

    /// Admits an entry arriving at `enter` held until `exit`; returns the
    /// admission time and the occupancy including the new entry (the same
    /// contract as `TimedQueue::push`).
    pub fn push(&mut self, enter: u64, exit: u64) -> (u64, usize) {
        let admitted = self.admission_at(enter);
        self.stall_cycles += admitted - enter;
        self.admissions += 1;
        if !self.record {
            return (admitted, 0);
        }
        let exit = exit.max(admitted + 1);
        self.entries.push(QueueEntry {
            enter: admitted,
            exit,
        });
        self.max_exit = self.max_exit.max(exit);
        let occupancy = self.occupancy_at(admitted);
        self.peak = self.peak.max(occupancy);
        (admitted, occupancy)
    }

    /// Highest occupancy observed at any admission.
    pub const fn peak(&self) -> usize {
        self.peak
    }

    /// Total admission delay accumulated across all pushes.
    pub const fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Entries admitted so far.
    pub const fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Recorded (never pruned) interval count.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Clears entries *and* statistics.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.max_exit = 0;
        self.peak = 0;
        self.stall_cycles = 0;
        self.admissions = 0;
    }
}
