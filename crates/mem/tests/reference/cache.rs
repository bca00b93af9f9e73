//! `NaiveCache`: the per-set cache engine `sva_mem::Cache` replaced, kept
//! as the executable reference the lockstep suite (`tests/cache_identity.rs`)
//! runs the flat one-pass cache against.
//!
//! Every set is its own heap `Vec` of lines; a lookup scans the set for a
//! hit and, on a miss, scans it again for the victim: the first invalid
//! way, else the least recently used one.

use sva_common::stats::HitMiss;
use sva_common::PhysAddr;
use sva_mem::{CacheConfig, CacheOutcome};

#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Larger value = more recently used.
    lru: u64,
}

/// A set-associative cache with true-LRU replacement (the per-set
/// reference engine).
#[derive(Clone, Debug)]
pub struct NaiveCache {
    sets: Vec<Vec<Line>>,
    line_shift: u32,
    set_shift: u32,
    lru_clock: u64,
    stats: HitMiss,
    writebacks: u64,
}

impl NaiveCache {
    /// Creates an empty cache with the given (valid) geometry.
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("valid geometry");
        Self {
            sets: vec![vec![Line::default(); config.ways]; config.sets()],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: config.sets().trailing_zeros(),
            lru_clock: 0,
            stats: HitMiss::new(),
            writebacks: 0,
        }
    }

    fn index_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line_addr = addr.raw() >> self.line_shift;
        let set = (line_addr & ((1 << self.set_shift) - 1)) as usize;
        (set, line_addr >> self.set_shift)
    }

    fn line_base(&self, tag: u64, set_idx: usize) -> PhysAddr {
        PhysAddr::new(((tag << self.set_shift) | set_idx as u64) << self.line_shift)
    }

    /// Looks up the line containing `addr`, filling it on a miss.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> CacheOutcome {
        self.lru_clock += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let ways = &mut self.sets[set_idx];

        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.lru_clock;
            if is_write {
                line.dirty = true;
            }
            self.stats.hit();
            return CacheOutcome::Hit;
        }

        self.stats.miss();
        let victim_idx = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("cache set has at least one way");

        let victim = ways[victim_idx];
        ways[victim_idx] = Line {
            valid: true,
            dirty: is_write,
            tag,
            lru: self.lru_clock,
        };
        let writeback = (victim.valid && victim.dirty).then(|| self.line_base(victim.tag, set_idx));
        if writeback.is_some() {
            self.writebacks += 1;
        }
        CacheOutcome::Miss { writeback }
    }

    /// Whether the line containing `addr` is present (no state update).
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr`, returning its base address
    /// if it was dirty.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<PhysAddr> {
        let (set_idx, tag) = self.index_and_tag(addr);
        let line = self.sets[set_idx]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)?;
        line.valid = false;
        let was_dirty = std::mem::take(&mut line.dirty);
        was_dirty.then(|| self.line_base(tag, set_idx))
    }

    /// Invalidates the whole cache, returning the number of dirty lines.
    pub fn flush_all(&mut self) -> u64 {
        let mut dirty = 0;
        for set in &mut self.sets {
            for line in set {
                if line.valid && line.dirty {
                    dirty += 1;
                }
                line.valid = false;
                line.dirty = false;
            }
        }
        dirty
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .filter(|l| l.valid)
            .count() as u64
    }

    /// Hit/miss statistics.
    pub const fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Number of dirty-line writebacks caused by evictions so far.
    pub const fn writebacks(&self) -> u64 {
        self.writebacks
    }
}
