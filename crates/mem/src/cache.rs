//! Generic set-associative cache timing model.
//!
//! The model tracks tags, LRU state and dirty bits only — the functional data
//! always lives in the backing store. This is sufficient because the
//! simulation only needs to know *whether* an access hits and *which* line a
//! miss evicts, not the cached bytes themselves.
//!
//! Two instances are used in the platform:
//!
//! * the CVA6 32 KiB write-through L1 data cache (dirty bits never set),
//! * the Cheshire 128 KiB write-back last-level cache ([`crate::llc`]).

use sva_common::stats::HitMiss;
use sva_common::{PhysAddr, CACHE_LINE_SIZE};

/// Geometry of a cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// `true` for write-back caches (dirty lines written back on eviction),
    /// `false` for write-through caches.
    pub write_back: bool,
}

impl CacheConfig {
    /// The CVA6 32 KiB, 8-way, write-through L1 data cache.
    pub const fn cva6_l1d() -> Self {
        Self {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: CACHE_LINE_SIZE,
            write_back: false,
        }
    }

    /// Number of sets implied by the geometry.
    pub const fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }

    /// Validates that the geometry is consistent: a power-of-two line size,
    /// at least one way, and a power-of-two number of sets (so a lookup
    /// indexes with a shift and a mask).
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} is not a power of two",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("cache must have at least one way".to_string());
        }
        if self.size_bytes % (self.line_bytes * self.ways as u64) != 0 {
            return Err(format!(
                "capacity {} is not divisible by ways*line ({}*{})",
                self.size_bytes, self.ways, self.line_bytes
            ));
        }
        if self.sets() == 0 {
            return Err("cache has zero sets".to_string());
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} is not a power of two", self.sets()));
        }
        Ok(())
    }
}

/// Result of a cache lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss {
        /// Address of a dirty line that had to be written back to make room,
        /// if any. Only ever `Some` for write-back caches.
        writeback: Option<PhysAddr>,
    },
}

impl CacheOutcome {
    /// Returns `true` for [`CacheOutcome::Hit`].
    pub const fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }

    /// Returns the write-back address if the outcome was a miss that evicted
    /// a dirty line.
    pub const fn writeback(&self) -> Option<PhysAddr> {
        match self {
            CacheOutcome::Miss { writeback } => *writeback,
            CacheOutcome::Hit => None,
        }
    }
}

#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Larger value = more recently used.
    lru: u64,
}

/// A set-associative cache with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    /// `log2(line_bytes)`: address → line number.
    line_shift: u32,
    /// `log2(sets)`: line number → tag.
    set_shift: u32,
    lru_clock: u64,
    stats: HitMiss,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache geometry: {e}"));
        Self {
            config,
            sets: vec![vec![Line::default(); config.ways]; config.sets()],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: config.sets().trailing_zeros(),
            lru_clock: 0,
            stats: HitMiss::new(),
            writebacks: 0,
        }
    }

    /// The geometry of this cache.
    pub const fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn index_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line_addr = addr.raw() >> self.line_shift;
        let set = (line_addr & ((1 << self.set_shift) - 1)) as usize;
        (set, line_addr >> self.set_shift)
    }

    /// Base address of the line with `tag` in set `set_idx`.
    fn line_base(&self, tag: u64, set_idx: usize) -> PhysAddr {
        PhysAddr::new(((tag << self.set_shift) | set_idx as u64) << self.line_shift)
    }

    /// Looks up the line containing `addr`, filling it on a miss.
    ///
    /// `is_write` marks the line dirty for write-back caches. The returned
    /// outcome reports whether the access hit and whether a dirty victim had
    /// to be written back.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> CacheOutcome {
        self.lru_clock += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let write_back = self.config.write_back;
        let ways = &mut self.sets[set_idx];

        // Hit path.
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.lru_clock;
            if is_write && write_back {
                line.dirty = true;
            }
            self.stats.hit();
            return CacheOutcome::Hit;
        }

        // Miss: pick the LRU way (preferring invalid ways).
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
            dirty: is_write && write_back,
            tag,
            lru: self.lru_clock,
        };
        let writeback = (victim.valid && victim.dirty).then(|| self.line_base(victim.tag, set_idx));
        if writeback.is_some() {
            self.writebacks += 1;
        }
        CacheOutcome::Miss { writeback }
    }

    /// Returns `true` if the line containing `addr` is currently present,
    /// without updating any state.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr` if present, returning its base
    /// address if it was dirty (caller is responsible for writing it back).
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<PhysAddr> {
        let (set_idx, tag) = self.index_and_tag(addr);
        let line = self.sets[set_idx]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)?;
        line.valid = false;
        let was_dirty = std::mem::take(&mut line.dirty);
        was_dirty.then(|| self.line_base(tag, set_idx))
    }

    /// Invalidates the whole cache, returning the number of dirty lines that
    /// would be written back by the flush.
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

    /// Clears the statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(write_back: bool) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            write_back,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::cva6_l1d();
        assert_eq!(c.sets(), 64);
        assert!(c.validate().is_ok());
        assert!(CacheConfig {
            size_bytes: 1000,
            ways: 3,
            line_bytes: 64,
            write_back: true
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 63,
            write_back: true
        }
        .validate()
        .is_err());
    }

    #[test]
    fn non_power_of_two_set_counts_are_rejected() {
        // 96 KiB, 8-way, 64 B lines: 192 sets.
        let odd = CacheConfig {
            size_bytes: 96 * 1024,
            ways: 8,
            line_bytes: 64,
            write_back: true,
        };
        assert_eq!(odd.sets(), 192);
        let err = odd.validate().unwrap_err();
        assert!(err.contains("192"), "{err}");
        // Non-power-of-two associativity is fine while the sets stay a
        // power of two (the LLC's SPM partitions do this).
        let partitioned = CacheConfig {
            size_bytes: 5 * 256 * 64,
            ways: 5,
            line_bytes: 64,
            write_back: true,
        };
        assert_eq!(partitioned.sets(), 256);
        assert!(partitioned.validate().is_ok());
        assert!(CacheConfig::cva6_l1d().validate().is_ok());
    }

    #[test]
    fn writeback_and_invalidate_addresses_round_trip_the_index() {
        let mut c = small_cache(true);
        // High address bits survive the shift/mask split into set and tag.
        let a = PhysAddr::new(0x40_8765_4321);
        c.access(a, true);
        assert_eq!(c.invalidate(a), Some(a.cache_line_base()));
        c.access(a, true);
        let set_stride = 8 * 64;
        c.access(a + set_stride, false);
        let out = c.access(a + 2 * set_stride, false);
        assert_eq!(out.writeback(), Some(a.cache_line_base()));
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(true);
        let a = PhysAddr::new(0x8000_0000);
        assert!(!c.access(a, false).is_hit());
        assert!(c.access(a, false).is_hit());
        assert!(c.access(a + 63, false).is_hit());
        assert!(!c.access(a + 64, false).is_hit());
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small_cache(false);
        // 8 sets of 2 ways; these three addresses map to the same set.
        let set_stride = 8 * 64;
        let a = PhysAddr::new(0x10000);
        let b = a + set_stride;
        let d = a + 2 * set_stride;
        c.access(a, false);
        c.access(b, false);
        // Touch `a` so `b` becomes LRU.
        c.access(a, false);
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn write_back_cache_reports_writebacks() {
        let mut c = small_cache(true);
        let set_stride = 8 * 64;
        let a = PhysAddr::new(0x20000);
        let b = a + set_stride;
        let d = a + 2 * set_stride;
        c.access(a, true); // dirty
        c.access(b, false);
        let out = c.access(d, false); // evicts dirty a
        assert_eq!(out.writeback(), Some(a.cache_line_base()));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn write_through_cache_never_writes_back() {
        let mut c = small_cache(false);
        let set_stride = 8 * 64;
        let a = PhysAddr::new(0x20000);
        c.access(a, true);
        c.access(a + set_stride, true);
        let out = c.access(a + 2 * set_stride, true);
        assert_eq!(out.writeback(), None);
        assert_eq!(c.writebacks(), 0);
        assert_eq!(c.flush_all(), 0);
    }

    #[test]
    fn invalidate_single_line() {
        let mut c = small_cache(true);
        let a = PhysAddr::new(0x30040);
        c.access(a, true);
        assert!(c.probe(a));
        let wb = c.invalidate(a);
        assert_eq!(wb, Some(a.cache_line_base()));
        assert!(!c.probe(a));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = small_cache(true);
        c.access(PhysAddr::new(0x0), true);
        c.access(PhysAddr::new(0x40), false);
        c.access(PhysAddr::new(0x80), true);
        assert_eq!(c.flush_all(), 2);
        assert_eq!(c.resident_lines(), 0);
    }
}
