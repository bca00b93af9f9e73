//! Generic set-associative cache timing model.
//!
//! The model tracks tags, LRU state and dirty bits only — the functional data
//! always lives in the backing store. This is sufficient because the
//! simulation only needs to know *whether* an access hits and *which* line a
//! miss evicts, not the cached bytes themselves.
//!
//! The lines are one flat vector of `sets × ways` 16-byte entries, each a
//! tag (all ones for an invalid way) and the last-use stamp shifted left by
//! one with the dirty bit in bit 0. A lookup scans its set once: the pass
//! either finds the hit or ends holding the victim. The per-set engine this
//! layout replaced is kept as the reference of the `cache_identity`
//! lockstep suite (`tests/reference/cache.rs`), which replays randomized
//! access, probe, invalidate and flush sequences against both.
//!
//! A written line is marked dirty and written back when it is evicted. Two
//! instances are used in the platform:
//!
//! * the CVA6 32 KiB write-through L1 data cache: the host core only
//!   presents reads to it (a store updates a resident line with a read
//!   access and goes on to memory), so its lines never become dirty;
//! * the Cheshire 128 KiB write-back last-level cache ([`crate::llc`]).

use sva_common::stats::HitMiss;
use sva_common::PhysAddr;

/// Geometry of a cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
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
        /// if any.
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

/// One way of a set. An invalid way holds the tag [`INVALID`] and a zero
/// `meta`; a valid way holds its tag and `meta` = last-use stamp `<< 1`,
/// with the dirty bit in bit 0.
///
/// Stamps start at 1, so every valid way's `meta` is at least 2 and stamps
/// are unique: ordering ways by `meta` puts the invalid ways first, then
/// the valid ones from least to most recently used.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Way {
    tag: u64,
    meta: u64,
}

/// The tag of an invalid way. A real tag is all ones only for one-byte
/// lines in a single set at address `u64::MAX`, which no memory region
/// decodes to.
const INVALID: u64 = u64::MAX;

const EMPTY: Way = Way {
    tag: INVALID,
    meta: 0,
};

/// A set-associative cache with true-LRU replacement.
///
/// The ways of all sets live in one contiguous vector, set after set. A
/// lookup makes one pass over its set that returns either the hit or the
/// victim: the first invalid way, else the least recently used one.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` entries; set `s` occupies `s * ways..(s + 1) * ways`.
    ways: Vec<Way>,
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
            ways: vec![EMPTY; config.sets() * config.ways],
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

    /// The ways of set `set_idx`.
    fn set(&self, set_idx: usize) -> &[Way] {
        let n = self.config.ways;
        &self.ways[set_idx * n..(set_idx + 1) * n]
    }

    /// Base address of the line with `tag` in set `set_idx`.
    fn line_base(&self, tag: u64, set_idx: usize) -> PhysAddr {
        PhysAddr::new(((tag << self.set_shift) | set_idx as u64) << self.line_shift)
    }

    /// Looks up the line containing `addr`, filling it on a miss.
    ///
    /// `is_write` marks the line dirty. The returned outcome reports whether
    /// the access hit and whether a dirty victim had to be written back.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> CacheOutcome {
        self.lru_clock += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let dirty = u64::from(is_write);
        let stamp = self.lru_clock << 1;
        let n = self.config.ways;
        let set = &mut self.ways[set_idx * n..(set_idx + 1) * n];

        // One pass: return on a hit, else keep the first way with the
        // smallest `meta` — the first invalid way, else the LRU one.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, way) in set.iter_mut().enumerate() {
            if way.tag == tag {
                way.meta = stamp | (way.meta & 1) | dirty;
                self.stats.hit();
                return CacheOutcome::Hit;
            }
            if way.meta < oldest {
                victim = i;
                oldest = way.meta;
            }
        }

        self.stats.miss();
        let evicted = std::mem::replace(
            &mut set[victim],
            Way {
                tag,
                meta: stamp | dirty,
            },
        );
        // Invalid ways have a zero `meta`, so only a valid dirty line is
        // written back.
        let writeback = (evicted.meta & 1 == 1).then(|| self.line_base(evicted.tag, set_idx));
        if writeback.is_some() {
            self.writebacks += 1;
        }
        CacheOutcome::Miss { writeback }
    }

    /// Returns `true` if the line containing `addr` is currently present,
    /// without updating any state.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        self.set(set_idx).iter().any(|w| w.tag == tag)
    }

    /// Invalidates the line containing `addr` if present, returning its base
    /// address if it was dirty (caller is responsible for writing it back).
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<PhysAddr> {
        let (set_idx, tag) = self.index_and_tag(addr);
        let i = self.set(set_idx).iter().position(|w| w.tag == tag)?;
        let way = std::mem::replace(&mut self.ways[set_idx * self.config.ways + i], EMPTY);
        (way.meta & 1 == 1).then(|| self.line_base(tag, set_idx))
    }

    /// Invalidates the whole cache, returning the number of dirty lines that
    /// would be written back by the flush.
    pub fn flush_all(&mut self) -> u64 {
        let dirty = self.ways.iter().map(|w| w.meta & 1).sum();
        self.ways.fill(EMPTY);
        dirty
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.ways.iter().filter(|w| w.tag != INVALID).count() as u64
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

    fn small_cache() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry() {
        let c = crate::llc::GEOMETRY;
        assert_eq!(c.sets(), 256);
        assert!(c.validate().is_ok());
        assert!(CacheConfig {
            size_bytes: 1000,
            ways: 3,
            line_bytes: 64,
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 63,
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
        };
        assert_eq!(odd.sets(), 192);
        let err = odd.validate().unwrap_err();
        assert!(err.contains("192"), "{err}");
        // Non-power-of-two associativity is fine while the sets stay a
        // power of two.
        let five_way = CacheConfig {
            size_bytes: 5 * 256 * 64,
            ways: 5,
            line_bytes: 64,
        };
        assert_eq!(five_way.sets(), 256);
        assert!(five_way.validate().is_ok());
        assert!(crate::llc::GEOMETRY.validate().is_ok());
    }

    #[test]
    fn writeback_and_invalidate_addresses_round_trip_the_index() {
        let mut c = small_cache();
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
        let mut c = small_cache();
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
        let mut c = small_cache();
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
        let mut c = small_cache();
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
    fn invalidate_single_line() {
        let mut c = small_cache();
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
        let mut c = small_cache();
        c.access(PhysAddr::new(0x0), true);
        c.access(PhysAddr::new(0x40), false);
        c.access(PhysAddr::new(0x80), true);
        assert_eq!(c.flush_all(), 2);
        assert_eq!(c.resident_lines(), 0);
    }
}
