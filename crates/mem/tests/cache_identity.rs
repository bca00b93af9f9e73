//! Lockstep identity suite for the flat one-pass cache.
//!
//! [`Cache`] (one contiguous vector of ways, one pass per lookup) must be
//! **observation-identical** to the [`NaiveCache`] reference (the per-set
//! engine it replaced, kept in `reference/cache.rs`) on every operation:
//! identical outcomes (hit or miss, and the write-back address of a dirty
//! victim), probe answers, invalidation results and flush counts, and
//! identical hit/miss statistics, write-back counts and resident lines
//! after every step. The suite drives both engines through
//! `DeterministicRng` operation sequences on the platform's cache shapes:
//!
//! * the CVA6 8-way L1 data cache geometry,
//! * the 8-way Cheshire LLC,
//! * a 5-way cache of 256 sets, so the set walk covers a non-power-of-two
//!   associativity,
//! * a 2-way 1 KiB cache, where nearly every miss evicts.
//!
//! Addresses crowd a few sets with more lines than they have ways, so
//! replacement, dirty write-backs and refills after invalidation dominate,
//! with far addresses mixed in to exercise the high tag bits.

#[path = "reference/cache.rs"]
mod reference;

use reference::NaiveCache;
use sva_common::rng::DeterministicRng;
use sva_common::PhysAddr;
use sva_mem::{Cache, CacheConfig};

/// The cache shapes the suite covers, with labels.
fn geometries() -> Vec<(&'static str, CacheConfig)> {
    let cache = |size_bytes, ways| CacheConfig {
        size_bytes,
        ways,
        line_bytes: 64,
    };
    vec![
        ("8-way L1", cache(32 * 1024, 8)),
        ("8-way write-back LLC", sva_mem::llc::GEOMETRY),
        ("5-way cache", cache(5 * 256 * 64, 5)),
        ("2-way small cache", cache(1024, 2)),
    ]
}

/// A random address: mostly one of `ways + 3` lines in one of four hot
/// sets (so sets overflow and evict), sometimes anywhere in a 1 MiB window,
/// sometimes the same shapes above 2^38 to carry high tag bits.
fn address(rng: &mut DeterministicRng, config: &CacheConfig) -> PhysAddr {
    let line = config.line_bytes;
    let set_stride = config.sets() as u64 * line;
    let base = if rng.next_below(8) == 0 {
        0x40_0000_0000
    } else {
        0x8000_0000
    };
    let offset = if rng.next_below(6) == 0 {
        rng.next_below(1 << 20)
    } else {
        let set = rng.next_below(4) * 7 % config.sets() as u64;
        let k = rng.next_below(config.ways as u64 + 3);
        set * line + k * set_stride + rng.next_below(line)
    };
    PhysAddr::new(base + offset)
}

/// Asserts the two engines agree on every observable.
fn assert_state(flat: &Cache, naive: &NaiveCache, label: &str) {
    assert_eq!(flat.stats(), naive.stats(), "{label}: hit/miss stats");
    assert_eq!(
        flat.writebacks(),
        naive.writebacks(),
        "{label}: write-backs"
    );
    assert_eq!(
        flat.resident_lines(),
        naive.resident_lines(),
        "{label}: resident lines"
    );
}

/// Runs `steps` random operations on a fresh pair of engines.
fn lockstep(config: CacheConfig, rng: &mut DeterministicRng, steps: u64, label: &str) {
    let mut flat = Cache::new(config);
    let mut naive = NaiveCache::new(config);
    for step in 0..steps {
        let addr = address(rng, &config);
        let at = format!("{label}, step {step}, {addr}");
        match rng.next_below(100) {
            0..=79 => {
                let is_write = rng.next_below(3) == 0;
                assert_eq!(
                    flat.access(addr, is_write),
                    naive.access(addr, is_write),
                    "{at}: access (write={is_write})"
                );
            }
            80..=89 => assert_eq!(flat.probe(addr), naive.probe(addr), "{at}: probe"),
            90..=98 => assert_eq!(
                flat.invalidate(addr),
                naive.invalidate(addr),
                "{at}: invalidate"
            ),
            _ => assert_eq!(flat.flush_all(), naive.flush_all(), "{at}: flush"),
        }
        assert_state(&flat, &naive, &at);
    }
}

/// The core identity property over every covered cache shape.
#[test]
fn flat_cache_is_identical_to_the_per_set_reference() {
    let mut rng = DeterministicRng::new(0xCAC4_E1D5);
    for (label, config) in geometries() {
        for round in 0..6 {
            lockstep(config, &mut rng, 4000, &format!("{label}, round {round}"));
        }
    }
}

/// A long run without flushes on each shape: the stamps grow large and
/// every set cycles through many victims, so the least-recently-used choice
/// is tested far from the cold start.
#[test]
fn identity_holds_on_long_runs_without_flushes() {
    let mut rng = DeterministicRng::new(0x104C_AC4E);
    for (label, config) in geometries() {
        let mut flat = Cache::new(config);
        let mut naive = NaiveCache::new(config);
        for step in 0..40_000u64 {
            let addr = address(&mut rng, &config);
            let is_write = rng.next_below(2) == 0;
            assert_eq!(
                flat.access(addr, is_write),
                naive.access(addr, is_write),
                "{label}, step {step}, {addr}"
            );
        }
        assert_state(&flat, &naive, label);
        assert_eq!(flat.flush_all(), naive.flush_all(), "{label}: final flush");
    }
}
