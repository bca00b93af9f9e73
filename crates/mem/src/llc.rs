//! The Cheshire shared last-level cache (LLC).
//!
//! Cheshire's LLC sits between the system crossbar and the DRAM controller.
//! In the paper's platform all of its 128 KiB are configured as cache, and —
//! crucially for the SVA evaluation — it serves only **host** and **IOMMU
//! page-table-walk** traffic: device DMA uses the bypass address window so
//! long bursts do not get broken into line refills and do not evict host
//! data.
//!
//! The model is a tag-only write-back cache plus the hit/refill timing used
//! by [`crate::system::MemorySystem`].

use sva_common::stats::HitMiss;
use sva_common::{Cycles, PhysAddr, CACHE_LINE_SIZE, KIB};

use crate::cache::{Cache, CacheConfig, CacheOutcome};

/// Geometry of the paper's LLC: 128 KiB, 8-way, 64-byte lines, every way
/// used as cache.
pub const GEOMETRY: CacheConfig = CacheConfig {
    size_bytes: 128 * KIB,
    ways: 8,
    line_bytes: CACHE_LINE_SIZE,
};

/// Latency of an LLC hit, including the crossbar-to-LLC hop.
pub const HIT_LATENCY: Cycles = Cycles::new(9);

/// Configuration of the last-level cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LlcConfig {
    /// Whether device DMA traffic is cached by the LLC (the paper argues it
    /// must *not* be; enabling it is an ablation). Host and page-table-walk
    /// traffic always goes through the LLC.
    pub serves_dma: bool,
}

/// Who issued an LLC access; used only for statistics so the experiments can
/// report host and PTW hit rates separately.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LlcRequester {
    /// CVA6 host traffic (through the L1).
    Host,
    /// IOMMU page-table-walk traffic.
    Ptw,
    /// Device DMA traffic (only when the bypass is disabled for ablation).
    Dma,
}

/// The last-level cache model.
#[derive(Clone, Debug)]
pub struct Llc {
    config: LlcConfig,
    cache: Cache,
    host_stats: HitMiss,
    ptw_stats: HitMiss,
    dma_stats: HitMiss,
    flushes: u64,
}

impl Llc {
    /// Creates an empty LLC with the given configuration.
    pub fn new(config: LlcConfig) -> Self {
        Self {
            config,
            cache: Cache::new(GEOMETRY),
            host_stats: HitMiss::new(),
            ptw_stats: HitMiss::new(),
            dma_stats: HitMiss::new(),
            flushes: 0,
        }
    }

    /// The configuration of this LLC.
    pub const fn config(&self) -> &LlcConfig {
        &self.config
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    pub fn access(
        &mut self,
        requester: LlcRequester,
        addr: PhysAddr,
        is_write: bool,
    ) -> CacheOutcome {
        let outcome = self.cache.access(addr, is_write);
        let stats = match requester {
            LlcRequester::Host => &mut self.host_stats,
            LlcRequester::Ptw => &mut self.ptw_stats,
            LlcRequester::Dma => &mut self.dma_stats,
        };
        if outcome.is_hit() {
            stats.hit();
        } else {
            stats.miss();
        }
        outcome
    }

    /// Returns `true` if the line containing `addr` is resident (no state
    /// update).
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.cache.probe(addr)
    }

    /// Invalidates a single line; returns its base address if it was dirty.
    pub fn invalidate_line(&mut self, addr: PhysAddr) -> Option<PhysAddr> {
        self.cache.invalidate(addr)
    }

    /// Flushes the entire cache (the `flush_last_level_cache()` call of
    /// Listing 1), returning the number of dirty lines written back.
    pub fn flush_all(&mut self) -> u64 {
        self.flushes += 1;
        self.cache.flush_all()
    }

    /// Hit/miss statistics for a given requester.
    pub const fn stats(&self, requester: LlcRequester) -> HitMiss {
        match requester {
            LlcRequester::Host => self.host_stats,
            LlcRequester::Ptw => self.ptw_stats,
            LlcRequester::Dma => self.dma_stats,
        }
    }

    /// Number of whole-cache flushes requested so far.
    pub const fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Number of dirty-line writebacks caused by evictions.
    pub fn writebacks(&self) -> u64 {
        self.cache.writebacks()
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.cache.resident_lines()
    }

    /// Clears all statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.host_stats.reset();
        self.ptw_stats.reset();
        self.dma_stats.reset();
        self.cache.reset_stats();
        self.flushes = 0;
    }
}

impl Default for Llc {
    fn default() -> Self {
        Self::new(LlcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_requester_statistics() {
        let mut llc = Llc::default();
        let pte_addr = PhysAddr::new(0x8010_0000);
        // Host writes the PTE (miss, fill)...
        assert!(!llc.access(LlcRequester::Host, pte_addr, true).is_hit());
        // ...then the PTW reads it back and hits.
        assert!(llc.access(LlcRequester::Ptw, pte_addr, false).is_hit());
        assert_eq!(llc.stats(LlcRequester::Host).misses, 1);
        assert_eq!(llc.stats(LlcRequester::Ptw).hits, 1);
        assert_eq!(llc.stats(LlcRequester::Dma).total(), 0);
    }

    #[test]
    fn flush_writes_back_dirty_lines_and_empties_cache() {
        let mut llc = Llc::default();
        llc.access(LlcRequester::Host, PhysAddr::new(0x8000_0000), true);
        llc.access(LlcRequester::Host, PhysAddr::new(0x8000_0040), false);
        let dirty = llc.flush_all();
        assert_eq!(dirty, 1);
        assert_eq!(llc.resident_lines(), 0);
        assert_eq!(llc.flushes(), 1);
        assert!(!llc.probe(PhysAddr::new(0x8000_0000)));
    }

    #[test]
    fn invalidate_line_reports_dirtiness() {
        let mut llc = Llc::default();
        let a = PhysAddr::new(0x8000_1000);
        llc.access(LlcRequester::Host, a, true);
        assert_eq!(llc.invalidate_line(a), Some(a));
        llc.access(LlcRequester::Host, a, false);
        assert_eq!(llc.invalidate_line(a), None);
    }
}
