//! Address-interleaved DRAM channel selection.
//!
//! The fabric's single DRAM path can be split into independent channels, each
//! with its own data-bus timeline (see [`crate::fabric`]). This module holds
//! the geometry knob — [`DramChannelConfig`] — and the pure address→channel
//! mapping the fabric uses to route every grant.
//!
//! The mapping interleaves the physical address space across channels at
//! [`DramChannelConfig::interleave_granule`]-byte granularity: consecutive
//! granules land on consecutive channels, so a streaming burst train spreads
//! evenly. [`DramChannelConfig::rank_bits`] optionally XOR-folds higher
//! address bits into the selection (the address-hashing trick DRAM
//! controllers use) so power-of-two strides do not all camp on one channel.
//! Every address maps to exactly one channel, making the channels a
//! *partition* of the address space — a property the test layer pins down.

use sva_common::PhysAddr;

/// Geometry of the multi-channel DRAM backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramChannelConfig {
    /// Number of independent DRAM channels (clamped to at least 1). One
    /// channel reproduces the single shared data-bus timeline of the paper's
    /// prototype cycle-for-cycle.
    pub num_channels: usize,
    /// Number of higher address bits XOR-folded into the channel index
    /// (0 disables folding). Folding decorrelates strided access patterns
    /// from the plain modulo interleave.
    pub rank_bits: u32,
    /// Bytes of consecutive address space served by one channel before the
    /// interleave moves to the next (typically the page or row size).
    pub interleave_granule: u64,
}

impl DramChannelConfig {
    /// Single-channel configuration (the paper's prototype).
    pub const SINGLE: DramChannelConfig = DramChannelConfig {
        num_channels: 1,
        rank_bits: 0,
        interleave_granule: 4096,
    };

    /// A plain page-interleaved configuration with `n` channels.
    pub fn interleaved(n: usize) -> Self {
        Self {
            num_channels: n.max(1),
            ..Self::SINGLE
        }
    }

    /// The effective channel count (never zero).
    pub fn channels(&self) -> usize {
        self.num_channels.max(1)
    }

    /// The channel serving `addr`.
    ///
    /// Pure function of the configuration and the address: the granule index
    /// `addr / interleave_granule`, XOR-folded by `rank_bits` when non-zero,
    /// modulo the channel count.
    ///
    /// The fabric routes a whole access by its *start* address: a burst that
    /// straddles a granule boundary occupies (and is accounted to) the
    /// starting granule's channel only. DMA bursts are split at page
    /// boundaries upstream, so with the default 4 KiB granule this never
    /// happens; shrinking the granule below the burst size trades that
    /// precision for finer interleaving.
    pub fn channel_for(&self, addr: PhysAddr) -> usize {
        let n = self.channels();
        if n == 1 {
            return 0;
        }
        let granule = self.interleave_granule.max(1);
        let block = addr.raw() / granule;
        let folded = if self.rank_bits > 0 {
            block ^ (block >> self.rank_bits)
        } else {
            block
        };
        (folded % n as u64) as usize
    }
}

impl Default for DramChannelConfig {
    fn default() -> Self {
        Self::SINGLE
    }
}

/// Aggregate fabric-port statistics of one DRAM channel.
///
/// Accounted **by address at the fabric port**: every grant is charged to
/// its address's channel, including accesses the LLC or SPM ends up serving
/// without touching DRAM (this is what keeps the per-channel rows summing
/// exactly to the per-initiator fabric totals). Read the rows as "traffic
/// addressed to this channel's slice of memory", not as DRAM-controller
/// throughput. Only timed grants (DMA bursts) additionally reserve the
/// channel's data-bus timeline and can accumulate `queue_cycles`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Grants routed to the channel (timed and untimed).
    pub grants: u64,
    /// Bytes of traffic addressed to the channel.
    pub bytes: u64,
    /// Data-bus occupancy accumulated on the channel.
    pub occupancy_cycles: u64,
    /// Cross-initiator queueing observed on the channel's timeline.
    pub queue_cycles: u64,
    /// Issue stalls accumulated at the channel's request queue (admissions
    /// delayed because the queue was full; zero with unbounded depths).
    pub issue_stall_cycles: u64,
    /// Highest request-queue occupancy observed at any admission (zero with
    /// unbounded depths, whose occupancy is never tracked).
    pub req_queue_peak: u64,
    /// Highest response-queue occupancy observed at any grant (zero with
    /// unbounded depths).
    pub rsp_queue_peak: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_channel_maps_everything_to_zero() {
        let cfg = DramChannelConfig::SINGLE;
        for addr in [0u64, 0x8000_0000, 0xFFFF_FFFF_F000] {
            assert_eq!(cfg.channel_for(PhysAddr::new(addr)), 0);
        }
    }

    #[test]
    fn consecutive_granules_rotate_channels() {
        let cfg = DramChannelConfig::interleaved(4);
        for g in 0..16u64 {
            let addr = PhysAddr::new(0x8000_0000 + g * 4096);
            assert_eq!(
                cfg.channel_for(addr),
                ((0x8000_0000 / 4096 + g) % 4) as usize
            );
            // Every byte of the granule stays on the granule's channel.
            let last = PhysAddr::new(addr.raw() + 4095);
            assert_eq!(cfg.channel_for(addr), cfg.channel_for(last));
        }
    }

    #[test]
    fn rank_folding_spreads_power_of_two_strides() {
        // A stride of (num_channels * granule) camps on one channel without
        // folding; rank_bits must break the pattern.
        let plain = DramChannelConfig::interleaved(4);
        let folded = DramChannelConfig {
            rank_bits: 2,
            ..DramChannelConfig::interleaved(4)
        };
        let hits = |cfg: &DramChannelConfig| -> Vec<usize> {
            (0..64u64)
                .map(|i| cfg.channel_for(PhysAddr::new(i * 4 * 4096)))
                .collect()
        };
        let p = hits(&plain);
        assert!(p.iter().all(|&c| c == p[0]), "plain modulo camps");
        let f = hits(&folded);
        let distinct = {
            let mut v = f.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct > 1, "folding spreads the stride: {f:?}");
    }

    #[test]
    fn zero_channels_and_zero_granule_are_clamped() {
        let cfg = DramChannelConfig {
            num_channels: 0,
            rank_bits: 0,
            interleave_granule: 0,
        };
        assert_eq!(cfg.channels(), 1);
        assert_eq!(cfg.channel_for(PhysAddr::new(0x1234)), 0);
    }
}
