//! Address-interleaved DRAM channel selection.
//!
//! The fabric's single DRAM path can be split into independent channels, each
//! with its own data-bus timeline (see [`crate::fabric`]); their number is
//! [`crate::FabricConfig::num_channels`]. This module holds the pure
//! address→channel mapping the fabric uses to route every grant.
//!
//! The mapping interleaves the physical address space across channels at
//! [`INTERLEAVE_GRANULE`]-byte granularity: consecutive granules land on
//! consecutive channels, so a streaming burst train spreads evenly. Every
//! address maps to exactly one channel, making the channels a *partition* of
//! the address space — a property the test layer pins down.

use sva_common::PhysAddr;

/// Bytes of consecutive address space one channel serves before the
/// interleave moves to the next: the 4 KiB page.
pub const INTERLEAVE_GRANULE: u64 = 4096;

/// The channel serving `addr` among `num_channels` interleaved channels.
///
/// Pure function of the channel count and the address: the granule index
/// `addr / INTERLEAVE_GRANULE` modulo the channel count. Zero or one
/// channel maps every address to channel 0.
///
/// The fabric routes a whole access by its *start* address: a burst that
/// straddles a granule boundary occupies (and is accounted to) the starting
/// granule's channel only. DMA bursts are split at page boundaries upstream,
/// so with the 4 KiB granule this never happens.
pub fn channel_for(addr: PhysAddr, num_channels: usize) -> usize {
    if num_channels <= 1 {
        return 0;
    }
    (addr.raw() / INTERLEAVE_GRANULE % num_channels as u64) as usize
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
        for addr in [0u64, 0x8000_0000, 0xFFFF_FFFF_F000] {
            assert_eq!(channel_for(PhysAddr::new(addr), 1), 0);
        }
    }

    #[test]
    fn zero_channels_and_zero_granule_are_clamped() {
        // Zero channels behave as one.
        for addr in [0u64, 0x1234, 0xFFFF_FFFF_F000] {
            assert_eq!(channel_for(PhysAddr::new(addr), 0), 0);
        }
        // The granule is a non-zero constant: the next granule moves on.
        assert_eq!(channel_for(PhysAddr::new(INTERLEAVE_GRANULE - 1), 2), 0);
        assert_eq!(channel_for(PhysAddr::new(INTERLEAVE_GRANULE), 2), 1);
    }

    #[test]
    fn consecutive_granules_rotate_channels() {
        for g in 0..16u64 {
            let addr = PhysAddr::new(0x8000_0000 + g * 4096);
            assert_eq!(
                channel_for(addr, 4),
                ((0x8000_0000 / 4096 + g) % 4) as usize
            );
            // Every byte of the granule stays on the granule's channel.
            let last = PhysAddr::new(addr.raw() + 4095);
            assert_eq!(channel_for(addr, 4), channel_for(last, 4));
        }
    }
}
