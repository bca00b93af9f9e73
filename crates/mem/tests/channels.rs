//! Property tests of the multi-channel DRAM backend, driven by
//! `DeterministicRng` (the build is offline; no proptest). Three invariants
//! lock the channel layer down:
//!
//! 1. splitting the DRAM path into channels never changes *what* is
//!    accounted — total bytes and occupancy are conserved across channel
//!    counts, and the per-channel rows always sum to the fabric totals;
//! 2. the address interleave is a partition of the address space — every
//!    address maps to exactly one channel and whole granules never straddle;
//! 3. `num_channels = 1` reproduces the single-timeline fabric
//!    cycle-for-cycle, checked against an independent naive reimplementation
//!    of first-fit interval placement.
//!
//! The split-transaction queue layer adds three more:
//!
//! 4. finite depths conserve the *what* — bytes, occupancy, grants — and
//!    the per-channel stall/queue rows keep summing to the fabric totals;
//! 5. shallower queues never reduce total cycles (backpressure only
//!    delays);
//! 6. depth = ∞ — and any depth the traffic never fills — is cycle- and
//!    stall-identical to the pure reservation fabric.

use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, InitiatorId, MemPortReq, PhysAddr, PortTiming};
use sva_mem::channels::{channel_for, INTERLEAVE_GRANULE};
use sva_mem::fabric::{Fabric, FabricConfig};

const DRAM_BASE: u64 = 0x8000_0000;

/// One randomly drawn timed access.
#[derive(Clone, Copy, Debug)]
struct Access {
    device: u32,
    addr: u64,
    len: u64,
    arrival: u64,
    occupancy: u64,
}

fn random_accesses(rng: &mut DeterministicRng, n: usize) -> Vec<Access> {
    (0..n)
        .map(|_| {
            let len = 64 * (1 + rng.next_below(32));
            Access {
                device: 1 + 2 * rng.next_below(4) as u32,
                addr: DRAM_BASE + rng.next_below(1 << 14) * 512,
                len,
                arrival: rng.next_below(50_000),
                occupancy: len / 8,
            }
        })
        .collect()
}

fn drive(fabric: &mut Fabric, accesses: &[Access]) -> Vec<u64> {
    drive_split(fabric, accesses)
        .into_iter()
        .map(|(queue, _)| queue)
        .collect()
}

/// Drives the accesses and returns each one's `(queue, issue_stall)` split.
fn drive_split(fabric: &mut Fabric, accesses: &[Access]) -> Vec<(u64, u64)> {
    accesses
        .iter()
        .map(|a| {
            let req = MemPortReq::read(InitiatorId::dma(a.device), PhysAddr::new(a.addr), a.len)
                .as_burst()
                .at(Cycles::new(a.arrival));
            let outcome = fabric.admit(
                &req,
                PortTiming {
                    latency: Cycles::new(100),
                    occupancy: Cycles::new(a.occupancy),
                },
            );
            (outcome.queue.raw(), outcome.issue_stall.raw())
        })
        .collect()
}

fn bounded_config(depth: usize) -> FabricConfig {
    FabricConfig {
        req_queue_depth: depth,
        rsp_queue_depth: depth,
        ..FabricConfig::default()
    }
}

#[test]
fn totals_are_conserved_across_channel_counts() {
    let mut rng = DeterministicRng::new(0xC4A77E1);
    for case in 0..12 {
        let mut case_rng = rng.fork(case);
        let n = 1 + case_rng.next_below(150) as usize;
        let accesses = random_accesses(&mut case_rng, n);
        let mut reference: Option<(u64, u64, u64)> = None;
        for channels in [1usize, 2, 3, 4, 8] {
            let mut fabric = Fabric::new(FabricConfig {
                num_channels: channels,
                ..FabricConfig::default()
            });
            drive(&mut fabric, &accesses);
            let total = fabric.total();
            let per_channel = fabric.channel_stats();
            assert_eq!(per_channel.len(), channels);

            // Per-channel rows sum to the fabric totals, whatever the split.
            assert_eq!(
                per_channel.iter().map(|c| c.bytes).sum::<u64>(),
                total.bytes
            );
            assert_eq!(
                per_channel.iter().map(|c| c.occupancy_cycles).sum::<u64>(),
                total.occupancy_cycles
            );
            assert_eq!(
                per_channel.iter().map(|c| c.queue_cycles).sum::<u64>(),
                total.queue_cycles
            );
            assert_eq!(
                per_channel.iter().map(|c| c.grants).sum::<u64>(),
                accesses.len() as u64
            );

            // Bytes and occupancy do not depend on the channel count.
            let key = (total.bytes, total.occupancy_cycles, total.accesses());
            match reference {
                None => reference = Some(key),
                Some(k) => assert_eq!(k, key, "case {case}, {channels} channels"),
            }
        }
    }
}

#[test]
fn interleaving_is_a_partition_of_the_address_space() {
    let mut rng = DeterministicRng::new(0x9A57171);
    let granule = INTERLEAVE_GRANULE;
    for case in 0..40 {
        let mut case_rng = rng.fork(case);
        let n = 1 + case_rng.next_below(8) as usize;
        for _ in 0..200 {
            let addr = case_rng.next_below(1 << 40);
            // Total: every address maps to exactly one in-range channel
            // (channel_for is a function, so disjointness is structural).
            assert!(channel_for(PhysAddr::new(addr), n) < n);
            // Granules never straddle: first and last byte agree.
            let base = addr / granule * granule;
            assert_eq!(
                channel_for(PhysAddr::new(base), n),
                channel_for(PhysAddr::new(base + granule - 1), n),
                "granule at {base:#x} straddles channels"
            );
        }
        // A contiguous run of granules spreads evenly: each channel serves
        // an equal share of every full rotation.
        let mut counts = vec![0usize; n];
        let start = case_rng.next_below(1 << 30) * granule;
        for g in 0..(4 * n as u64) {
            counts[channel_for(PhysAddr::new(start + g * granule), n)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4), "uneven spread: {counts:?}");
    }
}

/// Naive reimplementation of the single shared-bus first-fit placement the
/// pre-channel fabric used: scan every reservation in (start, insertion)
/// order, jump past the first conflict, repeat until free.
struct NaiveTimeline {
    /// `(start, end, owner)` in insertion order.
    reservations: Vec<(u64, u64, usize)>,
}

impl NaiveTimeline {
    fn place(&mut self, arrival: u64, occupancy: u64, owner: usize) -> u64 {
        let mut placed = arrival;
        loop {
            let conflict = self
                .reservations
                .iter()
                .enumerate()
                .filter(|&(_, &(s, e, o))| o != owner && s < placed + occupancy && e > placed)
                .min_by_key(|&(idx, &(s, _, _))| (s, idx))
                .map(|(_, &(_, e, _))| e);
            match conflict {
                Some(end) => placed = end,
                None => break,
            }
        }
        if occupancy > 0 {
            self.reservations.push((placed, placed + occupancy, owner));
        }
        placed - arrival
    }
}

#[test]
fn single_channel_reproduces_the_single_timeline_fabric_cycle_for_cycle() {
    let mut rng = DeterministicRng::new(0x1D3A1);
    for case in 0..16 {
        let mut case_rng = rng.fork(case);
        let n = 1 + case_rng.next_below(120) as usize;
        let accesses = random_accesses(&mut case_rng, n);

        let mut fabric = Fabric::new(FabricConfig {
            num_channels: 1,
            ..FabricConfig::default()
        });
        let fabric_queues = drive(&mut fabric, &accesses);

        let mut naive = NaiveTimeline {
            reservations: Vec::new(),
        };
        let mut owners: Vec<u32> = Vec::new();
        let naive_queues: Vec<u64> = accesses
            .iter()
            .map(|a| {
                let owner = match owners.iter().position(|&d| d == a.device) {
                    Some(i) => i,
                    None => {
                        owners.push(a.device);
                        owners.len() - 1
                    }
                };
                naive.place(a.arrival, a.occupancy, owner)
            })
            .collect();

        assert_eq!(
            fabric_queues, naive_queues,
            "case {case}: single-channel fabric diverged from the reference"
        );
    }
}

/// Invariant 4: whatever the queue depths, *what* is accounted never
/// changes — grants, bytes and occupancy are conserved — and the new
/// stall/peak statistics keep the per-channel rows summing (stalls) or
/// bounding (peaks) the per-initiator totals.
#[test]
fn finite_depths_conserve_stats_and_channel_sums() {
    let mut rng = DeterministicRng::new(0x0F11_7E57);
    for case in 0..10 {
        let mut case_rng = rng.fork(case);
        let n = 1 + case_rng.next_below(120) as usize;
        let accesses = random_accesses(&mut case_rng, n);
        let mut reference: Option<(u64, u64, u64)> = None;
        for depth in [1usize, 2, 4, 8, usize::MAX] {
            let mut fabric = Fabric::new(FabricConfig {
                num_channels: 2,
                ..bounded_config(depth)
            });
            let split = drive_split(&mut fabric, &accesses);
            let total = fabric.total();
            let per_channel = fabric.channel_stats();

            // Conservation of the functional accounting across depths.
            let key = (total.bytes, total.occupancy_cycles, total.accesses());
            match reference {
                None => reference = Some(key),
                Some(k) => assert_eq!(k, key, "case {case}, depth {depth}"),
            }

            // Per-access outcomes sum to the per-initiator statistics...
            assert_eq!(
                split.iter().map(|&(q, _)| q).sum::<u64>(),
                total.queue_cycles,
                "case {case}, depth {depth}: queue sums"
            );
            assert_eq!(
                split.iter().map(|&(_, s)| s).sum::<u64>(),
                total.issue_stall_cycles,
                "case {case}, depth {depth}: stall sums"
            );
            // ...and the per-channel rows sum to the fabric totals.
            assert_eq!(
                per_channel.iter().map(|c| c.queue_cycles).sum::<u64>(),
                total.queue_cycles
            );
            assert_eq!(
                per_channel
                    .iter()
                    .map(|c| c.issue_stall_cycles)
                    .sum::<u64>(),
                total.issue_stall_cycles
            );
            // Peaks respect the configured depth, and the per-initiator
            // peaks never exceed the channel peaks.
            if depth != usize::MAX {
                for c in &per_channel {
                    assert!(c.req_queue_peak as usize <= depth);
                    assert!(c.rsp_queue_peak as usize <= depth);
                }
                let ch_req_peak = per_channel.iter().map(|c| c.req_queue_peak).max().unwrap();
                for snap in fabric.snapshot() {
                    assert!(snap.stats.req_queue_peak <= ch_req_peak);
                }
            } else {
                assert_eq!(total.issue_stall_cycles, 0, "inf depths never stall");
            }
        }
    }
}

/// Invariant 5: shallower queues never reduce total cycles — per access,
/// the total delay (issue stall + queueing) under a shallower queue is at
/// least the delay the unbounded fabric measured, and the totals are
/// monotone along the depth ladder.
#[test]
fn shallower_queues_never_reduce_total_cycles() {
    let mut rng = DeterministicRng::new(0x005A_1107);
    for case in 0..10 {
        let mut case_rng = rng.fork(case);
        let n = 1 + case_rng.next_below(100) as usize;
        let accesses = random_accesses(&mut case_rng, n);
        let mut prev_total: Option<u64> = None;
        // Deep to shallow: total delay must not decrease.
        for depth in [usize::MAX, 8, 4, 2, 1] {
            let mut fabric = Fabric::new(bounded_config(depth));
            let split = drive_split(&mut fabric, &accesses);
            let total: u64 = split.iter().map(|&(q, s)| q + s).sum();
            if let Some(prev) = prev_total {
                assert!(
                    total >= prev,
                    "case {case}: depth {depth} reduced total delay ({total} < {prev})"
                );
            }
            prev_total = Some(total);
        }
    }
}

/// Invariant 6: unbounded depths — and any finite depth the traffic never
/// fills — are cycle- and stall-identical to the pure reservation fabric
/// (the PR 3 engine): same queue delays, zero stalls.
#[test]
fn unbounded_depth_is_cycle_identical_to_the_reservation_fabric() {
    let mut rng = DeterministicRng::new(0x01DE_1717);
    for case in 0..12 {
        let mut case_rng = rng.fork(case);
        let n = 1 + case_rng.next_below(120) as usize;
        let accesses = random_accesses(&mut case_rng, n);

        let mut reference = Fabric::default();
        let ref_queues = drive(&mut reference, &accesses);

        // Explicit unbounded depths: the queue machinery is skipped.
        let mut unbounded = Fabric::new(bounded_config(usize::MAX));
        let unbounded_split = drive_split(&mut unbounded, &accesses);
        assert_eq!(
            unbounded_split.iter().map(|&(q, _)| q).collect::<Vec<_>>(),
            ref_queues,
            "case {case}: unbounded depths diverged from the reservation fabric"
        );
        assert!(unbounded_split.iter().all(|&(_, s)| s == 0));

        // A finite depth deeper than the whole access count: the queues can
        // never fill, so the split-transaction flow is cycle-identical too.
        let mut deep = Fabric::new(bounded_config(n + 1));
        let deep_split = drive_split(&mut deep, &accesses);
        assert_eq!(
            deep_split.iter().map(|&(q, _)| q).collect::<Vec<_>>(),
            ref_queues,
            "case {case}: never-full finite queues diverged"
        );
        assert!(deep_split.iter().all(|&(_, s)| s == 0));
        assert_eq!(deep.total().queue_cycles, reference.total().queue_cycles);
    }
}
