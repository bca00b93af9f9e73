//! Pinned walker-level outcomes of the batched PTW.
//!
//! The walk table's cycle identity with its reference engine is checked at
//! the table level (the lockstep suite in `sva_iommu::ptw`'s test module).
//! This suite pins what the whole walker produces on top of it: every
//! [`sva_iommu::PtwResult`] — leaf, cycles, reads, coalesced levels — every
//! fault, and the final walker statistics, folded into one digest per
//! randomized round. The digests were recorded while the suite still
//! twin-ran the indexed walker against a walker on the flat reference table
//! and both produced them. They were re-pinned once, when a default-built
//! walker stopped reporting a minimum walk time of 0: without the `min`
//! term the old and the new walker give the same digests. The grid drives `DeterministicRng` walk storms
//! across
//!
//! * batched (MSHR sizes 1, 2, 8, 64) and serial walkers,
//! * unbounded and shallow request queues, with and without the
//!   global-clock engine (`timed_host_ptw`, the port-credit clamp),
//! * out-of-order shard times: per-shard monotone cursors interleaved
//!   exactly like the platform's sharded offload, plus exact-boundary
//!   arrivals landing on recorded completion instants,
//! * mapped and unmapped pages (the fault path), LLC on and off,
//!
//! and additionally shows that watermark compaction is outcome-neutral
//! under its contract while bounding the live set.

use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Error, Iova, PAGE_SIZE};
use sva_iommu::PageTableWalker;
use sva_mem::{FabricConfig, MemSysConfig, MemorySystem};
use sva_vm::{AddressSpace, FrameAllocator};

const PAGES: u64 = 6;

/// Digest of each round of
/// [`indexed_walk_table_is_cycle_identical_to_the_naive_reference`].
const ROUND_DIGESTS: [u64; 6] = [
    0x36cf_2fcd_df26_1b52,
    0xac7a_72b5_6aab_4783,
    0xc3fd_4374_9550_be5a,
    0xac30_dea5_b534_19dc,
    0x08e3_62c8_724d_2e2c,
    0xe685_484e_d3e7_a4c4,
];

/// Digest of each window of [`identity_holds_across_measurement_windows`].
const WINDOW_DIGESTS: [u64; 3] = [
    0xd394_e1b2_b59c_802f,
    0xd9cc_8eb4_8782_1392,
    0x5956_1934_defd_5965,
];

/// One timed walk request: which page (one slot past the mapped range is
/// the deliberately unmapped faulting page), when, read or write.
#[derive(Clone, Copy, Debug)]
struct WalkOp {
    page: u64,
    t: u64,
    is_write: bool,
}

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn words<const N: usize>(&mut self, words: [u64; N]) {
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in the walker's final statistics.
    fn stats(&mut self, ptw: &PageTableWalker) {
        let time = ptw.walk_time();
        self.words([
            ptw.walks(),
            ptw.faults(),
            ptw.pte_reads(),
            ptw.coalesced_reads(),
            time.count(),
            time.sum(),
            time.min().unwrap_or(u64::MAX),
            time.max().unwrap_or(u64::MAX),
        ]);
    }
}

/// A deterministic environment: a memory system and an address space with
/// `PAGES` mapped pages. Two calls with the same knobs yield bit-identical
/// environments.
fn environment(
    llc: bool,
    req_queue_depth: usize,
    timed: bool,
) -> (MemorySystem, AddressSpace, Iova) {
    let mut mem = MemorySystem::new(MemSysConfig {
        dram_latency: Cycles::new(400),
        llc: llc.then(sva_mem::LlcConfig::default),
        fabric: FabricConfig {
            req_queue_depth,
            timed_host_ptw: timed,
            ..FabricConfig::default()
        },
    });
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let va = space
        .alloc_buffer(&mut mem, &mut frames, PAGES * PAGE_SIZE)
        .unwrap();
    (mem, space, Iova::from_virt(va))
}

/// A randomized walk storm shaped like the platform's traffic: several
/// conceptually concurrent shards whose local cursors advance
/// independently (and occasionally restart at zero mid-run, so arrival
/// order is *not* simulation order), dense enough to coalesce, with a
/// sprinkle of faulting walks of the unmapped page.
fn workload(rng: &mut DeterministicRng, walks: usize) -> Vec<WalkOp> {
    let shards = 1 + rng.next_below(4) as usize;
    let mut cursors = vec![0u64; shards];
    let mut out = Vec::with_capacity(walks);
    for i in 0..walks {
        let shard = i % shards;
        if rng.next_below(40) == 0 {
            // A shard restart: its clock rewinds to zero, like a fresh
            // device window simulated after its siblings.
            cursors[shard] = 0;
        }
        cursors[shard] += rng.next_below(60);
        let page = if rng.next_below(12) == 0 {
            PAGES // one past the mapped range: every walk of it faults
        } else {
            rng.next_below(PAGES)
        };
        out.push(WalkOp {
            page,
            t: cursors[shard],
            is_write: rng.next_below(4) == 0,
        });
    }
    out
}

/// Runs one op, returning its comparable words: leaf, cycles, reads and
/// coalesced levels, or the faulting IOVA and direction.
fn step(
    ptw: &mut PageTableWalker,
    mem: &mut MemorySystem,
    space: &AddressSpace,
    base: Iova,
    op: WalkOp,
) -> [u64; 5] {
    match ptw.walk_at(
        mem,
        space.root(),
        base + op.page * PAGE_SIZE,
        op.is_write,
        Cycles::new(op.t),
    ) {
        Ok(res) => [
            0,
            res.leaf.raw(),
            res.cycles.raw(),
            u64::from(res.reads),
            u64::from(res.coalesced),
        ],
        Err(Error::IoPageFault { iova, is_write }) => [1, iova.raw(), u64::from(is_write), 0, 0],
        Err(e) => panic!("unexpected walk error: {e:?}"),
    }
}

/// Runs `ops` on `ptw` in a fresh environment and folds every outcome and
/// the final statistics into `digest`.
fn run_cell(
    mut ptw: PageTableWalker,
    llc: bool,
    req_queue_depth: usize,
    timed: bool,
    ops: &[WalkOp],
    digest: &mut Digest,
) {
    let (mut mem, space, base) = environment(llc, req_queue_depth, timed);
    for &op in ops {
        digest.words(step(&mut ptw, &mut mem, &space, base, op));
    }
    digest.stats(&ptw);
    ptw.debug_validate_walk_table();
}

/// The per-round digests of the grid.
fn round_digests() -> Vec<u64> {
    let mut rng = DeterministicRng::new(0x977A_B1E5);
    (0..ROUND_DIGESTS.len())
        .map(|round| {
            let ops = workload(&mut rng, 150);
            let llc = round % 2 == 0;
            let mut digest = Digest::new();
            for &mshr in &[1usize, 2, 8, 64] {
                for &req_depth in &[usize::MAX, 2, 1] {
                    for &timed in &[false, true] {
                        run_cell(
                            PageTableWalker::with_batching(mshr),
                            llc,
                            req_depth,
                            timed,
                            &ops,
                            &mut digest,
                        );
                    }
                }
            }
            run_cell(
                PageTableWalker::new(),
                false,
                usize::MAX,
                false,
                &ops,
                &mut digest,
            );
            digest.0
        })
        .collect()
}

/// The per-window digests of one walker across three measurement windows.
fn window_digests() -> Vec<u64> {
    let mut rng = DeterministicRng::new(0x977A_57AC);
    let mut ptw = PageTableWalker::with_batching(8);
    (0..WINDOW_DIGESTS.len())
        .map(|_| {
            let ops = workload(&mut rng, 120);
            let (mut mem, space, base) = environment(false, usize::MAX, true);
            let mut digest = Digest::new();
            for &op in &ops {
                digest.words(step(&mut ptw, &mut mem, &space, base, op));
            }
            digest.stats(&ptw);
            ptw.debug_validate_walk_table();
            ptw.reset_stats();
            digest.0
        })
        .collect()
}

/// The indexed walker reproduces, walk for walk, the outcomes the walker on
/// the flat reference table produced when the digests were recorded:
/// randomized walk storms across MSHR sizes × {unbounded, shallow} queues ×
/// {untimed, timed} × LLC, plus the serial walker, one digest per round.
#[test]
fn indexed_walk_table_is_cycle_identical_to_the_naive_reference() {
    assert_eq!(
        round_digests(),
        ROUND_DIGESTS,
        "walker outcomes moved from the pinned per-round digests"
    );
}

/// The pinned outcomes survive measurement-window boundaries: the walker
/// resets its statistics (which purges the table) between windows, and each
/// window's storm restarts its cursors at zero.
#[test]
fn identity_holds_across_measurement_windows() {
    assert_eq!(
        window_digests(),
        WINDOW_DIGESTS,
        "walker outcomes moved from the pinned per-window digests"
    );
}

/// Watermark compaction is outcome-neutral under its contract and bounds
/// the live set: with a monotone clock (the no-earlier-arrival guarantee
/// the offload driver provides at device-window boundaries), periodically
/// folding dead windows changes no walk and keeps the live record count
/// far below the uncompacted twin's.
#[test]
fn compaction_is_outcome_neutral_and_bounds_the_live_set() {
    let mut rng = DeterministicRng::new(0x977A_C04A);
    let mut compacted = PageTableWalker::with_batching(8);
    let mut reference = PageTableWalker::with_batching(8);
    let (mut mem_a, space_a, base_a) = environment(false, usize::MAX, true);
    let (mut mem_b, space_b, base_b) = environment(false, usize::MAX, true);
    let mut t = 0u64;
    let mut peak = 0usize;
    for i in 0..800u64 {
        // Mostly strides long enough for earlier windows to die (latency
        // 400, three dependent reads), with occasional dense bursts so
        // live windows and coalescing still occur across fold points.
        t += if rng.next_below(4) == 0 {
            rng.next_below(30)
        } else {
            900 + rng.next_below(600)
        };
        let op = WalkOp {
            page: rng.next_below(PAGES),
            t,
            is_write: false,
        };
        let x = step(&mut compacted, &mut mem_a, &space_a, base_a, op);
        let y = step(&mut reference, &mut mem_b, &space_b, base_b, op);
        assert_eq!(x, y, "walk {i} diverged under compaction");
        if i % 64 == 63 {
            compacted.compact_walk_table_before(Cycles::new(t));
            compacted.debug_validate_walk_table();
        }
        peak = peak.max(compacted.walk_table_events());
    }
    assert_eq!(compacted.coalesced_reads(), reference.coalesced_reads());
    assert!(compacted.walk_table_compacted_events() > 0);
    assert!(
        compacted.walk_table_events_peak() <= reference.walk_table_events_peak(),
        "folding can only lower the peak"
    );
    assert!(
        peak < reference.walk_table_events() / 2,
        "live set must stay far below the uncompacted table \
         (peak {peak} vs {})",
        reference.walk_table_events()
    );
}
