//! Host streams over unaligned, page-crossing buffers: the copy engine in
//! both directions and the host kernel runner must move exactly the right
//! bytes and reproduce pinned cycle and cache counts.
//!
//! The buffers start mid-line and end mid-line, and each crosses a page
//! boundary, so a stream that translates once per page (instead of once
//! per line) and moves functional data page by page must still issue the
//! same line-by-line timing sequence: same addresses, same lengths, same
//! order. The pins were captured from the line-by-line implementation.

use sva_common::{Cycles, PhysAddr, VirtAddr, PAGE_SIZE};
use sva_host::{CopyEngine, HostCpu, HostKernelCost, HostKernelRunner};
use sva_mem::llc::LlcRequester;
use sva_mem::{MemSysConfig, MemorySystem};
use sva_vm::{AddressSpace, FrameAllocator};

/// Start offset of the source stream inside its first page (mid-line).
const SRC_SKEW: u64 = 40;
/// Start offset of the destination stream inside its first page.
const DST_SKEW: u64 = 4000;
/// Offset of the device-side buffer from the reserved DRAM base.
const DEV_SKEW: u64 = 24;
/// Stream length: crosses a page boundary and ends mid-line.
const LEN: u64 = PAGE_SIZE + 1500;

/// The counts one scenario pins: host cycles of each phase, then the L1
/// and LLC host hit/miss counts and the memory system's host accesses.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    copy_in: u64,
    copy_out: u64,
    run_total: u64,
    run_memory: u64,
    l1: (u64, u64),
    llc_host: (u64, u64),
    host_accesses: u64,
}

fn pattern(len: u64, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

fn run(latency: u64) -> Counts {
    let mut mem = MemorySystem::new(MemSysConfig {
        dram_latency: Cycles::new(latency),
        ..MemSysConfig::default()
    });
    let mut frames = FrameAllocator::linux_pool();
    let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
    let mut cpu = HostCpu::default();
    let engine = CopyEngine::new();

    let src_buf = space
        .alloc_buffer(&mut mem, &mut frames, 3 * PAGE_SIZE)
        .unwrap();
    let dst_buf = space
        .alloc_buffer(&mut mem, &mut frames, 3 * PAGE_SIZE)
        .unwrap();
    let src: VirtAddr = src_buf + SRC_SKEW;
    let dst: VirtAddr = dst_buf + DST_SKEW;
    let dev: PhysAddr = mem.map().reserved_dram_base() + DEV_SKEW;

    // Copy-in: the device buffer receives exactly the user bytes.
    let data = pattern(LEN, 0);
    space.write_virt(&mut mem, src, &data).unwrap();
    let copy_in = engine
        .copy_to_device(&mut cpu, &mut mem, &space, src, dev, LEN)
        .unwrap();
    assert_eq!(copy_in.bytes, LEN);
    let mut got = vec![0u8; (LEN + 2 * DEV_SKEW) as usize];
    mem.read_phys(dev - DEV_SKEW, &mut got).unwrap();
    assert!(
        got[..DEV_SKEW as usize].iter().all(|&b| b == 0),
        "no write before the range"
    );
    assert_eq!(
        &got[DEV_SKEW as usize..(DEV_SKEW + LEN) as usize],
        &data[..]
    );
    assert!(
        got[(DEV_SKEW + LEN) as usize..].iter().all(|&b| b == 0),
        "no write past the range"
    );

    // Copy-out: the device results land at the unaligned user address and
    // nowhere else.
    let results = pattern(LEN, 0x5A);
    mem.write_phys(dev, &results).unwrap();
    let copy_out = engine
        .copy_from_device(&mut cpu, &mut mem, &space, dev, dst, LEN)
        .unwrap();
    let mut back = vec![0u8; (3 * PAGE_SIZE) as usize];
    space.read_virt(&mem, dst_buf, &mut back).unwrap();
    let (before, rest) = back.split_at(DST_SKEW as usize);
    let (copied, after) = rest.split_at(LEN as usize);
    assert!(before.iter().all(|&b| b == 0), "no write before the range");
    assert_eq!(copied, &results[..]);
    assert!(after.iter().all(|&b| b == 0), "no write past the range");

    // Host execution streaming both unaligned buffers from cold caches.
    cpu.flush_l1();
    mem.flush_llc();
    let run = HostKernelRunner::new()
        .run(
            &mut cpu,
            &mut mem,
            &space,
            HostKernelCost {
                ops: 1000,
                cycles_per_op: 1.5,
                read_passes: 2,
                write_passes: 1,
            },
            &[(src, LEN)],
            &[(dst, LEN)],
        )
        .unwrap();
    assert_eq!(run.total, run.memory + run.compute);

    let l1 = cpu.l1_stats();
    let llc = mem.llc().expect("LLC present").stats(LlcRequester::Host);
    Counts {
        copy_in: copy_in.cycles.raw(),
        copy_out: copy_out.cycles.raw(),
        run_total: run.total.raw(),
        run_memory: run.memory.raw(),
        l1: (l1.hits, l1.misses),
        llc_host: (llc.hits, llc.misses),
        host_accesses: mem.stats().host_accesses,
    }
}

/// Values captured from the line-by-line implementation, at 200 and 1000
/// cycles of DRAM latency.
#[test]
fn unaligned_page_crossing_streams_hold_pinned_counts() {
    let pinned = [
        (
            200,
            Counts {
                copy_in: 25_516,
                copy_out: 45_571,
                run_total: 46_820,
                run_memory: 45_320,
                l1: (88, 176),
                llc_host: (87, 352),
                host_accesses: 528,
            },
        ),
        (
            1000,
            Counts {
                copy_in: 95_916,
                copy_out: 186_371,
                run_total: 187_620,
                run_memory: 186_120,
                l1: (88, 176),
                llc_host: (87, 352),
                host_accesses: 528,
            },
        ),
    ];
    for (latency, expected) in pinned {
        assert_eq!(run(latency), expected, "DRAM latency {latency}");
    }
}
