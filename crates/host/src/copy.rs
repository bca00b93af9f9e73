//! The copy engine used by copy-based offloading.
//!
//! Without shared virtual addressing, the host must copy every input buffer
//! from its (paged, scattered) virtual address space into the physically
//! contiguous reserved DRAM area the accelerator can address directly, and
//! copy the results back afterwards. The copy runs on the CVA6 core itself
//! (`memcpy`), so it streams through the L1/LLC on the read side and issues
//! posted uncached stores on the write side. Figures 2 and 3 measure exactly
//! this cost and its scaling with input size and DRAM latency.

use sva_common::{Cycles, PhysAddr, Result, VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE};
use sva_mem::MemorySystem;
use sva_vm::AddressSpace;

use crate::cpu::HostCpu;
use crate::pages::LastPage;

/// Statistics of one copy operation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Cycles spent by the host performing the copy.
    pub cycles: Cycles,
    /// Bytes copied.
    pub bytes: u64,
}

/// Host-driven `memcpy` between user buffers and the reserved contiguous
/// DRAM area.
#[derive(Clone, Debug, Default)]
pub struct CopyEngine;

/// Which way a copy moves data.
#[derive(Copy, Clone, Debug)]
enum Direction {
    /// User buffer → device buffer.
    ToDevice,
    /// Device buffer → user buffer.
    FromDevice,
}

impl CopyEngine {
    /// Creates a copy engine.
    pub fn new() -> Self {
        Self
    }

    /// Copies `len` bytes from the user buffer at `src_va` to the physically
    /// contiguous destination `dst_pa` (typically in the reserved, uncached
    /// DRAM area). Moves the actual data and returns the host cycles spent.
    ///
    /// # Errors
    ///
    /// Propagates page faults and decode errors.
    pub fn copy_to_device(
        &self,
        cpu: &mut HostCpu,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        src_va: VirtAddr,
        dst_pa: PhysAddr,
        len: u64,
    ) -> Result<CopyStats> {
        memcpy(cpu, mem, space, src_va, dst_pa, len, Direction::ToDevice)
    }

    /// Copies `len` bytes back from the contiguous device buffer at `src_pa`
    /// into the user buffer at `dst_va`.
    ///
    /// # Errors
    ///
    /// Propagates page faults and decode errors.
    pub fn copy_from_device(
        &self,
        cpu: &mut HostCpu,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        src_pa: PhysAddr,
        dst_va: VirtAddr,
        len: u64,
    ) -> Result<CopyStats> {
        memcpy(cpu, mem, space, dst_va, src_pa, len, Direction::FromDevice)
    }
}

/// The host `memcpy` of `len` bytes between the user buffer at `user` and
/// the contiguous device buffer at `device`.
///
/// The functional payload moves once per user page, through one page-sized
/// staging buffer. The timing follows the memcpy inner loop line by line:
/// every 64-byte chunk from the start of the buffer is a timed load from the
/// source, a timed store to the destination and the loop overhead. The
/// chunks starting in a page are timed right after that page's payload
/// moved, through the same memoised translation, so the stream walks the
/// page table once per page.
fn memcpy(
    cpu: &mut HostCpu,
    mem: &mut MemorySystem,
    space: &AddressSpace,
    user: VirtAddr,
    device: PhysAddr,
    len: u64,
    dir: Direction,
) -> Result<CopyStats> {
    let mut pages = LastPage::default();
    let mut staged = [0u8; PAGE_SIZE as usize];
    let mut cycles = Cycles::ZERO;
    let mut moved = 0u64;
    let mut timed = 0u64;
    while moved < len {
        // Functional move of the rest of this user page.
        let user_pa = pages.translate(space, mem, user + moved)?;
        let n = (len - moved).min(PAGE_SIZE - (user + moved).page_offset());
        let buf = &mut staged[..n as usize];
        match dir {
            Direction::ToDevice => {
                mem.read_phys(user_pa, buf)?;
                mem.write_phys(device + moved, buf)?;
            }
            Direction::FromDevice => {
                mem.read_phys(device + moved, buf)?;
                mem.write_phys(user_pa, buf)?;
            }
        }
        moved += n;
        // Timing of every line chunk that starts in this page. To the
        // device: cached read, posted uncached write. From the device:
        // uncached (latency-bound) read, cached write.
        while timed < moved {
            let chunk = (len - timed).min(CACHE_LINE_SIZE);
            let user_pa = pages.translate(space, mem, user + timed)?;
            let (src, dst) = match dir {
                Direction::ToDevice => (user_pa, device + timed),
                Direction::FromDevice => (device + timed, user_pa),
            };
            cycles += cpu.load(mem, src, chunk)?;
            cycles += cpu.store(mem, dst, chunk)?;
            // Loop overhead of the memcpy inner loop.
            cycles += cpu.execute(4);
            timed += chunk;
        }
    }
    Ok(CopyStats { cycles, bytes: len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_mem::MemSysConfig;
    use sva_vm::FrameAllocator;

    fn setup(latency: u64) -> (MemorySystem, FrameAllocator, AddressSpace, HostCpu) {
        let mut mem = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            ..MemSysConfig::default()
        });
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        (mem, frames, space, HostCpu::default())
    }

    #[test]
    fn copy_moves_data_to_reserved_dram_and_back() {
        let (mut mem, mut frames, mut space, mut cpu) = setup(200);
        let len = 2 * PAGE_SIZE;
        let va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
        space.write_virt(&mut mem, va, &data).unwrap();

        let dst = mem.map().reserved_dram_base();
        let engine = CopyEngine::new();
        let stats = engine
            .copy_to_device(&mut cpu, &mut mem, &space, va, dst, len)
            .unwrap();
        assert_eq!(stats.bytes, len);
        assert!(stats.cycles.raw() > 0);
        let mut out = vec![0u8; len as usize];
        mem.read_phys(dst, &mut out).unwrap();
        assert_eq!(out, data);

        // Mutate the device copy and copy it back.
        mem.write_phys(dst, &[0xAB; 64]).unwrap();
        let back_va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();
        engine
            .copy_from_device(&mut cpu, &mut mem, &space, dst, back_va, len)
            .unwrap();
        let mut back = vec![0u8; 64];
        space.read_virt(&mem, back_va, &mut back).unwrap();
        assert_eq!(back, [0xAB; 64]);
    }

    #[test]
    fn copy_cost_scales_with_size() {
        let (mut mem, mut frames, mut space, mut cpu) = setup(200);
        let va = space
            .alloc_buffer(&mut mem, &mut frames, 32 * PAGE_SIZE)
            .unwrap();
        let dst = mem.map().reserved_dram_base();
        let engine = CopyEngine::new();
        let small = engine
            .copy_to_device(&mut cpu, &mut mem, &space, va, dst, 4 * PAGE_SIZE)
            .unwrap();
        let large = engine
            .copy_to_device(&mut cpu, &mut mem, &space, va, dst, 16 * PAGE_SIZE)
            .unwrap();
        let ratio = large.cycles.as_f64() / small.cycles.as_f64();
        assert!(ratio > 3.0 && ratio < 5.0, "expected ~4x, got {ratio:.2}");
    }

    #[test]
    fn copy_cost_scales_with_dram_latency() {
        // The paper (Fig. 3) measures copying 16 pages to be ~3.4x slower at
        // 1000 cycles of DRAM latency than at 200.
        let run = |latency| {
            let (mut mem, mut frames, mut space, mut cpu) = setup(latency);
            let va = space
                .alloc_buffer(&mut mem, &mut frames, 16 * PAGE_SIZE)
                .unwrap();
            // Flush caches so the copy streams from DRAM (cold input).
            cpu.flush_l1();
            mem.flush_llc();
            let dst = mem.map().reserved_dram_base();
            CopyEngine::new()
                .copy_to_device(&mut cpu, &mut mem, &space, va, dst, 16 * PAGE_SIZE)
                .unwrap()
                .cycles
        };
        let slow = run(1000).as_f64();
        let fast = run(200).as_f64();
        let ratio = slow / fast;
        assert!(
            ratio > 2.5 && ratio < 4.5,
            "copy latency scaling should be roughly 3-4x, got {ratio:.2}"
        );
    }
}
