//! The double-buffered kernel executor.
//!
//! The executor plays the role of the cluster's runtime: it walks the
//! kernel's tiles, keeps the DMA engine working one tile ahead of the compute
//! cores (double buffering), and accounts time in two regions exactly as the
//! paper does:
//!
//! * **DMA wait** — cycles the compute cores spend stalled because the data
//!   they need has not arrived (or final results are still draining);
//! * **compute** — cycles spent executing the tile on the PEs.
//!
//! With double buffering and a compute-bound kernel the DMA-wait region tends
//! to zero even when megabytes are transferred; with the IOMMU enabled and no
//! LLC, translation stalls eat into the overlap and the DMA-wait region grows
//! — that difference is Table II.

use sva_common::{Cycles, GlobalClock, Result};
use sva_iommu::{recover_page_faults, Iommu, PageRequestHandler};
use sva_mem::MemorySystem;

use crate::dma::{DmaEngine, DmaRequest, DmaStats};
use crate::kernel::{DeviceKernel, TileCtx};
use crate::tcdm::Tcdm;

/// Configuration of the cluster executor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Maximum number of bursts the cluster's DMA engine keeps in flight.
    pub dma_outstanding: usize,
    /// Whether tile transfers are overlapped with compute (double buffering).
    /// Disabling it is an ablation; all paper experiments have it on.
    pub double_buffer: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            dma_outstanding: 2,
            double_buffer: true,
        }
    }
}

/// Timing breakdown of one kernel run on the cluster.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelRunStats {
    /// Total runtime of the kernel on the device.
    pub total: Cycles,
    /// Cycles the compute cores spent waiting for DMA transfers.
    pub dma_wait: Cycles,
    /// Cycles spent computing tiles.
    pub compute: Cycles,
    /// Number of tiles executed.
    pub tiles: u64,
    /// DMA engine statistics for this run.
    pub dma: DmaStats,
}

impl KernelRunStats {
    /// Fraction of the runtime spent waiting for DMA (the "% DMA" rows of
    /// Table II).
    pub fn dma_fraction(&self) -> f64 {
        self.dma_wait.fraction_of(self.total)
    }

    /// Merges the per-shard breakdowns of one kernel run sharded across
    /// parallel clusters: the wall-clock `total` is the slowest shard, while
    /// compute, DMA-wait, tile and DMA-engine counters aggregate across
    /// shards. With a single shard this is the identity.
    pub fn merge_parallel(shards: &[KernelRunStats]) -> KernelRunStats {
        let mut merged = KernelRunStats::default();
        for s in shards {
            merged.total = merged.total.max(s.total);
            merged.dma_wait += s.dma_wait;
            merged.compute += s.compute;
            merged.tiles += s.tiles;
            merged.dma.requests += s.dma.requests;
            merged.dma.bursts += s.dma.bursts;
            merged.dma.bytes += s.dma.bytes;
            merged.dma.translation_cycles += s.dma.translation_cycles;
            merged.dma.issue_stall_cycles += s.dma.issue_stall_cycles;
            merged.dma.page_faults += s.dma.page_faults;
            merged.dma.fault_stall_cycles += s.dma.fault_stall_cycles;
            merged.dma.busy_cycles += s.dma.busy_cycles;
        }
        merged
    }
}

/// The cluster executor: TCDM + DMA engine + run loop.
#[derive(Debug)]
pub struct ClusterExecutor {
    config: ClusterConfig,
    tcdm: Tcdm,
    dma: DmaEngine,
    /// The cluster's local cursor on the shared virtual timeline. Every
    /// shard of an offload restarts its cursor at zero when a run begins —
    /// shards execute concurrently in simulated time even though they are
    /// simulated sequentially — so each executor keeps its own
    /// [`GlobalClock`] instance rather than sharing the platform's.
    clock: GlobalClock,
}

impl Clone for ClusterExecutor {
    /// Clones get their own time cursor ([`GlobalClock`] handles share
    /// their counter, and a cursor must belong to exactly one executor);
    /// the cursor is restarted at every run, so no reading is carried over.
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            tcdm: self.tcdm.clone(),
            dma: self.dma.clone(),
            clock: GlobalClock::new(),
        }
    }
}

impl ClusterExecutor {
    /// Creates an executor with the given configuration and a
    /// [`crate::tcdm::DEFAULT_TCDM_BYTES`] TCDM, whose DMA engine presents
    /// `device_id` to the IOMMU and `priority` at the fabric port.
    pub fn new(config: ClusterConfig, device_id: u32, priority: u8) -> Self {
        Self {
            tcdm: Tcdm::default(),
            dma: DmaEngine::new(config.dma_outstanding, device_id, priority),
            clock: GlobalClock::new(),
            config,
        }
    }

    /// The executor configuration.
    pub const fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Device ID the cluster's DMA engine presents to the IOMMU.
    pub const fn device_id(&self) -> u32 {
        self.dma.device_id()
    }

    /// Runs a kernel to completion and returns its timing breakdown. The
    /// kernel's device addresses are translated through `iommu`, or used as
    /// bus addresses with `None`. With an ATS/PRI page-request handler in
    /// `pri`, every DMA batch of the tile loop can recover from IO page
    /// faults through the handler's stall-and-retry loop (demand paging).
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable IOMMU faults and TCDM/memory range errors.
    pub fn run(
        &mut self,
        mem: &mut MemorySystem,
        mut iommu: Option<&mut Iommu>,
        kernel: &mut dyn DeviceKernel,
        mut pri: Option<&mut (dyn PageRequestHandler + '_)>,
    ) -> Result<KernelRunStats> {
        self.dma.reset_stats();
        let n = kernel.num_tiles();
        let mut stats = KernelRunStats {
            tiles: n as u64,
            ..KernelRunStats::default()
        };
        if n == 0 {
            // Empty shard (static block scheduling can hand a cluster zero
            // tiles): snapshot the engine accounting like the normal exit
            // path does, so both exits report the same way.
            stats.dma = *self.dma.stats();
            return Ok(stats);
        }

        // The cluster's cursor on the shared virtual timeline: every shard
        // restarts at zero (shards of one offload run concurrently in
        // simulated time).
        self.clock.restart();

        // Prefetch the first tile. `dma_free` tracks the completion time of
        // the most recently issued DMA batch; the engine processes batches in
        // issue order. A prefetch returns its tile's write-backs, which wait
        // for the tile's compute: at most two tiles are in flight.
        let mut current = self.plan_and_prefetch(
            mem,
            iommu.as_deref_mut(),
            kernel,
            pri.as_deref_mut(),
            0,
            Cycles::ZERO,
            &mut stats.dma_wait,
        )?;
        let mut dma_free = current.ready;

        for tile in 0..n {
            // Wait for this tile's inputs.
            if current.ready > self.clock.now() {
                stats.dma_wait += current.ready - self.clock.now();
                self.clock.advance_to(current.ready);
            }

            // Kick off the next tile's inputs so they overlap with compute.
            let mut next = None;
            if self.config.double_buffer && tile + 1 < n {
                let prefetch = self.plan_and_prefetch(
                    mem,
                    iommu.as_deref_mut(),
                    kernel,
                    pri.as_deref_mut(),
                    tile + 1,
                    dma_free,
                    &mut stats.dma_wait,
                )?;
                dma_free = prefetch.ready;
                next = Some(prefetch);
            }

            // Compute the tile.
            let compute = kernel.compute_tile(tile, &mut self.tcdm)?;
            stats.compute += compute;
            self.clock.advance(compute);

            // Write back this tile's outputs (overlaps with the next tile's
            // compute when double buffering).
            dma_free = self.dma.execute(
                mem,
                iommu.as_deref_mut(),
                &mut self.tcdm,
                &current.outputs,
                self.clock.now().max(dma_free),
                pri.as_deref_mut(),
            )?;

            if !self.config.double_buffer {
                // Single-buffered ablation: wait for the write-back before
                // reusing the buffers, and only then fetch the next tile.
                if dma_free > self.clock.now() {
                    stats.dma_wait += dma_free - self.clock.now();
                    self.clock.advance_to(dma_free);
                }
                if tile + 1 < n {
                    let prefetch = self.plan_and_prefetch(
                        mem,
                        iommu.as_deref_mut(),
                        kernel,
                        pri.as_deref_mut(),
                        tile + 1,
                        dma_free,
                        &mut stats.dma_wait,
                    )?;
                    dma_free = prefetch.ready;
                    next = Some(prefetch);
                }
            }
            if let Some(next) = next {
                current = next;
            }
        }

        // Drain the final write-backs.
        if dma_free > self.clock.now() {
            stats.dma_wait += dma_free - self.clock.now();
            self.clock.advance_to(dma_free);
        }

        stats.total = self.clock.now();
        stats.dma = *self.dma.stats();
        Ok(stats)
    }

    /// Plans `tile` and issues its input transfers, returning their
    /// completion time and the tile's write-backs. It is the one
    /// [`DeviceKernel::tile_io`] call of the tile.
    ///
    /// The kernel's address-generation pre-pass runs on shared functional
    /// memory before the tile's descriptors are first read, through the
    /// same translation view as the tile's DMA. Under
    /// cold-start demand paging an unmapped plan-pass read recovers exactly
    /// like a faulting DMA burst ([`recover_page_faults`]), one page per
    /// request: the pre-pass reads single elements, so there is no "rest
    /// of the transfer" to prefetch. Its stall is DMA wait on the
    /// cluster's clock, added to `dma_wait`. The inputs then issue once the
    /// cluster has planned them and the engine has finished its previous
    /// batch (`dma_free`).
    ///
    /// This is what makes data-dependent kernels (the sort kernel's
    /// merge-path pre-pass) work under cold-start demand paging: the plan
    /// reads run *before* the first DMA touch, so without the fault-in loop
    /// they would hit unmapped pages and abort the offload.
    #[allow(clippy::too_many_arguments)] // the run loop's state, threaded through
    fn plan_and_prefetch(
        &mut self,
        mem: &mut MemorySystem,
        mut iommu: Option<&mut Iommu>,
        kernel: &mut dyn DeviceKernel,
        mut pri: Option<&mut (dyn PageRequestHandler + '_)>,
        tile: usize,
        dma_free: Cycles,
        dma_wait: &mut Cycles,
    ) -> Result<Prefetched> {
        let device_id = self.dma.device_id();
        let stall = match iommu.as_deref_mut() {
            Some(iommu) => {
                let ((), stall, _) = recover_page_faults(
                    mem,
                    iommu,
                    pri.as_deref_mut(),
                    device_id,
                    1,
                    self.clock.now(),
                    |mem, iommu| kernel.plan_tile(tile, &TileCtx::new(mem, Some(iommu), device_id)),
                )?;
                stall
            }
            None => {
                kernel.plan_tile(tile, &TileCtx::new(mem, None, device_id))?;
                Cycles::ZERO
            }
        };
        if stall > Cycles::ZERO {
            *dma_wait += stall;
            self.clock.advance(stall);
        }
        let io = kernel.tile_io(tile);
        let ready = self.dma.execute(
            mem,
            iommu,
            &mut self.tcdm,
            &io.inputs,
            self.clock.now().max(dma_free),
            pri,
        )?;
        Ok(Prefetched {
            ready,
            outputs: io.outputs,
        })
    }
}

/// A tile whose inputs have been issued.
struct Prefetched {
    /// When the tile's inputs are in the TCDM.
    ready: Cycles,
    /// The tile's write-backs, issued after its compute.
    outputs: Vec<DmaRequest>,
}

impl Default for ClusterExecutor {
    /// The paper platform's single cluster: device ID 1, priority 0.
    fn default() -> Self {
        Self::new(ClusterConfig::default(), 1, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TileIo;
    use sva_axi::addrmap::{DRAM_BASE, LLC_BYPASS_OFFSET};
    use sva_common::{Error, Iova, PhysAddr};
    use sva_mem::MemSysConfig;

    /// A synthetic kernel that streams `tiles` tiles of `tile_bytes` each and
    /// spends a configurable number of compute cycles per tile, doubling
    /// every value it touches.
    struct StreamKernel {
        tiles: usize,
        tile_bytes: u64,
        compute_per_tile: Cycles,
        src: u64,
        dst: u64,
    }

    impl DeviceKernel for StreamKernel {
        fn name(&self) -> &str {
            "stream"
        }

        fn num_tiles(&self) -> usize {
            self.tiles
        }

        fn tile_io(&self, tile: usize) -> TileIo {
            let buf = (tile % 2) as u64 * self.tile_bytes;
            let off = tile as u64 * self.tile_bytes;
            TileIo {
                inputs: vec![DmaRequest::input(
                    Iova::new(self.src + off),
                    buf,
                    self.tile_bytes,
                )],
                outputs: vec![DmaRequest::output(
                    Iova::new(self.dst + off),
                    buf,
                    self.tile_bytes,
                )],
            }
        }

        fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
            let buf = (tile % 2) as u64 * self.tile_bytes;
            double_in_place(tcdm, buf, self.tile_bytes)?;
            Ok(self.compute_per_tile)
        }
    }

    /// Doubles every `f32` of the `bytes`-long TCDM range at `offset`.
    fn double_in_place(tcdm: &mut Tcdm, offset: u64, bytes: u64) -> Result<()> {
        let mut values = vec![0.0f32; (bytes / 4) as usize];
        tcdm.read_f32_slice(offset, &mut values)?;
        values.iter_mut().for_each(|v| *v *= 2.0);
        tcdm.write_f32_slice(offset, &values)
    }

    fn setup(latency: u64) -> MemorySystem {
        MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            ..MemSysConfig::default()
        })
    }

    fn bypass(offset: u64) -> u64 {
        DRAM_BASE + LLC_BYPASS_OFFSET + offset
    }

    #[test]
    fn kernel_computes_correct_results() {
        let mut mem = setup(200);
        let n_f32 = 4096usize;
        let src_vals: Vec<f32> = (0..n_f32).map(|i| i as f32).collect();
        let bytes: Vec<u8> = src_vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.write_phys(PhysAddr::new(DRAM_BASE + 0x10_0000), &bytes)
            .unwrap();

        let mut kernel = StreamKernel {
            tiles: 8,
            tile_bytes: (n_f32 * 4 / 8) as u64,
            compute_per_tile: Cycles::new(500),
            src: bypass(0x10_0000),
            dst: bypass(0x20_0000),
        };
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, None, &mut kernel, None).unwrap();

        let mut out = vec![0u8; bytes.len()];
        mem.read_phys(PhysAddr::new(DRAM_BASE + 0x20_0000), &mut out)
            .unwrap();
        for (i, chunk) in out.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(v, 2.0 * i as f32, "element {i}");
        }
        assert_eq!(stats.tiles, 8);
        assert_eq!(stats.compute, Cycles::new(4000));
        assert!(stats.total > stats.compute);
        assert_eq!(stats.dma.bytes, 2 * bytes.len() as u64);
    }

    #[test]
    fn compute_bound_kernel_hides_dma() {
        let mut mem = setup(200);
        let mut kernel = StreamKernel {
            tiles: 16,
            tile_bytes: 2048,
            compute_per_tile: Cycles::new(20_000),
            src: bypass(0),
            dst: bypass(0x100_0000),
        };
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, None, &mut kernel, None).unwrap();
        assert!(
            stats.dma_fraction() < 0.05,
            "compute-bound kernel should hide DMA, got {:.1}%",
            stats.dma_fraction() * 100.0
        );
    }

    #[test]
    fn memory_bound_kernel_waits_for_dma() {
        let mut mem = setup(1000);
        let mut kernel = StreamKernel {
            tiles: 16,
            tile_bytes: 8192,
            compute_per_tile: Cycles::new(100),
            src: bypass(0),
            dst: bypass(0x100_0000),
        };
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, None, &mut kernel, None).unwrap();
        assert!(
            stats.dma_fraction() > 0.5,
            "memory-bound kernel should be dominated by DMA, got {:.1}%",
            stats.dma_fraction() * 100.0
        );
    }

    #[test]
    fn dma_wait_grows_with_memory_latency() {
        let run = |latency| {
            let mut mem = setup(latency);
            let mut kernel = StreamKernel {
                tiles: 8,
                tile_bytes: 8192,
                compute_per_tile: Cycles::new(2_000),
                src: bypass(0),
                dst: bypass(0x100_0000),
            };
            let mut exec = ClusterExecutor::default();
            exec.run(&mut mem, None, &mut kernel, None).unwrap()
        };
        let fast = run(200);
        let slow = run(1000);
        assert!(slow.dma_wait > fast.dma_wait);
        assert!(slow.total > fast.total);
        assert_eq!(slow.compute, fast.compute);
    }

    #[test]
    fn double_buffering_beats_single_buffering() {
        let run = |double_buffer| {
            let mut mem = setup(600);
            let mut kernel = StreamKernel {
                tiles: 16,
                tile_bytes: 4096,
                compute_per_tile: Cycles::new(3_000),
                src: bypass(0),
                dst: bypass(0x100_0000),
            };
            let mut exec = ClusterExecutor::new(
                ClusterConfig {
                    double_buffer,
                    ..ClusterConfig::default()
                },
                1,
                0,
            );
            exec.run(&mut mem, None, &mut kernel, None).unwrap()
        };
        let double = run(true);
        let single = run(false);
        assert!(
            double.total < single.total,
            "double buffering ({}) should beat single buffering ({})",
            double.total,
            single.total
        );
    }

    #[test]
    fn empty_kernel_returns_zero_stats() {
        let mut mem = setup(200);
        struct Empty;
        impl DeviceKernel for Empty {
            fn name(&self) -> &str {
                "empty"
            }
            fn num_tiles(&self) -> usize {
                0
            }
            fn tile_io(&self, _tile: usize) -> TileIo {
                TileIo::new()
            }
            fn compute_tile(&mut self, _tile: usize, _tcdm: &mut Tcdm) -> Result<Cycles> {
                Ok(Cycles::ZERO)
            }
        }
        let mut exec = ClusterExecutor::default();
        let stats = exec.run(&mut mem, None, &mut Empty, None).unwrap();
        assert_eq!(stats.total, Cycles::ZERO);
        assert_eq!(stats.tiles, 0);
    }

    /// A kernel whose transfer ranges are data-dependent: `plan_tile` reads
    /// a per-tile offset table from external memory *before* that tile's
    /// first DMA touch — the sort kernel's merge-path shape, historically
    /// documented as incompatible with cold-start demand paging because the
    /// untimed plan read hit an unmapped page.
    struct PlanPeekKernel {
        tiles: usize,
        tile_bytes: u64,
        table: Iova,
        src: Iova,
        dst: Iova,
        planned: Vec<u64>,
    }

    impl DeviceKernel for PlanPeekKernel {
        fn name(&self) -> &str {
            "plan-peek"
        }

        fn num_tiles(&self) -> usize {
            self.tiles
        }

        fn plan_tile(&mut self, tile: usize, ctx: &TileCtx<'_>) -> Result<()> {
            // One descriptor per tile, a page apart, so under cold-start
            // demand paging every plan read touches an unmapped page first.
            let chunk = ctx.read_f32(self.table + tile as u64 * sva_common::PAGE_SIZE)? as u64;
            if self.planned.len() == tile {
                self.planned.push(chunk * self.tile_bytes);
            }
            Ok(())
        }

        fn tile_io(&self, tile: usize) -> TileIo {
            let off = self.planned[tile];
            let buf = (tile % 2) as u64 * self.tile_bytes;
            TileIo {
                inputs: vec![DmaRequest::input(self.src + off, buf, self.tile_bytes)],
                outputs: vec![DmaRequest::output(self.dst + off, buf, self.tile_bytes)],
            }
        }

        fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
            let buf = (tile % 2) as u64 * self.tile_bytes;
            double_in_place(tcdm, buf, self.tile_bytes)?;
            Ok(Cycles::new(100))
        }
    }

    /// Builds a cold-start demand-paging scene for [`PlanPeekKernel`]: a
    /// reversed per-tile offset table plus source data, none of it
    /// device-mapped.
    fn plan_peek_scene(
        tiles: usize,
        tile_bytes: u64,
    ) -> (
        MemorySystem,
        sva_vm::FrameAllocator,
        sva_vm::AddressSpace,
        sva_host::IommuDriver,
        Iommu,
        PlanPeekKernel,
    ) {
        use sva_common::PAGE_SIZE;
        use sva_iommu::IommuConfig;
        use sva_vm::{AddressSpace, FrameAllocator};

        let mut mem = MemorySystem::default();
        let mut frames = FrameAllocator::linux_pool();
        let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();

        let table_va = space
            .alloc_buffer(&mut mem, &mut frames, tiles as u64 * PAGE_SIZE)
            .unwrap();
        for t in 0..tiles {
            // Reversed chunk order: the partitions genuinely depend on the
            // table contents.
            let chunk = (tiles - 1 - t) as f32;
            space
                .write_virt(
                    &mut mem,
                    table_va + t as u64 * PAGE_SIZE,
                    &chunk.to_le_bytes(),
                )
                .unwrap();
        }
        let len = tiles as u64 * tile_bytes;
        let src_va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();
        let data: Vec<u8> = (0..len / 4)
            .flat_map(|i| (i as f32).to_le_bytes())
            .collect();
        space.write_virt(&mut mem, src_va, &data).unwrap();
        let dst_va = space.alloc_buffer(&mut mem, &mut frames, len).unwrap();

        let mut iommu = Iommu::new(IommuConfig {
            demand_paging: true,
            tlb: sva_iommu::TlbHierarchyConfig::two_level(),
            ..IommuConfig::default()
        });
        let mut cpu = sva_host::HostCpu::default();
        let mut driver = sva_host::IommuDriver::default();
        driver
            .attach(&mut cpu, &mut mem, &mut iommu, &mut frames, space.pscid())
            .unwrap();

        let kernel = PlanPeekKernel {
            tiles,
            tile_bytes,
            table: Iova::from_virt(table_va),
            src: Iova::from_virt(src_va),
            dst: Iova::from_virt(dst_va),
            planned: Vec::new(),
        };
        (mem, frames, space, driver, iommu, kernel)
    }

    /// Regression: a data-dependent plan pass pages its reads in through
    /// the ATS/PRI handler under cold-start demand paging and the run
    /// completes with correct, partition-faithful results.
    #[test]
    fn plan_pass_pages_its_reads_in_under_demand_paging() {
        use sva_host::FaultServicer;

        let tiles = 4usize;
        let tile_bytes = sva_common::PAGE_SIZE;
        let (mut mem, mut frames, space, mut driver, mut iommu, mut kernel) =
            plan_peek_scene(tiles, tile_bytes);

        let mut exec = ClusterExecutor::default();
        let mut servicer = FaultServicer::new(&mut driver, &space, &mut frames);
        let stats = exec
            .run(&mut mem, Some(&mut iommu), &mut kernel, Some(&mut servicer))
            .unwrap();

        assert_eq!(
            kernel.planned,
            (0..tiles)
                .map(|t| (tiles - 1 - t) as u64 * tile_bytes)
                .collect::<Vec<_>>(),
            "partitions must follow the (cold) table contents"
        );
        // Every chunk doubled in place: the reversed partition order left
        // the data layout identity, so dst[i] == 2 * src[i].
        let len = tiles as u64 * tile_bytes;
        let mut out = vec![0u8; len as usize];
        space
            .read_virt(&mem, sva_common::VirtAddr::from_iova(kernel.dst), &mut out)
            .unwrap();
        for (i, chunk) in out.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(v, 2.0 * i as f32, "element {i}");
        }
        // The plan-pass faults were serviced (table pages) on top of the
        // DMA faults (src/dst pages), and the stalls landed on the clock.
        let serviced = iommu.stats().page_requests.serviced;
        assert!(
            serviced >= 3 * tiles as u64,
            "table + src + dst pages all fault in, got {serviced}"
        );
        assert!(stats.dma_wait > Cycles::ZERO);
    }

    /// Without a PRI handler the cold plan read stays a terminal fault —
    /// a descriptive error plus a fault record, never a wrong partition.
    #[test]
    fn plan_pass_fault_is_terminal_without_handler() {
        let (mut mem, _frames, _space, _driver, mut iommu, mut kernel) =
            plan_peek_scene(4, sva_common::PAGE_SIZE);

        let mut exec = ClusterExecutor::default();
        let err = exec.run(&mut mem, Some(&mut iommu), &mut kernel, None);
        assert!(matches!(err, Err(Error::IoPageFault { .. })));
        let fault = iommu.pop_fault().expect("terminal fault recorded");
        assert_eq!(fault.iova, kernel.table, "tile 0's plan read faulted");
        assert!(kernel.planned.is_empty(), "no partition was fabricated");
    }
}
