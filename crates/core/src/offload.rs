//! The heterogeneous offload runtime (OpenMP `target` model).
//!
//! The paper builds its applications with OpenMP target offloading on top of
//! the driver's userspace library. Three execution flows are compared in
//! Figure 2 and implemented here:
//!
//! * **host-only** — the kernel runs on the CVA6 core;
//! * **copy-based offload** — inputs are copied into the physically
//!   contiguous reserved DRAM, the device computes on physical addresses,
//!   results are copied back;
//! * **zero-copy offload (SVA)** — the user buffers are mapped into the
//!   device's IO virtual address space (Listing 1: flush L1, flush LLC,
//!   `create_iommu_mapping`, flush L1) and the device computes directly on
//!   the user pages through the IOMMU.
//!
//! [`OffloadRunner::run`] executes a full application (used for Figure 2);
//! [`OffloadRunner::run_device_only`] prepares the data according to the
//! platform variant and measures only the accelerator's runtime (used for
//! Table II / Figure 4, which exclude offload and synchronisation time).

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use sva_cluster::{block_partition, KernelRunStats, TileRange};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Error, Iova, PhysAddr, Result, VirtAddr, PAGE_SIZE};
use sva_host::{
    FaultServicer, HostKernelRunner, HostRunStats, HostTrafficStats, MappingHandle, TrafficPhase,
};
use sva_iommu::{Iommu, IommuStats, PageRequestHandler};
use sva_kernels::{BufferKind, BufferSpec, Workload};
use sva_mem::FramePool;

use crate::platform::Platform;

/// Host cycles to trigger an offload: writing the task descriptor and the
/// mailbox in the L2 scratchpad and waking the cluster.
pub const OFFLOAD_TRIGGER_CYCLES: u64 = 25_000;

/// Host cycles to synchronise at the end of an offload: completion polling /
/// interrupt handling and the OpenMP fork-join bookkeeping.
pub const OFFLOAD_SYNC_CYCLES: u64 = 35_000;

/// How a workload is executed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OffloadMode {
    /// Single-threaded execution on the CVA6 host.
    HostOnly,
    /// Copy inputs to reserved DRAM, run on the device, copy results back.
    CopyOffload,
    /// Map the user buffers through the IOMMU and run on the device in place.
    ZeroCopy,
}

impl OffloadMode {
    /// Label used in reports (matches Figure 2's legend).
    pub const fn label(self) -> &'static str {
        match self {
            OffloadMode::HostOnly => "host execution",
            OffloadMode::CopyOffload => "copy + device execution",
            OffloadMode::ZeroCopy => "map + device execution (zero-copy)",
        }
    }
}

/// Result of one application run.
#[derive(Clone, Debug)]
pub struct OffloadReport {
    /// Kernel name.
    pub kernel: String,
    /// Execution flow used.
    pub mode: OffloadMode,
    /// Cycles spent copying (copy mode: in + out) or mapping (zero-copy:
    /// cache flushes + `create_iommu_mapping`).
    pub copy_or_map: Cycles,
    /// Cycles spent triggering the offload and synchronising (fork/join).
    pub offload_overhead: Cycles,
    /// Device-side breakdown (absent for host-only runs). On a multi-cluster
    /// platform this is the parallel merge of the per-cluster shards.
    pub device: Option<KernelRunStats>,
    /// Per-cluster device breakdowns (one entry per cluster for offloaded
    /// runs; empty for host-only runs).
    pub device_per_cluster: Vec<KernelRunStats>,
    /// Host-side breakdown (present for host-only runs).
    pub host: Option<HostRunStats>,
    /// Cycles spent tearing the mapping down again (zero-copy only; not part
    /// of [`OffloadReport::total`], matching the paper's breakdown).
    pub unmap: Cycles,
    /// End-to-end application cycles.
    pub total: Cycles,
    /// Whether the results matched the host reference.
    pub verified: bool,
    /// IOMMU statistics accumulated during the run (all zero without an
    /// IOMMU).
    pub iommu: IommuStats,
    /// Host-traffic stream accounting for the whole flow, split between the
    /// setup (copy/map) and device phases (`None` when no stream is
    /// configured). Setup-phase queueing is host *self*-interference: the
    /// stream contending with the runtime's own copies and page-table
    /// writes.
    pub host_traffic: Option<HostTrafficStats>,
}

impl OffloadReport {
    /// Device computation cycles (zero for host-only runs).
    pub fn device_total(&self) -> Cycles {
        self.device.map(|d| d.total).unwrap_or(Cycles::ZERO)
    }
}

/// Result of a device-only measurement (Table II / Figures 4 and 5).
#[derive(Clone, Debug)]
pub struct DeviceOnlyReport {
    /// Kernel name.
    pub kernel: String,
    /// Device-side breakdown (parallel merge of the per-cluster shards).
    pub stats: KernelRunStats,
    /// Per-cluster device breakdowns, indexed like `Platform::clusters`.
    pub per_cluster: Vec<KernelRunStats>,
    /// IOMMU statistics accumulated during the run (all zero without an
    /// IOMMU).
    pub iommu: IommuStats,
    /// Whether the results matched the host reference.
    pub verified: bool,
}

/// Executes workloads on a platform.
///
/// A sweep runs one workload on many platforms, so the runner prepares
/// each workload once: it keeps the inputs [`Workload::init`] generated
/// and the reference contents [`Workload::expected`] computed for the
/// result buffers (the other reference entries are left empty). A run of a
/// workload equal to the kept one reuses both and calls neither; a run of
/// any other workload replaces the entry. Workloads are equal when their
/// [`Workload::name`], [`Workload::params`] and [`Workload::buffers`] are,
/// which the `params` contract makes a complete identity. Every run still
/// verifies its results against the full reference.
///
/// The entry holds one workload's generated buffers plus its result
/// references, 2 MiB for the largest paper kernel (heat3d), until the
/// runner is dropped or the next workload replaces it. It also holds a
/// [`FramePool`]: every run attaches it to the platform's DRAM store, so a
/// point takes its DRAM frames from those the platforms before it handed
/// back when they were dropped, instead of from fresh heap pages. The pool
/// keeps at most the last dropped platform's frames, and it goes with the
/// entry, before the next workload's inputs are generated.
///
/// A buffer generated all zero is not kept and not written: every run
/// places its buffers in memory that reads as zero. The frame allocators
/// never hand a physical frame out twice, so no earlier write on the
/// platform reached it, and a frame the store materialises reads as zero
/// whether it is new or recycled. The runner is not `Sync`: give each
/// thread of a parallel sweep its own.
#[derive(Clone)]
pub struct OffloadRunner {
    seed: u64,
    prepared: RefCell<Option<Prepared>>,
}

/// A workload's generated inputs and result references, kept for the next
/// run of an equal workload, and the frames its runs recycle.
#[derive(Clone)]
pub(crate) struct Prepared {
    key: WorkloadKey,
    /// Spare DRAM frames of the platforms that ran this workload.
    frames: Rc<FramePool>,
    /// The generated contents of each buffer; empty for a buffer generated
    /// all zero, whose frames already read as zero.
    pub(crate) inputs: Vec<Vec<f32>>,
    /// The reference contents of the result buffers; other entries empty.
    pub(crate) expected: Vec<Vec<f32>>,
}

/// The identity of a workload: its name, params and buffers.
type WorkloadKey = (&'static str, String, Vec<BufferSpec>);

impl fmt::Debug for OffloadRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prepared = self.prepared.borrow();
        f.debug_struct("OffloadRunner")
            .field("seed", &self.seed)
            .field("prepared", &prepared.as_ref().map(|p| &p.key))
            .finish()
    }
}

impl OffloadRunner {
    /// Creates a runner; `seed` determines the workload input data, so the
    /// same seed produces identical data across platform variants.
    pub const fn new(seed: u64) -> Self {
        Self {
            seed,
            prepared: RefCell::new(None),
        }
    }

    /// The prepared inputs and result references of `workload`, generated
    /// and computed unless the kept entry belongs to an equal workload, with
    /// the entry's frame pool attached to `platform`'s DRAM store.
    pub(crate) fn prepare(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
    ) -> Ref<'_, Prepared> {
        let key: WorkloadKey = (workload.name(), workload.params(), workload.buffers());
        let reuse = matches!(&*self.prepared.borrow(), Some(p) if p.key == key);
        if !reuse {
            // Free the old entry, and the platform's hold on its pool,
            // before building the new one: the runner never holds two
            // workloads' data, and the old spare frames are freed before
            // `init` allocates.
            *self.prepared.borrow_mut() = None;
            let frames = Rc::default();
            platform.mem.attach_frame_pool(&frames);
            let mut inputs = workload.init(&mut DeterministicRng::new(self.seed));
            let mut expected = workload.expected(&inputs);
            // The built-in kernels leave non-result entries empty; an
            // implementation of the public trait may not.
            for (reference, spec) in expected.iter_mut().zip(&key.2) {
                if !spec.kind.is_result() {
                    *reference = Vec::new();
                }
            }
            for data in &mut inputs {
                if data.iter().all(|v| v.to_bits() == 0) {
                    *data = Vec::new();
                }
            }
            *self.prepared.borrow_mut() = Some(Prepared {
                key,
                frames,
                inputs,
                expected,
            });
        }
        let prepared = Ref::map(self.prepared.borrow(), |p| {
            p.as_ref().expect("prepared above")
        });
        platform.mem.attach_frame_pool(&prepared.frames);
        prepared
    }

    /// Runs a full application in the given mode and reports the breakdown
    /// of Figure 2.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IommuNotPresent`] for zero-copy runs on a platform
    /// without an IOMMU, and propagates faults and allocation failures.
    pub fn run(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        mode: OffloadMode,
    ) -> Result<OffloadReport> {
        let prepared = self.prepare(platform, workload);
        let buffers = self.allocate_user_buffers(platform, workload, &prepared.inputs)?;
        let expected = &prepared.expected;
        if let Some(stream) = platform.host_traffic.as_mut() {
            stream.reset_stats();
        }

        match mode {
            OffloadMode::HostOnly => self.run_host_only(platform, workload, &buffers, expected),
            OffloadMode::CopyOffload => {
                self.run_copy_offload(platform, workload, &buffers, expected)
            }
            OffloadMode::ZeroCopy => self.run_zero_copy(platform, workload, &buffers, expected),
        }
    }

    /// Prepares data according to the platform variant (physical buffers for
    /// the baseline, IOVA mappings otherwise) and measures only the device
    /// execution, as Table II does.
    ///
    /// # Errors
    ///
    /// Propagates faults and allocation failures.
    pub fn run_device_only(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
    ) -> Result<DeviceOnlyReport> {
        let prepared = self.prepare(platform, workload);
        let (initial, expected) = (&prepared.inputs, &prepared.expected);
        if let Some(stream) = platform.host_traffic.as_mut() {
            stream.reset_stats();
        }

        let (stats, per_cluster, actual) = if let Some(demand_paging) =
            platform.iommu.as_ref().map(Iommu::demand_paging)
        {
            let buffers = self.allocate_user_buffers(platform, workload, initial)?;
            // Listing 1: flush caches, then map right before the offload so
            // the freshly written PTEs sit in the LLC. Under demand paging
            // the up-front map pass is skipped entirely — every page the
            // device touches cold-starts through the page-request loop.
            platform.cpu.flush_l1();
            platform.mem.flush_llc();
            if !demand_paging {
                for buf in &buffers {
                    platform.map_buffer(buf.va, buf.bytes)?;
                }
            }
            platform.cpu.flush_l1();
            if let Some(iommu) = &mut platform.iommu {
                iommu.reset_stats();
            }

            let device_ptrs: Vec<Iova> = buffers.iter().map(|b| Iova::from_virt(b.va)).collect();
            let (stats, per_cluster) =
                Self::run_device_sharded(platform, workload, &device_ptrs, true)?;
            let actual = self.read_back_virtual(platform, workload, &buffers)?;
            (stats, per_cluster, actual)
        } else {
            let placements = self.place_in_reserved(platform, workload, initial)?;
            let device_ptrs: Vec<Iova> = placements
                .iter()
                .map(|pa| Iova::new(platform.mem.map().to_bypass(*pa).raw()))
                .collect();
            let (stats, per_cluster) =
                Self::run_device_sharded(platform, workload, &device_ptrs, false)?;
            let actual = self.read_back_physical(platform, workload, &placements)?;
            (stats, per_cluster, actual)
        };
        Ok(DeviceOnlyReport {
            kernel: workload.name().to_string(),
            stats,
            per_cluster,
            iommu: platform.iommu_stats(),
            verified: workload.verify(expected, &actual).is_ok(),
        })
    }

    // ------------------------------------------------------------------
    // Sharded device execution
    // ------------------------------------------------------------------

    /// Runs the workload's device kernel sharded across every cluster of the
    /// platform with static block scheduling: cluster `i` executes the
    /// `i`-th contiguous block of tiles on its own TCDM while all DMA traffic
    /// shares the IOMMU and the memory fabric. Returns the parallel-merged
    /// breakdown (wall-clock = slowest shard) plus the per-cluster shards.
    ///
    /// The call opens a **measurement window**: the fabric's channel
    /// timelines are cleared (statistics survive) and the global clock
    /// restarts, so every shard's local cursor — and the host-traffic
    /// stream, when configured — starts from the same zero on the shared
    /// virtual timeline. The stream is injected in slices interleaved with
    /// the shards (one slice before each shard, the remainder after the
    /// last), which makes the queueing bidirectional under first-fit
    /// placement: early slices reserve bus time the shards queue behind,
    /// later slices queue behind the shards' reservations.
    ///
    /// When the workload has fewer tiles than the platform has clusters, the
    /// tail clusters receive empty [`TileRange`] shards and report zero
    /// stats without instantiating a kernel — the executor path would
    /// return the same zeroes for an empty shard (a unit-tested
    /// equivalence in `sva_cluster::kernel`), so the shortcut cannot drift.
    ///
    /// The shards present `device_ptrs` to the platform's IOMMU when
    /// `via_iommu` is set and the platform has one, and as bus addresses
    /// otherwise (the copy-based flow's reserved buffers); only a
    /// demand-paging IOMMU services page faults.
    ///
    /// With one cluster and no host traffic this degenerates to exactly the
    /// paper's single `ClusterExecutor::run` call.
    fn run_device_sharded(
        platform: &mut Platform,
        workload: &dyn Workload,
        device_ptrs: &[Iova],
        via_iommu: bool,
    ) -> Result<(KernelRunStats, Vec<KernelRunStats>)> {
        let num_clusters = platform.clusters.len();
        platform.mem.open_measurement_window();
        let traffic_slice = match platform.host_traffic.as_mut() {
            Some(stream) => {
                stream.begin_window(TrafficPhase::Device);
                stream
                    .config()
                    .accesses
                    .div_ceil(num_clusters as u64 + 1)
                    .max(1)
            }
            None => 0,
        };
        let total_tiles = workload.device_kernel(device_ptrs).num_tiles();
        let blocks = block_partition(total_tiles, num_clusters);
        let mut shards = Vec::with_capacity(num_clusters);
        let mut iommu = platform.iommu.as_mut().filter(|_| via_iommu);
        let demand_paging = iommu.as_ref().is_some_and(|i| i.demand_paging());
        for (cluster_idx, (start, len)) in blocks.into_iter().enumerate() {
            if let Some(stream) = platform.host_traffic.as_mut() {
                stream.inject(&mut platform.mem, &platform.clock, traffic_slice)?;
            }
            if len == 0 {
                // Empty tail shard: skip building a whole kernel instance
                // to run zero tiles. Default stats are exactly what the
                // executor returns for an empty shard — pinned by
                // `empty_tile_range_is_valid_and_runs_to_zero_stats` in
                // `sva_cluster::kernel`.
                shards.push(KernelRunStats::default());
                continue;
            }
            let mut shard = TileRange::new(workload.device_kernel(device_ptrs), start, len);
            // Under demand paging the host driver stands by to service
            // page-request groups: faults stall the shard's DMA instead of
            // aborting it.
            let mut servicer = demand_paging.then(|| {
                FaultServicer::new(&mut platform.driver, &platform.space, &mut platform.frames)
            });
            let stats = platform.clusters[cluster_idx].run(
                &mut platform.mem,
                iommu.as_deref_mut(),
                &mut shard,
                servicer.as_mut().map(|s| s as &mut dyn PageRequestHandler),
            )?;
            shards.push(stats);
        }
        // Drain the rest of the configured stream so every window injects
        // the same host load regardless of cluster count.
        if let Some(stream) = platform.host_traffic.as_mut() {
            let rest = stream.remaining();
            stream.inject(&mut platform.mem, &platform.clock, rest)?;
        }
        // The device window is over: every shard (and the stream drain) has
        // been simulated, so all later accesses are stamped from the
        // monotone global clock — "now" is a valid no-earlier-arrival
        // watermark and finished reservations can be folded out of the
        // placement index before any post-window traffic runs.
        platform.mem.compact_fabric_before(platform.clock.now());
        // The translation path compacts under the same watermark: walk-table
        // windows that completed before it can no longer serve a coalescing
        // probe or count as in-flight, for the same monotone-clock reason.
        if let Some(iommu) = iommu {
            iommu.compact_translation_before(platform.clock.now());
        }
        Ok((KernelRunStats::merge_parallel(&shards), shards))
    }

    // ------------------------------------------------------------------
    // Setup-phase host traffic
    // ------------------------------------------------------------------

    /// Opens a setup-phase traffic window when a stream is configured
    /// (ROADMAP item "Host traffic during full-app flows"): the fabric
    /// timelines are cleared, the global clock restarts — the runtime's
    /// copies and page-table writes are stamped from zero — and the stream
    /// rewinds, accounted to [`TrafficPhase::Setup`]. Because the stream
    /// presents its own `host_stream` identity, it genuinely contends with
    /// the runtime's `host` traffic on the fabric: host self-interference
    /// during offload setup becomes measurable. Returns the slice of stream
    /// accesses to inject before each of the `ops` runtime operations
    /// (mirroring the device window's shard interleaving).
    fn begin_setup_traffic(platform: &mut Platform, ops: u64) -> u64 {
        match platform.host_traffic.as_mut() {
            Some(stream) => {
                platform.mem.open_measurement_window();
                stream.begin_window(TrafficPhase::Setup);
                stream.config().accesses.div_ceil(ops + 1).max(1)
            }
            None => 0,
        }
    }

    /// Injects up to `count` stream accesses into the current window.
    fn inject_traffic(platform: &mut Platform, count: u64) -> Result<()> {
        if let Some(stream) = platform.host_traffic.as_mut() {
            stream.inject(&mut platform.mem, &platform.clock, count)?;
        }
        Ok(())
    }

    /// Drains whatever the current traffic window still holds, so every
    /// window injects the same host load regardless of operation count.
    fn drain_traffic(platform: &mut Platform) -> Result<()> {
        if let Some(stream) = platform.host_traffic.as_mut() {
            let rest = stream.remaining();
            stream.inject(&mut platform.mem, &platform.clock, rest)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Buffer management helpers
    // ------------------------------------------------------------------

    /// Allocates every buffer in user memory and writes its prepared
    /// contents (nothing for an all-zero buffer: its frames read as zero).
    pub(crate) fn allocate_user_buffers(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        initial: &[Vec<f32>],
    ) -> Result<Vec<UserBufferAlloc>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, data) in specs.iter().zip(initial) {
            let va = platform.space.alloc_buffer(
                &mut platform.mem,
                &mut platform.frames,
                spec.bytes(),
            )?;
            stage_out(data, |off, bytes| {
                platform
                    .space
                    .write_virt(&mut platform.mem, va + off, bytes)
            })?;
            out.push(UserBufferAlloc {
                va,
                bytes: spec.bytes(),
                kind: spec.kind,
            });
        }
        Ok(out)
    }

    /// Places every buffer in the reserved contiguous pool, like
    /// [`Self::allocate_user_buffers`].
    fn place_in_reserved(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        initial: &[Vec<f32>],
    ) -> Result<Vec<PhysAddr>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, data) in specs.iter().zip(initial) {
            let pa = platform.reserved.alloc_bytes(spec.bytes())?;
            stage_out(data, |off, bytes| platform.mem.write_phys(pa + off, bytes))?;
            out.push(pa);
        }
        Ok(out)
    }

    /// Reads the result buffers back from user memory; the entries of
    /// other buffers stay empty, since `Workload::verify` reads only
    /// results.
    pub(crate) fn read_back_virtual(
        &self,
        platform: &Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
    ) -> Result<Vec<Vec<f32>>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, buf) in specs.iter().zip(buffers) {
            out.push(if spec.kind.is_result() {
                stage_in(spec.bytes(), |off, bytes| {
                    platform.space.read_virt(&platform.mem, buf.va + off, bytes)
                })?
            } else {
                Vec::new()
            });
        }
        Ok(out)
    }

    /// Reads the result buffers back from reserved memory, like
    /// [`Self::read_back_virtual`].
    fn read_back_physical(
        &self,
        platform: &Platform,
        workload: &dyn Workload,
        placements: &[PhysAddr],
    ) -> Result<Vec<Vec<f32>>> {
        let specs = workload.buffers();
        let mut out = Vec::with_capacity(specs.len());
        for (spec, &pa) in specs.iter().zip(placements) {
            out.push(if spec.kind.is_result() {
                stage_in(spec.bytes(), |off, bytes| {
                    platform.mem.read_phys(pa + off, bytes)
                })?
            } else {
                Vec::new()
            });
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // The three execution flows
    // ------------------------------------------------------------------

    fn run_host_only(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
        expected: &[Vec<f32>],
    ) -> Result<OffloadReport> {
        let inputs: Vec<(VirtAddr, u64)> = buffers
            .iter()
            .filter(|b| matches!(b.kind, BufferKind::Input | BufferKind::InOut))
            .map(|b| (b.va, b.bytes))
            .collect();
        let outputs: Vec<(VirtAddr, u64)> = buffers
            .iter()
            .filter(|b| b.kind.is_result())
            .map(|b| (b.va, b.bytes))
            .collect();
        let host = HostKernelRunner::new().run(
            &mut platform.cpu,
            &mut platform.mem,
            &platform.space,
            workload.host_cost(),
            &inputs,
            &outputs,
        )?;

        // Functionally, the host computes the reference result; store it so
        // verification reflects a correct host execution.
        let specs = workload.buffers();
        for ((spec, buf), data) in specs.iter().zip(buffers).zip(expected) {
            if spec.kind.is_result() {
                stage_out(data, |off, bytes| {
                    platform
                        .space
                        .write_virt(&mut platform.mem, buf.va + off, bytes)
                })?;
            }
        }
        let actual = self.read_back_virtual(platform, workload, buffers)?;
        let verified = workload.verify(expected, &actual).is_ok();

        Ok(OffloadReport {
            kernel: workload.name().to_string(),
            mode: OffloadMode::HostOnly,
            copy_or_map: Cycles::ZERO,
            offload_overhead: Cycles::ZERO,
            device: None,
            device_per_cluster: Vec::new(),
            host: Some(host),
            unmap: Cycles::ZERO,
            total: host.total,
            verified,
            iommu: platform.iommu_stats(),
            host_traffic: platform.host_traffic.as_ref().map(|s| *s.stats()),
        })
    }

    fn run_copy_offload(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
        expected: &[Vec<f32>],
    ) -> Result<OffloadReport> {
        // Allocate the physically contiguous shadow buffers.
        let specs = workload.buffers();
        let mut shadows = Vec::with_capacity(specs.len());
        for spec in &specs {
            shadows.push(platform.reserved.alloc_bytes(spec.bytes())?);
        }

        // Copy inputs to the device-visible area (timed + functional). When
        // a host-traffic stream is configured it runs through the copy
        // phase too — the stream's reads interleave with the copy engine's
        // accesses, so the copies queue behind genuine concurrent host
        // load (setup-phase self-interference).
        let copies_in = buffers.iter().filter(|b| b.kind.copied_to_device()).count() as u64;
        let slice = Self::begin_setup_traffic(platform, copies_in);
        let mut copy_cycles = Cycles::ZERO;
        for (buf, pa) in buffers.iter().zip(&shadows) {
            if buf.kind.copied_to_device() {
                Self::inject_traffic(platform, slice)?;
                let stats = platform.copy.copy_to_device(
                    &mut platform.cpu,
                    &mut platform.mem,
                    &platform.space,
                    buf.va,
                    *pa,
                    buf.bytes,
                )?;
                copy_cycles += stats.cycles;
            }
        }
        Self::drain_traffic(platform)?;

        // Run the device on physical (bypass-window) addresses, which do not
        // pass through the IOMMU.
        let device_ptrs: Vec<Iova> = shadows
            .iter()
            .map(|pa| Iova::new(platform.mem.map().to_bypass(*pa).raw()))
            .collect();
        let (device, device_per_cluster) =
            Self::run_device_sharded(platform, workload, &device_ptrs, false)?;

        // Copy the results back into the user buffers, again under the
        // setup-phase stream (a fresh window: the device run consumed the
        // previous one).
        let copies_out = buffers
            .iter()
            .filter(|b| b.kind.copied_from_device())
            .count() as u64;
        let slice = Self::begin_setup_traffic(platform, copies_out);
        for (buf, pa) in buffers.iter().zip(&shadows) {
            if buf.kind.copied_from_device() {
                Self::inject_traffic(platform, slice)?;
                let stats = platform.copy.copy_from_device(
                    &mut platform.cpu,
                    &mut platform.mem,
                    &platform.space,
                    *pa,
                    buf.va,
                    buf.bytes,
                )?;
                copy_cycles += stats.cycles;
            }
        }
        Self::drain_traffic(platform)?;

        let actual = self.read_back_virtual(platform, workload, buffers)?;
        let verified = workload.verify(expected, &actual).is_ok();
        let overhead = Cycles::new(OFFLOAD_TRIGGER_CYCLES + OFFLOAD_SYNC_CYCLES);

        Ok(OffloadReport {
            kernel: workload.name().to_string(),
            mode: OffloadMode::CopyOffload,
            copy_or_map: copy_cycles,
            offload_overhead: overhead,
            device: Some(device),
            device_per_cluster,
            host: None,
            unmap: Cycles::ZERO,
            total: copy_cycles + overhead + device.total,
            verified,
            iommu: platform.iommu_stats(),
            host_traffic: platform.host_traffic.as_ref().map(|s| *s.stats()),
        })
    }

    fn run_zero_copy(
        &self,
        platform: &mut Platform,
        workload: &dyn Workload,
        buffers: &[UserBufferAlloc],
        expected: &[Vec<f32>],
    ) -> Result<OffloadReport> {
        let Some(iommu) = &platform.iommu else {
            return Err(Error::IommuNotPresent);
        };
        let demand_paging = iommu.demand_paging();

        // Listing 1: flush L1 and LLC so device-visible memory is coherent,
        // then create the IOVA mappings, then flush L1 again. A configured
        // host-traffic stream runs through the map phase: its reads contend
        // with the driver's page-table writes on the fabric and evict the
        // freshly written PTEs from the LLC — the setup-phase
        // self-interference the ROADMAP called out. Under demand paging the
        // map pass is skipped: pages become device-resident through the
        // page-request loop on first touch, and there is nothing to tear
        // down up front (the unmap section below is likewise empty).
        let slice = Self::begin_setup_traffic(platform, buffers.len() as u64);
        let mut map_cycles = platform.cpu.flush_l1();
        map_cycles += platform.mem.flush_llc();
        let mut handles: Vec<MappingHandle> = Vec::with_capacity(buffers.len());
        if !demand_paging {
            for buf in buffers {
                Self::inject_traffic(platform, slice)?;
                let (handle, cost) = platform.map_buffer(buf.va, buf.bytes)?;
                map_cycles += cost.cycles;
                handles.push(handle);
            }
        }
        Self::drain_traffic(platform)?;
        map_cycles += platform.cpu.flush_l1();

        // Device execution on IO virtual addresses, sharded across clusters.
        let device_ptrs: Vec<Iova> = buffers.iter().map(|b| Iova::from_virt(b.va)).collect();
        let (device, device_per_cluster) =
            Self::run_device_sharded(platform, workload, &device_ptrs, true)?;

        // Tear the mappings down (reported separately, like the paper).
        let mut unmap_cycles = Cycles::ZERO;
        for handle in handles {
            let iommu = platform.iommu.as_mut().ok_or(Error::IommuNotPresent)?;
            let cost = platform.driver.unmap_buffer(
                &mut platform.cpu,
                &mut platform.mem,
                iommu,
                handle,
            )?;
            unmap_cycles += cost.cycles;
        }

        let actual = self.read_back_virtual(platform, workload, buffers)?;
        let verified = workload.verify(expected, &actual).is_ok();
        let overhead = Cycles::new(OFFLOAD_TRIGGER_CYCLES + OFFLOAD_SYNC_CYCLES);

        Ok(OffloadReport {
            kernel: workload.name().to_string(),
            mode: OffloadMode::ZeroCopy,
            copy_or_map: map_cycles,
            offload_overhead: overhead,
            device: Some(device),
            device_per_cluster,
            host: None,
            unmap: unmap_cycles,
            total: map_cycles + overhead + device.total,
            verified,
            iommu: platform.iommu_stats(),
            host_traffic: platform.host_traffic.as_ref().map(|s| *s.stats()),
        })
    }
}

/// A user buffer allocated for a run.
#[derive(Copy, Clone, Debug)]
pub(crate) struct UserBufferAlloc {
    pub(crate) va: VirtAddr,
    pub(crate) bytes: u64,
    kind: BufferKind,
}

/// Size of the runtime's staging buffer: one page.
const STAGE_BYTES: usize = PAGE_SIZE as usize;

/// Writes `values` as little-endian bytes through one page-sized staging
/// buffer: `write(offset, bytes)` stores each staged page at its byte
/// offset from the start of the buffer.
fn stage_out(values: &[f32], mut write: impl FnMut(u64, &[u8]) -> Result<()>) -> Result<()> {
    let mut page = [0u8; STAGE_BYTES];
    for (i, chunk) in values.chunks(STAGE_BYTES / 4).enumerate() {
        let bytes = &mut page[..chunk.len() * 4];
        for (dst, v) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        write((i * STAGE_BYTES) as u64, bytes)?;
    }
    Ok(())
}

/// Reads the little-endian `f32`s of a `len`-byte buffer through one
/// page-sized staging buffer: `read(offset, bytes)` fills each page from
/// its byte offset. A trailing partial element is dropped.
fn stage_in(len: u64, mut read: impl FnMut(u64, &mut [u8]) -> Result<()>) -> Result<Vec<f32>> {
    let len = len as usize / 4 * 4;
    let mut page = [0u8; STAGE_BYTES];
    let mut out = Vec::with_capacity(len / 4);
    for off in (0..len).step_by(STAGE_BYTES) {
        let bytes = &mut page[..(len - off).min(STAGE_BYTES)];
        read(off as u64, bytes)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlatformConfig, SocVariant};
    use sva_cluster::{DeviceKernel, DmaRequest, Tcdm, TileIo};
    use sva_common::rng::DeterministicRng;
    use sva_host::HostKernelCost;
    use sva_kernels::{AxpyWorkload, BufferKind, BufferSpec, GemmWorkload, KernelKind};

    #[test]
    fn bytes_roundtrip() {
        // Two full staging pages and a partial third.
        let vals: Vec<f32> = (0..2 * STAGE_BYTES / 4 + 3)
            .map(|i| i as f32 * -2.5)
            .chain([f32::MIN_POSITIVE, f32::NAN])
            .collect();
        let mut store = vec![0u8; vals.len() * 4];
        let mut writes = 0;
        stage_out(&vals, |off, bytes| {
            writes += 1;
            store[off as usize..][..bytes.len()].copy_from_slice(bytes);
            Ok(())
        })
        .unwrap();
        assert_eq!(writes, 3, "one write per staged page");
        assert_eq!(store[4..8], (-2.5f32).to_le_bytes(), "little-endian");
        // A trailing partial element is dropped on the way back.
        store.push(0xFF);
        let back = stage_in(store.len() as u64, |off, bytes| {
            bytes.copy_from_slice(&store[off as usize..][..bytes.len()]);
            Ok(())
        })
        .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&vals));
    }

    #[test]
    fn zero_copy_requires_an_iommu() {
        let mut platform = Platform::new(PlatformConfig::baseline(200)).unwrap();
        let wl = AxpyWorkload::with_elems(4096);
        let err = OffloadRunner::new(1).run(&mut platform, &wl, OffloadMode::ZeroCopy);
        assert!(matches!(err, Err(Error::IommuNotPresent)));
    }

    #[test]
    fn all_three_modes_produce_verified_results_for_axpy() {
        let wl = AxpyWorkload::with_elems(6_000);
        for mode in [
            OffloadMode::HostOnly,
            OffloadMode::CopyOffload,
            OffloadMode::ZeroCopy,
        ] {
            let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
            let report = OffloadRunner::new(3).run(&mut platform, &wl, mode).unwrap();
            assert!(report.verified, "{mode:?} must produce correct results");
            assert!(report.total.raw() > 0);
            match mode {
                OffloadMode::HostOnly => {
                    assert!(report.host.is_some());
                    assert_eq!(report.copy_or_map, Cycles::ZERO);
                }
                OffloadMode::CopyOffload => {
                    assert!(report.device.is_some());
                    assert!(report.copy_or_map.raw() > 0);
                    assert_eq!(report.unmap, Cycles::ZERO);
                }
                OffloadMode::ZeroCopy => {
                    assert!(report.device.is_some());
                    assert!(report.copy_or_map.raw() > 0);
                    assert!(report.unmap.raw() > 0);
                    assert!(report.iommu.translations > 0);
                }
            }
        }
    }

    #[test]
    fn zero_copy_beats_copy_based_offload() {
        let wl = AxpyWorkload::paper();
        let mut p1 = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        let copy = OffloadRunner::new(5)
            .run(&mut p1, &wl, OffloadMode::CopyOffload)
            .unwrap();
        let mut p2 = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        let zero = OffloadRunner::new(5)
            .run(&mut p2, &wl, OffloadMode::ZeroCopy)
            .unwrap();
        assert!(
            zero.total < copy.total,
            "zero-copy ({}) must beat copy-based offload ({})",
            zero.total,
            copy.total
        );
        assert!(zero.copy_or_map < copy.copy_or_map);
    }

    #[test]
    fn device_only_runs_verify_on_every_variant() {
        let wl = GemmWorkload::with_dim(32);
        for variant in SocVariant::ALL {
            let mut platform = Platform::new(PlatformConfig::variant(variant, 200)).unwrap();
            let report = OffloadRunner::new(11)
                .run_device_only(&mut platform, &wl)
                .unwrap();
            assert!(report.verified, "{variant:?} gemm results must verify");
            assert!(report.stats.total.raw() > 0);
            if variant.has_iommu() {
                assert!(report.iommu.translations > 0);
            } else {
                assert_eq!(report.iommu.iotlb.total(), 0);
            }
        }
    }

    /// A device that presents bus addresses translates nothing: a Baseline
    /// run, which has no IOMMU, and the copy-based flow, whose device runs
    /// on the reserved buffers, both report untouched IOMMU statistics.
    #[test]
    fn runs_on_bus_addresses_report_default_iommu_stats() {
        let wl = GemmWorkload::with_dim(32);
        let mut baseline = Platform::new(PlatformConfig::baseline(200)).unwrap();
        let report = OffloadRunner::new(11)
            .run_device_only(&mut baseline, &wl)
            .unwrap();
        assert!(report.verified);
        assert_eq!(report.iommu, IommuStats::default(), "Baseline");
        let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        let copy = OffloadRunner::new(11)
            .run(&mut platform, &wl, OffloadMode::CopyOffload)
            .unwrap();
        assert!(copy.verified);
        assert_eq!(copy.iommu, IommuStats::default(), "copy-based");
    }

    #[test]
    fn small_workloads_verify_end_to_end_on_the_device() {
        for kind in KernelKind::ALL {
            let wl = kind.small_workload();
            let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
            let report = OffloadRunner::new(13)
                .run_device_only(&mut platform, wl.as_ref())
                .unwrap();
            assert!(
                report.verified,
                "{kind:?} device results must match the reference"
            );
        }
    }

    #[test]
    fn multi_cluster_offloads_verify_and_shard_every_tile() {
        let wl = GemmWorkload::with_dim(96);
        for clusters in [1usize, 2, 3, 4] {
            let config = PlatformConfig::iommu_with_llc(200).with_clusters(clusters);
            let mut platform = Platform::new(config).unwrap();
            let report = OffloadRunner::new(21)
                .run_device_only(&mut platform, &wl)
                .unwrap();
            assert!(report.verified, "{clusters} clusters must verify");
            assert_eq!(report.per_cluster.len(), clusters);
            let shard_tiles: u64 = report.per_cluster.iter().map(|s| s.tiles).sum();
            assert_eq!(report.stats.tiles, shard_tiles);
            // Wall-clock is the slowest shard.
            let slowest = report.per_cluster.iter().map(|s| s.total).max().unwrap();
            assert_eq!(report.stats.total, slowest);
        }
    }

    #[test]
    fn more_clusters_than_tiles_runs_empty_shards_cleanly() {
        // axpy at 10k elements has 3 tiles; shard it across 8 clusters.
        let small = AxpyWorkload::with_elems(10_000);
        let big = GemmWorkload::with_dim(96);
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(8);
        let mut platform = Platform::new(config).unwrap();
        let runner = OffloadRunner::new(17);
        // First occupy every cluster so their DMA engines accumulate stats.
        let warm = runner.run_device_only(&mut platform, &big).unwrap();
        assert!(warm.per_cluster.iter().all(|s| s.dma.bytes > 0));
        // Then the 3-tile workload: the 5 idle clusters report zeroes.
        let report = runner.run_device_only(&mut platform, &small).unwrap();
        assert!(report.verified);
        assert_eq!(report.per_cluster.len(), 8);
        assert_eq!(
            report.per_cluster.iter().filter(|s| s.tiles > 0).count(),
            3,
            "exactly one shard per tile"
        );
        for idle in &report.per_cluster[3..] {
            assert_eq!(idle.tiles, 0);
            assert_eq!(idle.total, Cycles::ZERO);
            assert_eq!(idle.dma.bytes, 0, "idle shard must report zero DMA stats");
        }
        assert_eq!(report.stats.tiles, 3);
        let slowest = report.per_cluster.iter().map(|s| s.total).max().unwrap();
        assert_eq!(report.stats.total, slowest);
    }

    #[test]
    fn sort_shards_across_clusters_and_verifies() {
        // The merge-path partitions are recomputed from shared functional
        // memory in the plan pre-pass, so the non-linear kernel now shards:
        // every cluster sees the runs exactly as the previous pass left
        // them, wherever that pass executed.
        use sva_kernels::SortWorkload;
        // 16 384 elements = 2 merge passes (even parity, local sort in
        // place); 32 768 = 3 passes (odd parity, the ping-pong starts in
        // the aux array so the result still lands in `data`).
        for n in [16_384usize, 32_768] {
            let wl = SortWorkload::with_elems(n);
            for clusters in [1usize, 2, 3, 4] {
                let config = PlatformConfig::iommu_with_llc(200)
                    .with_clusters(clusters)
                    .with_fabric_contention();
                let mut platform = Platform::new(config).unwrap();
                let report = OffloadRunner::new(31)
                    .run_device_only(&mut platform, &wl)
                    .unwrap();
                assert!(
                    report.verified,
                    "sort({n}) must verify on {clusters} clusters"
                );
                assert_eq!(report.per_cluster.len(), clusters);
                let shard_tiles: u64 = report.per_cluster.iter().map(|s| s.tiles).sum();
                assert_eq!(report.stats.tiles, shard_tiles, "every tile executed once");
            }
        }
    }

    #[test]
    fn sharding_speeds_up_the_device_wall_clock() {
        let wl = GemmWorkload::with_dim(64);
        let run = |clusters| {
            let config = PlatformConfig::iommu_with_llc(200).with_clusters(clusters);
            let mut platform = Platform::new(config).unwrap();
            OffloadRunner::new(7)
                .run_device_only(&mut platform, &wl)
                .unwrap()
                .stats
                .total
                .raw()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            (four as f64) < one as f64 * 0.5,
            "4 clusters ({four}) should at least halve the 1-cluster wall clock ({one})"
        );
    }

    #[test]
    fn host_traffic_extends_into_copy_and_map_phases() {
        use sva_host::HostTrafficConfig;
        let run = |mode: OffloadMode, traffic: bool| {
            let mut config = PlatformConfig::iommu_with_llc(200)
                .with_clusters(2)
                .with_fabric_contention();
            if traffic {
                config = config.with_host_traffic(HostTrafficConfig {
                    accesses: 512,
                    ..HostTrafficConfig::default()
                });
            }
            let mut platform = Platform::new(config).unwrap();
            OffloadRunner::new(23)
                .run(&mut platform, &AxpyWorkload::with_elems(16_384), mode)
                .unwrap()
        };
        for mode in [OffloadMode::CopyOffload, OffloadMode::ZeroCopy] {
            let idle = run(mode, false);
            let noisy = run(mode, true);
            assert!(idle.verified && noisy.verified);
            assert!(idle.host_traffic.is_none(), "no stream, no report row");
            let stats = noisy.host_traffic.expect("stream accounting reported");
            // The stream ran in both phases: each copy/map window and the
            // device window injected their full configured load.
            assert!(stats.setup.issued > 0, "{mode:?}: setup phase injected");
            assert!(stats.device.issued > 0, "{mode:?}: device phase injected");
            assert_eq!(
                stats.issued,
                stats.setup.issued + stats.device.issued,
                "{mode:?}: phases partition the stream"
            );
            // Host self-interference: the stream queues behind the
            // runtime's own copies / page-table writes during setup.
            assert!(
                stats.setup.queue_cycles > 0,
                "{mode:?}: setup-phase queueing must be observable"
            );
            assert!(
                noisy.copy_or_map >= idle.copy_or_map,
                "{mode:?}: interference cannot speed setup up ({} vs {})",
                noisy.copy_or_map,
                idle.copy_or_map
            );
        }
        // The copy engine streams through the polluted LLC and shares the
        // bus with the stream, so copy-based setup must get strictly
        // slower. (The map path's timed accesses are cold misses and
        // posted writes either way, and first-fit placement simulates the
        // runtime's accesses before the overlapping stream slices, so its
        // cost is interference-insensitive — the stream's own setup-phase
        // queueing above is where map-phase contention surfaces.)
        let idle_copy = run(OffloadMode::CopyOffload, false);
        let noisy_copy = run(OffloadMode::CopyOffload, true);
        assert!(
            noisy_copy.copy_or_map > idle_copy.copy_or_map,
            "copy-phase interference must cost cycles ({} vs {})",
            noisy_copy.copy_or_map,
            idle_copy.copy_or_map
        );
    }

    #[test]
    fn tlb_hierarchy_runs_verify_and_split_hits_across_levels() {
        let wl = GemmWorkload::with_dim(64);
        let config = PlatformConfig::iommu_with_llc(200)
            .with_clusters(2)
            .with_fabric_contention()
            .with_default_tlb_hierarchy();
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(19)
            .run_device_only(&mut platform, &wl)
            .unwrap();
        assert!(report.verified);
        assert!(report.iommu.atc.hits > 0, "the private ATCs serve hits");
        assert!(report.iommu.atc.misses > 0);
        assert!(
            report.iommu.iotlb.hits > 0,
            "the shared L2 serves ATC misses"
        );
        assert!(
            report.iommu.iotlb.total() < report.iommu.atc.total(),
            "L1 filters traffic away from L2"
        );
        assert_eq!(
            report.iommu.atc.total(),
            report.iommu.translations,
            "every translated access probes L1"
        );
    }

    #[test]
    fn demand_paged_device_runs_verify_and_account_the_fault_loop() {
        let wl = GemmWorkload::with_dim(64);
        let base = || {
            PlatformConfig::iommu_with_llc(200)
                .with_clusters(2)
                .with_fabric_contention()
                .with_default_tlb_hierarchy()
        };
        let mut pre = Platform::new(base()).unwrap();
        let premapped = OffloadRunner::new(29)
            .run_device_only(&mut pre, &wl)
            .unwrap();
        assert_eq!(premapped.iommu.page_requests.serviced, 0);

        let mut platform = Platform::new(base().with_demand_paging()).unwrap();
        let report = OffloadRunner::new(29)
            .run_device_only(&mut platform, &wl)
            .unwrap();
        assert!(report.verified, "demand-paged results are correct");
        let pri = report.iommu.page_requests;
        assert!(pri.serviced > 0, "pages were paged in on demand");
        assert_eq!(pri.failed, 0);
        assert!(pri.group_responses > 0);
        assert!(report.iommu.page_request_p50 > 0, "latency percentiles");
        assert!(report.stats.dma.page_faults > 0);
        assert!(report.stats.dma.fault_stall_cycles > 0);
        assert!(
            report.stats.total > premapped.stats.total,
            "cold-start paging must cost device cycles ({} vs {})",
            report.stats.total,
            premapped.stats.total
        );
    }

    #[test]
    fn demand_paged_zero_copy_application_verifies_without_premap() {
        let wl = AxpyWorkload::with_elems(16_384);
        let config = PlatformConfig::iommu_with_llc(200)
            .with_demand_paging()
            .with_fabric_contention();
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(37)
            .run(&mut platform, &wl, OffloadMode::ZeroCopy)
            .unwrap();
        assert!(report.verified);
        assert!(
            report.iommu.page_requests.serviced > 0,
            "the application faulted its working set in"
        );
        assert_eq!(
            report.unmap,
            Cycles::ZERO,
            "nothing was pre-mapped, nothing to tear down"
        );
    }

    /// Elements of [`WideScale`]'s vector: 20 pages of `f32`.
    const WIDE_ELEMS: usize = 20 * 1024;

    /// A one-tile kernel that doubles a 20-page vector in place with one
    /// 80 KiB DMA request each way: longer than the 16-entry page-request
    /// queue, which no built-in kernel's request is.
    struct WideScale;

    impl Workload for WideScale {
        fn name(&self) -> &'static str {
            "wide_scale"
        }

        fn params(&self) -> String {
            WIDE_ELEMS.to_string()
        }

        fn buffers(&self) -> Vec<BufferSpec> {
            vec![BufferSpec {
                name: "x",
                elems: WIDE_ELEMS,
                kind: BufferKind::InOut,
            }]
        }

        fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
            let mut x = vec![0.0; WIDE_ELEMS];
            rng.fill_f32(&mut x, -1.0, 1.0);
            vec![x]
        }

        fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
            vec![initial[0].iter().map(|v| v * 2.0).collect()]
        }

        fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
            Box::new(WideScaleDevice(device_ptrs[0]))
        }

        fn host_cost(&self) -> HostKernelCost {
            HostKernelCost::streaming(WIDE_ELEMS as u64, 1.0)
        }

        fn flops(&self) -> u64 {
            WIDE_ELEMS as u64
        }
    }

    /// [`WideScale`] on the device: one tile holding the whole vector.
    struct WideScaleDevice(Iova);

    impl DeviceKernel for WideScaleDevice {
        fn name(&self) -> &str {
            "wide_scale"
        }

        fn num_tiles(&self) -> usize {
            1
        }

        fn tile_io(&self, _tile: usize) -> TileIo {
            let bytes = (WIDE_ELEMS * 4) as u64;
            TileIo {
                inputs: vec![DmaRequest::input(self.0, 0, bytes)],
                outputs: vec![DmaRequest::output(self.0, 0, bytes)],
            }
        }

        fn compute_tile(&mut self, _tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
            let mut x = vec![0.0f32; WIDE_ELEMS];
            tcdm.read_f32_slice(0, &mut x)?;
            x.iter_mut().for_each(|v| *v *= 2.0);
            tcdm.write_f32_slice(0, &x)?;
            Ok(Cycles::new(WIDE_ELEMS as u64))
        }
    }

    /// A cold 20-page request overflows the 16-entry page-request queue:
    /// the dropped tail faults again and is paged in by a second group, the
    /// engine serves the overflow backoff, and the run still verifies,
    /// slower than the pre-mapped one.
    #[test]
    fn page_request_queue_overflow_backs_off_and_still_completes() {
        use sva_iommu::pri::PAGE_REQUEST_BACKOFF;
        use sva_iommu::queues::PAGE_REQUEST_ENTRIES;

        let run = |demand: bool| {
            let mut config = PlatformConfig::iommu_with_llc(200).with_fabric_contention();
            if demand {
                config = config.with_demand_paging();
            }
            let mut platform = Platform::new(config).unwrap();
            OffloadRunner::new(41)
                .run_device_only(&mut platform, &WideScale)
                .unwrap()
        };
        let premapped = run(false);
        let demand = run(true);
        assert!(premapped.verified && demand.verified);
        let pages = (WIDE_ELEMS * 4) as u64 / sva_common::PAGE_SIZE;
        let pri = demand.iommu.page_requests;
        assert_eq!(pri.dropped, pages - PAGE_REQUEST_ENTRIES as u64);
        assert_eq!(pri.serviced, pages, "every page is paged in once");
        assert_eq!(pri.group_responses, 2, "the group, then its dropped tail");
        assert_eq!(demand.stats.dma.page_faults, 2);
        assert!(demand.stats.dma.fault_stall_cycles > PAGE_REQUEST_BACKOFF.raw());
        assert!(
            demand.stats.total > premapped.stats.total,
            "overflow backoff cannot speed the device up"
        );
    }

    #[test]
    fn multi_cluster_zero_copy_application_verifies() {
        let wl = AxpyWorkload::with_elems(16_384);
        let config = PlatformConfig::iommu_with_llc(200).with_clusters(2);
        let mut platform = Platform::new(config).unwrap();
        let report = OffloadRunner::new(9)
            .run(&mut platform, &wl, OffloadMode::ZeroCopy)
            .unwrap();
        assert!(report.verified);
        assert_eq!(report.device_per_cluster.len(), 2);
        // Both clusters' DMA streams translated through the shared IOMMU.
        let per_device = platform.iommu.as_ref().unwrap().device_iotlb_stats();
        assert!(
            per_device.len() >= 2,
            "both data devices present: {per_device:?}"
        );
    }
}
