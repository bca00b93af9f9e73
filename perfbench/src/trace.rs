//! Transparent timing adaptors around a [`Workload`] and its
//! [`DeviceKernel`].
//!
//! The traced pass hands the offload runtime a [`TimedWorkload`] instead of
//! the kernel's own workload. Every call forwards unchanged to the wrapped
//! object; the adaptor only adds the host time of the call to a shared
//! [`KernelTimes`]. Because nothing inside the simulator is instrumented,
//! the per-layer split is measured entirely from outside the program, and
//! a traced pass must simulate exactly what an untraced pass simulates (the
//! benchmark checks this through `sim.digest`).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sva_cluster::{DeviceKernel, Tcdm, TileCtx, TileIo};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, Result};
use sva_host::HostKernelCost;
use sva_kernels::{BufferSpec, Workload};

/// Host time spent in the `sva_kernels` layer (functional kernels and the
/// host reference), accumulated across calls.
#[derive(Copy, Clone, Debug, Default)]
pub struct KernelTimes {
    /// `DeviceKernel::compute_tile`.
    pub compute: Duration,
    /// `DeviceKernel::plan_tile`.
    pub plan: Duration,
    /// `DeviceKernel::tile_io` plus `Workload::device_kernel`.
    pub tile_io: Duration,
    /// `Workload::init` (input generation).
    pub init: Duration,
    /// `Workload::expected` (the host reference).
    pub reference: Duration,
    /// `Workload::verify`.
    pub verify: Duration,
    /// Tiles computed.
    pub tiles: u64,
}

impl KernelTimes {
    /// Everything the layer spent.
    pub fn total(&self) -> Duration {
        self.compute + self.plan + self.tile_io + self.init + self.reference + self.verify
    }
}

type Shared = Rc<RefCell<KernelTimes>>;

/// Runs `f` and adds its host time to the slot `slot` picks.
fn timed<R>(
    times: &Shared,
    slot: fn(&mut KernelTimes) -> &mut Duration,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    *slot(&mut times.borrow_mut()) += start.elapsed();
    out
}

/// A [`Workload`] that forwards every call and times the kernel layer.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    times: Shared,
}

impl TimedWorkload {
    /// Wraps `inner`; the returned handle reads the accumulated times.
    pub fn new(inner: Box<dyn Workload>) -> (Self, Rc<RefCell<KernelTimes>>) {
        let times = Shared::default();
        let wrapped = Self {
            inner,
            times: Rc::clone(&times),
        };
        (wrapped, times)
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> String {
        self.inner.params()
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        self.inner.buffers()
    }

    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        timed(&self.times, |t| &mut t.init, || self.inner.init(rng))
    }

    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        timed(
            &self.times,
            |t| &mut t.reference,
            || self.inner.expected(initial),
        )
    }

    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        let inner = timed(
            &self.times,
            |t| &mut t.tile_io,
            || self.inner.device_kernel(device_ptrs),
        );
        Box::new(TimedKernel {
            inner,
            times: Rc::clone(&self.times),
        })
    }

    fn host_cost(&self) -> HostKernelCost {
        self.inner.host_cost()
    }

    fn flops(&self) -> u64 {
        self.inner.flops()
    }

    fn verify(&self, expected: &[Vec<f32>], actual: &[Vec<f32>]) -> Result<()> {
        timed(
            &self.times,
            |t| &mut t.verify,
            || self.inner.verify(expected, actual),
        )
    }

    fn device_bytes(&self) -> u64 {
        self.inner.device_bytes()
    }
}

/// A [`DeviceKernel`] that forwards every call and times the kernel layer.
struct TimedKernel {
    inner: Box<dyn DeviceKernel>,
    times: Shared,
}

impl DeviceKernel for TimedKernel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_tiles(&self) -> usize {
        self.inner.num_tiles()
    }

    fn plan_tile(&mut self, tile: usize, ctx: &TileCtx<'_>) -> Result<()> {
        timed(
            &self.times,
            |t| &mut t.plan,
            || self.inner.plan_tile(tile, ctx),
        )
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        timed(&self.times, |t| &mut t.tile_io, || self.inner.tile_io(tile))
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        self.times.borrow_mut().tiles += 1;
        timed(
            &self.times,
            |t| &mut t.compute,
            || self.inner.compute_tile(tile, tcdm),
        )
    }
}
