//! One `OffloadRunner` prepares each workload once per sweep. Consecutive
//! runs of an equal workload reuse its generated inputs and reference, a
//! run of any other workload replaces them, and every run still verifies
//! and simulates exactly what a fresh runner simulates. The runs of one
//! workload recycle each other's DRAM frames through the entry's frame
//! pool, which holds at most one platform's frames and goes with the entry.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use sva_cluster::DeviceKernel;
use sva_common::rng::DeterministicRng;
use sva_common::{Iova, Result};
use sva_host::HostKernelCost;
use sva_kernels::{AxpyWorkload, BufferSpec, Heat3dWorkload, KernelKind, Workload};
use sva_mem::FramePool;
use sva_soc::config::{PlatformConfig, SocVariant};
use sva_soc::offload::{OffloadMode, OffloadRunner};
use sva_soc::platform::Platform;

const SEED: u64 = 0x5EED;

/// How often a workload's inputs and reference were computed.
#[derive(Default)]
struct Calls {
    init: Cell<usize>,
    expected: Cell<usize>,
    /// Runs at the start of every `init`.
    on_init: RefCell<Option<Box<dyn Fn()>>>,
}

impl Calls {
    fn get(&self) -> (usize, usize) {
        (self.init.get(), self.expected.get())
    }
}

/// Forwards every call to `inner`, counting `init` and `expected`.
struct Counted {
    inner: Box<dyn Workload>,
    calls: Rc<Calls>,
}

impl Counted {
    fn new(inner: Box<dyn Workload>, calls: &Rc<Calls>) -> Self {
        Self {
            inner,
            calls: Rc::clone(calls),
        }
    }
}

impl Workload for Counted {
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
        if let Some(hook) = &*self.calls.on_init.borrow() {
            hook();
        }
        self.calls.init.set(self.calls.init.get() + 1);
        self.inner.init(rng)
    }
    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.calls.expected.set(self.calls.expected.get() + 1);
        self.inner.expected(initial)
    }
    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        self.inner.device_kernel(device_ptrs)
    }
    fn host_cost(&self) -> HostKernelCost {
        self.inner.host_cost()
    }
    fn flops(&self) -> u64 {
        self.inner.flops()
    }
    fn verify(&self, expected: &[Vec<f32>], actual: &[Vec<f32>]) -> Result<()> {
        self.inner.verify(expected, actual)
    }
}

/// Runs `workload` device-only on a fresh platform of `config` through
/// `runner`; asserts it verifies and returns the report's debug text.
fn device_only(runner: &OffloadRunner, config: PlatformConfig, workload: &dyn Workload) -> String {
    let mut platform = Platform::new(config).unwrap();
    let report = runner.run_device_only(&mut platform, workload).unwrap();
    assert!(report.verified, "{} {}", workload.name(), workload.params());
    format!("{report:?}")
}

#[test]
fn one_runner_prepares_each_workload_once_per_sweep() {
    let runner = OffloadRunner::new(SEED);
    let gemm = Rc::new(Calls::default());
    // The Table II sweep of one kernel: 3 latencies x 3 variants, each
    // point with a freshly built workload object, as a benchmark builds
    // them.
    for latency in [200, 600, 1000] {
        for variant in SocVariant::ALL {
            let config = PlatformConfig::variant(variant, latency);
            let wl = Counted::new(KernelKind::Gemm.small_workload(), &gemm);
            let reused = device_only(&runner, config.clone(), &wl);
            let fresh = device_only(&OffloadRunner::new(SEED), config, &wl);
            assert_eq!(reused, fresh, "{variant:?} @ {latency}");
        }
    }
    // 9 points plus 9 fresh runners.
    assert_eq!(gemm.get(), (1 + 9, 1 + 9), "9 points prepared once");

    // A different workload replaces the entry...
    let heat = Rc::new(Calls::default());
    for variant in SocVariant::ALL {
        let wl = Counted::new(KernelKind::Heat3d.small_workload(), &heat);
        device_only(&runner, PlatformConfig::variant(variant, 200), &wl);
    }
    assert_eq!(heat.get(), (1, 1));
    // ...so the first one is prepared again, once, and its application
    // flows reuse it like its device-only runs do.
    let wl = Counted::new(KernelKind::Gemm.small_workload(), &gemm);
    device_only(&runner, PlatformConfig::iommu_with_llc(200), &wl);
    for mode in [
        OffloadMode::HostOnly,
        OffloadMode::CopyOffload,
        OffloadMode::ZeroCopy,
    ] {
        let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        let report = runner.run(&mut platform, &wl, mode).unwrap();
        assert!(report.verified, "{mode:?}");
    }
    assert_eq!(gemm.get(), (11, 11));
}

#[test]
fn parameter_changes_replace_the_prepared_workload() {
    let runner = OffloadRunner::new(SEED);
    let workloads: [Box<dyn Workload>; 4] = [
        Box::new(Heat3dWorkload::with_dim(16, 2)),
        Box::new(Heat3dWorkload::with_dim(16, 4)),
        Box::new(AxpyWorkload::with_elems(6_000)),
        Box::new(AxpyWorkload {
            n: 6_000,
            alpha: -1.25,
        }),
    ];
    for inner in workloads {
        let calls = Rc::new(Calls::default());
        let wl = Counted::new(inner, &calls);
        // The physical (Baseline) and the translated read-back paths.
        for variant in [SocVariant::Baseline, SocVariant::IommuLlc] {
            device_only(&runner, PlatformConfig::variant(variant, 200), &wl);
        }
        assert_eq!(calls.get(), (1, 1), "{}", wl.params());
    }
}

/// An all-zero buffer (gemm's and heat3d's outputs) is neither kept nor
/// written: every run places its buffers in memory that reads as zero,
/// whether its frames are new or recycled. Runs that share one platform —
/// so later buffers land behind earlier, written ones — still verify in
/// every flow.
#[test]
fn all_zero_buffers_rely_on_fresh_frames() {
    let runner = OffloadRunner::new(SEED);
    for kind in [KernelKind::Gemm, KernelKind::Heat3d] {
        let wl = kind.small_workload();
        let zero_buffers = wl
            .init(&mut DeterministicRng::new(SEED))
            .iter()
            .filter(|data| data.iter().all(|v| v.to_bits() == 0))
            .count();
        assert!(zero_buffers > 0, "{}: an all-zero buffer", wl.name());
        for variant in [SocVariant::Baseline, SocVariant::IommuLlc] {
            let mut platform = Platform::new(PlatformConfig::variant(variant, 200)).unwrap();
            for _ in 0..2 {
                let report = runner.run_device_only(&mut platform, wl.as_ref()).unwrap();
                assert!(report.verified, "{} on {variant:?}", wl.name());
            }
        }
        let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        for mode in [
            OffloadMode::HostOnly,
            OffloadMode::CopyOffload,
            OffloadMode::ZeroCopy,
        ] {
            let report = runner.run(&mut platform, wl.as_ref(), mode).unwrap();
            assert!(report.verified, "{} {mode:?}", wl.name());
        }
    }
}

/// The pool a platform's DRAM store takes its frames from.
fn pool_of(platform: &Platform) -> &Rc<FramePool> {
    platform.mem.dram_store().pool()
}

/// Over a 9-point sweep of one workload every run takes its new DRAM
/// frames from the runner's one pool before it allocates, the spares and
/// a running platform's frames never outnumber the larger of it and the
/// platform before it, and each dropped platform leaves the pool holding
/// its frames and no more.
#[test]
fn a_sweep_recycles_the_last_platforms_frames() {
    let runner = OffloadRunner::new(SEED);
    let wl = KernelKind::Heat3d.small_workload();
    let mut kept: Option<Rc<FramePool>> = None;
    for latency in [200, 600, 1000] {
        for variant in SocVariant::ALL {
            let spare = kept.as_ref().map_or(0, |pool| pool.spare_frames());
            let mut platform = Platform::new(PlatformConfig::variant(variant, latency)).unwrap();
            let report = runner.run_device_only(&mut platform, wl.as_ref()).unwrap();
            assert!(report.verified, "{variant:?} @ {latency}");
            let pool = Rc::clone(pool_of(&platform));
            if let Some(kept) = &kept {
                assert!(Rc::ptr_eq(kept, &pool), "one pool per prepared workload");
            }
            // Attaching freed as many spares as the booted platform held,
            // and the run took every new frame from the rest first.
            let frames = platform.mem.dram_store().resident_frames();
            assert_eq!(
                pool.spare_frames(),
                spare.saturating_sub(frames),
                "{variant:?} @ {latency}: the run's new frames came from the spares"
            );
            drop(platform);
            assert_eq!(
                pool.spare_frames(),
                frames,
                "{variant:?} @ {latency}: the pool keeps the last platform's frames"
            );
            kept = Some(pool);
        }
    }
}

/// A run of a different workload frees the old entry's pool before it
/// generates its inputs, both after the platforms that ran the old
/// workload were dropped and on a platform that ran it, and starts from an
/// empty pool.
#[test]
fn a_different_workload_starts_from_an_empty_pool() {
    let runner = OffloadRunner::new(SEED);
    let heat = KernelKind::Heat3d.small_workload();
    for keep_platform in [false, true] {
        let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
        assert!(
            runner
                .run_device_only(&mut platform, heat.as_ref())
                .unwrap()
                .verified
        );
        let old: Weak<FramePool> = Rc::downgrade(pool_of(&platform));
        if !keep_platform {
            platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
            assert!(
                old.upgrade().is_some_and(|pool| pool.spare_frames() > 0),
                "the runner keeps the dropped platform's frames"
            );
        }
        let calls = Rc::new(Calls::default());
        let watched = old.clone();
        *calls.on_init.borrow_mut() = Some(Box::new(move || {
            assert!(
                watched.upgrade().is_none(),
                "the old pool is gone before init"
            );
        }));
        let gemm = Counted::new(KernelKind::Gemm.small_workload(), &calls);
        assert!(
            runner
                .run_device_only(&mut platform, &gemm)
                .unwrap()
                .verified
        );
        assert_eq!(calls.get(), (1, 1), "keep_platform = {keep_platform}");
        assert!(old.upgrade().is_none());
        assert_eq!(
            pool_of(&platform).spare_frames(),
            0,
            "keep_platform = {keep_platform}: the new pool started empty"
        );
    }
}

/// A platform may outlive the runner that ran it: it keeps the pool alive
/// until it is dropped, and dropping it frees the pool with its frames.
#[test]
fn a_platform_dropped_after_its_runner_frees_the_pool() {
    let runner = OffloadRunner::new(SEED);
    let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).unwrap();
    let wl = KernelKind::Heat3d.small_workload();
    assert!(
        runner
            .run_device_only(&mut platform, wl.as_ref())
            .unwrap()
            .verified
    );
    let pool = Rc::downgrade(pool_of(&platform));
    drop(runner);
    assert!(pool.upgrade().is_some(), "the platform holds the pool");
    drop(platform);
    assert!(pool.upgrade().is_none(), "the last holder freed the pool");
}

/// Runs on recycled frames report exactly what a fresh runner's runs
/// report, in every flow: one runner goes through every small kernel, each
/// run compared with a fresh runner's run of the same point.
#[test]
fn recycled_frames_change_no_report() {
    let runner = OffloadRunner::new(SEED);
    for kind in KernelKind::ALL {
        let wl = kind.small_workload();
        for variant in SocVariant::ALL {
            let config = PlatformConfig::variant(variant, 600);
            let reused = device_only(&runner, config.clone(), wl.as_ref());
            let fresh = device_only(&OffloadRunner::new(SEED), config, wl.as_ref());
            assert_eq!(reused, fresh, "{kind:?} on {variant:?}");
        }
        for mode in [
            OffloadMode::HostOnly,
            OffloadMode::CopyOffload,
            OffloadMode::ZeroCopy,
        ] {
            let run = |runner: &OffloadRunner| {
                let mut platform = Platform::new(PlatformConfig::iommu_with_llc(600)).unwrap();
                let report = runner.run(&mut platform, wl.as_ref(), mode).unwrap();
                assert!(report.verified, "{kind:?} {mode:?}");
                format!("{report:?}")
            };
            assert_eq!(
                run(&runner),
                run(&OffloadRunner::new(SEED)),
                "{kind:?} {mode:?}"
            );
        }
    }
}
