//! Cross-crate integration tests: every kernel, every platform variant,
//! every offload flow, verified against the host reference.

use sva::kernels::{AxpyWorkload, GesummvWorkload, KernelKind};
use sva::soc::config::{PlatformConfig, SocVariant};
use sva::soc::offload::{OffloadMode, OffloadRunner};
use sva::soc::platform::Platform;

/// Every kernel of the suite runs correctly on the accelerator, on every
/// platform variant, at a reduced problem size.
#[test]
fn every_kernel_verifies_on_every_variant() {
    for kind in KernelKind::ALL {
        let workload = kind.small_workload();
        for variant in SocVariant::ALL {
            let mut platform =
                Platform::new(PlatformConfig::variant(variant, 600)).expect("platform boots");
            let report = OffloadRunner::new(0xE2E)
                .run_device_only(&mut platform, workload.as_ref())
                .expect("device run succeeds");
            assert!(
                report.verified,
                "{:?} on {:?} must match the host reference",
                kind, variant
            );
            assert!(report.stats.total.raw() > 0);
        }
    }
}

/// The three offload flows all produce correct results and consistent
/// breakdowns for a mid-sized axpy.
#[test]
fn offload_flows_are_consistent() {
    let workload = AxpyWorkload::with_elems(12_288);
    for mode in [
        OffloadMode::HostOnly,
        OffloadMode::CopyOffload,
        OffloadMode::ZeroCopy,
    ] {
        let mut platform =
            Platform::new(PlatformConfig::iommu_with_llc(600)).expect("platform boots");
        let report = OffloadRunner::new(99)
            .run(&mut platform, &workload, mode)
            .expect("offload succeeds");
        assert!(report.verified, "{mode:?}");
        // The total is never smaller than its parts.
        let parts = report.copy_or_map + report.offload_overhead + report.device_total();
        assert!(report.total >= report.device_total());
        assert!(report.total >= parts || report.device.is_none());
    }
}

/// Enabling the IOMMU without an LLC slows the accelerator down; adding the
/// LLC recovers almost all of it (the paper's central claim).
#[test]
fn llc_recovers_iommu_overhead() {
    let workload = GesummvWorkload::with_dim(256);
    let mut totals = Vec::new();
    for variant in SocVariant::ALL {
        let mut platform =
            Platform::new(PlatformConfig::variant(variant, 1000)).expect("platform boots");
        let report = OffloadRunner::new(5)
            .run_device_only(&mut platform, &workload)
            .expect("device run succeeds");
        totals.push((variant, report.stats.total.raw()));
    }
    let get = |v: SocVariant| totals.iter().find(|(x, _)| *x == v).unwrap().1 as f64;
    let baseline = get(SocVariant::Baseline);
    let iommu = get(SocVariant::Iommu);
    let iommu_llc = get(SocVariant::IommuLlc);

    assert!(
        iommu > baseline * 1.05,
        "IOMMU without LLC should cost more than 5% at 1000 cycles (got {:.1}%)",
        (iommu / baseline - 1.0) * 100.0
    );
    assert!(
        iommu_llc < baseline * 1.05,
        "IOMMU+LLC should stay within 5% of the baseline (got {:.1}%)",
        (iommu_llc / baseline - 1.0) * 100.0
    );
    assert!(iommu_llc < iommu);
}

/// Total runtime grows monotonically with DRAM latency on every variant.
#[test]
fn runtime_grows_with_dram_latency() {
    let workload = KernelKind::Heat3d.small_workload();
    for variant in SocVariant::ALL {
        let mut previous = 0u64;
        for latency in [200u64, 600, 1000] {
            let mut platform =
                Platform::new(PlatformConfig::variant(variant, latency)).expect("platform boots");
            let report = OffloadRunner::new(17)
                .run_device_only(&mut platform, workload.as_ref())
                .expect("device run succeeds");
            assert!(
                report.stats.total.raw() >= previous,
                "{variant:?}: runtime must not shrink when latency grows"
            );
            previous = report.stats.total.raw();
        }
    }
}

/// Device results are bit-identical across repeated runs with the same seed
/// (the simulation is deterministic).
#[test]
fn simulation_is_deterministic() {
    let workload = KernelKind::Gemm.small_workload();
    let run = || {
        let mut platform =
            Platform::new(PlatformConfig::iommu_with_llc(600)).expect("platform boots");
        let report = OffloadRunner::new(123)
            .run_device_only(&mut platform, workload.as_ref())
            .expect("device run succeeds");
        (
            report.stats.total.raw(),
            report.stats.dma_wait.raw(),
            report.iommu.ptw_walks,
        )
    };
    assert_eq!(run(), run());
}

/// The IOMMU's translation statistics line up with the DMA traffic: every
/// page the DMA engine touches shows up as at least one IOTLB access.
#[test]
fn translation_counts_match_dma_traffic() {
    let workload = AxpyWorkload::with_elems(16_384);
    let mut platform = Platform::new(PlatformConfig::iommu_with_llc(200)).expect("platform boots");
    let report = OffloadRunner::new(3)
        .run_device_only(&mut platform, &workload)
        .expect("device run succeeds");
    let stats = report.iommu;
    assert!(stats.translations > 0);
    assert_eq!(stats.iotlb.total(), stats.translations);
    // axpy reads x and y and writes y: 3 * 16 pages of traffic, each burst of
    // a new page needs a walk or an IOTLB hit.
    assert!(stats.iotlb.total() >= 3 * 16);
}
