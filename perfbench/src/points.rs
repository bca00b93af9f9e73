//! The three benchmark workloads, each a fixed sequence of simulation points.
//!
//! Every result of the paper comes from one of three flows, and each
//! workload times exactly one of them (see `perfbench/README.md` for why
//! each exists and which layer it stresses):
//!
//! * `paper_table2` — device-only kernel runs over DRAM latency ×
//!   {Baseline, IOMMU, IOMMU+LLC} (Table II / Fig 4);
//! * `offload_flows` — full host-only, copy-based and zero-copy
//!   applications (Fig 2 / Fig 3);
//! * `fabric_contended` — four clusters, two DRAM channels, bounded queues
//!   and a host-traffic stream sharing the IOMMU and fabric, pre-mapped
//!   and demand-paged (Fig 5 and the fabric sweep).

use sva_host::HostTrafficConfig;
use sva_kernels::KernelKind;
use sva_soc::{OffloadMode, PlatformConfig, SocVariant};

/// One of the benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    /// The Table II sweep: 4 kernels × 3 latencies × 3 variants.
    PaperTable2,
    /// Full applications: 5 kernels × 2 latencies × 3 execution flows.
    OffloadFlows,
    /// The contended fabric: 4 kernels × 2 latencies × {pre-mapped, demand}.
    FabricContended,
}

impl WorkloadName {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::PaperTable2,
        WorkloadName::OffloadFlows,
        WorkloadName::FabricContended,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub const fn name(self) -> &'static str {
        match self {
            WorkloadName::PaperTable2 => "paper_table2",
            WorkloadName::OffloadFlows => "offload_flows",
            WorkloadName::FabricContended => "fabric_contended",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The values of the workload's traffic dimension, in sweep order. The
    /// traced run splits `soc.run_s` along it (`soc.run_<class>_s`).
    pub const fn classes(self) -> &'static [&'static str] {
        match self {
            WorkloadName::PaperTable2 => &["baseline", "iommu", "iommu_llc"],
            WorkloadName::OffloadFlows => &["host_only", "copy", "zero_copy"],
            WorkloadName::FabricContended => &["premapped", "demand"],
        }
    }
}

/// How a point drives the offload runtime.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Flow {
    /// `OffloadRunner::run_device_only`: device execution only.
    DeviceOnly,
    /// `OffloadRunner::run`: the whole application in the given mode.
    App(OffloadMode),
}

/// One simulation: a kernel on a freshly booted platform.
#[derive(Clone, Debug)]
pub struct Point {
    /// The kernel, built at the requested size by the pass's factory.
    pub kernel: KernelKind,
    /// Extra DRAM latency of the platform.
    pub latency: u64,
    /// The point's value on the workload's traffic dimension.
    pub class: &'static str,
    /// The platform the point boots.
    pub config: PlatformConfig,
    /// How the point runs the kernel.
    pub flow: Flow,
}

impl Point {
    /// A short human-readable label, e.g. `gesummv@200 baseline`.
    pub fn label(&self) -> String {
        format!("{}@{} {}", self.kernel.name(), self.latency, self.class)
    }
}

/// The contended platform of `fabric_contended`.
fn contended(latency: u64) -> PlatformConfig {
    PlatformConfig::iommu_with_llc(latency)
        .with_clusters(4)
        .with_memory_channels(2)
        .with_fabric_contention()
        .with_channel_depths(4, 4)
        .with_host_traffic(HostTrafficConfig::default())
        .with_ptw_batching()
        .with_default_tlb_hierarchy()
}

/// The points of one pass of `workload`, in execution order.
pub fn points(workload: WorkloadName) -> Vec<Point> {
    let mut out = Vec::new();
    match workload {
        WorkloadName::PaperTable2 => {
            for kernel in KernelKind::TABLE2 {
                for latency in [200, 600, 1000] {
                    for (variant, class) in SocVariant::ALL.into_iter().zip(workload.classes()) {
                        out.push(Point {
                            kernel,
                            latency,
                            class,
                            config: PlatformConfig::variant(variant, latency),
                            flow: Flow::DeviceOnly,
                        });
                    }
                }
            }
        }
        WorkloadName::OffloadFlows => {
            let modes = [
                OffloadMode::HostOnly,
                OffloadMode::CopyOffload,
                OffloadMode::ZeroCopy,
            ];
            for kernel in KernelKind::ALL {
                for latency in [200, 1000] {
                    for (mode, class) in modes.into_iter().zip(workload.classes()) {
                        out.push(Point {
                            kernel,
                            latency,
                            class,
                            config: PlatformConfig::iommu_with_llc(latency),
                            flow: Flow::App(mode),
                        });
                    }
                }
            }
        }
        WorkloadName::FabricContended => {
            for kernel in KernelKind::TABLE2 {
                for latency in [200, 1000] {
                    out.push(Point {
                        kernel,
                        latency,
                        class: "premapped",
                        config: contended(latency),
                        flow: Flow::DeviceOnly,
                    });
                    out.push(Point {
                        kernel,
                        latency,
                        class: "demand",
                        config: contended(latency).with_demand_paging(),
                        flow: Flow::DeviceOnly,
                    });
                }
            }
        }
    }
    out
}
