//! One module per table / figure of the paper's evaluation.
//!
//! Every paper experiment exposes a `run` function taking explicit
//! parameters (sweeps, problem sizes) and returning structured results, plus
//! a `render`-style helper producing the paper-style text table. The `paper`
//! binary in `sva_bench` prints them all in order; the grid of fabric
//! configurations lives in the `fabric_sweep` binary.
//!
//! Every device-only artifact — Table II / Figure 4, Figure 5, the config
//! ablations and the fabric sweep — is a list of [`Point`]s: the
//! [`PlatformConfig`] a run used plus what the platform reported.
//! [`run_point`] measures one configuration on a fresh platform, and a
//! sweep passes all its points through one [`OffloadRunner`], which
//! prepares the sweep's workload once. Each table reads its coordinates
//! from a point's configuration and its numbers from the point's reports,
//! and finds a point by its configuration. Figure 2 keeps its three
//! [`OffloadReport`](crate::offload::OffloadReport)s, and Figures 2 (right)
//! and 3 their host-side copy and map times.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table1`] | Table I — kernel inventory |
//! | [`kernel_runtime`] | Table II and Figure 4 — device runtime and %DMA per kernel, latency and variant |
//! | [`offload_breakdown`] | Figure 2 (left) — axpy application breakdown per offload mode |
//! | [`copy_vs_map`] | Figure 2 (right) and Figure 3 — copy vs map time over input size and latency |
//! | [`ptw_time`] | Figure 5 — average page-table-walk time with/without LLC and host interference |
//! | [`ablation`] | Ablations of the paper's design choices (IOTLB size, DMA bypass, outstanding bursts, double buffering, flush-before-map) |
//! | [`fabric`] | Beyond the paper — N-cluster fabric scaling with per-initiator contention statistics |

use sva_common::Result;
use sva_kernels::Workload;
use sva_mem::{ChannelStats, InitiatorSnapshot};

use crate::config::{PlatformConfig, SocVariant};
use crate::offload::{DeviceOnlyReport, OffloadRunner};
use crate::platform::Platform;

pub mod ablation;
pub mod copy_vs_map;
pub mod fabric;
pub mod kernel_runtime;
pub mod offload_breakdown;
pub mod ptw_time;
pub mod table1;

pub use copy_vs_map::{CopyVsMapPoint, CopyVsMapResult};
pub use fabric::FabricSweepResult;
pub use kernel_runtime::KernelRuntimeResult;
pub use offload_breakdown::OffloadBreakdownResult;
pub use ptw_time::PtwResultSet;

/// One device-only measurement: the platform it ran on and what it
/// reported.
#[derive(Clone, Debug)]
pub struct Point {
    /// The configuration the platform was built from.
    pub config: PlatformConfig,
    /// The run's device, per-cluster and IOMMU statistics.
    pub report: DeviceOnlyReport,
    /// Per-initiator fabric statistics, in registration order.
    pub initiators: Vec<InitiatorSnapshot>,
    /// Per-channel DRAM statistics, indexed by channel.
    pub channels: Vec<ChannelStats>,
    /// Grants whose initiator differed from the previous grant's.
    pub grant_switches: u64,
}

impl Point {
    /// The point of a run on `platform`, built from `config`, that returned
    /// `report`: the report plus the fabric's accounting.
    fn new(config: PlatformConfig, report: DeviceOnlyReport, platform: &Platform) -> Self {
        Self {
            config,
            report,
            initiators: platform.mem.fabric_stats(),
            channels: platform.mem.channel_stats(),
            grant_switches: platform.mem.fabric().grant_switches(),
        }
    }

    /// The paper variant of the configuration: no IOMMU is the Baseline,
    /// and an IOMMU runs with or without the LLC.
    pub fn variant(&self) -> SocVariant {
        match (&self.config.iommu, &self.config.mem.llc) {
            (None, _) => SocVariant::Baseline,
            (Some(_), None) => SocVariant::Iommu,
            (Some(_), Some(_)) => SocVariant::IommuLlc,
        }
    }

    /// Total cross-initiator queueing observed at this point.
    pub fn queue_cycles(&self) -> u64 {
        self.initiators.iter().map(|s| s.stats.queue_cycles).sum()
    }

    /// Total issue stalls (request-queue backpressure) observed at this
    /// point.
    pub fn issue_stall_cycles(&self) -> u64 {
        self.initiators
            .iter()
            .map(|s| s.stats.issue_stall_cycles)
            .sum()
    }
}

/// Measures `workload` device-only on a fresh platform built from `config`
/// and returns the point with the configuration, the run's report and the
/// fabric's accounting. The runner's seed sets the inputs.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run_point(
    runner: &OffloadRunner,
    workload: &dyn Workload,
    config: PlatformConfig,
) -> Result<Point> {
    let mut platform = Platform::new(config.clone())?;
    let report = runner.run_device_only(&mut platform, workload)?;
    Ok(Point::new(config, report, &platform))
}
