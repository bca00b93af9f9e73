//! One module per table / figure of the paper's evaluation.
//!
//! Every paper experiment exposes a `run` function taking explicit
//! parameters (sweeps, problem sizes) and returning structured results, plus
//! a `render`-style helper producing the paper-style text table. The `paper`
//! binary in `sva_bench` prints them all in order. A fabric point is the
//! [`PlatformConfig`](crate::config::PlatformConfig) it ran on plus the
//! reports of its run ([`fabric::run_point`]); the grid of configurations
//! lives in the `fabric_sweep` binary.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table1`] | Table I — kernel inventory |
//! | [`kernel_runtime`] | Table II and Figure 4 — device runtime and %DMA per kernel, latency and variant |
//! | [`offload_breakdown`] | Figure 2 (left) — axpy application breakdown per offload mode |
//! | [`copy_vs_map`] | Figure 2 (right) and Figure 3 — copy vs map time over input size and latency |
//! | [`ptw_time`] | Figure 5 — average page-table-walk time with/without LLC and host interference |
//! | [`ablation`] | Ablations of the paper's design choices (IOTLB size, DMA bypass, outstanding bursts, flush-before-map) |
//! | [`fabric`] | Beyond the paper — N-cluster fabric scaling with per-initiator contention statistics |

pub mod ablation;
pub mod copy_vs_map;
pub mod fabric;
pub mod kernel_runtime;
pub mod offload_breakdown;
pub mod ptw_time;
pub mod table1;

pub use copy_vs_map::{CopyVsMapPoint, CopyVsMapResult};
pub use fabric::{FabricPoint, FabricSweepResult};
pub use kernel_runtime::{KernelRuntimePoint, KernelRuntimeResult};
pub use offload_breakdown::{OffloadBreakdownResult, OffloadCase};
pub use ptw_time::{PtwPoint, PtwResultSet};
