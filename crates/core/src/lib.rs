//! The prototype heterogeneous SoC and the paper's experiments.
//!
//! This crate is the reproduction's primary contribution: it assembles the
//! full platform of Figure 1 — CVA6 host with L1 and shared LLC, the RISC-V
//! IOMMU, the Snitch accelerator cluster, the L2 scratchpad and the DRAM
//! delayer — and implements the heterogeneous offload runtime and the
//! experiment drivers that regenerate every table and figure of the
//! evaluation.
//!
//! * [`config`] — platform configurations, including the three variants of
//!   Table II (*Baseline*, *IOMMU*, *IOMMU + LLC*);
//! * [`platform`] — the assembled [`Platform`];
//! * [`offload`] — the OpenMP-target-style offload flows: host-only
//!   execution, copy-based offload and zero-copy (SVA) offload as in
//!   Listing 1;
//! * [`experiments`] — one module per table/figure with a `run` entry point
//!   returning structured results;
//! * [`report`] — plain-text table rendering used by the benchmark
//!   binaries.
//!
//! # Quickstart
//!
//! ```
//! use sva_soc::config::{PlatformConfig, SocVariant};
//! use sva_soc::offload::{OffloadMode, OffloadRunner};
//! use sva_soc::platform::Platform;
//! use sva_kernels::AxpyWorkload;
//!
//! let config = PlatformConfig::variant(SocVariant::IommuLlc, 200);
//! let mut platform = Platform::new(config).unwrap();
//! let workload = AxpyWorkload::with_elems(8_192);
//! let report = OffloadRunner::new(7)
//!     .run(&mut platform, &workload, OffloadMode::ZeroCopy)
//!     .unwrap();
//! assert!(report.verified);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod experiments;
pub mod offload;
pub mod platform;
pub mod report;

pub use config::{PlatformConfig, SocVariant};
pub use offload::{OffloadMode, OffloadReport, OffloadRunner};
pub use platform::Platform;
