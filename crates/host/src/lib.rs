//! Model of the CVA6 host subsystem and its software stack.
//!
//! The host side of the paper's platform is a single 64-bit CVA6 core running
//! Linux. Four of its activities matter for the evaluation and are modelled
//! here:
//!
//! * [`cpu`] — the core's memory path (32 KiB write-through L1 data cache in
//!   front of the shared memory system) and simple instruction-cost
//!   accounting;
//! * [`exec`] — single-threaded execution of the benchmark kernels on the
//!   host (the "CVA6 executes the kernel" bar of Figure 2);
//! * [`copy`] — the `memcpy` into / out of the physically contiguous reserved
//!   DRAM used by copy-based offloading;
//! * [`driver`] — the Linux IOMMU driver model: `ioctl` entry, page pinning,
//!   IO page-table construction and IOTLB invalidation (the "map" bars of
//!   Figures 2 and 3);
//! * [`traffic`] — presets for the synthetic host interference used in
//!   Figure 5.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod copy;
pub mod cpu;
pub mod driver;
pub mod exec;
mod pages;
pub mod traffic;

pub use copy::{CopyEngine, CopyStats};
pub use cpu::HostCpu;
pub use driver::{FaultServicer, IommuDriver, MappingCost, MappingHandle};
pub use exec::{HostKernelCost, HostKernelRunner, HostRunStats};
pub use traffic::{
    HostTrafficConfig, HostTrafficStats, HostTrafficStream, InterferenceLevel, PhaseTraffic,
    TrafficPhase,
};
