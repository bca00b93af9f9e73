//! The benchmark kernels of the evaluation (a RajaPERF subset).
//!
//! The paper implements five kernels as heterogeneous OpenMP applications
//! (Table I): four linear kernels of increasing arithmetic intensity —
//! `axpy`, `heat3d`, `gesummv`, `gemm` — and one non-linear kernel, a
//! parallel merge `sort`. This crate provides, for each of them:
//!
//! * a [`Workload`] descriptor (problem size, buffer layout, input
//!   generation, host reference results, verification);
//! * a tiled, double-buffered device implementation
//!   ([`sva_cluster::DeviceKernel`]) that really computes on the data the DMA
//!   engine moves into the TCDM;
//! * a host-execution cost description used for the host-only bars of
//!   Figure 2.
//!
//! The calibration constants that map operation counts to cluster cycles live
//! in [`cost`] and are documented there.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod axpy;
pub mod cost;
pub mod gemm;
pub mod gesummv;
pub mod heat3d;
pub mod sort;
pub mod suite;
pub mod workload;

pub use axpy::AxpyWorkload;
pub use gemm::GemmWorkload;
pub use gesummv::GesummvWorkload;
pub use heat3d::Heat3dWorkload;
pub use sort::SortWorkload;
pub use suite::KernelKind;
pub use workload::{BufferKind, BufferSpec, Workload};
