//! Facade crate for the RISC-V shared-virtual-addressing (SVA) reproduction.
//!
//! This crate re-exports the public API of the workspace so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`soc`] — the platform builder, offload runtime and experiment runners
//!   (the paper's primary contribution).
//! * [`kernels`] — the RajaPERF benchmark subset (axpy, gemm, gesummv,
//!   heat3d, merge sort).
//! * [`iommu`], [`cluster`], [`host`], [`mem`], [`axi`], [`vm`], [`common`] —
//!   the individual subsystems for users who want to assemble custom
//!   platforms.
//!
//! See the repository README for a quickstart and the layout of the
//! workspace.

pub use sva_axi as axi;
pub use sva_cluster as cluster;
pub use sva_common as common;
pub use sva_host as host;
pub use sva_iommu as iommu;
pub use sva_kernels as kernels;
pub use sva_mem as mem;
pub use sva_soc as soc;
pub use sva_vm as vm;

pub use sva_common::prelude;
