//! Model of the Snitch accelerator cluster.
//!
//! The cluster is the paper's device under test: eight `rv32imafd`
//! processing elements sharing a tightly-coupled data memory (TCDM), plus a
//! ninth core driving a DMA engine that refills the TCDM from DRAM in long
//! AXI bursts. Kernels are written in the classic PMCA style: the input is
//! tiled, tiles are double-buffered, and the DMA engine works ahead of the
//! compute cores so that — for compute-bound kernels — the time spent
//! *waiting* for data tends to zero.
//!
//! * [`tcdm`] — the L1 scratchpad (functional storage + allocator), 128 KiB
//!   in the evaluated cluster ([`tcdm::DEFAULT_TCDM_BYTES`]);
//! * [`dma`] — the DMA engine: burst splitting, per-page IOMMU translation,
//!   outstanding-transaction pipelining;
//! * [`kernel`] — the [`DeviceKernel`] trait kernels implement (tile
//!   descriptors + per-tile compute);
//! * [`executor`] — the double-buffered run loop producing the
//!   DMA-wait / compute breakdown reported in Table II and Figure 4;
//! * [`pe`] — the processing-element cost helpers shared by kernel cost
//!   models, for the cluster's eight compute PEs.
//!
//! [`ClusterConfig`] holds what every cluster of a platform shares
//! (outstanding DMA bursts, double buffering). Each
//! cluster's own identity — the IOMMU device ID its DMA engine presents and
//! its fabric arbitration priority — is passed to [`ClusterExecutor::new`]
//! and [`DmaEngine::new`] by whoever assembles the platform.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dma;
pub mod executor;
pub mod kernel;
pub mod pe;
pub mod tcdm;

pub use dma::{Direction, DmaEngine, DmaRequest, DmaStats};
pub use executor::{ClusterConfig, ClusterExecutor, KernelRunStats};
pub use kernel::{block_partition, DeviceKernel, TileCtx, TileIo, TileRange};
pub use pe::PeCost;
pub use tcdm::{Tcdm, TcdmAllocator};
