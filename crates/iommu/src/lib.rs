//! Model of the RISC-V IOMMU (specification v1.0) as integrated in the
//! prototype platform.
//!
//! The IOMMU sits between the Snitch cluster and the system crossbar
//! (Figure 1 of the paper) and translates every DMA access from IO virtual
//! addresses to physical addresses. The model follows the structure of the
//! open-source IP the paper integrates:
//!
//! * a **device directory table** (DDT) in memory mapping device IDs to
//!   device contexts, with a single-entry device-context cache
//!   ([`ddt`]);
//! * an **IOTLB**: by default the prototype's 4-entry, fully-associative
//!   TLB with LRU replacement, optionally behind a private L1 ATC per
//!   device ([`iotlb`], configured by [`TlbHierarchyConfig`]);
//! * a **page-table walker** issuing up to three dependent reads through its
//!   dedicated AXI master port for each IOTLB miss ([`ptw`]);
//! * the **command vocabulary** for invalidations and the **fault queue**
//!   for IO page faults ([`queues`]).
//!
//! The top-level [`Iommu`] type wires these together behind the
//! [`Iommu::translate_at`] entry point used by the cluster DMA engine. A
//! platform without an IOMMU has no `Iommu`: its devices present bus
//! addresses, which reach memory untranslated at no cost.
//!
//! # Example
//!
//! ```
//! use sva_common::{Cycles, Iova, PAGE_SIZE};
//! use sva_iommu::{Iommu, IommuConfig};
//! use sva_mem::MemorySystem;
//! use sva_vm::{AddressSpace, FrameAllocator};
//!
//! let mut mem = MemorySystem::default();
//! let mut frames = FrameAllocator::linux_pool();
//! let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
//! let va = space.alloc_buffer(&mut mem, &mut frames, PAGE_SIZE).unwrap();
//!
//! let mut iommu = Iommu::new(IommuConfig::default());
//! iommu.attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root()).unwrap();
//!
//! let iova = Iova::from_virt(va);
//! let (pa, _cycles) = iommu.translate_at(&mut mem, 1, iova, false, Cycles::ZERO).unwrap();
//! assert_eq!(pa, space.translate(&mem, va).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ddt;
pub mod iommu;
pub mod iotlb;
pub mod pri;
pub mod ptw;
pub mod queues;

pub use ddt::{DeviceContext, DeviceDirectory};
pub use iommu::{Iommu, IommuConfig, IommuStats, TlbHierarchyConfig, TlbLevelConfig};
pub use iotlb::{IoTlb, IoTlbEntry};
pub use pri::{recover_page_faults, PageRequestHandler, PageRequestStats};
pub use ptw::{PageTableWalker, PtwResult};
pub use queues::{BoundedQueue, Command, FaultReason, FaultRecord, PageRequest};
