//! Transaction-level model of the AXI on-chip interconnect of the prototype
//! platform.
//!
//! The paper's SoC (Figure 1) connects the CVA6 host, the IOMMU (two master
//! ports: translated device traffic and page-table-walk traffic), the LLC,
//! the L2 scratchpad and the DRAM controller through a fully-connected AXI
//! crossbar. The details of that interconnect the evaluation depends on are
//! modelled here:
//!
//! * **burst semantics** — AXI transfers are split at 4 KiB boundaries and at
//!   the maximum burst length; every burst issued through the IOMMU may incur
//!   an IOTLB miss, which is where the translation overhead of Table II comes
//!   from ([`burst`]);
//! * **the LLC bypass** — a demux/mux pair remaps the same DRAM range to two
//!   bus address ranges separated by a fixed offset so device DMA can bypass
//!   the LLC while host and PTW traffic are cached ([`addrmap`]);
//! * **the data-bus geometry** — bytes per beat, which turns a payload into
//!   bus occupancy ([`txn`]);
//! * **the crossbar hop** — the fixed routing latency every transaction pays
//!   ([`xbar`]).
//!
//! The DRAM delayer the FPGA inserts before the DDR controller is a pure
//! latency adder; `sva_mem::dram` adds it to the controller latency.
//!
//! # Example
//!
//! ```
//! use sva_axi::burst::BurstPlan;
//! use sva_common::PhysAddr;
//!
//! // A 5 KiB DMA transfer starting 256 B below a page boundary is split into
//! // three bursts: one up to the page boundary, then page-sized pieces capped
//! // at the maximum burst length.
//! let plan = BurstPlan::split(PhysAddr::new(0x8000_0F00), 5 * 1024, 2048);
//! assert_eq!(plan.total_bytes(), 5 * 1024);
//! assert_eq!(plan.count(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addrmap;
pub mod burst;
pub mod txn;
pub mod xbar;

pub use addrmap::{AddressMap, Region, RegionKind};
pub use burst::{Burst, BurstPlan};
