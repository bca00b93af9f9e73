//! The fully-connected AXI crossbar.
//!
//! The crossbar model adds the small routing latency of the real
//! interconnect to every transaction. Queuing between masters that target
//! the same slave is modelled by the memory system on top (the only shared
//! slave that matters for the evaluation is the DRAM/LLC path), and the
//! memory fabric keeps the per-initiator traffic statistics.

use sva_common::Cycles;

/// One-way routing latency through the crossbar (request plus response
/// path), in host cycles, added to every transaction.
pub const HOP_LATENCY: Cycles = Cycles::new(4);
