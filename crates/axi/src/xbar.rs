//! The fully-connected AXI crossbar.
//!
//! The crossbar model adds the small routing latency of the real
//! interconnect to every transaction. Queuing between masters that target
//! the same slave is modelled by the memory system on top (the only shared
//! slave that matters for the evaluation is the DRAM/LLC path), and the
//! memory fabric keeps the per-initiator traffic statistics.

use sva_common::Cycles;

/// The system crossbar: a fixed routing latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crossbar {
    hop_latency: Cycles,
}

impl Crossbar {
    /// Default one-way routing latency through the fully-connected crossbar
    /// (request plus response path), in host cycles.
    pub const DEFAULT_HOP_LATENCY: Cycles = Cycles::new(4);

    /// Creates a crossbar with the default routing latency.
    pub const fn new() -> Self {
        Self {
            hop_latency: Self::DEFAULT_HOP_LATENCY,
        }
    }

    /// Routing latency added to every transaction that traverses the crossbar.
    pub const fn hop_latency(&self) -> Cycles {
        self.hop_latency
    }
}

impl Default for Crossbar {
    fn default() -> Self {
        Self::new()
    }
}
