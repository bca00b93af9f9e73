//! The configurable DRAM delayer.
//!
//! The FPGA prototype runs at 50 MHz against a DDR4 chip designed for GHz
//! clocks, so raw memory latency would appear unrealistically small (about
//! 35 host cycles). The paper inserts a parametrisable AXI delayer built from
//! FIFO macroblocks in front of the DDR controller which delays the read-data
//! (`r`) and write-response (`b`) channels by a configurable number of
//! cycles. That knob — 200, 600 or 1000 extra cycles — is the independent
//! variable of every experiment in the evaluation, and this module is its
//! direct software counterpart.
//!
//! The FPGA block's FIFOs are sized never to back-pressure, so the delayer
//! has no occupancy state of its own: it is a pure latency adder. Bounded
//! queueing in front of DRAM is modelled by the fabric's per-channel
//! response queues (see `sva_mem::fabric`).

use sva_common::Cycles;

use crate::txn::AccessKind;

/// FIFO-based delay block inserted between the system crossbar and the DRAM
/// controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxiDelayer {
    delay: Cycles,
}

impl AxiDelayer {
    /// Creates a delayer adding `delay` cycles to every DRAM response.
    pub const fn new(delay: Cycles) -> Self {
        Self { delay }
    }

    /// A pass-through delayer (no added latency), equivalent to removing the
    /// block from the design.
    pub const fn disabled() -> Self {
        Self::new(Cycles::ZERO)
    }

    /// The configured additional latency.
    pub const fn delay(&self) -> Cycles {
        self.delay
    }

    /// Reconfigures the additional latency (the experiments sweep this).
    pub fn set_delay(&mut self, delay: Cycles) {
        self.delay = delay;
    }

    /// Returns the extra latency applied to one transaction of the given
    /// direction.
    ///
    /// Reads are delayed on the `r` channel and writes on the `b` channel, so
    /// both directions observe the full configured delay, matching the FPGA
    /// block.
    pub const fn apply(&self, _kind: AccessKind) -> Cycles {
        self.delay
    }
}

impl Default for AxiDelayer {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_configured_delay_to_both_directions() {
        let d = AxiDelayer::new(Cycles::new(600));
        assert_eq!(d.apply(AccessKind::Read), Cycles::new(600));
        assert_eq!(d.apply(AccessKind::Write), Cycles::new(600));
    }

    #[test]
    fn disabled_delayer_adds_nothing() {
        let d = AxiDelayer::disabled();
        assert_eq!(d.apply(AccessKind::Read), Cycles::ZERO);
        assert_eq!(d.delay(), Cycles::ZERO);
    }

    #[test]
    fn reconfiguration_and_stat_reset() {
        let mut d = AxiDelayer::new(Cycles::new(200));
        assert_eq!(d.apply(AccessKind::Read), Cycles::new(200));
        d.set_delay(Cycles::new(1000));
        assert_eq!(d.apply(AccessKind::Read), Cycles::new(1000));
        assert_eq!(d.delay(), Cycles::new(1000));
    }
}
