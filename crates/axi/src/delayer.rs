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

use sva_common::stats::Counter;
use sva_common::Cycles;

use crate::txn::AccessKind;

/// FIFO-based delay block inserted between the system crossbar and the DRAM
/// controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxiDelayer {
    delay: Cycles,
    reads_delayed: Counter,
    writes_delayed: Counter,
}

impl AxiDelayer {
    /// Creates a delayer adding `delay` cycles to every DRAM response.
    pub fn new(delay: Cycles) -> Self {
        Self {
            delay,
            reads_delayed: Counter::new(),
            writes_delayed: Counter::new(),
        }
    }

    /// A pass-through delayer (no added latency), equivalent to removing the
    /// block from the design.
    pub fn disabled() -> Self {
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
    /// direction and records it in the statistics.
    ///
    /// Reads are delayed on the `r` channel and writes on the `b` channel, so
    /// both directions observe the full configured delay, matching the FPGA
    /// block.
    pub fn apply(&mut self, kind: AccessKind) -> Cycles {
        match kind {
            AccessKind::Read => self.reads_delayed.incr(),
            AccessKind::Write => self.writes_delayed.incr(),
        }
        self.delay
    }

    /// Number of read transactions that went through the delayer.
    pub fn reads_delayed(&self) -> u64 {
        self.reads_delayed.get()
    }

    /// Number of write transactions that went through the delayer.
    pub fn writes_delayed(&self) -> u64 {
        self.writes_delayed.get()
    }

    /// Resets the statistics counters (the configured delay is kept).
    pub fn reset_stats(&mut self) {
        self.reads_delayed.reset();
        self.writes_delayed.reset();
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
        let mut d = AxiDelayer::new(Cycles::new(600));
        assert_eq!(d.apply(AccessKind::Read), Cycles::new(600));
        assert_eq!(d.apply(AccessKind::Write), Cycles::new(600));
        assert_eq!(d.reads_delayed(), 1);
        assert_eq!(d.writes_delayed(), 1);
    }

    #[test]
    fn disabled_delayer_adds_nothing() {
        let mut d = AxiDelayer::disabled();
        assert_eq!(d.apply(AccessKind::Read), Cycles::ZERO);
        assert_eq!(d.delay(), Cycles::ZERO);
    }

    #[test]
    fn reconfiguration_and_stat_reset() {
        let mut d = AxiDelayer::new(Cycles::new(200));
        d.apply(AccessKind::Read);
        d.set_delay(Cycles::new(1000));
        assert_eq!(d.apply(AccessKind::Read), Cycles::new(1000));
        assert_eq!(d.reads_delayed(), 2);
        d.reset_stats();
        assert_eq!(d.reads_delayed(), 0);
        assert_eq!(d.delay(), Cycles::new(1000));
    }
}
