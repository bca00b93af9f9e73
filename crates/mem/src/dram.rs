//! DRAM controller timing model with the configurable AXI delayer.
//!
//! On the FPGA prototype a memory access from the 50 MHz host domain reaches
//! the DDR4 controller in roughly 35 cycles; the paper then adds a
//! parametrisable delayer (200 / 600 / 1000 cycles) in front of the
//! controller to emulate the relative latency a real silicon implementation
//! would see. This module combines both into a single access-timing model:
//!
//! ```text
//! access latency = controller latency + delayer latency + beats on the bus
//! ```
//!
//! The delayer is built from FIFO macroblocks that delay the read-data (`r`)
//! and write-response (`b`) channels by the same number of cycles and are
//! sized never to back-pressure, so it is a pure latency adder for both
//! directions. Bounded queueing in front of DRAM is modelled by the fabric's
//! per-channel response queues (see `crate::fabric`).

use sva_axi::txn::beats_for;
use sva_common::Cycles;

/// Fixed latency of the DDR controller and PHY as observed from the host
/// clock domain (about 35 cycles at 50 MHz on the VCU128).
pub const CONTROLLER_LATENCY: Cycles = Cycles::new(35);

/// Timing of one DRAM access, split into the latency to the first beat and
/// the bus occupancy of the data transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// Cycles until the first data beat (or write acceptance) returns.
    pub latency: Cycles,
    /// Cycles the data bus is busy streaming the payload.
    pub occupancy: Cycles,
}

impl DramTiming {
    /// Total blocking time of the access for an initiator that cannot
    /// overlap it with anything else.
    pub fn total(&self) -> Cycles {
        self.latency + self.occupancy
    }
}

/// The DRAM controller + delayer timing model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dram {
    /// Additional latency inserted by the AXI delayer (the experiment knob:
    /// 200, 600 or 1000 cycles).
    delayer_latency: Cycles,
}

impl Dram {
    /// Creates a DRAM model whose delayer adds `delayer_latency`.
    pub const fn new(delayer_latency: Cycles) -> Self {
        Self { delayer_latency }
    }

    /// Total zero-load latency (controller + delayer) of a single beat.
    pub fn base_latency(&self) -> Cycles {
        CONTROLLER_LATENCY + self.delayer_latency
    }

    /// Computes the timing of one access of `bytes` bytes, read or write:
    /// the delayer delays both directions equally.
    pub fn access(&self, bytes: u64) -> DramTiming {
        DramTiming {
            latency: self.base_latency(),
            occupancy: Cycles::new(beats_for(bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_latency_is_controller_plus_delayer() {
        let dram = Dram::new(Cycles::new(600));
        let t = dram.access(64);
        assert_eq!(t.latency, Cycles::new(635));
        assert_eq!(t.occupancy, Cycles::new(8));
        assert_eq!(t.total(), Cycles::new(643));
    }

    #[test]
    fn occupancy_scales_with_burst_size() {
        let dram = Dram::new(Cycles::new(200));
        let small = dram.access(8);
        let big = dram.access(2048);
        assert_eq!(small.occupancy, Cycles::new(1));
        assert_eq!(big.occupancy, Cycles::new(256));
        assert_eq!(small.latency, big.latency);
    }

    #[test]
    fn latency_sweep_reconfiguration() {
        let at = |delay: u64| Dram::new(Cycles::new(delay));
        let t200 = at(200).access(64).latency;
        let t1000 = at(1000).access(64).latency;
        assert_eq!(t1000 - t200, Cycles::new(800));
    }
}
