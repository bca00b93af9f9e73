//! The fully-connected AXI crossbar.
//!
//! The crossbar model tracks which master issued each transaction, adds the
//! small routing latency of the real interconnect and keeps per-master
//! traffic statistics. Queuing between masters that target the same slave is
//! modelled by the memory system on top (the only shared slave that matters
//! for the evaluation is the DRAM/LLC path).

use sva_common::stats::Counter;
use sva_common::Cycles;

use crate::txn::{AccessKind, MemTxn};

/// Masters attached to the system crossbar.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MasterPort {
    /// The CVA6 host core (through its L1 caches).
    Host,
    /// Translated device traffic (cluster DMA behind the IOMMU, or the
    /// cluster directly when the IOMMU is disabled/bypassed).
    Device,
    /// The IOMMU's dedicated page-table-walk port.
    Ptw,
}

impl MasterPort {
    /// All master ports, in a stable order.
    pub const ALL: [MasterPort; 3] = [MasterPort::Host, MasterPort::Device, MasterPort::Ptw];

    fn index(self) -> usize {
        match self {
            MasterPort::Host => 0,
            MasterPort::Device => 1,
            MasterPort::Ptw => 2,
        }
    }
}

/// Per-master traffic statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Number of read transactions issued by the master.
    pub reads: u64,
    /// Number of write transactions issued by the master.
    pub writes: u64,
    /// Total bytes moved by the master.
    pub bytes: u64,
}

/// The system crossbar: routing latency plus per-master accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crossbar {
    hop_latency: Cycles,
    stats: [PortStats; 3],
    total_txns: Counter,
}

impl Crossbar {
    /// Default one-way routing latency through the fully-connected crossbar
    /// (request plus response path), in host cycles.
    pub const DEFAULT_HOP_LATENCY: Cycles = Cycles::new(4);

    /// Creates a crossbar with the default routing latency.
    pub fn new() -> Self {
        Self::with_hop_latency(Self::DEFAULT_HOP_LATENCY)
    }

    /// Creates a crossbar with an explicit routing latency.
    pub fn with_hop_latency(hop_latency: Cycles) -> Self {
        Self {
            hop_latency,
            stats: [PortStats::default(); 3],
            total_txns: Counter::new(),
        }
    }

    /// Routing latency added to every transaction that traverses the crossbar.
    pub const fn hop_latency(&self) -> Cycles {
        self.hop_latency
    }

    /// Records one transaction from `port` and returns the routing latency it
    /// experiences.
    pub fn route(&mut self, port: MasterPort, txn: &MemTxn) -> Cycles {
        let s = &mut self.stats[port.index()];
        match txn.kind {
            AccessKind::Read => s.reads += 1,
            AccessKind::Write => s.writes += 1,
        }
        s.bytes += txn.len;
        self.total_txns.incr();
        self.hop_latency
    }

    /// Traffic statistics for one master.
    pub fn port_stats(&self, port: MasterPort) -> PortStats {
        self.stats[port.index()]
    }

    /// Total number of transactions routed since the last reset.
    pub fn total_transactions(&self) -> u64 {
        self.total_txns.get()
    }

    /// Fraction of all routed transactions issued by `port` (0.0 when idle).
    pub fn traffic_share(&self, port: MasterPort) -> f64 {
        let total = self.total_transactions();
        if total == 0 {
            0.0
        } else {
            let s = self.stats[port.index()];
            (s.reads + s.writes) as f64 / total as f64
        }
    }

    /// Clears all statistics.
    pub fn reset_stats(&mut self) {
        self.stats = [PortStats::default(); 3];
        self.total_txns.reset();
    }
}

impl Default for Crossbar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_common::PhysAddr;

    #[test]
    fn routing_accumulates_stats() {
        let mut xbar = Crossbar::new();
        let lat = xbar.route(MasterPort::Host, &MemTxn::read(PhysAddr::new(0x1000), 64));
        assert_eq!(lat, Crossbar::DEFAULT_HOP_LATENCY);
        xbar.route(MasterPort::Host, &MemTxn::write(PhysAddr::new(0x2000), 8));
        xbar.route(MasterPort::Ptw, &MemTxn::read(PhysAddr::new(0x3000), 8));

        let host = xbar.port_stats(MasterPort::Host);
        assert_eq!(host.reads, 1);
        assert_eq!(host.writes, 1);
        assert_eq!(host.bytes, 72);
        assert_eq!(xbar.port_stats(MasterPort::Device), PortStats::default());
        assert_eq!(xbar.total_transactions(), 3);
    }

    #[test]
    fn traffic_share_sums_to_one() {
        let mut xbar = Crossbar::new();
        for i in 0..10 {
            let port = MasterPort::ALL[i % 3];
            xbar.route(port, &MemTxn::read(PhysAddr::new(0x1000), 64));
        }
        let total: f64 = MasterPort::ALL.iter().map(|&p| xbar.traffic_share(p)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_crossbar_has_zero_share() {
        let xbar = Crossbar::new();
        assert_eq!(xbar.traffic_share(MasterPort::Device), 0.0);
    }

    #[test]
    fn reset_clears_stats_but_keeps_latency() {
        let mut xbar = Crossbar::with_hop_latency(Cycles::new(7));
        xbar.route(MasterPort::Device, &MemTxn::read(PhysAddr::new(0), 8));
        xbar.reset_stats();
        assert_eq!(xbar.total_transactions(), 0);
        assert_eq!(xbar.hop_latency(), Cycles::new(7));
    }
}
