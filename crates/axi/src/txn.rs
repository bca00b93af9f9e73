//! Memory transaction and bus-geometry types.

use sva_common::PhysAddr;

/// Direction of a memory access.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (AXI AR/R channels).
    Read,
    /// A write (AXI AW/W/B channels).
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A single memory transaction as seen by the interconnect: a physical
/// address, a length in bytes and a direction.
///
/// Transactions carry no data; the functional payload is moved separately by
/// the backing store so that timing models stay allocation-free.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemTxn {
    /// Start address of the access.
    pub addr: PhysAddr,
    /// Length of the access in bytes.
    pub len: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemTxn {
    /// Creates a read transaction.
    pub const fn read(addr: PhysAddr, len: u64) -> Self {
        Self {
            addr,
            len,
            kind: AccessKind::Read,
        }
    }

    /// Creates a write transaction.
    pub const fn write(addr: PhysAddr, len: u64) -> Self {
        Self {
            addr,
            len,
            kind: AccessKind::Write,
        }
    }

    /// One past the last byte touched by the transaction.
    pub const fn end(&self) -> PhysAddr {
        PhysAddr::new(self.addr.raw() + self.len)
    }

    /// Returns `true` if the transaction crosses a 4 KiB page boundary.
    pub fn crosses_page_boundary(&self) -> bool {
        self.len > 0 && self.addr.page_number() != (self.end() - 1u64).page_number()
    }
}

/// Geometry of the data bus connecting an initiator to the memory system.
///
/// The prototype platform uses a 64-bit (8-byte) AXI data bus between the
/// cluster, the IOMMU and the main crossbar, and AXI4 caps bursts at 256
/// beats, i.e. 2 KiB per burst at this width.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BusConfig {
    /// Width of the data bus in bytes per beat.
    pub bus_bytes: u64,
    /// Maximum number of beats per AXI burst.
    pub max_burst_beats: u64,
}

impl BusConfig {
    /// The 64-bit AXI bus used throughout the prototype.
    pub const AXI64: BusConfig = BusConfig {
        bus_bytes: 8,
        max_burst_beats: 256,
    };

    /// Maximum number of bytes a single burst may carry.
    pub const fn max_burst_bytes(&self) -> u64 {
        self.bus_bytes * self.max_burst_beats
    }

    /// Number of data beats needed to transfer `bytes` bytes, rounding up.
    pub const fn beats_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bus_bytes)
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        Self::AXI64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_constructors_and_end() {
        let r = MemTxn::read(PhysAddr::new(0x1000), 64);
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.kind.is_write());
        assert_eq!(r.end(), PhysAddr::new(0x1040));

        let w = MemTxn::write(PhysAddr::new(0x2000), 8);
        assert!(w.kind.is_write());
    }

    #[test]
    fn page_boundary_detection() {
        assert!(!MemTxn::read(PhysAddr::new(0x0FC0), 64).crosses_page_boundary());
        assert!(MemTxn::read(PhysAddr::new(0x0FC1), 64).crosses_page_boundary());
        assert!(MemTxn::read(PhysAddr::new(0x0800), 4096).crosses_page_boundary());
        assert!(!MemTxn::read(PhysAddr::new(0x1000), 4096).crosses_page_boundary());
        assert!(!MemTxn::read(PhysAddr::new(0x1000), 0).crosses_page_boundary());
    }

    #[test]
    fn bus_config_geometry() {
        let bus = BusConfig::AXI64;
        assert_eq!(bus.max_burst_bytes(), 2048);
        assert_eq!(bus.beats_for(0), 0);
        assert_eq!(bus.beats_for(1), 1);
        assert_eq!(bus.beats_for(8), 1);
        assert_eq!(bus.beats_for(9), 2);
        assert_eq!(bus.beats_for(2048), 256);
        assert_eq!(BusConfig::default(), BusConfig::AXI64);
    }
}
