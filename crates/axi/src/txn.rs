//! Bus geometry of the interconnect's data path.

/// Geometry of the data bus connecting an initiator to the memory system.
///
/// The prototype platform uses a 64-bit (8-byte) AXI data bus between the
/// cluster, the IOMMU and the main crossbar. The DMA engine caps its bursts
/// itself (`sva_cluster::DmaConfig::max_burst_bytes`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BusConfig {
    /// Width of the data bus in bytes per beat.
    pub bus_bytes: u64,
}

impl BusConfig {
    /// The 64-bit AXI bus used throughout the prototype.
    pub const AXI64: BusConfig = BusConfig { bus_bytes: 8 };

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
    fn bus_config_geometry() {
        let bus = BusConfig::AXI64;
        assert_eq!(bus.beats_for(0), 0);
        assert_eq!(bus.beats_for(1), 1);
        assert_eq!(bus.beats_for(8), 1);
        assert_eq!(bus.beats_for(9), 2);
        assert_eq!(bus.beats_for(2048), 256);
        assert_eq!(BusConfig::default(), BusConfig::AXI64);
    }
}
