//! Bus geometry of the interconnect's data path.

/// Width of the data bus in bytes per beat: the prototype's 64-bit AXI bus
/// between the cluster, the IOMMU and the main crossbar. The DMA engine
/// caps its bursts itself (`sva_cluster::dma::MAX_BURST_BYTES`).
pub const BUS_BYTES: u64 = 8;

/// Number of data beats needed to transfer `bytes` bytes, rounding up.
pub const fn beats_for(bytes: u64) -> u64 {
    bytes.div_ceil(BUS_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_config_geometry() {
        assert_eq!(beats_for(0), 0);
        assert_eq!(beats_for(1), 1);
        assert_eq!(beats_for(8), 1);
        assert_eq!(beats_for(9), 2);
        assert_eq!(beats_for(2048), 256);
    }
}
