//! The memory-mapped register file of the IOMMU.
//!
//! The driver programs the IOMMU through a small set of memory-mapped
//! registers defined by the RISC-V IOMMU specification. The model implements
//! the registers the Linux driver actually touches when bringing the IOMMU
//! up in first-stage (Sv39) mode: `capabilities`, `fctl`, `ddtp` and the
//! queue base/head/tail registers. Reads and writes are functional; the
//! per-access bus timing is accounted by the driver model, which accesses the
//! register window through the host path.

use std::collections::BTreeMap;

use sva_common::{Error, PhysAddr, Result};

/// Byte offsets of the architectural registers (RISC-V IOMMU spec v1.0,
/// chapter 5).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u64)]
#[allow(missing_docs)]
pub enum RegOffset {
    Capabilities = 0x00,
    Fctl = 0x08,
    Ddtp = 0x10,
    Cqb = 0x18,
    Cqh = 0x20,
    Cqt = 0x24,
    Fqb = 0x28,
    Fqh = 0x30,
    Fqt = 0x34,
    Cqcsr = 0x48,
    Fqcsr = 0x4C,
    Ipsr = 0x54,
}

impl RegOffset {
    /// All modelled registers.
    pub const ALL: [RegOffset; 12] = [
        RegOffset::Capabilities,
        RegOffset::Fctl,
        RegOffset::Ddtp,
        RegOffset::Cqb,
        RegOffset::Cqh,
        RegOffset::Cqt,
        RegOffset::Fqb,
        RegOffset::Fqh,
        RegOffset::Fqt,
        RegOffset::Cqcsr,
        RegOffset::Fqcsr,
        RegOffset::Ipsr,
    ];

    /// Looks up a register by its byte offset in the register window.
    pub fn from_offset(offset: u64) -> Option<RegOffset> {
        RegOffset::ALL.into_iter().find(|r| *r as u64 == offset)
    }
}

/// Capability bits advertised by the model (matching the open-source IP
/// configuration used in the paper: Sv39 first-stage, no MSI translation).
pub const CAPABILITIES: u64 = (1 << 9)   // Sv39 support
    | (1 << 38)                          // end-to-end ATS not supported -> 0, keep AMO bit space
    | 0x10; // version 1.0 in the low byte

/// DDTP mode field: one-level device directory table.
pub const DDTP_MODE_1LVL: u64 = 2;

/// The register file.
#[derive(Clone, Debug)]
pub struct RegisterFile {
    regs: BTreeMap<u64, u64>,
}

impl RegisterFile {
    /// Creates a register file in its reset state.
    pub fn new() -> Self {
        let mut regs = BTreeMap::new();
        regs.insert(RegOffset::Capabilities as u64, CAPABILITIES);
        for r in RegOffset::ALL {
            regs.entry(r as u64).or_insert(0);
        }
        Self { regs }
    }

    /// Reads a 64-bit register by offset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BusDecodeError`] for an offset that is not a modelled
    /// register.
    pub fn read(&self, offset: u64) -> Result<u64> {
        self.regs
            .get(&offset)
            .copied()
            .ok_or(Error::BusDecodeError {
                addr: PhysAddr::new(offset),
            })
    }

    /// Writes a 64-bit register by offset. Writes to `capabilities` are
    /// ignored (read-only), as in hardware.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BusDecodeError`] for an offset that is not a modelled
    /// register.
    pub fn write(&mut self, offset: u64, value: u64) -> Result<()> {
        if !self.regs.contains_key(&offset) {
            return Err(Error::BusDecodeError {
                addr: PhysAddr::new(offset),
            });
        }
        if offset == RegOffset::Capabilities as u64 {
            return Ok(());
        }
        self.regs.insert(offset, value);
        Ok(())
    }

    /// Convenience accessor for the `ddtp` register: programmed directory
    /// base and mode.
    pub fn ddtp(&self) -> (PhysAddr, u64) {
        let v = self.regs[&(RegOffset::Ddtp as u64)];
        (PhysAddr::new((v >> 10) << 12), v & 0xF)
    }

    /// Programs `ddtp` from a directory base address and mode.
    pub fn set_ddtp(&mut self, base: PhysAddr, mode: u64) {
        let v = ((base.raw() >> 12) << 10) | (mode & 0xF);
        self.regs.insert(RegOffset::Ddtp as u64, v);
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_advertises_capabilities() {
        let rf = RegisterFile::new();
        assert_eq!(
            rf.read(RegOffset::Capabilities as u64).unwrap(),
            CAPABILITIES
        );
        assert_eq!(rf.read(RegOffset::Ddtp as u64).unwrap(), 0);
    }

    #[test]
    fn capabilities_are_read_only() {
        let mut rf = RegisterFile::new();
        rf.write(RegOffset::Capabilities as u64, 0).unwrap();
        assert_eq!(
            rf.read(RegOffset::Capabilities as u64).unwrap(),
            CAPABILITIES
        );
    }

    #[test]
    fn ddtp_roundtrip() {
        let mut rf = RegisterFile::new();
        let base = PhysAddr::new(0x8012_3000);
        rf.set_ddtp(base, DDTP_MODE_1LVL);
        let (b, mode) = rf.ddtp();
        assert_eq!(b, base);
        assert_eq!(mode, DDTP_MODE_1LVL);
    }

    #[test]
    fn unknown_offset_is_a_decode_error() {
        let mut rf = RegisterFile::new();
        assert!(rf.read(0x1000).is_err());
        assert!(rf.write(0x1000, 1).is_err());
        assert!(RegOffset::from_offset(0x10).is_some());
        assert!(RegOffset::from_offset(0xFFF).is_none());
    }
}
