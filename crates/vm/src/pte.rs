//! Sv39 page-table entries.
//!
//! The RISC-V privileged specification defines the PTE layout shared by the
//! host MMU and the IOMMU (the IOMMU specification simply reuses Sv39/Sv48
//! first-stage tables). Only the fields the simulation needs are modelled:
//! the valid/read/write/execute/user/accessed/dirty flags and the physical
//! page number.

use core::fmt;

use sva_common::{PhysAddr, PAGE_SHIFT};

/// Permission and status flags of a PTE (low 8 bits of the entry).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct PteFlags(u8);

impl PteFlags {
    /// Valid.
    pub const V: PteFlags = PteFlags(1 << 0);
    /// Readable.
    pub const R: PteFlags = PteFlags(1 << 1);
    /// Writable.
    pub const W: PteFlags = PteFlags(1 << 2);
    /// Executable.
    pub const X: PteFlags = PteFlags(1 << 3);
    /// User-accessible (required for IOMMU first-stage user translations).
    pub const U: PteFlags = PteFlags(1 << 4);
    /// Global.
    pub const G: PteFlags = PteFlags(1 << 5);
    /// Accessed.
    pub const A: PteFlags = PteFlags(1 << 6);
    /// Dirty.
    pub const D: PteFlags = PteFlags(1 << 7);

    /// Flags of a user read-write data page, pre-accessed/dirtied the way the
    /// kernel driver sets them for DMA-mapped pages.
    pub const fn user_rw() -> PteFlags {
        PteFlags(Self::V.0 | Self::R.0 | Self::W.0 | Self::U.0 | Self::A.0 | Self::D.0)
    }

    /// Flags of a user read-only data page.
    pub const fn user_ro() -> PteFlags {
        PteFlags(Self::V.0 | Self::R.0 | Self::U.0 | Self::A.0)
    }

    /// Empty flag set.
    pub const fn empty() -> PteFlags {
        PteFlags(0)
    }

    /// Raw bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Creates flags from raw bits.
    pub const fn from_bits(bits: u8) -> PteFlags {
        PteFlags(bits)
    }

    /// Returns `true` if every flag in `other` is also set in `self`.
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }
}

impl core::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Self::D, 'D'),
            (Self::A, 'A'),
            (Self::G, 'G'),
            (Self::U, 'U'),
            (Self::X, 'X'),
            (Self::W, 'W'),
            (Self::R, 'R'),
            (Self::V, 'V'),
        ];
        for (flag, c) in names {
            write!(f, "{}", if self.contains(flag) { c } else { '-' })?;
        }
        Ok(())
    }
}

/// A raw Sv39 page-table entry.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Pte(u64);

impl Pte {
    /// An all-zero (invalid) entry.
    pub const INVALID: Pte = Pte(0);

    /// Creates a PTE from its raw 64-bit encoding.
    pub const fn from_raw(raw: u64) -> Pte {
        Pte(raw)
    }

    /// The raw 64-bit encoding.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Creates a leaf entry pointing at the physical page containing `pa`.
    pub const fn leaf(pa: PhysAddr, flags: PteFlags) -> Pte {
        Pte(((pa.raw() >> PAGE_SHIFT) << 10) | flags.bits() as u64)
    }

    /// Creates a non-leaf (pointer) entry referring to the next-level table
    /// page containing `pa`. Pointer entries have only the V bit set.
    pub const fn table(pa: PhysAddr) -> Pte {
        Pte(((pa.raw() >> PAGE_SHIFT) << 10) | PteFlags::V.bits() as u64)
    }

    /// The flag bits of the entry.
    pub const fn flags(self) -> PteFlags {
        PteFlags::from_bits((self.0 & 0xFF) as u8)
    }

    /// Returns `true` if the valid bit is set.
    pub const fn is_valid(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` for a valid leaf entry (any of R/W/X set).
    pub const fn is_leaf(self) -> bool {
        self.is_valid() && (self.0 & 0b1110) != 0
    }

    /// Returns `true` for a valid pointer to a next-level table.
    pub const fn is_table(self) -> bool {
        self.is_valid() && !self.is_leaf()
    }

    /// Physical page number stored in the entry.
    pub const fn ppn(self) -> u64 {
        (self.0 >> 10) & ((1 << 44) - 1)
    }

    /// Physical address of the page (or next-level table) the entry points
    /// to.
    pub const fn phys_addr(self) -> PhysAddr {
        PhysAddr::new(self.ppn() << PAGE_SHIFT)
    }

    /// Returns `true` if the entry permits the given access.
    pub const fn permits(self, is_write: bool) -> bool {
        if !self.is_leaf() {
            return false;
        }
        if is_write {
            self.flags().contains(PteFlags::W)
        } else {
            self.flags().contains(PteFlags::R)
        }
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_valid() {
            write!(f, "PTE(invalid)")
        } else if self.is_leaf() {
            write!(f, "PTE(leaf -> {} [{}])", self.phys_addr(), self.flags())
        } else {
            write!(f, "PTE(table -> {})", self.phys_addr())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let pa = PhysAddr::new(0x8123_4000);
        let pte = Pte::leaf(pa, PteFlags::user_rw());
        assert!(pte.is_valid());
        assert!(pte.is_leaf());
        assert!(!pte.is_table());
        assert_eq!(pte.phys_addr(), pa);
        assert!(pte.permits(true));
        assert!(pte.permits(false));
    }

    #[test]
    fn table_pointer_is_not_leaf() {
        let pte = Pte::table(PhysAddr::new(0x8000_1000));
        assert!(pte.is_valid());
        assert!(!pte.is_leaf());
        assert!(pte.is_table());
        assert!(!pte.permits(false));
    }

    #[test]
    fn invalid_entry() {
        assert!(!Pte::INVALID.is_valid());
        assert!(!Pte::INVALID.is_leaf());
        assert!(!Pte::INVALID.is_table());
        assert_eq!(Pte::from_raw(0).raw(), 0);
    }

    #[test]
    fn read_only_leaf_denies_writes() {
        let pte = Pte::leaf(PhysAddr::new(0x9000_0000), PteFlags::user_ro());
        assert!(pte.permits(false));
        assert!(!pte.permits(true));
    }

    #[test]
    fn page_offset_bits_do_not_leak_into_ppn() {
        let pte = Pte::leaf(PhysAddr::new(0x8123_4FFF), PteFlags::user_rw());
        // The PPN only keeps the page-aligned part.
        assert_eq!(pte.phys_addr(), PhysAddr::new(0x8123_4000));
    }

    #[test]
    fn flags_display_and_ops() {
        let f = PteFlags::V | PteFlags::R | PteFlags::W;
        assert!(f.contains(PteFlags::V));
        assert!(!f.contains(PteFlags::X));
        assert_eq!(format!("{}", f), "-----WRV");
        assert_eq!(format!("{}", PteFlags::user_rw()), "DA-U-WRV");
    }
}
