//! The on-chip L2 scratchpad memory.
//!
//! The platform contains 1 MiB of non-cached, physically addressed scratchpad
//! connected directly to the crossbar (the address map's L2 SPM window,
//! `sva_axi::addrmap::L2_SPM_SIZE`). It holds the device binaries and
//! shared data structures such as the software mailboxes used to trigger and
//! synchronise offloads, so its (short, constant) access latency shows up in
//! the offload/fork-join overhead of Figure 2. The memory system keeps its
//! contents in a [`crate::SparseMemory`] of the window's size and charges
//! [`ACCESS_LATENCY`] for every access.

use sva_common::Cycles;

/// Access latency of the scratchpad as seen from the crossbar.
pub const ACCESS_LATENCY: Cycles = Cycles::new(6);

#[cfg(test)]
mod tests {
    use super::*;
    use sva_axi::addrmap::{L2_SPM_BASE, L2_SPM_SIZE};
    use sva_axi::xbar::HOP_LATENCY;
    use sva_common::{InitiatorId, PhysAddr, MIB};

    use crate::{MemReq, MemorySystem};

    #[test]
    fn default_is_one_mebibyte() {
        assert_eq!(L2_SPM_SIZE, MIB);
        let mut mem = MemorySystem::default();
        let last_word = PhysAddr::new(L2_SPM_BASE + MIB - 4);
        mem.write_phys(last_word, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        mem.read_phys(last_word, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn timed_roundtrip() {
        let mut mem = MemorySystem::default();
        let addr = PhysAddr::new(L2_SPM_BASE + 0x100);
        let write = mem
            .access(MemReq::write(InitiatorId::Host, addr, &[1, 2, 3, 4]))
            .unwrap();
        let mut buf = [0u8; 4];
        let read = mem
            .access(MemReq::read(InitiatorId::Host, addr, &mut buf))
            .unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(write.latency(), HOP_LATENCY + ACCESS_LATENCY);
        assert_eq!(read.latency(), HOP_LATENCY + ACCESS_LATENCY);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut mem = MemorySystem::default();
        let straddling = PhysAddr::new(L2_SPM_BASE + MIB - 2);
        assert!(mem.write_phys(straddling, &[0u8; 4]).is_err());
    }
}
