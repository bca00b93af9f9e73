//! The last-page translation memo shared by the host's streams.

use sva_common::{PhysAddr, Result, VirtAddr};
use sva_mem::MemorySystem;
use sva_vm::AddressSpace;

/// The virtual page a host stream translated last and its frame, so a
/// stream walks the page table once per page instead of once per line.
///
/// A memo lives for one stream, during which the page table is fixed.
#[derive(Debug, Default)]
pub(crate) struct LastPage {
    page: Option<(u64, PhysAddr)>,
}

impl LastPage {
    /// Translates `va` in `space`, walking the page table only when `va`
    /// leaves the memoised page.
    ///
    /// # Errors
    ///
    /// Returns [`sva_common::Error::HostPageFault`] for unmapped addresses.
    pub(crate) fn translate(
        &mut self,
        space: &AddressSpace,
        mem: &MemorySystem,
        va: VirtAddr,
    ) -> Result<PhysAddr> {
        let vpn = va.page_number();
        match self.page {
            Some((page, frame)) if page == vpn => Ok(frame + va.page_offset()),
            _ => {
                let pa = space.translate(mem, va)?;
                self.page = Some((vpn, pa.page_base()));
                Ok(pa)
            }
        }
    }
}
