//! The tightly-coupled data memory (TCDM) of the Snitch cluster.
//!
//! The TCDM is the cluster's L1 working memory: a banked SRAM the PEs access
//! with single-cycle latency and the DMA engine fills from DRAM. Kernels are
//! tiled so that the working set of one tile (double-buffered) fits here; the
//! model therefore provides both functional storage (so kernels really
//! compute on the data the DMA engine moved) and a simple bump allocator used
//! by kernel implementations to lay out their tile buffers.

use sva_common::{Error, Result, KIB};

/// Default TCDM capacity of the evaluated cluster (128 KiB).
pub const DEFAULT_TCDM_BYTES: u64 = 128 * KIB;

/// The cluster's L1 scratchpad.
#[derive(Clone, Debug)]
pub struct Tcdm {
    data: Vec<u8>,
}

impl Tcdm {
    /// Creates a zero-initialised TCDM of `bytes` bytes.
    pub fn new(bytes: u64) -> Self {
        Self {
            data: vec![0u8; bytes as usize],
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// The index range of the `len` bytes at `offset`. A range that ends
    /// past the capacity, or past `u64::MAX`, is an overflow.
    fn range(&self, offset: u64, len: u64) -> Result<std::ops::Range<usize>> {
        match offset.checked_add(len) {
            Some(end) if end <= self.capacity() => Ok(offset as usize..end as usize),
            _ => Err(Error::TcdmOverflow {
                requested: offset.saturating_add(len),
                available: self.capacity(),
            }),
        }
    }

    /// The `len` bytes at `offset`, for a bus master that reads the TCDM in
    /// place (the DMA engine writes them straight to memory).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn bytes(&self, offset: u64, len: u64) -> Result<&[u8]> {
        let range = self.range(offset, len)?;
        Ok(&self.data[range])
    }

    /// The `len` bytes at `offset`, writable in place (the DMA engine reads
    /// memory straight into them).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn bytes_mut(&mut self, offset: u64, len: u64) -> Result<&mut [u8]> {
        let range = self.range(offset, len)?;
        Ok(&mut self.data[range])
    }

    /// Reads `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(self.bytes(offset, buf.len() as u64)?);
        Ok(())
    }

    /// Writes `buf` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn write(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        self.bytes_mut(offset, buf.len() as u64)?
            .copy_from_slice(buf);
        Ok(())
    }

    /// Reads a slice of `f32` starting at `offset`: one bounds check, then a
    /// chunked little-endian conversion over the raw bytes (no per-element
    /// indexing).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn read_f32_slice(&self, offset: u64, out: &mut [f32]) -> Result<()> {
        let src = self.bytes(offset, (out.len() * 4) as u64)?;
        for (v, c) in out.iter_mut().zip(src.chunks_exact(4)) {
            *v = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        }
        Ok(())
    }

    /// Writes a slice of `f32` starting at `offset`: one bounds check, then a
    /// chunked little-endian conversion into the raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the range exceeds the capacity.
    pub fn write_f32_slice(&mut self, offset: u64, values: &[f32]) -> Result<()> {
        let dst = self.bytes_mut(offset, (values.len() * 4) as u64)?;
        for (c, v) in dst.chunks_exact_mut(4).zip(values.iter()) {
            c.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Clears the contents to zero.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

impl Default for Tcdm {
    fn default() -> Self {
        Self::new(DEFAULT_TCDM_BYTES)
    }
}

/// A bump allocator for laying out tile buffers inside the TCDM.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TcdmAllocator {
    next: u64,
    capacity: u64,
}

impl TcdmAllocator {
    /// Creates an allocator over a TCDM of `capacity` bytes.
    pub const fn new(capacity: u64) -> Self {
        Self { next: 0, capacity }
    }

    /// Allocates `bytes` bytes aligned to 8 bytes, returning the offset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TcdmOverflow`] if the allocation does not fit.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64> {
        let base = self.next.next_multiple_of(8);
        match base.checked_add(bytes) {
            Some(end) if end <= self.capacity => {
                self.next = end;
                Ok(base)
            }
            _ => Err(Error::TcdmOverflow {
                requested: base.saturating_add(bytes),
                available: self.capacity,
            }),
        }
    }

    /// Bytes still available.
    pub const fn remaining(&self) -> u64 {
        self.capacity - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_128k() {
        assert_eq!(Tcdm::default().capacity(), 128 * KIB);
    }

    #[test]
    fn byte_and_f32_roundtrip() {
        let mut t = Tcdm::new(1024);
        t.write(10, &[1, 2, 3]).unwrap();
        let mut b = [0u8; 3];
        t.read(10, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3]);

        let vals = [1.0f32, 2.0, 3.0, 4.0];
        t.write_f32_slice(200, &vals).unwrap();
        let mut back = [0f32; 4];
        t.read_f32_slice(200, &mut back).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn overflow_is_reported() {
        let mut t = Tcdm::new(64);
        assert!(t.write(60, &[0u8; 8]).is_err());
        let mut b = [0u8; 8];
        assert!(t.read(60, &mut b).is_err());
        assert!(t.write_f32_slice(0, &[0.0; 17]).is_err());
        assert!(t.bytes(60, 8).is_err());
        assert!(t.bytes_mut(60, 8).is_err());
        assert_eq!(t.bytes(56, 8).unwrap().len(), 8, "the last 8 bytes fit");
        assert!(t.bytes_mut(64, 0).unwrap().is_empty());
    }

    /// A range that passes `u64::MAX` is an overflow, not a wrapped index:
    /// every accessor reports `TcdmOverflow` for it, saturated at
    /// `u64::MAX`.
    #[test]
    fn ranges_past_u64_max_overflow() {
        let mut t = Tcdm::default();
        let overflow = |r: Result<()>| {
            matches!(
                r,
                Err(Error::TcdmOverflow {
                    requested: u64::MAX,
                    available: DEFAULT_TCDM_BYTES,
                })
            )
        };
        for offset in [u64::MAX, u64::MAX - 1, u64::MAX - 7] {
            assert!(overflow(t.bytes(offset, 8).map(drop)), "bytes at {offset}");
            assert!(
                overflow(t.bytes_mut(offset, 8).map(drop)),
                "bytes_mut at {offset}"
            );
            assert!(overflow(t.read(offset, &mut [0u8; 8])), "read at {offset}");
            assert!(overflow(t.write(offset, &[1u8; 8])), "write at {offset}");
            let mut out = [0f32; 2];
            assert!(
                overflow(t.read_f32_slice(offset, &mut out)),
                "read_f32_slice at {offset}"
            );
            assert!(
                overflow(t.write_f32_slice(offset, &[1.0; 2])),
                "write_f32_slice at {offset}"
            );
        }
        assert!(overflow(t.bytes(u64::MAX, 2).map(drop)));
        // Nothing was written.
        assert!(t
            .bytes(0, DEFAULT_TCDM_BYTES)
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        let mut a = TcdmAllocator::new(128);
        assert!(matches!(
            a.alloc(u64::MAX),
            Err(Error::TcdmOverflow {
                requested: u64::MAX,
                ..
            })
        ));
        assert_eq!(a.remaining(), 128, "a failed allocation takes nothing");
    }

    #[test]
    fn allocator_aligns_and_tracks_capacity() {
        let mut a = TcdmAllocator::new(128);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(16).unwrap();
        assert_eq!(x, 0);
        assert_eq!(y, 16); // 10 rounded up to 16
        assert_eq!(a.remaining(), 128 - 32);
        assert!(a.alloc(200).is_err());
    }

    #[test]
    fn clear_resets_contents() {
        let mut t = Tcdm::new(64);
        t.write_f32_slice(0, &[5.0, -2.5]).unwrap();
        t.clear();
        let mut back = [1.0f32; 2];
        t.read_f32_slice(0, &mut back).unwrap();
        assert_eq!(back, [0.0; 2]);
    }
}
