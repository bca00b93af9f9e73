//! The interface device kernels implement.
//!
//! A device kernel describes its execution as a sequence of **tiles**: for
//! each tile it lists the DMA transfers that bring the tile's inputs into the
//! TCDM, the compute performed on the TCDM-resident data, and the transfers
//! that write the results back. The executor (see [`crate::executor`])
//! schedules these phases with double buffering, exactly like the
//! hand-written Snitch kernels of the paper.

use sva_common::{Cycles, Iova, PhysAddr, Result};
use sva_iommu::Iommu;
use sva_mem::MemorySystem;

use crate::dma::DmaRequest;
use crate::tcdm::Tcdm;

/// Functional view of device-visible external memory, handed to
/// [`DeviceKernel::plan_tile`] before a tile's DMA descriptors are read.
///
/// Real PMCA kernels run cheap address-generation pre-passes on the DMA
/// core (e.g. the merge-path binary search of the sort kernel) that *read
/// DRAM-resident data* to compute the next tile's transfer ranges. The
/// context models exactly that: untimed functional reads of external
/// memory through the device's own translation view (IOVAs under an IOMMU,
/// bus addresses without one). Because the reads go to the **shared**
/// functional memory — not a per-kernel-instance mirror — pre-passes stay
/// correct when one kernel is sharded across several clusters.
pub struct TileCtx<'a> {
    mem: &'a MemorySystem,
    iommu: Option<&'a Iommu>,
    device_id: u32,
}

impl<'a> TileCtx<'a> {
    /// A context reading through `device_id`'s translation view: IOVAs
    /// translated by `iommu`, or bus addresses with `None`.
    pub fn new(mem: &'a MemorySystem, iommu: Option<&'a Iommu>, device_id: u32) -> Self {
        Self {
            mem,
            iommu,
            device_id,
        }
    }

    /// The device ID whose translation view the reads use.
    pub const fn device_id(&self) -> u32 {
        self.device_id
    }

    /// The bus address the device reaches at `iova` (an untimed probe).
    fn bus_addr(&self, iova: Iova) -> Result<PhysAddr> {
        match self.iommu {
            Some(iommu) => iommu.probe_translation(self.mem, self.device_id, iova),
            None => Ok(PhysAddr::new(iova.raw())),
        }
    }

    /// Functional read of `buf.len()` bytes of external memory at `iova`
    /// (split at page boundaries, since consecutive IOVA pages may map to
    /// scattered frames).
    ///
    /// # Errors
    ///
    /// Returns translation faults for unmapped addresses and decode errors
    /// for non-memory regions.
    pub fn read(&self, iova: Iova, buf: &mut [u8]) -> Result<()> {
        let mut done = 0u64;
        let len = buf.len() as u64;
        while done < len {
            let cur = iova + done;
            let in_page = sva_common::PAGE_SIZE - cur.page_offset();
            let chunk = in_page.min(len - done);
            let pa = self.bus_addr(cur)?;
            self.mem
                .read_phys(pa, &mut buf[done as usize..(done + chunk) as usize])?;
            done += chunk;
        }
        Ok(())
    }

    /// Functional read of one little-endian `f32` at `iova`.
    ///
    /// # Errors
    ///
    /// See [`TileCtx::read`].
    pub fn read_f32(&self, iova: Iova) -> Result<f32> {
        // Tile element reads are 4-byte and tile layouts are element-aligned,
        // so the access almost never straddles a page: one translation probe
        // plus the store's typed single-frame read. The generic page-split
        // loop remains as the straddle fallback.
        if iova.page_offset() + 4 <= sva_common::PAGE_SIZE {
            return self.mem.read_f32_phys(self.bus_addr(iova)?);
        }
        let mut b = [0u8; 4];
        self.read(iova, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }
}

/// The DMA work attached to one tile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TileIo {
    /// Transfers that must complete before the tile can be computed.
    pub inputs: Vec<DmaRequest>,
    /// Transfers that write the tile's results back to external memory.
    pub outputs: Vec<DmaRequest>,
}

impl TileIo {
    /// Creates an empty descriptor (a tile with no external I/O).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes moved into the TCDM for this tile.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().map(|r| r.len).sum()
    }

    /// Total bytes written back from the TCDM for this tile.
    pub fn output_bytes(&self) -> u64 {
        self.outputs.iter().map(|r| r.len).sum()
    }
}

/// A kernel executable on the accelerator cluster.
///
/// Implementations both *model the timing* (by returning the compute cycles
/// of each tile, usually via [`crate::pe::PeCost`]) and *perform the
/// computation* on the TCDM contents, so results can be verified against a
/// host reference.
pub trait DeviceKernel {
    /// Human-readable kernel name (e.g. `"gemm"`).
    fn name(&self) -> &str;

    /// Number of tiles the kernel is split into.
    fn num_tiles(&self) -> usize;

    /// Address-generation pre-pass for tile `tile`: called by the executor
    /// before the [`DeviceKernel::tile_io`] of that tile, with a
    /// functional view of the shared external memory. Kernels whose
    /// transfer ranges depend on data (sort's merge-path partitions) compute
    /// and cache them here; the default does nothing.
    ///
    /// # Errors
    ///
    /// Returns translation faults or decode errors from the functional
    /// reads.
    fn plan_tile(&mut self, tile: usize, ctx: &TileCtx<'_>) -> Result<()> {
        let _ = (tile, ctx);
        Ok(())
    }

    /// The DMA transfers of tile `tile`.
    ///
    /// The executor calls it once per tile, right after
    /// [`DeviceKernel::plan_tile`], and keeps the outputs until the tile's
    /// compute is done. Implementations alternate TCDM buffers between even
    /// and odd tiles so the executor can overlap tile `i+1` transfers with
    /// tile `i` compute.
    fn tile_io(&self, tile: usize) -> TileIo;

    /// Computes tile `tile` on the TCDM-resident data and returns the
    /// host-domain cycles the compute phase takes on the cluster.
    ///
    /// # Errors
    ///
    /// Returns an error if the tile layout does not fit the TCDM (a kernel
    /// configuration bug).
    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles>;
}

/// A contiguous tile range of an underlying kernel, used to shard one kernel
/// across several clusters with static block scheduling.
///
/// Tile `t` of the shard maps to tile `start + t` of the inner kernel, for
/// both I/O descriptors and compute, so a shard computes exactly the tiles of
/// its block and nothing else. Each cluster wraps its *own* kernel instance
/// (tiles of distinct shards touch distinct TCDMs).
pub struct TileRange<K: DeviceKernel> {
    inner: K,
    start: usize,
    len: usize,
}

impl<K: DeviceKernel> TileRange<K> {
    /// Restricts `inner` to the `len` tiles starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the inner kernel's tile count.
    pub fn new(inner: K, start: usize, len: usize) -> Self {
        assert!(
            start + len <= inner.num_tiles(),
            "tile range {start}..{} exceeds {} tiles",
            start + len,
            inner.num_tiles()
        );
        Self { inner, start, len }
    }

    /// The first inner tile of the shard.
    pub const fn start(&self) -> usize {
        self.start
    }
}

impl<K: DeviceKernel> DeviceKernel for TileRange<K> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_tiles(&self) -> usize {
        self.len
    }

    fn plan_tile(&mut self, tile: usize, ctx: &TileCtx<'_>) -> Result<()> {
        self.inner.plan_tile(self.start + tile, ctx)
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        self.inner.tile_io(self.start + tile)
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        self.inner.compute_tile(self.start + tile, tcdm)
    }
}

impl<'a> DeviceKernel for Box<dyn DeviceKernel + 'a> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn num_tiles(&self) -> usize {
        self.as_ref().num_tiles()
    }

    fn plan_tile(&mut self, tile: usize, ctx: &TileCtx<'_>) -> Result<()> {
        self.as_mut().plan_tile(tile, ctx)
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        self.as_ref().tile_io(tile)
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        self.as_mut().compute_tile(tile, tcdm)
    }
}

/// Splits `total` tiles into `shards` contiguous blocks (static block
/// scheduling): the first `total % shards` blocks get one extra tile.
/// Returns `(start, len)` pairs; shards beyond `total` come back empty.
pub fn block_partition(total: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards > 0, "at least one shard");
    let base = total / shards;
    let extra = total % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((start, len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_common::Iova;

    #[test]
    fn block_partition_covers_all_tiles_contiguously() {
        for total in [0usize, 1, 7, 8, 9, 100] {
            for shards in [1usize, 2, 3, 4, 8] {
                let blocks = block_partition(total, shards);
                assert_eq!(blocks.len(), shards);
                let mut next = 0;
                for (start, len) in &blocks {
                    assert_eq!(*start, next);
                    next += len;
                }
                assert_eq!(next, total, "{total} tiles over {shards} shards");
                let max = blocks.iter().map(|(_, l)| *l).max().unwrap();
                let min = blocks.iter().map(|(_, l)| *l).min().unwrap();
                assert!(max - min <= 1, "block schedule is balanced");
            }
        }
    }

    #[test]
    fn tile_range_remaps_tiles() {
        struct Probe;
        impl DeviceKernel for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn num_tiles(&self) -> usize {
                10
            }
            fn tile_io(&self, tile: usize) -> TileIo {
                TileIo {
                    inputs: vec![DmaRequest::input(Iova::new(tile as u64), 0, 1)],
                    outputs: vec![],
                }
            }
            fn compute_tile(&mut self, tile: usize, _tcdm: &mut Tcdm) -> Result<Cycles> {
                Ok(Cycles::new(tile as u64))
            }
        }
        let mut shard = TileRange::new(Probe, 4, 3);
        assert_eq!(shard.num_tiles(), 3);
        assert_eq!(shard.start(), 4);
        assert_eq!(shard.tile_io(0).inputs[0].ext_addr, Iova::new(4));
        assert_eq!(shard.tile_io(2).inputs[0].ext_addr, Iova::new(6));
        let mut tcdm = Tcdm::default();
        assert_eq!(shard.compute_tile(1, &mut tcdm).unwrap(), Cycles::new(5));
    }

    #[test]
    fn block_partition_with_more_shards_than_tiles_leaves_empty_tails() {
        // tiles < num_clusters: the first `total` shards take one tile each,
        // the tail shards are empty ranges anchored at `total`.
        let blocks = block_partition(3, 8);
        assert_eq!(blocks.len(), 8);
        assert_eq!(&blocks[..3], &[(0, 1), (1, 1), (2, 1)]);
        for &(start, len) in &blocks[3..] {
            assert_eq!((start, len), (3, 0));
        }
    }

    #[test]
    fn empty_tile_range_is_valid_and_runs_to_zero_stats() {
        use crate::executor::ClusterExecutor;
        use sva_mem::MemorySystem;

        struct Three;
        impl DeviceKernel for Three {
            fn name(&self) -> &str {
                "three"
            }
            fn num_tiles(&self) -> usize {
                3
            }
            fn tile_io(&self, _tile: usize) -> TileIo {
                TileIo::new()
            }
            fn compute_tile(&mut self, _tile: usize, _tcdm: &mut Tcdm) -> Result<Cycles> {
                Ok(Cycles::new(100))
            }
        }

        // The partition tail shard: start == num_tiles, len == 0.
        let mut shard = TileRange::new(Three, 3, 0);
        assert_eq!(shard.num_tiles(), 0);
        assert_eq!(shard.start(), 3);

        let mut mem = MemorySystem::default();
        let mut exec = ClusterExecutor::default();
        // Dirty the engine with a real run first: the empty shard must
        // report fresh zeroes, not the previous run's accounting.
        exec.run(&mut mem, None, &mut TileRange::new(Three, 0, 3), None)
            .unwrap();
        let stats = exec.run(&mut mem, None, &mut shard, None).unwrap();
        assert_eq!(stats.tiles, 0);
        assert_eq!(stats.total, Cycles::ZERO);
        assert_eq!(stats.compute, Cycles::ZERO);
        assert_eq!(stats.dma_wait, Cycles::ZERO);
        assert_eq!(stats.dma.requests, 0, "no stale DMA accounting");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn tile_range_rejects_out_of_bounds() {
        struct Two;
        impl DeviceKernel for Two {
            fn name(&self) -> &str {
                "two"
            }
            fn num_tiles(&self) -> usize {
                2
            }
            fn tile_io(&self, _tile: usize) -> TileIo {
                TileIo::new()
            }
            fn compute_tile(&mut self, _tile: usize, _tcdm: &mut Tcdm) -> Result<Cycles> {
                Ok(Cycles::ZERO)
            }
        }
        let _ = TileRange::new(Two, 1, 2);
    }

    #[test]
    fn tile_io_byte_accounting() {
        let io = TileIo {
            inputs: vec![
                DmaRequest::input(Iova::new(0x1000), 0, 256),
                DmaRequest::input(Iova::new(0x2000), 256, 128),
            ],
            outputs: vec![DmaRequest::output(Iova::new(0x3000), 0, 64)],
        };
        assert_eq!(io.input_bytes(), 384);
        assert_eq!(io.output_bytes(), 64);
        assert_eq!(TileIo::new().input_bytes(), 0);
    }
}
