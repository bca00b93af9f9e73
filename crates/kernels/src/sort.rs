//! `sort`: parallel merge sort of 65 536 single-precision values (RajaPERF
//! *algorithm* group).
//!
//! The non-linear kernel of the suite. The device implementation follows the
//! classic PMCA two-phase scheme:
//!
//! 1. **local sort** — the array is cut into TCDM-sized chunks, each chunk is
//!    DMA-ed in, sorted by the PEs and written back;
//! 2. **merge passes** — `log2(chunks)` passes merge pairs of sorted runs,
//!    ping-ponging between the data array and an auxiliary array in DRAM.
//!    Each merge tile produces one chunk-sized block of the output; the input
//!    ranges contributing to that block are determined with a merge-path
//!    partition — a cheap binary search the DMA core performs on the
//!    DRAM-resident run data, modelled in [`DeviceKernel::plan_tile`] as
//!    untimed functional reads of the **shared** external memory
//!    (`TileCtx`). Because the partitions are computed from shared memory —
//!    not from a per-kernel-instance mirror — the kernel shards correctly
//!    across multiple clusters: every shard sees the runs exactly as the
//!    previous pass (wherever it executed) left them.
//!
//! Every pass streams the whole 256 KiB array in and out of the cluster, so
//! the kernel is moderately memory-bound and — like the linear kernels —
//! exposes the IOMMU translation cost when the page-table walks miss the LLC.
//!
//! **Operation order.** Every comparison — the reference, the local-sort
//! tiles, the merge-path partitions and the merges — orders values by
//! [`f32::total_cmp`], through its order-preserving `u32` image (`key`).
//! Equal keys have equal bits, and sorting moves values without arithmetic,
//! so device results are bit-identical to the reference on every input,
//! NaNs and signed zeros included.

use sva_cluster::{DeviceKernel, DmaRequest, Tcdm, TileCtx, TileIo};
use sva_common::rng::DeterministicRng;
use sva_common::{Cycles, Iova, Result};
use sva_host::HostKernelCost;

use crate::cost;
use crate::workload::{BufferKind, BufferSpec, Workload};

/// Elements per TCDM chunk (16 KiB).
const CHUNK: usize = 4096;

/// The sort workload descriptor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SortWorkload {
    /// Number of elements to sort (a power-of-two multiple of the chunk).
    pub n: usize,
}

impl SortWorkload {
    /// The paper's configuration: 65 536 elements.
    pub fn paper() -> Self {
        Self::with_elems(65_536)
    }

    /// A sort of `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power-of-two multiple of the 4096-element
    /// chunk, or if it splits into exactly two chunks: with two chunks the
    /// single merge tile's inputs depend on the immediately preceding
    /// tile's output, which the double-buffered executor prefetches before
    /// that output exists. Any other chunk count keeps a full chunk of
    /// slack between a pass's first reads and the previous pass's last
    /// write (one chunk needs no merge at all).
    pub fn with_elems(n: usize) -> Self {
        assert!(
            n >= CHUNK && n % CHUNK == 0 && (n / CHUNK).is_power_of_two(),
            "sort size must be a power-of-two multiple of 4096"
        );
        assert!(
            n / CHUNK != 2,
            "a two-chunk sort cannot be double-buffered (the merge prefetch \
             would read the preceding tile's unwritten output); use one \
             chunk or at least four"
        );
        Self { n }
    }

    fn chunks(&self) -> usize {
        self.n / CHUNK
    }

    fn passes(&self) -> usize {
        self.chunks().trailing_zeros() as usize
    }
}

impl Workload for SortWorkload {
    fn name(&self) -> &'static str {
        "sort"
    }

    fn params(&self) -> String {
        format!("{}", self.n)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                name: "data",
                elems: self.n,
                kind: BufferKind::InOut,
            },
            BufferSpec {
                name: "aux",
                elems: self.n,
                kind: BufferKind::Scratch,
            },
        ]
    }

    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        let mut data = vec![0.0f32; self.n];
        rng.fill_f32(&mut data, 0.0, 1.0e6);
        vec![data, vec![0.0f32; self.n]]
    }

    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut sorted = initial[0].clone();
        sort_total(&mut sorted);
        vec![sorted, initial[1].clone()]
    }

    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        Box::new(SortDevice::new(self.n, device_ptrs[0], device_ptrs[1]))
    }

    fn host_cost(&self) -> HostKernelCost {
        let n = self.n as u64;
        let log_n = (self.n as f64).log2().ceil() as u64;
        HostKernelCost {
            ops: n * log_n,
            cycles_per_op: 9.0,
            read_passes: (self.passes() + 1) as u32,
            write_passes: (self.passes() + 1) as u32,
        }
    }

    fn flops(&self) -> u64 {
        // Comparison-based: report the comparison count as the "operation"
        // count used for intensity reporting.
        self.n as u64 * (self.n as f64).log2().ceil() as u64
    }
}

/// The order-preserving unsigned image of `x` under [`f32::total_cmp`]:
/// negative values flip every bit, the others only the sign bit, so the
/// keys compare as unsigned integers in `total_cmp` order. Equal keys have
/// equal bits.
fn key(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The value whose [`key`] is `key`.
fn value(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 {
        key & !(1 << 31)
    } else {
        !key
    })
}

/// Sorts `keys` ascending with a least-significant-digit radix sort (four
/// 8-bit digits) that ping-pongs between `keys` and the equally long
/// `spare`; returns the one holding the result.
fn radix_sort<'a>(mut keys: &'a mut [u32], mut spare: &'a mut [u32]) -> &'a [u32] {
    let mut counts = [[0usize; 256]; 4];
    for &k in keys.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(k >> (8 * digit)) as usize & 0xff] += 1;
        }
    }
    for (digit, count) in counts.iter_mut().enumerate() {
        // A digit every key shares leaves the order unchanged.
        if count.contains(&keys.len()) {
            continue;
        }
        let mut start = 0;
        for c in count.iter_mut() {
            let len = *c;
            *c = start;
            start += len;
        }
        for &k in keys.iter() {
            let slot = &mut count[(k >> (8 * digit)) as usize & 0xff];
            spare[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut spare);
    }
    keys
}

/// Sorts `v` ascending under [`f32::total_cmp`] by radix-sorting its keys.
/// Values with equal keys have identical bits, so the result is exactly
/// that of `v.sort_by(f32::total_cmp)`.
fn sort_total(v: &mut [f32]) {
    let mut keys: Vec<u32> = v.iter().map(|&x| key(x)).collect();
    let mut spare = vec![0u32; keys.len()];
    for (x, &k) in v.iter_mut().zip(radix_sort(&mut keys, &mut spare)) {
        *x = value(k);
    }
}

/// Merges the ascending runs `a` and `b` into `out`, which holds exactly
/// both. Equal keys are equal values, so ties need no rule: each step
/// stores the integer `min` and advances one cursor by the comparison's
/// 0 or 1, which compiles to conditional moves rather than a branch on the
/// data.
fn merge_keys(a: &[u32], b: &[u32], out: &mut [u32]) {
    assert_eq!(a.len() + b.len(), out.len(), "merge output holds both runs");
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[i + j] = x.min(y);
        let take_a = usize::from(x <= y);
        i += take_a;
        j += 1 - take_a;
    }
    let (a_rest, b_rest) = out[i + j..].split_at_mut(a.len() - i);
    a_rest.copy_from_slice(&a[i..]);
    b_rest.copy_from_slice(&b[j..]);
}

/// Reads `keys.len()` values from the TCDM at `offset` as keys.
fn read_keys(tcdm: &Tcdm, offset: u64, keys: &mut [u32]) -> Result<()> {
    let src = tcdm.bytes(offset, (keys.len() * 4) as u64)?;
    for (k, c) in keys.iter_mut().zip(src.chunks_exact(4)) {
        *k = key(f32::from_le_bytes(c.try_into().expect("4-byte chunk")));
    }
    Ok(())
}

/// Writes the values of `keys` to the TCDM at `offset`.
fn write_values(tcdm: &mut Tcdm, offset: u64, keys: &[u32]) -> Result<()> {
    let dst = tcdm.bytes_mut(offset, (keys.len() * 4) as u64)?;
    for (c, &k) in dst.chunks_exact_mut(4).zip(keys) {
        c.copy_from_slice(&value(k).to_le_bytes());
    }
    Ok(())
}

/// Device-side two-phase parallel sort.
struct SortDevice {
    n: usize,
    data: Iova,
    aux: Iova,
    /// Merge-path partitions indexed by merge tile (`tile - chunks`),
    /// computed by the plan pre-pass ([`DeviceKernel::plan_tile`]) from the
    /// shared functional memory and consumed by
    /// [`DeviceKernel::tile_io`]/[`DeviceKernel::compute_tile`]:
    /// `(a_start, a_len, b_start, b_len)` in elements of the source array.
    ranges: Vec<Option<(usize, usize, usize, usize)>>,
    /// Keys of a tile's input runs, and of its sorted or merged block,
    /// reused across tiles; the local sort's radix passes ping-pong between
    /// the two.
    keys: Vec<u32>,
    merged: Vec<u32>,
}

impl SortDevice {
    fn new(n: usize, data: Iova, aux: Iova) -> Self {
        let chunks = n / CHUNK;
        Self {
            n,
            data,
            aux,
            ranges: vec![None; chunks * chunks.trailing_zeros() as usize],
            keys: vec![0; CHUNK],
            merged: vec![0; CHUNK],
        }
    }

    fn chunks(&self) -> usize {
        self.n / CHUNK
    }

    fn passes(&self) -> usize {
        self.chunks().trailing_zeros() as usize
    }

    /// Decodes a tile index into (phase, block): phase 0 is the local sort,
    /// phases 1..=passes are merge passes.
    fn decode(&self, tile: usize) -> (usize, usize) {
        (tile / self.chunks(), tile % self.chunks())
    }

    /// The array the output of pass `p` lands in (`p = 0` is the local
    /// sort). The ping-pong is oriented so the **final** pass always lands
    /// in `data`, where verification expects the result: with an even
    /// number of merge passes the local sort is in place in `data` (the
    /// historical layout), with an odd number it writes its sorted chunks
    /// to `aux` so the chain `aux → data → aux → …` ends on `data`.
    fn pass_dst(&self, pass: usize) -> Iova {
        if (self.passes() - pass) % 2 == 0 {
            self.data
        } else {
            self.aux
        }
    }

    /// Source/destination external arrays for a merge pass.
    fn pass_arrays(&self, pass: usize) -> (Iova, Iova) {
        (self.pass_dst(pass - 1), self.pass_dst(pass))
    }

    /// Merge-path partition over arbitrary key accessors: how many
    /// elements of run A are among the first `k` elements of the merge of
    /// runs A and B.
    fn merge_partition_with<A, B>(
        a: &A,
        a_len: usize,
        b: &B,
        b_len: usize,
        k: usize,
    ) -> Result<usize>
    where
        A: Fn(usize) -> Result<u32>,
        B: Fn(usize) -> Result<u32>,
    {
        let mut lo = k.saturating_sub(b_len);
        let mut hi = k.min(a_len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let bj = k - mid - 1;
            if bj < b_len && a(mid)? < b(bj)? {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Merge-path partition over in-memory runs (kept for unit tests and as
    /// the reference the functional-memory variant mirrors).
    #[cfg(test)]
    fn merge_partition(a: &[f32], b: &[f32], k: usize) -> usize {
        let (a_key, b_key) = (|i: usize| Ok(key(a[i])), |j: usize| Ok(key(b[j])));
        Self::merge_partition_with(&a_key, a.len(), &b_key, b.len(), k)
            .expect("slice accessors cannot fail")
    }

    /// Computes, for merge tile `(pass, block)`, the source ranges
    /// `(a_start, a_len, b_start, b_len)` with the merge-path binary search
    /// reading the run data from the shared external memory — the model of
    /// the pre-pass the DMA core runs on DRAM-resident data. O(log run_len)
    /// single-element reads per boundary.
    fn merge_ranges_from_memory(
        &self,
        ctx: &TileCtx<'_>,
        pass: usize,
        block: usize,
    ) -> Result<(usize, usize, usize, usize)> {
        let run_len = CHUNK << (pass - 1);
        let (src, _) = self.pass_arrays(pass);
        let out_start = block * CHUNK;
        let pair_base = out_start / (2 * run_len) * (2 * run_len);
        let elem = |idx: usize| ctx.read_f32(src + (idx * 4) as u64).map(key);
        let a = |i: usize| elem(pair_base + i);
        let b = |j: usize| elem(pair_base + run_len + j);
        let off = out_start - pair_base;
        let ai0 = Self::merge_partition_with(&a, run_len, &b, run_len, off)?;
        let ai1 = Self::merge_partition_with(&a, run_len, &b, run_len, off + CHUNK)?;
        let bi0 = off - ai0;
        let bi1 = off + CHUNK - ai1;
        Ok((
            pair_base + ai0,
            ai1 - ai0,
            pair_base + run_len + bi0,
            bi1 - bi0,
        ))
    }

    /// The cached partition of a merge tile; planning the tile is the
    /// executor's responsibility ([`DeviceKernel::plan_tile`] runs before
    /// the `tile_io` of every tile).
    fn planned_ranges(&self, tile: usize) -> (usize, usize, usize, usize) {
        self.ranges[tile - self.chunks()].expect("merge tile was planned via plan_tile before use")
    }

    /// TCDM layout of one buffer set: run-A segment, run-B segment, output.
    fn tcdm_offsets(&self, tile: usize) -> (u64, u64, u64) {
        let chunk_bytes = (CHUNK * 4) as u64;
        let base = (tile % 2) as u64 * 3 * chunk_bytes;
        (base, base + chunk_bytes, base + 2 * chunk_bytes)
    }
}

impl DeviceKernel for SortDevice {
    fn name(&self) -> &str {
        "sort"
    }

    fn num_tiles(&self) -> usize {
        (1 + self.passes()) * self.chunks()
    }

    fn plan_tile(&mut self, tile: usize, ctx: &TileCtx<'_>) -> Result<()> {
        let (phase, block) = self.decode(tile);
        if phase == 0 {
            return Ok(());
        }
        let merge_tile = tile - self.chunks();
        if self.ranges[merge_tile].is_none() {
            self.ranges[merge_tile] = Some(self.merge_ranges_from_memory(ctx, phase, block)?);
        }
        Ok(())
    }

    fn tile_io(&self, tile: usize) -> TileIo {
        let (phase, block) = self.decode(tile);
        let chunk_bytes = (CHUNK * 4) as u64;
        let (a_off, b_off, out_off) = self.tcdm_offsets(tile);
        if phase == 0 {
            // Local sort: one chunk in from `data`, the sorted chunk out to
            // the pass-0 destination (in place for an even number of merge
            // passes, `aux` for an odd number — see `pass_dst`).
            let off = (block * CHUNK * 4) as u64;
            return TileIo {
                inputs: vec![DmaRequest::input(self.data + off, a_off, chunk_bytes)],
                outputs: vec![DmaRequest::output(
                    self.pass_dst(0) + off,
                    out_off,
                    chunk_bytes,
                )],
            };
        }
        let (src, dst) = self.pass_arrays(phase);
        let (a_start, a_len, b_start, b_len) = self.planned_ranges(tile);
        let mut inputs = Vec::with_capacity(2);
        if a_len > 0 {
            inputs.push(DmaRequest::input(
                src + (a_start * 4) as u64,
                a_off,
                (a_len * 4) as u64,
            ));
        }
        if b_len > 0 {
            inputs.push(DmaRequest::input(
                src + (b_start * 4) as u64,
                b_off,
                (b_len * 4) as u64,
            ));
        }
        TileIo {
            inputs,
            outputs: vec![DmaRequest::output(
                dst + (block * CHUNK * 4) as u64,
                out_off,
                chunk_bytes,
            )],
        }
    }

    fn compute_tile(&mut self, tile: usize, tcdm: &mut Tcdm) -> Result<Cycles> {
        let (phase, _block) = self.decode(tile);
        let (a_off, b_off, out_off) = self.tcdm_offsets(tile);

        if phase == 0 {
            // Local sort of one chunk.
            read_keys(tcdm, a_off, &mut self.keys)?;
            let sorted = radix_sort(&mut self.keys, &mut self.merged);
            write_values(tcdm, out_off, sorted)?;
            let comparisons = (CHUNK as u64) * (CHUNK as f64).log2().ceil() as u64;
            return Ok(cost::sort_local_cost().parallel_region(comparisons));
        }

        // Merge one output block from the two partitioned input segments.
        let (_, a_len, _, _) = self.planned_ranges(tile);
        let (a, b) = self.keys.split_at_mut(a_len);
        read_keys(tcdm, a_off, a)?;
        read_keys(tcdm, b_off, b)?;
        merge_keys(a, b, &mut self.merged);
        write_values(tcdm, out_off, &self.merged)?;

        Ok(cost::sort_merge_cost().parallel_region(CHUNK as u64))
    }
}

#[cfg(test)]
mod tests {
    use sva_axi::addrmap::{DRAM_BASE, LLC_BYPASS_OFFSET};
    use sva_cluster::ClusterExecutor;
    use sva_common::PhysAddr;
    use sva_mem::MemorySystem;

    use super::*;

    /// Signed zeros, infinities, NaNs of both signs and payloads,
    /// subnormals and the extremes.
    fn special_values() -> [f32; 14] {
        [
            0.0,
            -0.0,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0001),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::MAX,
            f32::MIN,
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn reference_sorts_ascending() {
        let wl = SortWorkload::with_elems(4096);
        let mut rng = DeterministicRng::new(1);
        let init = wl.init(&mut rng);
        let exp = wl.expected(&init);
        assert!(exp[0].windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(exp[0].len(), 4096);
    }

    #[test]
    fn sort_total_matches_the_comparison_sort_bit_for_bit() {
        let mut rng = DeterministicRng::new(11);
        let mut values = vec![0.0f32; 3000];
        rng.fill_f32(&mut values, -1.0e6, 1.0e6);
        // Duplicates and special values.
        values.extend_from_within(..200);
        values.extend_from_slice(&special_values());
        for len in [0, 1, 2, 17, values.len()] {
            let mut radix = values[..len].to_vec();
            let mut comparison = radix.clone();
            sort_total(&mut radix);
            comparison.sort_by(f32::total_cmp);
            assert_eq!(bits(&radix), bits(&comparison), "len {len}");
        }
    }

    /// The merge the key merge replaced: a branchy stable merge.
    fn stable_merge(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    #[test]
    fn key_merge_equals_a_stable_merge() {
        let mut rng = DeterministicRng::new(3);
        // Sorted runs over few distinct keys, the extremes among them, so
        // both runs hold long stretches of duplicates.
        let mut run = |len: usize| {
            let mut keys: Vec<u32> = (0..len)
                .map(|_| match rng.next_below(8) {
                    0 => 0,
                    1 => u32::MAX,
                    _ => (rng.next_below(64) as u32) << 26,
                })
                .collect();
            keys.sort_unstable();
            keys
        };
        let lengths = [
            (0, 0),
            (0, CHUNK),
            (CHUNK, 0),
            (1, CHUNK - 1),
            (CHUNK - 1, 1),
            (7, 3000),
            (2048, 2048),
            (3000, 1096),
        ];
        for (a_len, b_len) in lengths {
            let (a, b) = (run(a_len), run(b_len));
            let mut out = vec![0; a_len + b_len];
            merge_keys(&a, &b, &mut out);
            assert_eq!(out, stable_merge(&a, &b), "runs of {a_len} and {b_len}");
        }
    }

    #[test]
    fn key_partitions_split_every_merge_tile_of_a_special_valued_sort() {
        let n = 65_536;
        let mut values = vec![0.0f32; n];
        DeterministicRng::new(5).fill_f32(&mut values, -1.0e6, 1.0e6);
        let specials = special_values();
        for (i, x) in values.iter_mut().step_by(37).enumerate() {
            *x = specials[i % specials.len()];
        }
        let mut mem = MemorySystem::default();
        let (data, aux) = (DRAM_BASE + 0x100_0000, DRAM_BASE + 0x200_0000);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.write_phys(PhysAddr::new(data), &bytes)
            .expect("data lies in DRAM");
        let bus = |addr: u64| Iova::new(addr + LLC_BYPASS_OFFSET);
        let mut dev = SortDevice::new(n, bus(data), bus(aux));
        ClusterExecutor::default()
            .run(&mut mem, None, &mut dev, None)
            .expect("device sort completes");

        for (merge_tile, ranges) in dev.ranges.iter().enumerate() {
            let (pass, block) = (1 + merge_tile / dev.chunks(), merge_tile % dev.chunks());
            let (a_start, a_len, b_start, b_len) = ranges.expect("every merge tile is planned");
            let run_len = CHUNK << (pass - 1);
            let a_run = block * CHUNK / (2 * run_len) * (2 * run_len);
            let b_run = a_run + run_len;
            assert_eq!(a_len + b_len, CHUNK, "pass {pass} block {block}");
            assert!(
                a_run <= a_start && a_start + a_len <= b_run,
                "pass {pass} block {block}: A range outside its run"
            );
            assert!(
                b_run <= b_start && b_start + b_len <= b_run + run_len,
                "pass {pass} block {block}: B range outside its run"
            );
        }
        let mut bytes = vec![0u8; n * 4];
        mem.read_phys(PhysAddr::new(data), &mut bytes)
            .expect("data lies in DRAM");
        let sorted: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        sort_total(&mut values);
        assert_eq!(bits(&sorted), bits(&values));
    }

    #[test]
    fn paper_configuration_has_five_phases() {
        let wl = SortWorkload::paper();
        assert_eq!(wl.chunks(), 16);
        assert_eq!(wl.passes(), 4);
        let dev = wl.device_kernel(&[Iova::new(0x1000_0000), Iova::new(0x2000_0000)]);
        assert_eq!(dev.num_tiles(), 80);
    }

    #[test]
    fn merge_partition_splits_correctly() {
        let a = [1.0f32, 3.0, 5.0, 7.0];
        let b = [2.0f32, 4.0, 6.0, 8.0];
        // First 4 elements of the merge are 1,2,3,4: two from each run.
        assert_eq!(SortDevice::merge_partition(&a, &b, 4), 2);
        assert_eq!(SortDevice::merge_partition(&a, &b, 0), 0);
        assert_eq!(SortDevice::merge_partition(&a, &b, 8), 4);
        // Skewed case: all of a precedes b.
        let a2 = [1.0f32, 2.0];
        let b2 = [10.0f32, 20.0];
        assert_eq!(SortDevice::merge_partition(&a2, &b2, 2), 2);
        assert_eq!(SortDevice::merge_partition(&b2, &a2, 2), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_chunk_count_rejected() {
        let _ = SortWorkload::with_elems(3 * 4096);
    }

    #[test]
    #[should_panic(expected = "two-chunk")]
    fn two_chunk_sort_rejected() {
        // chunks == 2 cannot be double-buffered: the single merge tile's
        // prefetch would read the preceding tile's unwritten output.
        let _ = SortWorkload::with_elems(2 * 4096);
    }

    #[test]
    fn ping_pong_always_ends_in_the_data_array() {
        // Whatever the pass-count parity, the final pass must land in
        // `data` (where verification reads the result) and each pass must
        // read what the previous one wrote.
        let data = Iova::new(0x1000_0000);
        let aux = Iova::new(0x2000_0000);
        for n in [4096usize, 16_384, 32_768, 65_536, 131_072] {
            let wl = SortWorkload::with_elems(n);
            let dev = SortDevice::new(n, data, aux);
            assert_eq!(dev.pass_dst(dev.passes()), data, "n={n}: result in data");
            for pass in 1..=dev.passes() {
                let (src, dst) = dev.pass_arrays(pass);
                assert_eq!(src, dev.pass_dst(pass - 1), "n={n} pass {pass}");
                assert_ne!(src, dst, "n={n} pass {pass}: ping-pong alternates");
            }
            // Phase-0 tiles read from data and write to the pass-0
            // destination: in place iff the number of passes is even.
            let io = dev.tile_io(0);
            assert_eq!(io.inputs[0].ext_addr, data);
            let in_place = wl.passes() % 2 == 0;
            assert_eq!(
                io.outputs[0].ext_addr == data,
                in_place,
                "n={n}: phase-0 destination follows pass parity"
            );
        }
    }

    #[test]
    fn local_sort_tiles_are_in_place() {
        let wl = SortWorkload::paper();
        let dev = wl.device_kernel(&[Iova::new(0x1000_0000), Iova::new(0x2000_0000)]);
        let io = dev.tile_io(3);
        assert_eq!(io.inputs.len(), 1);
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.inputs[0].ext_addr, io.outputs[0].ext_addr);
        assert_eq!(io.input_bytes(), 16 * 1024);
    }
}
