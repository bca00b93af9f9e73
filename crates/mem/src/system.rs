//! The composed memory system: crossbar + LLC + L2 SPM + DRAM behind the
//! unified initiator-facing fabric port of the platform.
//!
//! Every initiator reaches memory through the single [`MemorySystem::access`]
//! entry point, presenting a [`MemReq`] that names the initiator
//! ([`InitiatorId`]) and carries the payload buffer, or no payload at all
//! for a timing-only access ([`MemReq::timing`]). The fabric routes the
//! access by the initiator's *class*:
//!
//! * **host** (CVA6 through its L1): cached DRAM goes through the LLC,
//!   the reserved contiguous DMA area and the L2 SPM are uncached;
//! * **PTW** (the IOMMU page-table walker): reads that always go through
//!   the LLC when it is present (this is the architectural property the
//!   paper leverages to make SVA cheap);
//! * **DMA** (one initiator per accelerator cluster): bursts that normally
//!   use the LLC-bypass window straight to DRAM; routing them through the
//!   LLC is possible for ablation ([`LlcConfig::serves_dma`]).
//!
//! Arbitration and per-initiator accounting live in [`crate::fabric`].
//!
//! Every access arrives at a definite point on the platform's global
//! simulation clock ([`sva_common::GlobalClock`], shared in via
//! [`MemorySystem::attach_clock`]): callers that track their own pipeline
//! stamp an explicit issue time, everything else is stamped with the
//! clock's current reading, and the clock advances to each access's
//! completion — there is no untimed traffic.
//!
//! Data-moving accesses also move functional data, so kernels computing on
//! the simulated memory can be verified bit-exactly against host
//! references. Timing-only accesses are timed and counted exactly like a
//! data-moving access of the same length but copy nothing: the host core's
//! loads and stores and the host-traffic stream use them, because the bytes
//! they would move are never read.

use std::rc::Rc;

use sva_axi::addrmap::{AddressMap, RegionKind, DRAM_SIZE, L2_SPM_SIZE};
use sva_axi::txn::beats_for;
use sva_axi::xbar;
use sva_common::{
    AccessKind, Cycles, Error, GlobalClock, InitiatorClass, InitiatorId, MemPortReq, PhysAddr,
    PortTiming, Result, CACHE_LINE_SIZE,
};

use crate::backing::{FramePool, SparseMemory};
use crate::channels::ChannelStats;
use crate::dram::{Dram, DramTiming};
use crate::fabric::{Fabric, FabricConfig, InitiatorSnapshot};
use crate::interference::{Interference, InterferenceConfig};
use crate::llc::{self, Llc, LlcConfig, LlcRequester};
use crate::spm;

/// Extra fixed cost of an uncached posted write as seen by the host
/// (store-buffer drain amortisation).
const POSTED_WRITE_COST: Cycles = Cycles::new(16);

/// Configuration of the whole memory system.
#[derive(Clone, Debug, PartialEq)]
pub struct MemSysConfig {
    /// Extra DRAM latency inserted by the AXI delayer (the paper's knob),
    /// on top of the fixed [`crate::dram::CONTROLLER_LATENCY`].
    pub dram_latency: Cycles,
    /// The last-level cache, `None` on a platform without one. An LLC
    /// always serves host and page-table-walk traffic (the paper's
    /// proposal); [`LlcConfig::serves_dma`] routes device DMA through it
    /// too.
    pub llc: Option<LlcConfig>,
    /// Fabric arbitration layer (per-initiator accounting, optional
    /// contention charging).
    pub fabric: FabricConfig,
}

impl Default for MemSysConfig {
    fn default() -> Self {
        Self {
            dram_latency: Cycles::new(200),
            llc: Some(LlcConfig::default()),
            fabric: FabricConfig::default(),
        }
    }
}

/// Payload of a fabric access: the buffer data moves through, if any.
///
/// A buffer's length is authoritative for the access length.
#[derive(Debug)]
pub enum MemData<'a> {
    /// Read `buf.len()` bytes from memory into the buffer.
    ReadInto(&'a mut [u8]),
    /// Write the buffer's bytes to memory.
    WriteFrom(&'a [u8]),
    /// Move nothing: an access of the port's `len` bytes in the port's
    /// direction, timed and counted like a data-moving one.
    Timing,
}

/// One access presented at the unified fabric port of [`MemorySystem`].
#[derive(Debug)]
pub struct MemReq<'a> {
    /// The access descriptor (initiator, direction, address, burstiness,
    /// priority). Its `len` is overwritten from the payload buffer, if there
    /// is one, and its `arrival` from [`MemReq::start`] (or the global
    /// clock).
    pub port: MemPortReq,
    /// Initiator-local issue time, when the caller tracks one (DMA bursts,
    /// page-table walks, the host-traffic stream). `None` does **not** mean
    /// "untimed" — the memory system stamps the access with the current
    /// global-clock reading, so every grant arrives at a definite point on
    /// the shared virtual timeline.
    pub start: Option<Cycles>,
    /// The payload buffer.
    pub data: MemData<'a>,
}

impl<'a> MemReq<'a> {
    /// A read of `buf.len()` bytes at `addr` on behalf of `initiator`.
    pub fn read(initiator: InitiatorId, addr: PhysAddr, buf: &'a mut [u8]) -> Self {
        Self {
            port: MemPortReq::read(initiator, addr, buf.len() as u64),
            start: None,
            data: MemData::ReadInto(buf),
        }
    }

    /// A write of `buf` at `addr` on behalf of `initiator`.
    pub fn write(initiator: InitiatorId, addr: PhysAddr, buf: &'a [u8]) -> Self {
        Self {
            port: MemPortReq::write(initiator, addr, buf.len() as u64),
            start: None,
            data: MemData::WriteFrom(buf),
        }
    }

    /// A timing-only `kind` access of `len` bytes at `addr` on behalf of
    /// `initiator`: decoded (with the same decode errors), routed, timed,
    /// admitted and counted exactly like a read or write of `len` bytes, but
    /// no byte moves.
    pub fn timing(initiator: InitiatorId, kind: AccessKind, addr: PhysAddr, len: u64) -> Self {
        Self {
            port: MemPortReq {
                dir: kind,
                ..MemPortReq::read(initiator, addr, len)
            },
            start: None,
            data: MemData::Timing,
        }
    }

    /// Marks the access as a streaming burst (separate latency/occupancy).
    #[must_use]
    pub fn burst(mut self) -> Self {
        self.port = self.port.as_burst();
        self
    }

    /// Attaches the initiator-local issue time of the access.
    #[must_use]
    pub fn at(mut self, start: Cycles) -> Self {
        self.start = Some(start);
        self
    }

    /// Sets the arbitration priority.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.port = self.port.with_priority(priority);
        self
    }
}

/// Response of a fabric access.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemRsp {
    /// Latency to first data and data-bus occupancy of the access. When
    /// [`FabricConfig::contention_enabled`] is set, the latency includes the
    /// queueing delay and any issue stall.
    pub timing: PortTiming,
    /// Cross-initiator queueing delay the access observed on the shared-bus
    /// timeline at its admission time (bus contention plus waiting for a
    /// response-queue slot).
    pub queue_delay: Cycles,
    /// Stall between the access's arrival and its request-queue admission —
    /// the channel's request FIFO was full, so the *issue* of the access
    /// was held at the fabric port. Initiators that pipeline their own
    /// issue (the DMA engines) must propagate this upstream: the next
    /// request cannot issue while this one waits for a credit. Always zero
    /// with the default unbounded queue depths.
    pub issue_stall: Cycles,
}

impl MemRsp {
    /// Latency to first data.
    pub const fn latency(&self) -> Cycles {
        self.timing.latency
    }

    /// Total blocking time (latency + occupancy).
    pub fn total(&self) -> Cycles {
        self.timing.total()
    }
}

/// Aggregate statistics of the memory system.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSysStats {
    /// Timed host accesses served.
    pub host_accesses: u64,
    /// Timed PTW accesses served.
    pub ptw_accesses: u64,
    /// Timed DMA bursts served.
    pub dma_bursts: u64,
    /// Bytes moved by DMA bursts.
    pub dma_bytes: u64,
    /// Whole-LLC flushes performed.
    pub llc_flushes: u64,
}

/// The composed memory system of the prototype platform.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: MemSysConfig,
    map: AddressMap,
    dram: Dram,
    dram_store: SparseMemory,
    /// The L2 scratchpad's contents.
    spm: SparseMemory,
    llc: Option<Llc>,
    interference: Option<Interference>,
    fabric: Fabric,
    stats: MemSysStats,
    /// The global simulation clock: stamps accesses whose caller does not
    /// track an issue time, and is advanced to the completion of every
    /// grant. The platform shares one clock across all its components via
    /// [`MemorySystem::attach_clock`].
    clock: GlobalClock,
}

impl MemorySystem {
    /// Builds a memory system from a configuration, using the prototype
    /// address map.
    pub fn new(config: MemSysConfig) -> Self {
        Self {
            map: AddressMap::prototype(),
            dram: Dram::new(config.dram_latency),
            dram_store: SparseMemory::new(DRAM_SIZE),
            spm: SparseMemory::new(L2_SPM_SIZE),
            llc: config.llc.map(Llc::new),
            interference: None,
            fabric: Fabric::new(config.fabric.clone()),
            stats: MemSysStats::default(),
            clock: GlobalClock::new(),
            config,
        }
    }

    /// Shares the platform's global clock with this memory system (replacing
    /// the private clock created by [`MemorySystem::new`]).
    pub fn attach_clock(&mut self, clock: &GlobalClock) {
        self.clock = clock.clone();
    }

    /// The global clock this memory system stamps accesses with.
    pub const fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Takes the DRAM store's new frames from `pool` and hands them back to
    /// it when the memory system is dropped (see [`crate::backing`]). The
    /// scratchpad store keeps its private pool. Contents do not change, and
    /// new frames read as zero from either pool, so nothing simulated moves.
    pub fn attach_frame_pool(&mut self, pool: &Rc<FramePool>) {
        self.dram_store.attach_pool(pool);
    }

    /// The DRAM contents: resident frames and the pool they come from.
    pub const fn dram_store(&self) -> &SparseMemory {
        &self.dram_store
    }

    /// Opens a new measurement window: drops every fabric channel's
    /// reservations (statistics survive) and restarts the global clock, so
    /// initiator-local cursors restarting at zero do not collide with
    /// reservations stamped in the previous window.
    pub fn open_measurement_window(&mut self) {
        self.fabric.clear_timelines();
        self.clock.restart();
    }

    /// Folds fabric reservations (and channel-queue entries) that finish at
    /// or before `watermark` out of the placement index, keeping long
    /// steady-state windows O(live reservations).
    ///
    /// # Contract
    ///
    /// The caller guarantees no future access arrives before the watermark
    /// (see [`Fabric::compact_before`]). On the platform that holds when a
    /// device measurement window closes: every later access is stamped
    /// from the monotone global clock. It does **not** hold mid-window
    /// while cluster shards with restarting local cursors are still being
    /// simulated.
    pub fn compact_fabric_before(&mut self, watermark: Cycles) {
        self.fabric.compact_before(watermark);
    }

    /// The configuration this system was built with.
    pub const fn config(&self) -> &MemSysConfig {
        &self.config
    }

    /// The SoC address map.
    pub const fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The LLC, if instantiated.
    pub fn llc(&self) -> Option<&Llc> {
        self.llc.as_ref()
    }

    /// Aggregate access statistics.
    pub const fn stats(&self) -> &MemSysStats {
        &self.stats
    }

    /// The fabric arbitration layer (per-initiator statistics).
    pub const fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Per-initiator fabric statistics, in registration order.
    pub fn fabric_stats(&self) -> Vec<InitiatorSnapshot> {
        self.fabric.snapshot()
    }

    /// Per-channel DRAM statistics, indexed by channel.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.fabric.channel_stats()
    }

    /// Installs (or removes) the synthetic host-interference stream.
    pub fn set_interference(&mut self, config: Option<InterferenceConfig>) {
        self.interference = config.map(Interference::new);
    }

    /// The interference model, if installed.
    pub fn interference(&self) -> Option<&Interference> {
        self.interference.as_ref()
    }

    /// Resets all statistics (contents and cache state are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = MemSysStats::default();
        self.fabric.reset();
        if let Some(llc) = &mut self.llc {
            llc.reset_stats();
        }
    }

    // ------------------------------------------------------------------
    // Functional (untimed) access
    // ------------------------------------------------------------------

    fn backing_for(&self, addr: PhysAddr, len: u64) -> Result<(RegionKind, u64)> {
        let d = self.map.decode(addr)?;
        match d.kind {
            RegionKind::DramCached | RegionKind::DramBypass | RegionKind::L2Spm => {
                // Whole access must fit in the region; decode the end too.
                if len > 1 {
                    self.map.decode(addr + (len - 1))?;
                }
                Ok((d.kind, d.offset))
            }
            RegionKind::Cluster | RegionKind::IommuRegs => Err(Error::BusDecodeError { addr }),
        }
    }

    /// Functional read from an already-decoded backing region.
    fn read_backing(&self, kind: RegionKind, offset: u64, buf: &mut [u8]) -> Result<()> {
        match kind {
            RegionKind::L2Spm => self.spm.read(offset, buf),
            _ => self.dram_store.read(offset, buf),
        }
    }

    /// Functional write to an already-decoded backing region.
    fn write_backing(&mut self, kind: RegionKind, offset: u64, buf: &[u8]) -> Result<()> {
        match kind {
            RegionKind::L2Spm => self.spm.write(offset, buf),
            _ => self.dram_store.write(offset, buf),
        }
    }

    /// Functional read of `buf.len()` bytes at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BusDecodeError`] if the address does not decode to a
    /// memory-backed region.
    pub fn read_phys(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        let (kind, offset) = self.backing_for(addr, buf.len() as u64)?;
        self.read_backing(kind, offset, buf)
    }

    /// Functional write of `buf` at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BusDecodeError`] if the address does not decode to a
    /// memory-backed region.
    pub fn write_phys(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<()> {
        let (kind, offset) = self.backing_for(addr, buf.len() as u64)?;
        self.write_backing(kind, offset, buf)
    }

    /// Functional read of a little-endian `u64` (page-table entries), on the
    /// backing store's typed single-frame fast path.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`MemorySystem::read_phys`].
    pub fn read_u64_phys(&self, addr: PhysAddr) -> Result<u64> {
        let (kind, offset) = self.backing_for(addr, 8)?;
        match kind {
            RegionKind::L2Spm => self.spm.read_u64(offset),
            _ => self.dram_store.read_u64(offset),
        }
    }

    /// Functional write of a little-endian `u64` (the driver's page-table
    /// stores), on the backing store's typed single-frame fast path.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`MemorySystem::write_phys`].
    pub fn write_u64_phys(&mut self, addr: PhysAddr, value: u64) -> Result<()> {
        let (kind, offset) = self.backing_for(addr, 8)?;
        match kind {
            RegionKind::L2Spm => self.spm.write_u64(offset, value),
            _ => self.dram_store.write_u64(offset, value),
        }
        .map(|_| ())
    }

    /// Functional read of a little-endian `f32` (kernel pre-pass element
    /// reads), on the backing store's typed single-frame fast path.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from [`MemorySystem::read_phys`].
    pub fn read_f32_phys(&self, addr: PhysAddr) -> Result<f32> {
        let (kind, offset) = self.backing_for(addr, 4)?;
        match kind {
            RegionKind::L2Spm => self.spm.read_f32(offset),
            _ => self.dram_store.read_f32(offset),
        }
    }

    // ------------------------------------------------------------------
    // Timed access paths
    // ------------------------------------------------------------------

    /// Applies interference pressure around one device-side (PTW or DMA)
    /// access and returns the queueing delay to add.
    fn interference_penalty(&mut self, service: Cycles) -> Cycles {
        let Some(intf) = &mut self.interference else {
            return Cycles::ZERO;
        };
        let delay = intf.queue_delay(service);
        // Host traffic evicts lines from the shared LLC.
        let hot_base = PhysAddr::new(sva_axi::addrmap::DRAM_BASE);
        let hot_len = 32 * 1024 * 1024;
        let addrs = intf.pollution_addresses(hot_base, hot_len);
        if let Some(llc) = &mut self.llc {
            for a in addrs {
                llc.access(LlcRequester::Host, a, true);
            }
        }
        delay
    }

    /// Timed access through a cache-line-granular LLC path. Returns the total
    /// latency of touching every line covered by `[addr, addr+len)`.
    fn llc_access(
        &mut self,
        requester: LlcRequester,
        kind: AccessKind,
        addr: PhysAddr,
        len: u64,
    ) -> Cycles {
        let llc = self.llc.as_mut().expect("llc_access called without an LLC");
        let line = CACHE_LINE_SIZE;
        let mut total = Cycles::ZERO;
        let mut cur = addr.align_down(line);
        let end = addr + len.max(1);
        while cur < end {
            let outcome = llc.access(requester, cur, kind.is_write());
            total += llc::HIT_LATENCY;
            if outcome.writeback().is_some() {
                // Posted write-back: occupies the DRAM bus but does not stall
                // the requester beyond the bus occupancy.
                total += self.dram.access(line).occupancy;
            }
            if !outcome.is_hit() {
                total += self.dram.access(line).total();
            }
            cur += line;
        }
        total
    }

    /// The single timed entry point of the memory fabric.
    ///
    /// Moves the payload functionally (nothing for [`MemData::Timing`]),
    /// computes the timing of the access according to the initiator's class
    /// and the region's policy, passes the grant through the fabric arbiter
    /// (per-initiator accounting, optional contention charging) and updates
    /// the aggregate statistics. Every access arrives at a definite point on
    /// the global clock: either the caller's issue time ([`MemReq::start`])
    /// or the clock's current reading; the clock is advanced to the access's
    /// completion.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the access does not decode to a
    /// memory-backed region.
    pub fn access(&mut self, req: MemReq<'_>) -> Result<MemRsp> {
        let MemReq {
            mut port,
            start,
            data,
        } = req;
        let (kind, len) = match &data {
            MemData::ReadInto(buf) => (AccessKind::Read, buf.len() as u64),
            MemData::WriteFrom(buf) => (AccessKind::Write, buf.len() as u64),
            MemData::Timing => (port.dir, port.len),
        };
        port.len = len;
        port.arrival = start.unwrap_or_else(|| self.clock.now());
        // One address decode serves the whole access: the functional move,
        // the routing and the class-timing policy all consume the same
        // `(region, offset)` — the former per-stage re-decodes were
        // invariant per access and provably timing-neutral to hoist (the
        // decode is pure; the pinned goldens hold bit-identical).
        let (region, offset) = self.backing_for(port.addr, len)?;
        match data {
            MemData::ReadInto(buf) => self.read_backing(region, offset, buf)?,
            MemData::WriteFrom(buf) => self.write_backing(region, offset, buf)?,
            MemData::Timing => {}
        }

        let class = port.initiator.class();
        // The LLC policy reads the same decode: no second one per access.
        let cacheable = self.llc.is_some() && self.map.is_llc_cacheable_at(region, offset);
        let mut timing = self.class_timing(class, kind, region, cacheable, port.addr, len);

        // The fabric applies the charging rule and records the latency the
        // initiator observes (see `Fabric::admit`). Charged delays —
        // queueing and issue stalls — are part of the returned latency, so
        // a caller that blocks on latency observes them, while the DMA
        // engines additionally push their issue cursor back.
        let outcome = self.fabric.admit(&port, timing);
        let delay = outcome.queue + outcome.issue_stall;
        // Completion on the global clock, charged or not.
        self.clock.advance_to(port.arrival + timing.total() + delay);
        if outcome.charged {
            timing.latency += delay;
        }

        match class {
            InitiatorClass::Host => self.stats.host_accesses += 1,
            InitiatorClass::Ptw => self.stats.ptw_accesses += 1,
            InitiatorClass::Device => {
                self.stats.dma_bursts += 1;
                self.stats.dma_bytes += len;
            }
        }
        Ok(MemRsp {
            timing,
            queue_delay: outcome.queue,
            issue_stall: outcome.issue_stall,
        })
    }

    /// Timing of one access by initiator class, mirroring the three paths of
    /// the prototype (Figure 1): cached host traffic, LLC-served page-table
    /// walks and bypassing DMA bursts.
    ///
    /// Under the global-clock engine ([`FabricConfig::timed_host_ptw`]) host
    /// and PTW accesses additionally reserve their payload beats on the
    /// shared data path, so they block (and are blocked by) concurrent
    /// traffic; the reservation is a deliberate simplification that applies
    /// even to LLC-served accesses (standing in for the shared downstream
    /// bus). Their reported *latency* is unaffected by the extra occupancy —
    /// host/PTW callers block on latency alone.
    ///
    /// `cacheable` says whether the LLC exists and the decoded address may
    /// allocate in it; each class then applies its own LLC policy.
    fn class_timing(
        &mut self,
        class: InitiatorClass,
        kind: AccessKind,
        region: RegionKind,
        cacheable: bool,
        addr: PhysAddr,
        len: u64,
    ) -> PortTiming {
        let hop = xbar::HOP_LATENCY;
        let host_ptw_occupancy = if self.config.fabric.timed_host_ptw {
            Cycles::new(beats_for(len).max(1))
        } else {
            Cycles::ZERO
        };
        match class {
            InitiatorClass::Host => {
                let path = match region {
                    RegionKind::L2Spm => spm::ACCESS_LATENCY,
                    _ if cacheable => self.llc_access(LlcRequester::Host, kind, addr, len),
                    _ if kind.is_write() => {
                        // Posted uncached write: the host only pays the bus
                        // occupancy plus a small store-buffer cost.
                        self.dram.access(len).occupancy + POSTED_WRITE_COST
                    }
                    _ => self.dram.access(len).total(),
                };
                PortTiming {
                    latency: hop + path,
                    occupancy: host_ptw_occupancy,
                }
            }
            InitiatorClass::Ptw => {
                let base = if cacheable {
                    self.llc_access(LlcRequester::Ptw, kind, addr, len)
                } else {
                    self.dram.access(len).total()
                };
                let penalty = self.interference_penalty(base);
                PortTiming {
                    latency: hop + base + penalty,
                    occupancy: host_ptw_occupancy,
                }
            }
            InitiatorClass::Device => {
                let t = self.dma_burst_timing(kind, region, cacheable, addr, len);
                PortTiming {
                    latency: t.latency,
                    occupancy: t.occupancy,
                }
            }
        }
    }

    fn dma_burst_timing(
        &mut self,
        kind: AccessKind,
        region: RegionKind,
        cacheable: bool,
        addr: PhysAddr,
        len: u64,
    ) -> DramTiming {
        let mut timing = match region {
            RegionKind::L2Spm => DramTiming {
                latency: spm::ACCESS_LATENCY,
                occupancy: Cycles::new(beats_for(len)),
            },
            _ if cacheable && self.llc.as_ref().is_some_and(|l| l.config().serves_dma) => {
                // Ablation path: DMA through the LLC. The burst is broken into
                // line refills, so the whole cost counts as latency (no long
                // streaming window) — exactly the bandwidth loss the paper's
                // bypass avoids.
                let total = self.llc_access(LlcRequester::Dma, kind, addr, len);
                DramTiming {
                    latency: total,
                    occupancy: Cycles::new(beats_for(len)),
                }
            }
            _ => self.dram.access(len),
        };
        timing.latency += xbar::HOP_LATENCY;
        timing.latency += self.interference_penalty(timing.latency);
        timing
    }

    /// Flushes the whole LLC (Listing 1 of the paper) and returns the time it
    /// takes: an index walk plus the posted write-back of every dirty line.
    pub fn flush_llc(&mut self) -> Cycles {
        let Some(llc) = &mut self.llc else {
            return Cycles::ZERO;
        };
        let line = llc::GEOMETRY.line_bytes;
        let sets_walk = Cycles::new(llc::GEOMETRY.size_bytes / line / 4);
        let dirty = llc.flush_all();
        self.stats.llc_flushes += 1;
        let mut cost = sets_walk;
        for _ in 0..dirty {
            cost += self.dram.access(line).occupancy;
        }
        cost
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::new(MemSysConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_axi::addrmap::{DRAM_BASE, L2_SPM_BASE, LLC_BYPASS_OFFSET};

    fn sys(latency: u64, llc: bool) -> MemorySystem {
        MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            llc: llc.then(LlcConfig::default),
            ..MemSysConfig::default()
        })
    }

    /// Host latency of an 8-byte read at `addr`.
    fn host_read(m: &mut MemorySystem, addr: PhysAddr) -> Cycles {
        let mut buf = [0u8; 8];
        m.access(MemReq::read(InitiatorId::Host, addr, &mut buf))
            .unwrap()
            .latency()
    }

    /// Host latency of writing `buf` at `addr`.
    fn host_write(m: &mut MemorySystem, addr: PhysAddr, buf: &[u8]) -> Cycles {
        m.access(MemReq::write(InitiatorId::Host, addr, buf))
            .unwrap()
            .latency()
    }

    /// The page-table entry at `addr` and the walker's latency to read it.
    fn ptw_read(m: &mut MemorySystem, addr: PhysAddr) -> (u64, Cycles) {
        let mut buf = [0u8; 8];
        let rsp = m
            .access(MemReq::read(InitiatorId::Ptw, addr, &mut buf))
            .unwrap();
        (u64::from_le_bytes(buf), rsp.latency())
    }

    /// A DMA burst read by device 0.
    fn dma_read(m: &mut MemorySystem, addr: PhysAddr, buf: &mut [u8]) -> PortTiming {
        m.access(MemReq::read(InitiatorId::dma(0), addr, buf).burst())
            .unwrap()
            .timing
    }

    #[test]
    fn functional_roundtrip_both_dram_windows() {
        let mut m = sys(200, true);
        let cached = PhysAddr::new(DRAM_BASE + 0x1000);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x1000);
        m.write_phys(cached, &[7u8; 16]).unwrap();
        let mut buf = [0u8; 16];
        // The bypass window aliases the same DRAM cells.
        m.read_phys(bypass, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
    }

    #[test]
    fn functional_spm_is_separate_from_dram() {
        let mut m = sys(200, true);
        m.write_phys(PhysAddr::new(L2_SPM_BASE), &[1u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        m.read_phys(PhysAddr::new(DRAM_BASE), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn decode_error_for_device_regions() {
        let mut m = sys(200, true);
        assert!(m.write_phys(PhysAddr::new(0x10), &[0u8; 4]).is_err());
        let mut buf = [0u8; 4];
        assert!(m
            .read_phys(PhysAddr::new(sva_axi::addrmap::IOMMU_REGS_BASE), &mut buf)
            .is_err());
    }

    #[test]
    fn host_read_hits_llc_after_first_access() {
        let mut m = sys(600, true);
        let addr = PhysAddr::new(DRAM_BASE + 0x4000);
        let cold = host_read(&mut m, addr);
        let warm = host_read(&mut m, addr);
        assert!(cold.raw() > 600, "cold access should pay DRAM latency");
        assert!(warm.raw() < 40, "warm access should hit in the LLC");
    }

    #[test]
    fn host_read_without_llc_always_pays_dram_latency() {
        let mut m = sys(600, false);
        let addr = PhysAddr::new(DRAM_BASE + 0x4000);
        let first = host_read(&mut m, addr);
        let second = host_read(&mut m, addr);
        assert!(first.raw() > 600);
        assert!(second.raw() > 600);
    }

    #[test]
    fn reserved_dram_is_uncached_for_host() {
        let mut m = sys(600, true);
        let addr = m.map().reserved_dram_base();
        let a = host_read(&mut m, addr);
        let b = host_read(&mut m, addr);
        assert!(a.raw() > 600 && b.raw() > 600);
    }

    #[test]
    fn posted_uncached_writes_are_cheap() {
        let mut m = sys(1000, true);
        let addr = m.map().reserved_dram_base();
        let lat = host_write(&mut m, addr, &[0u8; 64]);
        assert!(
            lat.raw() < 100,
            "posted write should not pay full latency, got {lat}"
        );
    }

    #[test]
    fn ptw_reads_benefit_from_llc() {
        let mut with_llc = sys(1000, true);
        let mut without = sys(1000, false);
        let pte_addr = PhysAddr::new(DRAM_BASE + 0x2000);
        with_llc.write_u64_phys(pte_addr, 0x55).unwrap();
        without.write_u64_phys(pte_addr, 0x55).unwrap();

        // Warm the LLC the way the driver does (host writes the PTE).
        host_read(&mut with_llc, pte_addr);

        let (v1, t1) = ptw_read(&mut with_llc, pte_addr);
        let (v2, t2) = ptw_read(&mut without, pte_addr);
        assert_eq!(v1, 0x55);
        assert_eq!(v2, 0x55);
        assert!(
            t1.raw() < 40,
            "PTW through warm LLC should be fast, got {t1}"
        );
        assert!(
            t2.raw() > 1000,
            "PTW without LLC pays DRAM latency, got {t2}"
        );
    }

    #[test]
    fn dma_burst_moves_data_and_reports_timing() {
        let mut m = sys(200, true);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x10_0000);
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        let tw = m
            .access(MemReq::write(InitiatorId::dma(0), bypass, &data).burst())
            .unwrap()
            .timing;
        let mut back = vec![0u8; 2048];
        let tr = dma_read(&mut m, bypass, &mut back);
        assert_eq!(back, data);
        assert_eq!(tr.occupancy, Cycles::new(256));
        assert!(tr.latency.raw() > 200);
        assert!(tw.latency.raw() > 0);
        assert_eq!(m.stats().dma_bursts, 2);
        assert_eq!(m.stats().dma_bytes, 4096);
    }

    #[test]
    fn dma_bypass_does_not_touch_llc() {
        let mut m = sys(200, true);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET);
        let mut buf = [0u8; 64];
        dma_read(&mut m, bypass, &mut buf);
        assert_eq!(m.llc().unwrap().stats(LlcRequester::Dma).total(), 0);
    }

    #[test]
    fn dma_through_llc_ablation_breaks_bursts() {
        let mut ablate = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(600),
            llc: Some(LlcConfig { serves_dma: true }),
            ..MemSysConfig::default()
        });
        let mut normal = sys(600, true);
        // Cached window address so the ablation path actually caches it.
        let addr = PhysAddr::new(DRAM_BASE + 0x20_0000);
        let mut buf = vec![0u8; 2048];
        let t_ablate = dma_read(&mut ablate, addr, &mut buf);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x20_0000);
        let t_normal = dma_read(&mut normal, bypass, &mut buf);
        // Refilling 32 lines sequentially is far slower than one long burst.
        assert!(t_ablate.latency.raw() > 4 * t_normal.latency.raw());
        assert!(ablate.llc().unwrap().stats(LlcRequester::Dma).total() > 0);
    }

    #[test]
    fn llc_flush_cost_scales_with_dirty_lines() {
        let mut m = sys(200, true);
        let empty_flush = m.flush_llc();
        for i in 0..64u64 {
            host_write(&mut m, PhysAddr::new(DRAM_BASE + i * 64), &[1u8; 8]);
        }
        let dirty_flush = m.flush_llc();
        assert!(dirty_flush > empty_flush);
        assert_eq!(m.stats().llc_flushes, 2);
    }

    #[test]
    fn flush_llc_without_llc_is_free() {
        let mut m = sys(200, false);
        assert_eq!(m.flush_llc(), Cycles::ZERO);
    }

    #[test]
    fn interference_slows_down_ptw() {
        let pte_addr = PhysAddr::new(DRAM_BASE + 0x3000);
        let run = |interf: bool| -> u64 {
            let mut m = sys(600, false);
            if interf {
                m.set_interference(Some(InterferenceConfig::default()));
            }
            let mut total = 0;
            for i in 0..200u64 {
                let (_, t) = ptw_read(&mut m, pte_addr + i * 8);
                total += t.raw();
            }
            total
        };
        let quiet = run(false);
        let noisy = run(true);
        assert!(
            noisy as f64 > quiet as f64 * 1.1,
            "interference should add queueing delay: quiet={quiet} noisy={noisy}"
        );
    }

    /// Window boundary: `open_measurement_window` must reset the fabric's
    /// compaction watermark and live index alongside reservations and
    /// credits — the new window's cycle 0 is reservable again — while the
    /// folded-reservation run total survives like every other statistic.
    #[test]
    fn open_measurement_window_resets_fabric_compaction_state() {
        let mut m = sys(200, true);
        let bypass = PhysAddr::new(DRAM_BASE + LLC_BYPASS_OFFSET + 0x10_0000);
        let mut buf = [0u8; 2048];
        for _ in 0..4 {
            dma_read(&mut m, bypass, &mut buf);
            m.clock().advance(Cycles::new(2000));
        }
        m.compact_fabric_before(m.clock().now());
        assert!(m.fabric().compacted_events() > 0, "history was folded");
        assert!(m.fabric().watermark() > Cycles::ZERO);
        let folded = m.fabric().compacted_events();
        m.open_measurement_window();
        assert_eq!(m.fabric().watermark(), Cycles::ZERO, "watermark resets");
        assert_eq!(m.fabric().event_count(), 0, "live index drops");
        assert_eq!(m.fabric().compacted_events(), folded, "run total survives");
        // Cycle 0 of the new window — far below the old watermark — takes a
        // fresh reservation without queueing.
        dma_read(&mut m, bypass, &mut buf);
        assert_eq!(m.fabric().event_count(), 1);
        assert_eq!(m.fabric().total().queue_cycles, 0);
    }

    /// The [`MemReq::timing`] contract: on two fresh systems, a timing-only
    /// access and a data-moving access of the same initiator, kind, address
    /// and length return equal responses and leave equal statistics, LLC
    /// state and fabric accounting — across host (cached, uncached, SPM),
    /// PTW and DMA traffic on the timed, contended fabric.
    #[test]
    fn timing_only_access_times_and_counts_like_a_data_access() {
        use sva_common::rng::DeterministicRng;
        let config = MemSysConfig {
            dram_latency: Cycles::new(300),
            fabric: crate::fabric::FabricConfig {
                timed_host_ptw: true,
                contention_enabled: true,
                ..crate::fabric::FabricConfig::default()
            },
            ..MemSysConfig::default()
        };
        let mut moving = MemorySystem::new(config.clone());
        let mut timing = MemorySystem::new(config);
        let reserved = moving.map().reserved_dram_base().raw();
        let mut rng = DeterministicRng::new(0x7141);
        for i in 0..400u64 {
            let (initiator, base) = match rng.next_below(5) {
                0 => (InitiatorId::Host, DRAM_BASE),
                1 => (InitiatorId::Host, reserved),
                2 => (InitiatorId::Host, L2_SPM_BASE),
                3 => (InitiatorId::Ptw, DRAM_BASE),
                _ => (InitiatorId::dma(1), DRAM_BASE + LLC_BYPASS_OFFSET),
            };
            let addr = PhysAddr::new(base + rng.next_below(1 << 14) * 8);
            let len = 1 + rng.next_below(256);
            let kind = if rng.next_below(2) == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let mut buf = vec![i as u8; len as usize];
            let (data_req, timing_req) = match kind {
                AccessKind::Read => (
                    MemReq::read(initiator, addr, &mut buf),
                    MemReq::timing(initiator, kind, addr, len),
                ),
                AccessKind::Write => (
                    MemReq::write(initiator, addr, &buf),
                    MemReq::timing(initiator, kind, addr, len),
                ),
            };
            let (data_req, timing_req) = if initiator.class() == InitiatorClass::Device {
                let at = Cycles::new(i * 40);
                (data_req.burst().at(at), timing_req.burst().at(at))
            } else {
                (data_req, timing_req)
            };
            assert_eq!(
                moving.access(data_req).unwrap(),
                timing.access(timing_req).unwrap(),
                "access {i}: {initiator} {kind:?} {len} B at {addr}"
            );
        }
        assert_eq!(moving.stats(), timing.stats());
        for requester in [LlcRequester::Host, LlcRequester::Ptw, LlcRequester::Dma] {
            assert_eq!(
                moving.llc().unwrap().stats(requester),
                timing.llc().unwrap().stats(requester)
            );
        }
        assert_eq!(
            moving.llc().unwrap().writebacks(),
            timing.llc().unwrap().writebacks()
        );
        assert_eq!(moving.fabric_stats(), timing.fabric_stats());
        assert_eq!(moving.channel_stats(), timing.channel_stats());
        assert_eq!(moving.clock().now(), timing.clock().now());
    }

    /// A timing-only access changes no byte and populates no frame, and it
    /// fails to decode exactly where a data-moving access would.
    #[test]
    fn timing_only_access_moves_no_bytes() {
        let mut m = sys(200, true);
        let written = PhysAddr::new(DRAM_BASE + 0x1000);
        m.write_phys(written, &[0xA5; 64]).unwrap();
        let frames = m.dram_store.resident_frames();
        let targets = [
            written,
            PhysAddr::new(DRAM_BASE + 0x10_0000),
            m.map().reserved_dram_base(),
            PhysAddr::new(L2_SPM_BASE + 0x100),
        ];
        for addr in targets {
            for kind in [AccessKind::Read, AccessKind::Write] {
                m.access(MemReq::timing(InitiatorId::Host, kind, addr, 64))
                    .unwrap();
            }
        }
        assert_eq!(m.stats().host_accesses, 8, "every access was timed");
        let mut back = [0u8; 64];
        m.read_phys(written, &mut back).unwrap();
        assert_eq!(back, [0xA5; 64], "no byte changed");
        assert_eq!(m.dram_store.resident_frames(), frames, "no frame populated");
        assert_eq!(m.spm.resident_frames(), 0);

        let mut buf = [0u8; 8];
        for addr in [
            PhysAddr::new(0x10),
            PhysAddr::new(sva_axi::addrmap::IOMMU_REGS_BASE),
        ] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let err = m.access(MemReq::timing(InitiatorId::Host, kind, addr, 8));
                assert!(matches!(err, Err(Error::BusDecodeError { .. })), "{err:?}");
            }
            let err = m.access(MemReq::read(InitiatorId::Host, addr, &mut buf));
            assert!(matches!(err, Err(Error::BusDecodeError { .. })), "{err:?}");
        }
        assert_eq!(m.stats().host_accesses, 8, "failed decodes are not counted");
    }

    #[test]
    fn stats_reset() {
        let mut m = sys(200, true);
        host_read(&mut m, PhysAddr::new(DRAM_BASE));
        assert_eq!(m.stats().host_accesses, 1);
        m.reset_stats();
        assert_eq!(m.stats().host_accesses, 0);
    }
}
