//! Host memory traffic concurrent with device execution: the timed
//! host-traffic stream of the global-clock engine, plus the legacy
//! statistical interference presets of Figure 5.
//!
//! Section IV-C stresses the shared LLC and system bus with a random memory
//! stream issued from the host while the accelerator runs, and measures an
//! average page-table-walk slowdown of about 20 %. Two models exist:
//!
//! * [`HostTrafficStream`] — the first-class model: a paced stream of
//!   **timed host reads** issued through the fabric port, `gap` cycles
//!   apart from the start of the device's measurement window. Its arrivals
//!   cover the first [`HostTrafficConfig::window`] (`accesses × gap`)
//!   cycles of that window, plus any issue stalls, not the whole window:
//!   the default covers 196,608 cycles, and the rest of a longer device
//!   window runs without host traffic. With the
//!   global-clock engine on (`FabricConfig::timed_host_ptw`), the stream's
//!   accesses reserve bus occupancy, so DMA bursts and page-table walks
//!   queue behind genuine host traffic (and the stream itself queues behind
//!   DMA occupancy — contention is bidirectional). Streaming through the
//!   cached DRAM window also evicts LLC lines, reproducing the paper's
//!   PTE-eviction effect without a statistical stand-in.
//! * [`InterferenceLevel`] — the legacy presets mapping a qualitative level
//!   to the statistical [`InterferenceConfig`] of `sva_mem::interference`
//!   (M/D/1 queueing delay + random LLC pollution). Kept for Figure 5
//!   reproduction; the timed stream supersedes it for fabric sweeps.

use sva_common::{AccessKind, Cycles, GlobalClock, InitiatorId, PhysAddr, Result};
use sva_mem::interference::InterferenceConfig;
use sva_mem::{MemReq, MemorySystem};

/// Configuration of the timed host-traffic stream.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HostTrafficConfig {
    /// Total timed host accesses injected per measurement window.
    pub accesses: u64,
    /// Issue gap between consecutive accesses, in host cycles (the stream's
    /// pacing; `accesses × gap` is the window the stream covers).
    pub gap: Cycles,
    /// Bytes per access (a short read burst; together with `gap` this sets
    /// the stream's duty cycle on the shared data path — the default
    /// reserves 32 of every 48 cycles, a heavy stressor like the paper's
    /// synthetic interference program).
    pub len: u64,
    /// Address stride between consecutive accesses. The default skips ahead
    /// of the previous access so every access touches fresh lines, misses
    /// the LLC and occupies the DRAM data path.
    pub stride: u64,
    /// Size of the streamed window inside cached DRAM (the stream wraps);
    /// larger than the LLC so the misses persist.
    pub region_bytes: u64,
    /// Byte offset of the streamed window from the DRAM base, so the stream
    /// does not overwrite-read the workload's own hot lines more than a
    /// real co-running process would.
    pub region_offset: u64,
}

impl Default for HostTrafficConfig {
    fn default() -> Self {
        Self {
            accesses: 4096,
            gap: Cycles::new(48),
            len: 256,
            stride: 5 * 64,
            region_bytes: 32 * 1024 * 1024,
            region_offset: 256 * 1024 * 1024,
        }
    }
}

impl HostTrafficConfig {
    /// The window of simulated time the stream's arrivals cover.
    pub fn window(&self) -> Cycles {
        self.gap * self.accesses
    }
}

/// Which phase of an offload the stream is currently injected into.
///
/// The stream runs during the **device** measurement window (the classic
/// injection point) and, when the runtime extends it there, during the
/// **setup** phase of a full application flow — the copy-in/copy-out of a
/// copy-based offload or the cache-flush + `create_iommu_mapping` sequence
/// of a zero-copy offload. Keeping the accounting split per phase is what
/// makes host *self*-interference (the stream contending with the runtime's
/// own copies and page-table writes) separable from device-phase
/// interference.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TrafficPhase {
    /// Copy/map phases of `OffloadRunner::run` (offload setup/teardown).
    Setup,
    /// The device measurement window (kernel execution).
    #[default]
    Device,
}

/// Per-phase accounting of the stream.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// Accesses issued during the phase.
    pub issued: u64,
    /// Cross-initiator queueing the phase's accesses observed on the fabric
    /// (waiting behind DMA/PTW/host occupancy).
    pub queue_cycles: u64,
    /// Issue stalls the phase's accesses observed because the host port's
    /// request queue was full (nonzero only with finite channel depths).
    pub stall_cycles: u64,
}

/// Statistics of the stream (fabric-level accounting lives in the
/// per-initiator `host_stream` row of `Fabric::snapshot`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HostTrafficStats {
    /// Accesses issued since the last statistics reset.
    pub issued: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Summed latency the stream observed (including charged queueing).
    pub latency_cycles: u64,
    /// Issue stalls observed because the host port's request queue was full.
    pub stall_cycles: u64,
    /// Accounting of the accesses injected into offload setup phases
    /// (copy/map), separating host self-interference during offload setup
    /// from device-phase interference.
    pub setup: PhaseTraffic,
    /// Accounting of the accesses injected into device measurement windows.
    pub device: PhaseTraffic,
}

impl HostTrafficStats {
    /// The accounting row of `phase`.
    pub fn phase(&self, phase: TrafficPhase) -> &PhaseTraffic {
        match phase {
            TrafficPhase::Setup => &self.setup,
            TrafficPhase::Device => &self.device,
        }
    }
}

/// A paced stream of timed host reads contending on the memory fabric.
///
/// The stream keeps a time cursor on the global clock: every access is
/// stamped `issue = first_issue + i × gap`, so injecting the stream in
/// slices interleaved with the per-cluster DMA shards (the runtime does
/// this) produces bidirectional queueing — early slices reserve bus time
/// the shards queue behind, later slices queue behind the shards'
/// reservations.
#[derive(Clone, Debug)]
pub struct HostTrafficStream {
    config: HostTrafficConfig,
    /// Index of the next access to issue.
    next: u64,
    /// Issue time of the next access. Normally the pacing grid `i × gap`;
    /// under request-queue backpressure the stream is **closed-loop**: a
    /// new request cannot present until the previous one was admitted into
    /// the channel FIFO, so the cursor is bumped past the admission point
    /// (an open-loop source pumping into a saturated finite queue would
    /// accumulate unbounded stall, which no real master does).
    cursor: Cycles,
    /// Which offload phase the current window's accesses are accounted to.
    phase: TrafficPhase,
    stats: HostTrafficStats,
}

impl HostTrafficStream {
    /// Creates a stream in its pre-window state.
    pub fn new(config: HostTrafficConfig) -> Self {
        Self {
            config,
            next: 0,
            cursor: Cycles::ZERO,
            phase: TrafficPhase::default(),
            stats: HostTrafficStats::default(),
        }
    }

    /// The stream's configuration.
    pub const fn config(&self) -> &HostTrafficConfig {
        &self.config
    }

    /// Statistics since the last [`HostTrafficStream::reset_stats`] (or
    /// [`HostTrafficStream::restart`]).
    pub const fn stats(&self) -> &HostTrafficStats {
        &self.stats
    }

    /// The phase the stream currently accounts its accesses to.
    pub const fn phase(&self) -> TrafficPhase {
        self.phase
    }

    /// Rewinds the pacing cursor to the start of a new measurement window
    /// accounted to `phase`; accumulated statistics survive (a full
    /// application flow spans several windows — setup, device — and the
    /// final report wants all of them).
    pub fn begin_window(&mut self, phase: TrafficPhase) {
        self.next = 0;
        self.cursor = Cycles::ZERO;
        self.phase = phase;
    }

    /// Clears the accumulated statistics (a new run begins).
    pub fn reset_stats(&mut self) {
        self.stats = HostTrafficStats::default();
    }

    /// Rewinds the stream to the start of a new device measurement window
    /// and clears the statistics (the pre-phase behaviour; callers tracking
    /// multi-window flows use [`HostTrafficStream::begin_window`] +
    /// [`HostTrafficStream::reset_stats`] instead).
    pub fn restart(&mut self) {
        self.begin_window(TrafficPhase::Device);
        self.reset_stats();
    }

    /// Number of accesses not yet issued in this window.
    pub fn remaining(&self) -> u64 {
        self.config.accesses - self.next
    }

    /// Issues up to `count` paced, timestamped host reads through the
    /// fabric port of `mem`, advancing the global `clock` to the stream's
    /// cursor so later untimed host activity lands after the stream.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from the memory system (none for in-range
    /// configurations).
    pub fn inject(
        &mut self,
        mem: &mut MemorySystem,
        clock: &GlobalClock,
        count: u64,
    ) -> Result<()> {
        let base = sva_axi::addrmap::DRAM_BASE + self.config.region_offset;
        let n = count.min(self.remaining());
        for _ in 0..n {
            let i = self.next;
            // Paced issue, closed-loop under backpressure: at least `gap`
            // after the previous request entered the channel FIFO, and
            // never before the pacing grid point. With unbounded queue
            // depths the stall is always zero and this is exactly `i × gap`.
            let issue = self.cursor.max(Cycles::new(i * self.config.gap.raw()));
            let addr = PhysAddr::new(base + (i * self.config.stride) % self.config.region_bytes);
            // The stream presents its own initiator identity (a co-running
            // hart), distinct from the runtime's `InitiatorId::Host`
            // traffic, so host self-interference during offload setup is
            // observable instead of vanishing into the same-initiator
            // exemption. Nothing reads the streamed bytes, so the reads are
            // timing-only.
            let rsp = mem.access(
                MemReq::timing(
                    InitiatorId::HostStream,
                    AccessKind::Read,
                    addr,
                    self.config.len,
                )
                .at(issue),
            )?;
            self.next += 1;
            self.stats.issued += 1;
            self.stats.bytes += self.config.len;
            self.stats.latency_cycles += rsp.latency().raw();
            self.stats.stall_cycles += rsp.issue_stall.raw();
            let phase = match self.phase {
                TrafficPhase::Setup => &mut self.stats.setup,
                TrafficPhase::Device => &mut self.stats.device,
            };
            phase.issued += 1;
            phase.queue_cycles += rsp.queue_delay.raw();
            phase.stall_cycles += rsp.issue_stall.raw();
            self.cursor = issue + rsp.issue_stall + self.config.gap;
            // Device windows: the clock follows the stream's cursor so
            // later untimed host activity lands after the stream. Setup
            // windows: the stream is a *concurrent* co-running process —
            // the runtime's own copies and page-table writes drive the
            // clock, and the stream's arrivals overlap them on the
            // timeline instead of serialising in front of them.
            if self.phase == TrafficPhase::Device {
                clock.advance_to(issue + rsp.latency());
            }
        }
        Ok(())
    }
}

/// Qualitative level of concurrent host memory traffic.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum InterferenceLevel {
    /// The host is idle while the accelerator runs (the default for every
    /// experiment except Figure 5's interference curves).
    #[default]
    Idle,
    /// The host issues a steady random-access stream (the paper's synthetic
    /// interference program) at intensity 0.35.
    RandomTraffic,
}

impl InterferenceLevel {
    /// Converts the level into a memory-system interference configuration;
    /// `None` means no interference is installed.
    pub fn to_config(self, seed: u64) -> Option<InterferenceConfig> {
        match self {
            InterferenceLevel::Idle => None,
            InterferenceLevel::RandomTraffic => Some(InterferenceConfig {
                intensity: 0.35,
                llc_lines_per_access: 0.25,
                seed,
            }),
        }
    }

    /// Human-readable label used in experiment reports.
    pub const fn label(self) -> &'static str {
        match self {
            InterferenceLevel::Idle => "host idle",
            InterferenceLevel::RandomTraffic => "host random traffic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_mem::{FabricConfig, MemSysConfig};

    fn timed_mem() -> MemorySystem {
        MemorySystem::new(MemSysConfig {
            fabric: FabricConfig {
                timed_host_ptw: true,
                ..FabricConfig::default()
            },
            ..MemSysConfig::default()
        })
    }

    #[test]
    fn stream_paces_timestamps_and_reserves_the_bus() {
        let mut mem = timed_mem();
        let clock = GlobalClock::new();
        let cfg = HostTrafficConfig {
            accesses: 32,
            gap: Cycles::new(100),
            ..HostTrafficConfig::default()
        };
        let mut stream = HostTrafficStream::new(cfg);
        stream.inject(&mut mem, &clock, 32).unwrap();
        assert_eq!(stream.stats().issued, 32);
        assert_eq!(stream.remaining(), 0);
        // Paced arrivals: the clock followed the stream's cursor past the
        // last issue point.
        assert!(clock.now() >= Cycles::new(31 * 100));
        // Timed host accesses reserved bus occupancy: a DMA burst arriving
        // inside the window observes queueing behind host traffic. The
        // stream presents its own `host_stream` identity.
        let host = mem
            .fabric()
            .initiator_stats(InitiatorId::HostStream)
            .expect("host_stream row exists");
        assert_eq!(host.reads, 32);
        assert!(host.occupancy_cycles > 0, "stream must reserve occupancy");
        assert_eq!(stream.stats().device.issued, 32, "default phase is device");
        assert_eq!(stream.stats().setup.issued, 0);
    }

    #[test]
    fn phases_split_the_accounting_and_windows_keep_stats() {
        let mut mem = timed_mem();
        let clock = GlobalClock::new();
        let mut stream = HostTrafficStream::new(HostTrafficConfig {
            accesses: 8,
            ..HostTrafficConfig::default()
        });
        stream.begin_window(TrafficPhase::Setup);
        stream.inject(&mut mem, &clock, 8).unwrap();
        assert_eq!(stream.stats().setup.issued, 8);
        // A new device window rewinds the cursor but keeps the setup row.
        stream.begin_window(TrafficPhase::Device);
        assert_eq!(stream.remaining(), 8);
        stream.inject(&mut mem, &clock, 8).unwrap();
        assert_eq!(stream.stats().setup.issued, 8);
        assert_eq!(stream.stats().device.issued, 8);
        assert_eq!(stream.stats().issued, 16);
        assert_eq!(
            stream.stats().phase(TrafficPhase::Setup).issued,
            8,
            "phase accessor addresses the right row"
        );
        stream.reset_stats();
        assert_eq!(stream.stats().issued, 0);
    }

    #[test]
    fn full_host_port_records_issue_stalls() {
        use sva_mem::MemSysConfig;
        // One-slot request queue: back-to-back paced reads with long
        // occupancies pile up at the port and the stall is measured.
        let mut mem = MemorySystem::new(MemSysConfig {
            fabric: FabricConfig {
                timed_host_ptw: true,
                contention_enabled: true,
                req_queue_depth: 1,
                rsp_queue_depth: 1,
                ..FabricConfig::default()
            },
            ..MemSysConfig::default()
        });
        let clock = GlobalClock::new();
        let mut stream = HostTrafficStream::new(HostTrafficConfig {
            accesses: 32,
            gap: Cycles::new(1),
            len: 2048,
            ..HostTrafficConfig::default()
        });
        stream.inject(&mut mem, &clock, 32).unwrap();
        assert!(
            stream.stats().stall_cycles > 0,
            "a full host port must record stalls: {:?}",
            stream.stats()
        );
        assert_eq!(
            stream.stats().device.stall_cycles,
            stream.stats().stall_cycles
        );
        let row = mem
            .fabric()
            .initiator_stats(InitiatorId::HostStream)
            .unwrap();
        assert_eq!(row.issue_stall_cycles, stream.stats().stall_cycles);
        assert!(row.req_queue_peak >= 1);
    }

    #[test]
    fn stream_restart_rewinds_the_window() {
        let mut mem = timed_mem();
        let clock = GlobalClock::new();
        let mut stream = HostTrafficStream::new(HostTrafficConfig {
            accesses: 10,
            ..HostTrafficConfig::default()
        });
        stream.inject(&mut mem, &clock, 4).unwrap();
        assert_eq!(stream.remaining(), 6);
        stream.inject(&mut mem, &clock, 100).unwrap();
        assert_eq!(stream.remaining(), 0, "inject clamps to the window");
        stream.restart();
        assert_eq!(stream.remaining(), 10);
        assert_eq!(stream.stats().issued, 0);
    }

    #[test]
    fn idle_produces_no_config() {
        assert!(InterferenceLevel::Idle.to_config(1).is_none());
    }

    #[test]
    fn random_traffic_is_figure_5s_intensity() {
        let random = InterferenceLevel::RandomTraffic.to_config(1).unwrap();
        assert_eq!(random.intensity, 0.35);
        assert_eq!(random.llc_lines_per_access, 0.25);
        assert_eq!(random.seed, 1);
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(
            InterferenceLevel::Idle.label(),
            InterferenceLevel::RandomTraffic.label()
        );
    }
}
