//! One pass of a workload: every point on a freshly booted platform.
//!
//! A pass reports two kinds of numbers. *Times* are host wallclock seconds
//! and differ from run to run. *Counts* are simulated statistics read from
//! the library's public stats structs after each point; the simulator is
//! deterministic, so they must repeat exactly for a given seed, traced or
//! not, in either point order.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sva_common::stats::{HitMiss, RunningStats};
use sva_kernels::{KernelKind, Workload};
use sva_mem::llc::LlcRequester;
use sva_soc::offload::DeviceOnlyReport;
use sva_soc::{OffloadMode, OffloadReport, OffloadRunner, Platform};

use crate::points::{points, Flow, WorkloadName};
use crate::trace::{KernelTimes, TimedWorkload};

/// Builds the workload of a kernel; the benchmark uses
/// `KernelKind::paper_workload`, tests use smaller sizes or failing
/// wrappers.
pub type WorkloadFactory<'a> = &'a dyn Fn(KernelKind) -> Box<dyn Workload>;

/// How to run a pass.
#[derive(Copy, Clone, Debug)]
pub struct PassOptions {
    /// Seed of the workload inputs (passed to `OffloadRunner::new`).
    pub seed: u64,
    /// Wrap every workload in the timing adaptors.
    pub traced: bool,
    /// Run the points in reverse order (traced passes alternate orders so
    /// that a point's cost can be told apart from its position).
    pub reversed: bool,
}

/// The numbers of one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassReport {
    /// Host measurements, keyed by metric name: seconds, except the
    /// per-point minor page faults (`point.NN.minflt`).
    pub times: BTreeMap<String, f64>,
    /// Simulated statistics and point counts, keyed by metric name.
    pub counts: BTreeMap<String, f64>,
}

/// What a point returned.
#[derive(Debug)]
enum Outcome {
    Device(DeviceOnlyReport),
    App(OffloadReport),
}

impl Outcome {
    fn verified(&self) -> bool {
        match self {
            Outcome::Device(r) => r.verified,
            Outcome::App(r) => r.verified,
        }
    }
}

/// Runs every point of `workload` once, each on a new platform.
pub fn run_pass(
    workload: WorkloadName,
    opts: PassOptions,
    make: WorkloadFactory<'_>,
) -> PassReport {
    let pass_start = Instant::now();
    let runner = OffloadRunner::new(opts.seed);
    let list = points(workload);
    let mut order: Vec<usize> = (0..list.len()).collect();
    if opts.reversed {
        order.reverse();
    }

    let mut report = PassReport::default();
    let mut counters = Counters::default();
    let mut digests = vec![0u64; list.len()];
    let mut setup = Duration::ZERO;
    let mut boot = Duration::ZERO;
    let mut run = Duration::ZERO;
    let mut kernels = KernelTimes::default();
    let mut class_run: BTreeMap<&str, Duration> = BTreeMap::new();
    let mut failed = 0u64;
    let mut fig2 = (0u64, 0u64);

    for idx in order {
        let point = &list[idx];
        let faults = opts.traced.then(minor_faults);
        let t0 = Instant::now();
        let inner = make(point.kernel);
        let t1 = Instant::now();
        let platform = Platform::new(point.config.clone());
        let t2 = Instant::now();
        setup += t2 - t0;
        boot += t2 - t1;

        let (traced, times) = if opts.traced {
            let (wrapped, times) = TimedWorkload::new(inner);
            (Box::new(wrapped) as Box<dyn Workload>, Some(times))
        } else {
            (inner, None)
        };
        let mut platform = match platform {
            Ok(p) => p,
            Err(err) => {
                eprintln!("{}: boot failed: {err}", point.label());
                failed += 1;
                digests[idx] = fnv1a(FNV_OFFSET, format!("boot {err:?}").as_bytes());
                continue;
            }
        };
        let result = match point.flow {
            Flow::DeviceOnly => runner
                .run_device_only(&mut platform, traced.as_ref())
                .map(Outcome::Device),
            Flow::App(mode) => runner
                .run(&mut platform, traced.as_ref(), mode)
                .map(Outcome::App),
        };
        let t3 = Instant::now();
        run += t3 - t2;
        *class_run.entry(point.class).or_default() += t3 - t2;

        match &result {
            Ok(outcome) if outcome.verified() => {}
            Ok(_) => {
                eprintln!(
                    "{}: result does not match the host reference",
                    point.label()
                );
                failed += 1;
            }
            Err(err) => {
                eprintln!("{}: {err}", point.label());
                failed += 1;
            }
        }
        if let Ok(outcome) = &result {
            counters.observe(outcome, &platform);
            if let Outcome::App(r) = outcome {
                if point.kernel == KernelKind::Axpy && point.latency == 200 {
                    match r.mode {
                        OffloadMode::CopyOffload => fig2.0 = r.total.raw(),
                        OffloadMode::ZeroCopy => fig2.1 = r.total.raw(),
                        OffloadMode::HostOnly => {}
                    }
                }
            }
        }
        digests[idx] = point_digest(&result, &platform);

        if let Some(times) = times {
            let k = *times.borrow();
            let prefix = format!("point.{idx:02}");
            let secs = |d: Duration| d.as_secs_f64();
            let times = &mut report.times;
            let faulted = minor_faults() - faults.unwrap_or_default();
            times.insert(format!("{prefix}.minflt"), faulted as f64);
            times.insert(format!("{prefix}.host_s"), secs(t3 - t1));
            times.insert(format!("{prefix}.boot_s"), secs(t2 - t1));
            times.insert(format!("{prefix}.compute_s"), secs(k.compute));
            times.insert(format!("{prefix}.init_s"), secs(k.init));
            times.insert(format!("{prefix}.reference_s"), secs(k.reference));
            times.insert(
                format!("{prefix}.kernel_other_s"),
                secs(k.plan + k.tile_io + k.verify),
            );
            times.insert(
                format!("{prefix}.sim_self_s"),
                secs((t3 - t2).saturating_sub(k.total())),
            );
            kernels.compute += k.compute;
            kernels.plan += k.plan;
            kernels.tile_io += k.tile_io;
            kernels.init += k.init;
            kernels.reference += k.reference;
            kernels.verify += k.verify;
            kernels.tiles += k.tiles;
        }
    }

    let wall = pass_start.elapsed();
    let times = &mut report.times;
    times.insert("wall_s".into(), wall.as_secs_f64());
    times.insert("setup_s".into(), setup.as_secs_f64());
    times.insert("soc.boot_s".into(), boot.as_secs_f64());
    times.insert("soc.run_s".into(), run.as_secs_f64());
    for (class, d) in class_run {
        times.insert(format!("soc.run_{class}_s"), d.as_secs_f64());
    }
    if opts.traced {
        times.insert("kernels.compute_s".into(), kernels.compute.as_secs_f64());
        times.insert("kernels.plan_s".into(), kernels.plan.as_secs_f64());
        times.insert("kernels.tile_io_s".into(), kernels.tile_io.as_secs_f64());
        times.insert("kernels.init_s".into(), kernels.init.as_secs_f64());
        times.insert(
            "kernels.reference_s".into(),
            kernels.reference.as_secs_f64(),
        );
        times.insert("kernels.verify_s".into(), kernels.verify.as_secs_f64());
        times.insert(
            "soc.sim_self_s".into(),
            run.saturating_sub(kernels.total()).as_secs_f64(),
        );
        report
            .counts
            .insert("kernels.tiles".into(), kernels.tiles as f64);
    }

    let counts = &mut report.counts;
    let attempted = list.len() as u64;
    counts.insert("soc.points".into(), attempted as f64);
    counts.insert("soc.points_failed".into(), failed as f64);
    counts.insert("fail_ratio".into(), failed as f64 / attempted as f64);
    let gain = match fig2 {
        (copy, zero) if copy > 0 && zero > 0 => 1.0 - zero as f64 / copy as f64,
        _ => 0.0,
    };
    counts.insert("accuracy.fig2_zero_copy_gain".into(), gain);
    let digest = digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()));
    // 52 bits: the digest must survive a round trip through an f64.
    counts.insert("sim.digest".into(), (digest >> 12) as f64);
    counters.insert_into(counts);
    report
}

/// Minor page faults this process has taken so far (field 10 of
/// `/proc/self/stat`), or 0 where the file is unavailable.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name in field 2 may hold spaces; count from its ')'.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hashes every simulated statistic a point leaves behind: the runtime's
/// report (device, per-cluster, host and IOMMU breakdowns) and the memory
/// system's, fabric's, channels', LLC's and host stream's accounting.
fn point_digest(result: &sva_common::Result<Outcome>, platform: &Platform) -> u64 {
    let llc = platform
        .mem
        .llc()
        .map(|l| [LlcRequester::Host, LlcRequester::Ptw, LlcRequester::Dma].map(|r| l.stats(r)));
    let text = format!(
        "{result:?}|{:?}|{:?}|{:?}|{llc:?}|{:?}",
        platform.mem.stats(),
        platform.mem.fabric_stats(),
        platform.mem.channel_stats(),
        platform.host_traffic.as_ref().map(|s| *s.stats()),
    );
    fnv1a(FNV_OFFSET, text.as_bytes())
}

/// Simulated work summed over a pass's points, layer by layer.
#[derive(Debug, Default)]
struct Counters {
    sim_cycles: u64,
    compute_cycles: u64,
    dma_wait_cycles: u64,
    dma_bursts: u64,
    dma_bytes: u64,
    dma_translation_cycles: u64,
    dma_issue_stall_cycles: u64,
    dma_fault_stall_cycles: u64,
    dma_page_faults: u64,
    translations: u64,
    iotlb: HitMiss,
    atc: HitMiss,
    ptw_walks: u64,
    ptw_reads: u64,
    ptw_coalesced_reads: u64,
    ptw_time: RunningStats,
    pri_serviced: u64,
    pri_dropped: u64,
    walk_table_events_peak: u64,
    pri_pending_peak: u64,
    host_accesses: u64,
    ptw_accesses: u64,
    mem_dma_bursts: u64,
    mem_dma_bytes: u64,
    llc_host: HitMiss,
    llc_ptw: HitMiss,
    fabric_grants: u64,
    fabric_queue_cycles: u64,
    fabric_contended_grants: u64,
    fabric_issue_stall_cycles: u64,
    copy_or_map_cycles: u64,
    host_kernel_cycles: u64,
    traffic_issued: u64,
    traffic_queue_cycles: u64,
}

fn add_hits(acc: &mut HitMiss, s: HitMiss) {
    acc.hits += s.hits;
    acc.misses += s.misses;
}

impl Counters {
    fn observe(&mut self, outcome: &Outcome, platform: &Platform) {
        let (device, iommu, sim_cycles) = match outcome {
            Outcome::Device(r) => (Some(r.stats), r.iommu, r.stats.total.raw()),
            Outcome::App(r) => {
                self.copy_or_map_cycles += r.copy_or_map.raw();
                self.host_kernel_cycles += r.host.map_or(0, |h| h.total.raw());
                (r.device, r.iommu, r.total.raw())
            }
        };
        self.sim_cycles += sim_cycles;
        if let Some(d) = device {
            self.compute_cycles += d.compute.raw();
            self.dma_wait_cycles += d.dma_wait.raw();
            self.dma_bursts += d.dma.bursts;
            self.dma_bytes += d.dma.bytes;
            self.dma_translation_cycles += d.dma.translation_cycles;
            self.dma_issue_stall_cycles += d.dma.issue_stall_cycles;
            self.dma_fault_stall_cycles += d.dma.fault_stall_cycles;
            self.dma_page_faults += d.dma.page_faults;
        }

        self.translations += iommu.translations;
        add_hits(&mut self.iotlb, iommu.iotlb);
        add_hits(&mut self.atc, iommu.atc);
        self.ptw_walks += iommu.ptw_walks;
        self.ptw_reads += iommu.ptw_reads;
        self.ptw_coalesced_reads += iommu.ptw_coalesced_reads;
        self.ptw_time.merge(&iommu.ptw_time);
        self.pri_serviced += iommu.page_requests.serviced;
        self.pri_dropped += iommu.page_requests.dropped;
        self.walk_table_events_peak = self
            .walk_table_events_peak
            .max(iommu.ptw_walk_table_events_peak as u64);
        self.pri_pending_peak = self
            .pri_pending_peak
            .max(iommu.page_request_pending_peak as u64);

        let mem = platform.mem.stats();
        self.host_accesses += mem.host_accesses;
        self.ptw_accesses += mem.ptw_accesses;
        self.mem_dma_bursts += mem.dma_bursts;
        self.mem_dma_bytes += mem.dma_bytes;
        if let Some(llc) = platform.mem.llc() {
            add_hits(&mut self.llc_host, llc.stats(LlcRequester::Host));
            add_hits(&mut self.llc_ptw, llc.stats(LlcRequester::Ptw));
        }
        for ch in platform.mem.channel_stats() {
            self.fabric_grants += ch.grants;
        }
        for init in platform.mem.fabric_stats() {
            self.fabric_queue_cycles += init.stats.queue_cycles;
            self.fabric_contended_grants += init.stats.contended_grants;
            self.fabric_issue_stall_cycles += init.stats.issue_stall_cycles;
        }
        if let Some(stream) = &platform.host_traffic {
            let s = stream.stats();
            self.traffic_issued += s.issued;
            self.traffic_queue_cycles += s.setup.queue_cycles + s.device.queue_cycles;
        }
    }

    fn insert_into(&self, out: &mut BTreeMap<String, f64>) {
        let rows: [(&str, f64); 34] = [
            ("sim.cycles", self.sim_cycles as f64),
            ("cluster.compute_cycles", self.compute_cycles as f64),
            ("cluster.dma_wait_cycles", self.dma_wait_cycles as f64),
            ("dma.bursts", self.dma_bursts as f64),
            ("dma.bytes", self.dma_bytes as f64),
            ("dma.translation_cycles", self.dma_translation_cycles as f64),
            ("dma.issue_stall_cycles", self.dma_issue_stall_cycles as f64),
            ("dma.fault_stall_cycles", self.dma_fault_stall_cycles as f64),
            ("dma.page_faults", self.dma_page_faults as f64),
            ("iommu.translations", self.translations as f64),
            ("iommu.iotlb_hit_rate", self.iotlb.hit_rate()),
            ("iommu.atc_hit_rate", self.atc.hit_rate()),
            ("iommu.ptw_walks", self.ptw_walks as f64),
            ("iommu.ptw_reads", self.ptw_reads as f64),
            ("iommu.ptw_coalesced_reads", self.ptw_coalesced_reads as f64),
            ("iommu.ptw_mean_cycles", self.ptw_time.mean()),
            ("iommu.pri_serviced", self.pri_serviced as f64),
            ("iommu.pri_dropped", self.pri_dropped as f64),
            (
                "iommu.walk_table_events_peak",
                self.walk_table_events_peak as f64,
            ),
            ("iommu.pri_pending_peak", self.pri_pending_peak as f64),
            ("mem.host_accesses", self.host_accesses as f64),
            ("mem.ptw_accesses", self.ptw_accesses as f64),
            ("mem.dma_bursts", self.mem_dma_bursts as f64),
            ("mem.dma_bytes", self.mem_dma_bytes as f64),
            ("mem.llc_host_hit_rate", self.llc_host.hit_rate()),
            ("mem.llc_ptw_hit_rate", self.llc_ptw.hit_rate()),
            ("fabric.grants", self.fabric_grants as f64),
            ("fabric.queue_cycles", self.fabric_queue_cycles as f64),
            (
                "fabric.contended_grants",
                self.fabric_contended_grants as f64,
            ),
            (
                "fabric.issue_stall_cycles",
                self.fabric_issue_stall_cycles as f64,
            ),
            ("host.copy_or_map_cycles", self.copy_or_map_cycles as f64),
            ("host.kernel_cycles", self.host_kernel_cycles as f64),
            ("host.traffic_issued", self.traffic_issued as f64),
            (
                "host.traffic_queue_cycles",
                self.traffic_queue_cycles as f64,
            ),
        ];
        for (name, value) in rows {
            out.insert(name.to_string(), value);
        }
    }
}
