//! Open-loop serving simulation: SLO percentiles under offered load.
//!
//! The closed-loop experiment drivers launch one offload at a time and
//! measure its breakdown. Production accelerator deployments do not get
//! that luxury: requests from many tenants arrive on their own schedule
//! (the *open loop*), queue at a bounded admission buffer, and either make
//! their latency SLO or visibly miss it. This module ties the pieces
//! together:
//!
//! * [`sva_common::ArrivalMix`] generates deterministic multi-tenant
//!   arrival traces (Poisson / bursty / diurnal);
//! * [`sva_host::serving`] is the host runtime — bounded admission and the
//!   pluggable [`DispatchPolicy`];
//! * this module calibrates per-kernel service times with a **real**
//!   device-only run on the simulated platform
//!   ([`ServiceTable::calibrate`]), then runs a discrete-event loop over
//!   `clusters` servers on one shared timeline.
//!
//! The end-to-end latency of a request is `completion − arrival`: queueing
//! delay plus the calibrated offload cost (trigger + device execution +
//! sync). The report carries p50/p99/p999 overall and per tenant, goodput
//! against offered load, the waiting-queue depth timeline (via
//! [`TimedQueue`]), and conservation counters
//! (`offered = completed + rejected` once the run drains).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sva_common::channel::TimedQueue;
use sva_common::rng::DeterministicRng;
use sva_common::stats::Histogram;
use sva_common::{ArrivalMix, Cycles, Result};
use sva_host::serving::{DispatchPolicy, Dispatcher, ServingRequest, Tenant};
use sva_kernels::KernelKind;

use crate::config::PlatformConfig;
use crate::offload::{OffloadRunner, OFFLOAD_SYNC_CYCLES, OFFLOAD_TRIGGER_CYCLES};
use crate::platform::Platform;

/// Latency percentiles reported per serving point (p50 / p99 / p999).
pub const SLO_PERCENTILES: [f64; 3] = [0.50, 0.99, 0.999];

/// Width of one latency histogram bucket in cycles (≈1% resolution at the
/// p50 latencies the default grid produces).
const LATENCY_BUCKET_CYCLES: u64 = 1_024;

/// Number of latency histogram buckets (range ≈ 16.8 M cycles before
/// overflow clamps to the top edge — comfortably past the worst
/// admission-bounded tail of the default grid).
const LATENCY_BUCKETS: usize = 16_384;

/// Number of evenly spaced queue-depth samples in the report.
const QUEUE_SAMPLES: usize = 32;

/// One tenant's offered load.
#[derive(Clone, Debug)]
pub struct TenantLoad {
    /// Display name ("latency-sensitive").
    pub name: String,
    /// The kernel this tenant offloads.
    pub kernel: KernelKind,
    /// Dispatch priority (larger wins under [`DispatchPolicy::Priority`]).
    pub priority: u8,
    /// Number of requests in the tenant's trace.
    pub requests: usize,
}

/// Full specification of one serving point.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Number of accelerator clusters serving requests.
    pub clusters: usize,
    /// Bound on waiting requests; arrivals beyond it are rejected.
    pub admission_depth: usize,
    /// How free clusters pick among admitted requests.
    pub policy: DispatchPolicy,
    /// Shape of the arrival process (shared by all tenants).
    pub mix: ArrivalMix,
    /// The tenants and their offered load.
    pub tenants: Vec<TenantLoad>,
    /// Offered utilization: 1.0 loads the clusters at exactly their
    /// aggregate service capacity, values above saturate (rejects and a
    /// widening p99/p50 gap are expected), values below leave headroom.
    pub utilization: f64,
    /// Seed for the arrival traces (service times are calibrated
    /// deterministically and do not consume this stream).
    pub seed: u64,
}

impl ServingConfig {
    /// A small three-tenant default: one latency-sensitive high-priority
    /// axpy tenant and two throughput tenants (gesummv, heat3d).
    pub fn small(clusters: usize, policy: DispatchPolicy, mix: ArrivalMix) -> Self {
        Self {
            clusters,
            admission_depth: 8 * clusters,
            policy,
            mix,
            tenants: vec![
                TenantLoad {
                    name: "interactive".into(),
                    kernel: KernelKind::Axpy,
                    priority: 2,
                    requests: 600,
                },
                TenantLoad {
                    name: "batch-gesummv".into(),
                    kernel: KernelKind::Gesummv,
                    priority: 1,
                    requests: 400,
                },
                TenantLoad {
                    name: "batch-heat3d".into(),
                    kernel: KernelKind::Heat3d,
                    priority: 0,
                    requests: 400,
                },
            ],
            utilization: 0.7,
            seed: 0x5E4B,
        }
    }

    /// The distinct kernels across all tenants, in first-seen order.
    pub fn kernels(&self) -> Vec<KernelKind> {
        let mut kinds: Vec<KernelKind> = Vec::new();
        for t in &self.tenants {
            if !kinds.contains(&t.kernel) {
                kinds.push(t.kernel);
            }
        }
        kinds
    }
}

/// Calibrated end-to-end service time per kernel: offload trigger + the
/// measured device-only execution + completion sync.
#[derive(Clone, Debug)]
pub struct ServiceTable {
    entries: Vec<(KernelKind, Cycles)>,
}

impl ServiceTable {
    /// Measures each kernel's small workload with a real device-only run on
    /// a one-cluster *IOMMU + LLC* platform (pre-mapped, no contention
    /// add-ons) and books trigger + sync on top. One run per kernel: the
    /// serving loop replays this cost thousands of times without paying for
    /// thousands of full platform simulations.
    ///
    /// # Errors
    ///
    /// Propagates platform construction and offload failures.
    pub fn calibrate(kernels: &[KernelKind], seed: u64) -> Result<Self> {
        let mut entries = Vec::with_capacity(kernels.len());
        for &kind in kernels {
            let config = PlatformConfig::iommu_with_llc(200).with_clusters(1);
            let mut platform = Platform::new(config)?;
            let workload = kind.small_workload();
            let report = OffloadRunner::new(seed).run_device_only(&mut platform, &*workload)?;
            let service = OFFLOAD_TRIGGER_CYCLES + report.stats.total.raw() + OFFLOAD_SYNC_CYCLES;
            entries.push((kind, Cycles::new(service)));
        }
        Ok(Self { entries })
    }

    /// The calibrated service time for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not calibrated.
    pub fn service(&self, kind: KernelKind) -> Cycles {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
            .unwrap_or_else(|| panic!("kernel {:?} was not calibrated", kind))
    }

    /// The calibrated `(kernel, service)` pairs.
    pub fn entries(&self) -> &[(KernelKind, Cycles)] {
        &self.entries
    }
}

/// Latency SLO summary (cycles at the histogram bucket resolution).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median end-to-end latency.
    pub p50: u64,
    /// 99th-percentile end-to-end latency.
    pub p99: u64,
    /// 99.9th-percentile end-to-end latency.
    pub p999: u64,
    /// Completions the summary covers.
    pub count: u64,
}

impl LatencySummary {
    fn from_histogram(hist: &Histogram) -> Self {
        let ps = hist.percentiles(&SLO_PERCENTILES);
        Self {
            p50: ps[0],
            p99: ps[1],
            p999: ps[2],
            count: hist.count(),
        }
    }
}

/// Per-tenant serving outcome: the goodput-vs-offered-load curve's data
/// point for this tenant.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Kernel the tenant offloads.
    pub kernel: String,
    /// Requests the tenant presented.
    pub offered: u64,
    /// Requests dropped at the full admission queue.
    pub rejected: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Offered load in requests per million cycles of the run.
    pub offered_per_mcycle: f64,
    /// Goodput in completions per million cycles of the run.
    pub goodput_per_mcycle: f64,
    /// End-to-end latency percentiles over this tenant's completions.
    pub latency: LatencySummary,
}

/// Everything one serving point produced.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Dispatch policy label.
    pub policy: String,
    /// Arrival mix label.
    pub mix: String,
    /// Offered utilization factor.
    pub utilization: f64,
    /// Clusters serving.
    pub clusters: usize,
    /// Admission bound.
    pub admission_depth: usize,
    /// Requests presented across all tenants.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected at the admission bound.
    pub rejected: u64,
    /// Requests that completed service (equals `admitted` after drain).
    pub completed: u64,
    /// Cycle of the last completion.
    pub makespan: u64,
    /// Overall end-to-end latency percentiles.
    pub latency: LatencySummary,
    /// Per-tenant outcomes, in tenant-table order.
    pub tenants: Vec<TenantReport>,
    /// Peak number of admitted requests waiting at once.
    pub queue_peak: usize,
    /// Waiting-queue depth sampled at [`QUEUE_SAMPLES`] evenly spaced
    /// instants across the run.
    pub queue_depth_samples: Vec<usize>,
    /// Calibrated `(kernel, service cycles)` pairs the point replayed.
    pub services: Vec<(String, u64)>,
}

impl ServingReport {
    /// The conservation invariant every run must satisfy after drain:
    /// every offered request is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.offered == self.completed + self.rejected && self.admitted == self.completed
    }
}

/// A heap entry ordered by `(time, seq)` ascending; `seq` is the global
/// event issue order, making pops fully deterministic.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EventKind {
    /// A request arrives at the admission queue.
    Arrival(ServingRequest),
    /// `cluster` finishes its current request and frees up.
    Free(usize),
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs one serving point: generates the arrival traces, replays them
/// through the admission queue and dispatcher over `clusters` servers, and
/// drains to completion.
///
/// Offered load is derived from the calibrated service times: utilization
/// `ρ` splits the aggregate capacity `clusters / s̄` evenly across tenants,
/// so tenant `i` arrives with mean gap `T · sᵢ / (ρ · clusters)` for `T`
/// tenants. The whole run is a pure function of `(config, services)` — no
/// wall-clock, no global state — so it replays bit-identically regardless
/// of how many worker threads run sibling points.
pub fn run(config: &ServingConfig, services: &ServiceTable) -> ServingReport {
    assert!(config.utilization > 0.0, "utilization must be positive");
    let tenants: Vec<Tenant> = config
        .tenants
        .iter()
        .map(|t| Tenant {
            name: t.name.clone(),
            priority: t.priority,
        })
        .collect();
    let mut dispatcher = Dispatcher::new(
        config.policy,
        config.clusters,
        config.admission_depth,
        tenants,
    );

    // Arrival traces: a dedicated forked RNG stream per tenant keeps the
    // traces independent of tenant order and of each other.
    let mut rng = DeterministicRng::new(config.seed);
    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut next_id = 0u64;
    for (idx, tenant) in config.tenants.iter().enumerate() {
        let service = services.service(tenant.kernel);
        let mean_gap = (config.tenants.len() as f64 * service.raw() as f64
            / (config.utilization * config.clusters as f64))
            .max(1.0) as u64;
        let mut stream = rng.fork(idx as u64);
        let trace = config
            .mix
            .generate(&mut stream, tenant.requests, Cycles::new(mean_gap));
        for arrival in trace {
            heap.push(Event {
                time: arrival.raw(),
                seq,
                kind: EventKind::Arrival(ServingRequest {
                    id: next_id,
                    tenant: idx,
                    arrival,
                    service,
                }),
            });
            seq += 1;
            next_id += 1;
        }
    }

    let mut busy: Vec<Option<ServingRequest>> = vec![None; config.clusters];
    let mut waiting = TimedQueue::unbounded_recording();
    let mut overall = Histogram::new(LATENCY_BUCKET_CYCLES, LATENCY_BUCKETS);
    let mut per_tenant_hist: Vec<Histogram> = config
        .tenants
        .iter()
        .map(|_| Histogram::new(LATENCY_BUCKET_CYCLES, LATENCY_BUCKETS))
        .collect();
    let mut completed_per_tenant = vec![0u64; config.tenants.len()];
    let mut completed = 0u64;
    let mut makespan = 0u64;

    while let Some(event) = heap.pop() {
        let now = event.time;
        match event.kind {
            EventKind::Arrival(request) => {
                dispatcher.admit(request);
            }
            EventKind::Free(cluster) => {
                let request = busy[cluster].take().expect("Free event on idle cluster");
                let latency = now - request.arrival.raw();
                overall.record(latency);
                per_tenant_hist[request.tenant].record(latency);
                completed_per_tenant[request.tenant] += 1;
                completed += 1;
                makespan = makespan.max(now);
            }
        }
        // Dispatch sweep: every free cluster pulls work while any is
        // eligible. Ascending cluster order keeps the sweep deterministic.
        for (cluster, slot) in busy.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            if let Some(request) = dispatcher.next_for(cluster) {
                waiting.push(request.arrival.raw(), now);
                *slot = Some(request);
                heap.push(Event {
                    time: now + request.service.raw(),
                    seq,
                    kind: EventKind::Free(cluster),
                });
                seq += 1;
            }
        }
    }

    let stats = dispatcher.stats().clone();
    debug_assert_eq!(dispatcher.queued(), 0, "drained run left requests queued");

    let horizon_mcycles = (makespan.max(1)) as f64 / 1e6;
    let tenant_reports = config
        .tenants
        .iter()
        .enumerate()
        .map(|(idx, t)| TenantReport {
            name: t.name.clone(),
            kernel: t.kernel.name().to_string(),
            offered: stats.offered_per_tenant[idx],
            rejected: stats.rejected_per_tenant[idx],
            completed: completed_per_tenant[idx],
            offered_per_mcycle: stats.offered_per_tenant[idx] as f64 / horizon_mcycles,
            goodput_per_mcycle: completed_per_tenant[idx] as f64 / horizon_mcycles,
            latency: LatencySummary::from_histogram(&per_tenant_hist[idx]),
        })
        .collect();

    let queue_depth_samples = (0..QUEUE_SAMPLES)
        .map(|i| waiting.occupancy_at(makespan * i as u64 / QUEUE_SAMPLES as u64))
        .collect();

    ServingReport {
        policy: config.policy.label().to_string(),
        mix: config.mix.label().to_string(),
        utilization: config.utilization,
        clusters: config.clusters,
        admission_depth: config.admission_depth,
        offered: stats.offered,
        admitted: stats.admitted,
        rejected: stats.rejected,
        completed,
        makespan,
        latency: LatencySummary::from_histogram(&overall),
        tenants: tenant_reports,
        queue_peak: waiting.peak(),
        queue_depth_samples,
        services: services
            .entries()
            .iter()
            .map(|(k, c)| (k.name().to_string(), c.raw()))
            .collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// Synthetic calibration: keeps unit tests off the full platform (the
    /// real calibration path is covered by the experiment driver and the
    /// pinned golden).
    pub(crate) fn synthetic_table() -> ServiceTable {
        ServiceTable {
            entries: vec![
                (KernelKind::Axpy, Cycles::new(70_000)),
                (KernelKind::Gesummv, Cycles::new(100_000)),
                (KernelKind::Heat3d, Cycles::new(120_000)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::synthetic_table as table;
    use super::*;

    fn base(policy: DispatchPolicy, mix: ArrivalMix, utilization: f64) -> ServingConfig {
        let mut config = ServingConfig::small(4, policy, mix);
        config.utilization = utilization;
        config
    }

    #[test]
    fn conservation_holds_and_run_drains() {
        for mix in ArrivalMix::ALL {
            for policy in DispatchPolicy::ALL {
                let report = run(&base(policy, mix, 0.9), &table());
                assert!(
                    report.conserved(),
                    "{}/{}: offered {} != completed {} + rejected {}",
                    report.policy,
                    report.mix,
                    report.offered,
                    report.completed,
                    report.rejected
                );
                assert_eq!(report.offered, 1_400);
                assert!(report.makespan > 0);
            }
        }
    }

    #[test]
    fn saturation_rejects_and_stretches_the_tail() {
        let relaxed = run(
            &base(DispatchPolicy::Fcfs, ArrivalMix::Poisson, 0.5),
            &table(),
        );
        assert_eq!(relaxed.rejected, 0, "half load must not overflow admission");

        // Sustained overload: the admission bound fills and stays full, so
        // rejects pile up and the queue peaks at its depth.
        let overloaded = run(
            &base(DispatchPolicy::Fcfs, ArrivalMix::Poisson, 1.4),
            &table(),
        );
        assert!(
            overloaded.rejected > 100,
            "1.4x load must overflow admission ({} rejects)",
            overloaded.rejected
        );
        assert!(overloaded.queue_peak >= overloaded.admission_depth);
        assert!(overloaded.latency.p999 >= overloaded.latency.p99);

        // Transient saturation: bursts at 0.9 mean utilization overflow the
        // queue during clumps but drain between them, so rejects coexist
        // with a fat tail instead of a uniformly clamped distribution.
        let bursty = run(
            &base(DispatchPolicy::Fcfs, ArrivalMix::Bursty, 0.9),
            &table(),
        );
        assert!(bursty.rejected > 0, "bursty clumps must overflow admission");
        assert!(
            bursty.latency.p99 > 2 * bursty.latency.p50,
            "bursty p99 {} must dwarf p50 {}",
            bursty.latency.p99,
            bursty.latency.p50
        );
    }

    #[test]
    fn replay_is_bit_identical() {
        let config = base(DispatchPolicy::ShortestQueue, ArrivalMix::Bursty, 1.1);
        let a = run(&config, &table());
        let b = run(&config, &table());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn priority_policy_protects_the_high_priority_tenant() {
        let fcfs = run(
            &base(DispatchPolicy::Fcfs, ArrivalMix::Bursty, 1.2),
            &table(),
        );
        let prio = run(
            &base(DispatchPolicy::Priority, ArrivalMix::Bursty, 1.2),
            &table(),
        );
        // Tenant 0 ("interactive") has the highest priority: under
        // saturation the priority policy must serve it with a tighter p99
        // than FCFS gives it.
        let fcfs_p99 = fcfs.tenants[0].latency.p99;
        let prio_p99 = prio.tenants[0].latency.p99;
        assert!(
            prio_p99 < fcfs_p99,
            "priority p99 {prio_p99} must beat fcfs p99 {fcfs_p99} for the interactive tenant"
        );
    }

    #[test]
    fn queue_depth_timeline_tracks_backlog() {
        let report = run(
            &base(DispatchPolicy::Fcfs, ArrivalMix::Bursty, 1.2),
            &table(),
        );
        assert!(report.queue_peak > 0);
        assert!(
            report.queue_depth_samples.iter().any(|&d| d > 0),
            "saturated run must show nonzero sampled backlog"
        );
        assert_eq!(report.queue_depth_samples.len(), QUEUE_SAMPLES);
    }
}
