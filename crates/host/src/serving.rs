//! The host-side open-loop serving front-end: bounded admission plus a
//! pluggable dispatcher.
//!
//! In a production SoC the serving runtime is host software: requests from
//! many tenants arrive on their own schedule, a bounded admission queue
//! absorbs what it can (and **visibly rejects** the rest — overflow is a
//! counted outcome, never silent loss), and a dispatch policy decides which
//! admitted request the next free accelerator cluster runs. This module is
//! that runtime component, deliberately free of timing simulation: the
//! timed discrete-event loop lives in the SoC crate and drives this state
//! machine with explicit `now` values on the shared clock timeline.
//!
//! The dispatch vocabulary mirrors the fabric's
//! [`ArbitrationPolicy`](sva_common::ArbitrationPolicy): round-robin-like
//! FCFS, weight/affinity-style static sharding, load-adaptive
//! shortest-queue, and strict priority.

use std::collections::VecDeque;

use sva_common::Cycles;

/// One tenant of the serving layer (a host process class issuing offload
/// requests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tenant {
    /// Display name for reports ("tenant-a").
    pub name: String,
    /// Dispatch priority; larger wins under [`DispatchPolicy::Priority`].
    pub priority: u8,
}

/// One open-loop offload request, tagged with its tenant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServingRequest {
    /// Monotone request ID (trace order).
    pub id: u64,
    /// Index into the tenant table.
    pub tenant: usize,
    /// Arrival time on the shared clock.
    pub arrival: Cycles,
    /// Service demand (end-to-end offload cost on one cluster).
    pub service: Cycles,
}

/// How the next free cluster picks among admitted requests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Tenant-affine static sharding: tenant `i` only ever runs on cluster
    /// `i mod clusters` (placement decided at admission).
    StaticSharding,
    /// One shared FIFO: any free cluster takes the head.
    Fcfs,
    /// Join-the-shortest-queue: an admitted request is routed to the
    /// cluster with the fewest waiting requests (ties to the lowest
    /// cluster index).
    ShortestQueue,
    /// One shared queue; a free cluster takes the highest-priority tenant's
    /// oldest request.
    Priority,
}

impl DispatchPolicy {
    /// Every policy, for sweep grids.
    pub const ALL: [DispatchPolicy; 4] = [
        DispatchPolicy::StaticSharding,
        DispatchPolicy::Fcfs,
        DispatchPolicy::ShortestQueue,
        DispatchPolicy::Priority,
    ];

    /// Stable label for tables and JSON output.
    pub const fn label(self) -> &'static str {
        match self {
            DispatchPolicy::StaticSharding => "static_sharding",
            DispatchPolicy::Fcfs => "fcfs",
            DispatchPolicy::ShortestQueue => "shortest_queue",
            DispatchPolicy::Priority => "priority",
        }
    }
}

/// Admission counters, overall and per tenant. `offered = admitted +
/// rejected` always holds; the serving report's conservation invariant
/// builds on these.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests presented to the admission queue.
    pub offered: u64,
    /// Requests accepted into a queue.
    pub admitted: u64,
    /// Requests dropped at the full admission queue.
    pub rejected: u64,
    /// Per-tenant `offered`, same order as the tenant table.
    pub offered_per_tenant: Vec<u64>,
    /// Per-tenant `rejected`, same order as the tenant table.
    pub rejected_per_tenant: Vec<u64>,
}

/// Bounded admission queue + dispatch policy over `clusters` servers.
///
/// The total number of *waiting* requests (across all internal queues) is
/// bounded by `depth`; a request arriving at the bound is rejected and
/// counted in [`AdmissionStats`]. Requests already dispatched to a cluster
/// do not occupy admission slots.
#[derive(Clone, Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    clusters: usize,
    depth: usize,
    tenants: Vec<Tenant>,
    /// Shared queue (FCFS / priority policies).
    shared: VecDeque<ServingRequest>,
    /// Per-cluster queues (routed policies).
    shards: Vec<VecDeque<ServingRequest>>,
    stats: AdmissionStats,
}

impl Dispatcher {
    /// Creates a dispatcher for `clusters` servers with an admission bound
    /// of `depth` waiting requests.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or the tenant table is empty.
    pub fn new(
        policy: DispatchPolicy,
        clusters: usize,
        depth: usize,
        tenants: Vec<Tenant>,
    ) -> Self {
        assert!(clusters > 0, "serving needs at least one cluster");
        assert!(!tenants.is_empty(), "serving needs at least one tenant");
        let stats = AdmissionStats {
            offered_per_tenant: vec![0; tenants.len()],
            rejected_per_tenant: vec![0; tenants.len()],
            ..AdmissionStats::default()
        };
        Self {
            policy,
            clusters,
            depth,
            tenants,
            shared: VecDeque::new(),
            shards: vec![VecDeque::new(); clusters],
            stats,
        }
    }

    /// The tenant table.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Admission counters so far.
    pub const fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// Number of requests currently waiting (all queues).
    pub fn queued(&self) -> usize {
        self.shared.len() + self.shards.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Presents one request for admission. Returns `true` if it was
    /// queued, `false` if the bound rejected it.
    pub fn admit(&mut self, request: ServingRequest) -> bool {
        self.stats.offered += 1;
        self.stats.offered_per_tenant[request.tenant] += 1;
        if self.queued() >= self.depth {
            self.stats.rejected += 1;
            self.stats.rejected_per_tenant[request.tenant] += 1;
            return false;
        }
        self.stats.admitted += 1;
        match self.policy {
            DispatchPolicy::Fcfs | DispatchPolicy::Priority => self.shared.push_back(request),
            DispatchPolicy::StaticSharding => {
                self.shards[request.tenant % self.clusters].push_back(request);
            }
            DispatchPolicy::ShortestQueue => {
                let target = (0..self.clusters)
                    .min_by_key(|&c| self.shards[c].len())
                    .expect("clusters > 0");
                self.shards[target].push_back(request);
            }
        }
        true
    }

    /// Picks the request the newly free `cluster` should run next, or
    /// `None` if nothing eligible is waiting. (Under routed policies a
    /// free cluster with an empty shard idles even while other shards are
    /// backed up — that head-of-line blocking is the point of comparing
    /// policies.)
    pub fn next_for(&mut self, cluster: usize) -> Option<ServingRequest> {
        match self.policy {
            DispatchPolicy::Fcfs => self.shared.pop_front(),
            DispatchPolicy::Priority => {
                let best = self
                    .shared
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, r)| (self.tenants[r.tenant].priority, std::cmp::Reverse(*i)))
                    .map(|(i, _)| i)?;
                self.shared.remove(best)
            }
            DispatchPolicy::StaticSharding | DispatchPolicy::ShortestQueue => {
                self.shards[cluster].pop_front()
            }
        }
    }

    /// Opens a fresh measurement window: waiting requests are flushed and
    /// every admission counter restarts from zero, exactly like a freshly
    /// built dispatcher. Mirrors `open_measurement_window` on the memory
    /// system — drop counters must not carry over between windows.
    pub fn open_measurement_window(&mut self) {
        self.shared.clear();
        for shard in &mut self.shards {
            shard.clear();
        }
        self.stats = AdmissionStats {
            offered_per_tenant: vec![0; self.tenants.len()],
            rejected_per_tenant: vec![0; self.tenants.len()],
            ..AdmissionStats::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants(n: usize) -> Vec<Tenant> {
        (0..n)
            .map(|i| Tenant {
                name: format!("tenant-{i}"),
                priority: i as u8,
            })
            .collect()
    }

    fn req(id: u64, tenant: usize) -> ServingRequest {
        ServingRequest {
            id,
            tenant,
            arrival: Cycles::new(id * 10),
            service: Cycles::new(1_000),
        }
    }

    #[test]
    fn admission_bound_rejects_and_counts_per_tenant() {
        let mut d = Dispatcher::new(DispatchPolicy::Fcfs, 2, 3, tenants(2));
        for i in 0..5u64 {
            d.admit(req(i, (i % 2) as usize));
        }
        let s = d.stats();
        assert_eq!((s.offered, s.admitted, s.rejected), (5, 3, 2));
        assert_eq!(s.offered_per_tenant, vec![3, 2]);
        assert_eq!(s.rejected_per_tenant, vec![1, 1]);
        assert_eq!(d.queued(), 3);
    }

    #[test]
    fn fcfs_serves_in_arrival_order_priority_reorders() {
        let mut fcfs = Dispatcher::new(DispatchPolicy::Fcfs, 1, 16, tenants(3));
        let mut prio = Dispatcher::new(DispatchPolicy::Priority, 1, 16, tenants(3));
        for (i, t) in [(0u64, 0usize), (1, 2), (2, 1), (3, 2)] {
            fcfs.admit(req(i, t));
            prio.admit(req(i, t));
        }
        let fcfs_ids: Vec<u64> = std::iter::from_fn(|| fcfs.next_for(0))
            .map(|r| r.id)
            .collect();
        assert_eq!(fcfs_ids, vec![0, 1, 2, 3]);
        // Priority: tenant 2 (priority 2) first in FIFO order, then 1, then 0.
        let prio_ids: Vec<u64> = std::iter::from_fn(|| prio.next_for(0))
            .map(|r| r.id)
            .collect();
        assert_eq!(prio_ids, vec![1, 3, 2, 0]);
    }

    #[test]
    fn routed_policies_place_at_admission() {
        let mut stat = Dispatcher::new(DispatchPolicy::StaticSharding, 2, 16, tenants(3));
        for (i, t) in [(0u64, 0usize), (1, 1), (2, 2), (3, 1)] {
            stat.admit(req(i, t));
        }
        // Tenants 0 and 2 shard to cluster 0; tenant 1 to cluster 1.
        assert_eq!(stat.next_for(0).map(|r| r.id), Some(0));
        assert_eq!(stat.next_for(0).map(|r| r.id), Some(2));
        assert_eq!(stat.next_for(0).map(|r| r.id), None);
        assert_eq!(stat.next_for(1).map(|r| r.id), Some(1));

        let mut jsq = Dispatcher::new(DispatchPolicy::ShortestQueue, 2, 16, tenants(1));
        for i in 0..4u64 {
            jsq.admit(req(i, 0));
        }
        // Round-robins across equally short queues: 0→c0, 1→c1, 2→c0, 3→c1.
        assert_eq!(jsq.next_for(0).map(|r| r.id), Some(0));
        assert_eq!(jsq.next_for(1).map(|r| r.id), Some(1));
        assert_eq!(jsq.next_for(0).map(|r| r.id), Some(2));
        assert_eq!(jsq.next_for(1).map(|r| r.id), Some(3));
    }

    /// Satellite regression (per-window drop/stat reset audit): admission
    /// drop counters and queued backlog must not leak into the next
    /// measurement window — a reopened dispatcher behaves exactly like a
    /// fresh one.
    #[test]
    fn measurement_window_resets_admission_drops_and_backlog() {
        let drive = |d: &mut Dispatcher| {
            for i in 0..6u64 {
                d.admit(req(i, (i % 2) as usize));
            }
            (d.stats().clone(), d.queued())
        };
        let mut used = Dispatcher::new(DispatchPolicy::ShortestQueue, 2, 2, tenants(2));
        drive(&mut used);
        assert!(used.stats().rejected > 0, "window 1 must overflow");
        used.open_measurement_window();
        assert_eq!(used.queued(), 0, "backlog carried across the window");
        assert_eq!(
            used.stats(),
            &Dispatcher::new(DispatchPolicy::ShortestQueue, 2, 2, tenants(2))
                .stats()
                .clone()
        );

        // Window 2 on the used dispatcher == window 1 on a fresh one.
        let mut fresh = Dispatcher::new(DispatchPolicy::ShortestQueue, 2, 2, tenants(2));
        assert_eq!(drive(&mut used), drive(&mut fresh));
    }
}
