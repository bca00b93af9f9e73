//! `NaiveFabric`: the original scan-with-retry placement algorithm of
//! `sva_mem::Fabric`, kept as the executable specification the
//! cycle-identity suite (`tests/fabric_identity.rs`) runs the indexed
//! engine against.
//!
//! * the per-channel reservation timeline is a `BTreeMap` keyed by
//!   `(start, seq)`, and every placement retry range-scans the start window
//!   `[placed - max_reservation_len, placed + span)` — which covers mostly
//!   *finished* history in a long measurement window — one conflict at a
//!   time;
//! * the initiator slot is resolved by a linear registry scan per grant;
//! * the `Weighted` policy's `weight_of` scans `timed_order` for the slot's
//!   position inside the conflict predicate, and membership is checked with
//!   `timed_order.contains` on every occupying grant.
//!
//! Like `Fabric::admit`, it records the latency each initiator observes,
//! with the queueing and issue stall included when the charging rule
//! applies.
//!
//! Keep its placement semantics frozen: a behavioural change belongs in
//! `Fabric`, with a matching update here only when the simulated timing
//! model itself is deliberately changed.

use std::collections::BTreeMap;

use sva_common::{
    ArbitrationPolicy, Cycles, InitiatorClass, InitiatorId, InitiatorStats, MemPortReq, PortTiming,
    TimedQueue,
};
use sva_mem::{ChannelStats, FabricConfig, GrantOutcome};

/// The data-bus timeline, channel queues and accounting of one DRAM channel
/// under the reference engine.
#[derive(Debug)]
struct NaiveChannelTimeline {
    /// Bus reservations keyed by `(start, insertion seq)` with
    /// `(end, owner slot, request priority)` values — the start-keyed map
    /// the indexed engine replaced.
    reservations: BTreeMap<(u64, u64), (u64, usize, u8)>,
    /// Longest single reservation seen, bounding how far below a placement
    /// point a conflicting interval can start.
    max_reservation_len: u64,
    /// Monotonic insertion counter disambiguating equal-start reservations.
    reservation_seq: u64,
    req: TimedQueue,
    rsp: TimedQueue,
    stats: ChannelStats,
}

impl NaiveChannelTimeline {
    fn new(req_depth: usize, rsp_depth: usize) -> Self {
        Self {
            reservations: BTreeMap::new(),
            max_reservation_len: 0,
            reservation_seq: 0,
            req: TimedQueue::new(req_depth),
            rsp: TimedQueue::new(rsp_depth),
            stats: ChannelStats::default(),
        }
    }
}

/// The reference arbitration/accounting engine (see the module docs).
#[derive(Debug)]
pub struct NaiveFabric {
    config: FabricConfig,
    initiators: Vec<(InitiatorId, InitiatorStats)>,
    channels: Vec<NaiveChannelTimeline>,
    served: Vec<u64>,
    timed_order: Vec<usize>,
    last_owner: Option<InitiatorId>,
    grants: u64,
    grant_switches: u64,
}

impl NaiveFabric {
    /// Creates a reference fabric with the given configuration.
    pub fn new(config: FabricConfig) -> Self {
        let n = config.num_channels.max(1);
        let channels = (0..n)
            .map(|_| NaiveChannelTimeline::new(config.req_queue_depth, config.rsp_queue_depth))
            .collect();
        Self {
            config,
            initiators: Vec::new(),
            channels,
            served: Vec::new(),
            timed_order: Vec::new(),
            last_owner: None,
            grants: 0,
            grant_switches: 0,
        }
    }

    /// Registers `id` if needed and returns its slot index — the linear
    /// registry scan the indexed engine replaced with a direct map.
    fn slot(&mut self, id: InitiatorId) -> usize {
        if let Some(i) = self.initiators.iter().position(|(x, _)| *x == id) {
            i
        } else {
            self.initiators.push((id, InitiatorStats::default()));
            self.served.push(0);
            self.initiators.len() - 1
        }
    }

    /// The weight of `slot` under the weighted policy — the `timed_order`
    /// position scan the indexed engine replaced with a cached weight. Host
    /// and PTW slots weigh 1.
    fn weight_of(&self, slot: usize) -> u32 {
        if !matches!(self.initiators[slot].0, InitiatorId::Dma { .. }) {
            return 1;
        }
        let idx = self
            .timed_order
            .iter()
            .position(|&s| s == slot)
            .unwrap_or(self.timed_order.len());
        self.config.policy.weight(idx)
    }

    fn queues_behind(&self, slot: usize, prio: u8, occ: u64, owner: usize, owner_prio: u8) -> bool {
        if owner == slot {
            return false;
        }
        match &self.config.policy {
            ArbitrationPolicy::RoundRobin => true,
            ArbitrationPolicy::FixedPriority(_) => owner_prio >= prio,
            ArbitrationPolicy::Weighted(_) => {
                let me = (self.served[slot] + occ) as u128 * self.weight_of(owner) as u128;
                let them = self.served[owner] as u128 * self.weight_of(slot) as u128;
                me >= them
            }
        }
    }

    /// Admits one access through the split-transaction flow of its channel
    /// — the exact contract of `Fabric::admit`, placed by the
    /// original one-conflict-at-a-time start-window scan.
    pub fn admit(&mut self, req: &MemPortReq, timing: PortTiming) -> GrantOutcome {
        let slot = self.slot(req.initiator);
        {
            let stats = &mut self.initiators[slot].1;
            if req.dir.is_write() {
                stats.writes += 1;
            } else {
                stats.reads += 1;
            }
            if req.burst {
                stats.bursts += 1;
            }
            stats.bytes += req.len;
            stats.occupancy_cycles += timing.occupancy.raw();
        }
        let channel = sva_mem::channels::channel_for(req.addr, self.channels.len());
        {
            let ch = &mut self.channels[channel].stats;
            ch.grants += 1;
            ch.bytes += req.len;
            ch.occupancy_cycles += timing.occupancy.raw();
        }

        let arrival = req.arrival.raw();
        let occupancy = timing.occupancy.raw();
        let participates = self.config.queues_bounded()
            && (req.initiator.class() == InitiatorClass::Device || self.config.timed_host_ptw);

        let admitted = if participates {
            self.channels[channel].req.admission_at(arrival)
        } else {
            arrival
        };
        let issue_stall = admitted - arrival;

        let mut placed = admitted;
        loop {
            // A conflicting interval satisfies start < placed + occ and
            // end > placed; since no reservation is longer than
            // max_reservation_len, its start also exceeds
            // placed - max_reservation_len. Range-scan that window.
            let lo = placed.saturating_sub(self.channels[channel].max_reservation_len);
            let hi = placed + occupancy.max(1);
            let conflict = self.channels[channel]
                .reservations
                .range((lo, 0)..(hi, 0))
                .find(|(_, &(end, owner, owner_prio))| {
                    end > placed
                        && self.queues_behind(slot, req.priority, occupancy, owner, owner_prio)
                })
                .map(|(_, &(end, _, _))| end);
            if let Some(end) = conflict {
                placed = end;
                continue;
            }
            if participates {
                let rsp_free = self.channels[channel].rsp.admission_at(placed);
                if rsp_free > placed {
                    placed = rsp_free;
                    continue;
                }
            }
            break;
        }
        let mut queue = Cycles::ZERO;
        let charged = self.config.contention_enabled
            && (req.initiator.class() == InitiatorClass::Device || self.config.timed_host_ptw);
        let mut latency = timing.latency;
        if charged {
            latency += Cycles::new(placed - arrival);
        }
        self.initiators[slot].1.latency_cycles += latency.raw();
        if placed > admitted {
            queue = Cycles::new(placed - admitted);
            let stats = &mut self.initiators[slot].1;
            stats.queue_cycles += queue.raw();
            stats.contended_grants += 1;
            self.channels[channel].stats.queue_cycles += queue.raw();
        }
        if participates {
            let (_, req_occ) = self.channels[channel].req.push(admitted, placed);
            let retire = placed + occupancy + timing.latency.raw();
            let (_, rsp_occ) = self.channels[channel].rsp.push(placed, retire);
            let stats = &mut self.initiators[slot].1;
            stats.issue_stall_cycles += issue_stall;
            stats.req_queue_peak = stats.req_queue_peak.max(req_occ as u64);
            stats.rsp_queue_peak = stats.rsp_queue_peak.max(rsp_occ as u64);
            let ch = &mut self.channels[channel].stats;
            ch.issue_stall_cycles += issue_stall;
            ch.req_queue_peak = ch.req_queue_peak.max(req_occ as u64);
            ch.rsp_queue_peak = ch.rsp_queue_peak.max(rsp_occ as u64);
        }
        if occupancy > 0 {
            if matches!(req.initiator, InitiatorId::Dma { .. }) && !self.timed_order.contains(&slot)
            {
                self.timed_order.push(slot);
            }
            self.served[slot] += occupancy;
            let timeline = &mut self.channels[channel];
            timeline.reservation_seq += 1;
            timeline.reservations.insert(
                (placed, timeline.reservation_seq),
                (placed + occupancy, slot, req.priority),
            );
            timeline.max_reservation_len = timeline.max_reservation_len.max(occupancy);
        }

        if self.last_owner != Some(req.initiator) {
            if self.last_owner.is_some() {
                self.grant_switches += 1;
            }
            self.last_owner = Some(req.initiator);
        }
        self.grants += 1;
        GrantOutcome {
            queue,
            issue_stall: Cycles::new(issue_stall),
            charged,
        }
    }

    /// Statistics of one initiator, if it has accessed the fabric.
    pub fn initiator_stats(&self, id: InitiatorId) -> Option<InitiatorStats> {
        self.initiators
            .iter()
            .find(|(x, _)| *x == id)
            .map(|(_, s)| *s)
    }

    /// Sum of all per-initiator statistics.
    pub fn total(&self) -> InitiatorStats {
        let mut total = InitiatorStats::default();
        for (_, s) in &self.initiators {
            total.merge(s);
        }
        total
    }

    /// Per-channel statistics, indexed by channel.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats).collect()
    }

    /// Total grants issued since the last reset.
    pub const fn grants(&self) -> u64 {
        self.grants
    }

    /// Grants whose initiator differed from the previous grant's.
    pub const fn grant_switches(&self) -> u64 {
        self.grant_switches
    }

    /// Drops every channel's reservations while keeping all accumulated
    /// statistics (mirrors `Fabric::clear_timelines`).
    pub fn clear_timelines(&mut self) {
        for ch in &mut self.channels {
            ch.reservations.clear();
            ch.max_reservation_len = 0;
            ch.reservation_seq = 0;
            ch.req.clear_entries();
            ch.rsp.clear_entries();
        }
        for served in &mut self.served {
            *served = 0;
        }
        self.timed_order.clear();
    }
}
