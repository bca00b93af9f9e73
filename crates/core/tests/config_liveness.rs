//! Config liveness: every settable value of [`PlatformConfig`] moves
//! something.
//!
//! A settable value is each leaf field reachable from `PlatformConfig`, each
//! `Option`'s presence, and each `Vec` or enum, counted once. For every one
//! the test holds a perturbation, applies it to a set of small scenarios and
//! runs each on a fresh platform. A run's fingerprint hashes its result
//! together with the memory, fabric, channel, LLC, host-stream, IOMMU and L1
//! statistics it leaves behind. A value is live as soon as one scenario's
//! fingerprint changes; the test fails naming every value that moved
//! nothing. A perturbation that leaves the config invalid, or that targets
//! a component the scenario lacks, does not count.
//!
//! [`settable_values`] destructures every config struct without `..`, so a
//! new field fails to compile there until it is listed, and the test fails
//! until the new value has a perturbation that moves something.

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use sva_cluster::ClusterConfig;
use sva_common::{ArbitrationPolicy, Cycles, ReplacementPolicy, TlbOrg, KIB};
use sva_host::{HostTrafficConfig, InterferenceLevel};
use sva_iommu::{IommuConfig, TlbHierarchyConfig, TlbLevelConfig};
use sva_kernels::KernelKind;
use sva_mem::llc::LlcRequester;
use sva_mem::{FabricConfig, LlcConfig, MemSysConfig};
use sva_soc::{OffloadMode, OffloadRunner, Platform, PlatformConfig};

/// The paths of the listed structs' fields, each prefixed with its struct's
/// path. Each pattern names every field and has no `..`, so a new field is
/// a compile error here.
macro_rules! field_paths {
    ($($prefix:literal: $ty:ident { $($field:ident),* $(,)? }),* $(,)?) => {{
        let mut paths: Vec<&'static str> = Vec::new();
        $({
            #[allow(dead_code)]
            fn exhaustive($ty { $($field: _),* }: $ty) {}
            paths.extend([$(concat!($prefix, stringify!($field))),*]);
        })*
        paths
    }};
}

/// `Option`-valued fields holding a struct: each one's presence is a
/// settable value, on top of its fields.
const OPTIONAL: [&str; 4] = ["mem.llc", "iommu", "iommu.tlb.l1", "host_traffic"];

/// The path of every settable value: each leaf field, and each `Option`'s
/// presence. A field holding a struct is not a value itself; its fields
/// are.
fn settable_values() -> BTreeSet<&'static str> {
    let paths = field_paths! {
        "": PlatformConfig { mem, iommu, cluster, interference, host_traffic, num_clusters },
        "mem.": MemSysConfig { dram_latency, llc, fabric },
        "mem.llc.": LlcConfig { serves_dma },
        "mem.fabric.": FabricConfig { contention_enabled, num_channels, policy, timed_host_ptw, req_queue_depth, rsp_queue_depth },
        "iommu.": IommuConfig { tlb, ptw_batching, demand_paging },
        "iommu.tlb.": TlbHierarchyConfig { l1, l2 },
        "iommu.tlb.l1.": TlbLevelConfig { org, policy, lookup_latency },
        "iommu.tlb.l1.org.": TlbOrg { sets, ways },
        "iommu.tlb.l2.": TlbLevelConfig { org, policy, lookup_latency },
        "iommu.tlb.l2.org.": TlbOrg { sets, ways },
        "cluster.": ClusterConfig { dma_outstanding, double_buffer },
        "host_traffic.": HostTrafficConfig { accesses, gap, len, stride, region_bytes, region_offset },
    };
    let is_struct = |p: &str| paths.iter().any(|q| q.starts_with(&format!("{p}.")));
    paths
        .iter()
        .copied()
        .filter(|&p| OPTIONAL.contains(&p) || !is_struct(p))
        .collect()
}

/// Moves one settable value. Returns `false` when the config lacks the
/// component holding it.
type Perturb = fn(&mut PlatformConfig) -> bool;

fn llc(c: &mut PlatformConfig) -> Option<&mut LlcConfig> {
    c.mem.llc.as_mut()
}

fn iommu(c: &mut PlatformConfig) -> Option<&mut IommuConfig> {
    c.iommu.as_mut()
}

fn l1(c: &mut PlatformConfig) -> Option<&mut TlbLevelConfig> {
    iommu(c)?.tlb.l1.as_mut()
}

fn l2(c: &mut PlatformConfig) -> Option<&mut TlbLevelConfig> {
    Some(&mut iommu(c)?.tlb.l2)
}

fn traffic(c: &mut PlatformConfig) -> Option<&mut HostTrafficConfig> {
    c.host_traffic.as_mut()
}

/// Swaps `option` between `None` and `Some(value)`.
fn toggle<T>(option: &mut Option<T>, value: T) -> bool {
    *option = match option {
        Some(_) => None,
        None => Some(value),
    };
    true
}

fn other_policy(policy: ReplacementPolicy) -> ReplacementPolicy {
    match policy {
        ReplacementPolicy::TrueLru => ReplacementPolicy::Fifo,
        _ => ReplacementPolicy::TrueLru,
    }
}

/// A bounded queue depth for an unbounded one, one slot for a bounded one.
fn other_depth(depth: usize) -> usize {
    if depth == usize::MAX {
        4
    } else {
        1
    }
}

/// One perturbation per settable value, keyed by its path.
const PERTURBATIONS: &[(&str, Perturb)] = &[
    ("mem.dram_latency", |c| {
        c.mem.dram_latency += Cycles::new(100);
        true
    }),
    ("mem.llc", |c| toggle(&mut c.mem.llc, LlcConfig::default())),
    ("mem.llc.serves_dma", |c| {
        llc(c).map(|l| l.serves_dma = !l.serves_dma).is_some()
    }),
    ("mem.fabric.contention_enabled", |c| {
        c.mem.fabric.contention_enabled = !c.mem.fabric.contention_enabled;
        true
    }),
    ("mem.fabric.num_channels", |c| {
        c.mem.fabric.num_channels += 1;
        true
    }),
    ("mem.fabric.policy", |c| {
        c.mem.fabric.policy = match c.mem.fabric.policy {
            ArbitrationPolicy::RoundRobin => {
                ArbitrationPolicy::FixedPriority((0..c.num_clusters as u8).collect())
            }
            _ => ArbitrationPolicy::RoundRobin,
        };
        true
    }),
    ("mem.fabric.timed_host_ptw", |c| {
        c.mem.fabric.timed_host_ptw = !c.mem.fabric.timed_host_ptw;
        true
    }),
    ("mem.fabric.req_queue_depth", |c| {
        c.mem.fabric.req_queue_depth = other_depth(c.mem.fabric.req_queue_depth);
        true
    }),
    ("mem.fabric.rsp_queue_depth", |c| {
        c.mem.fabric.rsp_queue_depth = other_depth(c.mem.fabric.rsp_queue_depth);
        true
    }),
    ("iommu", |c| toggle(&mut c.iommu, IommuConfig::default())),
    ("iommu.tlb.l1", |c| {
        let two_level = TlbHierarchyConfig::two_level().l1.unwrap();
        iommu(c).map(|i| toggle(&mut i.tlb.l1, two_level)).is_some()
    }),
    ("iommu.tlb.l1.org.sets", |c| {
        l1(c).map(|l| l.org.sets *= 2).is_some()
    }),
    ("iommu.tlb.l1.org.ways", |c| {
        l1(c).map(|l| l.org.ways = 1).is_some()
    }),
    ("iommu.tlb.l1.policy", |c| {
        l1(c).map(|l| l.policy = other_policy(l.policy)).is_some()
    }),
    ("iommu.tlb.l1.lookup_latency", |c| {
        l1(c).map(|l| l.lookup_latency += Cycles::new(1)).is_some()
    }),
    ("iommu.tlb.l2.org.sets", |c| {
        l2(c).map(|l| l.org.sets *= 2).is_some()
    }),
    ("iommu.tlb.l2.org.ways", |c| {
        l2(c).map(|l| l.org.ways = 1).is_some()
    }),
    ("iommu.tlb.l2.policy", |c| {
        l2(c).map(|l| l.policy = other_policy(l.policy)).is_some()
    }),
    ("iommu.tlb.l2.lookup_latency", |c| {
        l2(c).map(|l| l.lookup_latency += Cycles::new(1)).is_some()
    }),
    ("iommu.ptw_batching", |c| {
        iommu(c).map(|i| i.ptw_batching = !i.ptw_batching).is_some()
    }),
    ("iommu.demand_paging", |c| {
        iommu(c)
            .map(|i| i.demand_paging = !i.demand_paging)
            .is_some()
    }),
    ("cluster.dma_outstanding", |c| {
        c.cluster.dma_outstanding += 2;
        true
    }),
    ("cluster.double_buffer", |c| {
        c.cluster.double_buffer = !c.cluster.double_buffer;
        true
    }),
    ("interference", |c| {
        c.interference = match c.interference {
            InterferenceLevel::Idle => InterferenceLevel::RandomTraffic,
            InterferenceLevel::RandomTraffic => InterferenceLevel::Idle,
        };
        true
    }),
    ("host_traffic", |c| {
        toggle(&mut c.host_traffic, HostTrafficConfig::default())
    }),
    ("host_traffic.accesses", |c| {
        traffic(c).map(|t| t.accesses /= 2).is_some()
    }),
    ("host_traffic.gap", |c| {
        traffic(c).map(|t| t.gap = t.gap * 2).is_some()
    }),
    ("host_traffic.len", |c| {
        traffic(c).map(|t| t.len /= 2).is_some()
    }),
    ("host_traffic.stride", |c| {
        traffic(c).map(|t| t.stride *= 2).is_some()
    }),
    ("host_traffic.region_bytes", |c| {
        traffic(c).map(|t| t.region_bytes /= 512).is_some()
    }),
    ("host_traffic.region_offset", |c| {
        traffic(c).map(|t| t.region_offset += 4 * KIB).is_some()
    }),
    ("num_clusters", |c| {
        c.num_clusters += 1;
        true
    }),
];

/// One small run: a kernel on a platform, device-only or as a whole
/// application.
struct Scenario {
    name: &'static str,
    config: PlatformConfig,
    kernel: KernelKind,
    flow: Option<OffloadMode>,
}

impl Scenario {
    fn device(name: &'static str, config: PlatformConfig, kernel: KernelKind) -> Self {
        Self {
            name,
            config,
            kernel,
            flow: None,
        }
    }

    fn app(name: &'static str, config: PlatformConfig, mode: OffloadMode) -> Self {
        Self {
            name,
            config,
            kernel: KernelKind::Gemm,
            flow: Some(mode),
        }
    }
}

/// The scenarios, most live first: the test stops at each value's first
/// live scenario.
fn scenarios() -> Vec<Scenario> {
    let stream = HostTrafficConfig {
        accesses: 1024,
        ..HostTrafficConfig::default()
    };
    let contended = PlatformConfig::iommu_with_llc(200)
        .with_clusters(2)
        .with_fabric_contention()
        .with_memory_channels(2)
        .with_channel_depths(4, 4)
        .with_host_traffic(stream)
        .with_ptw_batching()
        .with_default_tlb_hierarchy()
        .with_demand_paging();
    vec![
        Scenario::device("contended", contended, KernelKind::Gemm),
        Scenario::app(
            "zero_copy",
            PlatformConfig::iommu_with_llc(200),
            OffloadMode::ZeroCopy,
        ),
        Scenario::app(
            "copy",
            PlatformConfig::iommu_with_llc(200),
            OffloadMode::CopyOffload,
        ),
        Scenario::app(
            "host_only",
            PlatformConfig::iommu_with_llc(200),
            OffloadMode::HostOnly,
        ),
        Scenario::device(
            "gesummv",
            PlatformConfig::iommu_with_llc(200),
            KernelKind::Gesummv,
        ),
        Scenario::device(
            "two_level_gesummv",
            PlatformConfig::iommu_with_llc(200).with_default_tlb_hierarchy(),
            KernelKind::Gesummv,
        ),
    ]
}

/// Hashes a run's result with the statistics it leaves behind, and tells
/// whether the run completed with verified results.
fn fingerprint(runner: &OffloadRunner, scenario: &Scenario, config: PlatformConfig) -> (u64, bool) {
    let mut platform = Platform::new(config).expect("a valid config boots");
    let workload = scenario.kernel.small_workload();
    let (result, verified) = match scenario.flow {
        None => {
            let report = runner.run_device_only(&mut platform, workload.as_ref());
            let verified = report.as_ref().is_ok_and(|r| r.verified);
            (format!("{report:?}"), verified)
        }
        Some(mode) => {
            let report = runner.run(&mut platform, workload.as_ref(), mode);
            let verified = report.as_ref().is_ok_and(|r| r.verified);
            (format!("{report:?}"), verified)
        }
    };
    let llc = platform.mem.llc().map(|l| {
        (
            [LlcRequester::Host, LlcRequester::Ptw, LlcRequester::Dma].map(|r| l.stats(r)),
            l.writebacks(),
        )
    });
    let text = format!(
        "{result}|{:?}|{:?}|{:?}|{llc:?}|{:?}|{:?}|{:?}",
        platform.mem.stats(),
        platform.mem.fabric_stats(),
        platform.mem.channel_stats(),
        platform.host_traffic.as_ref().map(|s| *s.stats()),
        platform.iommu_stats(),
        platform.cpu.l1_stats(),
    );
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    (hasher.finish(), verified)
}

#[test]
fn every_settable_value_has_one_perturbation() {
    let listed: Vec<&str> = PERTURBATIONS.iter().map(|&(name, _)| name).collect();
    let unique: BTreeSet<&str> = listed.iter().copied().collect();
    assert_eq!(unique.len(), listed.len(), "a value is perturbed twice");
    let values = settable_values();
    let missing: Vec<_> = values.difference(&unique).collect();
    let stale: Vec<_> = unique.difference(&values).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "values without a perturbation: {missing:?}; perturbations of no value: {stale:?}"
    );
    assert_eq!(values.len(), 32, "settable values");
}

#[test]
fn every_settable_value_moves_something() {
    let runner = OffloadRunner::new(0x11FE);
    let mut dead: Vec<&str> = PERTURBATIONS.iter().map(|&(name, _)| name).collect();
    for scenario in scenarios() {
        assert!(
            scenario.config.validate().is_ok(),
            "{}: invalid",
            scenario.name
        );
        let (base, verified) = fingerprint(&runner, &scenario, scenario.config.clone());
        assert!(
            verified,
            "{}: the unperturbed run must verify",
            scenario.name
        );
        dead.retain(|&name| {
            let perturb = PERTURBATIONS.iter().find(|&&(n, _)| n == name).unwrap().1;
            let mut config = scenario.config.clone();
            if !perturb(&mut config) || config.validate().is_err() {
                return true;
            }
            fingerprint(&runner, &scenario, config).0 == base
        });
    }
    assert!(
        dead.is_empty(),
        "settable values that moved nothing in any scenario: {dead:?}"
    );
}
