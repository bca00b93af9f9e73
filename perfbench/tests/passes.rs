//! The benchmark's own checks, run at reduced kernel sizes:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;

use perfbench::pass::{run_pass, PassOptions, PassReport};
use perfbench::points::{points, WorkloadName};
use perfbench::{END_TO_END, PER_LAYER};
use sva_cluster::DeviceKernel;
use sva_common::rng::DeterministicRng;
use sva_common::{Error, Iova, Result};
use sva_host::HostKernelCost;
use sva_kernels::{BufferSpec, KernelKind, Workload};

fn small_pass(workload: WorkloadName, seed: u64, traced: bool, reversed: bool) -> PassReport {
    let opts = PassOptions {
        seed,
        traced,
        reversed,
    };
    run_pass(workload, opts, &|k| k.small_workload())
}

/// The counts an untraced pass reports too (traced passes add the
/// adaptors' tile count).
fn shared_counts(report: &PassReport) -> BTreeMap<String, f64> {
    let mut counts = report.counts.clone();
    counts.remove("kernels.tiles");
    counts
}

#[test]
fn workloads_have_the_documented_point_counts() {
    let counts: Vec<usize> = WorkloadName::ALL.map(|w| points(w).len()).to_vec();
    assert_eq!(counts, [36, 30, 16]);
    for w in WorkloadName::ALL {
        for p in points(w) {
            assert!(w.classes().contains(&p.class), "{}", p.label());
        }
    }
}

#[test]
fn tracing_and_point_order_leave_every_simulated_count_unchanged() {
    for w in WorkloadName::ALL {
        let plain = small_pass(w, 1, false, false);
        let traced = small_pass(w, 1, true, false);
        let reversed = small_pass(w, 1, true, true);
        assert_eq!(plain.counts["soc.points_failed"], 0.0, "{w:?}");
        assert!(plain.counts["sim.cycles"] > 0.0, "{w:?}");
        assert_eq!(
            plain.counts["sim.digest"], traced.counts["sim.digest"],
            "{w:?}: tracing changed the simulation"
        );
        assert_eq!(shared_counts(&plain), shared_counts(&traced), "{w:?}");
        assert_eq!(
            traced.counts, reversed.counts,
            "{w:?}: two traced passes must repeat every count"
        );
        assert!(traced.counts["kernels.tiles"] > 0.0);
    }
}

#[test]
fn every_workload_verifies_at_a_second_seed_with_new_inputs() {
    for w in WorkloadName::ALL {
        let first = small_pass(w, 1, false, false);
        let second = small_pass(w, 7, false, false);
        assert_eq!(second.counts["soc.points_failed"], 0.0, "{w:?}");
        assert_ne!(
            first.counts["sim.digest"], second.counts["sim.digest"],
            "{w:?}: the seed must reach the inputs"
        );
    }
}

#[test]
fn traced_pass_reports_every_per_layer_metric() {
    let workload = WorkloadName::OffloadFlows;
    let report = small_pass(workload, 1, true, false);
    // Computed by the driver from several passes.
    let derived = ["sim.mcycles_per_s", "trace.overhead_s", "soc.coverage"];
    let classes: Vec<String> = WorkloadName::ALL
        .iter()
        .flat_map(|w| w.classes())
        .map(|c| format!("soc.run_{c}_s"))
        .collect();
    for (name, unit) in PER_LAYER {
        if derived.contains(&name) {
            continue;
        }
        let map = if unit == "s" {
            &report.times
        } else {
            &report.counts
        };
        let own_class = workload
            .classes()
            .iter()
            .any(|c| name == format!("soc.run_{c}_s"));
        let expected = own_class || !classes.iter().any(|c| c == name);
        assert_eq!(map.contains_key(name), expected, "{name}");
    }
    assert_eq!(
        classes.len(),
        PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("soc.run_") && *n != "soc.run_s")
            .count(),
        "PER_LAYER lists every traffic class"
    );
    let t = &report.times;
    let inner: f64 = [
        "kernels.compute_s",
        "kernels.plan_s",
        "kernels.tile_io_s",
        "kernels.init_s",
        "kernels.reference_s",
        "kernels.verify_s",
        "soc.sim_self_s",
    ]
    .iter()
    .map(|k| t[*k])
    .sum();
    assert!(
        (inner - t["soc.run_s"]).abs() < 1e-6,
        "the split covers soc.run_s"
    );
    let gain = report.counts["accuracy.fig2_zero_copy_gain"];
    assert!(gain > 0.0 && gain < 1.0, "{gain}");
}

/// A workload whose results never verify.
struct FailingVerify(Box<dyn Workload>);

impl Workload for FailingVerify {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn params(&self) -> String {
        self.0.params()
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        self.0.buffers()
    }
    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        self.0.init(rng)
    }
    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.0.expected(initial)
    }
    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel> {
        self.0.device_kernel(device_ptrs)
    }
    fn host_cost(&self) -> HostKernelCost {
        self.0.host_cost()
    }
    fn flops(&self) -> u64 {
        self.0.flops()
    }
    fn verify(&self, _expected: &[Vec<f32>], _actual: &[Vec<f32>]) -> Result<()> {
        Err(Error::VerificationFailed {
            kernel: self.name().to_string(),
            index: 0,
        })
    }
}

#[test]
fn failed_verification_counts_in_fail_ratio_and_the_pass_continues() {
    let make = |k: KernelKind| -> Box<dyn Workload> {
        let wl = k.small_workload();
        if k == KernelKind::Gesummv {
            Box::new(FailingVerify(wl))
        } else {
            wl
        }
    };
    let opts = PassOptions {
        seed: 1,
        traced: false,
        reversed: false,
    };
    let report = run_pass(WorkloadName::PaperTable2, opts, &make);
    assert_eq!(
        report.counts["soc.points"], 36.0,
        "every point was attempted"
    );
    assert_eq!(report.counts["soc.points_failed"], 9.0);
    assert!(report.counts["fail_ratio"] > 0.0);
    assert_eq!(report.counts["fail_ratio"], 0.25);
}

#[test]
fn benchmark_json_declares_every_metric_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares metrics the code does not report"
    );
    for w in WorkloadName::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\"", w.name())));
    }
}
