//! Command-line driver of the simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_table2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The driver repeats passes of the workload until `--seconds` have passed.
//! Every pass runs in a fresh child process (this binary with `--pass`), so
//! no pass can gain from allocator, page or cache state an earlier pass
//! left behind. With `--trace 0` every pass is untraced and the end-to-end
//! metrics are their medians. With `--trace 1` untraced passes alternate
//! with traced ones (forward and reversed point order); the per-layer
//! metrics are medians over the traced passes. The last line of standard
//! output is one JSON object with the results.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::pass::{run_pass, PassOptions, PassReport};
use perfbench::points::{points, WorkloadName};
use perfbench::{END_TO_END, PER_LAYER};

/// Passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 4;

/// The kind of one pass.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum PassKind {
    Untraced,
    Traced,
    TracedReversed,
}

impl PassKind {
    const fn flag(self) -> &'static str {
        match self {
            PassKind::Untraced => "untraced",
            PassKind::Traced => "traced",
            PassKind::TracedReversed => "traced-reversed",
        }
    }

    fn parse(flag: &str) -> Option<Self> {
        [
            PassKind::Untraced,
            PassKind::Traced,
            PassKind::TracedReversed,
        ]
        .into_iter()
        .find(|k| k.flag() == flag)
    }
}

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
    pass: Option<PassKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: WorkloadName::PaperTable2,
        seed: 1,
        seconds: 10,
        trace: false,
        pass: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = WorkloadName::parse(&value).ok_or_else(bad)?,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--pass" => args.pass = Some(PassKind::parse(&value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.pass {
        Some(kind) => child(&args, kind),
        None => driver(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one pass and writes its numbers to standard output, one
/// `t|c <name> <value>` line each (`t` = host time, `c` = count).
fn child(args: &Args, kind: PassKind) -> Result<(), String> {
    let opts = PassOptions {
        seed: args.seed,
        traced: kind != PassKind::Untraced,
        reversed: kind == PassKind::TracedReversed,
    };
    let report = run_pass(args.workload, opts, &|k| k.paper_workload());
    let mut out = String::new();
    for (name, v) in &report.times {
        out.push_str(&format!("t {name} {v}\n"));
    }
    out.push_str(&format!("t peak_rss_mb {}\n", peak_rss_mb()?));
    for (name, v) in &report.counts {
        out.push_str(&format!("c {name} {v}\n"));
    }
    print!("{out}");
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one pass in a child process and parses its report.
fn spawn_pass(args: &Args, kind: PassKind) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--pass", kind.flag(), "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} pass exited with {}",
            kind.flag(),
            output.status
        ));
    }
    let mut report = PassReport::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut f = line.split(' ');
        let (Some(tag), Some(name), Some(value), None) = (f.next(), f.next(), f.next(), f.next())
        else {
            return Err(format!("malformed pass output: {line}"));
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("malformed pass output: {line}"))?;
        let map = match tag {
            "t" => &mut report.times,
            "c" => &mut report.counts,
            _ => return Err(format!("malformed pass output: {line}")),
        };
        map.insert(name.to_string(), value);
    }
    Ok(report)
}

/// The `q` quantile of the non-empty `values` (linear interpolation).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The values of time `name` over `passes`.
fn series(passes: &[&PassReport], name: &str) -> Vec<f64> {
    passes
        .iter()
        .filter_map(|p| p.times.get(name).copied())
        .collect()
}

fn median(passes: &[&PassReport], name: &str) -> f64 {
    let values = series(passes, name);
    if values.is_empty() {
        return 0.0;
    }
    quantile(&values, 0.5)
}

fn driver(args: &Args) -> Result<(), String> {
    let schedule: &[PassKind] = if args.trace {
        &[
            PassKind::Untraced,
            PassKind::Traced,
            PassKind::Untraced,
            PassKind::TracedReversed,
        ]
    } else {
        &[PassKind::Untraced]
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<(PassKind, PassReport)> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let kind = schedule[passes.len() % schedule.len()];
        passes.push((kind, spawn_pass(args, kind)?));
    }

    // Every simulated count must repeat exactly across passes: the
    // simulator is deterministic, and tracing or point order must not
    // change what it simulates.
    let mut first: BTreeMap<&str, f64> = BTreeMap::new();
    let mut mismatches = Vec::new();
    for (_, p) in &passes {
        for (name, &v) in &p.counts {
            let seen = *first.entry(name.as_str()).or_insert(v);
            if seen != v && !mismatches.contains(name) {
                mismatches.push(name.clone());
            }
        }
    }
    let attempted: f64 = passes.iter().map(|(_, p)| p.counts["soc.points"]).sum();
    let failed: f64 = passes
        .iter()
        .map(|(_, p)| p.counts["soc.points_failed"])
        .sum();
    for name in &mismatches {
        eprintln!("perfbench: {name} differs between passes of one seed");
    }

    let select = |pred: fn(PassKind) -> bool| -> Vec<&PassReport> {
        passes
            .iter()
            .filter(|(k, _)| pred(*k))
            .map(|(_, p)| p)
            .collect()
    };
    let untraced = select(|k| k == PassKind::Untraced);
    let traced = select(|k| k != PassKind::Untraced);
    let forward = select(|k| k == PassKind::Traced);
    let reversed = select(|k| k == PassKind::TracedReversed);

    println!(
        "workload {}: {} points per pass, {} passes ({} untraced, {} traced) in {:.1} s, seed {}",
        args.workload.name(),
        points(args.workload).len(),
        passes.len(),
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        args.seed
    );
    for (name, unit) in END_TO_END {
        let v = series(&untraced, name);
        let n = v.len();
        print!(
            "{name:<32} {:>14.6} {unit:<9} (q1 {:.6}, q3 {:.6}",
            quantile(&v, 0.5),
            quantile(&v, 0.25),
            quantile(&v, 0.75)
        );
        // The highest percentile with at least ten passes above it.
        if n >= 20 {
            let q = 1.0 - 10.0 / n as f64;
            print!(", p{:.0} {:.6}", q * 100.0, quantile(&v, q));
        }
        println!(", n {n})");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let wall = median(&untraced, "wall_s");
        // Each forward traced pass directly follows an untraced pass of the
        // same point order; the median of the pairwise differences cancels
        // drift in the host's speed.
        let overheads: Vec<f64> = passes
            .windows(2)
            .filter(|w| w[0].0 == PassKind::Untraced && w[1].0 == PassKind::Traced)
            .map(|w| w[1].1.times["wall_s"] - w[0].1.times["wall_s"])
            .collect();
        let coverage: Vec<f64> = traced
            .iter()
            .map(|p| (p.times["soc.boot_s"] + p.times["soc.run_s"]) / p.times["wall_s"])
            .collect();
        let count = |name: &str| first.get(name).copied().unwrap_or(0.0);
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_s" => quantile(&overheads, 0.5),
                "soc.coverage" => quantile(&coverage, 0.5),
                "sim.mcycles_per_s" => count("sim.cycles") / wall / 1e6,
                "fail_ratio" => failed / attempted,
                _ if unit == "s" => median(&traced, name),
                _ => count(name),
            };
            metrics.push((name, value, unit));
        }
        for (name, value, unit) in &metrics {
            println!("{name:<32} {value:>14.6} {unit}");
        }
        print_breakdown(args.workload, &forward, &reversed);
    } else {
        println!("{:<32} {:>14.6} ratio", "fail_ratio", failed / attempted);
        for (name, unit) in END_TO_END {
            metrics.push((name, median(&untraced, name), unit));
        }
    }

    let correct = failed == 0.0 && mismatches.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Prints each point's host time and layer split: medians over the
/// forward traced passes, plus the point's host time and minor page faults
/// when the pass runs in reverse, which separates a point's own cost from
/// first-touch cost that depends on its position in the pass.
fn print_breakdown(workload: WorkloadName, forward: &[&PassReport], reversed: &[&PassReport]) {
    const COLUMNS: [&str; 6] = [
        "boot",
        "compute",
        "init",
        "reference",
        "kernel_other",
        "sim_self",
    ];
    print!(
        "{:<26} {:>9} {:>9} {:>8} {:>8}",
        "point (host ms)", "forward", "reversed", "flt fwd", "flt rev"
    );
    for c in COLUMNS {
        print!(" {c:>12}");
    }
    println!();
    for (idx, point) in points(workload).iter().enumerate() {
        let at =
            |passes: &[&PassReport], col: &str| median(passes, &format!("point.{idx:02}.{col}"));
        print!(
            "{:<26} {:>9.3} {:>9.3} {:>8.0} {:>8.0}",
            point.label(),
            at(forward, "host_s") * 1e3,
            at(reversed, "host_s") * 1e3,
            at(forward, "minflt"),
            at(reversed, "minflt")
        );
        for c in COLUMNS {
            print!(" {:>12.3}", at(forward, &format!("{c}_s")) * 1e3);
        }
        println!();
    }
}
