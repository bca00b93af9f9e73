//! Deterministic-replay guarantee of the serving sweep: the JSON payload
//! must be bit-identical regardless of how many worker threads map the
//! grid. Every point is a pure function of its config and the shared
//! calibration, and `par_map` preserves input order, so neither the
//! thread count nor scheduling luck may leak into the result (the
//! `SVA_BENCH_THREADS` knob must be a pure performance dial).

use sva_bench::par::par_map;
use sva_soc::experiments::serving;
use sva_soc::experiments::ServingSweepResult;

/// The sweep JSON with `SVA_BENCH_THREADS` pinned to `workers`. This binary
/// holds a single test, so no other thread reads the environment while it
/// is set.
fn sweep_json(workers: usize) -> String {
    std::env::set_var("SVA_BENCH_THREADS", workers.to_string());
    let services = serving::calibrate().expect("service calibration");
    let points = par_map(serving::grid(true), |config| {
        serving::run_point(&config, &services)
    });
    ServingSweepResult { points }.to_json()
}

#[test]
fn serving_sweep_replays_identically_across_worker_counts() {
    let serial = sweep_json(1);
    let parallel = sweep_json(4);
    assert_eq!(
        serial, parallel,
        "serving sweep JSON differs between 1 and 4 workers"
    );
    assert!(serial.contains("\"experiment\": \"serving_sweep\""));
}
