//! Criterion benchmarks wrapping the paper's experiments at reduced problem
//! sizes.
//!
//! These keep the experiment entry points exercised under `cargo bench` and
//! give wall-clock numbers for the simulator itself; the paper-style cycle
//! tables are produced by the binaries in `src/bin/`.

use criterion::{criterion_group, criterion_main, Criterion};

use sva_kernels::KernelKind;
use sva_soc::config::{PlatformConfig, SocVariant};
use sva_soc::experiments::{copy_vs_map, kernel_runtime, offload_breakdown, ptw_time, serving};
use sva_soc::offload::OffloadRunner;
use sva_soc::platform::Platform;

fn bench_table2_sweep(c: &mut Criterion) {
    c.bench_function("table2/gemm64_two_latencies_three_variants", |b| {
        b.iter(|| {
            kernel_runtime::run(&[KernelKind::Gemm], &[200, 1000], false).expect("table II sweep")
        })
    });
}

fn bench_fig2_breakdown(c: &mut Criterion) {
    c.bench_function("fig2/axpy8192_offload_breakdown", |b| {
        b.iter(|| offload_breakdown::run(8_192, 200).expect("figure 2"))
    });
}

fn bench_fig3_copy_vs_map(c: &mut Criterion) {
    c.bench_function("fig3/copy_vs_map_16pages", |b| {
        b.iter(|| copy_vs_map::run(&[16], &[200, 1000]).expect("figure 3"))
    });
}

fn bench_fig5_ptw(c: &mut Criterion) {
    c.bench_function("fig5/ptw_time_axpy8192", |b| {
        b.iter(|| ptw_time::run(8_192, &[600]).expect("figure 5"))
    });
}

fn bench_device_only_per_variant(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_only/gesummv128");
    for variant in SocVariant::ALL {
        group.bench_function(variant.label(), |b| {
            b.iter(|| {
                let workload = KernelKind::Gesummv.small_workload();
                let mut platform =
                    Platform::new(PlatformConfig::variant(variant, 600)).expect("platform");
                OffloadRunner::new(1)
                    .run_device_only(&mut platform, workload.as_ref())
                    .expect("device run")
            })
        });
    }
    group.finish();
}

fn bench_serving_point(c: &mut Criterion) {
    let services = serving::calibrate().expect("service calibration");
    let config = serving::grid(false)
        .into_iter()
        .find(|p| p.utilization > 1.0)
        .expect("saturated grid point");
    c.bench_function("serving/poisson_saturated_point", |b| {
        b.iter(|| serving::run_point(&config, &services))
    });
}

criterion_group!(
    name = experiments;
    config = Criterion::default().sample_size(10);
    targets =
        bench_table2_sweep,
        bench_fig2_breakdown,
        bench_fig3_copy_vs_map,
        bench_fig5_ptw,
        bench_device_only_per_variant,
        bench_serving_point
);
criterion_main!(experiments);
