//! Sweep DRAM latency and platform variant for the gemm kernel (one row of
//! Table II).
//!
//! ```text
//! cargo run --release --example gemm_latency_sweep
//! ```
//!
//! For each DRAM latency (200 / 600 / 1000 cycles) the example measures the
//! accelerator-only runtime of a 128 × 128 gemm on the three platform
//! variants and prints the runtime, the DMA share and the IOMMU overhead
//! relative to the baseline.

use sva::kernels::{GemmWorkload, Workload};
use sva::soc::config::{PlatformConfig, SocVariant, PAPER_LATENCIES};
use sva::soc::offload::OffloadRunner;
use sva::soc::platform::Platform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = GemmWorkload::paper();
    println!("gemm {}, accelerator runtime only\n", workload.params());
    println!(
        "{:>8} {:>12} {:>14} {:>10} {:>12}",
        "latency", "config", "cycles", "%DMA", "overhead"
    );

    // One runner for the sweep: it generates the inputs and computes the
    // host reference once, for all nine points.
    let runner = OffloadRunner::new(1);
    for latency in PAPER_LATENCIES {
        let mut baseline_total = None;
        for variant in SocVariant::ALL {
            let mut platform = Platform::new(PlatformConfig::variant(variant, latency))?;
            let report = runner.run_device_only(&mut platform, &workload)?;
            assert!(report.verified, "device gemm must match the host reference");
            let total = report.stats.total.raw();
            let overhead = match baseline_total {
                None => {
                    baseline_total = Some(total);
                    "-".to_string()
                }
                Some(base) => format!("{:+.1}%", (total as f64 / base as f64 - 1.0) * 100.0),
            };
            println!(
                "{:>8} {:>12} {:>14} {:>9.1}% {:>12}",
                latency,
                variant.label(),
                total,
                report.stats.dma_fraction() * 100.0,
                overhead
            );
        }
        println!();
    }
    Ok(())
}
