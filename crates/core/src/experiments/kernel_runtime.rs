//! Table II / Figure 4: device runtime, DMA share and IOMMU overhead per
//! kernel, DRAM latency and platform variant.
//!
//! For every kernel and DRAM latency the experiment runs the three platform
//! variants (*Baseline*, *IOMMU*, *IOMMU + LLC*), measuring only the
//! accelerator's execution (offload and synchronisation time excluded, as in
//! the paper). Table II reports absolute cycles and the share of time spent
//! waiting for DMA; Figure 4 reports the same data normalised to the
//! baseline, with the IOMMU overhead percentage annotated.

use sva_common::Result;
use sva_kernels::KernelKind;

use super::{run_point, Point};
use crate::config::{PlatformConfig, SocVariant};
use crate::offload::OffloadRunner;
use crate::report::{percent, sci, TextTable};

/// The full sweep.
#[derive(Clone, Debug, Default)]
pub struct KernelRuntimeResult {
    /// All measurement points: one per kernel, DRAM latency and variant,
    /// in that order.
    pub points: Vec<Point>,
}

impl KernelRuntimeResult {
    /// The point that ran `kernel` on `config`.
    pub fn get(&self, kernel: &str, config: &PlatformConfig) -> Option<&Point> {
        self.points
            .iter()
            .find(|p| p.report.kernel == kernel && p.config == *config)
    }

    /// Runtime of `point` relative to the baseline that ran its kernel at
    /// its DRAM latency (Figure 4); the IOMMU overhead is this minus one.
    pub fn relative_to_baseline(&self, point: &Point) -> Option<f64> {
        let latency = point.config.mem.dram_latency.raw();
        let base = self.get(&point.report.kernel, &PlatformConfig::baseline(latency))?;
        Some(point.report.stats.total.raw() as f64 / base.report.stats.total.raw() as f64)
    }

    /// Renders the Table II layout: one block of rows per kernel, one column
    /// per latency, three variant rows (cycles and %DMA).
    pub fn render_table2(&self) -> String {
        let latencies = distinct(&self.points, |p| p.config.mem.dram_latency.raw());
        let mut header = vec!["Kernel".to_string(), "Config".to_string()];
        for l in &latencies {
            header.push(format!("{l} cyc"));
            header.push(format!("%DMA@{l}"));
        }
        let mut table = TextTable::new(header);
        for kernel in distinct(&self.points, |p| p.report.kernel.as_str()) {
            for variant in SocVariant::ALL {
                let mut row = vec![kernel.to_string(), variant.label().to_string()];
                for &l in &latencies {
                    if let Some(p) = self.get(kernel, &PlatformConfig::variant(variant, l)) {
                        row.push(sci(p.report.stats.total.raw()));
                        row.push(percent(p.report.stats.dma_fraction()));
                    } else {
                        row.push("-".to_string());
                        row.push("-".to_string());
                    }
                }
                table.row(row);
            }
        }
        table.render()
    }

    /// Renders the Figure 4 layout: runtime relative to the baseline plus the
    /// overhead annotation for the IOMMU variants, one row per point.
    pub fn render_fig4(&self) -> String {
        let mut table = TextTable::new(vec![
            "Kernel",
            "Latency",
            "Config",
            "Relative runtime",
            "IOMMU overhead",
        ]);
        for p in &self.points {
            let Some(rel) = self.relative_to_baseline(p) else {
                continue;
            };
            let variant = p.variant();
            let overhead = if variant == SocVariant::Baseline {
                "-".to_string()
            } else {
                percent(rel - 1.0)
            };
            table.row(vec![
                p.report.kernel.clone(),
                p.config.mem.dram_latency.raw().to_string(),
                variant.label().to_string(),
                format!("{rel:.3}"),
                overhead,
            ]);
        }
        table.render()
    }
}

/// The distinct values of `key` over `points`, in order of first
/// appearance.
fn distinct<'a, T: PartialEq>(points: &'a [Point], key: impl Fn(&'a Point) -> T) -> Vec<T> {
    let mut seen = Vec::new();
    for value in points.iter().map(key) {
        if !seen.contains(&value) {
            seen.push(value);
        }
    }
    seen
}

/// Runs the sweep for the given kernels and latencies.
///
/// `paper_size` selects the paper's problem sizes; `false` selects reduced
/// sizes for fast functional testing.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run(
    kernels: &[KernelKind],
    latencies: &[u64],
    paper_size: bool,
) -> Result<KernelRuntimeResult> {
    // One runner for the sweep: each kernel's inputs and reference are
    // prepared once for its latency x variant points.
    let runner = OffloadRunner::new(0xBEEF);
    let mut points = Vec::new();
    for &kind in kernels {
        let workload = if paper_size {
            kind.paper_workload()
        } else {
            kind.small_workload()
        };
        for &latency in latencies {
            for variant in SocVariant::ALL {
                let config = PlatformConfig::variant(variant, latency);
                points.push(run_point(&runner, workload.as_ref(), config)?);
            }
        }
    }
    Ok(KernelRuntimeResult { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_reproduces_the_papers_shape() {
        let result = run(&[KernelKind::Gemm, KernelKind::Heat3d], &[200, 1000], false).unwrap();
        assert_eq!(result.points.len(), 2 * 2 * 3);
        assert!(result.points.iter().all(|p| p.report.verified));
        let at = |kernel, variant, latency| {
            result
                .get(kernel, &PlatformConfig::variant(variant, latency))
                .unwrap()
        };
        let dma = |p: &Point| p.report.stats.dma_fraction();

        // DMA share grows with latency for the baseline.
        for kernel in ["gemm", "heat3d"] {
            let low = at(kernel, SocVariant::Baseline, 200);
            let high = at(kernel, SocVariant::Baseline, 1000);
            assert!(dma(high) >= dma(low), "{kernel}");
            assert!(high.report.stats.total > low.report.stats.total, "{kernel}");
        }

        // heat3d is more memory bound than gemm.
        let gemm = at("gemm", SocVariant::Baseline, 1000);
        let heat = at("heat3d", SocVariant::Baseline, 1000);
        assert!(dma(heat) > dma(gemm));

        // The IOMMU without LLC costs more than with the LLC, which is close
        // to the baseline.
        for kernel in ["gemm", "heat3d"] {
            let overhead = |variant| {
                result
                    .relative_to_baseline(at(kernel, variant, 1000))
                    .unwrap()
                    - 1.0
            };
            let no_llc = overhead(SocVariant::Iommu);
            let with_llc = overhead(SocVariant::IommuLlc);
            assert!(no_llc > with_llc, "{kernel}: {no_llc} !> {with_llc}");
            assert!(
                with_llc < 0.10,
                "{kernel}: LLC overhead should be small, got {with_llc}"
            );
        }
    }

    #[test]
    fn rendering_contains_all_variants() {
        let result = run(&[KernelKind::Gesummv], &[200], false).unwrap();
        assert!(result.points.iter().all(|p| p.report.verified));
        let t2 = result.render_table2();
        let f4 = result.render_fig4();
        for label in ["Baseline", "IOMMU", "IOMMU+LLC"] {
            assert!(t2.contains(label));
            assert!(f4.contains(label));
        }
    }
}
