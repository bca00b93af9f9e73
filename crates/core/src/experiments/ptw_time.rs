//! Figure 5: average IOMMU page-table-walk time with and without the shared
//! LLC and with and without concurrent host traffic.
//!
//! The experiment runs the axpy kernel as a zero-copy offload and records the
//! IOMMU's per-walk latency statistics for every combination of
//! `{LLC, no LLC}` × `{host idle, host random traffic}` over a DRAM-latency
//! sweep. The paper's observations to reproduce: the LLC cuts the average
//! walk time by an order of magnitude (~15× on average, staying below
//! 200 cycles even at 1000 cycles of DRAM latency), and host interference
//! adds roughly 20 % to the walk time.

use sva_common::Result;
use sva_host::InterferenceLevel;
use sva_kernels::AxpyWorkload;

use super::{run_point, Point};
use crate::config::{PlatformConfig, SocVariant};
use crate::offload::OffloadRunner;
use crate::report::TextTable;

/// The full sweep.
#[derive(Clone, Debug, Default)]
pub struct PtwResultSet {
    /// All measurement points: one per latency, IOMMU variant (without,
    /// then with the LLC) and host interference level, in that order.
    pub points: Vec<Point>,
}

impl PtwResultSet {
    /// The point that ran on `config`.
    pub fn get(&self, config: &PlatformConfig) -> Option<&Point> {
        self.points.iter().find(|p| p.config == *config)
    }

    /// Average factor by which the LLC reduces the walk time over the sweep
    /// (the paper reports ~15×), host idle.
    pub fn llc_speedup(&self) -> f64 {
        mean(self.walk_ratios(PlatformConfig::iommu_no_llc, PlatformConfig::iommu_with_llc))
    }

    /// Average slowdown caused by host interference when the LLC is present
    /// (the paper reports ~20 %), as a fraction.
    pub fn interference_slowdown(&self) -> f64 {
        let noisy = |latency| {
            PlatformConfig::iommu_with_llc(latency)
                .with_interference(InterferenceLevel::RandomTraffic)
        };
        mean(
            self.walk_ratios(noisy, PlatformConfig::iommu_with_llc)
                .map(|ratio| ratio - 1.0),
        )
    }

    /// The average walk time of each point that ran on `of(latency)` over
    /// that of the point that ran on `base(latency)`, in sweep order,
    /// skipping latencies whose base point is missing or never walked.
    fn walk_ratios(
        &self,
        of: fn(u64) -> PlatformConfig,
        base: fn(u64) -> PlatformConfig,
    ) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().filter_map(move |p| {
            let latency = p.config.mem.dram_latency.raw();
            if p.config != of(latency) {
                return None;
            }
            let base = self.get(&base(latency))?.report.iommu.ptw_time.mean();
            (base > 0.0).then(|| p.report.iommu.ptw_time.mean() / base)
        })
    }

    /// Renders the Figure 5 data.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "DRAM latency",
            "LLC",
            "Host traffic",
            "Avg PTW cycles",
            "Walks",
        ]);
        for p in &self.points {
            let (config, iommu) = (&p.config, &p.report.iommu);
            let llc = if config.mem.llc.is_some() {
                "yes"
            } else {
                "no"
            };
            let host = match config.interference {
                InterferenceLevel::Idle => "idle",
                InterferenceLevel::RandomTraffic => "random",
            };
            table.row(vec![
                config.mem.dram_latency.raw().to_string(),
                llc.to_string(),
                host.to_string(),
                format!("{:.1}", iommu.ptw_time.mean()),
                iommu.ptw_walks.to_string(),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "LLC reduces the average PTW time by {:.1}x (paper: ~15x); \
             host interference adds {:.0}% (paper: ~20%)\n",
            self.llc_speedup(),
            self.interference_slowdown() * 100.0
        ));
        out
    }
}

/// The mean of `values`, or 0 for none.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs the sweep: axpy of `elems` elements, for every latency, with and
/// without LLC and host interference.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run(elems: usize, latencies: &[u64]) -> Result<PtwResultSet> {
    let workload = AxpyWorkload::with_elems(elems);
    let runner = OffloadRunner::new(0xF165);
    let mut points = Vec::new();
    for &latency in latencies {
        for variant in [SocVariant::Iommu, SocVariant::IommuLlc] {
            for host in [InterferenceLevel::Idle, InterferenceLevel::RandomTraffic] {
                let config = PlatformConfig::variant(variant, latency).with_interference(host);
                points.push(run_point(&runner, &workload, config)?);
            }
        }
    }
    Ok(PtwResultSet { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llc_and_interference_shape_matches_figure5() {
        let result = run(16_384, &[600]).unwrap();
        assert_eq!(result.points.len(), 4);
        assert!(result.points.iter().all(|p| p.report.verified));
        let walk = |config| {
            let p = result.get(&config).unwrap();
            (p.report.iommu.ptw_time.mean(), p.report.iommu.ptw_walks)
        };

        let (_, no_llc_walks) = walk(PlatformConfig::iommu_no_llc(600));
        let (with_llc, with_llc_walks) = walk(PlatformConfig::iommu_with_llc(600));
        assert!(no_llc_walks > 0 && with_llc_walks > 0);

        // The LLC reduces the walk time by an order of magnitude and keeps it
        // below ~200 cycles.
        assert!(
            result.llc_speedup() > 5.0,
            "speedup {:.1}",
            result.llc_speedup()
        );
        assert!(
            with_llc < 200.0,
            "avg walk with LLC should stay under 200 cycles, got {with_llc:.1}"
        );

        // Interference slows walks down, both with and without the LLC.
        let (noisy, _) = walk(
            PlatformConfig::iommu_with_llc(600).with_interference(InterferenceLevel::RandomTraffic),
        );
        assert!(noisy > with_llc);
        assert!(result.interference_slowdown() > 0.0);
        assert!(result.render().contains("Avg PTW cycles"));
    }
}
