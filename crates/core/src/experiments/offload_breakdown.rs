//! Figure 2 (left): application-level breakdown of an axpy offload.
//!
//! The experiment runs the same axpy problem three ways — host-only,
//! copy-based offload and zero-copy offload — and splits the runtime into
//! the copy-or-map region, the offload/fork-join overhead and the
//! computation, exactly like the stacked bars of Figure 2. It also computes
//! the headline claim of Section IV-A: how much faster zero-copy offloading
//! is than copy-based offloading.

use sva_common::{Cycles, Result};
use sva_kernels::AxpyWorkload;

use crate::config::PlatformConfig;
use crate::offload::{OffloadMode, OffloadReport, OffloadRunner};
use crate::platform::Platform;
use crate::report::{sci, TextTable};

/// The three bars plus derived headline numbers.
#[derive(Clone, Debug)]
pub struct OffloadBreakdownResult {
    /// Problem size (elements per vector).
    pub elems: usize,
    /// DRAM latency used.
    pub dram_latency: u64,
    /// The reports of the three runs: host-only, copy, zero-copy.
    pub cases: Vec<OffloadReport>,
}

impl OffloadBreakdownResult {
    /// Returns the report of a mode's run.
    pub fn case(&self, mode: OffloadMode) -> Option<&OffloadReport> {
        self.cases.iter().find(|c| c.mode == mode)
    }

    /// Section IV-A headline: fraction by which zero-copy offloading is
    /// faster than copy-based offloading (the paper measures 47 %).
    pub fn zero_copy_speedup(&self) -> Option<f64> {
        let copy = self.case(OffloadMode::CopyOffload)?;
        let zero = self.case(OffloadMode::ZeroCopy)?;
        Some(1.0 - zero.total.raw() as f64 / copy.total.raw() as f64)
    }

    /// Renders the Figure 2 (left) stacked-bar data as a table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Scenario",
            "Copy/Map",
            "Offload overhead",
            "Compute",
            "Total",
            "Verified",
        ]);
        for case in &self.cases {
            table.row(vec![
                case.mode.label().to_string(),
                sci(case.copy_or_map.raw()),
                sci(case.offload_overhead.raw()),
                sci(compute(case).raw()),
                sci(case.total.raw()),
                case.verified.to_string(),
            ]);
        }
        let mut out = format!(
            "axpy {} elements, DRAM latency {} cycles\n{}",
            self.elems,
            self.dram_latency,
            table.render()
        );
        if let Some(speedup) = self.zero_copy_speedup() {
            out.push_str(&format!(
                "zero-copy offloading is {:.0}% faster than copy-based offloading (paper: 47%)\n",
                speedup * 100.0
            ));
        }
        out
    }
}

/// Cycles a run spent computing, on the device or on the host.
fn compute(report: &OffloadReport) -> Cycles {
    report
        .device
        .map(|d| d.total)
        .or(report.host.map(|h| h.total))
        .unwrap_or(Cycles::ZERO)
}

/// Runs the three scenarios for an axpy of `elems` elements at the given
/// DRAM latency (the paper uses 32 768 elements).
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn run(elems: usize, dram_latency: u64) -> Result<OffloadBreakdownResult> {
    let workload = AxpyWorkload::with_elems(elems);
    let runner = OffloadRunner::new(0xF162);
    let cases = [
        OffloadMode::HostOnly,
        OffloadMode::CopyOffload,
        OffloadMode::ZeroCopy,
    ]
    .into_iter()
    .map(|mode| {
        // Each scenario runs on a freshly booted platform of the paper's full
        // configuration (IOMMU + LLC) so caches do not leak state across bars.
        let mut platform = Platform::new(PlatformConfig::iommu_with_llc(dram_latency))?;
        runner.run(&mut platform, &workload, mode)
    })
    .collect::<Result<_>>()?;
    Ok(OffloadBreakdownResult {
        elems,
        dram_latency,
        cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_matches_figure2_shape() {
        let result = run(16_384, 200).unwrap();
        assert_eq!(result.cases.len(), 3);
        assert!(result.cases.iter().all(|c| c.verified));

        let host = result.case(OffloadMode::HostOnly).unwrap();
        let copy = result.case(OffloadMode::CopyOffload).unwrap();
        let zero = result.case(OffloadMode::ZeroCopy).unwrap();

        // Device compute is faster than host compute (8 PEs vs 1 core).
        assert!(compute(copy) < compute(host));
        // Mapping is cheaper than copying.
        assert!(zero.copy_or_map < copy.copy_or_map);
        // Zero-copy offloading wins overall.
        assert!(result.zero_copy_speedup().unwrap() > 0.0);
        // And the rendered report mentions the headline.
        assert!(result.render().contains("faster than copy-based"));
    }
}
