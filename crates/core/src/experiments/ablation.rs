//! Ablations of the design choices the paper argues for.
//!
//! These go beyond the paper's figures and probe the sensitivity of its
//! conclusions:
//!
//! * **IOTLB capacity** — the paper uses only 4 entries and argues the LLC
//!   makes a larger IOTLB unnecessary; the ablation sweeps the capacity.
//! * **DMA through the LLC** — the paper routes device DMA around the LLC to
//!   preserve burst bandwidth; the ablation forces DMA through it.
//! * **Outstanding DMA bursts** — how much the DMA engine's pipelining hides
//!   memory latency.
//! * **Double buffering** — how much overlapping DMA with compute saves.
//! * **Flush-before-map** — Listing 1 flushes the LLC before mapping; the
//!   ablation skips the flush, which leaves stale dirty lines but also shows
//!   how much of the mapping cost the flush contributes.
//!
//! Every row is a labelled [`Point`]. The first four ablations are lists of
//! labelled [`PlatformConfig`]s, each run through one runner by
//! [`run_point`]. Flush-before-map runs the paper's order through
//! [`run_point`] too; only its flush-after-mapping row runs its own flow.

use sva_common::{Error, Iova, Result};
use sva_kernels::{AxpyWorkload, KernelKind, Workload};

use super::{run_point, Point};
use crate::config::PlatformConfig;
use crate::offload::{DeviceOnlyReport, OffloadRunner};
use crate::platform::Platform;
use crate::report::{percent, TextTable};

/// A set of labelled ablation points.
#[derive(Clone, Debug, Default)]
pub struct AblationResult {
    /// What was swept.
    pub name: String,
    /// The measurements, each with its configuration label.
    pub points: Vec<(String, Point)>,
}

impl AblationResult {
    /// Renders the ablation as a table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["Configuration", "Device cycles", "%DMA", "Avg PTW"]);
        for (label, p) in &self.points {
            let stats = &p.report.stats;
            table.row(vec![
                label.clone(),
                stats.total.raw().to_string(),
                percent(stats.dma_fraction()),
                format!("{:.1}", p.report.iommu.ptw_time.mean()),
            ]);
        }
        format!("{}\n{}", self.name, table.render())
    }
}

/// Input seed of every ablation. Each sweep runs its points through one
/// runner, which prepares the sweep's workload once.
const SEED: u64 = 0xAB1A7E;

/// Runs `kernel`'s small workload on a fresh platform per labelled
/// configuration; `name` titles the result given the workload's name.
fn sweep(
    kernel: KernelKind,
    name: impl FnOnce(&str) -> String,
    platforms: Vec<(String, PlatformConfig)>,
) -> Result<AblationResult> {
    let workload = kernel.small_workload();
    let runner = OffloadRunner::new(SEED);
    let points = platforms
        .into_iter()
        .map(|(label, config)| Ok((label, run_point(&runner, workload.as_ref(), config)?)))
        .collect::<Result<_>>()?;
    Ok(AblationResult {
        name: name(workload.name()),
        points,
    })
}

/// Sweeps the IOTLB capacity on the IOMMU-without-LLC platform, where the
/// IOTLB is the only thing standing between the DMA engine and full-latency
/// walks.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn iotlb_size(kernel: KernelKind, latency: u64, sizes: &[usize]) -> Result<AblationResult> {
    let platforms = sizes
        .iter()
        .map(|&entries| {
            let config = PlatformConfig::iommu_no_llc(latency).with_iotlb_entries(entries);
            (format!("{entries} IOTLB entries"), config)
        })
        .collect();
    sweep(
        kernel,
        |w| format!("IOTLB capacity sweep ({w} @ {latency} cycles, no LLC)"),
        platforms,
    )
}

/// Compares the paper's DMA-bypass design against routing DMA through the
/// LLC.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn dma_through_llc(kernel: KernelKind, latency: u64) -> Result<AblationResult> {
    let bypass = PlatformConfig::iommu_with_llc(latency);
    let platforms = vec![
        ("DMA bypasses LLC (paper)".to_string(), bypass.clone()),
        ("DMA through LLC".to_string(), bypass.with_dma_through_llc()),
    ];
    sweep(
        kernel,
        |w| format!("LLC bypass for device DMA ({w} @ {latency} cycles)"),
        platforms,
    )
}

/// Sweeps the number of outstanding DMA bursts.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn dma_outstanding(
    kernel: KernelKind,
    latency: u64,
    depths: &[usize],
) -> Result<AblationResult> {
    let platforms = depths
        .iter()
        .map(|&depth| {
            let config = PlatformConfig::baseline(latency).with_dma_outstanding(depth);
            (format!("{depth} outstanding"), config)
        })
        .collect();
    sweep(
        kernel,
        |w| format!("Outstanding DMA bursts ({w} @ {latency} cycles, baseline platform)"),
        platforms,
    )
}

/// Compares double buffering against single buffering on the baseline
/// platform.
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn double_buffering(kernel: KernelKind, latency: u64) -> Result<AblationResult> {
    let double = PlatformConfig::baseline(latency);
    let platforms = vec![
        ("double buffered (paper)".to_string(), double.clone()),
        (
            "single buffered".to_string(),
            double.with_single_buffering(),
        ),
    ];
    sweep(
        kernel,
        |w| format!("Double buffering ({w} @ {latency} cycles)"),
        platforms,
    )
}

/// Listing 1 flushes the LLC *before* creating the IOVA mappings so the
/// freshly written page-table entries stay resident for the IOMMU. This
/// ablation compares the average page-table-walk latency of the first offload
/// when the flush happens before mapping (the paper's order, which is
/// [`run_point`]'s) versus after mapping (which evicts the PTEs again).
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn flush_before_map(latency: u64) -> Result<AblationResult> {
    let workload = AxpyWorkload::with_elems(16_384);
    let config = PlatformConfig::iommu_with_llc(latency);
    let runner = OffloadRunner::new(SEED);
    let paper = run_point(&runner, &workload, config.clone())?;
    let evicted = run_flushing_after_map(&runner, &workload, config)?;
    Ok(AblationResult {
        name: format!("LLC flush ordering around create_iommu_mapping (axpy @ {latency} cycles)"),
        points: vec![
            ("flush before mapping (paper, Listing 1)".to_string(), paper),
            ("flush after mapping (PTEs evicted)".to_string(), evicted),
        ],
    })
}

/// Runs `workload` like [`run_point`] on a fresh platform built from
/// `config`, but on the first cluster only and with the caches flushed
/// after the IOVA mappings are created instead of before, which evicts the
/// freshly written PTE lines.
fn run_flushing_after_map(
    runner: &OffloadRunner,
    workload: &dyn Workload,
    config: PlatformConfig,
) -> Result<Point> {
    let mut p = Platform::new(config.clone())?;
    let prepared = runner.prepare(&mut p, workload);
    let buffers = runner.allocate_user_buffers(&mut p, workload, &prepared.inputs)?;
    for buf in &buffers {
        p.map_buffer(buf.va, buf.bytes)?;
    }
    p.cpu.flush_l1();
    p.mem.flush_llc();
    let iommu = p.iommu.as_mut().ok_or(Error::IommuNotPresent)?;
    iommu.reset_stats();

    let device_ptrs: Vec<Iova> = buffers.iter().map(|b| Iova::from_virt(b.va)).collect();
    let mut kernel = workload.device_kernel(&device_ptrs);
    let stats = p.clusters[0].run(&mut p.mem, Some(iommu), kernel.as_mut(), None)?;
    let actual = runner.read_back_virtual(&p, workload, &buffers)?;
    let report = DeviceOnlyReport {
        kernel: workload.name().to_string(),
        stats,
        per_cluster: vec![stats],
        iommu: p.iommu_stats(),
        verified: workload.verify(&prepared.expected, &actual).is_ok(),
    };
    Ok(Point::new(config, report, &p))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `value` of every row of `result`; every row must verify.
    fn column<T>(result: &AblationResult, value: impl Fn(&Point) -> T) -> Vec<T> {
        result
            .points
            .iter()
            .map(|(label, p)| {
                assert!(p.report.verified, "{label} must verify");
                value(p)
            })
            .collect()
    }

    fn total(p: &Point) -> u64 {
        p.report.stats.total.raw()
    }

    #[test]
    fn bigger_iotlb_helps_without_llc() {
        let result = iotlb_size(KernelKind::Gesummv, 1000, &[1, 4, 64]).unwrap();
        let [one, four, many]: [u64; 3] = column(&result, total).try_into().unwrap();
        assert!(
            many <= four && four <= one,
            "{one} >= {four} >= {many} expected"
        );
        assert!(result.render().contains("IOTLB"));
    }

    #[test]
    fn dma_bypass_beats_dma_through_llc() {
        let result = dma_through_llc(KernelKind::Heat3d, 600).unwrap();
        let [bypass, through]: [u64; 2] = column(&result, total).try_into().unwrap();
        assert!(
            bypass < through,
            "bypassing the LLC ({bypass}) should beat DMA through it ({through})"
        );
    }

    #[test]
    fn more_outstanding_bursts_reduce_runtime() {
        let result = dma_outstanding(KernelKind::Heat3d, 1000, &[1, 4]).unwrap();
        let [one, four]: [u64; 2] = column(&result, total).try_into().unwrap();
        assert!(four < one);
    }

    #[test]
    fn double_buffering_helps() {
        let result = double_buffering(KernelKind::Gesummv, 600).unwrap();
        let [double, single]: [u64; 2] = column(&result, total).try_into().unwrap();
        assert!(double <= single);
    }

    #[test]
    fn flushing_before_mapping_keeps_walks_fast() {
        let result = flush_before_map(1000).unwrap();
        let walk = |p: &Point| p.report.iommu.ptw_time.mean();
        let [before, after]: [f64; 2] = column(&result, walk).try_into().unwrap();
        assert!(
            before < after,
            "flushing before mapping ({before:.1}) should give faster walks than flushing after ({after:.1})"
        );
        assert!(before < 200.0);
    }
}
