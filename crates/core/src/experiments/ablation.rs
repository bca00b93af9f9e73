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
//! The first four are lists of labelled [`PlatformConfig`]s, each measured
//! device-only on a fresh platform by one sweep; flush-before-map runs its
//! own map-and-flush flow.

use sva_common::{Error, Result};
use sva_kernels::KernelKind;

use crate::config::{PlatformConfig, SocVariant};
use crate::offload::OffloadRunner;
use crate::platform::Platform;
use crate::report::TextTable;

/// A generic labelled measurement.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: String,
    /// Device runtime in cycles.
    pub total: u64,
    /// DMA-wait share of the runtime.
    pub dma_fraction: f64,
    /// Average page-table-walk cycles (0 when the IOMMU is off).
    pub avg_ptw_cycles: f64,
}

/// A set of ablation points.
#[derive(Clone, Debug, Default)]
pub struct AblationResult {
    /// What was swept.
    pub name: String,
    /// The measurements.
    pub points: Vec<AblationPoint>,
}

impl AblationResult {
    /// Renders the ablation as a table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["Configuration", "Device cycles", "%DMA", "Avg PTW"]);
        for p in &self.points {
            table.row(vec![
                p.label.clone(),
                p.total.to_string(),
                format!("{:.1}%", p.dma_fraction * 100.0),
                format!("{:.1}", p.avg_ptw_cycles),
            ]);
        }
        format!("{}\n{}", self.name, table.render())
    }
}

/// Input seed of every ablation sweep. Each sweep runs its points through
/// one runner, which prepares the sweep's workload once.
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
        .map(|(label, config)| {
            let mut platform = Platform::new(config)?;
            let report = runner.run_device_only(&mut platform, workload.as_ref())?;
            Ok(AblationPoint {
                label,
                total: report.stats.total.raw(),
                dma_fraction: report.stats.dma_fraction(),
                avg_ptw_cycles: report.iommu.ptw_time.mean(),
            })
        })
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
/// when the flush happens before mapping (the paper's order) versus after
/// mapping (which evicts the PTEs again).
///
/// # Errors
///
/// Propagates platform construction and execution failures.
pub fn flush_before_map(latency: u64) -> Result<AblationResult> {
    use sva_kernels::{AxpyWorkload, Workload as _};

    let workload = AxpyWorkload::with_elems(16_384);
    let mut result = AblationResult {
        name: format!("LLC flush ordering around create_iommu_mapping (axpy @ {latency} cycles)"),
        points: Vec::new(),
    };

    for flush_after in [false, true] {
        let mut p = Platform::new(PlatformConfig::variant(SocVariant::IommuLlc, latency))?;
        let mut rng = sva_common::rng::DeterministicRng::new(7);
        let initial = workload.init(&mut rng);

        // Allocate and fill the user buffers.
        let specs = workload.buffers();
        let mut vas = Vec::new();
        for (spec, data) in specs.iter().zip(&initial) {
            let va = p
                .space
                .alloc_buffer(&mut p.mem, &mut p.frames, spec.bytes())?;
            let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
            p.space.write_virt(&mut p.mem, va, &bytes)?;
            vas.push((va, spec.bytes()));
        }

        if !flush_after {
            // Paper's order (Listing 1): flush, then map.
            p.cpu.flush_l1();
            p.mem.flush_llc();
        }
        for &(va, bytes) in &vas {
            p.map_buffer(va, bytes)?;
        }
        if flush_after {
            // Ablation: flush after mapping, evicting the PTE lines.
            p.cpu.flush_l1();
            p.mem.flush_llc();
        }
        let iommu = p.iommu.as_mut().ok_or(Error::IommuNotPresent)?;
        iommu.reset_stats();

        let device_ptrs: Vec<sva_common::Iova> = vas
            .iter()
            .map(|(va, _)| sva_common::Iova::from_virt(*va))
            .collect();
        let mut kernel = workload.device_kernel(&device_ptrs);
        let stats = p.clusters[0].run(&mut p.mem, Some(&mut *iommu), kernel.as_mut(), None)?;
        result.points.push(AblationPoint {
            label: if flush_after {
                "flush after mapping (PTEs evicted)".to_string()
            } else {
                "flush before mapping (paper, Listing 1)".to_string()
            },
            total: stats.total.raw(),
            dma_fraction: stats.dma_fraction(),
            avg_ptw_cycles: iommu.stats().ptw_time.mean(),
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_iotlb_helps_without_llc() {
        let result = iotlb_size(KernelKind::Gesummv, 1000, &[1, 4, 64]).unwrap();
        assert_eq!(result.points.len(), 3);
        let one = result.points[0].total;
        let four = result.points[1].total;
        let many = result.points[2].total;
        assert!(
            many <= four && four <= one,
            "{one} >= {four} >= {many} expected"
        );
        assert!(result.render().contains("IOTLB"));
    }

    #[test]
    fn dma_bypass_beats_dma_through_llc() {
        let result = dma_through_llc(KernelKind::Heat3d, 600).unwrap();
        let bypass = result.points[0].total;
        let through = result.points[1].total;
        assert!(
            bypass < through,
            "bypassing the LLC ({bypass}) should beat DMA through it ({through})"
        );
    }

    #[test]
    fn more_outstanding_bursts_reduce_runtime() {
        let result = dma_outstanding(KernelKind::Heat3d, 1000, &[1, 4]).unwrap();
        assert!(result.points[1].total < result.points[0].total);
    }

    #[test]
    fn double_buffering_helps() {
        let result = double_buffering(KernelKind::Gesummv, 600).unwrap();
        assert!(result.points[0].total <= result.points[1].total);
    }

    #[test]
    fn flushing_before_mapping_keeps_walks_fast() {
        let result = flush_before_map(1000).unwrap();
        let before = &result.points[0];
        let after = &result.points[1];
        assert!(
            before.avg_ptw_cycles < after.avg_ptw_cycles,
            "flushing before mapping ({:.1}) should give faster walks than flushing after ({:.1})",
            before.avg_ptw_cycles,
            after.avg_ptw_cycles
        );
        assert!(before.avg_ptw_cycles < 200.0);
    }
}
