//! Regenerates every table and figure of the paper's evaluation, in order:
//! Table I, Table II, Figures 2–5, then the design-choice ablations.
//!
//! Table II and Figure 4 render the same kernel sweep, which runs once.
//!
//! Usage: `paper [--paper|--small]`

use sva_bench::{with_banner, Args, RunSize};
use sva_kernels::KernelKind;
use sva_soc::experiments::{
    ablation, copy_vs_map, kernel_runtime, offload_breakdown, ptw_time, table1,
};

fn main() {
    let size = Args::from_env("paper [--paper|--small]", false).size;
    let latencies = size.latencies();

    with_banner("Table I: evaluated kernels", table1::render);

    // Table II: total device runtime and %DMA for each kernel at each DRAM
    // latency, for the Baseline / IOMMU / IOMMU+LLC variants.
    let mut kernel_sweep = None;
    with_banner(
        "Table II: total runtime in cycles for each kernel at variable memory latency",
        || {
            let result = kernel_runtime::run(&KernelKind::TABLE2, &latencies, size.is_paper())
                .expect("table II sweep failed");
            let text = result.render_table2();
            kernel_sweep = Some(result);
            text
        },
    );

    fig2(size);
    fig3(size, &latencies);

    // Figure 4: device runtime relative to the baseline for the three
    // variants, with the IOMMU overhead annotations.
    with_banner("Figure 4: kernel execution relative to baseline", || {
        kernel_sweep.expect("Table II ran the sweep").render_fig4()
    });

    fig5(size);
    ablations();
}

/// Figure 2: the axpy offload breakdown (left) and the copy-vs-map scaling
/// with input size (right), plus the Section IV-A headline (zero-copy
/// offloading vs copy-based offloading).
fn fig2(size: RunSize) {
    let elems = if size.is_paper() { 32_768 } else { 8_192 };
    with_banner("Figure 2 (left): axpy offload breakdown", || {
        offload_breakdown::run(elems, 200)
            .expect("figure 2 (left) failed")
            .render()
    });
    let pages: &[u64] = if size.is_paper() {
        &[4, 8, 16, 32, 64, 128]
    } else {
        &[4, 16]
    };
    with_banner("Figure 2 (right): copy vs map time over input size", || {
        copy_vs_map::run(pages, &[200])
            .expect("figure 2 (right) failed")
            .render()
    });
}

/// Figure 3: copy and map time over input size for each DRAM latency (the
/// paper's 3.4x / 2.1x scaling observation).
fn fig3(size: RunSize, latencies: &[u64]) {
    let pages: &[u64] = if size.is_paper() {
        &[4, 8, 16, 32, 64]
    } else {
        &[4, 16]
    };
    with_banner(
        "Figure 3: copy and map time with input size and DRAM latency",
        || {
            let result = copy_vs_map::run(pages, latencies).expect("figure 3 sweep failed");
            let mut out = result.render();
            if let (Some(c), Some(m)) = (
                result.copy_scaling(16, 200, 1000),
                result.map_scaling(16, 200, 1000),
            ) {
                out.push_str(&format!(
                    "16-page buffer, 200 -> 1000 cycles: copy x{c:.1} (paper: x3.4), map x{m:.1} (paper: x2.1)\n"
                ));
            }
            out
        },
    );
}

/// Figure 5: average IOMMU page-table-walk time with and without the shared
/// LLC and with and without concurrent host traffic.
fn fig5(size: RunSize) {
    let latencies: &[u64] = if size.is_paper() {
        &[200, 400, 600, 800, 1000]
    } else {
        &[200, 1000]
    };
    let elems = if size.is_paper() { 32_768 } else { 8_192 };
    with_banner("Figure 5: average IOMMU page-table-walk time", || {
        ptw_time::run(elems, latencies)
            .expect("figure 5 sweep failed")
            .render()
    });
}

/// The design-choice ablations beyond the paper's own figures: IOTLB
/// capacity, DMA bypass vs DMA through the LLC, outstanding DMA bursts,
/// double buffering and flushing the LLC before vs after mapping.
fn ablations() {
    with_banner("Ablation: IOTLB capacity (no LLC)", || {
        ablation::iotlb_size(KernelKind::Gesummv, 1000, &[1, 2, 4, 8, 16, 64])
            .expect("IOTLB ablation failed")
            .render()
    });
    with_banner(
        "Ablation: device DMA bypassing vs traversing the LLC",
        || {
            ablation::dma_through_llc(KernelKind::Heat3d, 600)
                .expect("bypass ablation failed")
                .render()
        },
    );
    with_banner("Ablation: outstanding DMA bursts", || {
        ablation::dma_outstanding(KernelKind::Heat3d, 1000, &[1, 2, 4, 8])
            .expect("outstanding ablation failed")
            .render()
    });
    with_banner("Ablation: double vs single buffering", || {
        ablation::double_buffering(KernelKind::Gesummv, 600)
            .expect("buffering ablation failed")
            .render()
    });
    with_banner(
        "Ablation: LLC flush before vs after create_iommu_mapping",
        || {
            ablation::flush_before_map(1000)
                .expect("flush ablation failed")
                .render()
        },
    );
}
