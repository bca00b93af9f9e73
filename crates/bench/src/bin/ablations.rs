//! Runs the design-choice ablations called out in DESIGN.md (beyond the
//! paper's own figures): IOTLB capacity, DMA bypass vs DMA through the LLC,
//! outstanding DMA bursts and double buffering.

use sva_bench::with_banner;
use sva_kernels::KernelKind;
use sva_soc::experiments::ablation;

fn main() {
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
