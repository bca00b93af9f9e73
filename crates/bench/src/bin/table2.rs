//! Regenerates Table II: total device runtime and %DMA for each kernel at
//! each DRAM latency, for the Baseline / IOMMU / IOMMU+LLC variants.

use sva_bench::{parse_args, with_banner};
use sva_kernels::KernelKind;
use sva_soc::experiments::kernel_runtime;

fn main() {
    let size = parse_args();
    let latencies = size.latencies();
    with_banner(
        "Table II: total runtime in cycles for each kernel at variable memory latency",
        || {
            kernel_runtime::run(&KernelKind::TABLE2, &latencies, size.is_paper())
                .expect("table II sweep failed")
                .render_table2(&latencies)
        },
    );
}
