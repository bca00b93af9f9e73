//! Regenerates Figure 4: device runtime relative to the baseline for the
//! three platform variants, with the IOMMU overhead annotations.

use sva_bench::{parse_args, with_banner};
use sva_kernels::KernelKind;
use sva_soc::experiments::kernel_runtime;

fn main() {
    let size = parse_args();
    let latencies = size.latencies();
    with_banner("Figure 4: kernel execution relative to baseline", || {
        kernel_runtime::run(&KernelKind::TABLE2, &latencies, size.is_paper())
            .expect("figure 4 sweep failed")
            .render_fig4(&latencies)
    });
}
