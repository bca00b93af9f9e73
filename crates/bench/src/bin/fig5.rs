//! Regenerates Figure 5: average IOMMU page-table-walk time with and without
//! the shared LLC and with and without concurrent host traffic.

use sva_bench::{parse_args, with_banner, RunSize};
use sva_soc::experiments::ptw_time;

fn main() {
    let size = parse_args();
    let latencies: Vec<u64> = if size == RunSize::Paper {
        vec![200, 400, 600, 800, 1000]
    } else {
        vec![200, 1000]
    };
    let elems = if size.is_paper() { 32_768 } else { 8_192 };
    with_banner("Figure 5: average IOMMU page-table-walk time", || {
        ptw_time::run(elems, &latencies)
            .expect("figure 5 sweep failed")
            .render()
    });
}
