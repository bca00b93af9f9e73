//! Regenerates Figure 3: copy and map time over input size for each DRAM
//! latency (the paper's 3.4x / 2.1x scaling observation).

use sva_bench::{parse_args, with_banner, RunSize};
use sva_soc::experiments::copy_vs_map;

fn main() {
    let size = parse_args();
    let latencies = size.latencies();
    let pages: &[u64] = if size == RunSize::Paper {
        &[4, 8, 16, 32, 64]
    } else {
        &[4, 16]
    };
    with_banner(
        "Figure 3: copy and map time with input size and DRAM latency",
        || {
            let result = copy_vs_map::run(pages, &latencies).expect("figure 3 sweep failed");
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
