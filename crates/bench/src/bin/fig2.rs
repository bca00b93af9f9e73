//! Regenerates Figure 2: the axpy offload breakdown (left) and the copy-vs-
//! map scaling with input size (right), plus the Section IV-A headline
//! (zero-copy offloading vs copy-based offloading).

use sva_bench::{parse_args, with_banner, RunSize};
use sva_soc::experiments::{copy_vs_map, offload_breakdown};

fn main() {
    let size = parse_args();
    let elems = if size.is_paper() { 32_768 } else { 8_192 };
    with_banner("Figure 2 (left): axpy offload breakdown", || {
        offload_breakdown::run(elems, 200)
            .expect("figure 2 (left) failed")
            .render()
    });

    let pages: &[u64] = if size == RunSize::Paper {
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
