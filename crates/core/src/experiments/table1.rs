//! Table I: the benchmark-kernel inventory.

use sva_kernels::KernelKind;

use crate::report::TextTable;

/// Renders Table I (kernel, input size, description).
pub fn render() -> String {
    let mut table = TextTable::new(vec!["Kernel", "Input size", "Description"]);
    for kind in KernelKind::ALL {
        table.row(vec![kind.name(), kind.input_size(), kind.description()]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_lists_all_five_kernels() {
        let rendered = super::render();
        for k in ["gemm", "gesummv", "heat3d", "axpy", "merge sort"] {
            assert!(rendered.contains(k), "missing {k} in:\n{rendered}");
        }
    }
}
