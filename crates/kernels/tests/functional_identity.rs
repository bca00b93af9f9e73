//! Device kernels compute bit-identical results to their host references.
//!
//! Every kernel's device implementation and its `Workload::expected`
//! perform the same floating-point operations in the same order for each
//! result element (see each kernel's module doc), so the offload results
//! must match the reference bit for bit, not just within
//! `Workload::verify`'s tolerance. This suite runs each small workload
//! through the cluster executor on a bare memory system (no IOMMU,
//! LLC-bypass bus addresses) and compares `to_bits()` of every result
//! buffer.

use sva_axi::addrmap::{DRAM_BASE, LLC_BYPASS_OFFSET};
use sva_cluster::ClusterExecutor;
use sva_common::rng::DeterministicRng;
use sva_common::{Iova, PhysAddr};
use sva_kernels::{KernelKind, Workload};
use sva_mem::MemorySystem;

/// DRAM offset of buffer `b`; every small-workload buffer fits in 1 MiB.
fn buffer_offset(b: usize) -> u64 {
    0x100_0000 + b as u64 * 0x10_0000
}

/// Runs `wl` on the device from `initial` and returns every buffer's final
/// contents.
fn run_on_device(wl: &dyn Workload, initial: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut mem = MemorySystem::default();
    let mut ptrs = Vec::new();
    for (b, data) in initial.iter().enumerate() {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.write_phys(PhysAddr::new(DRAM_BASE + buffer_offset(b)), &bytes)
            .expect("buffer lies in DRAM");
        ptrs.push(Iova::new(DRAM_BASE + LLC_BYPASS_OFFSET + buffer_offset(b)));
    }
    let mut kernel = wl.device_kernel(&ptrs);
    ClusterExecutor::default()
        .run(&mut mem, None, &mut kernel, None)
        .expect("device run completes");
    initial
        .iter()
        .enumerate()
        .map(|(b, data)| {
            let mut bytes = vec![0u8; data.len() * 4];
            mem.read_phys(PhysAddr::new(DRAM_BASE + buffer_offset(b)), &mut bytes)
                .expect("buffer lies in DRAM");
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect()
        })
        .collect()
}

#[test]
fn device_results_are_bit_identical_to_the_reference() {
    for kind in KernelKind::ALL {
        for seed in [1, 7] {
            let wl = kind.small_workload();
            let initial = wl.init(&mut DeterministicRng::new(seed));
            let expected = wl.expected(&initial);
            let actual = run_on_device(wl.as_ref(), &initial);
            for (b, spec) in wl.buffers().iter().enumerate() {
                if !spec.kind.is_result() {
                    continue;
                }
                assert_eq!(actual[b].len(), expected[b].len());
                let mismatch = actual[b]
                    .iter()
                    .zip(&expected[b])
                    .position(|(a, e)| a.to_bits() != e.to_bits());
                assert_eq!(
                    mismatch, None,
                    "{kind:?} seed {seed} buffer {}: device differs from the reference",
                    spec.name
                );
            }
        }
    }
}
