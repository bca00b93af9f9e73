//! The [`Workload`] abstraction shared by all benchmark kernels.
//!
//! A workload describes everything the offload runtime needs to run one
//! benchmark end to end: which buffers it uses, how to generate their initial
//! contents, what the correct final contents are, how to build the device
//! kernel once the buffers' device addresses are known, and how expensive the
//! kernel is when executed on the host core instead.

use sva_cluster::DeviceKernel;
use sva_common::rng::DeterministicRng;
use sva_common::{Error, Iova, Result};
use sva_host::HostKernelCost;

/// Role of a buffer in a kernel.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// Read by the kernel, never written.
    Input,
    /// Written by the kernel; previous contents are irrelevant.
    Output,
    /// Both read and written (e.g. `y` in `axpy`).
    InOut,
    /// Device-side scratch storage in DRAM (not verified against the
    /// reference, but must still be mapped / copied for the device).
    Scratch,
}

impl BufferKind {
    /// Returns `true` if the host must provide initial contents.
    pub const fn needs_init(self) -> bool {
        matches!(self, BufferKind::Input | BufferKind::InOut)
    }

    /// Returns `true` if the buffer holds results to verify.
    pub const fn is_result(self) -> bool {
        matches!(self, BufferKind::Output | BufferKind::InOut)
    }

    /// Returns `true` if the buffer must be copied to the device ahead of a
    /// copy-based offload.
    pub const fn copied_to_device(self) -> bool {
        matches!(self, BufferKind::Input | BufferKind::InOut)
    }

    /// Returns `true` if the buffer must be copied back after a copy-based
    /// offload.
    pub const fn copied_from_device(self) -> bool {
        matches!(self, BufferKind::Output | BufferKind::InOut)
    }
}

/// Description of one kernel buffer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BufferSpec {
    /// Short name used in reports (e.g. `"A"`, `"x"`).
    pub name: &'static str,
    /// Number of `f32` elements.
    pub elems: usize,
    /// Role of the buffer.
    pub kind: BufferKind,
}

impl BufferSpec {
    /// Size of the buffer in bytes.
    pub const fn bytes(&self) -> u64 {
        (self.elems * 4) as u64
    }
}

/// A benchmark kernel, described independently of how it is offloaded.
pub trait Workload {
    /// Kernel name as used in the paper (e.g. `"gemm"`).
    fn name(&self) -> &'static str;

    /// Human-readable problem size and parameters (e.g. `"128 x 128"`).
    ///
    /// Together with [`Workload::name`] and [`Workload::buffers`] this is
    /// the workload's identity: two workloads with equal names, params and
    /// buffers must generate identical inputs from the same seed, compute
    /// identical references and build the same device kernel. The offload
    /// runtime relies on it to reuse one workload's inputs and reference
    /// for the next run of an equal workload, so every field that changes
    /// any of the three must appear here.
    fn params(&self) -> String;

    /// The buffers the kernel operates on, in a fixed order. Device pointers
    /// are later passed to [`Workload::device_kernel`] in the same order.
    fn buffers(&self) -> Vec<BufferSpec>;

    /// Generates initial contents for every buffer (buffers whose kind does
    /// not need initialisation get zeros of the right length).
    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>>;

    /// Computes the expected final contents of the result buffers from the
    /// initial contents (the host reference implementation).
    ///
    /// Returns one entry per buffer, in [`Workload::buffers`]' order. A
    /// result buffer's entry ([`BufferKind::is_result`]) holds its expected
    /// contents; every other entry is empty, so the reference holds no
    /// copy of an input or of scratch storage. Only the result entries are
    /// read.
    fn expected(&self, initial: &[Vec<f32>]) -> Vec<Vec<f32>>;

    /// Builds the device kernel given the device-visible base address of each
    /// buffer (IOVAs for zero-copy offload, bypass bus addresses for
    /// copy-based offload).
    fn device_kernel(&self, device_ptrs: &[Iova]) -> Box<dyn DeviceKernel>;

    /// Cost description for single-threaded host execution.
    fn host_cost(&self) -> HostKernelCost;

    /// Number of arithmetic operations, used for reporting intensity.
    fn flops(&self) -> u64;

    /// Verifies the final buffer contents against the expected contents.
    ///
    /// Both slices hold one entry per buffer, but only the entries of
    /// result buffers ([`BufferKind::is_result`]) need contents: the
    /// offload runtime reads back only those and passes the others empty.
    ///
    /// The default implementation compares result buffers element-wise with a
    /// relative tolerance of `1e-3` and rejects non-finite results. The
    /// built-in kernels compute every result element with the same
    /// operations in the same order as their reference (each kernel's module
    /// doc states its order), so their device results match bit for bit;
    /// the tolerance admits workloads that reorder their arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::VerificationFailed`] naming the first mismatching
    /// element.
    fn verify(&self, expected: &[Vec<f32>], actual: &[Vec<f32>]) -> Result<()> {
        for (b, spec) in self.buffers().iter().enumerate() {
            if !spec.kind.is_result() {
                continue;
            }
            let (e, a) = (&expected[b][..spec.elems], &actual[b][..spec.elems]);
            if let Some(index) = first_mismatch(e, a) {
                return Err(Error::VerificationFailed {
                    kernel: format!("{} (buffer {})", self.name(), spec.name),
                    index,
                });
            }
        }
        Ok(())
    }

    /// Total bytes of all buffers that must be made visible to the device.
    fn device_bytes(&self) -> u64 {
        self.buffers().iter().map(|b| b.bytes()).sum()
    }
}

/// Elements per chunk of [`first_mismatch`]'s scan.
const VERIFY_CHUNK: usize = 64;

/// Whether `actual` fails to match `expected`: off by more than `1e-3`
/// relative (absolute below magnitude 1), or not finite.
#[inline]
fn mismatches(expected: f32, actual: f32) -> bool {
    let tol = 1e-3_f32 * expected.abs().max(1.0);
    ((expected - actual).abs() > tol) | !actual.is_finite()
}

/// The index of the first element of `actual` that [`mismatches`] its
/// `expected` counterpart. Each chunk is scanned with a branch-free fold,
/// which vectorizes; only a failing chunk is searched for the index.
fn first_mismatch(expected: &[f32], actual: &[f32]) -> Option<usize> {
    let chunks = expected
        .chunks(VERIFY_CHUNK)
        .zip(actual.chunks(VERIFY_CHUNK));
    for (c, (e, a)) in chunks.enumerate() {
        let pairs = e.iter().zip(a);
        if pairs
            .clone()
            .fold(false, |bad, (&e, &a)| bad | mismatches(e, a))
        {
            let i = pairs.clone().position(|(&e, &a)| mismatches(e, a));
            return Some(c * VERIFY_CHUNK + i.expect("a failing chunk holds a mismatch"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload with two result buffers around an input and a scratch
    /// buffer; only its buffer list is ever called.
    struct TwoResults;

    impl Workload for TwoResults {
        fn name(&self) -> &'static str {
            "two_results"
        }
        fn params(&self) -> String {
            String::new()
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            let spec = |name, elems, kind| BufferSpec { name, elems, kind };
            vec![
                spec("in", 300, BufferKind::Input),
                spec("out", 300, BufferKind::Output),
                spec("tmp", 10, BufferKind::Scratch),
                spec("acc", 200, BufferKind::InOut),
            ]
        }
        fn init(&self, _: &mut DeterministicRng) -> Vec<Vec<f32>> {
            unreachable!()
        }
        fn expected(&self, _: &[Vec<f32>]) -> Vec<Vec<f32>> {
            unreachable!()
        }
        fn device_kernel(&self, _: &[Iova]) -> Box<dyn DeviceKernel> {
            unreachable!()
        }
        fn host_cost(&self) -> HostKernelCost {
            unreachable!()
        }
        fn flops(&self) -> u64 {
            unreachable!()
        }
    }

    /// The element-by-element loop the chunked default `verify` replaced,
    /// kept as its reference.
    fn reference_verify(
        w: &dyn Workload,
        expected: &[Vec<f32>],
        actual: &[Vec<f32>],
    ) -> Result<()> {
        for (b, spec) in w.buffers().iter().enumerate() {
            if !spec.kind.is_result() {
                continue;
            }
            for i in 0..spec.elems {
                let e = expected[b][i];
                let a = actual[b][i];
                let tol = 1e-3_f32 * e.abs().max(1.0);
                if (e - a).abs() > tol || !a.is_finite() {
                    return Err(Error::VerificationFailed {
                        kernel: format!("{} (buffer {})", w.name(), spec.name),
                        index: i,
                    });
                }
            }
        }
        Ok(())
    }

    /// Result contents with magnitudes on both sides of 1; the input and
    /// scratch entries stay empty, as the offload runtime passes them.
    fn results(rng: &mut DeterministicRng) -> Vec<Vec<f32>> {
        TwoResults
            .buffers()
            .iter()
            .map(|spec| {
                if !spec.kind.is_result() {
                    return Vec::new();
                }
                (0..spec.elems)
                    .map(|_| (rng.next_f32() - 0.5) * 10f32.powi(rng.next_below(7) as i32 - 3))
                    .collect()
            })
            .collect()
    }

    /// Changes one element of `v`: far off, just outside or just inside the
    /// tolerance, or non-finite.
    fn perturb(v: &mut f32, how: u64) {
        let tol = 1e-3_f32 * v.abs().max(1.0);
        *v = match how {
            0 => *v + 10.0 * tol,
            1 => *v - 1.5 * tol,
            2 => *v + 0.5 * tol,
            3 => f32::NAN,
            4 => f32::INFINITY,
            _ => f32::NEG_INFINITY,
        };
    }

    #[test]
    fn chunked_verify_matches_the_element_loop() {
        let w = TwoResults;
        let mut rng = DeterministicRng::new(5);
        let expected = results(&mut rng);
        assert_eq!(w.verify(&expected, &expected), Ok(()));
        // Chunk edges, the first and last element of both result buffers.
        let mut spots = Vec::new();
        for (b, len) in [(1usize, 300usize), (3, 200)] {
            for i in [0, 1, 63, 64, 65, 127, 128, 191, 192, 255, 256, len - 1] {
                if i < len {
                    spots.push((b, i));
                }
            }
        }
        for &(b, i) in &spots {
            for how in 0..6 {
                let mut actual = expected.clone();
                perturb(&mut actual[b][i], how);
                let got = w.verify(&expected, &actual);
                assert_eq!(
                    got,
                    reference_verify(&w, &expected, &actual),
                    "{b}/{i}/{how}"
                );
                assert_eq!(got.is_err(), how != 2, "{b}/{i}/{how}");
                // A non-finite expected value next to a finite result.
                let mut odd = expected.clone();
                perturb(&mut odd[b][i], 3 + how % 3);
                assert_eq!(
                    w.verify(&odd, &actual),
                    reference_verify(&w, &odd, &actual),
                    "expected {b}/{i}/{how}"
                );
            }
        }
        // Several perturbations at once: the first one wins, across buffers.
        for round in 0..500 {
            let mut actual = expected.clone();
            for _ in 0..1 + rng.next_below(3) {
                let (b, i) = spots[rng.next_below(spots.len() as u64) as usize];
                perturb(&mut actual[b][i], rng.next_below(6));
            }
            assert_eq!(
                w.verify(&expected, &actual),
                reference_verify(&w, &expected, &actual),
                "round {round}"
            );
        }
    }

    #[test]
    fn buffer_kind_predicates() {
        assert!(BufferKind::Input.needs_init());
        assert!(BufferKind::InOut.needs_init());
        assert!(!BufferKind::Output.needs_init());
        assert!(BufferKind::Output.is_result());
        assert!(!BufferKind::Scratch.is_result());
        assert!(BufferKind::Input.copied_to_device());
        assert!(!BufferKind::Output.copied_to_device());
        assert!(BufferKind::InOut.copied_from_device());
        assert!(!BufferKind::Input.copied_from_device());
    }

    #[test]
    fn buffer_spec_bytes() {
        let spec = BufferSpec {
            name: "x",
            elems: 1024,
            kind: BufferKind::Input,
        };
        assert_eq!(spec.bytes(), 4096);
    }
}
