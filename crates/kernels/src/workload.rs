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

    /// Human-readable problem size (e.g. `"128 x 128"`).
    fn params(&self) -> String;

    /// The buffers the kernel operates on, in a fixed order. Device pointers
    /// are later passed to [`Workload::device_kernel`] in the same order.
    fn buffers(&self) -> Vec<BufferSpec>;

    /// Generates initial contents for every buffer (buffers whose kind does
    /// not need initialisation get zeros of the right length).
    fn init(&self, rng: &mut DeterministicRng) -> Vec<Vec<f32>>;

    /// Computes the expected final contents of every buffer from the initial
    /// contents (the host reference implementation).
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
        let specs = self.buffers();
        for (b, spec) in specs.iter().enumerate() {
            if !spec.kind.is_result() {
                continue;
            }
            for i in 0..spec.elems {
                let e = expected[b][i];
                let a = actual[b][i];
                let tol = 1e-3_f32 * e.abs().max(1.0);
                if (e - a).abs() > tol || !a.is_finite() {
                    return Err(Error::VerificationFailed {
                        kernel: format!("{} (buffer {})", self.name(), spec.name),
                        index: i,
                    });
                }
            }
        }
        Ok(())
    }

    /// Total bytes of all buffers that must be made visible to the device.
    fn device_bytes(&self) -> u64 {
        self.buffers().iter().map(|b| b.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
