//! Simulation time, expressed in host-domain clock cycles.
//!
//! The prototype platform of the paper runs two clock domains on the FPGA:
//! the host domain (CVA6, interconnect, IOMMU, LLC, DRAM controller) at
//! 50 MHz and the Snitch-cluster domain at 20 MHz. All measurements in the
//! paper are reported in clock cycles of the measuring domain; this crate
//! normalises everything to **host cycles** and converts cluster-domain work
//! with the fixed 2.5× ratio.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Host-domain clock frequency of the FPGA prototype (Hz).
pub const HOST_FREQ_HZ: u64 = 50_000_000;

/// Cluster-domain clock frequency of the FPGA prototype (Hz).
pub const CLUSTER_FREQ_HZ: u64 = 20_000_000;

/// A duration (or point in time) measured in host-domain clock cycles.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(cycles: u64) -> Self {
        Self(cycles)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts a count of 20 MHz cluster-domain cycles into host-domain
    /// cycles, scaled by the 50 MHz / 20 MHz = 2.5 frequency ratio and
    /// rounded up so a non-zero amount of cluster work never becomes free.
    pub const fn from_cluster_cycles(cluster_cycles: u64) -> Self {
        Self((cluster_cycles * HOST_FREQ_HZ).div_ceil(CLUSTER_FREQ_HZ))
    }

    /// Returns the count as `f64`, convenient for ratios and plotting.
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub const fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two cycle counts.
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Returns the smaller of two cycle counts.
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }

    /// Ratio of `self` to `other` as a fraction (e.g. for "% of runtime spent
    /// waiting for DMA"). Returns 0.0 when `other` is zero.
    pub fn fraction_of(self, other: Cycles) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cycles({})", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Cycles::new(100);
        let b = Cycles::new(40);
        assert_eq!((a + b).raw(), 140);
        assert_eq!((a - b).raw(), 60);
        assert_eq!((a * 3).raw(), 300);
        assert_eq!((a / 4).raw(), 25);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let total: Cycles = [a, b, Cycles::new(10)].into_iter().sum();
        assert_eq!(total.raw(), 150);
    }

    #[test]
    fn cluster_to_host_ratio_is_2_5() {
        assert_eq!(Cycles::from_cluster_cycles(2), Cycles::new(5));
        assert_eq!(Cycles::from_cluster_cycles(100), Cycles::new(250));
        // Rounds up: 1 cluster cycle is 2.5 -> 3 host cycles.
        assert_eq!(Cycles::from_cluster_cycles(1), Cycles::new(3));
    }

    #[test]
    fn fraction_and_seconds() {
        let dma = Cycles::new(250);
        let total = Cycles::new(1000);
        assert!((dma.fraction_of(total) - 0.25).abs() < 1e-12);
        assert_eq!(Cycles::new(10).fraction_of(Cycles::ZERO), 0.0);
    }
}
