//! Synthetic host interference on the shared memory system.
//!
//! Section IV-C of the paper measures how concurrent host traffic affects the
//! IOMMU's page-table-walk latency: the host issues a synthetic random memory
//! stream while the accelerator runs, which (a) occupies the system bus and
//! DRAM controller, queueing device-side requests behind host requests, and
//! (b) evicts page-table-entry lines from the shared LLC. The paper measures
//! an average PTW slowdown of about 20 %.
//!
//! The [`Interference`] model reproduces both effects statistically: each
//! device-side access suffers a queueing delay proportional to the configured
//! bus utilisation of the host stream, and a matching number of random host
//! lines are touched in the LLC to model capacity pressure.

use sva_common::rng::DeterministicRng;
use sva_common::stats::Counter;
use sva_common::{Cycles, PhysAddr};

/// Configuration of the synthetic host-interference stream.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct InterferenceConfig {
    /// Fraction of DRAM/bus service capacity consumed by the host stream,
    /// in `[0, 0.95]`. Figure 5 runs at 0.35
    /// (`sva_host::InterferenceLevel::RandomTraffic`); the default of 0.5
    /// serves the unit tests.
    pub intensity: f64,
    /// Expected number of LLC lines touched by host traffic per device-side
    /// memory access (capacity/conflict pressure on cached PTEs).
    pub llc_lines_per_access: f64,
    /// Seed for the deterministic random stream.
    pub seed: u64,
}

impl Default for InterferenceConfig {
    fn default() -> Self {
        Self {
            intensity: 0.5,
            llc_lines_per_access: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

/// Statistics collected by the interference model.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InterferenceStats {
    /// Total queueing cycles injected into device-side accesses.
    pub queue_cycles: u64,
    /// Number of LLC lines polluted by the synthetic host stream.
    pub polluted_lines: u64,
}

/// The synthetic host-traffic interference model.
#[derive(Clone, Debug)]
pub struct Interference {
    config: InterferenceConfig,
    rng: DeterministicRng,
    queue_cycles: Counter,
    polluted_lines: Counter,
    /// Fractional accumulator for LLC pollution so rates below one line per
    /// access still generate pressure over time.
    pollution_accumulator: f64,
}

impl Interference {
    /// Creates an interference model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not within `[0, 0.95]`.
    pub fn new(config: InterferenceConfig) -> Self {
        assert!(
            (0.0..=0.95).contains(&config.intensity),
            "interference intensity must be in [0, 0.95]"
        );
        Self {
            rng: DeterministicRng::new(config.seed),
            config,
            queue_cycles: Counter::new(),
            polluted_lines: Counter::new(),
            pollution_accumulator: 0.0,
        }
    }

    /// The configuration of this model.
    pub const fn config(&self) -> &InterferenceConfig {
        &self.config
    }

    /// Queueing delay suffered by one device-side access whose uncontended
    /// service time is `service`.
    ///
    /// Uses the M/D/1 waiting-time shape `rho / (2 (1 - rho))` scaled by the
    /// service time, with a uniform random factor so individual accesses see
    /// variation around the mean, as on the real shared bus.
    pub fn queue_delay(&mut self, service: Cycles) -> Cycles {
        let rho = self.config.intensity;
        if rho <= 0.0 || service == Cycles::ZERO {
            return Cycles::ZERO;
        }
        let mean_wait = rho / (2.0 * (1.0 - rho)) * service.as_f64();
        // Uniform in [0, 2*mean) keeps the expectation at mean_wait.
        let wait = (2.0 * mean_wait * self.rng.next_f64()).round() as u64;
        self.queue_cycles.add(wait);
        Cycles::new(wait)
    }

    /// Returns the physical addresses of host lines to touch in the LLC to
    /// model capacity pressure for one device-side access. Addresses are
    /// uniformly distributed over `[hot_base, hot_base + hot_len)`, the
    /// working set of the synthetic host program.
    pub fn pollution_addresses(&mut self, hot_base: PhysAddr, hot_len: u64) -> Vec<PhysAddr> {
        if hot_len == 0 {
            return Vec::new();
        }
        self.pollution_accumulator += self.config.llc_lines_per_access;
        let n = self.pollution_accumulator.floor() as u64;
        self.pollution_accumulator -= n as f64;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let off = self.rng.next_below(hot_len) & !63;
            out.push(hot_base + off);
            self.polluted_lines.incr();
        }
        out
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> InterferenceStats {
        InterferenceStats {
            queue_cycles: self.queue_cycles.get(),
            polluted_lines: self.polluted_lines.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_adds_no_delay() {
        let mut i = Interference::new(InterferenceConfig {
            intensity: 0.0,
            ..InterferenceConfig::default()
        });
        assert_eq!(i.queue_delay(Cycles::new(1000)), Cycles::ZERO);
    }

    #[test]
    fn mean_delay_tracks_intensity() {
        let mut low = Interference::new(InterferenceConfig {
            intensity: 0.2,
            ..InterferenceConfig::default()
        });
        let mut high = Interference::new(InterferenceConfig {
            intensity: 0.8,
            ..InterferenceConfig::default()
        });
        let service = Cycles::new(600);
        let n = 2000;
        let avg = |m: &mut Interference| -> f64 {
            (0..n).map(|_| m.queue_delay(service).raw()).sum::<u64>() as f64 / n as f64
        };
        let a_low = avg(&mut low);
        let a_high = avg(&mut high);
        assert!(a_high > 3.0 * a_low, "high={a_high} low={a_low}");
        // Analytic means: 0.125*600=75 and 2.0*600=1200.
        assert!((a_low - 75.0).abs() < 20.0);
        assert!((a_high - 1200.0).abs() < 150.0);
    }

    #[test]
    fn pollution_respects_rate() {
        let mut i = Interference::new(InterferenceConfig {
            llc_lines_per_access: 0.5,
            ..InterferenceConfig::default()
        });
        let base = PhysAddr::new(0x8000_0000);
        let total: usize = (0..100)
            .map(|_| i.pollution_addresses(base, 1 << 20).len())
            .sum();
        assert_eq!(total, 50);
        assert_eq!(i.stats().polluted_lines, 50);
    }

    #[test]
    fn pollution_addresses_are_line_aligned_and_in_range() {
        let mut i = Interference::new(InterferenceConfig {
            llc_lines_per_access: 3.0,
            ..InterferenceConfig::default()
        });
        let base = PhysAddr::new(0x8000_0000);
        for addr in i.pollution_addresses(base, 1 << 16) {
            assert_eq!(addr.raw() % 64, 0);
            assert!(addr >= base && addr < base + (1 << 16));
        }
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn rejects_saturating_intensity() {
        let _ = Interference::new(InterferenceConfig {
            intensity: 0.99,
            ..InterferenceConfig::default()
        });
    }
}
