//! Deterministic random number generation.
//!
//! Experiments must be reproducible run-to-run, so every stochastic element
//! of the platform (synthetic host interference traffic, randomised workload
//! initialisation) draws from a [`DeterministicRng`] seeded explicitly by the
//! experiment configuration.

/// A seedable random number generator with a small convenience API.
///
/// Implements xoshiro256++ seeded through splitmix64, entirely in-tree so the
/// concrete algorithm is not part of the public API of the workspace and the
/// build carries no external dependency.
#[derive(Clone, Debug)]
pub struct DeterministicRng {
    state: [u64; 4],
    seed: u64,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // splitmix64 expansion of the seed into the 256-bit state, as
        // recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
            seed,
        }
    }

    /// The seed this generator was created with.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `u64` over the full range.
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256++
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fills a slice with uniform `f32` values in `[lo, hi)`.
    pub fn fill_f32(&mut self, data: &mut [f32], lo: f32, hi: f32) {
        for v in data {
            *v = lo + self.next_f32() * (hi - lo);
        }
    }

    /// Derives an independent child generator; used when one experiment
    /// drives several stochastic components that must not share a stream.
    pub fn fork(&mut self, label: u64) -> DeterministicRng {
        DeterministicRng::new(self.next_u64() ^ label.rotate_left(17))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DeterministicRng::new(7);
        for _ in 0..1000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DeterministicRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn fill_f32_within_range() {
        let mut rng = DeterministicRng::new(5);
        let mut buf = vec![0.0f32; 512];
        rng.fill_f32(&mut buf, -2.0, 2.0);
        assert!(buf.iter().all(|&x| (-2.0..2.0).contains(&x)));
        assert!(buf.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn fork_produces_independent_generator() {
        let mut parent = DeterministicRng::new(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(1);
        // forks taken at different points differ
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
