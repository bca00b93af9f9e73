//! The global simulation clock shared by every initiator of the platform.
//!
//! Until PR 3 the simulator had no common time base: the DMA engines tracked
//! their own pipeline cycles, and host loads/stores and page-table walks
//! carried no timestamps at all, so the memory fabric could only observe
//! DMA-vs-DMA contention. [`GlobalClock`] closes that gap: it is a cheap,
//! cloneable handle onto one shared cycle counter that
//!
//! * the memory system consults to stamp accesses whose caller does not
//!   track an issue time of its own (every access now arrives *at* some
//!   point on the shared virtual timeline — there is no untimed traffic
//!   left),
//! * the host CPU and the synthetic host-traffic stream advance as they
//!   execute, and
//! * the cluster executors use as their local time cursor instead of ad-hoc
//!   `Cycles` variables.
//!
//! # Time-base model
//!
//! The platform keeps the *conceptually concurrent streams on one virtual
//! timeline* model of the fabric: the shards of a multi-cluster offload all
//! restart their cursor at zero when a measurement window opens (they run
//! concurrently in simulated time even though they are simulated
//! sequentially), and the host-traffic stream paces itself from the same
//! zero. A clone of a [`GlobalClock`] shares the underlying counter, so
//! every component that holds a clone observes the same "now".

use core::cell::Cell;
use core::fmt;
use std::rc::Rc;

use crate::cycles::Cycles;

/// A cloneable handle onto the shared global cycle counter.
///
/// Cloning is cheap and *shares* the counter: `clock.clone().advance(d)`
/// is visible through every other handle. The counter is monotonic under
/// [`GlobalClock::advance`]/[`GlobalClock::advance_to`]; only
/// [`GlobalClock::restart`] moves it backwards (used when a new measurement
/// window opens and every initiator's cursor returns to zero).
#[derive(Clone, Default)]
pub struct GlobalClock {
    now: Rc<Cell<u64>>,
}

impl GlobalClock {
    /// A fresh clock starting at cycle zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulation time.
    pub fn now(&self) -> Cycles {
        Cycles::new(self.now.get())
    }

    /// Advances the clock by `delta` cycles.
    pub fn advance(&self, delta: Cycles) {
        self.now.set(self.now.get() + delta.raw());
    }

    /// Advances the clock to `t` if `t` is later than the current time
    /// (no-op otherwise, so out-of-order completion reports cannot move
    /// time backwards).
    pub fn advance_to(&self, t: Cycles) {
        if t.raw() > self.now.get() {
            self.now.set(t.raw());
        }
    }

    /// Resets the clock to zero: a new measurement window opens and every
    /// initiator's local cursor restarts from the same origin.
    pub fn restart(&self) {
        self.now.set(0);
    }

    /// Whether `other` is a handle onto the same underlying counter.
    pub fn shares_counter_with(&self, other: &GlobalClock) -> bool {
        Rc::ptr_eq(&self.now, &other.now)
    }
}

impl fmt::Debug for GlobalClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GlobalClock({})", self.now.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_counter() {
        let a = GlobalClock::new();
        let b = a.clone();
        a.advance(Cycles::new(100));
        assert_eq!(b.now(), Cycles::new(100));
        assert!(a.shares_counter_with(&b));
        assert!(!a.shares_counter_with(&GlobalClock::new()));
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = GlobalClock::new();
        c.advance_to(Cycles::new(50));
        c.advance_to(Cycles::new(20));
        assert_eq!(c.now(), Cycles::new(50), "completion reports never rewind");
        c.advance_to(Cycles::new(70));
        assert_eq!(c.now(), Cycles::new(70));
    }

    #[test]
    fn restart_reopens_the_window() {
        let c = GlobalClock::new();
        c.advance(Cycles::new(1000));
        c.restart();
        assert_eq!(c.now(), Cycles::ZERO);
    }
}
