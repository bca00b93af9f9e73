//! Vocabulary for set-associative TLB organisations and replacement
//! policies.
//!
//! The translation hierarchy of the scaled platform (per-device L1 address
//! translation caches in front of a shared L2 IOTLB, see `sva_iommu`) is
//! configured through these two types. They live in `sva_common` because
//! they are pure configuration vocabulary — the TLB *core* that interprets
//! them is a hardware model and lives with the IOMMU.

/// Geometry of a set-associative TLB: `sets × ways` entries.
///
/// `sets == 1` is a fully-associative TLB (the paper's prototype IOTLB);
/// `ways == 1` is direct-mapped. Both dimensions must be at least one.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TlbOrg {
    /// Number of sets the tag is hashed into.
    pub sets: usize,
    /// Number of ways (entries) per set.
    pub ways: usize,
}

impl TlbOrg {
    /// Creates an organisation of `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "a TLB needs at least one set");
        assert!(ways > 0, "a TLB needs at least one way");
        Self { sets, ways }
    }

    /// A fully-associative organisation with `entries` entries (one set).
    pub fn fully_associative(entries: usize) -> Self {
        Self::new(1, entries)
    }

    /// A direct-mapped organisation with `entries` sets of one way each.
    pub fn direct_mapped(entries: usize) -> Self {
        Self::new(entries, 1)
    }

    /// Total number of entries (`sets × ways`).
    pub const fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Compact label (`"1x4"`, `"8x2"`, …) used in sweep output.
    pub fn label(&self) -> String {
        format!("{}x{}", self.sets, self.ways)
    }
}

/// Replacement policy of one TLB level. Every policy is deterministic: the
/// same run always evicts the same entries.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Exact least-recently-used: every hit and fill timestamps the entry;
    /// the victim is the oldest timestamp in the set. This is the paper
    /// prototype's policy.
    TrueLru,
    /// Bit-PLRU approximation: each entry carries one "recently used" bit,
    /// set on hit/fill; when every way of a set is marked, the other marks
    /// are cleared. The victim is the first unmarked way.
    PseudoLru,
    /// First-in-first-out: entries are victimised in fill order; hits do not
    /// refresh an entry.
    Fifo,
}

impl ReplacementPolicy {
    /// Compact label (`"lru"`, `"plru"`, `"fifo"`) used in sweep output.
    pub const fn label(&self) -> &'static str {
        match self {
            ReplacementPolicy::TrueLru => "lru",
            ReplacementPolicy::PseudoLru => "plru",
            ReplacementPolicy::Fifo => "fifo",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_constructors_and_entries() {
        let fa = TlbOrg::fully_associative(4);
        assert_eq!((fa.sets, fa.ways, fa.entries()), (1, 4, 4));
        let dm = TlbOrg::direct_mapped(8);
        assert_eq!((dm.sets, dm.ways, dm.entries()), (8, 1, 8));
        let sa = TlbOrg::new(4, 2);
        assert_eq!(sa.entries(), 8);
        assert_eq!(sa.label(), "4x2");
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_rejected() {
        let _ = TlbOrg::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = TlbOrg::new(4, 0);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(ReplacementPolicy::TrueLru.label(), "lru");
        assert_eq!(ReplacementPolicy::PseudoLru.label(), "plru");
        assert_eq!(ReplacementPolicy::Fifo.label(), "fifo");
    }
}
