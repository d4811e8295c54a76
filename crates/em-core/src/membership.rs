//! Index-based membership test over dense id spaces.
//!
//! Several layers of the workspace repeatedly need "is id `i` in this
//! set?" for sets they just built (a drawn seed, the unlabeled pool, an
//! iteration's selections). Rebuilding a `HashSet` for each is a
//! hash-table construction per set over id spaces of up to hundreds of
//! thousands of entries. [`Membership`] is the classic stamped-set
//! alternative: one `u32` stamp per id for the lifetime of the
//! structure, [`Membership::begin`] opens a new (empty) set in O(1) by
//! bumping the generation counter, and [`Membership::insert`] /
//! [`Membership::contains`] are single array accesses.

/// A reusable O(1)-reset membership set over ids `0..capacity`.
///
/// Out-of-range ids are handled gracefully: `insert` ignores them and
/// `contains` reports `false`, so callers iterating mixed id sources
/// never index out of bounds.
///
/// A `Membership` is scratch state: every use opens a fresh set with
/// [`Membership::begin`], so loop state that embeds one (e.g. a
/// battleship `MatchSession`) never needs to persist it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    stamp: Vec<u32>,
    generation: u32,
}

impl Membership {
    /// All-empty membership over ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        // Stamps start at 0 and the generation at 1, so a fresh set is
        // empty even before the first `begin`.
        Membership {
            stamp: vec![0; capacity],
            generation: 1,
        }
    }

    /// Number of ids the set can hold (`0..capacity`).
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }

    /// Start a fresh (empty) set, invalidating all previous inserts.
    ///
    /// O(1) except once every `u32::MAX − 1` generations, when the stamp
    /// vector is rewritten so stale stamps from the previous cycle can
    /// never alias the restarted generation counter.
    pub fn begin(&mut self) {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Add `i` to the current set; out-of-range ids are ignored.
    pub fn insert(&mut self, i: usize) {
        if let Some(s) = self.stamp.get_mut(i) {
            *s = self.generation;
        }
    }

    /// Whether `i` is in the current set (out-of-range ids are not).
    pub fn contains(&self, i: usize) -> bool {
        self.stamp.get(i).is_some_and(|&s| s == self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_is_empty() {
        let m = Membership::new(4);
        assert_eq!(m.capacity(), 4);
        for i in 0..4 {
            assert!(!m.contains(i));
        }
    }

    #[test]
    fn insert_begin_insert_cycles() {
        let mut m = Membership::new(8);
        m.insert(3);
        m.insert(5);
        assert!(m.contains(3) && m.contains(5) && !m.contains(4));
        m.begin();
        assert!(!m.contains(3) && !m.contains(5));
        m.insert(4);
        assert!(m.contains(4) && !m.contains(3));
    }

    #[test]
    fn out_of_range_ids_are_inert() {
        let mut m = Membership::new(3);
        m.insert(3);
        m.insert(usize::MAX);
        assert!(!m.contains(3));
        assert!(!m.contains(usize::MAX));
        // In-range behavior is unaffected by the ignored inserts.
        m.insert(2);
        assert!(m.contains(2));
    }

    #[test]
    fn zero_capacity_set_never_contains() {
        let mut m = Membership::new(0);
        m.insert(0);
        assert!(!m.contains(0));
        m.begin();
        assert!(!m.contains(0));
    }

    #[test]
    fn generation_rollover_clears_stale_stamps() {
        let mut m = Membership::new(4);
        m.insert(1);
        // Force the counter to the wrap point: stamps written in earlier
        // generations must not reappear once the counter restarts.
        m.generation = u32::MAX;
        m.insert(2); // stamped u32::MAX
        assert!(m.contains(2) && !m.contains(1));
        m.begin(); // wraps: stamps cleared, generation restarts at 1
        assert!(!m.contains(1) && !m.contains(2));
        m.insert(0);
        assert!(m.contains(0));
        // A stamp surviving from before the wrap (value 0 after the
        // fill) can never equal the restarted generation.
        m.begin();
        assert!(!m.contains(0));
    }

    #[test]
    fn rollover_preserves_capacity() {
        let mut m = Membership::new(2);
        m.generation = u32::MAX;
        m.begin();
        assert_eq!(m.capacity(), 2);
        m.insert(1);
        assert!(m.contains(1));
    }
}
