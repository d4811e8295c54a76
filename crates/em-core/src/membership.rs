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

use serde::{Deserialize, Serialize};

/// A reusable O(1)-reset membership set over ids `0..capacity`.
///
/// Out-of-range ids are handled gracefully: `insert` ignores them and
/// `contains` reports `false`, so callers iterating mixed id sources
/// never index out of bounds.
///
/// `Membership` is `serde`-serializable so loop state that embeds one
/// (e.g. a battleship `MatchSession` checkpoint) round-trips with its
/// current set intact — stamps and the generation counter are persisted
/// together, so membership answers are identical after restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Encode the structure (stamps + generation) as a checksummed
    /// binary frame; [`Membership::from_bytes`] restores a set with
    /// identical membership answers. Stamps are varint-encoded: a
    /// session's generation counter stays small, so the common stamp is
    /// one byte on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = crate::codec::ByteWriter::with_capacity(self.stamp.len() + 16);
        w.put_varint(self.generation as u64);
        w.put_varint(self.stamp.len() as u64);
        for &s in &self.stamp {
            w.put_varint(s as u64);
        }
        crate::codec::write_frame(MEMBERSHIP_MAGIC, MEMBERSHIP_VERSION, w.as_slice())
    }

    /// Decode a frame written by [`Membership::to_bytes`]; corruption is
    /// a structured [`crate::EmError::Codec`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<Membership> {
        let payload =
            crate::codec::read_frame(bytes, MEMBERSHIP_MAGIC, MEMBERSHIP_VERSION, "Membership")?;
        let mut r = crate::codec::ByteReader::new(payload, "Membership");
        let stamp32 = |v: u64| {
            u32::try_from(v)
                .map_err(|_| crate::EmError::Codec(format!("Membership: stamp {v} exceeds u32")))
        };
        let generation = stamp32(r.get_varint()?)?;
        let n = r.get_varint_usize()?;
        if n > r.remaining() {
            return Err(crate::EmError::Codec(format!(
                "Membership: corrupt stamp count {n} with {} bytes remaining",
                r.remaining()
            )));
        }
        let stamp = (0..n)
            .map(|_| stamp32(r.get_varint()?))
            .collect::<crate::Result<Vec<u32>>>()?;
        r.finish()?;
        if generation == 0 {
            return Err(crate::EmError::Codec(
                "Membership: generation 0 is never live (fresh sets start at 1)".into(),
            ));
        }
        Ok(Membership { stamp, generation })
    }
}

/// Binary frame magic for [`Membership`].
const MEMBERSHIP_MAGIC: [u8; 4] = *b"EMMB";
/// Binary format version for [`Membership`].
const MEMBERSHIP_VERSION: u8 = 2;

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
    fn serde_roundtrip_preserves_current_set() {
        let mut m = Membership::new(6);
        m.insert(1);
        m.begin();
        m.insert(2);
        m.insert(4);
        let json = serde_json::to_string(&m).unwrap();
        let back: Membership = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.capacity(), 6);
        for i in 0..6 {
            assert_eq!(back.contains(i), m.contains(i), "id {i}");
        }
        // The restored generation counter keeps advancing correctly.
        let mut back = back;
        back.begin();
        assert!(!back.contains(2) && !back.contains(4));
    }

    #[test]
    fn binary_roundtrip_preserves_current_set() {
        let mut m = Membership::new(6);
        m.insert(1);
        m.begin();
        m.insert(2);
        m.insert(4);
        let bytes = m.to_bytes();
        let back = Membership::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        for i in 0..6 {
            assert_eq!(back.contains(i), m.contains(i), "id {i}");
        }
        // Corruption and zero generations are structured errors.
        assert!(Membership::from_bytes(&bytes[..bytes.len() - 2]).is_err());
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(Membership::from_bytes(&bad).is_err());
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
