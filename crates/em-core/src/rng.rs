//! Deterministic, splittable pseudo-random number generation.
//!
//! Every stochastic component in the workspace (dataset generation, network
//! initialisation, mini-batch shuffling, residual budget allocation, ...)
//! draws from this generator so that an entire experiment is reproducible
//! from a single `u64` seed, as the paper's evaluation protocol requires
//! ("we report the average F1 values, calculated over 3 different seeds",
//! §4.2).
//!
//! The implementation is `xoshiro256**` seeded through `SplitMix64`, the
//! combination recommended by the xoshiro authors. We implement it locally
//! rather than pulling in `rand` so the whole workspace has a single,
//! stable, versioned source of randomness: an upgrade of an external crate
//! can never silently change experiment outputs.

use serde::{Deserialize, Serialize};

/// SplitMix64 step — used for seeding and for cheap stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded `xoshiro256**` generator.
///
/// Not cryptographically secure; statistically excellent and extremely fast,
/// which is what simulation workloads need.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

/// The complete serializable state of an [`Rng`].
///
/// Checkpointing a long-running consumer (e.g. a
/// battleship `MatchSession`) requires persisting the generator
/// mid-stream and resuming it bit-identically: [`Rng::state`] captures
/// everything the next draw depends on (the four `xoshiro256**` words
/// and the cached Box–Muller spare) and [`Rng::from_state`] rebuilds a
/// generator that continues the exact same stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RngState {
    /// The `xoshiro256**` state words (always 4; a `Vec` for portable
    /// serialization).
    pub s: Vec<u64>,
    /// Cached second output of the Box–Muller transform, if any.
    pub gauss_spare: Option<f64>,
}

/// Binary frame magic for [`RngState`].
const RNG_MAGIC: [u8; 4] = *b"EMRG";
/// Binary format version for [`RngState`].
const RNG_VERSION: u8 = 2;

impl RngState {
    /// Encode the state as a checksummed binary frame
    /// (see [`crate::codec`]). [`RngState::from_bytes`] restores a state
    /// that continues the exact same stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = crate::codec::ByteWriter::with_capacity(48);
        w.put_u64s(&self.s);
        w.put_opt_f64(self.gauss_spare);
        crate::codec::write_frame(RNG_MAGIC, RNG_VERSION, w.as_slice())
    }

    /// Decode a frame written by [`RngState::to_bytes`]. Corruption of
    /// any kind (truncation, bit flips, bad magic/version) is a
    /// structured [`crate::EmError::Codec`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<RngState> {
        let payload = crate::codec::read_frame(bytes, RNG_MAGIC, RNG_VERSION, "RngState")?;
        let mut r = crate::codec::ByteReader::new(payload, "RngState");
        let s = r.get_u64s()?;
        let gauss_spare = r.get_opt_f64()?;
        r.finish()?;
        Ok(RngState { s, gauss_spare })
    }
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    ///
    /// Two generators created from the same seed produce identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Capture the generator's complete state for checkpointing.
    pub fn state(&self) -> RngState {
        RngState {
            s: self.s.to_vec(),
            gauss_spare: self.gauss_spare,
        }
    }

    /// Rebuild a generator from a captured state.
    ///
    /// The result continues the exact output stream of the generator
    /// [`Rng::state`] was called on. Errors if the state words are
    /// malformed (wrong arity or all-zero, which `xoshiro256**` cannot
    /// escape from).
    pub fn from_state(state: &RngState) -> crate::Result<Rng> {
        let s: [u64; 4] = state.s.as_slice().try_into().map_err(|_| {
            crate::EmError::InvalidConfig(format!(
                "RngState needs exactly 4 state words, got {}",
                state.s.len()
            ))
        })?;
        if s == [0; 4] {
            return Err(crate::EmError::InvalidConfig(
                "RngState of all zeros is not a valid xoshiro256** state".into(),
            ));
        }
        Ok(Rng {
            s,
            gauss_spare: state.gauss_spare,
        })
    }

    /// Derive an independent child generator.
    ///
    /// `fork` lets one seed drive many logically-independent consumers
    /// (e.g. per-dataset, per-iteration, per-strategy) without their draw
    /// counts interfering with each other.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::seed_from_u64(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 top bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "Rng::below called with bound 0");
        let bound = bound as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as usize;
            }
            // Rejected a biased sample; retry (rare unless bound ~ 2^64).
        }
    }

    /// Uniform integer in `[lo, hi)`. Requires `lo < hi`.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "Rng::range requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal draw (Box–Muller, caches the second output).
    pub fn normal(&mut self) -> f64 {
        if let Some(spare) = self.gauss_spare.take() {
            return spare;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal draw with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniformly choose a reference from a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "Rng::choose on empty slice");
        &xs[self.below(xs.len())]
    }

    /// Sample `k` distinct indices from `[0, n)` without replacement.
    ///
    /// Returns all of `0..n` (shuffled) when `k >= n`. Uses a partial
    /// Fisher–Yates so the cost is `O(n)` memory but `O(k)` swaps.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Weighted index draw proportional to the non-negative `weights`.
    ///
    /// Returns `None` when all weights are zero (or the slice is empty).
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            target -= w;
            if target <= 0.0 {
                return Some(i);
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 4,
            "seeds 1 and 2 produced {same} collisions in 64 draws"
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_respects_bound_and_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10)] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(9);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle was identity");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng::seed_from_u64(13);
        let sample = rng.sample_indices(50, 20);
        assert_eq!(sample.len(), 20);
        let mut uniq = sample.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 20);
        assert!(sample.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_k_ge_n_returns_all() {
        let mut rng = Rng::seed_from_u64(17);
        let mut sample = rng.sample_indices(5, 99);
        sample.sort_unstable();
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = Rng::seed_from_u64(19);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > 8 * counts[0] / 2, "{counts:?}");
    }

    #[test]
    fn weighted_index_all_zero_is_none() {
        let mut rng = Rng::seed_from_u64(23);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[]), None);
    }

    #[test]
    fn fork_creates_independent_streams() {
        let mut parent = Rng::seed_from_u64(29);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let collisions = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(collisions < 4);
    }

    #[test]
    fn state_roundtrip_continues_stream() {
        let mut rng = Rng::seed_from_u64(37);
        // Burn some draws, including a normal() so the Box–Muller spare
        // is populated when the state is captured.
        for _ in 0..17 {
            rng.next_u64();
        }
        let _ = rng.normal();
        let state = rng.state();
        let mut resumed = Rng::from_state(&state).unwrap();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
        // The cached spare must survive too: both generators return it
        // on the next normal() without consuming uniforms.
        assert_eq!(rng.normal().to_bits(), resumed.normal().to_bits());
        for _ in 0..8 {
            assert_eq!(rng.normal().to_bits(), resumed.normal().to_bits());
        }
    }

    #[test]
    fn state_binary_roundtrip_continues_stream() {
        let mut rng = Rng::seed_from_u64(41);
        for _ in 0..9 {
            rng.next_u64();
        }
        let _ = rng.normal(); // populate the Box–Muller spare
        let state = rng.state();
        let bytes = state.to_bytes();
        let back = RngState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
        let mut resumed = Rng::from_state(&back).unwrap();
        assert_eq!(rng.normal().to_bits(), resumed.normal().to_bits());
        for _ in 0..32 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
        // Corruption is a structured error.
        assert!(RngState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        assert!(RngState::from_bytes(&bad).is_err());
    }

    #[test]
    fn state_rejects_malformed_words() {
        assert!(Rng::from_state(&RngState {
            s: vec![1, 2, 3],
            gauss_spare: None,
        })
        .is_err());
        assert!(Rng::from_state(&RngState {
            s: vec![0; 4],
            gauss_spare: None,
        })
        .is_err());
    }

    #[test]
    fn fork_is_deterministic() {
        let mut p1 = Rng::seed_from_u64(31);
        let mut p2 = Rng::seed_from_u64(31);
        let mut a = p1.fork(7);
        let mut b = p2.fork(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
