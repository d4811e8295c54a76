//! The sub-quadratic blocking tier: raw tables → candidate pairs.
//!
//! The paper assumes "the candidate pair set was already extracted using
//! existing methods" (§2.1) and names LSH as the route to cut neighbour
//! costs (§5.2). This module is that front stage. A [`BlockingSpec`]
//! picks one of three candidate generators:
//!
//! * [`BlockingSpec::Exhaustive`] — the full cross product `D1 × D2`,
//!   the bit-identical baseline at current sizes (guarded by a pair cap
//!   so nobody materializes 10¹⁰ pairs by accident);
//! * [`BlockingSpec::Token`] — `em-synth`'s inverted-index token
//!   blocker (shared non-stopword tokens);
//! * [`BlockingSpec::Lsh`] — banded SimHash. Each record's text is
//!   feature-hashed into a dense vector, and each of `n_bands` bands
//!   draws its own hyperplanes and computes a `band_bits`-wide bit
//!   signature per record via signed random-hyperplane projections
//!   ([`em_vector::lsh`], parallel and rayon-chunked over the
//!   [`em_vector::kernel`] dot path). Records sharing any band bucket
//!   become raw candidates, and an exact cosine re-rank keeps the best
//!   `max_per_record` partners per left record.
//!
//! All three produce the same shape of output: a duplicate-free pair
//! list sorted left-major ascending, so downstream consumers
//! (labelling, featurization, dataset assembly) never depend on which
//! tier ran. Every generator is deterministic in its config and —
//! because the parallel fan-outs are order-preserving maps of pure
//! closures — bit-identical for any worker-thread count.

use std::collections::HashMap;

use rayon::prelude::*;

use em_core::codec::fnv1a64;
use em_core::{CandidatePair, EmError, RecordId, Result, Rng, Table, TokenSet};
use em_synth::{block_candidates, BlockingConfig};
use em_vector::{lsh, Embeddings};

/// Hard cap on materialized exhaustive pairs (2²⁴ ≈ 1.7·10⁷): enough
/// for every legacy scenario and the co-computable recall anchor, small
/// enough that asking for a 10⁵-record cross product is an error, not
/// an OOM.
pub const MAX_EXHAUSTIVE_PAIRS: u128 = 1 << 24;

/// How a scenario turns raw tables into candidate pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BlockingSpec {
    /// Every `(left, right)` pair — the quadratic baseline.
    #[default]
    Exhaustive,
    /// Token blocking over an inverted index.
    Token(BlockingConfig),
    /// Banded random-hyperplane SimHash with exact re-ranking.
    Lsh(LshBlocking),
}

impl BlockingSpec {
    /// Scenario-name tag for non-default specs, so blocked variants of
    /// one dataset occupy distinct artifact-cache slots. `None` for
    /// exhaustive: the default spec must not rename anything.
    pub fn tag(&self) -> Option<String> {
        match self {
            BlockingSpec::Exhaustive => None,
            BlockingSpec::Token(_) => Some("token".into()),
            BlockingSpec::Lsh(l) => Some(format!("lsh{}x{}", l.band_bits, l.n_bands)),
        }
    }

    /// Validate the spec's parameters.
    pub fn validate(&self) -> Result<()> {
        match self {
            BlockingSpec::Exhaustive => Ok(()),
            // Token parameters are validated by `block_candidates`.
            BlockingSpec::Token(_) => Ok(()),
            BlockingSpec::Lsh(l) => l.validate(),
        }
    }
}

/// Parameters of the banded-LSH generator.
///
/// The classic banding trade-off: two records become raw candidates if
/// *any* band's `band_bits`-bit signature matches exactly, so collision
/// probability per matched pair is `1 − (1 − p^band_bits)^n_bands` for
/// per-bit agreement `p = 1 − θ/π`. Narrow bands raise recall, wide
/// bands raise precision; the defaults (8 bits × 32 bands, over
/// word + char-trigram features) measure ≥ 0.98 recall on the synthetic
/// pools while touching ~n/2⁸ of the right table per band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshBlocking {
    /// Signature width per band in hyperplane bits (1..=64 — each band
    /// key is one `u64`).
    pub band_bits: usize,
    /// Number of independent bands (each gets its own hyperplanes).
    pub n_bands: usize,
    /// Dimension of the hashed feature space records are projected from.
    pub feature_dim: usize,
    /// Candidates kept per left record after the exact cosine re-rank.
    pub max_per_record: usize,
    /// Band buckets larger than this are skipped when probing — the
    /// signature-space analogue of stopword removal. A degenerate
    /// bucket holding half the right table would otherwise drag the
    /// tier back to quadratic.
    pub max_bucket: usize,
    /// Seed for hyperplane sampling.
    pub seed: u64,
}

impl Default for LshBlocking {
    fn default() -> Self {
        LshBlocking {
            band_bits: 8,
            n_bands: 32,
            feature_dim: 256,
            max_per_record: 32,
            max_bucket: 1024,
            seed: 0xB10C,
        }
    }
}

impl LshBlocking {
    /// Validate band/bit geometry and sizes.
    pub fn validate(&self) -> Result<()> {
        if self.band_bits == 0 || self.band_bits > lsh::MAX_SIGNATURE_BITS {
            return Err(EmError::InvalidConfig(format!(
                "LSH blocking band_bits must be in 1..={}, got {}",
                lsh::MAX_SIGNATURE_BITS,
                self.band_bits
            )));
        }
        if self.n_bands == 0 {
            return Err(EmError::InvalidConfig(
                "LSH blocking needs >= 1 band".into(),
            ));
        }
        if self.feature_dim == 0 || self.max_per_record == 0 || self.max_bucket == 0 {
            return Err(EmError::InvalidConfig(
                "feature_dim, max_per_record and max_bucket must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Size accounting for one blocking run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingStats {
    /// Left-table size.
    pub n_left: usize,
    /// Right-table size.
    pub n_right: usize,
    /// Candidate pairs emitted.
    pub n_candidates: usize,
    /// `|D1|·|D2|` — what exhaustive would have produced.
    pub exhaustive_pairs: u128,
    /// `1 − candidates/exhaustive`: the fraction of the cross product
    /// the tier never touched (1.0 is perfect pruning, 0.0 is no
    /// pruning).
    pub reduction_ratio: f64,
}

impl BlockingStats {
    fn new(n_left: usize, n_right: usize, n_candidates: usize) -> Self {
        let exhaustive_pairs = (n_left as u128) * (n_right as u128);
        let reduction_ratio = if exhaustive_pairs == 0 {
            0.0
        } else {
            1.0 - (n_candidates as f64) / (exhaustive_pairs as f64)
        };
        BlockingStats {
            n_left,
            n_right,
            n_candidates,
            exhaustive_pairs,
            reduction_ratio,
        }
    }
}

/// A blocking run's result: the sorted, duplicate-free pair list plus
/// its size accounting.
#[derive(Debug, Clone)]
pub struct BlockingOutput {
    /// Candidate pairs, left-major ascending, duplicate-free.
    pub candidates: Vec<CandidatePair>,
    /// Size accounting.
    pub stats: BlockingStats,
}

/// Run a blocking spec over two raw tables.
pub fn block_tables(left: &Table, right: &Table, spec: &BlockingSpec) -> Result<BlockingOutput> {
    spec.validate()?;
    let candidates = match spec {
        BlockingSpec::Exhaustive => exhaustive_pairs(left, right)?,
        BlockingSpec::Token(config) => {
            let mut pairs = block_candidates(left, right, *config)?;
            // The token blocker emits per-left in overlap order; normalize
            // to the tier's left-major contract.
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        }
        BlockingSpec::Lsh(config) => lsh_block(left, right, config)?,
    };
    let stats = BlockingStats::new(left.len(), right.len(), candidates.len());
    Ok(BlockingOutput { candidates, stats })
}

/// The full cross product, left-major — refuses to materialize more
/// than [`MAX_EXHAUSTIVE_PAIRS`].
fn exhaustive_pairs(left: &Table, right: &Table) -> Result<Vec<CandidatePair>> {
    let total = (left.len() as u128) * (right.len() as u128);
    if total > MAX_EXHAUSTIVE_PAIRS {
        return Err(EmError::InvalidConfig(format!(
            "exhaustive blocking would materialize {total} pairs (cap {MAX_EXHAUSTIVE_PAIRS}); \
             use a Token or Lsh BlockingSpec at this scale"
        )));
    }
    let mut out = Vec::with_capacity(total as usize);
    for l in 0..left.len() as u32 {
        for r in 0..right.len() as u32 {
            out.push(CandidatePair::new(RecordId(l), RecordId(r)));
        }
    }
    Ok(out)
}

/// Feature-hash one record's text into a dense `dim`-vector: every word
/// token and char trigram adds its count into slot `hash % dim` with
/// sign from the hash's top bit (the signed trick keeps collisions
/// unbiased), then L2-normalize so downstream dot products are cosines.
///
/// Trigrams dominate the mass and are what make perturbed views of one
/// entity land close: a typo destroys a whole word token but only ~3 of
/// its trigrams, so matched-pair cosine stays high under the noise
/// levels the generators emit.
fn hash_record(text: &str, dim: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    let mut add = |h: u64, weight: f32| {
        let slot = (h % dim as u64) as usize;
        let sign = if h >> 63 == 0 { 1.0 } else { -1.0 };
        v[slot] += sign * weight;
    };
    let tokens = TokenSet::from_text(text);
    for (token, count) in tokens.iter() {
        add(fnv1a64(token.as_bytes()), count as f32);
    }
    for gram in em_core::char_ngrams(text, 3) {
        // Offset trigram hashes from word hashes so "cat" the word and
        // "cat" the trigram occupy independent slots.
        add(fnv1a64(gram.as_bytes()) ^ 0x9e37_79b9_7f4a_7c15, 1.0);
    }
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

/// Feature-hash every record of a table, in parallel, row order
/// preserved.
fn hash_table(table: &Table, dim: usize) -> Result<Embeddings> {
    let rows: Vec<Vec<f32>> = (0..table.len())
        .into_par_iter()
        .map(|i| hash_record(&table.records()[i].full_text(), dim))
        .collect();
    Embeddings::from_rows(&rows)
}

/// Banded SimHash blocking: signatures → band buckets → exact re-rank.
fn lsh_block(left: &Table, right: &Table, config: &LshBlocking) -> Result<Vec<CandidatePair>> {
    if left.is_empty() || right.is_empty() {
        return Ok(Vec::new());
    }

    // 1. Per-band signatures (parallel over rows inside
    //    `lsh::signatures`); each band draws its own hyperplanes from
    //    the shared seeded stream.
    let left_vecs = hash_table(left, config.feature_dim)?;
    let right_vecs = hash_table(right, config.feature_dim)?;
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut left_sigs: Vec<Vec<u64>> = Vec::with_capacity(config.n_bands);
    let mut right_sigs: Vec<Vec<u64>> = Vec::with_capacity(config.n_bands);
    for _ in 0..config.n_bands {
        let planes = lsh::sample_planes(config.band_bits, config.feature_dim, &mut rng);
        left_sigs.push(lsh::signatures(&left_vecs, &planes, config.band_bits)?);
        right_sigs.push(lsh::signatures(&right_vecs, &planes, config.band_bits)?);
    }

    // 2. Bucket the right table per band.
    let mut bands: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); config.n_bands];
    for (b, buckets) in bands.iter_mut().enumerate() {
        for (i, &sig) in right_sigs[b].iter().enumerate() {
            buckets.entry(sig).or_default().push(i as u32);
        }
    }

    // 3. Probe + re-rank, parallel over fixed chunks of left records.
    //    Per-record closures allocated three Vecs each (candidates,
    //    ranked, kept) — at 20k records that churn made the parallel
    //    tier *slower* than serial (BENCH_blocking.json recorded
    //    0.909×). Chunking amortises the scratch buffers across
    //    `PROBE_CHUNK` records and emits one output Vec per chunk.
    //    Chunks are contiguous `li` ranges processed in order-preserving
    //    parallel, so the flattened pair list is bit-identical to the
    //    per-record version for any thread count.
    const PROBE_CHUNK: usize = 1024;
    let n_chunks = left.len().div_ceil(PROBE_CHUNK);
    let per_chunk: Vec<Vec<CandidatePair>> = (0..n_chunks)
        .into_par_iter()
        .map(|ci| {
            let lo = ci * PROBE_CHUNK;
            let hi = (lo + PROBE_CHUNK).min(left.len());
            let mut out: Vec<CandidatePair> = Vec::new();
            let mut cands: Vec<u32> = Vec::new();
            let mut ranked: Vec<(f32, u32)> = Vec::new();
            // `li` indexes every per-band signature column plus the
            // vector table, so a range loop beats zipping four iterators.
            #[allow(clippy::needless_range_loop)]
            for li in lo..hi {
                cands.clear();
                for (b, buckets) in bands.iter().enumerate() {
                    let key = left_sigs[b][li];
                    if let Some(bucket) = buckets.get(&key) {
                        // Stop-bucket guard: a band value shared by a huge
                        // slice of the right table carries no signal.
                        if bucket.len() <= config.max_bucket {
                            cands.extend_from_slice(bucket);
                        }
                    }
                }
                cands.sort_unstable();
                cands.dedup();
                // Exact cosine re-rank (rows are L2-normalized, so dot =
                // cosine), keep the best `max_per_record`.
                let lv = left_vecs.row(li);
                ranked.clear();
                ranked.extend(
                    cands
                        .iter()
                        .map(|&ri| (em_vector::dot(lv, right_vecs.row(ri as usize)), ri)),
                );
                ranked.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                ranked.truncate(config.max_per_record);
                // Emit ascending right id so the flattened list is sorted.
                ranked.sort_unstable_by_key(|&(_, ri)| ri);
                out.extend(
                    ranked
                        .iter()
                        .map(|&(_, ri)| CandidatePair::new(RecordId(li as u32), RecordId(ri))),
                );
            }
            out
        })
        .collect();

    Ok(per_chunk.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::Schema;
    use em_synth::{generate_pool, PoolProfile};

    fn small_pool(n: usize, seed: u64) -> em_synth::RecordPool {
        let profile = PoolProfile::products(format!("blk-{n}-{seed}"), n);
        generate_pool(&profile, &mut Rng::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn spec_tags_and_default() {
        assert_eq!(BlockingSpec::default(), BlockingSpec::Exhaustive);
        assert_eq!(BlockingSpec::Exhaustive.tag(), None);
        assert_eq!(
            BlockingSpec::Token(BlockingConfig::default())
                .tag()
                .unwrap(),
            "token"
        );
        assert_eq!(
            BlockingSpec::Lsh(LshBlocking::default()).tag().unwrap(),
            "lsh8x32"
        );
    }

    #[test]
    fn lsh_config_validation() {
        assert!(LshBlocking::default().validate().is_ok());
        for bad in [
            LshBlocking {
                band_bits: 0,
                ..Default::default()
            },
            LshBlocking {
                band_bits: 65,
                ..Default::default()
            },
            LshBlocking {
                n_bands: 0,
                ..Default::default()
            },
            LshBlocking {
                feature_dim: 0,
                ..Default::default()
            },
            LshBlocking {
                max_per_record: 0,
                ..Default::default()
            },
            LshBlocking {
                max_bucket: 0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn exhaustive_is_the_sorted_cross_product() {
        let schema = Schema::new(["t"]).unwrap();
        let mut l = Table::new("l", schema.clone());
        let mut r = Table::new("r", schema);
        for i in 0..3 {
            l.push([format!("left {i}")]).unwrap();
        }
        for i in 0..2 {
            r.push([format!("right {i}")]).unwrap();
        }
        let out = block_tables(&l, &r, &BlockingSpec::Exhaustive).unwrap();
        assert_eq!(out.candidates.len(), 6);
        assert!(out.candidates.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(out.stats.exhaustive_pairs, 6);
        assert_eq!(out.stats.reduction_ratio, 0.0);
    }

    #[test]
    fn exhaustive_refuses_to_materialize_huge_matrices() {
        // Two fake "tables" big enough to blow the cap — use the stats
        // path without pushing records by checking the guard directly.
        let pool = small_pool(600, 3);
        let total = pool.exhaustive_pairs();
        assert!(total < MAX_EXHAUSTIVE_PAIRS, "test pool should be small");
        // The guard itself: a pool whose cross product exceeds the cap.
        // 5k × 5k = 2.5e7 > 2^24.
        let big = small_pool(10_000, 4);
        assert!(big.exhaustive_pairs() > MAX_EXHAUSTIVE_PAIRS);
        assert!(block_tables(&big.left, &big.right, &BlockingSpec::Exhaustive).is_err());
    }

    #[test]
    fn lsh_candidates_are_sorted_unique_and_subquadratic() {
        let pool = small_pool(2000, 7);
        let out = block_tables(
            &pool.left,
            &pool.right,
            &BlockingSpec::Lsh(LshBlocking::default()),
        )
        .unwrap();
        assert!(!out.candidates.is_empty());
        assert!(
            out.candidates.windows(2).all(|w| w[0] < w[1]),
            "candidates must be strictly increasing (sorted + dup-free)"
        );
        assert!(
            out.stats.reduction_ratio > 0.9,
            "reduction {}",
            out.stats.reduction_ratio
        );
        // Every id must be in range.
        let last = out.candidates.last().unwrap();
        assert!((last.left.0 as usize) < pool.left.len());
        for p in &out.candidates {
            assert!((p.right.0 as usize) < pool.right.len());
        }
    }

    #[test]
    fn lsh_recall_beats_gate_on_synthetic_pool() {
        let pool = small_pool(2000, 11);
        let out = block_tables(
            &pool.left,
            &pool.right,
            &BlockingSpec::Lsh(LshBlocking::default()),
        )
        .unwrap();
        let recall = em_synth::blocking_recall(&out.candidates, &pool.true_matches);
        assert!(recall >= 0.95, "LSH blocking recall {recall}");
    }

    #[test]
    fn token_candidates_are_sorted_unique() {
        let pool = small_pool(1200, 13);
        let out = block_tables(
            &pool.left,
            &pool.right,
            &BlockingSpec::Token(BlockingConfig::default()),
        )
        .unwrap();
        assert!(!out.candidates.is_empty());
        assert!(out.candidates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lsh_is_deterministic_and_thread_count_invariant() {
        let pool = small_pool(800, 17);
        let spec = BlockingSpec::Lsh(LshBlocking::default());
        let a = block_tables(&pool.left, &pool.right, &spec).unwrap();
        let b = block_tables(&pool.left, &pool.right, &spec).unwrap();
        let serial = rayon::serial_scope(|| block_tables(&pool.left, &pool.right, &spec).unwrap());
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.candidates, serial.candidates);
    }

    #[test]
    fn stop_buckets_are_skipped() {
        // All-identical records collapse into one bucket per band; with
        // max_bucket below the table size the tier must emit nothing
        // rather than the cross product.
        let schema = Schema::new(["t"]).unwrap();
        let mut l = Table::new("l", schema.clone());
        let mut r = Table::new("r", schema);
        for _ in 0..50 {
            l.push(["same exact text"]).unwrap();
            r.push(["same exact text"]).unwrap();
        }
        let spec = BlockingSpec::Lsh(LshBlocking {
            max_bucket: 10,
            ..Default::default()
        });
        let out = block_tables(&l, &r, &spec).unwrap();
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn empty_tables_yield_empty_output() {
        let schema = Schema::new(["t"]).unwrap();
        let empty = Table::new("e", schema.clone());
        let mut one = Table::new("o", schema);
        one.push(["alpha beta"]).unwrap();
        for spec in [
            BlockingSpec::Exhaustive,
            BlockingSpec::Token(BlockingConfig::default()),
            BlockingSpec::Lsh(LshBlocking::default()),
        ] {
            let out = block_tables(&empty, &one, &spec).unwrap();
            assert!(out.candidates.is_empty(), "{spec:?}");
        }
    }

    #[test]
    fn feature_hashing_is_stable() {
        let v = hash_record("alpha beta alpha", 8);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_eq!(v, hash_record("alpha beta alpha", 8));
    }
}
