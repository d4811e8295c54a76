//! Pair featurization: signed feature hashing over the DITTO
//! serialization plus binned overlap channels and, for ablations, a
//! dense per-attribute similarity block.
//!
//! Features are a pure function of the record text (§4.2), independent
//! of the model, so the battleship runner featurizes each dataset exactly
//! once and reuses the matrix across all iterations, strategies and
//! seeds.
//!
//! Layout of one feature vector:
//!
//! ```text
//! [ 0 .. n_buckets )    signed hashed token features, three namespaces:
//!                       tokens in both records ("I:"), left only ("L:"),
//!                       right only ("R:"), count-weighted and
//!                       L2-normalized
//! [ n_buckets .. +5·bins )
//!                       one-hot binned overlap channels: word jaccard,
//!                       char n-gram jaccard, overlap coefficient,
//!                       numeric agreement, IDF-weighted jaccard
//! [ .. dim )            only with `include_sim_block`: the dense
//!                       similarity block of `similarity_vector`
//! ```
//!
//! # Records once, pairs across the pool
//!
//! Each record sits in about two candidate pairs, so
//! [`Featurizer::featurize_all`] represents each record once and then
//! compares pairs, in three passes:
//!
//! 1. **Records**, across the pool: one view per record, built from one
//!    `full_text` — its word-token counts, its char n-grams as sorted
//!    windows into its padded characters, and its attribute values parsed
//!    as numbers.
//! 2. **Tokens**, once each: the dataset's distinct tokens sorted into a
//!    vocabulary whose id order is string order. Each token's bucket and
//!    sign in the three namespaces and its IDF weight are computed once,
//!    and each record keeps its tokens as `(id, count)` runs in id order.
//! 3. **Pairs**, across the pool: merge walks over two records' runs,
//!    each written into its row of one `n × dim` buffer allocated at its
//!    exact size. The views are dropped before the matrix is returned.
//!
//! [`Featurizer::featurize`] runs the same passes over one pair's two
//! records, so one kernel computes every row.
//!
//! The features are bit-identical to a per-pair featurization over
//! string-keyed token sets, because the walks keep every floating-point
//! accumulation in that order (integer counts are order-free):
//!
//! * a bucket's `+=` sequence is the left tokens' bumps in string order
//!   (each token's `I:` before its `L:`), then the `R:` bumps of the right
//!   tokens whose count exceeds the left's, in string order;
//! * the IDF-weighted jaccard's `union` sums all left tokens first, then
//!   the right-only ones (one interleaved merge would move bits);
//! * a token the featurizer's corpus never saw weighs 12.0 (rare by
//!   definition), so `featurize` works on a dataset [`Featurizer::new`]
//!   never saw;
//! * a text shorter than the n-gram size is one n-gram, itself.

use em_core::codec::fnv1a64;
use em_core::{
    char_ngrams, jaccard, jaccard_from_sizes, overlap_coefficient, overlap_from_sizes, tokenize,
    Dataset, EmError, PairIdx, Record, Result, TokenSet,
};
use em_vector::Embeddings;
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Dense similarity features per attribute.
const PER_ATTR_FEATURES: usize = 6;
/// Dense whole-record features.
const GLOBAL_FEATURES: usize = 4;

/// Pairs per parallel chunk of [`Featurizer::similarity_all`].
const SIM_CHUNK: usize = 64;

/// Featurizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureConfig {
    /// Hashed-token buckets. More buckets → fewer collisions, bigger
    /// model.
    pub n_buckets: usize,
    /// Character n-gram size for the typo-robust similarity features.
    pub trigram_n: usize,
    /// Include the dense engineered-similarity block in
    /// [`Featurizer::featurize`].
    ///
    /// **Off by default**: the matcher this crate substitutes for (DITTO)
    /// learns its notion of similarity from raw serialized text, which is
    /// precisely why it needs many labels — the low-resource regime the
    /// paper studies. Engineered similarity features act like Magellan's
    /// classic feature vectors and let ~100 labels saturate the task,
    /// erasing the learning curve every experiment measures. The dense
    /// block remains available for ZeroER
    /// ([`Featurizer::similarity_vector`] is independent of this flag)
    /// and for ablations.
    pub include_sim_block: bool,
    /// Number of one-hot bins per binned-overlap channel (see
    /// [`Featurizer::featurize`]). One-hot binning keeps the channel
    /// *learnable*: each bin's vote must be estimated from labeled
    /// examples, so ~100 labels yield a rough matcher while thousands
    /// sharpen it — the learning-curve shape of a fine-tuned PLM.
    pub overlap_bins: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            n_buckets: 768,
            trigram_n: 3,
            include_sim_block: false,
            overlap_bins: 16,
        }
    }
}

/// Binned-overlap channels: word jaccard, char-trigram jaccard, overlap
/// coefficient, numeric agreement, IDF-weighted jaccard.
const OVERLAP_CHANNELS: usize = 5;

/// IDF weight of a token outside the featurizer's corpus: high, since
/// such a token is rare by definition.
const UNSEEN_IDF: f64 = 12.0;

/// Hash namespaces of the token block: in both records, left only,
/// right only.
const NAMESPACES: [&str; 3] = ["I:", "L:", "R:"];

/// Featurizes candidate pairs of one dataset.
#[derive(Debug, Clone)]
pub struct Featurizer {
    config: FeatureConfig,
    n_attrs: usize,
    /// Token → inverse document frequency over both tables, used by the
    /// IDF-weighted overlap channel (rare shared tokens — model numbers,
    /// exact titles — are the strongest match evidence; siblings share
    /// only frequent brand/category tokens).
    idf: HashMap<String, f64>,
}

/// A vocabulary token's hashing and weight, computed once per dataset.
struct Term {
    /// `(bucket, sign)` in the `I:`, `L:` and `R:` namespaces.
    slots: [(u32, f32); 3],
    /// IDF weight, [`UNSEEN_IDF`] outside the featurizer's corpus.
    idf: f64,
}

/// A record's char n-grams: the distinct windows of its padded
/// characters, sorted by content, with their counts.
struct Grams {
    /// `#`, the lower-cased non-whitespace characters, `#`.
    chars: Vec<char>,
    /// Window length: n, or the whole padded text when that is shorter.
    len: usize,
    /// `(window start, count)` per distinct n-gram, in n-gram order.
    runs: Vec<(u32, u32)>,
    /// Number of windows.
    total: u32,
}

impl Grams {
    /// The n-grams of `text`, as [`char_ngrams`] cuts them.
    fn new(text: &str, n: usize) -> Self {
        let chars: Vec<char> = std::iter::once('#')
            .chain(text.to_lowercase().chars().filter(|c| !c.is_whitespace()))
            .chain(std::iter::once('#'))
            .collect();
        let len = n.min(chars.len());
        let total = (chars.len() - len + 1) as u32;
        let window = |s: &u32| &chars[*s as usize..][..len];
        let mut starts: Vec<u32> = (0..total).collect();
        starts.sort_unstable_by(|a, b| window(a).cmp(window(b)));
        let runs = count_runs(starts, |a, b| window(a) == window(b));
        Grams {
            chars,
            len,
            runs,
            total,
        }
    }

    /// The text of distinct n-gram `i`.
    fn gram(&self, i: usize) -> &[char] {
        &self.chars[self.runs[i].0 as usize..][..self.len]
    }

    /// Size of the multiset intersection with `other`.
    fn intersection_size(&self, other: &Grams) -> u32 {
        let (mut i, mut j, mut inter) = (0, 0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            match self.gram(i).cmp(other.gram(j)) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    inter += self.runs[i].1.min(other.runs[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        inter
    }
}

/// A record before its tokens have vocabulary ids (pass 1).
struct RawView {
    /// Distinct word tokens in string order, with their counts.
    tokens: Vec<(String, u32)>,
    grams: Grams,
    /// Each attribute value parsed as a number.
    numbers: Vec<Option<f64>>,
}

/// A record as the pair kernel reads it (pass 2).
struct RecordView {
    /// `(vocabulary id, count)` runs in id (= string) order.
    tokens: Vec<(u32, u32)>,
    /// Number of word tokens, repeats included.
    n_tokens: u32,
    grams: Grams,
    numbers: Vec<Option<f64>>,
}

/// The left table's records, then the right table's.
fn all_records(dataset: &Dataset) -> Vec<&Record> {
    let (left, right) = (dataset.left.records(), dataset.right.records());
    left.iter().chain(right).collect()
}

/// Collapse equal neighbours of a sorted sequence into `(item, count)`.
fn count_runs<T>(sorted: Vec<T>, same: impl Fn(&T, &T) -> bool) -> Vec<(T, u32)> {
    let mut runs: Vec<(T, u32)> = Vec::new();
    for x in sorted {
        match runs.last_mut() {
            Some((y, c)) if same(y, &x) => *c += 1,
            _ => runs.push((x, 1)),
        }
    }
    runs
}

/// The count of `id` in `run`, moving `cursor` forward; successive calls
/// must ask for increasing ids.
fn count_of(run: &[(u32, u32)], cursor: &mut usize, id: u32) -> u32 {
    while *cursor < run.len() && run[*cursor].0 < id {
        *cursor += 1;
    }
    match run.get(*cursor) {
        Some(&(i, c)) if i == id => c,
        _ => 0,
    }
}

impl Featurizer {
    /// Create a featurizer for `dataset`'s schema.
    pub fn new(dataset: &Dataset, config: FeatureConfig) -> Result<Self> {
        if config.n_buckets < 16 {
            return Err(EmError::InvalidConfig(format!(
                "n_buckets {} too small",
                config.n_buckets
            )));
        }
        if config.trigram_n == 0 {
            return Err(EmError::InvalidConfig("trigram_n must be > 0".into()));
        }
        if config.overlap_bins < 2 {
            return Err(EmError::InvalidConfig("overlap_bins must be >= 2".into()));
        }
        // Document frequencies over both tables, tokenized across the pool.
        let records = all_records(dataset);
        let docs: Vec<Vec<String>> = records
            .par_iter()
            .map(|rec| {
                let mut tokens = tokenize(&rec.full_text());
                tokens.sort_unstable();
                tokens.dedup();
                tokens
            })
            .collect();
        let mut df: HashMap<String, u32> = HashMap::new();
        for t in docs.into_iter().flatten() {
            *df.entry(t).or_insert(0) += 1;
        }
        let n_docs = records.len();
        let idf = df
            .into_iter()
            .map(|(t, d)| (t, ((1.0 + n_docs as f64) / (1.0 + d as f64)).ln()))
            .collect();
        Ok(Featurizer {
            config,
            n_attrs: dataset.left.schema.len(),
            idf,
        })
    }

    /// Total feature dimension.
    pub fn dim(&self) -> usize {
        let base = self.config.n_buckets + OVERLAP_CHANNELS * self.config.overlap_bins;
        if self.config.include_sim_block {
            base + self.sim_dim()
        } else {
            base
        }
    }

    /// Dimension of the dense similarity block alone (used by ZeroER,
    /// which models similarity vectors generatively).
    pub fn sim_dim(&self) -> usize {
        self.n_attrs * PER_ATTR_FEATURES + GLOBAL_FEATURES
    }

    /// Featurize one pair: the passes of [`Featurizer::featurize_all`]
    /// over its two records.
    pub fn featurize(&self, dataset: &Dataset, idx: PairIdx) -> Result<Vec<f32>> {
        let (l, r) = dataset.pair_records(idx)?;
        let (terms, views) = self.views(&[l, r]);
        let mut out = vec![0.0f32; self.dim()];
        self.featurize_pair(&terms, (&views[0], l), (&views[1], r), &mut out);
        Ok(out)
    }

    /// Featurize every pair of the dataset into one matrix, row `i` being
    /// pair `i`: record views across the pool, the sorted vocabulary, then
    /// the pairs across the pool into one buffer of exactly `n × dim`
    /// floats (see the module docs for the passes and the orders they
    /// keep). The output is bit-identical for any thread count.
    pub fn featurize_all(&self, dataset: &Dataset) -> Result<Embeddings> {
        // Resolve every pair first, so the parallel pass cannot fail.
        for i in 0..dataset.len() {
            dataset.pair_records(i)?;
        }
        let records = all_records(dataset);
        let n_left = dataset.left.len();
        let dim = self.dim();
        let mut data = vec![0.0f32; dataset.len() * dim];
        {
            let (terms, views) = self.views(&records);
            let rows: Vec<_> = dataset.pairs().iter().zip(data.chunks_mut(dim)).collect();
            rows.into_par_iter().for_each(|(p, row)| {
                let (l, r) = (p.left.index(), n_left + p.right.index());
                self.featurize_pair(
                    &terms,
                    (&views[l], records[l]),
                    (&views[r], records[r]),
                    row,
                );
            });
        }
        Embeddings::from_flat(dim, data)
    }

    /// Passes 1 and 2: one view per record, and the vocabulary of their
    /// tokens.
    fn views(&self, records: &[&Record]) -> (Vec<Term>, Vec<RecordView>) {
        let raws: Vec<RawView> = records.par_iter().map(|rec| self.raw_view(rec)).collect();
        // Distinct tokens in string order; a token's id is its rank.
        let mut ids: HashMap<&str, u32> = HashMap::new();
        for raw in &raws {
            for (t, _) in &raw.tokens {
                ids.entry(t.as_str()).or_insert(0);
            }
        }
        let mut vocab: Vec<&str> = ids.keys().copied().collect();
        vocab.sort_unstable();
        for (id, t) in vocab.iter().enumerate() {
            ids.insert(t, id as u32);
        }
        let terms: Vec<Term> = vocab.par_iter().map(|t| self.term(t)).collect();
        let runs: Vec<Vec<(u32, u32)>> = raws
            .par_iter()
            .map(|raw| {
                raw.tokens
                    .iter()
                    .map(|(t, c)| (ids[t.as_str()], *c))
                    .collect()
            })
            .collect();
        drop((vocab, ids));
        let views = raws
            .into_iter()
            .zip(runs)
            .map(|(raw, tokens)| RecordView {
                n_tokens: tokens.iter().map(|&(_, c)| c).sum(),
                tokens,
                grams: raw.grams,
                numbers: raw.numbers,
            })
            .collect();
        (terms, views)
    }

    /// Pass 1 for one record.
    fn raw_view(&self, rec: &Record) -> RawView {
        let text = rec.full_text();
        let mut tokens = tokenize(&text);
        tokens.sort_unstable();
        RawView {
            tokens: count_runs(tokens, |a, b| a == b),
            grams: Grams::new(&text, self.config.trigram_n),
            numbers: rec.values.iter().map(|v| parse_number(v)).collect(),
        }
    }

    /// Signed feature hashing of `token`: bucket by FNV-1a of
    /// `namespace ++ token`, sign by bit 32 of the same hash.
    fn term(&self, token: &str) -> Term {
        let n_buckets = self.config.n_buckets as u64;
        Term {
            slots: NAMESPACES.map(|ns| {
                let h = fnv1a64(ns.as_bytes().iter().chain(token.as_bytes()));
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                ((h % n_buckets) as u32, sign)
            }),
            idf: self.idf.get(token).copied().unwrap_or(UNSEEN_IDF),
        }
    }

    /// Pass 3 for one pair: write its features into the zeroed `out`.
    fn featurize_pair(
        &self,
        terms: &[Term],
        (lv, l): (&RecordView, &Record),
        (rv, r): (&RecordView, &Record),
        out: &mut [f32],
    ) {
        let n_buckets = self.config.n_buckets;
        let bump = |out: &mut [f32], (bucket, sign): (u32, f32), weight: u32| {
            out[bucket as usize] += sign * weight as f32;
        };

        // --- Hashed token block and the token-overlap sums. -------------
        // Left walk: each left token's `I:` then `L:` bump, and its share
        // of the IDF-weighted intersection and union.
        let mut inter = 0u32;
        let (mut idf_inter, mut idf_union) = (0.0f64, 0.0f64);
        let mut cursor = 0;
        for &(id, lc) in &lv.tokens {
            let rc = count_of(&rv.tokens, &mut cursor, id);
            let term = &terms[id as usize];
            let both = lc.min(rc);
            if both > 0 {
                bump(out, term.slots[0], both);
            }
            if lc > both {
                bump(out, term.slots[1], lc - both);
            }
            inter += both;
            idf_inter += term.idf * both as f64;
            idf_union += term.idf * lc.max(rc) as f64;
        }
        // Right walk: the `R:` bumps of right counts above the left's, and
        // the right-only tokens' share of the IDF-weighted union.
        let mut cursor = 0;
        for &(id, rc) in &rv.tokens {
            let lc = count_of(&lv.tokens, &mut cursor, id);
            let term = &terms[id as usize];
            if rc > lc {
                bump(out, term.slots[2], rc - lc);
            }
            if lc == 0 {
                idf_union += term.idf * rc as f64;
            }
        }
        // L2-normalize the hashed block so text length does not dominate.
        let norm: f32 = out[..n_buckets].iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut out[..n_buckets] {
                *x /= norm;
            }
        }

        // --- Binned overlap channels (one-hot). ---------------------------
        let (mut numeric_sum, mut numeric_n) = (0.0f64, 0usize);
        for a in 0..self.n_attrs {
            let x = lv.numbers.get(a).copied().flatten();
            let y = rv.numbers.get(a).copied().flatten();
            let agreement = agreement(x, y);
            if agreement > 0.0 {
                numeric_sum += agreement as f64;
                numeric_n += 1;
            }
        }
        let idf_jaccard = if (lv.n_tokens == 0 && rv.n_tokens == 0) || idf_union <= 0.0 {
            1.0
        } else {
            idf_inter / idf_union
        };
        let channels = [
            jaccard_from_sizes(inter, lv.n_tokens, rv.n_tokens),
            jaccard_from_sizes(
                lv.grams.intersection_size(&rv.grams),
                lv.grams.total,
                rv.grams.total,
            ),
            overlap_from_sizes(inter, lv.n_tokens, rv.n_tokens),
            if numeric_n > 0 {
                numeric_sum / numeric_n as f64
            } else {
                0.0
            },
            idf_jaccard,
        ];
        let bins = self.config.overlap_bins;
        for (c, &value) in channels.iter().enumerate() {
            let bin = ((value * bins as f64) as usize).min(bins - 1);
            out[n_buckets + c * bins + bin] = 1.0;
        }

        // --- Dense similarity block (ablation only; see FeatureConfig). ---
        if self.config.include_sim_block {
            let offset = n_buckets + OVERLAP_CHANNELS * bins;
            self.write_similarities(l, r, &mut out[offset..]);
        }
    }

    /// The dense similarity feature vector of a pair (the model-agnostic
    /// representation ZeroER fits its mixture over).
    pub fn similarity_vector(&self, dataset: &Dataset, idx: PairIdx) -> Result<Vec<f32>> {
        let (l, r) = dataset.pair_records(idx)?;
        let mut out = vec![0.0f32; self.sim_dim()];
        self.write_similarities(l, r, &mut out);
        Ok(out)
    }

    /// [`Featurizer::similarity_vector`] of two records, written into
    /// `out` (`sim_dim` long).
    fn write_similarities(&self, l: &Record, r: &Record, out: &mut [f32]) {
        let (attrs, whole) = out.split_at_mut(self.n_attrs * PER_ATTR_FEATURES);
        for (a, dst) in attrs.chunks_exact_mut(PER_ATTR_FEATURES).enumerate() {
            let lv = l.value(a).unwrap_or("");
            let rv = r.value(a).unwrap_or("");
            let lt = TokenSet::from_text(lv);
            let rt = TokenSet::from_text(rv);
            let lg = TokenSet::from_tokens(char_ngrams(lv, self.config.trigram_n));
            let rg = TokenSet::from_tokens(char_ngrams(rv, self.config.trigram_n));
            dst.copy_from_slice(&[
                jaccard(&lt, &rt) as f32,
                jaccard(&lg, &rg) as f32,
                overlap_coefficient(&lt, &rt) as f32,
                if !lv.is_empty() && lv == rv { 1.0 } else { 0.0 },
                if lv.is_empty() && rv.is_empty() {
                    1.0
                } else {
                    0.0
                },
                numeric_agreement(lv, rv),
            ]);
        }
        let lf = l.full_text();
        let rf = r.full_text();
        let lt = TokenSet::from_text(&lf);
        let rt = TokenSet::from_text(&rf);
        let lg = TokenSet::from_tokens(char_ngrams(&lf, self.config.trigram_n));
        let rg = TokenSet::from_tokens(char_ngrams(&rf, self.config.trigram_n));
        let (ll, rl) = (lf.len() as f32, rf.len() as f32);
        whole.copy_from_slice(&[
            jaccard(&lt, &rt) as f32,
            jaccard(&lg, &rg) as f32,
            overlap_coefficient(&lt, &rt) as f32,
            if ll.max(rl) > 0.0 {
                ll.min(rl) / ll.max(rl)
            } else {
                1.0
            },
        ]);
    }

    /// Similarity vectors for every pair (for ZeroER): row `i` is
    /// [`Featurizer::similarity_vector`] of pair `i`, written into one
    /// exact-size buffer in fixed `SIM_CHUNK`-pair chunks across the
    /// pool.
    pub fn similarity_all(&self, dataset: &Dataset) -> Result<Embeddings> {
        // Resolve every pair first, so the parallel pass cannot fail.
        let pairs = (0..dataset.len())
            .map(|i| dataset.pair_records(i))
            .collect::<Result<Vec<_>>>()?;
        let dim = self.sim_dim();
        let mut data = vec![0.0f32; pairs.len() * dim];
        let chunks: Vec<_> = pairs
            .chunks(SIM_CHUNK)
            .zip(data.chunks_mut(SIM_CHUNK * dim))
            .collect();
        chunks.into_par_iter().for_each(|(pairs, rows)| {
            for (&(l, r), row) in pairs.iter().zip(rows.chunks_exact_mut(dim)) {
                self.write_similarities(l, r, row);
            }
        });
        Embeddings::from_flat(dim, data)
    }
}

/// A value read as a number, surrounding whitespace ignored.
fn parse_number(value: &str) -> Option<f64> {
    value.trim().parse().ok()
}

/// 1 − relative difference of two numbers; 0 when either is missing.
fn agreement(x: Option<f64>, y: Option<f64>) -> f32 {
    match (x, y) {
        (Some(x), Some(y)) => {
            let denom = x.abs().max(y.abs());
            if denom == 0.0 {
                1.0
            } else {
                (1.0 - ((x - y).abs() / denom)).max(0.0) as f32
            }
        }
        _ => 0.0,
    }
}

/// [`agreement`] of two values that may be numeric; 0 when either side
/// is non-numeric or missing.
fn numeric_agreement(a: &str, b: &str) -> f32 {
    agreement(parse_number(a), parse_number(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::Rng;
    use em_synth::{generate, DatasetProfile};

    fn dataset() -> Dataset {
        let p = DatasetProfile::amazon_google().scaled(0.02);
        generate(&p, &mut Rng::seed_from_u64(3)).unwrap()
    }

    #[test]
    fn dims_are_consistent() {
        let d = dataset();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        assert_eq!(f.dim(), 768 + OVERLAP_CHANNELS * 16);
        assert_eq!(f.sim_dim(), 3 * PER_ATTR_FEATURES + GLOBAL_FEATURES);
        let with_sims = Featurizer::new(
            &d,
            FeatureConfig {
                include_sim_block: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            with_sims.dim(),
            768 + OVERLAP_CHANNELS * 16 + 3 * PER_ATTR_FEATURES + GLOBAL_FEATURES
        );
        let v = f.featurize(&d, 0).unwrap();
        assert_eq!(v.len(), f.dim());
        let s = f.similarity_vector(&d, 0).unwrap();
        assert_eq!(s.len(), f.sim_dim());
    }

    #[test]
    fn hashed_block_is_unit_norm() {
        let d = dataset();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let v = f.featurize(&d, 0).unwrap();
        let norm: f32 = v[..768].iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
    }

    #[test]
    fn match_pairs_have_higher_similarity_features() {
        let d = dataset();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let mut match_sim = 0.0f64;
        let mut match_n = 0;
        let mut neg_sim = 0.0f64;
        let mut neg_n = 0;
        for i in 0..d.len() {
            let s = f.similarity_vector(&d, i).unwrap();
            // Whole-record token jaccard is at sim_dim-4.
            let j = s[f.sim_dim() - 4] as f64;
            if d.ground_truth(i).is_match() {
                match_sim += j;
                match_n += 1;
            } else {
                neg_sim += j;
                neg_n += 1;
            }
        }
        assert!(match_sim / match_n as f64 > neg_sim / neg_n as f64 + 0.1);
    }

    #[test]
    fn identical_records_have_saturated_features() {
        // Pair a record with itself through a hand-built dataset.
        use em_core::{CandidatePair, Label, RecordId, Schema, Split, Table};
        let schema = Schema::new(["title", "price"]).unwrap();
        let mut l = Table::new("l", schema.clone());
        let mut r = Table::new("r", schema);
        l.push(["acera quantum camera", "24.99"]).unwrap();
        r.push(["acera quantum camera", "24.99"]).unwrap();
        l.push(["different thing", "1.00"]).unwrap();
        r.push(["unrelated gadget", "990.00"]).unwrap();
        let d = Dataset::new(
            "t",
            l,
            r,
            vec![
                CandidatePair::new(RecordId(0), RecordId(0)),
                CandidatePair::new(RecordId(1), RecordId(1)),
            ],
            vec![Label::Match, Label::NonMatch],
            Split {
                train: vec![0, 1],
                valid: vec![],
                test: vec![],
            },
        )
        .unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let s = f.similarity_vector(&d, 0).unwrap();
        // Attribute 0: token jaccard, trigram jaccard, overlap, equal flag.
        assert_eq!(&s[..4], &[1.0, 1.0, 1.0, 1.0]);
        // Numeric agreement for equal prices: attribute 1's block starts
        // at PER_ATTR_FEATURES, its numeric feature is the 6th entry.
        assert_eq!(s[PER_ATTR_FEATURES + 5], 1.0);
        // The unrelated pair scores low.
        let s2 = f.similarity_vector(&d, 1).unwrap();
        assert!(s2[0] < 0.2);
    }

    #[test]
    fn featurize_all_shapes() {
        let d = dataset();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let m = f.featurize_all(&d).unwrap();
        assert_eq!(m.len(), d.len());
        assert_eq!(m.dim(), f.dim());
    }

    #[test]
    fn numeric_agreement_cases() {
        assert_eq!(numeric_agreement("100", "100"), 1.0);
        assert!((numeric_agreement("100", "90") - 0.9).abs() < 1e-6);
        assert_eq!(numeric_agreement("abc", "100"), 0.0);
        assert_eq!(numeric_agreement("", ""), 0.0);
        assert_eq!(numeric_agreement("0", "0"), 1.0);
    }

    #[test]
    fn config_validation() {
        let d = dataset();
        assert!(Featurizer::new(
            &d,
            FeatureConfig {
                n_buckets: 4,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Featurizer::new(
            &d,
            FeatureConfig {
                trigram_n: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Featurizer::new(
            &d,
            FeatureConfig {
                overlap_bins: 1,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic() {
        let d = dataset();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        assert_eq!(f.featurize(&d, 5).unwrap(), f.featurize(&d, 5).unwrap());
    }

    /// FNV-1a over the little-endian bits of every entry, row by row.
    fn digest(m: &Embeddings) -> u64 {
        let bytes: Vec<u8> = m.flat().iter().flat_map(|x| x.to_le_bytes()).collect();
        fnv1a64(&bytes)
    }

    /// `featurize_all` must equal `featurize` row by row, on the pool and
    /// under `serial_scope`; returns the pool's matrix.
    fn featurize_all_checked(f: &Featurizer, d: &Dataset) -> Embeddings {
        let m = f.featurize_all(d).unwrap();
        assert_eq!(m.len(), d.len());
        assert_eq!(m.dim(), f.dim());
        let serial = rayon::serial_scope(|| f.featurize_all(d).unwrap());
        assert_eq!(m.flat().len(), serial.flat().len());
        for (a, b) in m.flat().iter().zip(serial.flat()) {
            assert_eq!(a.to_bits(), b.to_bits(), "pool and serial_scope differ");
        }
        for i in 0..d.len() {
            let row: Vec<u32> = f
                .featurize(d, i)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let all: Vec<u32> = m.row(i).iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                row, all,
                "featurize({i}) differs from row {i} of featurize_all"
            );
        }
        m
    }

    #[test]
    fn featurize_all_bits_are_pinned_at_the_default_config() {
        let d = dataset();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let m = featurize_all_checked(&f, &d);
        assert_eq!(
            digest(&m),
            13116893280424703673,
            "default-config feature bits moved"
        );
    }

    #[test]
    fn featurize_all_bits_are_pinned_with_the_sim_block_and_4_grams() {
        // The dense block on, 4-grams, a four-attribute profile.
        let p = DatasetProfile::dblp_scholar().scaled(0.01);
        let d = generate(&p, &mut Rng::seed_from_u64(11)).unwrap();
        let config = FeatureConfig {
            include_sim_block: true,
            trigram_n: 4,
            ..Default::default()
        };
        let f = Featurizer::new(&d, config).unwrap();
        let m = featurize_all_checked(&f, &d);
        assert_eq!(
            digest(&m),
            18434401604421641485,
            "sim-block feature bits moved"
        );
        // The dense block is `similarity_vector`, appended.
        let offset = config.n_buckets + OVERLAP_CHANNELS * config.overlap_bins;
        for i in 0..d.len() {
            assert_eq!(
                &m.row(i)[offset..],
                &f.similarity_vector(&d, i).unwrap()[..]
            );
        }
    }

    #[test]
    fn similarity_all_rows_are_similarity_vectors_in_the_pool_and_serially() {
        // Enough pairs for several chunks, the last one partial.
        let p = DatasetProfile::amazon_google().scaled(0.03);
        let d = generate(&p, &mut Rng::seed_from_u64(5)).unwrap();
        assert!(d.len() > 3 * SIM_CHUNK && !d.len().is_multiple_of(SIM_CHUNK));
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let pool = f.similarity_all(&d).unwrap();
        let serial = rayon::serial_scope(|| f.similarity_all(&d).unwrap());
        assert_eq!((pool.len(), pool.dim()), (d.len(), f.sim_dim()));
        let bits = |row: &[f32]| -> Vec<u32> { row.iter().map(|x| x.to_bits()).collect() };
        for i in 0..d.len() {
            let single = f.similarity_vector(&d, i).unwrap();
            assert_eq!(bits(pool.row(i)), bits(&single), "pair {i}");
            assert_eq!(bits(serial.row(i)), bits(&single), "pair {i} serial");
        }
    }

    /// Records shorter than the n-gram (`"#a#"` has 3 chars, an empty
    /// record 2), and a featurizer that never saw the dataset it is
    /// asked about (every token out of vocabulary).
    #[test]
    fn short_records_and_unseen_tokens_keep_their_bits() {
        use em_core::{CandidatePair, Label, RecordId, Schema, Split, Table};
        let table = |name: &str, rows: &[[&str; 2]]| {
            let mut t = Table::new(name, Schema::new(["title", "price"]).unwrap());
            for row in rows {
                t.push(*row).unwrap();
            }
            t
        };
        let task = |left: &[[&str; 2]], right: &[[&str; 2]]| {
            let pairs = vec![
                CandidatePair::new(RecordId(0), RecordId(0)),
                CandidatePair::new(RecordId(0), RecordId(1)),
                CandidatePair::new(RecordId(1), RecordId(2)),
                CandidatePair::new(RecordId(2), RecordId(2)),
            ];
            let labels = vec![Label::Match, Label::NonMatch, Label::NonMatch, Label::Match];
            let split = Split {
                train: vec![0, 1, 2, 3],
                valid: vec![],
                test: vec![],
            };
            Dataset::new(
                "short",
                table("l", left),
                table("r", right),
                pairs,
                labels,
                split,
            )
            .unwrap()
        };
        let seen = task(
            &[["a", ""], ["", ""], ["ab c", "7"]],
            &[["a", ""], ["b", "7.0"], ["ab  c", "7"]],
        );
        let unseen = task(
            &[["zz", "3"], ["q", ""], ["new words here", "x"]],
            &[["zz", "3"], ["a", ""], ["words new", "0"]],
        );
        let config = FeatureConfig {
            include_sim_block: true,
            trigram_n: 4,
            ..Default::default()
        };
        let f = Featurizer::new(&seen, config).unwrap();
        let m = featurize_all_checked(&f, &seen);
        assert_eq!(
            digest(&m),
            11799939654102179148,
            "short-record feature bits moved"
        );
        // "a" vs "a": one whole-text n-gram each, and they agree.
        assert_eq!(f.similarity_vector(&seen, 0).unwrap()[1], 1.0);
        let m = featurize_all_checked(&f, &unseen);
        assert_eq!(
            digest(&m),
            11870510357171214371,
            "out-of-vocabulary feature bits moved"
        );
    }
}
