//! Pair featurization: signed feature hashing over the DITTO
//! serialization plus per-attribute similarity features.
//!
//! Features are a pure function of the record text, independent of the
//! model, so the battleship runner featurizes each dataset exactly once
//! and reuses the matrix across all iterations, strategies and seeds.
//!
//! Layout of one feature vector:
//!
//! ```text
//! [ 0 .. n_buckets )   signed hashed token features, three namespaces:
//!                      tokens in both records ("I:"), left only ("L:"),
//!                      right only ("R:"), count-weighted and
//!                      L2-normalized
//! [ n_buckets .. )     dense similarity block: per-attribute token
//!                      jaccard, char-trigram jaccard, overlap
//!                      coefficient, equality flag, both-missing flag,
//!                      numeric agreement; then whole-record jaccard,
//!                      trigram jaccard, overlap and length ratio
//! ```

use em_core::codec::fnv1a64;
use em_core::{
    char_ngrams, jaccard, overlap_coefficient, tokenize, Dataset, EmError, PairIdx, Result,
    TokenSet,
};
use em_vector::Embeddings;

/// Dense similarity features per attribute.
const PER_ATTR_FEATURES: usize = 6;
/// Dense whole-record features.
const GLOBAL_FEATURES: usize = 4;

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

/// Featurizes candidate pairs of one dataset.
#[derive(Debug, Clone)]
pub struct Featurizer {
    config: FeatureConfig,
    n_attrs: usize,
    /// Token → inverse document frequency over both tables, used by the
    /// IDF-weighted overlap channel (rare shared tokens — model numbers,
    /// exact titles — are the strongest match evidence; siblings share
    /// only frequent brand/category tokens).
    idf: std::collections::HashMap<String, f64>,
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
        // Document frequencies over both tables.
        let mut df: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let n_docs = dataset.left.len() + dataset.right.len();
        for rec in dataset.left.records().iter().chain(dataset.right.records()) {
            let tokens = TokenSet::from_text(&rec.full_text());
            for (t, _) in tokens.iter() {
                *df.entry(t.to_string()).or_insert(0) += 1;
            }
        }
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

    /// IDF-weighted Jaccard of two token sets (weights default to the
    /// maximum IDF for out-of-corpus tokens, which are rare by
    /// definition).
    fn idf_jaccard(&self, a: &TokenSet, b: &TokenSet) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let max_idf = 12.0;
        let weight = |t: &str| -> f64 { self.idf.get(t).copied().unwrap_or(max_idf) };
        let mut inter = 0.0f64;
        let mut union = 0.0f64;
        for (t, ca) in a.iter() {
            let cb = b.count(t);
            let w = weight(t);
            inter += w * ca.min(cb) as f64;
            union += w * ca.max(cb) as f64;
        }
        for (t, cb) in b.iter() {
            if a.count(t) == 0 {
                union += weight(t) * cb as f64;
            }
        }
        if union <= 0.0 {
            1.0
        } else {
            inter / union
        }
    }

    /// Total feature dimension.
    pub fn dim(&self) -> usize {
        let base = self.config.n_buckets + OVERLAP_CHANNELS * self.config.overlap_bins;
        if self.config.include_sim_block {
            base + self.n_attrs * PER_ATTR_FEATURES + GLOBAL_FEATURES
        } else {
            base
        }
    }

    /// Dimension of the dense similarity block alone (used by ZeroER,
    /// which models similarity vectors generatively).
    pub fn sim_dim(&self) -> usize {
        self.n_attrs * PER_ATTR_FEATURES + GLOBAL_FEATURES
    }

    /// Featurize one pair.
    pub fn featurize(&self, dataset: &Dataset, idx: PairIdx) -> Result<Vec<f32>> {
        let (l, r) = dataset.pair_records(idx)?;
        let mut out = vec![0.0f32; self.dim()];

        // --- Hashed token block. ----------------------------------------
        let ltokens = tokenize(&l.full_text());
        let rtokens = tokenize(&r.full_text());
        let lset = TokenSet::from_tokens(ltokens.iter().cloned());
        let rset = TokenSet::from_tokens(rtokens.iter().cloned());
        for (t, lc) in lset.iter() {
            let rc = rset.count(t);
            let inter = lc.min(rc);
            let lonly = lc - inter;
            if inter > 0 {
                self.bump(&mut out, "I:", t, inter as f32);
            }
            if lonly > 0 {
                self.bump(&mut out, "L:", t, lonly as f32);
            }
        }
        for (t, rc) in rset.iter() {
            let ronly = rc - lset.count(t).min(rc);
            if ronly > 0 {
                self.bump(&mut out, "R:", t, ronly as f32);
            }
        }
        // L2-normalize the hashed block so text length does not dominate.
        let norm: f32 = out[..self.config.n_buckets]
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt();
        if norm > 0.0 {
            for x in &mut out[..self.config.n_buckets] {
                *x /= norm;
            }
        }

        // --- Binned overlap channels (one-hot). ---------------------------
        let lf = l.full_text();
        let rf = r.full_text();
        let lg = TokenSet::from_tokens(char_ngrams(&lf, self.config.trigram_n));
        let rg = TokenSet::from_tokens(char_ngrams(&rf, self.config.trigram_n));
        let mut numeric_sum = 0.0f64;
        let mut numeric_n = 0usize;
        for a in 0..self.n_attrs {
            let agreement = numeric_agreement(l.value(a).unwrap_or(""), r.value(a).unwrap_or(""));
            if agreement > 0.0 {
                numeric_sum += agreement as f64;
                numeric_n += 1;
            }
        }
        let channels = [
            jaccard(&lset, &rset),
            jaccard(&lg, &rg),
            overlap_coefficient(&lset, &rset),
            if numeric_n > 0 {
                numeric_sum / numeric_n as f64
            } else {
                0.0
            },
            self.idf_jaccard(&lset, &rset),
        ];
        let bins = self.config.overlap_bins;
        for (c, &value) in channels.iter().enumerate() {
            let bin = ((value * bins as f64) as usize).min(bins - 1);
            out[self.config.n_buckets + c * bins + bin] = 1.0;
        }

        // --- Dense similarity block (ablation only; see FeatureConfig). ---
        if self.config.include_sim_block {
            let sims = self.similarity_vector(dataset, idx)?;
            let offset = self.config.n_buckets + OVERLAP_CHANNELS * bins;
            out[offset..].copy_from_slice(&sims);
        }
        Ok(out)
    }

    /// The dense similarity feature vector of a pair (the model-agnostic
    /// representation ZeroER fits its mixture over).
    pub fn similarity_vector(&self, dataset: &Dataset, idx: PairIdx) -> Result<Vec<f32>> {
        let (l, r) = dataset.pair_records(idx)?;
        let mut out = Vec::with_capacity(self.sim_dim());
        for a in 0..self.n_attrs {
            let lv = l.value(a).unwrap_or("");
            let rv = r.value(a).unwrap_or("");
            let lt = TokenSet::from_text(lv);
            let rt = TokenSet::from_text(rv);
            let lg = TokenSet::from_tokens(char_ngrams(lv, self.config.trigram_n));
            let rg = TokenSet::from_tokens(char_ngrams(rv, self.config.trigram_n));
            out.push(jaccard(&lt, &rt) as f32);
            out.push(jaccard(&lg, &rg) as f32);
            out.push(overlap_coefficient(&lt, &rt) as f32);
            out.push(if !lv.is_empty() && lv == rv { 1.0 } else { 0.0 });
            out.push(if lv.is_empty() && rv.is_empty() {
                1.0
            } else {
                0.0
            });
            out.push(numeric_agreement(lv, rv));
        }
        let lf = l.full_text();
        let rf = r.full_text();
        let lt = TokenSet::from_text(&lf);
        let rt = TokenSet::from_text(&rf);
        let lg = TokenSet::from_tokens(char_ngrams(&lf, self.config.trigram_n));
        let rg = TokenSet::from_tokens(char_ngrams(&rf, self.config.trigram_n));
        out.push(jaccard(&lt, &rt) as f32);
        out.push(jaccard(&lg, &rg) as f32);
        out.push(overlap_coefficient(&lt, &rt) as f32);
        let (ll, rl) = (lf.len() as f32, rf.len() as f32);
        out.push(if ll.max(rl) > 0.0 {
            ll.min(rl) / ll.max(rl)
        } else {
            1.0
        });
        debug_assert_eq!(out.len(), self.sim_dim());
        Ok(out)
    }

    /// Featurize every pair of the dataset into one matrix.
    pub fn featurize_all(&self, dataset: &Dataset) -> Result<Embeddings> {
        let mut m = Embeddings::new(self.dim())?;
        for i in 0..dataset.len() {
            m.push(&self.featurize(dataset, i)?)?;
        }
        Ok(m)
    }

    /// Similarity vectors for every pair (for ZeroER).
    pub fn similarity_all(&self, dataset: &Dataset) -> Result<Embeddings> {
        let mut m = Embeddings::new(self.sim_dim())?;
        for i in 0..dataset.len() {
            m.push(&self.similarity_vector(dataset, i)?)?;
        }
        Ok(m)
    }

    /// Signed feature hashing: bucket by FNV-1a, sign by a second hash.
    fn bump(&self, out: &mut [f32], namespace: &str, token: &str, weight: f32) {
        let h = fnv1a64(namespace.as_bytes().iter().chain(token.as_bytes()));
        let bucket = (h % self.config.n_buckets as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        out[bucket] += sign * weight;
    }
}

/// 1 − relative difference for numeric-looking values; 0 when either side
/// is non-numeric or missing.
fn numeric_agreement(a: &str, b: &str) -> f32 {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) => {
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
}
