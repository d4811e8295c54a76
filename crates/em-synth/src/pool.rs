//! Streamed record-pool generation for blocking-scale scenarios.
//!
//! [`generate`](fn@crate::generate) builds a *pair-level* dataset: it decides up front
//! which candidate pairs exist and renders exactly the records those
//! pairs need. That is the right shape when the candidate set is given
//! (paper §2.1), but it cannot exercise a blocking tier — the pair set
//! is the input, not the output. This module generates the *tables
//! themselves*: two record pools of up to 10⁵–10⁶ rows each, drawn
//! entity-by-entity in a single O(n) streaming pass with no quadratic
//! intermediate, plus the ground-truth match list (one entry per entity
//! rendered into both tables). A blocking stage then proposes candidate
//! pairs from the raw tables, and [`assemble_dataset`] labels those
//! candidates against the truth list to produce an ordinary
//! [`Dataset`] for the downstream matcher.
//!
//! Generation is deterministic in `(profile, rng seed)`, like
//! [`crate::generate::generate`].

use std::collections::HashSet;

use em_core::{CandidatePair, Dataset, EmError, Label, Result, Rng, Schema, SplitRatios, Table};

use crate::entity::{Domain, EntityFactory};
use crate::generate::push_record;
use crate::profile::NoiseLevel;

/// Profile for a streamed record pool.
///
/// Unlike [`crate::DatasetProfile`], sizes are expressed in *entities*,
/// not pairs: each drawn entity lands in one table, both tables
/// (a true match), or both plus a near-duplicate sibling distractor.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolProfile {
    /// Pool name (becomes the dataset/table name prefix).
    pub name: String,
    /// Data domain to draw entities from.
    pub domain: Domain,
    /// Number of ground-truth entities to stream.
    pub n_entities: usize,
    /// Probability an entity is rendered into *both* tables (a match).
    pub match_rate: f64,
    /// Probability a matched entity also spawns a sibling distractor
    /// record (same brand/category, different model) in one table —
    /// the hard cases a blocking stage must not use to justify
    /// over-pruning.
    pub sibling_rate: f64,
    /// Noise applied to left-table renderings.
    pub left_noise: NoiseLevel,
    /// Noise applied to right-table renderings.
    pub right_noise: NoiseLevel,
    /// Attribute count (capped per domain).
    pub n_attrs: usize,
    /// Title verbosity in tokens.
    pub title_len: usize,
}

impl PoolProfile {
    /// A product-domain pool sized to roughly `n_records` total records
    /// across both tables.
    ///
    /// Expected records per entity = `2·match_rate + (1 − match_rate)
    /// + match_rate·sibling_rate`; with the defaults below that is 1.36,
    /// so `n_entities = n_records / 1.36`.
    pub fn products(name: impl Into<String>, n_records: usize) -> PoolProfile {
        let match_rate = 0.3;
        let sibling_rate = 0.2;
        let per_entity = 1.0 + match_rate + match_rate * sibling_rate;
        PoolProfile {
            name: name.into(),
            domain: Domain::Product,
            n_entities: ((n_records as f64) / per_entity).round().max(1.0) as usize,
            match_rate,
            sibling_rate,
            left_noise: NoiseLevel::Mild,
            right_noise: NoiseLevel::Medium,
            n_attrs: 5,
            title_len: 7,
        }
    }

    /// Scale the entity count by `factor`, tagging the name.
    pub fn scaled(&self, factor: f64) -> PoolProfile {
        let mut p = self.clone();
        p.n_entities = (((self.n_entities as f64) * factor).round() as usize).max(1);
        p.name = format!("{}-x{factor}", self.name);
        p
    }

    /// Validate the profile.
    pub fn validate(&self) -> Result<()> {
        if self.n_entities == 0 {
            return Err(EmError::InvalidConfig(format!(
                "{}: pool needs at least one entity",
                self.name
            )));
        }
        for (what, v) in [
            ("match_rate", self.match_rate),
            ("sibling_rate", self.sibling_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(EmError::InvalidConfig(format!(
                    "{}: {what} {v} outside [0, 1]",
                    self.name
                )));
            }
        }
        if self.match_rate == 0.0 {
            return Err(EmError::InvalidConfig(format!(
                "{}: match_rate 0 yields a pool with no true matches",
                self.name
            )));
        }
        if self.n_attrs == 0 || self.title_len == 0 {
            return Err(EmError::InvalidConfig(format!(
                "{}: n_attrs and title_len must be positive",
                self.name
            )));
        }
        Ok(())
    }

    /// Expected total record count (left + right) for this profile.
    pub fn expected_records(&self) -> usize {
        let per_entity = 1.0 + self.match_rate + self.match_rate * self.sibling_rate;
        ((self.n_entities as f64) * per_entity).round() as usize
    }
}

/// The registry of blocking-scale pools: ~10⁴, 10⁵ and 10⁶ records.
///
/// `pool-10k` is small enough that the exhaustive cross product
/// (~2.5·10⁷ pairs) is still co-computable, so it anchors the recall
/// gate; `pool-100k` and `pool-1m` exist only behind a blocking tier.
pub fn pool_profiles() -> Vec<PoolProfile> {
    vec![
        PoolProfile::products("pool-10k", 10_000),
        PoolProfile::products("pool-100k", 100_000),
        PoolProfile::products("pool-1m", 1_000_000),
    ]
}

/// Look up a registry pool profile by name.
pub fn pool_profile(name: &str) -> Result<PoolProfile> {
    pool_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| EmError::InvalidConfig(format!("unknown pool profile '{name}'")))
}

/// Two raw record tables plus the ground-truth match list.
///
/// This is the *input* to a blocking stage: no candidate pairs exist
/// yet, only records and the hidden truth used to score whatever pairs
/// blocking proposes.
#[derive(Debug, Clone)]
pub struct RecordPool {
    /// Pool name (the profile's name).
    pub name: String,
    /// Left table (`D1`).
    pub left: Table,
    /// Right table (`D2`).
    pub right: Table,
    /// All true matches, as `(left, right)` record-id pairs, sorted
    /// left-major ascending.
    pub true_matches: Vec<CandidatePair>,
}

impl RecordPool {
    /// Total records across both tables.
    pub fn n_records(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Size of the exhaustive cross product `|D1|·|D2|` — the pair count
    /// a blocking tier must undercut. `u128` so 10⁶-record pools don't
    /// overflow.
    pub fn exhaustive_pairs(&self) -> u128 {
        (self.left.len() as u128) * (self.right.len() as u128)
    }
}

/// Stream a record pool from a profile.
///
/// One pass over `n_entities`; each entity is rendered into the left
/// table, the right table, or both (plus an optional sibling
/// distractor), so memory and time are O(records) — no pair matrix is
/// ever formed. Deterministic in `(profile, rng seed)`.
pub fn generate_pool(profile: &PoolProfile, rng: &mut Rng) -> Result<RecordPool> {
    profile.validate()?;

    let attrs = profile.domain.attrs(profile.n_attrs);
    let schema = Schema::new(attrs.clone())?;
    let mut left = Table::new(format!("{}-left", profile.name), schema.clone());
    let mut right = Table::new(format!("{}-right", profile.name), schema);

    let mut factory = EntityFactory::new(profile.domain, profile.title_len);
    let left_noise = profile.left_noise.config();
    let right_noise = profile.right_noise.config();

    let expected_matches = ((profile.n_entities as f64) * profile.match_rate).round() as usize;
    let mut true_matches: Vec<CandidatePair> = Vec::with_capacity(expected_matches);

    for _ in 0..profile.n_entities {
        let entity = factory.draw(rng);
        if rng.bool(profile.match_rate) {
            let l = push_record(&mut left, &factory, &entity, &attrs, &left_noise, rng)?;
            let r = push_record(&mut right, &factory, &entity, &attrs, &right_noise, rng)?;
            true_matches.push(CandidatePair::new(l, r));
            if rng.bool(profile.sibling_rate) {
                // Hard distractor: a sibling of a matched entity, dropped
                // into one side only so it can never be a true match.
                let sib = factory.sibling(&entity, rng);
                if rng.bool(0.5) {
                    push_record(&mut left, &factory, &sib, &attrs, &left_noise, rng)?;
                } else {
                    push_record(&mut right, &factory, &sib, &attrs, &right_noise, rng)?;
                }
            }
        } else if rng.bool(0.5) {
            push_record(&mut left, &factory, &entity, &attrs, &left_noise, rng)?;
        } else {
            push_record(&mut right, &factory, &entity, &attrs, &right_noise, rng)?;
        }
    }

    if true_matches.is_empty() {
        return Err(EmError::InvalidConfig(format!(
            "{}: pool produced no true matches (too few entities for match_rate {})",
            profile.name, profile.match_rate
        )));
    }
    // push_record appends monotonically, so the list is already sorted
    // left-major; assert rather than re-sort.
    debug_assert!(true_matches.windows(2).all(|w| w[0] < w[1]));

    Ok(RecordPool {
        name: profile.name.clone(),
        left,
        right,
        true_matches,
    })
}

/// Label a blocking stage's candidate pairs against the pool's truth and
/// assemble an ordinary [`Dataset`] (MAGELLAN-ratio random split).
///
/// Consumes the pool so the tables move into the dataset without a
/// copy — at 10⁵ records a clone is real money. Candidates must be
/// duplicate-free (blocking tiers guarantee this); matches the blocker
/// missed simply never enter the dataset, exactly like real blocking
/// front ends.
pub fn assemble_dataset(
    pool: RecordPool,
    candidates: Vec<CandidatePair>,
    rng: &mut Rng,
) -> Result<Dataset> {
    if candidates.is_empty() {
        return Err(EmError::InvalidConfig(format!(
            "{}: blocking produced no candidate pairs",
            pool.name
        )));
    }
    let truth_keys: HashSet<(u32, u32)> = pool.true_matches.iter().map(|p| p.key()).collect();
    let truth: Vec<Label> = candidates
        .iter()
        .map(|p| Label::from_bool(truth_keys.contains(&p.key())))
        .collect();
    if !truth.iter().any(|l| l.is_match()) {
        return Err(EmError::InvalidConfig(format!(
            "{}: no true match survived blocking — recall too low to train on",
            pool.name
        )));
    }
    let split = Dataset::random_split(candidates.len(), SplitRatios::MAGELLAN, rng)?;
    Dataset::new(pool.name, pool.left, pool.right, candidates, truth, split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{block_candidates, BlockingConfig};

    #[test]
    fn pool_generation_is_deterministic_and_streamed() {
        let profile = PoolProfile::products("unit-pool", 2000);
        let a = generate_pool(&profile, &mut Rng::seed_from_u64(9)).unwrap();
        let b = generate_pool(&profile, &mut Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a.true_matches, b.true_matches);
        assert_eq!(a.left.len(), b.left.len());
        assert_eq!(a.right.len(), b.right.len());
        // Record count lands near the target.
        let n = a.n_records();
        assert!(
            (1500..=2500).contains(&n),
            "expected ~2000 records, got {n}"
        );
        // Truth list refers to real records, sorted and unique.
        for w in a.true_matches.windows(2) {
            assert!(w[0] < w[1]);
        }
        let last = a.true_matches.last().unwrap();
        assert!((last.left.0 as usize) < a.left.len());
        assert!((last.right.0 as usize) < a.right.len());
    }

    #[test]
    fn expected_records_tracks_profile_math() {
        let p = PoolProfile::products("sized", 100_000);
        let got = p.expected_records() as f64;
        assert!((got - 100_000.0).abs() / 100_000.0 < 0.01, "{got}");
        let half = p.scaled(0.5);
        assert_eq!(
            half.n_entities,
            (p.n_entities as f64 * 0.5).round() as usize
        );
    }

    #[test]
    fn registry_profiles_validate() {
        for p in pool_profiles() {
            p.validate().unwrap();
        }
        assert!(pool_profile("pool-100k").is_ok());
        assert!(pool_profile("nope").is_err());
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        let mut p = PoolProfile::products("bad", 1000);
        p.match_rate = 0.0;
        assert!(p.validate().is_err());
        let mut p = PoolProfile::products("bad", 1000);
        p.match_rate = 1.5;
        assert!(p.validate().is_err());
        let mut p = PoolProfile::products("bad", 1000);
        p.n_entities = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn assemble_labels_candidates_against_truth() {
        let profile = PoolProfile::products("assemble-pool", 1200);
        let mut rng = Rng::seed_from_u64(11);
        let pool = generate_pool(&profile, &mut rng).unwrap();
        let truth = pool.true_matches.clone();
        let candidates =
            block_candidates(&pool.left, &pool.right, BlockingConfig::default()).unwrap();
        let n_cand = candidates.len();
        let dataset = assemble_dataset(pool, candidates.clone(), &mut rng).unwrap();
        assert_eq!(dataset.len(), n_cand);
        let truth_keys: HashSet<(u32, u32)> = truth.iter().map(|p| p.key()).collect();
        for (i, pair) in candidates.iter().enumerate() {
            assert_eq!(
                dataset.ground_truth(i).is_match(),
                truth_keys.contains(&pair.key())
            );
        }
        // Token blocking on a clean synthetic pool should keep most of
        // the truth.
        let kept = candidates
            .iter()
            .filter(|p| truth_keys.contains(&p.key()))
            .count();
        assert!(
            kept as f64 / truth.len() as f64 > 0.8,
            "token blocking kept {kept}/{}",
            truth.len()
        );
    }

    #[test]
    fn assemble_rejects_empty_or_matchless_candidates() {
        let profile = PoolProfile::products("reject-pool", 600);
        let mut rng = Rng::seed_from_u64(13);
        let pool = generate_pool(&profile, &mut rng).unwrap();
        assert!(assemble_dataset(pool.clone(), Vec::new(), &mut rng).is_err());
        // A candidate list with no true match is unusable for training.
        let miss = vec![CandidatePair::new(
            pool.true_matches[0].left,
            em_core::RecordId(pool.true_matches[0].right.0 + 1),
        )];
        let only_negatives: Vec<CandidatePair> = miss
            .into_iter()
            .filter(|p| (p.right.0 as usize) < pool.right.len())
            .collect();
        if !only_negatives.is_empty() {
            assert!(assemble_dataset(pool, only_negatives, &mut rng).is_err());
        }
    }
}
