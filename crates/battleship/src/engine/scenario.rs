//! Scenario registry: every way the engine can obtain a dataset.
//!
//! A [`Scenario`] is a named, reproducible recipe for a benchmark task —
//! one of `em-synth`'s Table 3 profiles (optionally rescaled), a
//! blocking-scale streamed record pool, or a Magellan-layout CSV
//! directory loaded through [`em_core::csv`]. Every scenario also
//! carries a [`BlockingSpec`] describing how candidate pairs are
//! extracted from the raw tables; [`BlockingSpec::Exhaustive`] is the
//! default and leaves the legacy pair generation bit-identical. The
//! engine materializes scenarios into immutable [`DatasetArtifacts`]
//! exactly once per grid and shares them across every run that names
//! them.

use std::path::PathBuf;

use em_core::{CandidatePair, EmError, Result, Rng};
use em_matcher::{FeatureConfig, Featurizer};
use em_synth::{all_profiles, generate, generate_pool, DatasetProfile, PoolProfile, RecordPool};

use super::artifacts::DatasetArtifacts;
use crate::blocking::{block_tables, BlockingOutput, BlockingSpec};

/// Where a scenario's dataset comes from.
#[derive(Debug, Clone)]
pub enum ScenarioSource {
    /// Generate synthetically from an `em-synth` profile.
    Synthetic {
        /// The (possibly rescaled) generation profile.
        profile: DatasetProfile,
        /// Generation seed — part of the scenario identity, so two grids
        /// naming the same scenario see the same pairs.
        gen_seed: u64,
    },
    /// Stream a blocking-scale record pool ([`em_synth::pool`]); the
    /// candidate set is whatever the scenario's [`BlockingSpec`]
    /// extracts from the raw tables.
    Pool {
        /// The pool profile.
        profile: PoolProfile,
        /// Generation seed (same identity contract as `Synthetic`).
        gen_seed: u64,
    },
    /// Load a Magellan-layout directory (`tableA.csv`, `tableB.csv`,
    /// `train.csv`, `valid.csv`, `test.csv`).
    CsvDir {
        /// The dataset directory.
        dir: PathBuf,
    },
}

/// A candidate pool produced by blocking alone — no featurization, no
/// split. This is the shape the 10⁵-record acceptance path uses: the
/// pair list comes out of the signature tier without the exhaustive
/// matrix (or the feature matrix) ever existing.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    /// The blocking run: sorted candidate pairs plus size accounting.
    pub blocking: BlockingOutput,
    /// Ground-truth matches of the underlying tables, for recall
    /// measurement.
    pub true_matches: Vec<CandidatePair>,
}

/// A named, reproducible dataset recipe.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    source: ScenarioSource,
    blocking: BlockingSpec,
}

impl Scenario {
    /// A synthetic scenario named after its profile.
    pub fn synthetic(profile: DatasetProfile, gen_seed: u64) -> Self {
        Scenario {
            name: profile.name.to_string(),
            source: ScenarioSource::Synthetic { profile, gen_seed },
            blocking: BlockingSpec::Exhaustive,
        }
    }

    /// A synthetic scenario scaled by `factor` (for smoke grids); the
    /// name records the scale so differently-sized variants of one
    /// profile coexist in an [`ArtifactCache`](super::ArtifactCache).
    pub fn synthetic_scaled(profile: DatasetProfile, factor: f64, gen_seed: u64) -> Self {
        let name = format!("{}@{factor}", profile.name);
        Scenario {
            name,
            source: ScenarioSource::Synthetic {
                profile: profile.scaled(factor),
                gen_seed,
            },
            blocking: BlockingSpec::Exhaustive,
        }
    }

    /// A blocking-scale record-pool scenario named after its profile.
    ///
    /// Pools default to [`BlockingSpec::Exhaustive`] like every other
    /// scenario; at 10⁵+ records that errors out at materialize time
    /// (the cross product exceeds the cap), so real use pairs this with
    /// [`Scenario::with_blocking`].
    pub fn pool(profile: PoolProfile, gen_seed: u64) -> Self {
        Scenario {
            name: profile.name.clone(),
            source: ScenarioSource::Pool { profile, gen_seed },
            blocking: BlockingSpec::Exhaustive,
        }
    }

    /// A CSV-backed scenario over a Magellan-layout directory.
    pub fn csv_dir(name: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        Scenario {
            name: name.into(),
            source: ScenarioSource::CsvDir { dir: dir.into() },
            blocking: BlockingSpec::Exhaustive,
        }
    }

    /// Replace the blocking spec.
    ///
    /// Non-exhaustive specs tag the scenario name (e.g.
    /// `pool-100k+lsh8x32`) so blocked variants occupy their own
    /// artifact-cache slots; the exhaustive default never renames, which
    /// keeps legacy scenarios bit-identical.
    pub fn with_blocking(mut self, blocking: BlockingSpec) -> Self {
        if let Some(tag) = blocking.tag() {
            self.name = format!("{}+{tag}", self.name);
        }
        self.blocking = blocking;
        self
    }

    /// Look a built-in profile up by name (Table 3 naming, e.g.
    /// `"amazon-google"`), scaled by `factor`.
    pub fn by_name(name: &str, factor: f64, gen_seed: u64) -> Result<Scenario> {
        let profile = all_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .ok_or_else(|| {
                EmError::InvalidConfig(format!(
                    "unknown scenario `{name}` (known: {})",
                    Scenario::registry_names().join(", ")
                ))
            })?;
        Ok(if (factor - 1.0).abs() < 1e-12 {
            Scenario::synthetic(profile, gen_seed)
        } else {
            Scenario::synthetic_scaled(profile, factor, gen_seed)
        })
    }

    /// Names of all built-in synthetic profiles.
    pub fn registry_names() -> Vec<&'static str> {
        all_profiles().into_iter().map(|p| p.name).collect()
    }

    /// The scenario's name (the artifact-cache key and the dataset name
    /// every report of this scenario carries).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's blocking spec.
    pub fn blocking(&self) -> &BlockingSpec {
        &self.blocking
    }

    /// The raw tables and truth list the blocking tier runs over.
    ///
    /// `Synthetic` sources re-use the legacy generator and strip its
    /// curated pair list down to the true matches; `Pool` sources stream
    /// the tables directly. CSV directories carry ground truth only for
    /// their listed pairs, so they cannot be re-blocked.
    fn source_pool(&self) -> Result<(RecordPool, Rng)> {
        match &self.source {
            ScenarioSource::Synthetic { profile, gen_seed } => {
                let mut rng = Rng::seed_from_u64(*gen_seed);
                let dataset = generate(profile, &mut rng)?;
                let mut true_matches: Vec<CandidatePair> = (0..dataset.len())
                    .filter(|&i| dataset.ground_truth(i).is_match())
                    .map(|i| dataset.pairs()[i])
                    .collect();
                true_matches.sort_unstable();
                true_matches.dedup();
                Ok((
                    RecordPool {
                        name: self.name.clone(),
                        left: dataset.left,
                        right: dataset.right,
                        true_matches,
                    },
                    rng,
                ))
            }
            ScenarioSource::Pool { profile, gen_seed } => {
                let mut rng = Rng::seed_from_u64(*gen_seed);
                let mut pool = generate_pool(profile, &mut rng)?;
                pool.name = self.name.clone();
                Ok((pool, rng))
            }
            ScenarioSource::CsvDir { .. } => Err(EmError::InvalidConfig(format!(
                "{}: CSV scenarios carry ground truth only for their listed pairs \
                 and cannot be re-blocked; use BlockingSpec::Exhaustive",
                self.name
            ))),
        }
    }

    /// Run only the blocking tier: raw tables → candidate pairs, no
    /// featurization and no exhaustive matrix.
    ///
    /// This is how 10⁵–10⁶-record pools are exercised: the candidate
    /// pool plus the truth list (for recall) is everything the
    /// throughput bench and the recall gate need.
    pub fn candidate_pool(&self) -> Result<CandidatePool> {
        let (pool, _rng) = self.source_pool()?;
        let blocking = block_tables(&pool.left, &pool.right, &self.blocking)?;
        Ok(CandidatePool {
            blocking,
            true_matches: pool.true_matches,
        })
    }

    /// Build the immutable per-dataset artifacts: the dataset itself,
    /// the featurizer, and the featurized pair embeddings.
    pub fn materialize(&self) -> Result<DatasetArtifacts> {
        let mut dataset = match (&self.source, &self.blocking) {
            // The legacy paths, bit-identical to pre-blocking behaviour:
            // synthetic profiles keep their curated pair list, CSV dirs
            // their labeled pairs.
            (ScenarioSource::Synthetic { profile, gen_seed }, BlockingSpec::Exhaustive) => {
                generate(profile, &mut Rng::seed_from_u64(*gen_seed))?
            }
            (ScenarioSource::CsvDir { dir }, BlockingSpec::Exhaustive) => {
                em_core::load_magellan_dir(dir, &self.name)?
            }
            // Everything else goes through the blocking tier: extract
            // candidates from the raw tables, label them against the
            // truth list, split, and proceed as usual.
            _ => {
                let (pool, mut rng) = self.source_pool()?;
                let blocked = block_tables(&pool.left, &pool.right, &self.blocking)?;
                em_synth::assemble_dataset(pool, blocked.candidates, &mut rng)?
            }
        };
        // Reports key cells by scenario name; make the dataset agree even
        // when a scenario renames its source (scaled variants, CSV dirs).
        dataset.name = self.name.clone();
        let featurizer = Featurizer::new(&dataset, FeatureConfig::default())?;
        let features = featurizer.featurize_all(&dataset)?;
        Ok(DatasetArtifacts {
            dataset,
            featurizer,
            features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::LshBlocking;
    use em_synth::blocking_recall;

    #[test]
    fn registry_lookup_and_unknown_name() {
        assert!(Scenario::registry_names().contains(&"amazon-google"));
        let s = Scenario::by_name("amazon-google", 0.05, 7).unwrap();
        assert_eq!(s.name(), "amazon-google@0.05");
        let full = Scenario::by_name("amazon-google", 1.0, 7).unwrap();
        assert_eq!(full.name(), "amazon-google");
        assert!(Scenario::by_name("no-such-dataset", 1.0, 7).is_err());
    }

    #[test]
    fn materialize_is_deterministic_and_renames() {
        let s = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 11);
        let a = s.materialize().unwrap();
        let b = s.materialize().unwrap();
        assert_eq!(a.dataset.name, "amazon-google@0.04");
        assert_eq!(a.dataset.len(), b.dataset.len());
        assert_eq!(a.features.len(), a.dataset.len());
        assert_eq!(a.features.row(0), b.features.row(0));
    }

    #[test]
    fn missing_csv_dir_errors() {
        let s = Scenario::csv_dir("ghost", "/nonexistent/em-data");
        assert!(s.materialize().is_err());
    }

    #[test]
    fn exhaustive_spec_is_bit_identical_to_legacy() {
        // `with_blocking(Exhaustive)` must change nothing: same name,
        // same pairs, same features.
        let base = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 11);
        let spec = base.clone().with_blocking(BlockingSpec::Exhaustive);
        assert_eq!(base.name(), spec.name());
        let a = base.materialize().unwrap();
        let b = spec.materialize().unwrap();
        assert_eq!(a.dataset.pairs(), b.dataset.pairs());
        assert_eq!(a.dataset.split(), b.dataset.split());
        for i in 0..a.dataset.len() {
            assert_eq!(a.features.row(i), b.features.row(i));
        }
    }

    #[test]
    fn blocked_scenarios_get_tagged_names() {
        let pool = Scenario::pool(PoolProfile::products("tag-pool", 1000), 5);
        assert_eq!(pool.name(), "tag-pool");
        let lsh = pool
            .clone()
            .with_blocking(BlockingSpec::Lsh(LshBlocking::default()));
        assert_eq!(lsh.name(), "tag-pool+lsh8x32");
        let token = pool.with_blocking(BlockingSpec::Token(Default::default()));
        assert_eq!(token.name(), "tag-pool+token");
    }

    #[test]
    fn pool_scenario_materializes_through_lsh() {
        let s = Scenario::pool(PoolProfile::products("mat-pool", 1500), 21)
            .with_blocking(BlockingSpec::Lsh(LshBlocking::default()));
        let a = s.materialize().unwrap();
        let b = s.materialize().unwrap();
        assert_eq!(a.dataset.name, "mat-pool+lsh8x32");
        assert_eq!(a.dataset.pairs(), b.dataset.pairs());
        assert_eq!(a.features.len(), a.dataset.len());
        // Blocked pool datasets contain both classes.
        let n_pos = (0..a.dataset.len())
            .filter(|&i| a.dataset.ground_truth(i).is_match())
            .count();
        assert!(n_pos > 0 && n_pos < a.dataset.len());
    }

    #[test]
    fn candidate_pool_skips_featurization_and_measures_recall() {
        let s = Scenario::pool(PoolProfile::products("cp-pool", 2000), 23)
            .with_blocking(BlockingSpec::Lsh(LshBlocking::default()));
        let cp = s.candidate_pool().unwrap();
        assert!(!cp.blocking.candidates.is_empty());
        assert!(!cp.true_matches.is_empty());
        let recall = blocking_recall(&cp.blocking.candidates, &cp.true_matches);
        assert!(recall >= 0.95, "recall {recall}");
        assert!(cp.blocking.stats.reduction_ratio > 0.9);
    }

    #[test]
    fn csv_scenarios_cannot_be_reblocked() {
        let s = Scenario::csv_dir("ghost", "/nonexistent/em-data")
            .with_blocking(BlockingSpec::Lsh(LshBlocking::default()));
        assert!(s.materialize().is_err());
        assert!(s.candidate_pool().is_err());
    }

    #[test]
    fn oversized_exhaustive_pool_errors_at_materialize() {
        let s = Scenario::pool(PoolProfile::products("big-pool", 20_000), 3);
        let err = s.materialize().unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("exhaustive"), "unexpected error: {msg}");
    }
}
