//! The run worker: executes one [`RunSpec`] to a [`RunReport`].
//!
//! The active-learning protocol loop (§3.1 + §4.2: seed draw → train →
//! predict → select → label → repeat) lives in [`crate::session`] as
//! the step-driven [`MatchSession`] state machine. An active grid cell
//! opens a session that owns its strategy (built from the cell's
//! [`StrategySpec`](crate::strategies::StrategySpec)) and drives it
//! against a [`PerfectOracle`]; the single-run
//! [`run_active_learning`](crate::runner::run_active_learning) drives a
//! session over a caller-managed strategy the same way.
//!
//! The pre-redesign closed loop is preserved **verbatim** below as
//! `execute_run_closed` (public via
//! [`crate::runner::run_closed_loop`]): the golden tests in
//! `tests/session_api.rs` and the `em-bench` session bench pin the
//! session-driven path bit-identical (modulo wall-clock) to it for
//! every [`StrategySpec`](crate::strategies::StrategySpec), and the
//! bench additionally gates the step machinery's overhead at ≤ 5 %.
//!
//! Per-iteration wall-clock for training and selection is recorded — the
//! selection component is what Figure 6 plots (K-Means dominates it,
//! §5.2). Baseline cells (ZeroER / Full D) execute here too, shaped into
//! single-iteration [`RunReport`]s so they flow through the same
//! aggregation as active-learning cells.

use std::time::Instant;

use em_core::{
    BinaryConfusion, Dataset, EmError, Label, Membership, Oracle, PairIdx, PerfectOracle, Result,
    Rng,
};
use em_matcher::{train_matcher, MatcherConfig, TrainedMatcher};
use em_vector::Embeddings;

use crate::baselines::{full_d_f1, zeroer_f1};
use crate::config::ExperimentConfig;
use crate::report::{IterationRecord, RunReport};
use crate::session::{MatchSession, SessionConfig};
use crate::strategies::{SelectionContext, SelectionScratch, SelectionStrategy};

use super::artifacts::DatasetArtifacts;
use super::spec::{CellKind, RunSpec};

/// A prepared run of the closed loop: dataset-level constants shared
/// across iterations.
pub(crate) struct ActiveLearningRun<'a> {
    dataset: &'a Dataset,
    features: &'a Embeddings,
    valid_idx: Vec<PairIdx>,
    valid_labels: Vec<Label>,
    test_idx: Vec<PairIdx>,
    test_labels: Vec<Label>,
}

impl<'a> ActiveLearningRun<'a> {
    /// Prepare a run over `dataset` with precomputed pair `features`.
    ///
    /// Validation labels come from ground truth, mirroring the
    /// benchmark protocol the paper inherits from DITTO (§4.2: epoch
    /// selection by validation F1); the test set is only read for
    /// reporting.
    pub(crate) fn new(dataset: &'a Dataset, features: &'a Embeddings) -> Result<Self> {
        if features.len() != dataset.len() {
            return Err(EmError::DimensionMismatch {
                context: "run features".into(),
                expected: dataset.len(),
                actual: features.len(),
            });
        }
        let valid_idx = dataset.split().valid.clone();
        let valid_labels = dataset.ground_truth_of(&valid_idx);
        let test_idx = dataset.split().test.clone();
        let test_labels = dataset.ground_truth_of(&test_idx);
        Ok(ActiveLearningRun {
            dataset,
            features,
            valid_idx,
            valid_labels,
            test_idx,
            test_labels,
        })
    }

    /// Draw the balanced seed: `seed_size/2` matches and non-matches from
    /// the pool, labeled through the oracle (the standard assumption the
    /// paper takes from Kasai et al.: a balanced starter set exists).
    fn draw_seed(
        &self,
        pool: &mut Vec<PairIdx>,
        oracle: &dyn Oracle,
        seed_size: usize,
        rng: &mut Rng,
        membership: &mut Membership,
    ) -> (Vec<PairIdx>, Vec<Label>) {
        let mut shuffled = pool.clone();
        rng.shuffle(&mut shuffled);
        let half = seed_size / 2;
        let mut chosen = Vec::with_capacity(seed_size);
        let mut labels = Vec::with_capacity(seed_size);
        let mut n_pos = 0usize;
        let mut n_neg = 0usize;
        let mut leftovers = Vec::new();
        for &idx in &shuffled {
            if chosen.len() >= seed_size {
                break;
            }
            let label = self.dataset.ground_truth(idx);
            let take = if label.is_match() {
                if n_pos < half {
                    n_pos += 1;
                    true
                } else {
                    false
                }
            } else if n_neg < seed_size - half {
                n_neg += 1;
                true
            } else {
                false
            };
            if take {
                // Count the oracle query for budget accounting.
                labels.push(oracle.label(self.dataset, idx));
                chosen.push(idx);
            } else {
                leftovers.push(idx);
            }
        }
        // If one class ran short (tiny pools), fill with whatever remains.
        for &idx in &leftovers {
            if chosen.len() >= seed_size {
                break;
            }
            labels.push(oracle.label(self.dataset, idx));
            chosen.push(idx);
        }
        membership.begin();
        for &idx in &chosen {
            membership.insert(idx);
        }
        pool.retain(|&i| !membership.contains(i));
        (chosen, labels)
    }

    /// Train a matcher on `train ∪ weak` and measure test metrics.
    fn train_and_eval(
        &self,
        train: &[PairIdx],
        train_labels: &[Label],
        weak: &[(PairIdx, Label)],
        matcher_config: &MatcherConfig,
    ) -> Result<(TrainedMatcher, em_core::Metrics)> {
        let mut idx: Vec<PairIdx> = train.to_vec();
        let mut labels: Vec<Label> = train_labels.to_vec();
        for &(p, l) in weak {
            idx.push(p);
            labels.push(l);
        }
        let matcher = train_matcher(
            self.features,
            &idx,
            &labels,
            &self.valid_idx,
            &self.valid_labels,
            matcher_config,
        )?;
        let predicted = matcher.labels(self.features, &self.test_idx)?;
        let metrics = BinaryConfusion::from_labels(&predicted, &self.test_labels)?.metrics();
        Ok((matcher, metrics))
    }
}

/// The pre-redesign closed protocol loop, preserved verbatim as the
/// golden reference for the session-driven loop (public via
/// [`crate::runner::run_closed_loop`]; also the baseline the `em-bench`
/// session bench gates step-driven overhead against).
///
/// `seed` drives every random decision (seed draw, matcher init,
/// residual budget allocation, strategy tie-breaks), making runs exactly
/// reproducible.
pub(crate) fn execute_run_closed(
    dataset: &Dataset,
    features: &Embeddings,
    strategy: &mut dyn SelectionStrategy,
    oracle: &dyn Oracle,
    config: &ExperimentConfig,
    seed: u64,
) -> Result<RunReport> {
    config.validate()?;
    let run = ActiveLearningRun::new(dataset, features)?;
    let mut rng = Rng::seed_from_u64(seed);

    let mut pool: Vec<PairIdx> = dataset.split().train.clone();
    if pool.len() < config.al.seed_size {
        return Err(EmError::InvalidConfig(format!(
            "pool of {} smaller than seed size {}",
            pool.len(),
            config.al.seed_size
        )));
    }

    // One membership vector for every set test of the run (seed draw,
    // pool checks, selection removal), and one selection scratch reused
    // across iterations.
    let mut membership = Membership::new(dataset.len());
    let mut scratch = SelectionScratch::new();

    let (mut train, mut train_labels) = run.draw_seed(
        &mut pool,
        oracle,
        config.al.seed_size,
        &mut rng,
        &mut membership,
    );

    let mut iterations = Vec::with_capacity(config.al.iterations + 1);

    // Iteration 0: seed-only model (no weak set exists yet).
    let matcher_config = MatcherConfig {
        seed: rng.next_u64(),
        ..config.matcher.clone()
    };
    // em-lint: allow(wall-clock) -- fills a RunReport timing field; canonical() zeroes it
    let t0 = Instant::now();
    let (mut matcher, metrics) = run.train_and_eval(&train, &train_labels, &[], &matcher_config)?;
    let train_secs = t0.elapsed().as_secs_f64();
    iterations.push(IterationRecord {
        iteration: 0,
        labels_used: train.len(),
        test_f1_pct: metrics.f1_pct(),
        precision: metrics.precision,
        recall: metrics.recall,
        train_secs,
        select_secs: 0.0,
        new_positives: train_labels.iter().filter(|l| l.is_match()).count(),
        new_labels: train.len(),
        weak_used: 0,
    });

    for iteration in 0..config.al.iterations {
        if pool.is_empty() {
            break;
        }
        // Predict over pool and train with the current model.
        // em-lint: allow(wall-clock) -- fills a RunReport timing field; canonical() zeroes it
        let t_select = Instant::now();
        let pool_out = matcher.predict(features, &pool)?;
        let train_out = matcher.predict(features, &train)?;

        let budget = config.al.budget.min(pool.len());
        let mut ctx = SelectionContext {
            dataset,
            features,
            pool: &pool,
            train: &train,
            train_labels: &train_labels,
            pool_preds: &pool_out.predictions,
            pool_reprs: &pool_out.representations,
            train_reprs: &train_out.representations,
            budget,
            iteration,
            config,
            scratch: &mut scratch,
        };
        let selection = strategy.select(&mut ctx, &mut rng)?;
        let select_secs = t_select.elapsed().as_secs_f64();

        if selection.to_label.len() > budget {
            return Err(EmError::InvalidConfig(format!(
                "strategy `{}` exceeded its budget: {} > {budget}",
                strategy.name(),
                selection.to_label.len()
            )));
        }
        membership.begin();
        for &p in &pool {
            membership.insert(p);
        }
        for &p in &selection.to_label {
            if !membership.contains(p) {
                return Err(EmError::InvalidConfig(format!(
                    "strategy `{}` selected pair {p} outside the pool",
                    strategy.name()
                )));
            }
        }

        // Oracle labeling; move from pool to train.
        let mut new_positives = 0usize;
        for &p in &selection.to_label {
            let label = oracle.label(dataset, p);
            if label.is_match() {
                new_positives += 1;
            }
            train.push(p);
            train_labels.push(label);
        }
        membership.begin();
        for &p in &selection.to_label {
            membership.insert(p);
        }
        pool.retain(|&i| !membership.contains(i));

        // Train the next model on labels + weak pseudo-labels.
        let matcher_config = MatcherConfig {
            seed: rng.next_u64(),
            ..config.matcher.clone()
        };
        // em-lint: allow(wall-clock) -- fills a RunReport timing field; canonical() zeroes it
        let t_train = Instant::now();
        let (next_matcher, metrics) =
            run.train_and_eval(&train, &train_labels, &selection.weak, &matcher_config)?;
        let train_secs = t_train.elapsed().as_secs_f64();
        matcher = next_matcher;

        iterations.push(IterationRecord {
            iteration: iteration + 1,
            labels_used: train.len(),
            test_f1_pct: metrics.f1_pct(),
            precision: metrics.precision,
            recall: metrics.recall,
            train_secs,
            select_secs,
            new_positives,
            new_labels: selection.to_label.len(),
            weak_used: selection.weak.len(),
        });
    }

    Ok(RunReport {
        dataset: dataset.name.clone(),
        strategy: strategy.name(),
        seed,
        iterations,
    })
}

/// Shape a baseline's single test measurement into a one-iteration
/// [`RunReport`] so baselines aggregate like any other cell.
fn baseline_report(
    dataset: &Dataset,
    strategy: &str,
    seed: u64,
    metrics: &em_core::Metrics,
    labels_used: usize,
    positives: usize,
    train_secs: f64,
) -> RunReport {
    RunReport {
        dataset: dataset.name.clone(),
        strategy: strategy.to_string(),
        seed,
        iterations: vec![IterationRecord {
            iteration: 0,
            labels_used,
            test_f1_pct: metrics.f1 * 100.0,
            precision: metrics.precision,
            recall: metrics.recall,
            train_secs,
            select_secs: 0.0,
            new_positives: positives,
            new_labels: labels_used,
            weak_used: 0,
        }],
    }
}

/// Execute one grid spec against its scenario's shared artifacts,
/// returning the report and the run's wall-clock seconds.
pub(crate) fn execute_spec(
    spec: &RunSpec,
    artifacts: &DatasetArtifacts,
    config: &ExperimentConfig,
) -> Result<(RunReport, f64)> {
    // em-lint: allow(wall-clock) -- per-cell wall-clock in the grid report; canonical() zeroes it
    let t0 = Instant::now();
    let report = match spec.kind {
        CellKind::Active(strategy) => MatchSession::new(
            &artifacts.dataset,
            &artifacts.features,
            SessionConfig {
                experiment: config.clone(),
                strategy,
                seed: spec.seed,
            },
        )?
        .drive(&PerfectOracle::new())?,
        CellKind::ZeroEr => {
            let metrics = zeroer_f1(&artifacts.dataset, &artifacts.featurizer, spec.seed)?;
            baseline_report(
                &artifacts.dataset,
                "zeroer",
                spec.seed,
                &metrics,
                0,
                0,
                t0.elapsed().as_secs_f64(),
            )
        }
        CellKind::FullD => {
            let metrics = full_d_f1(&artifacts.dataset, &artifacts.features, &config.matcher)?;
            let train = &artifacts.dataset.split().train;
            let positives = artifacts
                .dataset
                .ground_truth_of(train)
                .iter()
                .filter(|l| l.is_match())
                .count();
            baseline_report(
                &artifacts.dataset,
                "full-d",
                spec.seed,
                &metrics,
                train.len(),
                positives,
                t0.elapsed().as_secs_f64(),
            )
        }
    };
    Ok((report, t0.elapsed().as_secs_f64()))
}
