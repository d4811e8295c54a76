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
//! `tests/report_golden.rs` pins every strategy's canonical report to a
//! committed fixture.
//!
//! Per-iteration wall-clock for training and selection is recorded — the
//! selection component is what Figure 6 plots (K-Means dominates it,
//! §5.2). Baseline cells (ZeroER / Full D) execute here too, shaped into
//! single-iteration [`RunReport`]s so they flow through the same
//! aggregation as active-learning cells.

use std::time::Instant;

use em_core::{Dataset, PerfectOracle, Result};

use crate::baselines::{full_d_f1, zeroer_f1};
use crate::config::ExperimentConfig;
use crate::report::{IterationRecord, RunReport};
use crate::session::{MatchSession, SessionConfig};

use super::artifacts::DatasetArtifacts;
use super::spec::{CellKind, RunSpec};

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
