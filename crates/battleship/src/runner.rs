//! The single-run entry point to the active-learning protocol.
//!
//! The protocol itself (§3.1 + §4.2: seed draw → train → predict →
//! select → label → repeat) lives in [`crate::session`] as the
//! step-driven [`MatchSession`] state
//! machine; [`run_active_learning`] drives one session against an
//! [`Oracle`] to completion. This keeps the original one-(dataset,
//! strategy, seed) API for callers that want exactly one run —
//! examples, benches and tests; a grid cell produced by the engine is
//! bit-identical (modulo wall-clock) to what this wrapper returns for
//! the same seed, which the engine's golden tests pin.
//!
//! [`run_closed_loop`] is the pre-redesign closed loop, preserved
//! verbatim as the golden reference: `tests/session_api.rs` pins the
//! session-driven path bit-identical to it for every strategy, and the
//! `em-bench` session bench gates the step machinery's overhead
//! against it.

use em_core::{Dataset, Oracle, Result};
use em_vector::Embeddings;

use crate::config::ExperimentConfig;
use crate::engine::worker::execute_run_closed;
use crate::report::RunReport;
use crate::session::MatchSession;
use crate::strategies::SelectionStrategy;

/// Execute a full active-learning run by driving a [`MatchSession`] over
/// the caller's strategy against `oracle`.
///
/// `seed` drives every random decision (seed draw, matcher init,
/// residual budget allocation, strategy tie-breaks), making runs exactly
/// reproducible.
pub fn run_active_learning(
    dataset: &Dataset,
    features: &Embeddings,
    strategy: &mut dyn SelectionStrategy,
    oracle: &dyn Oracle,
    config: &ExperimentConfig,
    seed: u64,
) -> Result<RunReport> {
    MatchSession::with_strategy(dataset, features, strategy, config.clone(), seed)?.drive(oracle)
}

/// Execute a run through the pre-redesign closed protocol loop.
///
/// This is the reference implementation the session API was inverted
/// from, preserved verbatim for golden comparisons and overhead
/// benchmarking: [`run_active_learning`] produces a bit-identical
/// report (modulo wall-clock fields) for the same inputs. Applications
/// should use [`run_active_learning`] or the session API directly.
pub fn run_closed_loop(
    dataset: &Dataset,
    features: &Embeddings,
    strategy: &mut dyn SelectionStrategy,
    oracle: &dyn Oracle,
    config: &ExperimentConfig,
    seed: u64,
) -> Result<RunReport> {
    execute_run_closed(dataset, features, strategy, oracle, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{BattleshipStrategy, DalStrategy, RandomStrategy};
    use em_core::{PerfectOracle, Rng};
    use em_matcher::{FeatureConfig, Featurizer};
    use em_synth::{generate, DatasetProfile};

    fn quick_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::default();
        c.al.budget = 20;
        c.al.iterations = 2;
        c.al.seed_size = 20;
        c.al.weak_budget = 20;
        c.matcher.epochs = 6;
        c.battleship.kselect_sample = 128;
        c
    }

    fn task() -> (Dataset, Embeddings) {
        let p = DatasetProfile::amazon_google().scaled(0.04);
        let d = generate(&p, &mut Rng::seed_from_u64(5)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        (d, feats)
    }

    #[test]
    fn random_run_produces_complete_report() {
        let (d, feats) = task();
        let oracle = PerfectOracle::new();
        let mut strategy = RandomStrategy::new();
        let config = quick_config();
        let report = run_active_learning(&d, &feats, &mut strategy, &oracle, &config, 1).unwrap();
        assert_eq!(report.iterations.len(), 3); // seed + 2 iterations
        assert_eq!(report.iterations[0].labels_used, 20);
        assert_eq!(report.iterations[2].labels_used, 60);
        assert_eq!(report.strategy, "random");
        // Oracle accounting: seed 20 + 2×20 selections.
        assert_eq!(oracle.queries(), 60);
    }

    #[test]
    fn battleship_run_consumes_exact_budget() {
        let (d, feats) = task();
        let oracle = PerfectOracle::new();
        let mut strategy = BattleshipStrategy::new();
        let config = quick_config();
        let report = run_active_learning(&d, &feats, &mut strategy, &oracle, &config, 2).unwrap();
        for (i, it) in report.iterations.iter().enumerate().skip(1) {
            assert_eq!(it.new_labels, 20, "iteration {i}");
            assert!(it.select_secs > 0.0);
        }
        // Train set grows monotonically, F1 is finite.
        for it in &report.iterations {
            assert!(it.test_f1_pct.is_finite());
            assert!((0.0..=100.0).contains(&it.test_f1_pct));
        }
    }

    #[test]
    fn dal_weak_supervision_is_recorded() {
        let (d, feats) = task();
        let oracle = PerfectOracle::new();
        let mut strategy = DalStrategy::new();
        let config = quick_config();
        let report = run_active_learning(&d, &feats, &mut strategy, &oracle, &config, 3).unwrap();
        let weak_total: usize = report.iterations.iter().map(|i| i.weak_used).sum();
        assert!(weak_total > 0, "DAL should produce weak labels");
        // Weak labels never consume oracle budget.
        assert_eq!(oracle.queries(), 20 + 2 * 20);
    }

    #[test]
    fn weak_supervision_flag_disables_weak() {
        let (d, feats) = task();
        let oracle = PerfectOracle::new();
        let mut strategy = DalStrategy::new();
        let mut config = quick_config();
        config.al.weak_supervision = false;
        let report = run_active_learning(&d, &feats, &mut strategy, &oracle, &config, 3).unwrap();
        assert!(report.iterations.iter().all(|i| i.weak_used == 0));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let (d, feats) = task();
        let config = quick_config();
        let report = |seed| {
            let oracle = PerfectOracle::new();
            let mut strategy = BattleshipStrategy::new();
            run_active_learning(&d, &feats, &mut strategy, &oracle, &config, seed).unwrap()
        };
        // Wall-clock fields naturally differ between runs; everything
        // else must be bit-identical.
        let strip = |r: RunReport| -> Vec<(usize, usize, u64, usize, usize, usize)> {
            r.iterations
                .iter()
                .map(|i| {
                    (
                        i.iteration,
                        i.labels_used,
                        i.test_f1_pct.to_bits(),
                        i.new_positives,
                        i.new_labels,
                        i.weak_used,
                    )
                })
                .collect()
        };
        let a = strip(report(7));
        let b = strip(report(7));
        assert_eq!(a, b);
        let c = strip(report(8));
        assert_ne!(a, c);
    }

    #[test]
    fn seed_larger_than_pool_rejected() {
        let (d, feats) = task();
        let oracle = PerfectOracle::new();
        let mut strategy = RandomStrategy::new();
        let mut config = quick_config();
        config.al.seed_size = d.split().train.len() + 1;
        assert!(run_active_learning(&d, &feats, &mut strategy, &oracle, &config, 1).is_err());
    }

    #[test]
    fn seed_draw_is_balanced() {
        let (d, feats) = task();
        let oracle = PerfectOracle::new();
        let mut strategy = RandomStrategy::new();
        let config = quick_config();
        let report = run_active_learning(&d, &feats, &mut strategy, &oracle, &config, 11).unwrap();
        // Seed iteration: half the labels positive.
        assert_eq!(report.iterations[0].new_positives, 10);
    }
}
