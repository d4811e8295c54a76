//! Session-API integration tests: every strategy's oracle accounting
//! matches its report, and snapshot→restore at any point of a run must
//! change nothing. `tests/report_golden.rs` pins each strategy's report
//! bytes.

use std::sync::OnceLock;

use battleship_em::al::{run_active_learning, ExperimentConfig};
use battleship_em::api::{
    MatchSession, Oracle, PairIdx, PerfectOracle, RunReport, Scenario, SessionConfig, SessionPhase,
    SessionSnapshot, StrategySpec,
};
use battleship_em::core::{Dataset, Label, Rng};
use battleship_em::matcher::{FeatureConfig, Featurizer};
use battleship_em::synth::{generate, DatasetProfile};
use battleship_em::vector::Embeddings;
use proptest::prelude::*;

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

/// The shared benchmark task, materialized once for the whole file.
fn task() -> &'static (Dataset, Embeddings) {
    static TASK: OnceLock<(Dataset, Embeddings)> = OnceLock::new();
    TASK.get_or_init(|| {
        let p = DatasetProfile::amazon_google().scaled(0.04);
        let d = generate(&p, &mut Rng::seed_from_u64(5)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        (d, feats)
    })
}

/// Serialize the session to a JSON checkpoint and rebuild it — the full
/// persistence path a server would exercise.
fn json_roundtrip<'a>(
    dataset: &'a Dataset,
    features: &'a Embeddings,
    session: &MatchSession<'_>,
) -> MatchSession<'a> {
    let snapshot = session.snapshot().unwrap();
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: battleship_em::api::SessionSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snapshot, "snapshot JSON round-trip must be lossless");
    MatchSession::restore(dataset, features, &back).unwrap()
}

/// Drive a session to completion, optionally interrupting it with a
/// snapshot→JSON→restore round-trip at the `interrupt_batch`-th query
/// batch (`partial`: submit half the batch first; `after_submit`:
/// checkpoint in the Training phase instead of AwaitingLabels).
fn drive_interrupted(
    dataset: &Dataset,
    features: &Embeddings,
    config: SessionConfig,
    interrupt_batch: Option<usize>,
    partial: bool,
    after_submit: bool,
) -> RunReport {
    let oracle = PerfectOracle::new();
    let mut session = MatchSession::new(dataset, features, config).unwrap();
    let mut batch_idx = 0usize;
    loop {
        match session.advance().unwrap() {
            SessionPhase::AwaitingLabels => {
                let interrupt_here = interrupt_batch == Some(batch_idx);
                if interrupt_here && !after_submit {
                    if partial {
                        let pairs = session.next_query_batch();
                        let half: Vec<(PairIdx, Label)> = pairs[..pairs.len() / 2]
                            .iter()
                            .map(|&p| (p, oracle.label(dataset, p)))
                            .collect();
                        session.submit_labels(&half).unwrap();
                    }
                    session = json_roundtrip(dataset, features, &session);
                }
                let rest: Vec<(PairIdx, Label)> = session
                    .next_query_batch()
                    .into_iter()
                    .map(|p| (p, oracle.label(dataset, p)))
                    .collect();
                session.submit_labels(&rest).unwrap();
                if interrupt_here && after_submit {
                    assert_eq!(session.phase(), SessionPhase::Training);
                    session = json_roundtrip(dataset, features, &session);
                }
                batch_idx += 1;
            }
            SessionPhase::Done => break,
            _ => {}
        }
    }
    session.into_report()
}

/// Every label a session reports was asked of the oracle exactly once:
/// for every `StrategySpec`, the oracle's query count after a run
/// equals the report's Σ `new_labels` (seed batch included), and weak
/// labels never reach the oracle.
#[test]
fn oracle_queries_equal_reported_new_labels_for_every_strategy() {
    let (d, feats) = task();
    let config = quick_config();
    for spec in StrategySpec::all() {
        let oracle = PerfectOracle::new();
        let report =
            run_active_learning(d, feats, spec.build().as_mut(), &oracle, &config, 11).unwrap();
        let reported: usize = report.iterations.iter().map(|it| it.new_labels).sum();
        assert_eq!(
            oracle.queries(),
            reported,
            "oracle accounting diverged for `{}`",
            spec.name()
        );
        assert_eq!(
            report.iterations.last().unwrap().labels_used,
            reported,
            "labels used diverged for `{}`",
            spec.name()
        );
    }
}

/// Checkpointing the battleship strategy at every batch boundary (and
/// in the Training phase) reproduces the uninterrupted run exactly.
#[test]
fn battleship_snapshot_at_every_batch_reproduces_run() {
    let (d, feats) = task();
    let config = SessionConfig {
        experiment: quick_config(),
        strategy: StrategySpec::Battleship,
        seed: 9,
    };
    let uninterrupted = drive_interrupted(d, feats, config.clone(), None, false, false).canonical();
    // seed batch + 2 iteration batches = 3 interruption points.
    for batch in 0..3 {
        for after_submit in [false, true] {
            let interrupted =
                drive_interrupted(d, feats, config.clone(), Some(batch), false, after_submit)
                    .canonical();
            assert_eq!(
                uninterrupted, interrupted,
                "restore at batch {batch} (after_submit={after_submit}) diverged"
            );
        }
    }
}

/// A battleship session is thread-count invariant: driven with the
/// pool's threads and again under `rayon::serial_scope`, it queries the
/// same batches and reports the same run. A round builds G beside
/// G⁺ + G⁻ in one `rayon::join`, which runs inline inside a grid cell,
/// so only a top-level session reaches its parallel path. The scenario
/// is checked to cluster both prediction sides in every round. On a
/// 1-thread host both drives are serial and the test shows nothing.
#[test]
fn battleship_session_is_thread_count_invariant() {
    use battleship_em::al::BattleshipStrategy;
    use battleship_em::api::{Selection, SelectionContext, SelectionStrategy};

    /// Battleship, recording each round's predicted-match and
    /// predicted-non-match pool sizes.
    struct Sided {
        inner: BattleshipStrategy,
        sides: Vec<(usize, usize)>,
    }
    impl SelectionStrategy for Sided {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn select(
            &mut self,
            ctx: &mut SelectionContext<'_>,
            rng: &mut Rng,
        ) -> battleship_em::core::Result<Selection> {
            let matches = ctx.pool_preds.iter().filter(|p| p.label.is_match()).count();
            self.sides.push((matches, ctx.pool_preds.len() - matches));
            self.inner.select(ctx, rng)
        }
    }

    fn drive() -> (Vec<Vec<PairIdx>>, RunReport, Vec<(usize, usize)>) {
        let (d, feats) = task();
        let mut strategy = Sided {
            inner: BattleshipStrategy::new(),
            sides: Vec::new(),
        };
        let oracle = PerfectOracle::new();
        let mut session =
            MatchSession::with_strategy(d, feats, &mut strategy, quick_config(), 4).unwrap();
        let mut batches = Vec::new();
        loop {
            match session.advance().unwrap() {
                SessionPhase::AwaitingLabels => {
                    let batch = session.next_query_batch();
                    let labels: Vec<(PairIdx, Label)> =
                        batch.iter().map(|&p| (p, oracle.label(d, p))).collect();
                    session.submit_labels(&labels).unwrap();
                    batches.push(batch);
                }
                SessionPhase::Done => break,
                _ => {}
            }
        }
        let report = session.into_report().canonical();
        (batches, report, strategy.sides)
    }

    let parallel = drive();
    let serial = rayon::serial_scope(drive);
    // A side of at least 14 nodes clusters under the default cluster
    // size fractions (k from 7 to 20).
    assert_eq!(parallel.2.len(), 2, "one selection per round");
    for &(matches, non_matches) in &parallel.2 {
        assert!(
            matches >= 14 && non_matches >= 14,
            "a prediction side is too small to cluster: {:?}",
            parallel.2
        );
    }
    assert_eq!(parallel.0, serial.0, "query batches diverged");
    assert_eq!(parallel.1, serial.1, "reports diverged");
    assert_eq!(parallel.2, serial.2);
}

/// A restored session keeps a half-labeled batch intact: only the
/// unanswered pairs are re-queried and the report is unchanged.
#[test]
fn partial_batch_survives_checkpoint() {
    let (d, feats) = task();
    let config = SessionConfig {
        experiment: quick_config(),
        strategy: StrategySpec::Random,
        seed: 4,
    };
    let uninterrupted = drive_interrupted(d, feats, config.clone(), None, false, false).canonical();
    let interrupted = drive_interrupted(d, feats, config.clone(), Some(1), true, false).canonical();
    assert_eq!(uninterrupted, interrupted);
}

/// A JSON snapshot written while checkpoints still carried the
/// session's scratch membership set, its unlabeled pool and the pending
/// batch's seed flag has `membership`, `pool` and `is_seed` keys. It
/// restores (the keys are ignored: the set is rebuilt before every use,
/// the pool is rederived and the flag counted nothing the batch's
/// labels do not) and the run finishes with the uninterrupted run's
/// report bits.
#[test]
fn legacy_json_snapshot_with_membership_restores() {
    let (d, feats) = task();
    let config = SessionConfig {
        experiment: quick_config(),
        strategy: StrategySpec::Battleship,
        seed: 9,
    };
    let uninterrupted = MatchSession::new(d, feats, config.clone())
        .unwrap()
        .drive(&PerfectOracle::new())
        .unwrap()
        .canonical();

    // Stop mid-run: the first selected batch out, half of it labeled.
    let oracle = PerfectOracle::new();
    let mut session = MatchSession::new(d, feats, config).unwrap();
    session.advance().unwrap();
    let seed_labels: Vec<(PairIdx, Label)> = session
        .next_query_batch()
        .into_iter()
        .map(|p| (p, oracle.label(d, p)))
        .collect();
    session.submit_labels(&seed_labels).unwrap();
    assert_eq!(session.advance().unwrap(), SessionPhase::AwaitingLabels);
    let batch = session.next_query_batch();
    let half: Vec<(PairIdx, Label)> = batch[..batch.len() / 2]
        .iter()
        .map(|&p| (p, oracle.label(d, p)))
        .collect();
    session.submit_labels(&half).unwrap();
    let snapshot = session.snapshot().unwrap();

    // The legacy layout: one stamp per pair plus the generation, with
    // the last selection stamped live.
    let mut stamp = vec![0u32; d.len()];
    for &p in &batch {
        stamp[p] = 3;
    }
    // The pool as those checkpoints stored it: the train split minus
    // the labeled and pending pairs, in split order.
    let pool: Vec<PairIdx> = d
        .split()
        .train
        .iter()
        .copied()
        .filter(|p| !snapshot.train.contains(p) && !batch.contains(p))
        .collect();
    assert_eq!(pool.len(), session.pool_remaining());
    let json = serde_json::to_string(&snapshot).unwrap();
    for key in ["membership", "pool", "is_seed"] {
        assert!(!json.contains(&format!("\"{key}\"")), "{key}");
    }
    let pairs = format!("\"pending\":{{\"pairs\":{batch:?}").replace(' ', "");
    assert!(json.contains(&pairs));
    let legacy = format!(
        "{{\"membership\":{{\"stamp\":{stamp:?},\"generation\":3}},{}",
        &json[1..]
    )
    .replacen(",\"train\":", &format!(",\"pool\":{pool:?},\"train\":"), 1)
    .replacen(&pairs, &format!("{pairs},\"is_seed\":false"), 1);
    assert!(legacy.contains("\"pool\":[") && legacy.contains("\"is_seed\":false"));
    let back: SessionSnapshot = serde_json::from_str(&legacy).unwrap();
    assert_eq!(back, snapshot);
    let mut restored = MatchSession::restore(d, feats, &back).unwrap();
    let report = restored.drive(&oracle).unwrap().canonical();
    assert_eq!(report, uninterrupted, "legacy snapshot diverged");
}

/// Session bookkeeping and misuse errors.
#[test]
fn session_protocol_validation() {
    let (d, feats) = task();
    let config = SessionConfig {
        experiment: quick_config(),
        strategy: StrategySpec::Random,
        seed: 2,
    };
    let mut session = MatchSession::new(d, feats, config).unwrap();
    assert_eq!(session.phase(), SessionPhase::SeedDraw);
    assert!(session.next_query_batch().is_empty());
    // Labels before any batch exists are rejected.
    assert!(session.submit_labels(&[(0, Label::Match)]).is_err());

    assert_eq!(session.advance().unwrap(), SessionPhase::AwaitingLabels);
    let batch = session.next_query_batch();
    assert_eq!(batch.len(), 20);
    assert_eq!(session.labels_used(), 0);

    // A pair outside the batch is rejected; so is answering twice.
    let outside = (0..d.len())
        .find(|p| !batch.contains(p))
        .expect("pool larger than batch");
    assert!(session.submit_labels(&[(outside, Label::Match)]).is_err());
    let first = batch[0];
    session
        .submit_labels(&[(first, d.ground_truth(first))])
        .unwrap();
    assert!(session
        .submit_labels(&[(first, d.ground_truth(first))])
        .is_err());
    assert_eq!(session.labels_used(), 1);
    assert_eq!(session.next_query_batch().len(), 19);

    // Finish the batch: the session flips to Training by itself.
    let rest: Vec<(PairIdx, Label)> = session
        .next_query_batch()
        .into_iter()
        .map(|p| (p, d.ground_truth(p)))
        .collect();
    assert_eq!(
        session.submit_labels(&rest).unwrap(),
        SessionPhase::Training
    );
    assert_eq!(session.labels_used(), 20);

    // Train the seed model; one record appears.
    session.advance().unwrap();
    assert_eq!(session.records().len(), 1);
    assert!(session.matcher().is_some());
    assert_eq!(session.report().iterations.len(), 1);

    // Restoring a snapshot against the wrong dataset is rejected.
    let snapshot = session.snapshot().unwrap();
    let other = generate(
        &DatasetProfile::walmart_amazon().scaled(0.04),
        &mut Rng::seed_from_u64(1),
    )
    .unwrap();
    let other_feats = Featurizer::new(&other, FeatureConfig::default())
        .unwrap()
        .featurize_all(&other)
        .unwrap();
    assert!(MatchSession::restore(&other, &other_feats, &snapshot).is_err());

    // A caller-managed strategy cannot be checkpointed.
    let mut strategy = battleship_em::al::RandomStrategy::new();
    let borrowed = MatchSession::with_strategy(d, feats, &mut strategy, quick_config(), 1).unwrap();
    assert!(borrowed.snapshot().is_err());

    // Malformed snapshots are rejected at restore, not by a later
    // panic: out-of-range labeled or pending-batch pairs, and a version
    // from the future.
    let mut bad = snapshot.clone();
    bad.train[0] = d.len();
    assert!(MatchSession::restore(d, feats, &bad).is_err());
    let mut bad = snapshot.clone();
    bad.version += 1;
    assert!(MatchSession::restore(d, feats, &bad).is_err());
    let mut mid_batch = MatchSession::new(
        d,
        feats,
        SessionConfig {
            experiment: quick_config(),
            strategy: StrategySpec::Random,
            seed: 2,
        },
    )
    .unwrap();
    mid_batch.advance().unwrap();
    let mut bad = mid_batch.snapshot().unwrap();
    bad.pending.as_mut().unwrap().pairs[0] = d.len();
    assert!(MatchSession::restore(d, feats, &bad).is_err());
}

/// A submission is checked whole before any of it applies: a rejected
/// call leaves the batch as it was, so the caller can fix and resubmit.
#[test]
fn a_rejected_submission_applies_nothing() {
    let (d, feats) = task();
    let config = SessionConfig {
        experiment: quick_config(),
        strategy: StrategySpec::Random,
        seed: 3,
    };
    let mut session = MatchSession::new(d, feats, config).unwrap();
    session.advance().unwrap();
    let batch = session.next_query_batch();
    let outside = (0..d.len()).find(|p| !batch.contains(p)).unwrap();
    let first = (batch[0], d.ground_truth(batch[0]));
    for rejected in [
        vec![first, (outside, Label::Match)],
        // The pair occurs once in the batch, so its second label has
        // no open slot.
        vec![first, first],
    ] {
        assert!(session.submit_labels(&rejected).is_err());
        assert_eq!(session.next_query_batch(), batch);
        assert_eq!(session.labels_used(), 0);
    }
    session.submit_labels(&[first]).unwrap();
    assert_eq!(session.next_query_batch(), batch[1..]);
    assert_eq!(session.labels_used(), 1);
}

/// A strategy may select the same pair more than once per batch (each
/// occurrence is one oracle query); the batch must still complete.
#[test]
fn duplicate_pairs_in_a_batch_complete() {
    use battleship_em::api::{Selection, SelectionContext, SelectionStrategy};

    struct DupStrategy;
    impl SelectionStrategy for DupStrategy {
        fn name(&self) -> String {
            "dup".into()
        }
        fn select(
            &mut self,
            ctx: &mut SelectionContext<'_>,
            _rng: &mut Rng,
        ) -> battleship_em::core::Result<Selection> {
            Ok(Selection {
                to_label: vec![ctx.pool[0], ctx.pool[0]],
                weak: Vec::new(),
            })
        }
    }

    let (d, feats) = task();
    let mut config = quick_config();
    config.al.iterations = 1;
    let mut strategy = DupStrategy;
    let mut session = MatchSession::with_strategy(d, feats, &mut strategy, config, 6).unwrap();
    let oracle = PerfectOracle::new();
    let report = session.drive(&oracle).unwrap();
    assert_eq!(report.iterations.len(), 2);
    // Both occurrences were queried and recorded.
    assert_eq!(report.iterations[1].new_labels, 2);
    assert_eq!(oracle.queries(), 20 + 2);
}

/// Satellite: the happy-path CSV scenario — a tiny in-repo
/// Magellan-layout fixture materializes through `Scenario::csv_dir` and
/// supports a full (tiny) session run.
#[test]
fn csv_dir_scenario_happy_path() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/magellan_toy");
    let scenario = Scenario::csv_dir("magellan-toy", dir);
    assert_eq!(scenario.name(), "magellan-toy");
    let art = scenario.materialize().unwrap();
    assert_eq!(art.dataset.name, "magellan-toy");
    assert_eq!(art.dataset.len(), 25);
    assert_eq!(art.dataset.split().train.len(), 16);
    assert_eq!(art.dataset.split().valid.len(), 4);
    assert_eq!(art.dataset.split().test.len(), 5);
    assert_eq!(
        art.dataset.left.schema.attrs(),
        &["title", "manufacturer", "price"]
    );
    assert_eq!(art.features.len(), art.dataset.len());

    // Quoted CSV fields survive loading (RFC-4180 commas).
    let (_, r) = art
        .dataset
        .pair_records(art.dataset.split().test[1])
        .unwrap();
    assert_eq!(r.value(0), Some("final fantasy xi, online pc"));

    // A full (tiny) low-resource session runs to completion on it.
    let mut experiment = ExperimentConfig::low_resource(1, 2);
    experiment.al.seed_size = 6;
    experiment.matcher.epochs = 3;
    let config = SessionConfig {
        experiment,
        strategy: StrategySpec::Random,
        seed: 3,
    };
    let oracle = PerfectOracle::new();
    let mut session = MatchSession::new(&art.dataset, &art.features, config).unwrap();
    let report = session.drive(&oracle).unwrap();
    assert_eq!(report.dataset, "magellan-toy");
    assert_eq!(report.iterations.len(), 2); // seed model + 1 iteration
    assert_eq!(report.total_labels(), 8); // 6 seed + 2 selected
    assert_eq!(oracle.queries(), 8);
    // The balanced seed found its 3 matches and 3 non-matches.
    assert_eq!(report.iterations[0].new_positives, 3);
    for it in &report.iterations {
        assert!(it.test_f1_pct.is_finite());
    }
}

proptest! {
    // Full runs per case — keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: snapshot at ANY batch boundary, in either resting
    /// phase, with or without a half-submitted batch → restore → finish
    /// equals an uninterrupted run bit-for-bit.
    #[test]
    fn snapshot_anywhere_reproduces_uninterrupted_run(
        batch in 0usize..3,
        partial in any::<bool>(),
        after_submit in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (d, feats) = task();
        let config = SessionConfig {
            experiment: quick_config(),
            strategy: StrategySpec::Random,
            seed,
        };
        // `partial` only applies before submission.
        let partial = partial && !after_submit;
        let uninterrupted = drive_interrupted(d, feats, config.clone(), None, false, false).canonical();
        let interrupted = drive_interrupted(
            d,
            feats,
            config,
            Some(batch),
            partial,
            after_submit,
        ).canonical();
        prop_assert_eq!(uninterrupted, interrupted);
    }
}
