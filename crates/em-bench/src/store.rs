//! Store-driving helpers shared by the `serve` and `chaos` benches: a
//! heterogeneous session plan, ground-truth answers for every pending
//! batch, and the store-wide drive to `Done`.

use battleship::api::{Label, PairIdx, RunReport, SessionPhase, SessionStore, StrategySpec};

/// A planned session: its id, strategy and seed.
pub type PlannedSession = (String, StrategySpec, u64);

/// Session ids `{prefix}00..{prefix}NN`, each with a strategy and seed
/// derived from its index (a heterogeneous population, as a server
/// would see): strategies cycle through [`StrategySpec::all`], seeds
/// count up from `seed_base`.
pub fn session_plan(prefix: &str, seed_base: u64, n: usize) -> Vec<PlannedSession> {
    (0..n)
        .map(|i| {
            (
                format!("{prefix}{i:02}"),
                StrategySpec::all()[i % 4],
                seed_base + i as u64,
            )
        })
        .collect()
}

/// Answer every outstanding query batch from ground truth.
pub fn answer_batches(store: &SessionStore, plan: &[PlannedSession]) {
    for (id, _, _) in plan {
        let batch = store.next_query_batch(id).expect("query batch");
        if batch.is_empty() {
            continue;
        }
        let artifacts = store.artifacts(id).expect("artifacts");
        let answers: Vec<(PairIdx, Label)> = batch
            .iter()
            .map(|&p| (p, artifacts.dataset.ground_truth(p)))
            .collect();
        store.submit_labels(id, &answers).expect("submit labels");
    }
}

/// Drive every session to `Done` in store-wide rounds: answer all
/// batches, step everything trainable, repeat. Optionally checkpoint
/// the whole store after every step round. Returns the reports in plan
/// order.
pub fn drive_to_done(
    store: &SessionStore,
    plan: &[PlannedSession],
    checkpoint_each_round: bool,
) -> Vec<RunReport> {
    loop {
        answer_batches(store, plan);
        let stepped = store.step_ready_sessions().expect("step sessions");
        if checkpoint_each_round {
            store.checkpoint_all().expect("checkpoint all");
        }
        if stepped.is_empty() {
            let all_done = plan
                .iter()
                .all(|(id, _, _)| store.get(id).expect("status").phase == SessionPhase::Done);
            assert!(all_done, "store stalled with sessions not Done");
            break;
        }
    }
    plan.iter()
        .map(|(id, _, _)| store.report(id).expect("report"))
        .collect()
}
