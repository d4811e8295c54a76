//! Helpers shared by the serve-layer integration tests.

use battleship_em::api::{Label, PairIdx, Scenario, SessionPhase, SessionStore};

/// The shared scenario every test materializes through its store's
/// artifact cache (tiny, so each session finishes in well under a
/// second).
pub fn scenario() -> Scenario {
    Scenario::synthetic_scaled(
        battleship_em::synth::DatasetProfile::amazon_google(),
        0.04,
        5,
    )
}

/// Drive one stored session to completion through the store API,
/// answering batches from ground truth.
pub fn drive_stored(store: &SessionStore, id: &str) {
    loop {
        match store.get(id).unwrap().phase {
            SessionPhase::AwaitingLabels => {
                let batch = store.next_query_batch(id).unwrap();
                let artifacts = store.artifacts(id).unwrap();
                let answers: Vec<(PairIdx, Label)> = batch
                    .iter()
                    .map(|&p| (p, artifacts.dataset.ground_truth(p)))
                    .collect();
                store.submit_labels(id, &answers).unwrap();
            }
            SessionPhase::Done => break,
            SessionPhase::SeedDraw | SessionPhase::Training => {
                store.advance(id).unwrap();
            }
        }
    }
}
