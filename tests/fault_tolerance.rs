//! Fault-tolerance properties of the serve layer: the retry schedule
//! is deterministic and triple-bounded, generational recovery never
//! panics on arbitrary garbage frames (it quarantines and falls back),
//! a store over a fault-injecting backend rides transient faults out
//! without losing a session, and random store op sequences agree with
//! a sequential model of the sessions.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use battleship_em::al::ExperimentConfig;
use battleship_em::api::{
    ArtifactCache, DatasetArtifacts, Fault, FaultPlan, FaultyBackend, Label, MatchSession,
    MemoryBackend, PairIdx, RetryPolicy, SessionConfig, SessionPhase, SessionSnapshot,
    SessionStatus, SessionStore, SnapshotBackend, SnapshotCodec, StrategySpec,
};
use battleship_em::core::EmError;
use common::{drive_stored, scenario};
use proptest::prelude::*;

fn quick_config(strategy: StrategySpec, seed: u64) -> SessionConfig {
    let mut experiment = ExperimentConfig::low_resource(1, 10);
    experiment.al.seed_size = 10;
    experiment.matcher.epochs = 2;
    experiment.battleship.kselect_sample = 128;
    SessionConfig {
        experiment,
        strategy,
        seed,
    }
}

/// One materialization shared by every proptest case — the artifacts
/// are immutable, so every store can borrow the same cache.
fn shared_cache() -> Arc<ArtifactCache> {
    static CACHE: OnceLock<Arc<ArtifactCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(ArtifactCache::new())).clone()
}

/// A valid binary checkpoint frame for a mid-protocol session, built
/// once (proptest cases only need the bytes).
fn good_frame() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let art = shared_cache().get_or_materialize(&scenario()).unwrap();
        let mut session = MatchSession::new(
            &art.dataset,
            &art.features,
            quick_config(StrategySpec::Random, 13),
        )
        .unwrap();
        session.advance().unwrap();
        let pairs = session.next_query_batch();
        let answers: Vec<(PairIdx, Label)> = pairs
            .iter()
            .map(|&p| (p, art.dataset.ground_truth(p)))
            .collect();
        session.submit_labels(&answers).unwrap();
        SnapshotCodec::Binary
            .encode(&session.snapshot().unwrap())
            .unwrap()
    })
}

/// Split proptest-drawn byte values into `n` (possibly empty) frames.
fn split_into_frames(raw: &[usize], n: usize) -> Vec<Vec<u8>> {
    let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
    let per = bytes.len() / n;
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                bytes.len()
            } else {
                (i + 1) * per
            };
            bytes[i * per..end].to_vec()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Satellite: the retry backoff schedule is a pure function of the
    /// policy (same seed ⇒ same schedule, byte for byte) and honours
    /// all three bounds: attempt cap, per-delay cap, total budget.
    #[test]
    fn retry_schedule_is_deterministic_and_triple_bounded(
        seed in any::<u64>(),
        max_attempts in 1usize..16,
        base in 1u64..5_000,
        max_delay in 1u64..50_000,
        budget in 0u64..200_000,
    ) {
        let policy = RetryPolicy {
            max_attempts,
            base_delay_micros: base,
            max_delay_micros: max_delay,
            total_budget_micros: budget,
            jitter_seed: seed,
        };
        let schedule = policy.schedule();
        prop_assert_eq!(&schedule, &policy.schedule(), "schedule not reproducible");
        prop_assert_eq!(
            &schedule,
            &policy.clone().with_seed(seed).schedule(),
            "with_seed(same seed) changed the schedule"
        );
        prop_assert!(schedule.len() < max_attempts, "attempt cap violated");
        prop_assert!(
            schedule.iter().all(|&d| d <= max_delay),
            "per-delay cap violated: {:?}", schedule
        );
        prop_assert!(
            schedule.iter().sum::<u64>() <= budget,
            "total budget violated: {:?} sums past {}", schedule, budget
        );
    }

    /// Satellite: successive delays never shrink by more than the
    /// jitter floor allows — the schedule is monotonically bounded by
    /// the doubling curve from below and above.
    #[test]
    fn retry_schedule_follows_the_capped_doubling_curve(seed in any::<u64>()) {
        let policy = RetryPolicy::default().with_seed(seed);
        let schedule = policy.schedule();
        let mut base = policy.base_delay_micros;
        for (i, &d) in schedule.iter().enumerate() {
            // Jitter scales each delay into [½·base, base].
            prop_assert!(
                d >= base / 2 && d <= base,
                "delay {i} = {d} outside [{}, {base}]", base / 2
            );
            base = base.saturating_mul(2).min(policy.max_delay_micros);
        }
    }

    /// Tentpole property: arbitrary garbage planted as the *newest*
    /// generations of a session's checkpoint history never panics the
    /// store — reload quarantines the garbage and restores from the
    /// good frame underneath, bit-identically.
    #[test]
    fn garbage_newest_generations_are_quarantined_not_fatal(
        n_frames in 1usize..3,
        raw in prop::collection::vec(0usize..256, 0..600),
    ) {
        let garbage = split_into_frames(&raw, n_frames);
        let backend = Arc::new(MemoryBackend::with_keep(8));
        backend.put("s", good_frame()).unwrap();
        for frame in &garbage {
            backend.put("s", frame).unwrap();
        }
        let store = SessionStore::with_cache(
            Box::new(backend.clone()),
            SnapshotCodec::Binary,
            shared_cache(),
        );
        store.register_scenario(scenario());
        let report = store.recover().unwrap();
        // Every garbage frame that fails to decode is quarantined; the
        // session itself must come back from the good frame. (A garbage
        // frame could in principle be a valid empty-ish frame only if
        // the codec accepted it — the magic/checksum make that
        // impossible for random bytes.)
        prop_assert_eq!(&report.recovered, &vec!["s".to_string()]);
        prop_assert_eq!(report.quarantined.len(), garbage.len());
        prop_assert!(report.lost.is_empty());
        let status = store.get("s").unwrap();
        prop_assert_eq!(status.phase, SessionPhase::Training);
    }

    /// Tentpole property: when *every* generation is garbage, recovery
    /// still never panics — the session is reported lost with all its
    /// frames quarantined, and operations on it fail with a structured
    /// error.
    #[test]
    fn all_garbage_histories_are_structured_losses(
        n_frames in 1usize..4,
        raw in prop::collection::vec(0usize..256, 0..600),
    ) {
        let garbage = split_into_frames(&raw, n_frames);
        let backend = Arc::new(MemoryBackend::with_keep(8));
        for frame in &garbage {
            backend.put("junk", frame).unwrap();
        }
        let store = SessionStore::with_cache(
            Box::new(backend.clone()),
            SnapshotCodec::Binary,
            shared_cache(),
        );
        store.register_scenario(scenario());
        let report = store.recover().unwrap();
        prop_assert!(report.recovered.is_empty());
        prop_assert_eq!(&report.lost, &vec!["junk".to_string()]);
        prop_assert_eq!(report.quarantined.len(), garbage.len());
        match store.get("junk") {
            Err(EmError::Storage(msg)) => prop_assert!(msg.contains("lost")),
            other => prop_assert!(false, "expected structured loss, got {:?}", other.map(|_| ())),
        }
    }
}

/// Integration: a store whose backend injects transient faults, torn
/// writes and crash-before-commit still drives a mixed population to
/// completion — the retry policy and generational recovery absorb all
/// of it.
#[test]
fn store_over_faulty_backend_completes_under_transient_chaos() {
    let backend = Arc::new(FaultyBackend::new(
        MemoryBackend::with_keep(8),
        FaultPlan::transient(0x7E57_FA11, 0.25),
    ));
    let store = SessionStore::with_cache(
        Box::new(backend.clone()),
        SnapshotCodec::Binary,
        shared_cache(),
    )
    .with_retry_policy(RetryPolicy {
        base_delay_micros: 10,
        max_delay_micros: 200,
        total_budget_micros: 20_000,
        ..RetryPolicy::default()
    });
    store.register_scenario(scenario());
    for (i, strategy) in StrategySpec::all().iter().enumerate() {
        store
            .create(
                &format!("s{i}"),
                scenario().name(),
                quick_config(*strategy, 40 + i as u64),
            )
            .unwrap();
    }
    // Checkpoint traffic (the faultiest path), one forced torn write,
    // one forced silent corruption, an eviction round-trip — then every
    // session must still finish.
    backend.force_on_put(Fault::TornWrite);
    store.checkpoint_all().unwrap();
    backend.force_on_put(Fault::Corrupt);
    store.checkpoint("s0").unwrap();
    store.evict("s0").unwrap();
    for i in 0..StrategySpec::all().len() {
        drive_stored(&store, &format!("s{i}"));
        assert_eq!(
            store.get(&format!("s{i}")).unwrap().phase,
            SessionPhase::Done
        );
    }
    let stats = backend.stats();
    assert!(stats.transient > 0, "fault plan injected nothing — vacuous");
    assert!(stats.torn_writes >= 1 && stats.corruptions >= 1);
}

// ---- model-based store test ----------------------------------------------

/// The scenario's artifacts, borrowed for `'static` from the shared
/// cache so model sessions can live in the model map.
fn artifacts() -> &'static DatasetArtifacts {
    static ART: OnceLock<Arc<DatasetArtifacts>> = OnceLock::new();
    ART.get_or_init(|| shared_cache().get_or_materialize(&scenario()).unwrap())
}

/// One session as the sequential model sees it: the session driven
/// without the store, plus the last snapshot the store acknowledged
/// persisting (what a crash falls back to).
struct ModelSession {
    session: MatchSession<'static>,
    persisted: Option<SessionSnapshot>,
}

impl ModelSession {
    fn status(&self, id: &str) -> SessionStatus {
        SessionStatus {
            id: id.to_string(),
            scenario: scenario().name().to_string(),
            phase: self.session.phase(),
            labels_used: self.session.labels_used(),
            pool_remaining: self.session.pool_remaining(),
            iterations: self.session.records().len(),
        }
    }

    /// The session as a crash leaves it: its last persisted state, or
    /// nothing when it was never persisted.
    fn after_crash(self) -> Option<ModelSession> {
        let snapshot = self.persisted?;
        let art = artifacts();
        let session = MatchSession::restore(&art.dataset, &art.features, &snapshot).unwrap();
        Some(ModelSession {
            session,
            persisted: Some(snapshot),
        })
    }
}

/// One generated store operation (`kind`, session slot, free argument).
type ModelOp = (u8, u8, u64);

/// A store over `backend` as a restarted process opens it.
fn model_store(backend: &Arc<FaultyBackend<MemoryBackend>>) -> SessionStore {
    let store = SessionStore::with_cache(
        Box::new(backend.clone()),
        SnapshotCodec::Binary,
        shared_cache(),
    )
    .with_retry_policy(RetryPolicy {
        max_attempts: 2,
        base_delay_micros: 1,
        max_delay_micros: 10,
        total_budget_micros: 100,
        ..RetryPolicy::default()
    });
    store.register_scenario(scenario());
    store
}

/// Retry `op` past injected faults (the bounded retry policy lets some
/// surface); any other error is returned.
fn past_faults<T>(mut op: impl FnMut() -> Result<T, EmError>) -> Result<T, EmError> {
    for _ in 0..200 {
        match op() {
            Err(e) if e.is_transient() => continue,
            other => return other,
        }
    }
    panic!("200 consecutive injected faults");
}

/// Compare one store outcome against the model's. A transient error
/// (an injected fault the retry policy gave up on) leaves the store
/// untouched, so the model op is not run; otherwise both must agree.
/// Returns whether the op was applied.
fn agree<T: PartialEq + std::fmt::Debug>(
    what: &str,
    store: Result<T, EmError>,
    model: impl FnOnce() -> Result<T, EmError>,
) -> bool {
    match store {
        Err(e) if e.is_transient() => return false,
        Err(EmError::InvalidConfig(_)) | Ok(_) => {}
        Err(e) => panic!("{what}: unstructured store error {e}"),
    }
    match (store, model()) {
        (Ok(s), Ok(m)) => assert_eq!(s, m, "{what}: store and model disagree"),
        (Err(_), Err(EmError::InvalidConfig(_))) => {}
        (s, m) => panic!(
            "{what}: store gave {:?}, model {:?}",
            s.map(|_| ()),
            m.map(|_| ())
        ),
    }
    true
}

fn unknown(id: &str) -> EmError {
    EmError::InvalidConfig(format!("no session `{id}` in the model"))
}

/// Run `ops` against a store over a faulty in-memory backend and against
/// the sequential model, checking every outcome; then finish every
/// session on both sides and compare the reports.
fn run_store_model(fault_seed: u64, ops: &[ModelOp]) {
    let art = artifacts();
    let backend = Arc::new(FaultyBackend::new(
        MemoryBackend::new(),
        FaultPlan {
            transient_rate: 0.1,
            crash_rate: 0.1,
            ..FaultPlan::none(fault_seed)
        },
    ));
    let mut store = model_store(&backend);
    let mut model: BTreeMap<String, ModelSession> = BTreeMap::new();
    let strategies = [StrategySpec::Random, StrategySpec::Dal];

    for &(kind, slot, arg) in ops {
        let id = format!("m{}", slot % 2);
        let id = id.as_str();
        // Most ops on an absent id open it instead, so sequences make
        // progress; a quarter still probe the unknown-id errors.
        let kind = match kind % 32 {
            1..=27 if !model.contains_key(id) && arg % 4 != 0 => 0,
            k => k,
        };
        match kind {
            0 => {
                let config = quick_config(strategies[(arg % 2) as usize], arg);
                let outcome = store.create(id, scenario().name(), config.clone());
                if model.contains_key(id) {
                    assert!(outcome.is_err(), "create over live `{id}` succeeded");
                } else {
                    match outcome {
                        Ok(()) => {
                            let session =
                                MatchSession::new(&art.dataset, &art.features, config).unwrap();
                            model.insert(
                                id.to_string(),
                                ModelSession {
                                    session,
                                    persisted: None,
                                },
                            );
                        }
                        Err(e) => assert!(e.is_transient(), "create `{id}`: {e}"),
                    }
                }
            }
            1..=12 => {
                // A partial, out-of-order slice of the outstanding batch;
                // with nothing outstanding, a pair that is not in it.
                let labels: Vec<(PairIdx, Label)> = match model.get(id) {
                    Some(m) if !m.session.next_query_batch().is_empty() => {
                        let mut open = m.session.next_query_batch();
                        let n = open.len();
                        open.rotate_left(arg as usize % n);
                        if arg & 1 == 1 {
                            open.reverse();
                        }
                        open.truncate(1 + (arg as usize >> 8) % n);
                        open.iter()
                            .map(|&p| (p, art.dataset.ground_truth(p)))
                            .collect()
                    }
                    _ => vec![(0, Label::Match)],
                };
                agree(
                    "submit_labels",
                    store.submit_labels(id, &labels),
                    || match model.get_mut(id) {
                        Some(m) => m.session.submit_labels(&labels),
                        None => Err(unknown(id)),
                    },
                );
            }
            13..=20 => {
                agree("advance", store.advance(id), || match model.get_mut(id) {
                    Some(m) => m.session.advance(),
                    None => Err(unknown(id)),
                });
            }
            21..=25 => {
                let outcome = store.checkpoint(id).map(|_| ());
                if agree("checkpoint", outcome, || {
                    model.get(id).map(|_| ()).ok_or_else(|| unknown(id))
                }) {
                    if let Some(m) = model.get_mut(id) {
                        m.persisted = Some(m.session.snapshot().unwrap());
                    }
                }
            }
            26 | 27 => {
                if agree("evict", store.evict(id), || {
                    model.get(id).map(|_| ()).ok_or_else(|| unknown(id))
                }) {
                    if let Some(m) = model.get_mut(id) {
                        m.persisted = Some(m.session.snapshot().unwrap());
                    }
                }
            }
            28 => {
                // Crash: drop the store, reopen over the same backend.
                drop(store);
                store = model_store(&backend);
                model = std::mem::take(&mut model)
                    .into_iter()
                    .filter_map(|(id, m)| m.after_crash().map(|m| (id, m)))
                    .collect();
                match store.recover() {
                    Ok(report) => {
                        let persisted: Vec<String> = model.keys().cloned().collect();
                        assert_eq!(report.recovered, persisted);
                        assert!(report.quarantined.is_empty() && report.lost.is_empty());
                    }
                    Err(e) => assert!(e.is_transient(), "recover: {e}"),
                }
            }
            29 => match store.delete(id) {
                Ok(()) => {
                    model.remove(id);
                }
                Err(e) => {
                    // The in-memory session is gone; whether its frames
                    // were removed before the fault is observable only
                    // through the store. Either outcome must match a
                    // legal model state.
                    assert!(e.is_transient(), "delete `{id}`: {e}");
                    let fallback = model.remove(id).and_then(ModelSession::after_crash);
                    match past_faults(|| store.get(id)) {
                        Ok(status) => {
                            let m = fallback.expect("a never-persisted session came back");
                            assert_eq!(status, m.status(id));
                            model.insert(id.to_string(), m);
                        }
                        Err(e) => assert!(matches!(e, EmError::InvalidConfig(_)), "{e}"),
                    }
                }
            },
            _ => {
                let known = model.get(id).ok_or_else(|| unknown(id));
                agree("get", store.get(id), || known.map(|m| m.status(id)));
                let known = model.get(id).ok_or_else(|| unknown(id));
                agree("next_query_batch", store.next_query_batch(id), || {
                    known.map(|m| m.session.next_query_batch())
                });
                let known = model.get(id).ok_or_else(|| unknown(id));
                agree("report", store.report(id).map(|r| r.canonical()), || {
                    known.map(|m| m.session.report().canonical())
                });
            }
        }
    }

    // Finish every session on both sides: the reports must agree.
    for (id, m) in &mut model {
        loop {
            let phase = past_faults(|| store.get(id)).unwrap().phase;
            assert_eq!(phase, m.session.phase(), "`{id}` diverged");
            match phase {
                SessionPhase::Done => break,
                SessionPhase::AwaitingLabels => {
                    let labels: Vec<(PairIdx, Label)> = m
                        .session
                        .next_query_batch()
                        .iter()
                        .map(|&p| (p, art.dataset.ground_truth(p)))
                        .collect();
                    past_faults(|| store.submit_labels(id, &labels)).unwrap();
                    m.session.submit_labels(&labels).unwrap();
                }
                SessionPhase::SeedDraw | SessionPhase::Training => {
                    past_faults(|| store.advance(id)).unwrap();
                    m.session.advance().unwrap();
                }
            }
        }
        assert_eq!(
            past_faults(|| store.report(id)).unwrap().canonical(),
            m.session.report().canonical(),
            "`{id}` finished with a different report"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Model-based: random sequences of create, partial out-of-order
    /// submits, advance, checkpoint, evict, crash + recover and delete
    /// over a backend injecting transient and crash-before-commit
    /// faults never panic, fail only with structured errors, resume
    /// every session from its last persisted state after a crash, and
    /// finish with the reports of a sequential model.
    #[test]
    fn store_agrees_with_a_sequential_model(
        fault_seed in any::<u64>(),
        ops in prop::collection::vec((0u8..32, 0u8..2, any::<u64>()), 30..80),
    ) {
        run_store_model(fault_seed, &ops);
    }
}
