//! Serving-layer benchmark: N concurrent sessions in one
//! [`SessionStore`] over a single shared artifact set.
//!
//! Three properties of `battleship::serve` are pinned:
//!
//! 1. **Golden**: driving the store with the parallel
//!    `step_ready_sessions` fan-out produces per-session reports
//!    bit-identical (modulo wall-clock) to the same store driven under
//!    `rayon::serial_scope` — per-session determinism survives the
//!    scheduler.
//! 2. **Speedup gate** (thread-aware, like the engine bench): the
//!    parallel fan-out must beat one-core serial stepping by **≥ 2× on
//!    ≥ 4 threads** (≥ 1.1× on 2–3, ≥ 0.9× no-regression on 1).
//! 3. **Checkpoint gate**: checkpointing every session (binary codec →
//!    in-memory backend) after every step round costs **≤ 10 %**
//!    wall-clock over the checkpoint-free drive — persistence must be
//!    cheap enough to run continuously. The golden check above also
//!    runs one full crash-recovery reload (fresh store over the same
//!    backend, `recover()`, finish).
//!
//! Each ratio is the median of alternating pairs, 7 for the speedup and
//! 15 for the overhead, which sits nearer its bound; `BENCH_serve.json`
//! carries them with their quartiles for CI artifacts.
//!
//! Knobs (environment):
//! * `EM_BENCH_SERVE_SCALE` — dataset scale factor (default 0.06);
//! * `EM_BENCH_SERVE_SESSIONS` — concurrent sessions (default 32);
//! * `EM_BENCH_SERVE_OUT` — output JSON path (default `BENCH_serve.json`);
//! * `EM_BENCH_SERVE_MIN_SPEEDUP` — override the thread-aware gate
//!   (set 0 to only report);
//! * `EM_BENCH_SERVE_MAX_CKPT_OVERHEAD_PCT` — override the ≤ 10 %
//!   checkpoint/restore gate (set < 0 to only report);
//! * `RAYON_NUM_THREADS` — worker threads for the fan-out.

use std::sync::Arc;

use battleship::api::{ArtifactCache, MemoryBackend, Scenario, SessionStore, SnapshotCodec};
use battleship::ExperimentConfig;
use em_bench::env_or;
use em_bench::gate::{thread_aware, Gates};
use em_bench::store::{answer_batches, drive_to_done, session_plan, PlannedSession};
use em_bench::timing::paired;
use em_synth::DatasetProfile;

/// Alternating parallel/serial pairs behind the speedup.
const SPEEDUP_PAIRS: usize = 7;
/// Alternating plain/checkpointed pairs behind the overhead.
const CHECKPOINT_PAIRS: usize = 15;

/// Build a fresh store over `backend` and populate it with the session
/// plan.
fn populate(
    backend: Arc<MemoryBackend>,
    cache: Arc<ArtifactCache>,
    scenario: &Scenario,
    config: &ExperimentConfig,
    plan: &[PlannedSession],
) -> SessionStore {
    let store = SessionStore::with_cache(Box::new(backend), SnapshotCodec::Binary, cache);
    em_bench::store::populate(&store, scenario, config, plan);
    store
}

fn main() {
    let scale: f64 = env_or("EM_BENCH_SERVE_SCALE", 0.06);
    let n_sessions: usize = env_or("EM_BENCH_SERVE_SESSIONS", 32);
    let out_path: String = env_or("EM_BENCH_SERVE_OUT", "BENCH_serve.json".to_string());
    let max_ckpt_overhead_pct: f64 = env_or("EM_BENCH_SERVE_MAX_CKPT_OVERHEAD_PCT", 10.0);

    let mut config = ExperimentConfig::low_resource(2, 20);
    config.al.seed_size = 20;
    config.matcher.epochs = 8;
    config.battleship.kselect_sample = 128;

    let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), scale, 0xDA7A);
    let cache = Arc::new(ArtifactCache::new());
    let art = cache
        .get_or_materialize(&scenario)
        .expect("materialize scenario");
    let plan = session_plan("s", 0x5EED, n_sessions);
    eprintln!(
        "[serve] {} sessions over one shared `{}` artifact set ({} pairs), 2 iterations × 20 labels",
        n_sessions,
        scenario.name(),
        art.dataset.len()
    );

    let fresh_store = || {
        populate(
            Arc::new(MemoryBackend::new()),
            cache.clone(),
            &scenario,
            &config,
            &plan,
        )
    };

    // Golden: parallel fan-out ≡ forced-serial stepping, per session.
    eprintln!("[serve] golden check: parallel step_ready_sessions ≡ serial stepping …");
    let parallel_reports = drive_to_done(&fresh_store(), &plan, false);
    let serial_reports = rayon::serial_scope(|| drive_to_done(&fresh_store(), &plan, false));
    for ((id, _, _), (p, s)) in plan
        .iter()
        .zip(parallel_reports.iter().zip(&serial_reports))
    {
        assert_eq!(
            p.canonical(),
            s.canonical(),
            "session `{id}` diverged between parallel and serial stepping"
        );
    }
    eprintln!("[serve] golden check passed");

    // Golden: checkpoint-every-round + crash recovery reproduces the
    // same reports exactly.
    eprintln!("[serve] golden check: checkpoint each round + crash recovery …");
    let backend = Arc::new(MemoryBackend::new());
    let store = populate(backend.clone(), cache.clone(), &scenario, &config, &plan);
    // Interrupt after the first round, recover into a new store, finish.
    answer_batches(&store, &plan);
    store.step_ready_sessions().expect("step");
    store.checkpoint_all().expect("checkpoint all");
    drop(store);
    let recovered = populate_recover(backend, cache.clone(), &scenario);
    let recovered_reports = drive_to_done(&recovered, &plan, true);
    for ((id, _, _), (p, r)) in plan
        .iter()
        .zip(parallel_reports.iter().zip(&recovered_reports))
    {
        assert_eq!(
            p.canonical(),
            r.canonical(),
            "session `{id}` diverged after crash recovery"
        );
    }
    eprintln!("[serve] golden checks passed");

    // Timing: the rayon fan-out against serial stepping pinned to one
    // core, then plain against continuous checkpointing.
    let threads = rayon::current_num_threads();
    let drive =
        |checkpoint_each_round: bool| drive_to_done(&fresh_store(), &plan, checkpoint_each_round);
    eprintln!("[serve] timing parallel vs one-core store stepping ({SPEEDUP_PAIRS} pairs) …");
    let (fanout, _, _) = paired(
        SPEEDUP_PAIRS,
        || drive(false),
        || rayon::serial_scope(|| drive(false)),
    );
    let speedup = fanout.ratio();
    eprintln!(
        "[serve] timing parallel drive, plain vs per-round checkpoint_all \
         ({CHECKPOINT_PAIRS} pairs) …"
    );
    let (checkpointing, _, _) = paired(CHECKPOINT_PAIRS, || drive(false), || drive(true));
    let ckpt_overhead = checkpointing.ratio().overhead_pct();
    let min_speedup: f64 = env_or(
        "EM_BENCH_SERVE_MIN_SPEEDUP",
        thread_aware(threads, 2.0, 1.1, 0.9),
    );
    eprintln!(
        "[serve] speedup: {speedup} with {threads} thread(s) (gate: ≥ {min_speedup}); \
         checkpoint overhead %: {ckpt_overhead} (gate: ≤ {max_ckpt_overhead_pct})"
    );

    let json = format!(
        "{{\n  \"bench\": \"serving layer store\",\n  \"scenario\": \"{}\",\n  \
         \"pairs\": {},\n  \"sessions\": {},\n  \"iterations\": {},\n  \"budget\": {},\n  \
         \"codec\": \"{}\",\n  \"threads\": {threads},\n  \
         \"serial_median_secs\": {:.6},\n  \"parallel_median_secs\": {:.6},\n  \
         \"checkpointed_median_secs\": {:.6},\n  \"speedup\": {},\n  \
         \"min_speedup_gate\": {min_speedup},\n  \"checkpoint_overhead_pct\": {},\n  \
         \"max_checkpoint_overhead_pct_gate\": {max_ckpt_overhead_pct}\n}}\n",
        scenario.name(),
        art.dataset.len(),
        n_sessions,
        config.al.iterations,
        config.al.budget,
        SnapshotCodec::Binary.name(),
        fanout.b_median(),
        checkpointing.a_median(),
        checkpointing.b_median(),
        speedup,
        ckpt_overhead,
    );
    let mut gates = Gates::default();
    gates.at_least("fan-out speedup (×)", speedup.median, min_speedup);
    gates.at_most(
        "checkpoint overhead (%)",
        ckpt_overhead.median,
        max_ckpt_overhead_pct,
    );
    gates.finish("serve", &out_path, &json);
}

/// A new store over an existing backend, recovered from its snapshots.
fn populate_recover(
    backend: Arc<MemoryBackend>,
    cache: Arc<ArtifactCache>,
    scenario: &Scenario,
) -> SessionStore {
    let store = SessionStore::with_cache(Box::new(backend), SnapshotCodec::Binary, cache);
    store.register_scenario(scenario.clone());
    store.recover().expect("recover store");
    store
}
