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
//!    wall-clock over the checkpoint-free drive (the median of paired
//!    samples that alternate the two drives) — persistence must be
//!    cheap enough to run continuously. The golden check above also
//!    runs one full crash-recovery reload (fresh store over the same
//!    backend, `recover()`, finish).
//!
//! Results are written to `BENCH_serve.json` for CI artifacts.
//!
//! Knobs (environment):
//! * `EM_BENCH_SERVE_SCALE` — dataset scale factor (default 0.06);
//! * `EM_BENCH_SERVE_SESSIONS` — concurrent sessions (default 32);
//! * `EM_BENCH_SERVE_OUT` — output JSON path (default `BENCH_serve.json`);
//! * `EM_BENCH_SERVE_MIN_SPEEDUP` — override the thread-aware gate
//!   (set 0 to only report);
//! * `EM_BENCH_SERVE_MAX_CKPT_OVERHEAD_PCT` — override the ≤ 10 %
//!   checkpoint/restore gate (set < 0 to only report);
//! * `EM_BENCH_SERVE_SAMPLES` — samples per median, and plain /
//!   checkpointed pairs (default 5);
//! * `RAYON_NUM_THREADS` — worker threads for the fan-out.

use std::io::Write as _;
use std::sync::Arc;

use battleship::api::{
    ArtifactCache, Label, MemoryBackend, PairIdx, RunReport, Scenario, SessionConfig, SessionPhase,
    SessionStore, SnapshotCodec, StrategySpec,
};
use battleship::ExperimentConfig;
use em_bench::env_or;
use em_synth::DatasetProfile;

/// Zero a run's wall-clock fields for equality comparison.
fn strip(mut r: RunReport) -> RunReport {
    for it in &mut r.iterations {
        it.train_secs = 0.0;
        it.select_secs = 0.0;
    }
    r
}

/// Session ids `s00..sNN`, each with a strategy and seed derived from
/// its index (a heterogeneous session population, as a server would see).
fn session_plan(n: usize) -> Vec<(String, StrategySpec, u64)> {
    (0..n)
        .map(|i| {
            (
                format!("s{i:02}"),
                StrategySpec::all()[i % 4],
                0x5EED + i as u64,
            )
        })
        .collect()
}

/// Build a fresh store over `backend` and populate it with the session
/// plan.
fn populate(
    backend: Arc<MemoryBackend>,
    cache: Arc<ArtifactCache>,
    scenario: &Scenario,
    config: &ExperimentConfig,
    plan: &[(String, StrategySpec, u64)],
) -> SessionStore {
    let store = SessionStore::with_cache(Box::new(backend), SnapshotCodec::Binary, cache);
    store.register_scenario(scenario.clone());
    for (id, strategy, seed) in plan {
        store
            .create(
                id,
                scenario.name(),
                SessionConfig {
                    experiment: config.clone(),
                    strategy: *strategy,
                    seed: *seed,
                },
            )
            .expect("create session");
    }
    store
}

/// Answer every outstanding query batch from ground truth.
fn answer_batches(store: &SessionStore, plan: &[(String, StrategySpec, u64)]) {
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

/// Drive every session to `Done` in store-wide rounds:
/// answer all batches, step everything trainable, repeat. Optionally
/// checkpoint the whole store after every step round.
fn drive_store(
    store: &SessionStore,
    plan: &[(String, StrategySpec, u64)],
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

fn main() {
    let scale: f64 = env_or("EM_BENCH_SERVE_SCALE", 0.06);
    let n_sessions: usize = env_or("EM_BENCH_SERVE_SESSIONS", 32);
    let out_path: String = env_or("EM_BENCH_SERVE_OUT", "BENCH_serve.json".to_string());
    let samples: usize = env_or("EM_BENCH_SERVE_SAMPLES", 5).max(1);
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
    let plan = session_plan(n_sessions);
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
    let parallel_reports = drive_store(&fresh_store(), &plan, false);
    let serial_reports = rayon::serial_scope(|| drive_store(&fresh_store(), &plan, false));
    for ((id, _, _), (p, s)) in plan
        .iter()
        .zip(parallel_reports.iter().zip(&serial_reports))
    {
        assert_eq!(
            strip(p.clone()),
            strip(s.clone()),
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
    let recovered_reports = drive_store(&recovered, &plan, true);
    for ((id, _, _), (p, r)) in plan
        .iter()
        .zip(parallel_reports.iter().zip(&recovered_reports))
    {
        assert_eq!(
            strip(p.clone()),
            strip(r.clone()),
            "session `{id}` diverged after crash recovery"
        );
    }
    eprintln!("[serve] golden checks passed");

    // Timing: serial stepping pinned to one core …
    eprintln!("[serve] timing serial store stepping (one core) …");
    let serial = rayon::serial_scope(|| {
        criterion::measure(samples, || drive_store(&fresh_store(), &plan, false))
    });
    eprintln!("[serve] serial stepping: {:.3} s", serial.median_secs);

    // … versus the rayon fan-out, plain and with continuous
    // checkpointing, in alternating pairs (the order swaps every pair)
    // so the host's drift cannot land on one side of the overhead.
    eprintln!("[serve] timing parallel drive, plain vs per-round checkpoint_all (paired) …");
    let time_drive = |checkpoint_each_round: bool| {
        criterion::measure(1, || {
            drive_store(&fresh_store(), &plan, checkpoint_each_round)
        })
        .median_secs
    };
    let mut plain_samples = Vec::with_capacity(samples);
    let mut checkpointed_samples = Vec::with_capacity(samples);
    let mut overheads = Vec::with_capacity(samples);
    for pair in 0..samples {
        let (plain, checkpointed) = if pair % 2 == 0 {
            let plain = time_drive(false);
            (plain, time_drive(true))
        } else {
            let checkpointed = time_drive(true);
            (time_drive(false), checkpointed)
        };
        eprintln!(
            "[serve]   pair {pair}: plain {plain:.3} s, with checkpoints {checkpointed:.3} s"
        );
        overheads.push(100.0 * (checkpointed / plain.max(1e-12) - 1.0));
        plain_samples.push(plain);
        checkpointed_samples.push(checkpointed);
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let parallel_median_secs = median(&mut plain_samples);
    let checkpointed_median_secs = median(&mut checkpointed_samples);
    let ckpt_overhead_pct = median(&mut overheads);
    eprintln!(
        "[serve] parallel stepping: {parallel_median_secs:.3} s; with checkpoints: \
         {checkpointed_median_secs:.3} s"
    );

    let threads = rayon::current_num_threads();
    let speedup = serial.median_secs / parallel_median_secs.max(1e-12);
    let min_speedup: f64 = env_or(
        "EM_BENCH_SERVE_MIN_SPEEDUP",
        if threads >= 4 {
            2.0
        } else if threads >= 2 {
            1.1
        } else {
            0.9
        },
    );
    eprintln!(
        "[serve] speedup: {speedup:.2}× with {threads} thread(s) (gate: ≥ {min_speedup:.1}×); \
         checkpoint overhead: {ckpt_overhead_pct:+.2}% (gate: ≤ {max_ckpt_overhead_pct:.1}%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serving layer store\",\n  \"scenario\": \"{}\",\n  \
         \"pairs\": {},\n  \"sessions\": {},\n  \"iterations\": {},\n  \"budget\": {},\n  \
         \"codec\": \"{}\",\n  \"threads\": {threads},\n  \
         \"serial_median_secs\": {:.6},\n  \"parallel_median_secs\": {:.6},\n  \
         \"checkpointed_median_secs\": {:.6},\n  \"speedup\": {:.3},\n  \
         \"min_speedup_gate\": {min_speedup},\n  \"checkpoint_overhead_pct\": {:.3},\n  \
         \"max_checkpoint_overhead_pct_gate\": {max_ckpt_overhead_pct}\n}}\n",
        scenario.name(),
        art.dataset.len(),
        n_sessions,
        config.al.iterations,
        config.al.budget,
        SnapshotCodec::Binary.name(),
        serial.median_secs,
        parallel_median_secs,
        checkpointed_median_secs,
        speedup,
        ckpt_overhead_pct,
    );
    let json = em_bench::with_provenance(&json);
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[serve] wrote {out_path}"),
        Err(e) => eprintln!("[serve] warning: could not write {out_path}: {e}"),
    }

    let mut failed = false;
    if min_speedup > 0.0 && speedup < min_speedup {
        eprintln!("[serve] FAIL: speedup {speedup:.2}× below the {min_speedup:.1}× gate");
        failed = true;
    }
    if max_ckpt_overhead_pct >= 0.0 && ckpt_overhead_pct > max_ckpt_overhead_pct {
        eprintln!(
            "[serve] FAIL: checkpoint overhead {ckpt_overhead_pct:.2}% above the \
             {max_ckpt_overhead_pct:.1}% gate"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("[serve] PASS");
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
