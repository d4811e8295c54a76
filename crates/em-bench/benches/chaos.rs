//! Chaos benchmark: the serve layer under a seeded fault schedule.
//!
//! N mixed-strategy sessions in one [`SessionStore`] are driven to
//! completion while every backend operation passes through a
//! [`FaultyBackend`] injecting transient errors, torn writes,
//! crash-before-commit, silent bit corruption and latency — plus one
//! full process "crash" (store dropped, fresh store over the same
//! directory, `recover()`) in the middle of the run. Before the crash,
//! a torn write and a silent corruption of a matcher blob and a silent
//! corruption of a session frame are *forced*, so every run exercises
//! the blob read-back and the quarantine-and-fall-back path, not just
//! retry.
//!
//! Gates (all of them, every run):
//!
//! 1. **Completion** — every session reaches `Done`; no fault may cost
//!    a session.
//! 2. **Bit-identity** — the per-session reports equal (modulo
//!    wall-clock) the same population driven with no faults at all:
//!    retry, generational fallback and replay-from-checkpoint are
//!    correctness-invisible.
//! 3. **Fault quota** — the observed transient-failure rate is ≥ 5 % of
//!    backend operations, and at least one torn write and one corrupt
//!    frame were injected (a chaos run that injected nothing proves
//!    nothing).
//! 4. **Recovery evidence** — the mid-run `recover()` actually
//!    quarantined ≥ 1 corrupt frame and restored every session.
//!
//! Results are written to `BENCH_chaos.json` for CI artifacts.
//!
//! Knobs (environment):
//! * `EM_BENCH_CHAOS_SCALE` — dataset scale factor (default 0.05);
//! * `EM_BENCH_CHAOS_SESSIONS` — concurrent sessions (default 12);
//! * `EM_BENCH_CHAOS_SEED` — fault-plan seed (default 0xC4A05);
//! * `EM_BENCH_CHAOS_OUT` — output JSON path (default `BENCH_chaos.json`);
//! * `EM_BENCH_CHAOS_MIN_TRANSIENT_PCT` — override the ≥ 5 % observed
//!   transient-rate gate (set < 0 to only report).

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use battleship::api::{
    ArtifactCache, DirBackend, Fault, FaultPlan, FaultyBackend, MemoryBackend, Scenario,
    SessionConfig, SessionStore, SnapshotCodec,
};
use battleship::ExperimentConfig;
use em_bench::env_or;
use em_bench::store::{answer_batches, drive_to_done, session_plan, PlannedSession};
use em_synth::DatasetProfile;

fn populate(
    store: &SessionStore,
    scenario: &Scenario,
    config: &ExperimentConfig,
    plan: &[PlannedSession],
) {
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
}

fn main() {
    let scale: f64 = env_or("EM_BENCH_CHAOS_SCALE", 0.05);
    let n_sessions: usize = env_or("EM_BENCH_CHAOS_SESSIONS", 12);
    let seed: u64 = env_or("EM_BENCH_CHAOS_SEED", 0xC4A05);
    let out_path: String = env_or("EM_BENCH_CHAOS_OUT", "BENCH_chaos.json".to_string());
    let min_transient_pct: f64 = env_or("EM_BENCH_CHAOS_MIN_TRANSIENT_PCT", 5.0);

    let mut config = ExperimentConfig::low_resource(2, 20);
    config.al.seed_size = 20;
    config.matcher.epochs = 8;
    config.battleship.kselect_sample = 128;

    let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), scale, 0xDA7A);
    let cache = Arc::new(ArtifactCache::new());
    let art = cache
        .get_or_materialize(&scenario)
        .expect("materialize scenario");
    let plan = session_plan("c", 0xC4A0, n_sessions);
    eprintln!(
        "[chaos] {} sessions over `{}` ({} pairs), fault plan seed {seed:#x}",
        n_sessions,
        scenario.name(),
        art.dataset.len()
    );

    // Fault-free reference: same population over a pristine in-memory
    // backend. The chaos run must reproduce these reports exactly.
    eprintln!("[chaos] fault-free reference run …");
    let reference = {
        let store = SessionStore::with_cache(
            Box::new(MemoryBackend::new()),
            SnapshotCodec::Binary,
            cache.clone(),
        );
        populate(&store, &scenario, &config, &plan);
        drive_to_done(&store, &plan, false)
    };

    // Chaos run: directory backend wrapped in the fault injector.
    let dir = std::env::temp_dir().join(format!("em-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = Arc::new(FaultyBackend::new(
        DirBackend::new(&dir).expect("create snapshot dir"),
        FaultPlan::chaos(seed),
    ));
    eprintln!(
        "[chaos] chaos run: transient {:.0}% / torn {:.0}% / corrupt {:.0}% / crash {:.0}% / latency {:.0}% …",
        100.0 * backend.plan().transient_rate,
        100.0 * backend.plan().torn_write_rate,
        100.0 * backend.plan().corrupt_rate,
        100.0 * backend.plan().crash_rate,
        100.0 * backend.plan().latency_rate,
    );
    let started = Instant::now();
    let store = SessionStore::with_cache(
        Box::new(backend.clone()),
        SnapshotCodec::Binary,
        cache.clone(),
    );
    populate(&store, &scenario, &config, &plan);

    // Two rounds with per-round checkpoints. Round 1's first checkpoint
    // put is the matcher blob of `c00`'s fresh training: it is forced
    // torn (fails transiently, leaves a truncated blob, retry rewrites
    // it) and then silently corrupt (the read-back catches it, retry
    // rewrites it). Round 2 checkpoints `c00` once, so its blob is
    // persisted, then forces its next put silently corrupt — that put
    // is a session frame, so the newest frame of `c00` at crash time is
    // garbage and the recovery below MUST fall back a generation.
    for round in 0..2 {
        answer_batches(&store, &plan);
        store.step_ready_sessions().expect("step sessions");
        if round == 0 {
            backend.force_on_put(Fault::TornWrite);
            backend.force_on_put(Fault::Corrupt);
        } else {
            store.checkpoint(&plan[0].0).expect("checkpoint c00");
            backend.force_on_put(Fault::Corrupt);
        }
        store.checkpoint_all().expect("checkpoint all");
    }

    // Process "crash": drop the store mid-run and recover a fresh one
    // over the same directory.
    drop(store);
    eprintln!("[chaos] simulated crash; recovering a fresh store …");
    let store = SessionStore::with_cache(
        Box::new(backend.clone()),
        SnapshotCodec::Binary,
        cache.clone(),
    );
    store.register_scenario(scenario.clone());
    let recovery = store.recover().expect("recover store");
    eprintln!(
        "[chaos] recovered {} session(s), quarantined {} frame(s), lost {}",
        recovery.recovered.len(),
        recovery.quarantined.len(),
        recovery.lost.len()
    );

    // Finish the run under continued fault injection.
    let chaos_reports = drive_to_done(&store, &plan, true);
    let wall_secs = started.elapsed().as_secs_f64();

    let stats = backend.stats();
    // Torn writes and crash-before-commit also surface to the store as
    // `EmError::Transient` (the caller retries them), so the observed
    // transient-failure rate counts all three.
    let transient_failures = stats.transient + stats.torn_writes + stats.crashes;
    let transient_pct = if stats.ops > 0 {
        100.0 * transient_failures as f64 / stats.ops as f64
    } else {
        0.0
    };
    eprintln!(
        "[chaos] {} backend ops: {} transient / {} torn / {} crash-before-commit \
         ({transient_pct:.1}% transient failures), {} corrupt, {} delayed; {wall_secs:.3} s wall",
        stats.ops,
        stats.transient,
        stats.torn_writes,
        stats.crashes,
        stats.corruptions,
        stats.delays
    );

    let mut mismatched = Vec::new();
    for ((id, _, _), (r, c)) in plan.iter().zip(reference.iter().zip(&chaos_reports)) {
        if r.canonical() != c.canonical() {
            mismatched.push(id.clone());
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"serve layer chaos\",\n  \"scenario\": \"{}\",\n  \
         \"pairs\": {},\n  \"sessions\": {},\n  \"fault_seed\": {seed},\n  \
         \"backend_ops\": {},\n  \"transient_faults\": {},\n  \
         \"transient_pct\": {transient_pct:.3},\n  \"torn_writes\": {},\n  \
         \"corruptions\": {},\n  \"crashes_before_commit\": {},\n  \"delays\": {},\n  \
         \"recovered_sessions\": {},\n  \"quarantined_frames\": {},\n  \"lost_sessions\": {},\n  \
         \"report_mismatches\": {},\n  \"wall_secs\": {wall_secs:.6},\n  \
         \"min_transient_pct_gate\": {min_transient_pct}\n}}\n",
        scenario.name(),
        art.dataset.len(),
        n_sessions,
        stats.ops,
        stats.transient,
        stats.torn_writes,
        stats.corruptions,
        stats.crashes,
        stats.delays,
        recovery.recovered.len(),
        recovery.quarantined.len(),
        recovery.lost.len(),
        mismatched.len(),
    );
    let json = em_bench::with_provenance(&json);
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[chaos] wrote {out_path}"),
        Err(e) => eprintln!("[chaos] warning: could not write {out_path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut failed = false;
    if !mismatched.is_empty() {
        eprintln!(
            "[chaos] FAIL: {} session(s) diverged from the fault-free run: {:?}",
            mismatched.len(),
            mismatched
        );
        failed = true;
    }
    if min_transient_pct >= 0.0 && transient_pct < min_transient_pct {
        eprintln!(
            "[chaos] FAIL: observed transient rate {transient_pct:.1}% below the \
             {min_transient_pct:.1}% gate"
        );
        failed = true;
    }
    if stats.torn_writes < 1 || stats.corruptions < 1 {
        eprintln!(
            "[chaos] FAIL: fault quota not met (torn {}, corrupt {}) — need ≥ 1 of each",
            stats.torn_writes, stats.corruptions
        );
        failed = true;
    }
    if recovery.quarantined.is_empty() {
        eprintln!(
            "[chaos] FAIL: recovery quarantined nothing — the corrupt frame was not exercised"
        );
        failed = true;
    }
    if recovery.recovered.len() != n_sessions || !recovery.lost.is_empty() {
        eprintln!(
            "[chaos] FAIL: recovery restored {}/{} sessions ({} lost)",
            recovery.recovered.len(),
            n_sessions,
            recovery.lost.len()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("[chaos] PASS: every session finished bit-identical to the fault-free run");
}
