//! Session-API benchmark: the step-driven `MatchSession` driver versus
//! the preserved closed protocol loop, on the 2-iteration amazon_google
//! run.
//!
//! The session redesign inverted the engine's inner loop into a state
//! machine (advance / next_query_batch / submit_labels); this bench
//! pins that inversion to being free: the golden check asserts the
//! session-driven run is bit-identical (modulo wall-clock) to the
//! closed loop for every strategy, and the gate bounds the step
//! machinery's wall-clock overhead at **≤ 5 %** on the battleship run
//! (both paths pinned to one core under `rayon::serial_scope`, so the
//! comparison measures the loop plumbing, not scheduler noise).
//! Results are written to `BENCH_session.json` for CI artifacts.
//!
//! Knobs (environment):
//! * `EM_BENCH_SESSION_SCALE` — dataset scale factor (default 0.1);
//! * `EM_BENCH_SESSION_OUT` — output JSON path (default
//!   `BENCH_session.json`);
//! * `EM_BENCH_SESSION_MAX_OVERHEAD_PCT` — override the ≤ 5 % gate
//!   (set < 0 to only report; CI relaxes it to absorb shared-runner
//!   noise on a second-scale workload);
//! * `EM_BENCH_SESSION_SAMPLES` — samples per median (default 5).

use std::io::Write as _;

use battleship::api::{MatchSession, PerfectOracle, SessionConfig};
use battleship::{run_active_learning, run_closed_loop, ExperimentConfig, Scenario, StrategySpec};
use em_bench::env_or;
use em_synth::DatasetProfile;

fn main() {
    let scale: f64 = env_or("EM_BENCH_SESSION_SCALE", 0.1);
    let out_path: String = env_or("EM_BENCH_SESSION_OUT", "BENCH_session.json".to_string());
    let max_overhead_pct: f64 = env_or("EM_BENCH_SESSION_MAX_OVERHEAD_PCT", 5.0);
    let samples: usize = env_or("EM_BENCH_SESSION_SAMPLES", 5);

    let mut config = ExperimentConfig::default();
    config.al.budget = 40;
    config.al.seed_size = 40;
    config.al.weak_budget = 40;
    config.al.iterations = 2;
    config.matcher.epochs = 10;
    config.battleship.kselect_sample = 256;
    let seed = 0x5E55;

    let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), scale, 0xDA7A);
    let art = scenario.materialize().expect("materialize scenario");
    eprintln!(
        "[session] task: {} ({} pairs), 2 iterations × 40 labels",
        scenario.name(),
        art.dataset.len()
    );

    // Golden check: session driver ≡ closed loop, for every strategy.
    eprintln!("[session] golden check: session driver ≡ closed loop …");
    for spec in StrategySpec::all() {
        let closed = run_closed_loop(
            &art.dataset,
            &art.features,
            spec.build().as_mut(),
            &PerfectOracle::new(),
            &config,
            seed,
        )
        .expect("closed run");
        let session = run_active_learning(
            &art.dataset,
            &art.features,
            spec.build().as_mut(),
            &PerfectOracle::new(),
            &config,
            seed,
        )
        .expect("session run");
        assert_eq!(
            closed.canonical(),
            session.canonical(),
            "session diverged from the closed loop for `{}`",
            spec.name()
        );
    }
    eprintln!("[session] golden check passed");

    let closed_run = || {
        run_closed_loop(
            &art.dataset,
            &art.features,
            StrategySpec::Battleship.build().as_mut(),
            &PerfectOracle::new(),
            &config,
            seed,
        )
        .expect("closed run")
    };
    let session_run = || {
        let oracle = PerfectOracle::new();
        let mut session = MatchSession::new(
            &art.dataset,
            &art.features,
            SessionConfig {
                experiment: config.clone(),
                strategy: StrategySpec::Battleship,
                seed,
            },
        )
        .expect("open session");
        session.drive(&oracle).expect("drive session")
    };

    // Timing, both paths pinned to one core for a stable ratio.
    eprintln!("[session] timing closed loop (one core) …");
    let closed = rayon::serial_scope(|| criterion::measure(samples, closed_run));
    eprintln!("[session] closed loop: {:.3} s", closed.median_secs);
    eprintln!("[session] timing session driver (one core) …");
    let session = rayon::serial_scope(|| criterion::measure(samples, session_run));
    eprintln!("[session] session driver: {:.3} s", session.median_secs);

    let overhead_pct = 100.0 * (session.median_secs / closed.median_secs.max(1e-12) - 1.0);
    eprintln!(
        "[session] step-driven overhead: {overhead_pct:+.2}% (gate: ≤ {max_overhead_pct:.1}%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"session API step overhead\",\n  \"scenario\": \"{}\",\n  \
         \"pairs\": {},\n  \"iterations\": {},\n  \"budget\": {},\n  \
         \"closed_loop_median_secs\": {:.6},\n  \"session_median_secs\": {:.6},\n  \
         \"overhead_pct\": {:.3},\n  \"max_overhead_pct_gate\": {max_overhead_pct}\n}}\n",
        scenario.name(),
        art.dataset.len(),
        config.al.iterations,
        config.al.budget,
        closed.median_secs,
        session.median_secs,
        overhead_pct,
    );
    let json = em_bench::with_provenance(&json);
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[session] wrote {out_path}"),
        Err(e) => eprintln!("[session] warning: could not write {out_path}: {e}"),
    }

    if max_overhead_pct >= 0.0 && overhead_pct > max_overhead_pct {
        eprintln!(
            "[session] FAIL: overhead {overhead_pct:.2}% above the {max_overhead_pct:.1}% gate"
        );
        std::process::exit(1);
    }
    eprintln!("[session] PASS");
}
