//! Experiment-engine benchmark: the parallel grid scheduler versus the
//! legacy serial strategy loop, measured on the same 12-run grid
//! (4 strategies × 3 seeds, amazon_google-scaled profile).
//!
//! Before timing, two golden checks pin the engine's correctness
//! contract: every grid cell's run must be identical (modulo wall-clock)
//! to the legacy single-run `run_active_learning` path with the same
//! seed, and the canonical grid report must be bit-identical between the
//! forced-serial scheduler and the default threaded scheduler.
//!
//! The gate compares the engine's full-machine grid fan-out against the
//! serial strategy loop pinned to one core under `rayon::serial_scope`
//! (the same pinning precedent as the matcher bench): one run at a
//! time, no parallelism anywhere — the legacy `compare_strategies`
//! shape on a single core. The gate is thread-aware, since fan-out can only pay on a
//! multi-core host: **≥ 2.5× with ≥ 4 worker threads**, a softer
//! ≥ 1.2× with 2–3 threads, and a ≥ 0.9× no-regression bound on one
//! thread (where parallel ≡ serial and only scheduler overhead could
//! lose time). Results are written to `BENCH_engine.json` for CI
//! artifacts.
//!
//! A second comparison measures the executor itself: the same serial
//! strategy loop with the inner kernels free to use the rayon pool
//! versus pinned to one core. **Inner parallelism must be at least as
//! fast as one core (≥ 1.0×) with ≥ 2 worker threads**. With one thread
//! the two loops are the same code path and there is nothing to gate.
//! Each ratio is the median of alternating pairs against the one-core
//! loop ([`em_bench::timing::paired`]), 5 for the fan-out and 15 for the
//! inner speedup, which sits near its bound; the artifact has quartiles.
//!
//! Knobs (environment):
//! * `EM_BENCH_ENGINE_SCALE` — dataset scale factor (default 0.1);
//! * `EM_BENCH_ENGINE_SEEDS` — seeds per strategy (default 3);
//! * `EM_BENCH_ENGINE_OUT` — output JSON path (default
//!   `BENCH_engine.json`);
//! * `EM_BENCH_ENGINE_MIN_SPEEDUP` — override the thread-aware gate
//!   (set 0 to only report);
//! * `RAYON_NUM_THREADS` — threads of the rayon pool.

use battleship::{
    run_active_learning, ArtifactCache, ExperimentGrid, GridConfig, RunReport, Scenario,
    StrategySpec,
};
use em_bench::env_or;
use em_bench::gate::{thread_aware, Gates};
use em_bench::timing::paired;
use em_core::PerfectOracle;
use em_synth::DatasetProfile;

/// Alternating pairs behind the fan-out speedup.
const FANOUT_PAIRS: usize = 5;
/// Alternating pairs behind the inner speedup, which sits near its bound.
const INNER_PAIRS: usize = 15;

fn main() {
    let scale: f64 = env_or("EM_BENCH_ENGINE_SCALE", 0.1);
    let n_seeds: usize = env_or("EM_BENCH_ENGINE_SEEDS", 3);
    let out_path: String = env_or("EM_BENCH_ENGINE_OUT", "BENCH_engine.json".to_string());

    let mut config = GridConfig {
        master_seed: 0xC41D,
        n_seeds,
        include_baselines: false,
        ..GridConfig::default()
    };
    config.experiment.al.budget = 40;
    config.experiment.al.seed_size = 40;
    config.experiment.al.weak_budget = 40;
    config.experiment.al.iterations = 2;
    config.experiment.matcher.epochs = 10;
    config.experiment.battleship.kselect_sample = 256;

    let strategies = StrategySpec::all().to_vec();
    let grid = ExperimentGrid::new(
        vec![Scenario::synthetic_scaled(
            DatasetProfile::amazon_google(),
            scale,
            0xDA7A,
        )],
        strategies.clone(),
        config.clone(),
    );
    let n_runs = strategies.len() * n_seeds;

    // Shared artifacts: both the serial loop and the engine read the same
    // materialized dataset, so the timing compares schedulers, not
    // featurization.
    let cache = ArtifactCache::new();
    let art = cache
        .get_or_materialize(&grid.scenarios[0])
        .expect("materialize scenario");
    let seeds = config.run_seeds();
    eprintln!(
        "[engine] grid: {} ({} pairs) × {} strategies × {} seeds = {} runs",
        grid.scenarios[0].name(),
        art.dataset.len(),
        strategies.len(),
        n_seeds,
        n_runs
    );

    // The legacy path: one strategy at a time, one seed at a time.
    let serial_loop = || -> Vec<RunReport> {
        let mut runs = Vec::with_capacity(n_runs);
        for &spec in &strategies {
            for &seed in &seeds {
                let oracle = PerfectOracle::new();
                runs.push(
                    run_active_learning(
                        &art.dataset,
                        &art.features,
                        spec.build().as_mut(),
                        &oracle,
                        &config.experiment,
                        seed,
                    )
                    .expect("legacy run"),
                );
            }
        }
        runs
    };

    // Golden check 1: engine cells ≡ legacy single runs, per seed.
    eprintln!("[engine] golden check: grid cells ≡ legacy single-run path …");
    let grid_report = grid.run_with_cache(&cache).expect("grid run");
    let legacy_runs = serial_loop();
    assert_eq!(grid_report.runs.len(), legacy_runs.len());
    for (g, l) in grid_report.runs.iter().zip(&legacy_runs) {
        assert_eq!(
            g.canonical(),
            l.canonical(),
            "engine diverged from legacy for ({}, seed {})",
            g.strategy,
            g.seed
        );
    }

    // Golden check 2: canonical report bit-identical serial vs threaded.
    eprintln!("[engine] golden check: serial scheduler ≡ threaded scheduler …");
    let serial_report = rayon::serial_scope(|| grid.run_with_cache(&cache)).expect("serial grid");
    assert_eq!(
        grid_report.canonical().to_json().expect("json"),
        serial_report.canonical().to_json().expect("json"),
        "grid report depends on worker-thread count"
    );
    eprintln!("[engine] golden checks passed");

    // Timing: the serial strategy loop pinned to one core (the
    // baseline of both ratios — one run at a time, nothing parallel
    // anywhere) against the same loop with the inner kernels on the pool
    // (what the legacy example actually did on a multi-core host), then
    // against the engine's grid fan-out over the same runs.
    let threads = rayon::current_num_threads();
    let one_core_loop = || rayon::serial_scope(serial_loop);
    eprintln!("[engine] timing inner parallel vs one core ({INNER_PAIRS} pairs) …");
    let (inner, _, _) = paired(INNER_PAIRS, &serial_loop, &one_core_loop);
    let inner_speedup = inner.ratio();
    // At one thread both loops are the same code path: nothing to gate.
    let inner_min_speedup = thread_aware(threads, 1.0, 1.0, 0.0);
    eprintln!(
        "[engine] inner parallel vs one core: {inner_speedup} with {threads} thread(s) \
         (gate: ≥ {inner_min_speedup})"
    );

    eprintln!("[engine] timing grid fan-out vs one core ({FANOUT_PAIRS} pairs) …");
    let (fanout, _, _) = paired(
        FANOUT_PAIRS,
        || grid.run_with_cache(&cache).expect("grid run"),
        &one_core_loop,
    );
    let speedup = fanout.ratio();
    let min_speedup: f64 = env_or(
        "EM_BENCH_ENGINE_MIN_SPEEDUP",
        thread_aware(threads, 2.5, 1.2, 0.9),
    );
    eprintln!("[engine] speedup: {speedup} with {threads} thread(s) (gate: ≥ {min_speedup})");

    let battleship_final = grid_report
        .cell(grid.scenarios[0].name(), "battleship")
        .and_then(|c| c.aggregate.final_f1())
        .unwrap_or(f64::NAN);
    let json = format!(
        "{{\n  \"bench\": \"experiment engine grid\",\n  \"scenario\": \"{}\",\n  \
         \"pairs\": {},\n  \"strategies\": {},\n  \"seeds\": {},\n  \"runs\": {},\n  \
         \"iterations\": {},\n  \"budget\": {},\n  \"threads\": {threads},\n  \
         \"serial_one_core_median_secs\": {:.6},\n  \
         \"serial_inner_parallel_median_secs\": {:.6},\n  \"grid_median_secs\": {:.6},\n  \
         \"speedup\": {},\n  \"min_speedup_gate\": {min_speedup},\n  \
         \"inner_parallel_speedup\": {},\n  \
         \"inner_min_speedup_gate\": {inner_min_speedup},\n  \
         \"battleship_final_f1_pct\": {:.3}\n}}\n",
        grid.scenarios[0].name(),
        art.dataset.len(),
        strategies.len(),
        n_seeds,
        n_runs,
        config.experiment.al.iterations,
        config.experiment.al.budget,
        inner.b_median(),
        inner.a_median(),
        fanout.a_median(),
        speedup,
        inner_speedup,
        battleship_final,
    );
    let mut gates = Gates::default();
    gates.at_least("fan-out speedup", speedup.median, min_speedup);
    gates.at_least("inner speedup", inner_speedup.median, inner_min_speedup);
    gates.finish("engine", &out_path, &json);
}
