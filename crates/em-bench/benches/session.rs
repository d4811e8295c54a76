//! Session-API benchmark: how much of a step-driven `MatchSession`
//! drive is spent outside the library's own timed spans, on the
//! 2-iteration amazon_google run.
//!
//! The session inverts the protocol loop into a state machine (advance
//! / next_query_batch / submit_labels). Every drive records its
//! training and selection seconds per iteration
//! (`IterationRecord::{train_secs, select_secs}`); the rest of its wall
//! time is the step plumbing, the seed draw and the oracle. The gate
//! bounds that share, `(wall − Σ train_secs − Σ select_secs) / wall`,
//! at **≤ 5 %** on the battleship run, as the median over 21 drives
//! pinned to one core under `rayon::serial_scope` (so the share measures
//! the loop plumbing, not scheduler noise). Every drive must report the
//! same canonical run. Results, quartiles included, are written to
//! `BENCH_session.json`.
//!
//! Knobs (environment):
//! * `EM_BENCH_SESSION_SCALE` — dataset scale factor (default 0.1);
//! * `EM_BENCH_SESSION_OUT` — output JSON path (default
//!   `BENCH_session.json`);
//! * `EM_BENCH_SESSION_MAX_OVERHEAD_PCT` — override the ≤ 5 % gate
//!   (set < 0 to only report; CI relaxes it to absorb shared-runner
//!   noise on a second-scale workload).

use battleship::api::{MatchSession, PerfectOracle, SessionConfig};
use battleship::{ExperimentConfig, Scenario, StrategySpec};
use em_bench::env_or;
use em_bench::gate::Gates;
use em_bench::timing::{timed, Summary};
use em_synth::DatasetProfile;

/// Timed drives behind the share.
const DRIVES: usize = 21;

fn main() {
    let scale: f64 = env_or("EM_BENCH_SESSION_SCALE", 0.1);
    let out_path: String = env_or("EM_BENCH_SESSION_OUT", "BENCH_session.json".to_string());
    let max_overhead_pct: f64 = env_or("EM_BENCH_SESSION_MAX_OVERHEAD_PCT", 5.0);

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

    let drive = || {
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

    // One core, one untimed warm-up drive, then the timed ones.
    eprintln!("[session] timing {DRIVES} one-core drives …");
    let (warm, drives) = rayon::serial_scope(|| {
        let warm = drive();
        let drives: Vec<_> = (0..DRIVES).map(|_| timed(drive)).collect();
        (warm, drives)
    });
    let golden = warm.canonical();
    let mut walls = Vec::with_capacity(DRIVES);
    let mut shares = Vec::with_capacity(DRIVES);
    for (report, wall) in &drives {
        assert_eq!(
            report.canonical(),
            golden,
            "a drive diverged from the first"
        );
        let spans: f64 = (report.iterations.iter())
            .map(|it| it.train_secs + it.select_secs)
            .sum();
        walls.push(*wall);
        shares.push(100.0 * (wall - spans) / wall);
    }
    let (wall, overhead) = (Summary::of(&walls), Summary::of(&shares));
    eprintln!(
        "[session] drive {:.3} s, outside the train and select spans %: {overhead} \
         (gate: ≤ {max_overhead_pct})",
        wall.median
    );

    let json = format!(
        "{{\n  \"bench\": \"session API step overhead\",\n  \"scenario\": \"{}\",\n  \
         \"pairs\": {},\n  \"iterations\": {},\n  \"budget\": {},\n  \
         \"drive_secs\": {wall},\n  \"outside_spans_pct\": {overhead},\n  \
         \"max_overhead_pct_gate\": {max_overhead_pct}\n}}\n",
        scenario.name(),
        art.dataset.len(),
        config.al.iterations,
        config.al.budget,
    );
    let mut gates = Gates::default();
    gates.at_most("outside-span share (%)", overhead.median, max_overhead_pct);
    gates.finish("session", &out_path, &json);
}
