//! `table4-dblp`: one battleship run (α = 0.5) of the full §4.2
//! protocol (B = 100, I = 8, a balanced seed of 100, weak budget 100,
//! 25 epochs) on the dblp-scholar profile at 0.15 of Table 3 size.
//!
//! At that size pool ∪ train holds 2,583 nodes. The HNSW threshold is
//! lowered to 2048 so the heterogeneous index's constrained K-Means
//! takes the ANN route every round, as it does at Table 3 size (17,223
//! nodes against the default 16,384). The full-size run takes ~65 s on
//! 2 cores and its time swings by half with the seed, because the
//! number of Lloyd rounds until the capacity-bounded assignment settles
//! depends on the data. Eight smaller rounds, and passes that each draw
//! their own run seed, average that out.

use std::cell::RefCell;
use std::rc::Rc;

use battleship::{
    DatasetArtifacts, ExperimentConfig, MatchSession, RunReport, Scenario, SessionConfig,
    StrategySpec,
};
use em_bench::Scale;
use em_core::Result;
use em_synth::DatasetProfile;

use crate::common::{
    canonical, check_batches, derive, drive, measure, median_secs, pass_note, replay_predict,
    timed, timed_setup, trace_setup, Args, DriveLog, Outcome, Pass,
};
use crate::strategies::TracedBattleship;
use crate::trace::Trace;

/// Share of the Table 3 dblp-scholar size the run uses.
const SCALE: f64 = 0.15;
/// HNSW threshold: below pool ∪ train (2,583) so every round's
/// heterogeneous K-Means takes the ANN route.
const ANN_THRESHOLD: usize = 2048;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

fn config() -> ExperimentConfig {
    let mut c = Scale::Paper.experiment_config();
    c.battleship.alpha = 0.5;
    c.battleship.ann_cluster_threshold = ANN_THRESHOLD;
    c
}

fn profile() -> DatasetProfile {
    DatasetProfile::dblp_scholar().scaled(SCALE)
}

/// One run with the library strategy.
fn plain_run(art: &DatasetArtifacts, run_seed: u64) -> Result<Pass<(RunReport, DriveLog)>> {
    let session_config = SessionConfig {
        experiment: config(),
        strategy: StrategySpec::Battleship,
        seed: run_seed,
    };
    let mut session = MatchSession::new(&art.dataset, &art.features, session_config)?;
    let mut pass = timed(|| drive(&mut session, &art.dataset, None, |_| Ok(())))?;
    Ok(Pass {
        secs: pass.secs,
        value: (session.into_report(), std::mem::take(&mut pass.value)),
    })
}

pub(crate) fn run(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let gen_seed = derive(args.seed, 1);
    // Pass k runs with its own seed; the traced run uses the first.
    let run_seed = |k: u64| derive(args.seed, 1000 + k);
    let scenario = Scenario::synthetic_scaled(DatasetProfile::dblp_scholar(), SCALE, gen_seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, art) = timed_setup(reps, || scenario.materialize())?;
    out.notes.push(format!(
        "{}: {} pairs, pool {}, I = {}",
        scenario.name(),
        art.dataset.len(),
        art.dataset.split().train.len(),
        config().al.iterations
    ));

    if args.trace {
        return traced(&mut out, &art, gen_seed, run_seed(0)).map(|()| out);
    }

    let mut k = 0;
    let passes = measure(args.seconds, || {
        k += 1;
        plain_run(&art, run_seed(k - 1))
    })?;
    let mut f1s = Vec::new();
    for Pass {
        value: (report, log),
        ..
    } in &passes
    {
        check_batches(&mut out, &art.dataset, &config(), log, report);
        out.attempted += log.calls;
        f1s.extend(report.final_f1());
    }
    let run_s = median_secs(&passes);
    let labels = passes[0].value.0.total_labels();
    out.set("setup_s", setup_s);
    out.set("run_s", run_s);
    out.set("labels_per_s", labels as f64 / run_s);
    out.set("peak_heap_mb", crate::heap::peak_mb());
    out.notes.push(format!(
        "{}, final F1 {}",
        pass_note(&passes),
        f1s.iter()
            .map(|f| format!("{f:.2} %"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(out)
}

fn traced(out: &mut Outcome, art: &DatasetArtifacts, gen_seed: u64, run_seed: u64) -> Result<()> {
    trace_setup(out, &profile(), gen_seed, art)?;

    // The untraced run, then the same run pinned to one core.
    let Pass {
        secs: run_s,
        value: (report, log),
        ..
    } = plain_run(art, run_seed)?;
    check_batches(out, &art.dataset, &config(), &log, &report);
    let expected = canonical(report);
    out.set(
        "matcher.final_f1_pct",
        expected.final_f1().unwrap_or(f64::NAN),
    );
    let Pass {
        secs: one_core_s,
        value: (serial_report, _),
        ..
    } = rayon::serial_scope(|| plain_run(art, run_seed))?;
    out.check(canonical(serial_report) == expected, || {
        "the one-core run differs from the parallel run".to_string()
    });
    out.set("executor.one_core_run_s", one_core_s);
    out.set("executor.inner_speedup", one_core_s / run_s);
    out.attempted += 2 * log.calls;

    // The traced run: the composed strategy, spans around every stage.
    let trace = Rc::new(RefCell::new(Trace::new()));
    let rows = Rc::new(RefCell::new(Vec::new()));
    let mut strategy = TracedBattleship::new(trace.clone(), rows.clone());
    let mut session = MatchSession::with_strategy(
        &art.dataset,
        &art.features,
        &mut strategy,
        config(),
        run_seed,
    )?;
    let log = drive(&mut session, &art.dataset, Some(&trace), |s| {
        replay_predict(s, &art.features, &rows.borrow(), &trace)
    })?;
    let report = session.into_report();
    check_batches(out, &art.dataset, &config(), &log, &report);
    out.check(canonical(report) == expected, || {
        "the traced run differs from the untraced run".to_string()
    });
    out.attempted += log.calls;

    let tr = trace.borrow();
    let mismatched = tr.counter("strategy.mismatched_iterations");
    out.check(mismatched == 0.0, || {
        format!("composed strategy differed from BattleshipStrategy on {mismatched} iterations")
    });
    crate::report_session_trace(out, &tr);
    Ok(())
}
