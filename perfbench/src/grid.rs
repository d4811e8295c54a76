//! `grid-baselines-ag`: an `ExperimentGrid` of DAL, DIAL and Random ×
//! 2 run seeds on amazon-google at Table 3 size, fanned out over the
//! rayon workers. No spatial code runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use battleship::{
    ArtifactCache, DatasetArtifacts, ExperimentConfig, ExperimentGrid, GridConfig, GridReport,
    MatchSession, Scenario, StrategySpec,
};
use em_bench::Scale;
use em_core::{EmError, Result};
use em_synth::DatasetProfile;

use crate::common::{
    canonical, derive, drive, measure, median_secs, pass_note, replay_predict, timed, timed_setup,
    trace_setup, Args, Outcome, Pass,
};
use crate::strategies::Timed;
use crate::trace::Trace;

const STRATEGIES: [StrategySpec; 3] = [StrategySpec::Dal, StrategySpec::Dial, StrategySpec::Random];
const RUN_SEEDS: usize = 2;
/// Active-learning iterations per cell (the paper's protocol runs 8).
/// One keeps a grid near 3 s on 2 cores, so a 30 s run times about ten
/// of them and their median rides out a slow stretch of the shared
/// host; at 3 iterations a run timed only two grids of ~11 s.
const ITERATIONS: usize = 1;
const SETUP_REPS: usize = 7;

fn config() -> ExperimentConfig {
    let mut c = Scale::Paper.experiment_config();
    c.al.iterations = ITERATIONS;
    c
}

fn profile() -> DatasetProfile {
    DatasetProfile::amazon_google()
}

/// Every run of the grid used the protocol's label count.
fn check_grid(out: &mut Outcome, report: &GridReport) {
    let al = config().al;
    let expected = al.seed_size + al.iterations * al.budget;
    out.check(
        report.cells.len() == STRATEGIES.len() && report.runs.len() == STRATEGIES.len() * RUN_SEEDS,
        || {
            format!(
                "grid has {} cells and {} runs",
                report.cells.len(),
                report.runs.len()
            )
        },
    );
    for run in &report.runs {
        out.check(run.total_labels() == expected, || {
            format!(
                "{} seed {} used {} labels, expected {expected}",
                run.strategy,
                run.seed,
                run.total_labels()
            )
        });
    }
}

/// Mean final F1 over the grid's runs.
fn mean_f1(report: &GridReport) -> f64 {
    let f1s: Vec<f64> = report.runs.iter().filter_map(|r| r.final_f1()).collect();
    f1s.iter().sum::<f64>() / f1s.len() as f64
}

pub(crate) fn run(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let gen_seed = derive(args.seed, 1);
    let scenario = Scenario::synthetic(profile(), gen_seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, cache) = timed_setup(reps, || {
        let cache = ArtifactCache::new();
        cache.get_or_materialize(&scenario)?;
        Ok(cache)
    })?;
    let art = cache.get_or_materialize(&scenario)?;
    let grid = ExperimentGrid::new(
        vec![scenario],
        STRATEGIES.to_vec(),
        GridConfig {
            experiment: config(),
            master_seed: derive(args.seed, 3),
            n_seeds: RUN_SEEDS,
            include_baselines: false,
        },
    );
    out.notes.push(format!(
        "amazon-google: {} pairs, pool {}, {} cells, I = {ITERATIONS}",
        art.dataset.len(),
        art.dataset.split().train.len(),
        STRATEGIES.len() * RUN_SEEDS
    ));

    if args.trace {
        return traced(&mut out, &grid, &cache, &art, gen_seed).map(|()| out);
    }

    // One untimed grid first, so the timed ones start warm; its report
    // is the one every timed grid must equal.
    let first = grid.run_with_cache(&cache)?.canonical();
    let passes = measure(args.seconds, || timed(|| grid.run_with_cache(&cache)))?;
    for Pass { value: report, .. } in &passes {
        check_grid(&mut out, report);
        out.check(report.canonical() == first, || {
            "repeated grids with one seed disagree".to_string()
        });
        out.attempted += report.runs.len() as u64;
    }
    let run_s = median_secs(&passes);
    let labels: usize = first.runs.iter().map(|r| r.total_labels()).sum();
    out.set("setup_s", setup_s);
    out.set("run_s", run_s);
    out.set("labels_per_s", labels as f64 / run_s);
    out.set("peak_heap_mb", crate::heap::peak_mb());
    out.notes.push(format!(
        "{}, mean final F1 {:.2} %",
        pass_note(&passes),
        mean_f1(&first)
    ));
    Ok(out)
}

fn traced(
    out: &mut Outcome,
    grid: &ExperimentGrid,
    cache: &ArtifactCache,
    art: &Arc<DatasetArtifacts>,
    gen_seed: u64,
) -> Result<()> {
    trace_setup(out, &profile(), gen_seed, art)?;
    // A warm-up grid, then the timed one.
    let report = grid.run_with_cache(cache)?;
    let t = Instant::now();
    let timed_report = grid.run_with_cache(cache)?;
    let grid_s = t.elapsed().as_secs_f64();
    for r in [&report, &timed_report] {
        check_grid(out, r);
        out.attempted += r.runs.len() as u64;
    }
    out.check(timed_report.canonical() == report.canonical(), || {
        "repeated grids with one seed disagree".to_string()
    });
    out.set("matcher.final_f1_pct", mean_f1(&report));

    // Each cell again, alone and on one core as inside the grid's
    // workers, through a session stepping a timed strategy; its report
    // must equal the grid's.
    let trace = Rc::new(RefCell::new(Trace::new()));
    let rows = Rc::new(RefCell::new(Vec::new()));
    let mut cell_secs = Vec::new();
    for run in &report.runs {
        let spec = STRATEGIES
            .into_iter()
            .find(|s| s.name() == run.strategy)
            .ok_or_else(|| EmError::Internal(format!("unknown strategy {}", run.strategy)))?;
        let mut strategy = Timed::new(spec.build(), trace.clone(), rows.clone());
        let mut session = MatchSession::with_strategy(
            &art.dataset,
            &art.features,
            &mut strategy,
            config(),
            run.seed,
        )?;
        let replay_before = trace.borrow().counter("matcher.predict_s");
        let t = Instant::now();
        let log = rayon::serial_scope(|| {
            drive(&mut session, &art.dataset, Some(&trace), |s| {
                replay_predict(s, &art.features, &rows.borrow(), &trace)
            })
        })?;
        let replayed = trace.borrow().counter("matcher.predict_s") - replay_before;
        cell_secs.push(t.elapsed().as_secs_f64() - replayed);
        out.attempted += log.calls;
        let alone = canonical(session.into_report());
        out.check(alone == canonical(run.clone()), || {
            format!(
                "{} seed {} re-run alone differs from its grid cell",
                run.strategy, run.seed
            )
        });
    }
    let busy: f64 = cell_secs.iter().sum();
    let threads = em_bench::Provenance::detect().threads as f64;
    out.set("engine.cell_busy_s", busy);
    out.set(
        "engine.max_cell_s",
        cell_secs.iter().copied().fold(0.0, f64::max),
    );
    out.set("engine.parallel_efficiency", busy / (threads * grid_s));
    out.notes.push(format!("grid_s (traced run): {grid_s:.3}"));
    crate::report_session_trace(out, &trace.borrow());
    Ok(())
}
