//! Pieces every workload shares: seeds, the measurement loop, the
//! session-stepping loop and output checks.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use battleship::{ExperimentConfig, MatchSession, RunReport, SessionPhase};
use em_core::{Dataset, Label, Oracle, PairIdx, PerfectOracle, Result, Rng};

use crate::stats::median;
use crate::trace::Trace;

/// Command-line options.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Calls into the program during the measured passes.
    pub attempted: u64,
    /// Output checks that failed, with what was seen.
    pub failures: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A 64-bit stream seed derived from the workload seed, one per use.
pub(crate) fn derive(seed: u64, salt: u64) -> u64 {
    Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Run `setup` `reps` times; return the median seconds and the last
/// result.
pub(crate) fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T>,
) -> Result<(f64, T)> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous result first so set-ups never overlap.
        drop(last.take());
        let t = Instant::now();
        let value = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((median(&secs), last.expect("at least one setup ran")))
}

/// One measured pass: the seconds of its timed region and what it
/// produced.
pub(crate) struct Pass<T> {
    pub secs: f64,
    pub value: T,
}

/// Time `f` in wall-clock seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<Pass<T>> {
    let t = Instant::now();
    let value = f()?;
    Ok(Pass {
        secs: t.elapsed().as_secs_f64(),
        value,
    })
}

/// Run `pass` once, then again while one more pass of the last one's
/// length still fits in `seconds` of wall-clock.
pub(crate) fn measure<T>(
    seconds: f64,
    mut pass: impl FnMut() -> Result<Pass<T>>,
) -> Result<Vec<Pass<T>>> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(pass()?);
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return Ok(out);
        }
    }
}

/// Median seconds of the passes.
pub(crate) fn median_secs<T>(passes: &[Pass<T>]) -> f64 {
    median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>())
}

/// How many passes ran and how long each took, for the report.
pub(crate) fn pass_note<T>(passes: &[Pass<T>]) -> String {
    let secs: Vec<String> = passes.iter().map(|p| format!("{:.2} s", p.secs)).collect();
    format!("passes: {} ({})", passes.len(), secs.join(", "))
}

/// A report with its wall-clock fields zeroed, for exact comparison.
pub(crate) fn canonical(mut report: RunReport) -> RunReport {
    for it in &mut report.iterations {
        it.train_secs = 0.0;
        it.select_secs = 0.0;
    }
    report
}

/// What driving one session to `Done` observed.
#[derive(Debug, Default)]
pub(crate) struct DriveLog {
    /// Query batches in emission order (the seed batch first).
    pub batches: Vec<Vec<PairIdx>>,
    /// Calls made into the session.
    pub calls: u64,
}

/// Drive `session` to `Done`, answering each batch from a perfect
/// oracle (as `MatchSession::drive` does). With a trace, each
/// Training-phase `advance()` runs in a `session.advance` span and
/// `after_training` runs after it, outside the span.
pub(crate) fn drive(
    session: &mut MatchSession<'_>,
    dataset: &Dataset,
    trace: Option<&RefCell<Trace>>,
    mut after_training: impl FnMut(&MatchSession<'_>) -> Result<()>,
) -> Result<DriveLog> {
    let oracle = PerfectOracle::new();
    let mut log = DriveLog::default();
    loop {
        let training = session.phase() == SessionPhase::Training;
        let span = trace
            .filter(|_| training)
            .map(|t| t.borrow_mut().begin("session.advance"));
        let phase = session.advance()?;
        log.calls += 1;
        if let (Some(trace), Some(span)) = (trace, span) {
            trace.borrow_mut().end(span);
        }
        if training {
            after_training(session)?;
        }
        match phase {
            SessionPhase::AwaitingLabels => {
                let batch = session.next_query_batch();
                let labels: Vec<(PairIdx, Label)> = batch
                    .iter()
                    .map(|&p| (p, oracle.label(dataset, p)))
                    .collect();
                session.submit_labels(&labels)?;
                log.calls += 2;
                log.batches.push(batch);
            }
            SessionPhase::Done => return Ok(log),
            SessionPhase::SeedDraw | SessionPhase::Training => {}
        }
    }
}

/// Replay the matcher's predict over the rows the last selection saw,
/// outside every span, when a selection just happened.
pub(crate) fn replay_predict(
    session: &MatchSession<'_>,
    features: &em_vector::Embeddings,
    rows: &[PairIdx],
    trace: &RefCell<Trace>,
) -> Result<()> {
    if session.phase() != SessionPhase::AwaitingLabels || rows.is_empty() {
        return Ok(());
    }
    let Some(matcher) = session.matcher() else {
        return Ok(());
    };
    let t = Instant::now();
    let predicted = matcher.predict(features, rows)?;
    let secs = t.elapsed().as_secs_f64();
    let mut tr = trace.borrow_mut();
    tr.add("matcher.predict_s", secs);
    tr.add("matcher.predict_rows", predicted.predictions.len() as f64);
    Ok(())
}

/// The protocol's batch invariants: the seed batch has `seed_size`
/// pairs, every later batch at most `budget`, every pair comes from
/// the pool (the split's train part) and none is queried twice, and
/// the run consumes exactly `seed_size + iterations · budget` labels.
pub(crate) fn check_batches(
    out: &mut Outcome,
    dataset: &Dataset,
    config: &ExperimentConfig,
    log: &DriveLog,
    report: &RunReport,
) {
    let al = &config.al;
    let pool: std::collections::HashSet<PairIdx> = dataset.split().train.iter().copied().collect();
    let mut seen = std::collections::HashSet::new();
    for (i, batch) in log.batches.iter().enumerate() {
        let cap = if i == 0 { al.seed_size } else { al.budget };
        out.check(batch.len() <= cap, || {
            format!("batch {i} has {} > {cap} pairs", batch.len())
        });
        for &p in batch {
            out.check(pool.contains(&p), || {
                format!("batch {i}: pair {p} is not in the pool")
            });
            out.check(seen.insert(p), || {
                format!("batch {i}: pair {p} was queried before")
            });
        }
    }
    let expected = al.seed_size + al.iterations * al.budget;
    let used: usize = log.batches.iter().map(Vec::len).sum();
    out.check(
        used == expected && report.total_labels() == expected,
        || {
            format!(
                "labels used {used} (report {}), expected {expected}",
                report.total_labels()
            )
        },
    );
}

/// Time `em_synth::generate` and the featurizer on their own, and check
/// their output equals the artifacts the scenario materialized.
pub(crate) fn trace_setup(
    out: &mut Outcome,
    profile: &em_synth::DatasetProfile,
    gen_seed: u64,
    artifacts: &battleship::DatasetArtifacts,
) -> Result<()> {
    let t = Instant::now();
    let dataset = em_synth::generate(profile, &mut Rng::seed_from_u64(gen_seed))?;
    out.set("setup.generate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let featurizer = em_matcher::Featurizer::new(&dataset, em_matcher::FeatureConfig::default())?;
    let features = featurizer.featurize_all(&dataset)?;
    out.set("setup.featurize_s", t.elapsed().as_secs_f64());
    out.check(
        dataset.pairs() == artifacts.dataset.pairs()
            && dataset.split() == artifacts.dataset.split()
            && features == artifacts.features,
        || "generate + featurize differs from the materialized scenario".to_string(),
    );
    Ok(())
}
