//! `serve-labelers`: a `SessionStore` over a directory backend with the
//! binary codec and at most 4 resident sessions, holding 16 sessions
//! (battleship and random, alternating) that two closed-loop labeler
//! threads drive to completion, one label per call, checkpointing
//! after every answer.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use battleship::{
    ArtifactCache, DatasetArtifacts, DirBackend, ExperimentConfig, MatchSession, RunReport,
    Scenario, SessionConfig, SessionPhase, SessionStore, SnapshotCodec, StrategySpec,
};
use em_core::{EmError, PerfectOracle, Result};
use em_synth::DatasetProfile;

use crate::common::{
    canonical, derive, measure, median_secs, timed, timed_setup, trace_setup, Args, Outcome, Pass,
};
use crate::stats::percentile;
use crate::trace::Trace;

const SESSIONS: usize = 16;
const LABELERS: usize = 2;
const MAX_RESIDENT: usize = 4;
const SCALE: f64 = 0.25;
/// A set-up takes ~0.12 s, short enough for one slow second of the
/// shared host to move the median of a few; 21 spread it over ~3 s.
const SETUP_REPS: usize = 21;

/// Three iterations keep a pass near 7 s, so a 30 s run times three or
/// four of them; at six a pass took ~15 s and a run timed one or two.
fn config() -> ExperimentConfig {
    let mut c = ExperimentConfig::default();
    c.al.iterations = 3;
    c.al.budget = 40;
    c.al.seed_size = 40;
    c.al.weak_budget = 40;
    c.matcher.epochs = 12;
    c
}

fn session_configs(seed: u64) -> Vec<(String, SessionConfig)> {
    (0..SESSIONS)
        .map(|i| {
            let strategy = if i % 2 == 0 {
                StrategySpec::Battleship
            } else {
                StrategySpec::Random
            };
            let config = SessionConfig {
                experiment: config(),
                strategy,
                seed: derive(seed, 100 + i as u64),
            };
            (format!("s{i:02}"), config)
        })
        .collect()
}

/// A snapshot directory inside the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: usize) -> Result<Self> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| EmError::Storage(format!("{}: {e}", dir.display())))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A fresh store with every session created, on its own directory.
struct Fleet {
    store: SessionStore,
    cache: Arc<ArtifactCache>,
    art: Arc<DatasetArtifacts>,
    ids: Vec<String>,
    _dir: TempDir,
}

/// Open a fleet over `cache`, materializing the scenario into it
/// unless it is already there.
fn open_fleet(
    scenario: &Scenario,
    configs: &[(String, SessionConfig)],
    cache: Arc<ArtifactCache>,
    tag: usize,
) -> Result<Fleet> {
    let dir = TempDir::new(tag)?;
    let art = cache.get_or_materialize(scenario)?;
    let store = SessionStore::with_cache(
        Box::new(DirBackend::new(&dir.0)?),
        SnapshotCodec::Binary,
        cache.clone(),
    )
    .with_max_resident(MAX_RESIDENT);
    store.register_scenario(scenario.clone());
    for (id, config) in configs {
        store.create(id, scenario.name(), config.clone())?;
    }
    Ok(Fleet {
        store,
        cache,
        art,
        ids: configs.iter().map(|(id, _)| id.clone()).collect(),
        _dir: dir,
    })
}

/// What one labeler thread saw.
#[derive(Debug, Default)]
struct LabelerLog {
    /// Seconds of each `submit_labels` + `checkpoint` pair.
    acks: Vec<f64>,
    /// Seconds of each Training-phase `advance()`.
    waits: Vec<f64>,
    calls: u64,
    trace: Trace,
}

/// Ids resident at the last observation, for counting evictions.
type Resident = Mutex<BTreeSet<String>>;

fn observe(store: &SessionStore, last: &Resident, trace: &mut Trace) {
    let mut last = last
        .lock()
        .expect("no labeler panics while holding the resident set");
    let now: BTreeSet<String> = store.resident_ids().into_iter().collect();
    trace.add("serve.evictions", last.difference(&now).count() as f64);
    *last = now;
}

/// Drive `ids` to `Done` in round-robin turns: a turn advances one
/// session, then answers its batch one label at a time, checkpointing
/// after each answer. With `resident`, store calls run in spans and a
/// session missing from memory is reloaded by a timed `get` first.
fn labeler(
    store: &SessionStore,
    art: &DatasetArtifacts,
    ids: &[String],
    resident: Option<&Resident>,
) -> Result<LabelerLog> {
    let mut log = LabelerLog::default();
    let mut training = vec![false; ids.len()];
    let mut active: Vec<usize> = (0..ids.len()).collect();
    while !active.is_empty() {
        let mut next = Vec::with_capacity(active.len());
        for k in active {
            let id = ids[k].as_str();
            if let Some(resident) = resident {
                if !store.resident_ids().iter().any(|r| r == id) {
                    log.trace.time("serve.reload", || store.get(id))?;
                    log.trace.add("serve.reloads", 1.0);
                    log.calls += 1;
                    observe(store, resident, &mut log.trace);
                }
            }
            let span = resident.map(|_| log.trace.begin("serve.advance"));
            let t = Instant::now();
            let phase = store.advance(id)?;
            let secs = t.elapsed().as_secs_f64();
            if let Some(span) = span {
                log.trace.end(span);
            }
            log.calls += 1;
            if training[k] {
                log.waits.push(secs);
            }
            if phase != SessionPhase::AwaitingLabels {
                continue;
            }
            for pair in store.next_query_batch(id)? {
                let answer = [(pair, art.dataset.ground_truth(pair))];
                let t = Instant::now();
                let bytes = match resident {
                    None => {
                        store.submit_labels(id, &answer)?;
                        store.checkpoint(id)?
                    }
                    Some(_) => {
                        log.trace
                            .time("serve.submit", || store.submit_labels(id, &answer))?;
                        log.trace
                            .time("serve.checkpoint", || store.checkpoint(id))?
                    }
                };
                log.acks.push(t.elapsed().as_secs_f64());
                log.calls += 2;
                if let Some(resident) = resident {
                    log.trace.add("serve.checkpoint_bytes", bytes as f64);
                    observe(store, resident, &mut log.trace);
                }
            }
            log.calls += 1;
            training[k] = true;
            next.push(k);
        }
        active = next;
    }
    Ok(log)
}

/// One pass: both labelers drive their half of the fleet. Returns the
/// timed region and the merged logs.
fn drive_fleet(fleet: &Fleet, traced: bool) -> Result<Pass<LabelerLog>> {
    let resident: Resident = Mutex::new(fleet.store.resident_ids().into_iter().collect());
    let resident = traced.then_some(&resident);
    let share = SESSIONS / LABELERS;
    let pass = timed(|| {
        Ok(std::thread::scope(|scope| {
            let handles: Vec<_> = fleet
                .ids
                .chunks(share)
                .map(|ids| scope.spawn(|| labeler(&fleet.store, &fleet.art, ids, resident)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(EmError::Internal("labeler thread panicked".into()))
                    })
                })
                .collect::<Vec<Result<LabelerLog>>>()
        }))
    })?;
    let mut merged = LabelerLog::default();
    for log in pass.value {
        let log = log?;
        merged.acks.extend(log.acks);
        merged.waits.extend(log.waits);
        merged.calls += log.calls;
        merged.trace.merge(log.trace);
    }
    Ok(Pass {
        secs: pass.secs,
        value: merged,
    })
}

/// Every session reached `Done`; returns their canonical reports.
fn finished_reports(out: &mut Outcome, fleet: &Fleet) -> Result<Vec<RunReport>> {
    let mut reports = Vec::with_capacity(fleet.ids.len());
    for id in &fleet.ids {
        let status = fleet.store.get(id)?;
        out.check(status.phase == SessionPhase::Done, || {
            format!("session {id} ended in {:?}", status.phase)
        });
        reports.push(canonical(fleet.store.report(id)?));
    }
    out.attempted += 2 * fleet.ids.len() as u64;
    Ok(reports)
}

/// Each session reports what an in-process `MatchSession::drive` of
/// the same config reports.
fn check_reports(out: &mut Outcome, reports: &[RunReport], expected: &[RunReport]) {
    for (got, want) in reports.iter().zip(expected) {
        out.check(got == want, || {
            format!(
                "{} seed {} differs from its in-process drive",
                got.strategy, got.seed
            )
        });
    }
}

/// Mean final F1 over the sessions.
fn mean_f1(reports: &[RunReport]) -> f64 {
    let f1s: Vec<f64> = reports.iter().filter_map(RunReport::final_f1).collect();
    f1s.iter().sum::<f64>() / f1s.len() as f64
}

/// Canonical reports of each config driven in-process, without the
/// store, split over the labeler count of threads.
fn in_process_reports(
    art: &DatasetArtifacts,
    configs: &[(String, SessionConfig)],
) -> Result<Vec<RunReport>> {
    let share = configs.len().div_ceil(LABELERS);
    let parts: Vec<Result<Vec<RunReport>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .chunks(share)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(_, config)| {
                            let mut session =
                                MatchSession::new(&art.dataset, &art.features, config.clone())?;
                            Ok(canonical(session.drive(&PerfectOracle::new())?))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(EmError::Internal("reference thread panicked".into())))
            })
            .collect()
    });
    let mut all = Vec::with_capacity(configs.len());
    for part in parts {
        all.extend(part?);
    }
    Ok(all)
}

fn ms(p: Option<f64>) -> f64 {
    p.map_or(f64::NAN, |s| s * 1e3)
}

pub(crate) fn run(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let gen_seed = derive(args.seed, 1);
    let profile = DatasetProfile::amazon_google().scaled(SCALE);
    let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), SCALE, gen_seed);
    let configs = session_configs(args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut tag = 0;
    let (setup_s, fleet) = timed_setup(reps, || {
        tag += 1;
        open_fleet(&scenario, &configs, Arc::new(ArtifactCache::new()), tag)
    })?;
    // Later fleets reuse these artifacts, so one copy stays live.
    let cache = fleet.cache.clone();
    let art = fleet.art.clone();
    out.notes.push(format!(
        "{}: {} pairs, {SESSIONS} sessions, {LABELERS} labelers, max resident {MAX_RESIDENT}",
        scenario.name(),
        art.dataset.len()
    ));

    // Untraced passes while they fit, each on a fleet set up outside its
    // timed region. A traced run needs them too: one pass has too few
    // batch waits for their 90th percentile.
    let mut ready = Some(fleet);
    let passes = measure(args.seconds, || {
        let fleet = match ready.take() {
            Some(f) => f,
            None => {
                tag += 1;
                open_fleet(&scenario, &configs, cache.clone(), tag)?
            }
        };
        let pass = drive_fleet(&fleet, false)?;
        let reports = finished_reports(&mut out, &fleet)?;
        Ok(Pass {
            secs: pass.secs,
            value: (pass.value, reports),
        })
    })?;
    // Before the reference drives below add their own peak.
    let peak_heap = crate::heap::peak_mb();
    let expected = in_process_reports(&art, &configs)?;
    let mut acks = Vec::new();
    let mut waits = Vec::new();
    for Pass {
        value: (log, reports),
        ..
    } in &passes
    {
        out.attempted += log.calls;
        acks.extend(&log.acks);
        waits.extend(&log.waits);
        check_reports(&mut out, reports, &expected);
    }
    let ack_p50 = ms(percentile(&acks, 0.5));
    let ack_p99 = ms(percentile(&acks, 0.99));
    let wait_p50 = ms(percentile(&waits, 0.5));
    let wait_p90 = ms(percentile(&waits, 0.9));
    let final_f1 = mean_f1(&expected);
    out.notes.push(format!(
        "acks {} (p50 {ack_p50:.3} ms, p99 {ack_p99:.3} ms), batch waits {} (p50 {wait_p50:.2} ms, p90 {wait_p90:.2} ms), passes {}, mean final F1 {final_f1:.2} %",
        acks.len(),
        waits.len(),
        passes.len()
    ));

    if args.trace {
        trace_setup(&mut out, &profile, gen_seed, &art)?;
        out.set("matcher.final_f1_pct", final_f1);
        out.set("serve.ack_p50_ms", ack_p50);
        out.set("serve.ack_p99_ms", ack_p99);
        out.set("serve.batch_wait_p50_ms", wait_p50);
        out.set("serve.batch_wait_p90_ms", wait_p90);
        // A traced pass: store calls in spans, reloads split out.
        let fleet = open_fleet(&scenario, &configs, cache.clone(), tag + 1)?;
        let log = drive_fleet(&fleet, true)?.value;
        out.attempted += log.calls;
        let traced_reports = finished_reports(&mut out, &fleet)?;
        check_reports(&mut out, &traced_reports, &expected);
        let tr = &log.trace;
        let checkpoints = tr.count("serve.checkpoint") as f64;
        out.set("serve.submit_s", tr.total("serve.submit"));
        out.set("serve.checkpoint_s", tr.total("serve.checkpoint"));
        out.set("serve.checkpoints", checkpoints);
        out.set(
            "serve.checkpoint_bytes_mean",
            tr.counter("serve.checkpoint_bytes") / checkpoints,
        );
        out.set("serve.reload_s", tr.total("serve.reload"));
        out.set("serve.reloads", tr.counter("serve.reloads"));
        out.set("serve.evictions", tr.counter("serve.evictions"));
        out.set("serve.advance_s", tr.total("serve.advance"));
        return Ok(out);
    }

    let run_s = median_secs(&passes);
    out.set("setup_s", setup_s);
    out.set("run_s", run_s);
    out.set("labels_per_s", (acks.len() / passes.len()) as f64 / run_s);
    out.set("peak_heap_mb", peak_heap);
    Ok(out)
}
