//! The repository's benchmark: three workloads over the battleship-em
//! workspace, end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table4-dblp|grid-baselines-ag|serve-labelers|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Progress and a human-readable report
//! go to stdout first; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod common;
mod grid;
mod heap;
mod serve;
mod stats;
mod strategies;
mod table4;
mod trace;

use std::process::ExitCode;

use common::{Args, Outcome};
use stats::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use trace::Trace;

const WORKLOADS: [&str; 3] = ["table4-dblp", "grid-baselines-ag", "serve-labelers"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Per-layer metrics of a session-stepping traced run: the
/// Training-phase `advance()` split into the matcher (everything
/// outside the strategy span), the strategy and its stage spans, and
/// the strategy time no stage span covers (`session.self_s`).
pub(crate) fn report_session_trace(out: &mut Outcome, tr: &Trace) {
    let advance = tr.total("session.advance") - tr.total("check.reference");
    let mut select = 0.0;
    let mut self_s = 0.0;
    for (span, metric) in [
        ("strategy.battleship.select", "strategy.battleship.select_s"),
        ("strategy.dal.select", "strategy.dal.select_s"),
        ("strategy.dial.select", "strategy.dial.select_s"),
        ("strategy.random.select", "strategy.random.select_s"),
    ] {
        out.set(metric, tr.total(span));
        select += tr.total(span);
        self_s += tr.self_time(span);
    }
    let train_eval = advance - select;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.set("session.advance_s", advance);
    out.set("session.self_s", self_s);
    out.set("session.span_coverage", ratio(advance - self_s, advance));
    out.set("matcher.train_eval_s", train_eval);
    out.set("matcher.predict_s", tr.counter("matcher.predict_s"));
    out.set("matcher.predict_rows", tr.counter("matcher.predict_rows"));
    out.set(
        "strategy.checked_iterations",
        tr.counter("strategy.checked_iterations"),
    );
    out.set("spatial.assemble_s", tr.total("spatial.assemble"));
    let kselect = tr.total("cluster.kselect");
    let kmeans = tr.total("cluster.kmeans");
    out.set("cluster.kselect_s", kselect);
    out.set("cluster.kselect_calls", tr.counter("cluster.kselect_calls"));
    out.set(
        "cluster.k_mean",
        ratio(
            tr.counter("cluster.k_sum"),
            tr.counter("cluster.kselect_calls"),
        ),
    );
    out.set("cluster.kmeans_s", kmeans);
    out.set(
        "cluster.kmeans_ann_calls",
        tr.counter("cluster.kmeans_ann_calls"),
    );
    out.set(
        "cluster.select_share",
        ratio(kselect + kmeans, tr.total("strategy.battleship.select")),
    );
    out.set("graph.build_s", tr.total("graph.build"));
    out.set("graph.edges", tr.counter("graph.edges"));
    out.set("graph.components_s", tr.total("graph.components"));
    out.set("graph.components", tr.counter("graph.components"));
    out.set("select.rank_s", tr.total("select.rank"));
    out.set(
        "select.positive_yield",
        ratio(
            tr.counter("select.queried_matches"),
            tr.counter("select.queried"),
        ),
    );
    out.set("weak.select_s", tr.total("weak.select"));
    out.set("weak.labels", tr.counter("weak.labels"));
    out.set(
        "weak.precision",
        ratio(tr.counter("weak.correct"), tr.counter("weak.labels")),
    );
}

fn run_workload(name: &str, args: &Args) -> em_core::Result<Outcome> {
    match name {
        "table4-dblp" => table4::run(args),
        "grid-baselines-ag" => grid::run(args),
        _ => serve::run(args),
    }
}

/// Print the human-readable report and the result line; returns
/// whether every check passed.
fn report(name: &str, args: &Args, result: em_core::Result<Outcome>) -> bool {
    let (mut out, error) = match result {
        Ok(out) => (out, None),
        Err(e) => (Outcome::default(), Some(e.to_string())),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let threads = em_bench::Provenance::detect();
        out.set("executor.threads", threads.threads as f64);
        // Layers this workload never enters read 0.
        for m in PER_LAYER {
            out.metrics.entry(m.name).or_insert(0.0);
        }
    }
    let failed = u64::from(error.is_some());
    let mut failures = out.failures.clone();
    failures.extend(error);
    for m in table {
        match out.metrics.get(m.name) {
            Some(v) if v.is_finite() => {}
            _ => failures.push(format!("metric {} missing or not finite", m.name)),
        }
    }
    for key in out.metrics.keys() {
        if !table.iter().any(|m| m.name == *key) {
            failures.push(format!("metric {key} is not declared for this mode"));
        }
    }
    for m in table {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            failures.push(format!("metric {} has an invalid name or unit", m.name));
        }
    }

    println!(
        "== {name} (seed {}, trace {}) ==",
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "provenance: {}",
        em_bench::Provenance::detect().json_fragment()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for m in table {
        let value = out
            .metrics
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let better = match m.better {
            stats::Better::Lower => "lower is better",
            stats::Better::Higher => "higher is better",
        };
        println!("  {:<30} {:>16.6} {:<6} ({better})", m.name, value, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        fields.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        ok &= report(name, &args, run_workload(name, &args));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
