//! Summary statistics and the metric tables the benchmark reports.
//!
//! The metric tables are the single source of every name, unit and
//! direction the benchmark prints; a unit test checks them against
//! `BENCHMARK.json` at the repository root.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Better {
    Lower,
    Higher,
}

/// One reported metric: name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics of untraced runs (`--trace 0`), reported on every workload.
pub(crate) const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("run_s", "s"),
    higher("labels_per_s", "1/s"),
    lower("peak_heap_mb", "MB"),
];

/// Metrics of traced runs (`--trace 1`). A workload that never enters
/// a layer reports that layer's metrics as 0.
pub(crate) const PER_LAYER: &[MetricDef] = &[
    lower("setup.generate_s", "s"),
    lower("setup.featurize_s", "s"),
    lower("session.advance_s", "s"),
    lower("session.self_s", "s"),
    higher("session.span_coverage", "share"),
    lower("matcher.train_eval_s", "s"),
    higher("matcher.final_f1_pct", "%"),
    lower("matcher.predict_s", "s"),
    lower("matcher.predict_rows", "count"),
    lower("strategy.battleship.select_s", "s"),
    lower("strategy.dal.select_s", "s"),
    lower("strategy.dial.select_s", "s"),
    lower("strategy.random.select_s", "s"),
    higher("strategy.checked_iterations", "count"),
    lower("spatial.assemble_s", "s"),
    lower("cluster.kselect_s", "s"),
    lower("cluster.kselect_calls", "count"),
    lower("cluster.k_mean", "k"),
    lower("cluster.kmeans_s", "s"),
    lower("cluster.kmeans_ann_calls", "count"),
    lower("cluster.select_share", "share"),
    lower("graph.build_s", "s"),
    lower("graph.edges", "count"),
    lower("graph.components_s", "s"),
    lower("graph.components", "count"),
    lower("select.rank_s", "s"),
    higher("select.positive_yield", "share"),
    lower("weak.select_s", "s"),
    lower("weak.labels", "count"),
    higher("weak.precision", "share"),
    lower("engine.cell_busy_s", "s"),
    lower("engine.max_cell_s", "s"),
    higher("engine.parallel_efficiency", "share"),
    lower("executor.one_core_run_s", "s"),
    higher("executor.inner_speedup", "x"),
    higher("executor.threads", "count"),
    lower("serve.submit_s", "s"),
    lower("serve.checkpoint_s", "s"),
    lower("serve.checkpoints", "count"),
    lower("serve.checkpoint_bytes_mean", "bytes"),
    lower("serve.reload_s", "s"),
    lower("serve.reloads", "count"),
    lower("serve.evictions", "count"),
    lower("serve.advance_s", "s"),
    lower("serve.ack_p50_ms", "ms"),
    lower("serve.ack_p99_ms", "ms"),
    lower("serve.batch_wait_p50_ms", "ms"),
    lower("serve.batch_wait_p90_ms", "ms"),
];

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub(crate) fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub(crate) fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of the samples (mean of the middle two for even counts).
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Samples needed beyond a reported percentile.
pub(crate) const MIN_TAIL: usize = 10;

/// Nearest-rank `p`-quantile (`p` in `(0, 1)`), or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it — a percentile with a thinner
/// tail is not reported.
pub(crate) fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_TAIL {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        // 99 samples leave only 9 beyond the 90th percentile.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        // 1000 samples: the 99th percentile has exactly 10 beyond it.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_and_units_are_validated() {
        for ok in ["setup_s", "cluster.k_mean", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/name",
            "uni©",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "share"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_label", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
    }

    /// The tables here and the contract file must list the same
    /// metrics, units and directions.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |v: &'_ serde::Value, key: &str| -> Option<serde::Value> {
            v.as_object()?
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let text_of = |v: &serde::Value, key: &str| field(v, key)?.as_str().map(str::to_string);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = field(&json, key).expect("metric list");
            let listed = listed.as_array().expect("metric array");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(text_of(entry, "name").as_deref(), Some(def.name), "{key}");
                assert_eq!(
                    text_of(entry, "unit").as_deref(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    text_of(entry, "better").as_deref(),
                    Some(better),
                    "{}",
                    def.name
                );
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
