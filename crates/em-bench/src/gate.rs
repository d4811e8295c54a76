//! The gated benches' shared tail: thread-aware bounds, and gates decided
//! after the artifact is written, so a failing run leaves its diagnostic.

use std::io::Write as _;

use crate::Provenance;

/// The bound of a thread-aware gate: `four` with ≥ 4 worker threads,
/// `two` with 2–3 and `one` on one, since fan-out pays only on many cores.
pub fn thread_aware(threads: usize, four: f64, two: f64, one: f64) -> f64 {
    match threads {
        0 | 1 => one,
        2 | 3 => two,
        _ => four,
    }
}

/// The gates of one bench run; [`Gates::finish`] writes the artifact and
/// then fails the process if any gate failed.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// `value ≥ bound`, off when `bound ≤ 0` (report only). A NaN value
    /// fails.
    pub fn at_least(&mut self, what: &str, value: f64, bound: f64) {
        self.require(
            bound <= 0.0 || value >= bound,
            format!("{what} {value:.3} below the ≥ {bound} gate"),
        );
    }

    /// `value ≤ bound`, off when `bound < 0` (report only). A NaN value
    /// fails.
    pub fn at_most(&mut self, what: &str, value: f64, bound: f64) {
        self.require(
            bound < 0.0 || value <= bound,
            format!("{what} {value:.3} above the ≤ {bound} gate"),
        );
    }

    /// A check that must hold, with the message to print when it does not.
    pub fn require(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.failures.push(failure.into());
        }
    }

    /// Write `json` with the host's [`Provenance`] to `out_path`, then
    /// exit 1 if any gate failed, printing as `[bench]`.
    pub fn finish(self, bench: &str, out_path: &str, json: &str) {
        let json = with_provenance(json);
        match std::fs::File::create(out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => eprintln!("[{bench}] wrote {out_path}"),
            Err(e) => eprintln!("[{bench}] warning: could not write {out_path}: {e}"),
        }
        if !self.failures.is_empty() {
            for failure in &self.failures {
                eprintln!("[{bench}] FAIL: {failure}");
            }
            std::process::exit(1);
        }
        eprintln!("[{bench}] PASS");
    }
}

/// Inject the detected [`Provenance`] into a hand-assembled JSON object
/// string, as a `"provenance"` member before the closing brace. Returns
/// the input unchanged if it does not end in an object.
fn with_provenance(json: &str) -> String {
    match json.rfind('}') {
        Some(pos) => {
            let head = json[..pos].trim_end().trim_end_matches(',');
            format!(
                "{head},\n  {}\n{}",
                Provenance::detect().json_fragment(),
                &json[pos..]
            )
        }
        None => json.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_aware_bounds_pick_by_worker_count() {
        let bound = |threads| thread_aware(threads, 2.5, 1.2, 0.9);
        assert_eq!(
            [bound(1), bound(2), bound(3), bound(4)],
            [0.9, 1.2, 1.2, 2.5]
        );
    }

    #[test]
    fn at_least_is_off_at_a_bound_of_zero_or_below() {
        let mut gates = Gates::default();
        gates.at_least("off", 0.5, 0.0);
        gates.at_least("off", 0.5, -1.0);
        gates.at_least("met", 1.0, 1.0);
        assert!(gates.failures.is_empty());
        gates.at_least("missed", 0.99, 1.0);
        gates.at_least("nan", f64::NAN, 1.0);
        assert_eq!(gates.failures.len(), 2);
    }

    #[test]
    fn at_most_is_off_only_below_zero() {
        let mut gates = Gates::default();
        gates.at_most("off", 50.0, -1.0);
        gates.at_most("met", 5.0, 5.0);
        assert!(gates.failures.is_empty());
        gates.at_most("zero bound is on", 0.1, 0.0);
        gates.at_most("nan", f64::NAN, 5.0);
        assert_eq!(gates.failures.len(), 2);
    }

    #[test]
    fn require_records_only_a_failed_check() {
        let mut gates = Gates::default();
        gates.require(true, "held");
        gates.require(false, "broke");
        assert_eq!(gates.failures, ["broke"]);
    }
}
