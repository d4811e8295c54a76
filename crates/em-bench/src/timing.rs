//! The paired-timing estimator behind every gated ratio of the bench
//! binaries (the kernel bench's min-of-rounds aside).
//!
//! [`paired`] times alternating A/B pairs, the order swapped every pair,
//! and [`Paired::ratio`] takes the median and quartiles of the per-pair
//! ratios: host drift slower than a pair cancels in its ratio, and the
//! swap keeps drift within a pair off one side.

use std::time::{Duration, Instant};

/// The shortest sample: one call, or a faster closure repeated until
/// the sample lasts this long, so clock resolution cannot quantize it.
pub const SAMPLE_FLOOR: Duration = Duration::from_millis(10);

/// Call `f` once and return its value with the elapsed seconds — for
/// the single-shot wall times the benches report but do not gate.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Seconds per call of `f`, repeating it until [`SAMPLE_FLOOR`] passes.
fn sample<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        std::hint::black_box(f());
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= SAMPLE_FLOOR {
            return elapsed.as_secs_f64() / f64::from(calls);
        }
    }
}

/// Time `pairs` alternating pairs of `a` and `b` after one untimed
/// warm-up call of each, whose values come back for the bench to check.
pub fn paired<A, B>(
    pairs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Paired, A, B) {
    let (warm_a, warm_b) = (a(), b());
    let mut timings = Paired {
        a_secs: Vec::with_capacity(pairs),
        b_secs: Vec::with_capacity(pairs),
    };
    for pair in 0..pairs {
        // Even pairs time A first, odd pairs B first.
        if pair % 2 == 1 {
            timings.b_secs.push(sample(&mut b));
        }
        timings.a_secs.push(sample(&mut a));
        if pair % 2 == 0 {
            timings.b_secs.push(sample(&mut b));
        }
    }
    (timings, warm_a, warm_b)
}

/// Per-pair seconds of the two sides of [`paired`]; entry `i` of each
/// was timed in pair `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Paired {
    /// Seconds per call of A, one per pair.
    pub a_secs: Vec<f64>,
    /// Seconds per call of B, one per pair.
    pub b_secs: Vec<f64>,
}

impl Paired {
    /// The per-pair ratios `B / A` — B's speedup when A is the fast
    /// side, `1 +` B's overhead when A is the baseline.
    pub fn ratio(&self) -> Summary {
        let ratios: Vec<f64> = self
            .a_secs
            .iter()
            .zip(&self.b_secs)
            .map(|(a, b)| b / a.max(1e-12))
            .collect();
        Summary::of(&ratios)
    }

    /// Median seconds per call of A, for reporting.
    pub fn a_median(&self) -> f64 {
        Summary::of(&self.a_secs).median
    }

    /// Median seconds per call of B, for reporting.
    pub fn b_median(&self) -> f64 {
        Summary::of(&self.b_secs).median
    }
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Values summarized (pairs, for a ratio).
    pub pairs: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `values`, quantile `p` interpolated at rank `p · (n − 1)`;
    /// an empty sample gives NaN, which fails every gate.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            if sorted.is_empty() {
                return f64::NAN;
            }
            let rank = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        };
        Summary {
            pairs: values.len(),
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
        }
    }

    /// A ratio summary as a percentage overhead, `100 · (r − 1)`.
    pub fn overhead_pct(self) -> Self {
        let pct = |r: f64| 100.0 * (r - 1.0);
        Summary {
            q1: pct(self.q1),
            median: pct(self.median),
            q3: pct(self.q3),
            ..self
        }
    }
}

/// The JSON object the artifacts carry and the benches print.
impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Summary {
            pairs,
            q1,
            median,
            q3,
        } = self;
        write!(
            f,
            r#"{{"median": {median:.3}, "q1": {q1:.3}, "q3": {q3:.3}, "pairs": {pairs}}}"#
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn order_swaps_every_pair_after_one_warm_up_each() {
        // Each call outlasts the sample floor, so every sample is one call.
        let log = RefCell::new(String::new());
        let call = |side: char| {
            log.borrow_mut().push(side);
            std::thread::sleep(SAMPLE_FLOOR);
        };
        let (timings, (), ()) = paired(4, || call('a'), || call('b'));
        // Warm-ups, then pairs 0–3: ab, ba, ab, ba.
        assert_eq!(
            log.into_inner(),
            "ab".to_owned() + "ab" + "ba" + "ab" + "ba"
        );
        assert_eq!((timings.a_secs.len(), timings.b_secs.len()), (4, 4));
        assert!(timings
            .a_secs
            .iter()
            .all(|&s| s >= SAMPLE_FLOOR.as_secs_f64()));
    }

    #[test]
    fn warm_up_values_come_back() {
        let mut n = 0;
        let (_, a, b) = paired(
            1,
            || {
                n += 1;
                n
            },
            || "b",
        );
        assert_eq!((a, b), (1, "b"));
    }

    #[test]
    fn quick_closures_repeat_to_the_floor() {
        let calls = RefCell::new(0u32);
        let secs = sample(&mut || *calls.borrow_mut() += 1);
        assert!(*calls.borrow() > 1);
        assert!(secs * f64::from(*calls.borrow()) >= SAMPLE_FLOOR.as_secs_f64());
    }

    #[test]
    fn median_and_quartiles_for_odd_and_even_counts() {
        let odd = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((odd.pairs, odd.q1, odd.median, odd.q3), (5, 2.0, 3.0, 4.0));
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (even.pairs, even.q1, even.median, even.q3),
            (4, 1.75, 2.5, 3.25)
        );
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert!(Summary::of(&[]).median.is_nan());
    }

    #[test]
    fn ratio_is_b_over_a_per_pair() {
        let timings = Paired {
            a_secs: vec![1.0, 2.0, 4.0],
            b_secs: vec![3.0, 2.0, 2.0],
        };
        let r = timings.ratio();
        assert_eq!((r.q1, r.median, r.q3), (0.75, 1.0, 2.0));
        assert_eq!((timings.a_median(), timings.b_median()), (2.0, 2.0));
        let pct = r.overhead_pct();
        assert_eq!(
            (pct.q1, pct.median, pct.q3, pct.pairs),
            (-25.0, 0.0, 100.0, 3)
        );
    }

    #[test]
    fn a_drift_on_both_sides_of_each_pair_leaves_the_ratio_unchanged() {
        let steady = Paired {
            a_secs: vec![1.0; 6],
            b_secs: vec![1.1, 1.2, 1.05, 1.15, 1.1, 1.3],
        };
        // The host slows by up to 3× over the run, pair by pair.
        let drift = [1.0, 1.4, 1.9, 2.3, 2.8, 3.0];
        let drifting = Paired {
            a_secs: steady
                .a_secs
                .iter()
                .zip(drift)
                .map(|(s, d)| s * d)
                .collect(),
            b_secs: steady
                .b_secs
                .iter()
                .zip(drift)
                .map(|(s, d)| s * d)
                .collect(),
        };
        let (s, d) = (steady.ratio(), drifting.ratio());
        for (x, y) in [(s.q1, d.q1), (s.median, d.median), (s.q3, d.q3)] {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
        // The unpaired medians' ratio does move with it.
        let unpaired = drifting.b_median() / drifting.a_median();
        assert!((unpaired - s.median).abs() > 0.01);
    }
}
