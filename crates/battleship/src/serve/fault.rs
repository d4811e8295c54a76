//! Deterministic fault injection for the persistence stack.
//!
//! A [`FaultyBackend`] wraps any [`SnapshotBackend`] and injects the
//! failure modes a production store must survive, driven by a seeded,
//! reproducible [`FaultPlan`]:
//!
//! * **transient errors** — the op fails with [`EmError::Transient`]
//!   before touching the inner backend (an interrupted syscall, a
//!   momentary mount hiccup); a bounded retry clears it;
//! * **crash-before-commit** — a `put` fails after doing no visible
//!   work (the crash-between-write-and-rename window of an atomic
//!   backend);
//! * **torn writes** — a `put` persists only a prefix of the frame and
//!   then fails (a crash mid-write on a backend without atomic rename);
//!   the checksummed codec detects the tear at decode time and
//!   generational recovery falls back to the previous frame;
//! * **bit corruption** — a `put` silently persists the frame with one
//!   flipped bit (media rot); detected at decode, recovered
//!   generationally;
//! * **latency** — a bounded sleep before the op (a slow disk), which
//!   must never change any result.
//!
//! Every probabilistic draw comes from a [`Rng`](em_core::Rng) seeded by
//! [`FaultPlan::seed`], so a given op sequence replays the exact same
//! fault sequence — every failure mode is a unit test, not an outage.
//! [`FaultyBackend::force_on_put`] additionally queues a *guaranteed*
//! fault for the next `put` (and [`FaultyBackend::force_on_put_to`] for
//! the next `put` of one key), which is how the chaos bench plants its
//! "at least one torn write and one corrupt frame per run".

use std::collections::VecDeque;
use std::sync::Mutex;

use em_core::{EmError, Result, Rng};

use super::backend::SnapshotBackend;

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the op with [`EmError::Transient`]; inner backend untouched.
    Transient,
    /// `put` only: persist a prefix of the bytes, then fail.
    TornWrite,
    /// `put` only: silently persist the bytes with one bit flipped.
    Corrupt,
    /// `put` only: fail after doing no visible work (the
    /// crash-before-rename window).
    CrashBeforeCommit,
}

/// A seeded, reproducible schedule of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw. Same seed + same op sequence
    /// ⇒ same faults.
    pub seed: u64,
    /// Probability any op fails transiently before executing.
    pub transient_rate: f64,
    /// Probability a `put` persists only a prefix, then fails.
    pub torn_write_rate: f64,
    /// Probability a `put` silently persists one flipped bit.
    pub corrupt_rate: f64,
    /// Probability a `put` fails with no visible work done.
    pub crash_rate: f64,
    /// Probability an op sleeps before executing.
    pub latency_rate: f64,
    /// Upper bound on an injected sleep, in microseconds.
    pub max_latency_micros: u64,
    /// Total injected-fault budget (`None` = unbounded). Latency does
    /// not count against it.
    pub max_faults: Option<usize>,
}

impl FaultPlan {
    /// No faults at all (a transparent wrapper).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            torn_write_rate: 0.0,
            corrupt_rate: 0.0,
            crash_rate: 0.0,
            latency_rate: 0.0,
            max_latency_micros: 0,
            max_faults: None,
        }
    }

    /// Transient failures only, at `rate` — the retry-demo plan.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultPlan {
            transient_rate: rate,
            ..FaultPlan::none(seed)
        }
    }

    /// The chaos-bench mix: ≥5 % transient failures plus torn writes,
    /// silent corruption, crash windows and up to 200 µs latency.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.08,
            torn_write_rate: 0.02,
            corrupt_rate: 0.02,
            crash_rate: 0.02,
            latency_rate: 0.10,
            max_latency_micros: 200,
            max_faults: None,
        }
    }
}

/// Counters of everything a [`FaultyBackend`] injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Backend ops seen (faulted or not).
    pub ops: usize,
    /// Transient failures injected.
    pub transient: usize,
    /// Torn writes injected.
    pub torn_writes: usize,
    /// Silent bit corruptions injected.
    pub corruptions: usize,
    /// Crash-before-commit failures injected.
    pub crashes: usize,
    /// Latency sleeps injected.
    pub delays: usize,
}

impl FaultStats {
    /// Total hard faults injected (latency excluded).
    pub fn total_faults(&self) -> usize {
        self.transient + self.torn_writes + self.corruptions + self.crashes
    }
}

/// Mutable injection state behind one lock.
#[derive(Debug)]
struct FaultState {
    rng: Rng,
    stats: FaultStats,
    /// Guaranteed faults for upcoming `put`s (front first), each for
    /// any key or for one key only, consumed before any probabilistic
    /// draw.
    forced_on_put: VecDeque<(Option<String>, Fault)>,
}

/// A [`SnapshotBackend`] wrapper that injects faults per a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl<B: SnapshotBackend> FaultyBackend<B> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        let state = FaultState {
            rng: Rng::seed_from_u64(plan.seed),
            stats: FaultStats::default(),
            forced_on_put: VecDeque::new(),
        };
        FaultyBackend {
            inner,
            plan,
            state: Mutex::new(state),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The fault plan driving the injections.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.lock_state().stats
    }

    /// Queue a guaranteed fault for an upcoming `put` (FIFO, consumed
    /// one per `put` before any probabilistic draw).
    pub fn force_on_put(&self, fault: Fault) {
        self.lock_state().forced_on_put.push_back((None, fault));
    }

    /// Queue a guaranteed fault for an upcoming `put` of `key` only
    /// (puts of other keys pass it by).
    pub fn force_on_put_to(&self, key: &str, fault: Fault) {
        self.lock_state()
            .forced_on_put
            .push_back((Some(key.to_string()), fault));
    }

    /// The state lock, recovered from poisoning: the state is a plain
    /// value struct every op leaves consistent, so a panic elsewhere
    /// while holding the lock cannot corrupt it.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Budget check + latency injection shared by every op. Returns a
    /// transient error when one should be injected.
    fn pre_op(&self, op: &str) -> Result<()> {
        let mut s = self.lock_state();
        s.stats.ops += 1;
        if self.plan.latency_rate > 0.0 && s.rng.bool(self.plan.latency_rate) {
            let micros = s.rng.below(self.plan.max_latency_micros.max(1) as usize) as u64;
            s.stats.delays += 1;
            drop(s);
            std::thread::sleep(std::time::Duration::from_micros(micros));
            s = self.lock_state();
        }
        let budget_left = self
            .plan
            .max_faults
            .map(|cap| s.stats.total_faults() < cap)
            .unwrap_or(true);
        if budget_left && s.rng.bool(self.plan.transient_rate) {
            s.stats.transient += 1;
            return Err(EmError::Transient(format!(
                "injected transient fault on {op}"
            )));
        }
        Ok(())
    }
}

impl<B: SnapshotBackend> SnapshotBackend for FaultyBackend<B> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        self.pre_op("put")?;
        let fault = {
            let mut s = self.lock_state();
            let budget_left = self
                .plan
                .max_faults
                .map(|cap| s.stats.total_faults() < cap)
                .unwrap_or(true);
            let forced = s
                .forced_on_put
                .iter()
                .position(|(only, _)| only.as_deref().is_none_or(|only| only == key));
            let fault = if let Some(at) = forced {
                s.forced_on_put.remove(at).map(|(_, fault)| fault)
            } else if !budget_left {
                None
            } else if s.rng.bool(self.plan.crash_rate) {
                Some(Fault::CrashBeforeCommit)
            } else if s.rng.bool(self.plan.torn_write_rate) {
                Some(Fault::TornWrite)
            } else if s.rng.bool(self.plan.corrupt_rate) {
                Some(Fault::Corrupt)
            } else {
                None
            };
            match fault {
                Some(Fault::Transient) => s.stats.transient += 1,
                Some(Fault::TornWrite) => s.stats.torn_writes += 1,
                Some(Fault::Corrupt) => s.stats.corruptions += 1,
                Some(Fault::CrashBeforeCommit) => s.stats.crashes += 1,
                None => {}
            }
            fault
        };
        match fault {
            None => self.inner.put(key, bytes),
            Some(Fault::Transient) => {
                Err(EmError::Transient("injected transient fault on put".into()))
            }
            Some(Fault::CrashBeforeCommit) => Err(EmError::Transient(
                "injected crash before commit (no bytes visible)".into(),
            )),
            Some(Fault::TornWrite) => {
                // Persist a strict prefix, then report failure — the torn
                // frame is what recovery will find if no retry lands.
                let cut = {
                    let mut s = self.lock_state();
                    1 + s.rng.below(bytes.len().saturating_sub(1).max(1))
                };
                self.inner.put(key, &bytes[..cut.min(bytes.len())])?;
                Err(EmError::Transient(format!(
                    "injected torn write ({cut} of {} bytes persisted)",
                    bytes.len()
                )))
            }
            Some(Fault::Corrupt) => {
                // Persist with one flipped bit and report success: the
                // corruption is only discoverable at decode time.
                let mut bad = bytes.to_vec();
                if !bad.is_empty() {
                    let (pos, bit) = {
                        let mut s = self.lock_state();
                        (s.rng.below(bad.len()), s.rng.below(8))
                    };
                    bad[pos] ^= 1 << bit;
                }
                self.inner.put(key, &bad)
            }
        }
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.pre_op("get")?;
        self.inner.get(key)
    }

    fn contains(&self, key: &str) -> Result<bool> {
        self.pre_op("contains")?;
        self.inner.contains(key)
    }

    fn remove(&self, key: &str) -> Result<()> {
        self.pre_op("remove")?;
        self.inner.remove(key)
    }

    fn keys(&self) -> Result<Vec<String>> {
        self.pre_op("keys")?;
        self.inner.keys()
    }

    fn history(&self, key: &str) -> Result<Vec<(u64, Vec<u8>)>> {
        self.pre_op("history")?;
        self.inner.history(key)
    }

    fn quarantine(&self, key: &str, generation: u64) -> Result<()> {
        self.pre_op("quarantine")?;
        self.inner.quarantine(key, generation)
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::MemoryBackend;
    use super::*;

    #[test]
    fn no_fault_plan_is_transparent() {
        let b = FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(1));
        b.put("k", b"hello").unwrap();
        assert_eq!(b.get("k").unwrap().unwrap(), b"hello");
        assert_eq!(b.keys().unwrap(), vec!["k"]);
        b.remove("k").unwrap();
        assert_eq!(b.get("k").unwrap(), None);
        assert_eq!(b.stats().total_faults(), 0);
    }

    #[test]
    fn transient_faults_are_reproducible_per_seed() {
        let run = |seed| {
            let b = FaultyBackend::new(MemoryBackend::new(), FaultPlan::transient(seed, 0.3));
            (0..100)
                .map(|i| b.put(&format!("k{i}"), b"x").is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed diverged");
        assert_ne!(run(7), run(8), "different seeds agreed everywhere");
        let b = FaultyBackend::new(MemoryBackend::new(), FaultPlan::transient(7, 0.3));
        let failures = (0..100).filter(|_| b.put("k", b"x").is_err()).count();
        assert!(failures > 10, "rate 0.3 injected only {failures}/100");
        assert!(
            b.stats().transient == failures,
            "stats disagree with observed failures"
        );
    }

    #[test]
    fn forced_torn_write_persists_a_prefix_and_fails() {
        let b = FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(3));
        b.force_on_put(Fault::TornWrite);
        let payload = vec![0xAB; 64];
        let err = b.put("k", &payload).unwrap_err();
        assert!(err.is_transient(), "torn write not transient: {err}");
        let stored = b.inner().get("k").unwrap().unwrap();
        assert!(stored.len() < payload.len(), "nothing was torn");
        assert_eq!(b.stats().torn_writes, 1);
    }

    #[test]
    fn forced_corruption_flips_exactly_one_bit_silently() {
        let b = FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(4));
        b.force_on_put(Fault::Corrupt);
        let payload = vec![0u8; 32];
        b.put("k", &payload).unwrap(); // reports success
        let stored = b.inner().get("k").unwrap().unwrap();
        let flipped: u32 = stored
            .iter()
            .zip(&payload)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "expected exactly one flipped bit");
        assert_eq!(b.stats().corruptions, 1);
    }

    #[test]
    fn a_fault_forced_on_one_key_passes_other_keys_by() {
        let b = FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(6));
        b.force_on_put_to("frame", Fault::CrashBeforeCommit);
        b.put("blob", b"blob").unwrap();
        assert!(b.put("frame", b"frame").is_err());
        b.put("frame", b"frame").unwrap();
        assert_eq!(b.stats().crashes, 1);
    }

    #[test]
    fn crash_before_commit_leaves_no_trace() {
        let b = FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(5));
        b.force_on_put(Fault::CrashBeforeCommit);
        assert!(b.put("k", b"data").is_err());
        assert_eq!(b.inner().get("k").unwrap(), None);
        assert_eq!(b.stats().crashes, 1);
    }

    #[test]
    fn fault_budget_caps_injections() {
        let plan = FaultPlan {
            max_faults: Some(5),
            ..FaultPlan::transient(11, 1.0)
        };
        let b = FaultyBackend::new(MemoryBackend::new(), plan);
        let failures = (0..50).filter(|_| b.put("k", b"x").is_err()).count();
        assert_eq!(failures, 5, "budget not enforced");
        assert_eq!(b.get("k").unwrap().unwrap(), b"x");
    }
}
