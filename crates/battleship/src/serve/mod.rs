//! The serving subsystem: many concurrent [`MatchSession`]s behind a
//! keyed store, persisted compactly, sharing dataset artifacts.
//!
//! The paper's protocol (§3.1) puts a human labeler in the loop — a
//! deployment serves many long-lived, latency-tolerant sessions rather
//! than one batch run. PR 4's [`MatchSession`](crate::session) is the
//! per-session state machine; this module is everything *around* it
//! that a label-serving front-end needs:
//!
//! * [`SessionStore`] — sessions keyed by id behind interior
//!   mutability: `create` / `get` / `next_query_batch` /
//!   `submit_labels` / `advance` / `checkpoint` / `evict`, plus
//!   [`SessionStore::step_ready_sessions`] fanning every trainable
//!   session across rayon workers and [`SessionStore::recover`]
//!   reloading the whole store from its backend after a crash —
//!   bit-identically, half-labeled batches included.
//! * [`SnapshotCodec`] — the pluggable wire format: the original JSON
//!   path or the compact checksummed binary frame
//!   ([`SessionSnapshot::to_bytes`](crate::session::SessionSnapshot::to_bytes)),
//!   both restoring bit-identically. A binary store writes the matcher
//!   once per training as its own blob and each checkpoint as a small
//!   frame naming it.
//! * [`SnapshotBackend`] — where encoded snapshots live:
//!   [`MemoryBackend`] or the atomic-rename [`DirBackend`], both keeping
//!   a bounded history of checkpoint *generations* per key so recovery
//!   can fall back past a torn or corrupt newest frame.
//! * [`RetryPolicy`] — bounded exponential backoff with seeded jitter
//!   around every backend call the store issues; transient faults
//!   ([`em_core::EmError::is_transient`]) retry, hard faults surface.
//! * [`FaultyBackend`] — the fault-injection harness: wraps any backend
//!   and, driven by a seeded [`FaultPlan`], injects transient errors,
//!   torn writes, crash-before-commit, silent bit corruption and
//!   latency — the chaos bench and the fault-tolerance tests prove the
//!   store rides all of it out bit-identically.
//!
//! Artifacts are shared, never copied: every session of a scenario
//! holds an `Arc` into one [`DatasetArtifacts`](crate::engine)
//! materialization resolved through the engine's
//! [`ArtifactCache`](crate::engine::ArtifactCache).

mod backend;
mod codec;
mod fault;
mod retry;
mod store;

pub use backend::{DirBackend, MemoryBackend, SnapshotBackend};
pub use codec::SnapshotCodec;
pub use fault::{Fault, FaultPlan, FaultStats, FaultyBackend};
pub use retry::RetryPolicy;
pub use store::{RecoveryReport, SessionStatus, SessionStore};
