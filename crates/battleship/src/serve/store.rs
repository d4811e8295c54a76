//! The keyed session store: many live [`MatchSession`]s over shared
//! dataset artifacts, persisted through a pluggable backend.
//!
//! ```text
//!            create(id, scenario, cfg)        checkpoint(id)
//!                      │                            │
//!                      ▼                            ▼
//!   ┌──────────────────────────────┐   ┌───────────────────────────┐
//!   │  SessionStore                │   │  SnapshotCodec            │
//!   │   sessions: id → SessionCell │──▶│  (json | binary frame     │
//!   │                              │   │   + matcher blob)         │
//!   │   scenarios: name → Scenario │   └────────────┬──────────────┘
//!   │   cache: ArtifactCache       │                ▼
//!   └──────────────┬───────────────┘   ┌───────────────────────────┐
//!                  │ Arc<DatasetArtifacts>  │  RetryPolicy         │
//!                  ▼ (one per scenario,     │  → SnapshotBackend   │
//!   ┌──────────────────────────────┐ shared │  (memory | directory)│
//!   │ MatchSession  MatchSession … │ by every └─────────────────────┘
//!   └──────────────────────────────┘ session of the scenario)
//! ```
//!
//! Design decisions, in order of importance:
//!
//! * **Artifacts are shared, never per-session.** Materializing a
//!   scenario (dataset + featurizer + features) is orders of magnitude
//!   heavier than a session's loop state. The store resolves scenarios
//!   through the engine's [`ArtifactCache`], so a thousand sessions of
//!   one scenario hold a thousand `Arc`s to one allocation.
//! * **A stored session owns what it reads.** Each session holds its
//!   scenario's `Arc` itself and owns its strategy, so it borrows
//!   nothing and is `Send` as it stands; evicting or deleting it drops
//!   its `Arc`, and [`SessionStore::artifacts`] hands out that same
//!   allocation.
//! * **Sessions live behind per-session locks.** The store-level map
//!   lock is held only for lookup/insert/unlink (plus `delete`'s cheap
//!   backend removal, which must be atomic with the unlink); every
//!   operation on a session locks that session alone, so labeling
//!   traffic on different sessions never serializes. The
//!   lookup-then-lock window is closed by a tombstone protocol: a cell
//!   detached by `evict`/`delete` is marked under its own lock, and
//!   any operation that finds the mark retries against the map instead
//!   of mutating the orphan (see [`SessionStore::with_cell`]).
//! * **No lock poisoning is fatal.** A panicking worker must cost at
//!   most its own session, never the store. The map/registry locks are
//!   recovered `into_inner`-style (their maps are consistent after any
//!   single panicked call); a *session* mutex poisoned mid-step means
//!   the session's in-memory state is suspect, so the store discards it
//!   and rebuilds from the last checkpoint — or tombstones the id with
//!   a structured error when no checkpoint exists.
//! * **Backend faults are retried, then surfaced.** Every backend call
//!   goes through the store's [`RetryPolicy`]: transient faults
//!   ([`EmError::is_transient`]) are retried under bounded exponential
//!   backoff with seeded jitter; hard faults surface immediately.
//! * **Checkpoints write only what changed.** Under the binary codec
//!   the matcher, which changes only when `advance` trains, is written
//!   once per training as its own checksummed blob under
//!   `<id>.matcher`, through the same backend (atomic rename, retained
//!   generations, retry and fault injection all apply). Every
//!   checkpoint writes a small frame of loop state that names the blob
//!   by checksum and length. The blob is put before any frame names it,
//!   and `delete` removes the frames before the blob, so a frame never
//!   outlives its blob in a fault-free history. Ids ending in
//!   `.matcher` are not sessions. A JSON store keeps writing
//!   self-contained snapshots.
//! * **A blob is read back before any frame names it.** Every frame of
//!   a training names one blob, so a blob write silently corrupted at
//!   rest would cost every checkpoint until the next training. The put
//!   is verified by reading it back and repeated on a mismatch, within
//!   the retry policy.
//! * **Recovery trusts no single frame.** Reload and [`recover`]
//!   (crash recovery) walk [`SnapshotBackend::history`] newest→oldest,
//!   quarantining frames that fail to decode — or whose blob is missing
//!   or corrupt among the blob key's retained generations (the newest is
//!   read first; the older ones only if it does not resolve) — and
//!   restoring from the newest one that resolves. A torn or corrupt last
//!   checkpoint costs one checkpoint interval, not the session.
//! * **Memory is bounded.** With
//!   [`SessionStore::with_max_resident`], admission past the cap
//!   evicts the least-recently-touched session (checkpoint-then-drop,
//!   so eviction is still never a correctness event).
//! * **Stepping is fanned out.** [`SessionStore::step_ready_sessions`]
//!   advances every session whose next `advance()` does real work
//!   (training or the initial seed draw) across rayon workers. Each
//!   session owns its rng and touches only its own state, so the fan-out
//!   is deterministic per session and the combined outcome is
//!   bit-identical to stepping serially.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rayon::prelude::*;

use em_core::{EmError, Label, PairIdx, Result};
use em_matcher::MatcherSnapshot;

use crate::engine::{ArtifactCache, DatasetArtifacts, Scenario};
use crate::report::RunReport;
use crate::session::{MatchSession, MatcherBlobRef, SessionConfig, SessionPhase, SessionSnapshot};
use crate::strategies::SelectionStrategy;

use super::backend::SnapshotBackend;
use super::codec::SnapshotCodec;
use super::retry::RetryPolicy;

/// One stepped session's outcome: `Ok(Some(_))` advanced, `Ok(None)`
/// skipped (not ready, detached, or poisoned — healed after the pass).
type StepOutcome = Result<Option<(String, SessionPhase)>>;

/// Suffix of the backend key a session's matcher blob lives under.
const MATCHER_BLOB_SUFFIX: &str = ".matcher";

/// The backend key of session `id`'s matcher blob.
fn blob_key(id: &str) -> String {
    format!("{id}{MATCHER_BLOB_SUFFIX}")
}

/// Whether `key` names a matcher blob, which is never a session.
fn is_blob_key(key: &str) -> bool {
    key.ends_with(MATCHER_BLOB_SUFFIX)
}

/// The matcher blobs one reload has read: the blob key's newest
/// generation (`Some(None)` when the key has none), and every retained
/// generation, read only once a frame names a blob the newest is not.
#[derive(Default)]
struct BlobReads {
    newest: Option<Option<Vec<u8>>>,
    retained: Option<Vec<(u64, Vec<u8>)>>,
}

/// Lock with `into_inner` poison recovery, for the store-level maps.
///
/// Safe here because every critical section below mutates its map
/// through single `BTreeMap` calls that either complete or leave the
/// map untouched — a panic elsewhere while holding the lock cannot
/// leave a torn value behind.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A session the store owns, with its store bookkeeping.
struct SessionCell {
    /// The session, which shares its scenario's artifacts through the
    /// cache's `Arc` and owns everything else, so the cell is `Send`.
    session: MatchSession<'static, dyn SelectionStrategy + Send>,
    /// Tombstone, set under the cell lock when `evict`/`delete`
    /// detaches the cell from the map. A caller that cloned the cell's
    /// `Arc` *before* the detach and acquires the lock *after* it must
    /// not mutate this orphaned copy (its state would be silently lost
    /// on the next reload); [`SessionStore::with_cell`] retries against
    /// the map instead.
    detached: bool,
    /// Logical timestamp of the last store operation that touched this
    /// session (drawn from the store's monotone clock) — the LRU key
    /// for admission-control eviction.
    last_touch: u64,
    /// The matcher blob last persisted for this session, with the
    /// session's record count at the time. `advance` assigns a newly
    /// trained matcher right before recording its iteration, so the
    /// record count identifies the training the blob holds.
    blob: Option<(usize, MatcherBlobRef)>,
}

impl SessionCell {
    fn open(artifacts: Arc<DatasetArtifacts>, config: SessionConfig) -> Result<Self> {
        Ok(SessionCell {
            session: MatchSession::shared(artifacts, config)?,
            detached: false,
            last_touch: 0,
            blob: None,
        })
    }

    /// Rebuild a cell from a snapshot; `blob` is the matcher blob the
    /// snapshot's frame named, if any, so the next checkpoint of the
    /// same training does not write it again.
    fn restore(
        artifacts: Arc<DatasetArtifacts>,
        snapshot: &SessionSnapshot,
        blob: Option<MatcherBlobRef>,
    ) -> Result<Self> {
        let session = MatchSession::restore_shared(artifacts, snapshot)?;
        Ok(SessionCell {
            blob: blob.map(|blob| (session.records().len(), blob)),
            session,
            detached: false,
            last_touch: 0,
        })
    }
}

/// An owned status view of one stored session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStatus {
    /// The session's key in the store.
    pub id: String,
    /// The scenario the session runs on.
    pub scenario: String,
    /// Where the session stands in the protocol.
    pub phase: SessionPhase,
    /// Oracle labels consumed so far (partial batches included).
    pub labels_used: usize,
    /// Unlabeled pairs remaining in the pool.
    pub pool_remaining: usize,
    /// Iterations recorded so far (seed model first).
    pub iterations: usize,
}

/// What [`SessionStore::recover`] found in the backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions restored into memory, in key order.
    pub recovered: Vec<String>,
    /// Corrupt frames moved aside as `(session id, generation)` —
    /// recovery fell back past each of these to an older checkpoint.
    pub quarantined: Vec<(String, u64)>,
    /// Sessions whose *every* persisted frame was corrupt: nothing to
    /// restore from. Their frames are quarantined for post-mortem and
    /// the ids report structured errors until recreated or deleted.
    pub lost: Vec<String>,
}

/// Outcome of one backend reload attempt (internal).
enum Reload {
    /// The live (or just-installed) cell.
    Loaded(Arc<Mutex<SessionCell>>),
    /// The backend holds no frames for this key.
    Missing,
    /// Every persisted frame failed to decode (all quarantined).
    AllCorrupt(usize),
}

/// A keyed store of live [`MatchSession`]s over shared artifacts.
///
/// See the [module docs](self) for the data-flow picture. All methods
/// take `&self`: the store is interior-mutable and safe to share
/// (`Arc<SessionStore>`) across request handlers.
pub struct SessionStore {
    backend: Box<dyn SnapshotBackend>,
    codec: SnapshotCodec,
    retry: RetryPolicy,
    max_resident: Option<usize>,
    cache: Arc<ArtifactCache>,
    scenarios: Mutex<BTreeMap<String, Scenario>>,
    sessions: Mutex<BTreeMap<String, Arc<Mutex<SessionCell>>>>,
    /// Sessions tombstoned with a structured reason (poisoned with no
    /// checkpoint, all frames corrupt): operations on these ids fail
    /// fast with the reason instead of "unknown id".
    lost: Mutex<BTreeMap<String, String>>,
    /// Monotone logical clock stamping `SessionCell::last_touch`.
    clock: AtomicU64,
}

impl SessionStore {
    /// A store persisting through `backend` with the given codec, a
    /// private artifact cache, the default [`RetryPolicy`] and no
    /// resident cap.
    pub fn new(backend: Box<dyn SnapshotBackend>, codec: SnapshotCodec) -> Self {
        Self::with_cache(backend, codec, Arc::new(ArtifactCache::new()))
    }

    /// A store sharing an existing [`ArtifactCache`] (e.g. with an
    /// experiment engine running the same scenarios in the same
    /// process).
    pub fn with_cache(
        backend: Box<dyn SnapshotBackend>,
        codec: SnapshotCodec,
        cache: Arc<ArtifactCache>,
    ) -> Self {
        SessionStore {
            backend,
            codec,
            retry: RetryPolicy::default(),
            max_resident: None,
            cache,
            scenarios: Mutex::new(BTreeMap::new()),
            sessions: Mutex::new(BTreeMap::new()),
            lost: Mutex::new(BTreeMap::new()),
            clock: AtomicU64::new(1),
        }
    }

    /// Replace the retry policy backend operations run under
    /// (builder-style; [`RetryPolicy::none`] disables retry).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Cap resident sessions at `max` (clamped to at least 1):
    /// admitting a session past the cap evicts the least-recently
    /// touched one (checkpoint-then-drop, transparently reloadable).
    pub fn with_max_resident(mut self, max: usize) -> Self {
        self.max_resident = Some(max.max(1));
        self
    }

    /// The codec snapshots are persisted under.
    pub fn codec(&self) -> SnapshotCodec {
        self.codec
    }

    /// The retry policy backend operations run under.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    // ---- retry-wrapped backend operations -------------------------------

    fn backend_put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        self.retry.run(|| self.backend.put(key, bytes))
    }

    /// Put `bytes` under `key`, read them back, and put them again on a
    /// mismatch — all within the retry policy. Every frame of a
    /// training names its matcher blob, so a blob write silently
    /// corrupted at rest must be caught here, not at recovery.
    fn backend_put_verified(&self, key: &str, bytes: &[u8]) -> Result<()> {
        self.retry.run(|| {
            self.backend.put(key, bytes)?;
            match self.backend.get(key)? {
                Some(stored) if stored == bytes => Ok(()),
                _ => Err(EmError::Transient(format!(
                    "`{key}` read back different bytes than were written"
                ))),
            }
        })
    }

    fn backend_contains(&self, key: &str) -> Result<bool> {
        self.retry.run(|| self.backend.contains(key))
    }

    fn backend_remove(&self, key: &str) -> Result<()> {
        self.retry.run(|| self.backend.remove(key))
    }

    fn backend_keys(&self) -> Result<Vec<String>> {
        self.retry.run(|| self.backend.keys())
    }

    fn backend_get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.retry.run(|| self.backend.get(key))
    }

    fn backend_history(&self, key: &str) -> Result<Vec<(u64, Vec<u8>)>> {
        self.retry.run(|| self.backend.history(key))
    }

    fn backend_quarantine(&self, key: &str, generation: u64) -> Result<()> {
        self.retry.run(|| self.backend.quarantine(key, generation))
    }

    // ---------------------------------------------------------------------

    /// Register a scenario sessions can be created on (and recovered
    /// into). Re-registering the same name replaces the recipe; the
    /// artifact cache still dedupes by name.
    pub fn register_scenario(&self, scenario: Scenario) {
        locked(&self.scenarios).insert(scenario.name().to_string(), scenario);
    }

    /// Ids of the sessions currently live in memory (evicted sessions
    /// are not listed; they reload on first use).
    pub fn resident_ids(&self) -> Vec<String> {
        locked(&self.sessions).keys().cloned().collect()
    }

    /// Number of sessions live in memory.
    pub fn resident_len(&self) -> usize {
        locked(&self.sessions).len()
    }

    /// Ids tombstoned with a structured loss reason (poisoned with no
    /// checkpoint, every frame corrupt), in key order.
    pub fn lost_ids(&self) -> Vec<String> {
        locked(&self.lost).keys().cloned().collect()
    }

    fn scenario_named(&self, name: &str) -> Result<Scenario> {
        locked(&self.scenarios).get(name).cloned().ok_or_else(|| {
            EmError::InvalidConfig(format!(
                "scenario `{name}` is not registered with this store"
            ))
        })
    }

    /// Open a new session under `id` on a registered scenario.
    ///
    /// Artifacts are resolved through the shared cache — creating the
    /// thousandth session of a scenario costs loop-state only. Errors
    /// if `id` already exists (in memory *or* in the backend: a crashed
    /// session must be recovered or deleted, not silently recreated).
    /// Creating over a tombstoned (lost) id is allowed and clears the
    /// tombstone — the old state is unrecoverable by definition.
    pub fn create(&self, id: &str, scenario_name: &str, config: SessionConfig) -> Result<()> {
        if is_blob_key(id) {
            return Err(EmError::InvalidConfig(format!(
                "session id `{id}` ends in `{MATCHER_BLOB_SUFFIX}`, which names matcher blobs"
            )));
        }
        let scenario = self.scenario_named(scenario_name)?;
        if self.backend_contains(id)? {
            return Err(EmError::InvalidConfig(format!(
                "session `{id}` already has a persisted snapshot; recover or delete it first"
            )));
        }
        let artifacts = self.cache.get_or_materialize(&scenario)?;
        let mut cell = SessionCell::open(artifacts, config)?;
        cell.last_touch = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut sessions = locked(&self.sessions);
            if sessions.contains_key(id) {
                return Err(EmError::InvalidConfig(format!(
                    "session `{id}` already exists"
                )));
            }
            sessions.insert(id.to_string(), Arc::new(Mutex::new(cell)));
        }
        locked(&self.lost).remove(id);
        self.enforce_admission(id)?;
        Ok(())
    }

    /// Evict least-recently-touched sessions until the resident count
    /// is within `max_resident` again (`keep` is never the victim).
    fn enforce_admission(&self, keep: &str) -> Result<()> {
        let Some(cap) = self.max_resident else {
            return Ok(());
        };
        loop {
            let victim = {
                let sessions = locked(&self.sessions);
                if sessions.len() <= cap {
                    return Ok(());
                }
                let mut lru: Option<(String, u64)> = None;
                for (vid, cell) in sessions.iter() {
                    if vid == keep {
                        continue;
                    }
                    // A busy or poisoned cell is a bad eviction victim;
                    // skip it — some other session will be idle.
                    let Ok(guard) = cell.try_lock() else { continue };
                    if guard.detached {
                        continue;
                    }
                    if lru
                        .as_ref()
                        .map(|(_, t)| guard.last_touch < *t)
                        .unwrap_or(true)
                    {
                        lru = Some((vid.clone(), guard.last_touch));
                    }
                }
                lru
            };
            match victim {
                Some((vid, _)) => self.evict(&vid)?,
                // Everything else is mid-operation: over the cap is the
                // lesser evil versus blocking admission on a lock.
                None => return Ok(()),
            }
        }
    }

    /// Decode one persisted frame into a complete snapshot, plus the
    /// matcher blob it named. The blob is resolved by length and
    /// checksum: first against the blob key's newest generation, which
    /// every frame of the current training names, and only if that one
    /// does not match or does not decode, among all retained
    /// generations. Each is read at most once per reload, into `blobs`.
    /// A missing or corrupt blob is a codec error, exactly like a
    /// corrupt frame.
    fn decode_frame(
        &self,
        id: &str,
        bytes: &[u8],
        blobs: &mut BlobReads,
    ) -> Result<(SessionSnapshot, Option<MatcherBlobRef>)> {
        let (mut snapshot, blob) = match self.codec {
            SnapshotCodec::Json => return Ok((self.codec.decode(bytes)?, None)),
            SnapshotCodec::Binary => SessionSnapshot::decode_frame(bytes)?,
        };
        if let Some(blob) = blob {
            let decode = |bytes: &[u8]| {
                if blob.names(bytes) {
                    MatcherSnapshot::from_bytes(bytes).ok()
                } else {
                    None
                }
            };
            let newest = match &blobs.newest {
                Some(newest) => newest,
                None => blobs.newest.insert(self.backend_get(&blob_key(id))?),
            };
            let mut matcher = newest.as_deref().and_then(decode);
            if matcher.is_none() {
                let retained = match &blobs.retained {
                    Some(retained) => retained,
                    None => blobs.retained.insert(self.backend_history(&blob_key(id))?),
                };
                matcher = retained.iter().find_map(|(_, bytes)| decode(bytes));
            }
            let matcher = matcher.ok_or_else(|| {
                EmError::Codec(format!(
                    "session `{id}`: the matcher blob its frame names \
                     ({} bytes, checksum {:#018x}) is missing or corrupt",
                    blob.len, blob.checksum
                ))
            })?;
            snapshot.matcher = Some(matcher);
        }
        Ok((snapshot, blob))
    }

    /// Reload `id` from the backend, walking the frame history newest →
    /// oldest and quarantining frames that fail to decode or whose
    /// matcher blob does not resolve. Corrupt generations discovered on
    /// the way are appended to `quarantined`.
    fn reload(&self, id: &str, quarantined: &mut Vec<(String, u64)>) -> Result<Reload> {
        // A blob key is never a session (`recover` lists it, and a
        // caller may name it): reading its blobs as frames would
        // quarantine them.
        if is_blob_key(id) {
            return Ok(Reload::Missing);
        }
        // Decode and restore outside every lock — this is the expensive
        // part — then re-validate under the map lock before inserting.
        let frames = self.backend_history(id)?;
        if frames.is_empty() {
            return Ok(Reload::Missing);
        }
        let total = frames.len();
        let mut blobs = BlobReads::default();
        let mut decoded = None;
        for (generation, bytes) in frames {
            match self.decode_frame(id, &bytes, &mut blobs) {
                Ok(found) => {
                    decoded = Some(found);
                    break;
                }
                Err(EmError::Codec(_)) => {
                    // Torn or corrupt frame: move it aside and fall back
                    // to the previous checkpoint.
                    self.backend_quarantine(id, generation)?;
                    quarantined.push((id.to_string(), generation));
                }
                Err(other) => return Err(other),
            }
        }
        let Some((snapshot, blob)) = decoded else {
            locked(&self.lost).insert(
                id.to_string(),
                format!("all {total} persisted frames were corrupt (quarantined)"),
            );
            return Ok(Reload::AllCorrupt(total));
        };
        let scenario = self.scenario_named(&snapshot.dataset)?;
        let artifacts = self.cache.get_or_materialize(&scenario)?;
        let mut cell = SessionCell::restore(artifacts, &snapshot, blob)?;
        cell.last_touch = self.clock.fetch_add(1, Ordering::Relaxed);
        let installed = {
            let mut sessions = locked(&self.sessions);
            // A concurrent reload may have won; keep the first one.
            if let Some(existing) = sessions.get(id) {
                return Ok(Reload::Loaded(existing.clone()));
            }
            // A concurrent `delete` may have removed the persisted
            // snapshot after this reload read it; inserting anyway would
            // resurrect the deleted session. `delete` removes from the
            // backend while holding the map lock, so this re-check is
            // race-free.
            if !self.backend_contains(id)? {
                return Ok(Reload::Missing);
            }
            let cell = Arc::new(Mutex::new(cell));
            sessions.insert(id.to_string(), cell.clone());
            cell
        };
        locked(&self.lost).remove(id);
        self.enforce_admission(id)?;
        Ok(Reload::Loaded(installed))
    }

    /// Fetch the live cell for `id`, transparently reloading an evicted
    /// session from the backend (falling back past corrupt frames).
    fn cell(&self, id: &str) -> Result<Arc<Mutex<SessionCell>>> {
        if let Some(cell) = locked(&self.sessions).get(id).cloned() {
            return Ok(cell);
        }
        let mut quarantined = Vec::new();
        match self.reload(id, &mut quarantined)? {
            Reload::Loaded(cell) => Ok(cell),
            Reload::Missing => Err(EmError::InvalidConfig(format!(
                "no session `{id}` (in memory or persisted)"
            ))),
            Reload::AllCorrupt(total) => Err(EmError::Storage(format!(
                "session `{id}` lost: all {total} persisted frames were corrupt (quarantined)"
            ))),
        }
    }

    /// Discard a cell whose mutex was poisoned by a panicking operation:
    /// tombstone the orphan, unlink it from the map, and verify a
    /// checkpoint exists to rebuild from. Errors (and records the loss)
    /// when there is none.
    fn heal_poisoned(
        &self,
        id: &str,
        cell: &Arc<Mutex<SessionCell>>,
        poisoned: PoisonError<MutexGuard<'_, SessionCell>>,
    ) -> Result<()> {
        // The in-memory state may be mid-mutation; never serve it again.
        let mut guard = poisoned.into_inner();
        guard.detached = true;
        drop(guard);
        {
            let mut sessions = locked(&self.sessions);
            if let Some(entry) = sessions.get(id) {
                if Arc::ptr_eq(entry, cell) {
                    sessions.remove(id);
                }
            }
        }
        if self.backend_history(id)?.is_empty() {
            let reason = "session mutex poisoned by a panicking operation and no checkpoint exists"
                .to_string();
            locked(&self.lost).insert(id.to_string(), reason.clone());
            return Err(EmError::Storage(format!("session `{id}` lost: {reason}")));
        }
        // A checkpoint exists: the caller's retry loop will rebuild from
        // it through the ordinary reload path.
        Ok(())
    }

    /// Run `f` on session `id`'s locked cell.
    ///
    /// The lookup-then-lock window races with `evict`/`delete`: the
    /// cell `Arc` obtained from the map may be *detached* (tombstoned
    /// and removed) by the time its lock is acquired. Mutating such an
    /// orphan would silently lose the mutation on the next reload, so
    /// detached cells are never touched — the loop retries against the
    /// map, which either serves the live replacement (reloaded from the
    /// checkpoint the evict wrote) or reports the id gone. A *poisoned*
    /// cell is healed the same way: discarded and rebuilt from its last
    /// checkpoint (or tombstoned with a structured error if none
    /// exists).
    fn with_cell<R>(&self, id: &str, f: impl FnOnce(&mut SessionCell) -> Result<R>) -> Result<R> {
        let mut f = Some(f);
        loop {
            if let Some(reason) = locked(&self.lost).get(id) {
                return Err(EmError::Storage(format!("session `{id}` lost: {reason}")));
            }
            let cell = self.cell(id)?;
            let lock_outcome = cell.lock();
            match lock_outcome {
                Ok(mut guard) => {
                    if guard.detached {
                        drop(guard);
                        std::thread::yield_now();
                        continue;
                    }
                    guard.last_touch = self.clock.fetch_add(1, Ordering::Relaxed);
                    // em-lint: allow(no-panic) -- loop invariant: `f` stays Some until the one take() on the return path
                    let f = f.take().expect("with_cell closure consumed twice");
                    return f(&mut guard);
                }
                Err(poisoned) => {
                    self.heal_poisoned(id, &cell, poisoned)?;
                    continue;
                }
            }
        }
    }

    /// The shared artifacts session `id` runs on — what a labeling
    /// front-end needs to render query pairs (records, schema, feature
    /// rows). Cheap: clones an `Arc`, never the data.
    pub fn artifacts(&self, id: &str) -> Result<Arc<DatasetArtifacts>> {
        self.with_cell(id, |cell| {
            cell.session.artifacts().cloned().ok_or_else(|| {
                EmError::Internal(format!("session `{id}` does not share its artifacts"))
            })
        })
    }

    /// An owned status view of session `id`.
    pub fn get(&self, id: &str) -> Result<SessionStatus> {
        self.with_cell(id, |cell| {
            Ok(SessionStatus {
                id: id.to_string(),
                scenario: cell.session.dataset().name.clone(),
                phase: cell.session.phase(),
                labels_used: cell.session.labels_used(),
                pool_remaining: cell.session.pool_remaining(),
                iterations: cell.session.records().len(),
            })
        })
    }

    /// The pairs session `id` is waiting on (empty when none).
    pub fn next_query_batch(&self, id: &str) -> Result<Vec<PairIdx>> {
        self.with_cell(id, |cell| Ok(cell.session.next_query_batch()))
    }

    /// Submit (part of) the outstanding labels for session `id`.
    pub fn submit_labels(&self, id: &str, labels: &[(PairIdx, Label)]) -> Result<SessionPhase> {
        self.with_cell(id, |cell| cell.session.submit_labels(labels))
    }

    /// Perform session `id`'s current phase's work (seed draw, training
    /// + next selection, …) and return the new phase.
    pub fn advance(&self, id: &str) -> Result<SessionPhase> {
        self.with_cell(id, |cell| cell.session.advance())
    }

    /// The report of everything session `id` has recorded so far.
    pub fn report(&self, id: &str) -> Result<RunReport> {
        self.with_cell(id, |cell| Ok(cell.session.report()))
    }

    /// Persist session `id`'s complete state through the codec and
    /// backend. Returns the bytes this call wrote: under the binary
    /// codec, the session frame plus the matcher blob when the matcher
    /// changed since the last checkpoint.
    pub fn checkpoint(&self, id: &str) -> Result<usize> {
        self.with_cell(id, |cell| self.checkpoint_cell(id, cell))
    }

    fn checkpoint_cell(&self, id: &str, cell: &mut SessionCell) -> Result<usize> {
        match self.codec {
            SnapshotCodec::Json => {
                let bytes = self.codec.encode(&cell.session.snapshot()?)?;
                self.backend_put(id, &bytes)?;
                Ok(bytes.len())
            }
            SnapshotCodec::Binary => {
                let (blob, blob_len) = self.persist_matcher(id, cell)?;
                let snapshot = cell.session.snapshot_without_matcher()?;
                let frame = match blob {
                    Some(blob) => snapshot.to_bytes_naming(blob),
                    None => snapshot.to_bytes(),
                };
                // The blob is durable before any frame names it.
                self.backend_put(id, &frame)?;
                Ok(blob_len + frame.len())
            }
        }
    }

    /// Persist the session's matcher as its blob, unless this training's
    /// blob already is. Returns the reference a frame names (`None`
    /// before the first training) and the blob bytes written.
    fn persist_matcher(
        &self,
        id: &str,
        cell: &mut SessionCell,
    ) -> Result<(Option<MatcherBlobRef>, usize)> {
        let Some(matcher) = cell.session.matcher() else {
            return Ok((None, 0));
        };
        let training = cell.session.records().len();
        if let Some((persisted_at, blob)) = cell.blob {
            if persisted_at == training {
                return Ok((Some(blob), 0));
            }
        }
        let bytes = matcher.to_snapshot().to_bytes();
        self.backend_put_verified(&blob_key(id), &bytes)?;
        let blob = MatcherBlobRef::of(&bytes);
        cell.blob = Some((training, blob));
        Ok((Some(blob), bytes.len()))
    }

    /// Checkpoint every resident session; returns `(id, bytes)` pairs
    /// in id order. Sessions whose mutex was poisoned are healed
    /// (rebuilt from their last checkpoint — which is therefore already
    /// persisted) and skipped.
    pub fn checkpoint_all(&self) -> Result<Vec<(String, usize)>> {
        let resident: Vec<(String, Arc<Mutex<SessionCell>>)> = {
            let sessions = locked(&self.sessions);
            sessions
                .iter()
                .map(|(id, c)| (id.clone(), c.clone()))
                .collect()
        };
        let mut out = Vec::with_capacity(resident.len());
        for (id, cell) in resident {
            match cell.lock() {
                Ok(mut cell) => {
                    if cell.detached {
                        // Evicted concurrently — the evict already
                        // persisted it.
                        continue;
                    }
                    out.push((id.clone(), self.checkpoint_cell(&id, &mut cell)?));
                }
                Err(poisoned) => {
                    // Heal; its last checkpoint already is the freshest
                    // trustworthy state, so there is nothing to persist.
                    // A tombstoned loss is deliberate, not an error of
                    // checkpoint_all.
                    let _ = self.heal_poisoned(&id, &cell, poisoned);
                }
            }
        }
        Ok(out)
    }

    /// Release session `id`'s memory, **checkpointing it first**.
    ///
    /// A session may be evicted at any phase — mid-batch with half its
    /// labels received included. The checkpoint-before-drop order is
    /// load-bearing: an in-flight session evicted without persisting
    /// would silently lose the labels already submitted, which is why
    /// this method has no "skip the checkpoint" variant. Any later
    /// operation on `id` transparently reloads it.
    pub fn evict(&self, id: &str) -> Result<()> {
        // Checkpoint and tombstone under the cell lock (no map lock —
        // the encode + backend write never serializes other sessions),
        // then unlink exactly the cell that was persisted. A caller
        // that cloned the cell's Arc before the unlink finds the
        // tombstone and retries against the map (`with_cell`), so no
        // mutation can slip between the persisted snapshot and the
        // drop.
        self.with_cell(id, |cell| {
            self.checkpoint_cell(id, cell)?;
            cell.detached = true;
            Ok(())
        })?;
        let mut sessions = locked(&self.sessions);
        // Only remove the tombstoned cell; a concurrent reload may
        // already have installed a fresh (live) replacement.
        if let Some(entry) = sessions.get(id) {
            let is_detached = match entry.lock() {
                Ok(guard) => guard.detached,
                // Poisoned: its state is suspect either way; unlink it
                // (its checkpoint from above is the source of truth).
                Err(poisoned) => {
                    let mut guard = poisoned.into_inner();
                    guard.detached = true;
                    true
                }
            };
            if is_detached {
                sessions.remove(id);
            }
        }
        Ok(())
    }

    /// Permanently remove session `id` from memory and the backend, its
    /// matcher blob included (clears a loss tombstone too).
    pub fn delete(&self, id: &str) -> Result<()> {
        if is_blob_key(id) {
            // Not a session id (`create` rejects these): nothing to delete,
            // and the blob key belongs to another session.
            return Ok(());
        }
        // Tombstone any resident cell (so racing operations holding its
        // Arc fail over to the map instead of mutating an orphan) and
        // remove the persisted snapshot while still holding the map
        // lock — `cell`'s reload path re-checks the backend under this
        // lock, so a reload in flight cannot resurrect the session.
        let mut sessions = locked(&self.sessions);
        if let Some(entry) = sessions.remove(id) {
            entry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .detached = true;
        }
        locked(&self.lost).remove(id);
        // Frames first: a frame must never outlive the blob it names.
        self.backend_remove(id)?;
        self.backend_remove(&blob_key(id))
    }

    /// Reload every persisted session from the backend — the crash
    /// recovery path.
    ///
    /// Each session's frame history is walked newest→oldest: frames
    /// that fail to decode are quarantined and recovery falls back to
    /// the previous checkpoint, so one torn or corrupt frame never
    /// fails the store. A session with *no* decodable frame is recorded
    /// in [`RecoveryReport::lost`] (and tombstoned with a structured
    /// error) instead of aborting recovery of the others. Sessions
    /// already resident are left untouched — their in-memory state is
    /// newer than or equal to the persisted one.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        for id in self.backend_keys()? {
            let already_resident = locked(&self.sessions).contains_key(&id);
            if already_resident {
                continue;
            }
            match self.reload(&id, &mut report.quarantined)? {
                Reload::Loaded(_) => report.recovered.push(id),
                Reload::Missing => {} // deleted concurrently
                Reload::AllCorrupt(_) => report.lost.push(id),
            }
        }
        Ok(report)
    }

    /// Advance every session whose current phase has work to do
    /// (`SeedDraw` or `Training` — a complete batch waiting to train),
    /// fanning the sessions out across rayon workers.
    ///
    /// Each session's step is a pure function of its own state (its own
    /// rng, pool, matcher), so the fan-out is deterministic per session
    /// and bit-identical to stepping the same sessions serially — the
    /// serve bench's golden check pins this. Returns `(id, new phase)`
    /// in id order for the sessions that were stepped. A session that
    /// panics mid-step poisons only its own lock; the next operation on
    /// it heals it from its last checkpoint.
    pub fn step_ready_sessions(&self) -> Result<Vec<(String, SessionPhase)>> {
        // The map lock is held only to clone the resident (id, Arc)
        // list — never across a cell lock, so a session mid-training
        // can never stall operations on other sessions. Readiness is
        // checked inside each worker under that session's own lock
        // (the only place the check can be race-free anyway).
        let resident: Vec<(String, Arc<Mutex<SessionCell>>)> = {
            let sessions = locked(&self.sessions);
            sessions
                .iter()
                .map(|(id, cell)| (id.clone(), cell.clone()))
                .collect()
        };
        let outcomes: Vec<StepOutcome> = resident
            .par_iter()
            .map(|(id, cell)| {
                let mut cell = match cell.lock() {
                    Ok(cell) => cell,
                    // A previous step panicked on this session: skip it
                    // this round; the serial pass below heals it.
                    Err(_) => return Ok(None),
                };
                if cell.detached
                    || !matches!(
                        cell.session.phase(),
                        SessionPhase::SeedDraw | SessionPhase::Training
                    )
                {
                    return Ok(None);
                }
                let phase = cell.session.advance()?;
                Ok(Some((id.clone(), phase)))
            })
            .collect();
        // Heal any poisoned sessions found during the fan-out (serially,
        // so healing cannot race itself). Tombstoned losses are
        // deliberate and must not fail the step round.
        for (id, cell) in &resident {
            if let Err(poisoned) = cell.lock() {
                let _ = self.heal_poisoned(id, cell, poisoned);
            }
        }
        let mut stepped = Vec::new();
        for outcome in outcomes {
            if let Some(entry) = outcome? {
                stepped.push(entry);
            }
        }
        Ok(stepped)
    }
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("codec", &self.codec)
            .field("resident", &self.resident_len())
            .field("max_resident", &self.max_resident)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::MemoryBackend;
    use super::super::fault::{Fault, FaultPlan, FaultyBackend};
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::strategies::StrategySpec;
    use em_synth::DatasetProfile;

    fn quick_config(strategy: StrategySpec, seed: u64) -> SessionConfig {
        let mut experiment = ExperimentConfig::low_resource(1, 10);
        experiment.al.seed_size = 10;
        experiment.matcher.epochs = 2;
        experiment.battleship.kselect_sample = 128;
        SessionConfig {
            experiment,
            strategy,
            seed,
        }
    }

    fn store_with_scenario() -> (SessionStore, Scenario) {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let store = SessionStore::new(Box::new(MemoryBackend::new()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        (store, scenario)
    }

    /// Drive a stored session to Done through the store API.
    fn drive(store: &SessionStore, id: &str) {
        loop {
            let status = store.get(id).unwrap();
            match status.phase {
                SessionPhase::AwaitingLabels => {
                    let batch = store.next_query_batch(id).unwrap();
                    let artifacts = store.artifacts(id).unwrap();
                    let answers: Vec<(PairIdx, Label)> = batch
                        .iter()
                        .map(|&p| (p, artifacts.dataset.ground_truth(p)))
                        .collect();
                    store.submit_labels(id, &answers).unwrap();
                }
                SessionPhase::Done => break,
                SessionPhase::SeedDraw | SessionPhase::Training => {
                    store.advance(id).unwrap();
                }
            }
        }
    }

    #[test]
    fn create_get_drive_and_share_artifacts() {
        let (store, scenario) = store_with_scenario();
        store
            .create("s1", scenario.name(), quick_config(StrategySpec::Random, 1))
            .unwrap();
        store
            .create("s2", scenario.name(), quick_config(StrategySpec::Random, 2))
            .unwrap();
        // Duplicate ids are rejected.
        assert!(store
            .create("s1", scenario.name(), quick_config(StrategySpec::Random, 3))
            .is_err());
        // Unregistered scenarios are rejected.
        assert!(store
            .create("s3", "ghost", quick_config(StrategySpec::Random, 3))
            .is_err());
        assert_eq!(store.resident_ids(), vec!["s1", "s2"]);

        // Both sessions borrow the same materialized artifacts.
        assert!(Arc::ptr_eq(
            &store.artifacts("s1").unwrap(),
            &store.artifacts("s2").unwrap()
        ));

        let s = store.get("s1").unwrap();
        assert_eq!(s.phase, SessionPhase::SeedDraw);
        assert_eq!(s.scenario, scenario.name());
        drive(&store, "s1");
        let report = store.report("s1").unwrap();
        assert_eq!(report.iterations.len(), 2);
        assert_eq!(store.get("s1").unwrap().phase, SessionPhase::Done);
    }

    #[test]
    fn sessions_share_the_cache_artifacts_and_release_them() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let cache = Arc::new(ArtifactCache::new());
        let cached = cache.get_or_materialize(&scenario).unwrap();
        let store =
            SessionStore::with_cache(Box::new(MemoryBackend::new()), SnapshotCodec::Binary, cache);
        store.register_scenario(scenario.clone());
        let before = Arc::strong_count(&cached);

        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 1))
            .unwrap();
        assert!(Arc::ptr_eq(&store.artifacts("s").unwrap(), &cached));
        assert_eq!(Arc::strong_count(&cached), before + 1);
        store.delete("s").unwrap();
        assert_eq!(
            Arc::strong_count(&cached),
            before,
            "delete kept the artifacts"
        );

        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 2))
            .unwrap();
        store.advance("s").unwrap();
        store.evict("s").unwrap();
        assert_eq!(
            Arc::strong_count(&cached),
            before,
            "evict kept the artifacts"
        );
        // A reload shares the cached artifacts again.
        assert!(Arc::ptr_eq(&store.artifacts("s").unwrap(), &cached));
    }

    #[test]
    fn checkpoint_evict_reload_is_transparent() {
        let (store, scenario) = store_with_scenario();
        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 7))
            .unwrap();
        store.advance("s").unwrap(); // seed batch out
        let before = store.get("s").unwrap();
        store.evict("s").unwrap();
        assert_eq!(store.resident_len(), 0);
        // First touch reloads from the backend.
        let after = store.get("s").unwrap();
        assert_eq!(after, before);
        assert_eq!(store.resident_len(), 1);
        drive(&store, "s");

        // Deleting removes both tiers; the id is then unknown.
        store.delete("s").unwrap();
        assert!(store.get("s").is_err());
    }

    #[test]
    fn unknown_ids_are_structured_errors() {
        let (store, _) = store_with_scenario();
        assert!(store.get("nope").is_err());
        assert!(store.advance("nope").is_err());
        assert!(store.checkpoint("nope").is_err());
        assert!(store.evict("nope").is_err());
    }

    #[test]
    fn poisoned_session_is_rebuilt_from_its_checkpoint() {
        let (store, scenario) = store_with_scenario();
        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 9))
            .unwrap();
        store.advance("s").unwrap(); // seed batch out
        let before = store.get("s").unwrap();
        store.checkpoint("s").unwrap();

        // A worker panics while holding the session lock.
        let cell = store.cell("s").unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cell.lock().unwrap();
            panic!("worker dies mid-step");
        }));
        assert!(panicked.is_err());
        assert!(cell.lock().is_err(), "cell lock not actually poisoned");

        // The next operation transparently heals from the checkpoint…
        let after = store.get("s").unwrap();
        assert_eq!(after, before, "healed session diverged from checkpoint");
        assert!(store.lost_ids().is_empty());
        // …and the session still finishes normally.
        drive(&store, "s");
        assert_eq!(store.get("s").unwrap().phase, SessionPhase::Done);
    }

    #[test]
    fn poisoned_session_without_checkpoint_is_tombstoned() {
        let (store, scenario) = store_with_scenario();
        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 9))
            .unwrap();
        // No checkpoint ever written; poison the cell.
        let cell = store.cell("s").unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cell.lock().unwrap();
            panic!("worker dies before any checkpoint");
        }));

        // Structured loss, not a panic and not "unknown id".
        let err = store.get("s").unwrap_err();
        assert!(
            matches!(&err, EmError::Storage(msg) if msg.contains("lost")),
            "unexpected error {err}"
        );
        assert_eq!(store.lost_ids(), vec!["s"]);
        // Every subsequent op fails the same structured way…
        assert!(store.advance("s").is_err());
        // …the rest of the store still works…
        store
            .create(
                "other",
                scenario.name(),
                quick_config(StrategySpec::Random, 10),
            )
            .unwrap();
        drive(&store, "other");
        // …and creating over the tombstone clears it.
        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 11))
            .unwrap();
        assert!(store.lost_ids().is_empty());
        drive(&store, "s");
    }

    #[test]
    fn max_resident_evicts_least_recently_touched() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let store = SessionStore::new(Box::new(MemoryBackend::new()), SnapshotCodec::Binary)
            .with_max_resident(2);
        store.register_scenario(scenario.clone());
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            store
                .create(
                    id,
                    scenario.name(),
                    quick_config(StrategySpec::Random, i as u64),
                )
                .unwrap();
        }
        // `a` was touched least recently → evicted by `c`'s admission.
        assert_eq!(store.resident_ids(), vec!["b", "c"]);
        // It is still transparently reachable (reloads, evicting `b`).
        assert_eq!(store.get("a").unwrap().phase, SessionPhase::SeedDraw);
        assert_eq!(store.resident_len(), 2);
        assert!(store.resident_ids().contains(&"a".to_string()));
        // Touch order, not insert order, decides the victim.
        store.get("c").unwrap();
        store
            .create("d", scenario.name(), quick_config(StrategySpec::Random, 9))
            .unwrap();
        assert_eq!(store.resident_ids(), vec!["c", "d"]);
        // Nothing was lost: every session still drives to Done.
        for id in ["a", "b", "c", "d"] {
            drive(&store, id);
        }
    }

    #[test]
    fn transient_backend_faults_are_retried_through() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultPlan::transient(0xFA11, 0.3),
        ));
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary)
            .with_retry_policy(RetryPolicy {
                base_delay_micros: 10,
                max_delay_micros: 100,
                total_budget_micros: 10_000,
                ..RetryPolicy::default()
            });
        store.register_scenario(scenario.clone());
        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 3))
            .unwrap();
        store.advance("s").unwrap();
        for _ in 0..10 {
            store.checkpoint("s").unwrap();
        }
        store.evict("s").unwrap();
        drive(&store, "s");
        assert!(
            backend.stats().transient > 0,
            "the fault plan injected nothing — test is vacuous"
        );
    }

    #[test]
    fn corrupt_newest_frame_falls_back_to_previous_generation() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(1)));
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        store
            .create("s", scenario.name(), quick_config(StrategySpec::Random, 3))
            .unwrap();
        store.advance("s").unwrap();
        store.checkpoint("s").unwrap(); // generation 1: good
        let at_gen1 = store.get("s").unwrap();

        // Mutate past generation 1, then persist the newer state through
        // a frame that is silently corrupted on its way to the backend.
        let batch = store.next_query_batch("s").unwrap();
        let artifacts = store.artifacts("s").unwrap();
        let answers: Vec<(PairIdx, Label)> = batch
            .iter()
            .map(|&p| (p, artifacts.dataset.ground_truth(p)))
            .collect();
        store.submit_labels("s", &answers).unwrap();
        backend.force_on_put(Fault::Corrupt);
        store.checkpoint("s").unwrap(); // generation 2: corrupt at rest

        // A fresh store over the same backend (a restart) must
        // quarantine the corrupt newest frame and restore generation 1.
        let fresh = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        fresh.register_scenario(scenario.clone());
        let report = fresh.recover().unwrap();
        assert_eq!(report.recovered, vec!["s"]);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.lost.is_empty());
        let after = fresh.get("s").unwrap();
        assert_eq!(after, at_gen1, "fallback restored the wrong generation");
        drive(&fresh, "s");
    }

    /// Answer `n` of session `id`'s outstanding queries from ground truth.
    fn answer(store: &SessionStore, id: &str, n: usize) {
        let batch = store.next_query_batch(id).unwrap();
        let artifacts = store.artifacts(id).unwrap();
        let answers: Vec<(PairIdx, Label)> = batch
            .iter()
            .take(n)
            .map(|&p| (p, artifacts.dataset.ground_truth(p)))
            .collect();
        store.submit_labels(id, &answers).unwrap();
    }

    /// The report of `config` driven through a fault-free store.
    fn reference(config: SessionConfig) -> RunReport {
        let (store, scenario) = store_with_scenario();
        store.create("ref", scenario.name(), config).unwrap();
        drive(&store, "ref");
        strip(store.report("ref").unwrap())
    }

    fn strip(mut r: RunReport) -> RunReport {
        for it in &mut r.iterations {
            it.train_secs = 0.0;
            it.select_secs = 0.0;
        }
        r
    }

    /// A store over `backend`, as a restarted process opens it, with
    /// `recover()` already run.
    fn reopen(
        backend: &Arc<FaultyBackend<MemoryBackend>>,
        scenario: &Scenario,
    ) -> (SessionStore, RecoveryReport) {
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        let report = store.recover().unwrap();
        (store, report)
    }

    #[test]
    fn blob_written_but_frame_lost_recovers_the_previous_frame() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(2)));
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary)
            .with_retry_policy(RetryPolicy::none());
        store.register_scenario(scenario.clone());
        let config = quick_config(StrategySpec::Random, 21);
        store.create("s", scenario.name(), config.clone()).unwrap();
        store.advance("s").unwrap();
        answer(&store, "s", usize::MAX);
        store.checkpoint("s").unwrap(); // a complete seed batch, untrained
        let before = store.get("s").unwrap();

        // Train, then crash between the blob put and the frame put.
        store.advance("s").unwrap();
        backend.force_on_put_to("s", Fault::CrashBeforeCommit);
        assert!(store.checkpoint("s").is_err());
        assert_eq!(backend.inner().history(&blob_key("s")).unwrap().len(), 1);
        drop(store);

        let (store, report) = reopen(&backend, &scenario);
        assert_eq!(report.recovered, vec!["s"]);
        assert!(report.quarantined.is_empty() && report.lost.is_empty());
        assert_eq!(store.get("s").unwrap(), before);
        drive(&store, "s");
        assert_eq!(strip(store.report("s").unwrap()), reference(config));
    }

    #[test]
    fn a_corrupt_blob_write_is_caught_by_its_read_back() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(3)));
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        let config = quick_config(StrategySpec::Random, 22);
        store.create("s", scenario.name(), config.clone()).unwrap();
        store.advance("s").unwrap();
        answer(&store, "s", usize::MAX);
        store.advance("s").unwrap(); // trained: the next checkpoint writes the blob

        // The blob put is silently corrupted at rest; then more
        // per-label checkpoints than the backend retains frames, every
        // one of them naming this training's blob.
        backend.force_on_put_to(&blob_key("s"), Fault::Corrupt);
        let keep = 4;
        for _ in 0..keep + 2 {
            answer(&store, "s", 1);
            store.checkpoint("s").unwrap();
        }
        assert_eq!(backend.stats().corruptions, 1);
        let before = store.get("s").unwrap();
        drop(store);

        let (store, report) = reopen(&backend, &scenario);
        assert_eq!(report.recovered, vec!["s"]);
        assert!(report.quarantined.is_empty() && report.lost.is_empty());
        assert_eq!(store.get("s").unwrap(), before, "labels were lost");
        drive(&store, "s");
        assert_eq!(strip(store.report("s").unwrap()), reference(config));
    }

    #[test]
    fn a_frame_whose_blob_is_missing_is_quarantined() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(FaultyBackend::new(MemoryBackend::new(), FaultPlan::none(4)));
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        let config = quick_config(StrategySpec::Random, 23);
        for id in ["fallback", "lost"] {
            store.create(id, scenario.name(), config.clone()).unwrap();
            store.advance(id).unwrap();
            answer(&store, id, usize::MAX);
        }
        // `fallback` has an untrained frame under the one naming its
        // blob; `lost` only has frames naming its blob.
        store.checkpoint("fallback").unwrap();
        let untrained = store.get("fallback").unwrap();
        for id in ["fallback", "lost"] {
            store.advance(id).unwrap();
            store.checkpoint(id).unwrap();
            backend.inner().remove(&blob_key(id)).unwrap();
        }
        drop(store);

        let (store, report) = reopen(&backend, &scenario);
        assert_eq!(report.recovered, vec!["fallback"]);
        assert_eq!(report.lost, vec!["lost"]);
        assert_eq!(
            report.quarantined,
            vec![("fallback".to_string(), 1), ("lost".to_string(), 0)]
        );
        assert_eq!(store.get("fallback").unwrap(), untrained);
        let err = store.get("lost").unwrap_err();
        assert!(
            matches!(&err, EmError::Storage(msg) if msg.contains("lost")),
            "unexpected error {err}"
        );
        drive(&store, "fallback");
        assert_eq!(strip(store.report("fallback").unwrap()), reference(config));
    }

    #[test]
    fn every_retained_frame_of_a_fault_free_history_resolves_its_blob() {
        let (store, scenario) = store_with_scenario();
        store
            .create("s", scenario.name(), quick_config(StrategySpec::Dal, 24))
            .unwrap();
        let mut frames_checked = 0;
        loop {
            match store.get("s").unwrap().phase {
                SessionPhase::Done => break,
                SessionPhase::AwaitingLabels => answer(&store, "s", 1),
                SessionPhase::SeedDraw | SessionPhase::Training => {
                    store.advance("s").unwrap();
                }
            }
            store.checkpoint("s").unwrap();
            for (_, frame) in store.backend.history("s").unwrap() {
                store
                    .decode_frame("s", &frame, &mut BlobReads::default())
                    .unwrap();
                frames_checked += 1;
            }
        }
        assert!(frames_checked > 20);
    }

    #[test]
    fn blob_keys_are_never_sessions() {
        let (store, scenario) = store_with_scenario();
        let config = quick_config(StrategySpec::Random, 25);
        let err = store
            .create("x.matcher", scenario.name(), config.clone())
            .unwrap_err();
        assert!(matches!(err, EmError::InvalidConfig(_)), "{err}");
        store.create("x", scenario.name(), config).unwrap();
        store.advance("x").unwrap();
        answer(&store, "x", usize::MAX);
        store.advance("x").unwrap();
        store.checkpoint("x").unwrap();
        assert_eq!(store.backend.keys().unwrap(), vec!["x", "x.matcher"]);

        // Naming the blob key as a session reads nothing as a frame.
        assert!(store.get("x.matcher").is_err());
        store.delete("x.matcher").unwrap();
        store.evict("x").unwrap();
        let report = store.recover().unwrap();
        assert_eq!(report.recovered, vec!["x"]);
        assert!(report.quarantined.is_empty() && report.lost.is_empty());

        store.delete("x").unwrap();
        assert!(
            store.backend.keys().unwrap().is_empty(),
            "delete left a blob"
        );
    }

    #[test]
    fn a_json_store_checkpoints_reloads_and_recovers() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(MemoryBackend::new());
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Json);
        store.register_scenario(scenario.clone());
        let config = quick_config(StrategySpec::Battleship, 26);
        store.create("s", scenario.name(), config.clone()).unwrap();
        store.advance("s").unwrap();
        answer(&store, "s", usize::MAX);
        store.advance("s").unwrap(); // trained: the first selection is out
        answer(&store, "s", 1);
        store.checkpoint("s").unwrap();
        let frame = backend.get("s").unwrap().unwrap();
        let json = std::str::from_utf8(&frame).unwrap();
        assert!(json.contains("\"train\""), "{json}");
        assert!(!json.contains("\"pool\""), "the pool was persisted");
        let before = store.get("s").unwrap();
        store.evict("s").unwrap();
        assert_eq!(store.get("s").unwrap(), before);

        // A restarted process recovers the session from the same backend.
        let fresh = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Json);
        fresh.register_scenario(scenario.clone());
        let report = fresh.recover().unwrap();
        assert_eq!(report.recovered, vec!["s"]);
        assert!(report.quarantined.is_empty() && report.lost.is_empty());
        assert_eq!(fresh.get("s").unwrap(), before);

        let uninterrupted = reference(config);
        drive(&store, "s");
        assert_eq!(strip(store.report("s").unwrap()), uninterrupted);
        drive(&fresh, "s");
        assert_eq!(strip(fresh.report("s").unwrap()), uninterrupted);
    }

    /// A memory backend that counts the session frames `get` reads and
    /// the matcher blobs `get` and `history` read.
    #[derive(Default)]
    struct CountingBackend {
        inner: MemoryBackend,
        gets: AtomicU64,
        blob_reads: AtomicU64,
    }

    impl CountingBackend {
        fn gets(&self) -> u64 {
            self.gets.load(Ordering::Relaxed)
        }
        fn blob_reads(&self) -> u64 {
            self.blob_reads.load(Ordering::Relaxed)
        }
    }

    impl SnapshotBackend for CountingBackend {
        fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
            self.inner.put(key, bytes)
        }
        fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
            let frame = self.inner.get(key)?;
            let counter = if is_blob_key(key) {
                &self.blob_reads
            } else {
                &self.gets
            };
            counter.fetch_add(u64::from(frame.is_some()), Ordering::Relaxed);
            Ok(frame)
        }
        fn contains(&self, key: &str) -> Result<bool> {
            self.inner.contains(key)
        }
        fn remove(&self, key: &str) -> Result<()> {
            self.inner.remove(key)
        }
        fn keys(&self) -> Result<Vec<String>> {
            self.inner.keys()
        }
        fn history(&self, key: &str) -> Result<Vec<(u64, Vec<u8>)>> {
            let frames = self.inner.history(key)?;
            if is_blob_key(key) {
                self.blob_reads
                    .fetch_add(frames.len() as u64, Ordering::Relaxed);
            }
            Ok(frames)
        }
        fn quarantine(&self, key: &str, generation: u64) -> Result<()> {
            self.inner.quarantine(key, generation)
        }
    }

    #[test]
    fn create_and_reload_test_existence_without_reading_a_frame() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(CountingBackend::default());
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        let config = quick_config(StrategySpec::Random, 27);
        store.create("s", scenario.name(), config.clone()).unwrap();
        assert_eq!(backend.gets(), 0, "create read a frame");
        store.advance("s").unwrap();
        answer(&store, "s", usize::MAX);
        store.advance("s").unwrap(); // trained
        store.evict("s").unwrap();
        assert_eq!(backend.gets(), 0);

        // The reload reads the history, not the newest frame.
        assert_eq!(store.get("s").unwrap().phase, SessionPhase::AwaitingLabels);
        assert_eq!(backend.gets(), 0, "reload read a frame");
        // Creating over a persisted id is still refused.
        store.evict("s").unwrap();
        assert!(store.create("s", scenario.name(), config).is_err());
        assert_eq!(backend.gets(), 0, "create read a frame");
    }

    #[test]
    fn a_reload_reads_only_the_newest_matcher_blob() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(CountingBackend::default());
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        let mut config = quick_config(StrategySpec::Random, 27);
        config.experiment.al.iterations = 2;
        store.create("s", scenario.name(), config).unwrap();
        // Every training checkpointed: one retained blob each.
        loop {
            match store.get("s").unwrap().phase {
                SessionPhase::Done => break,
                SessionPhase::AwaitingLabels => answer(&store, "s", usize::MAX),
                SessionPhase::SeedDraw | SessionPhase::Training => {
                    store.advance("s").unwrap();
                    store.checkpoint("s").unwrap();
                }
            }
        }
        assert_eq!(backend.inner.history(&blob_key("s")).unwrap().len(), 3);
        let before = store.get("s").unwrap();
        store.evict("s").unwrap();

        let reads = backend.blob_reads();
        assert_eq!(store.get("s").unwrap(), before);
        assert_eq!(
            backend.blob_reads() - reads,
            1,
            "a reload read an older blob"
        );
    }

    #[test]
    fn all_frames_corrupt_is_a_structured_loss_not_a_store_failure() {
        let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 5);
        let backend = Arc::new(MemoryBackend::new());
        let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        store.register_scenario(scenario.clone());
        // One healthy session, one whose every frame is garbage.
        store
            .create("ok", scenario.name(), quick_config(StrategySpec::Random, 1))
            .unwrap();
        store.checkpoint("ok").unwrap();
        backend.put("junk", b"not a snapshot at all").unwrap();
        backend.put("junk", b"still not a snapshot").unwrap();

        // recover(): the healthy session comes back, the junk key is a
        // structured loss, recovery itself succeeds.
        let fresh = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
        fresh.register_scenario(scenario.clone());
        let report = fresh.recover().unwrap();
        assert_eq!(report.recovered, vec!["ok"]);
        assert_eq!(report.lost, vec!["junk"]);
        assert_eq!(report.quarantined.len(), 2);
        let err = fresh.get("junk").unwrap_err();
        assert!(
            matches!(&err, EmError::Storage(msg) if msg.contains("lost")),
            "unexpected error {err}"
        );
        drive(&fresh, "ok");
    }
}
