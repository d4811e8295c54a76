//! Where persisted session snapshots live.
//!
//! A [`SnapshotBackend`] is a tiny key→bytes store: the
//! [`SessionStore`](super::SessionStore) writes each session's encoded
//! frames under its session id (and, under the binary codec, its
//! matcher blob under `<id>.matcher`) and reads them back on cache miss
//! or crash recovery. Two implementations ship:
//!
//! * [`MemoryBackend`] — a mutexed map; survives store drops (hand the
//!   same backend to a new store), not process exits. The unit-test and
//!   bench backend.
//! * [`DirBackend`] — **generational** files per key under a
//!   directory: every `put` writes a new frame atomically (temp file +
//!   rename) and the last [`DirBackend::keep`] frames are retained, so
//!   recovery can fall back past a torn or corrupt newest frame.
//!   Frames that fail to decode are moved into `quarantine/` by
//!   [`SnapshotBackend::quarantine`] instead of being deleted — they
//!   are the post-mortem evidence. Each key's live generations are kept
//!   in memory after its first touch, so a `put` never lists a
//!   directory and [`SnapshotBackend::contains`] reads no file.
//!
//! Both backends number a key's frames with generations that are never
//! reused — not after a quarantine, a removal or (for [`DirBackend`]) a
//! reopen — so `(key, generation)` names one frame for good, and a
//! quarantine never overwrites earlier evidence.
//!
//! Backends store opaque bytes; the codec (and thus corruption
//! detection) lives a layer above in
//! [`SnapshotCodec`](super::SnapshotCodec). The store walks
//! [`SnapshotBackend::history`] newest→oldest when the newest frame is
//! undecodable.
//!
//! No backend panics on a poisoned lock: a panicking thread elsewhere
//! in the process must degrade that one operation, never take the whole
//! persistence layer down.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use em_core::{EmError, Result};

/// A keyed byte store for encoded session snapshots.
///
/// Implementations must be safe to call from concurrent store
/// operations (`Send + Sync`); keys are session ids.
pub trait SnapshotBackend: Send + Sync {
    /// Persist `bytes` under `key` as the newest frame, superseding (not
    /// necessarily destroying) any previous value.
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()>;
    /// Read the newest frame under `key`, or `None` if the key has never
    /// been written (I/O failures are `Err`, not `None`).
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;
    /// Whether `key` has a frame `get` would return, answered without
    /// reading one.
    fn contains(&self, key: &str) -> Result<bool>;
    /// Remove every frame of `key` (idempotent; removing an absent key
    /// is `Ok`).
    fn remove(&self, key: &str) -> Result<()>;
    /// All keys currently persisted, in sorted order.
    fn keys(&self) -> Result<Vec<String>>;

    /// Every retained frame of `key`, newest first, as
    /// `(generation, bytes)` pairs. A generation names one frame for
    /// good: it is never reused for a later `put` of the same key.
    fn history(&self, key: &str) -> Result<Vec<(u64, Vec<u8>)>>;

    /// Move the given frame aside so recovery never reads it again
    /// (called on frames that fail to decode). Must be idempotent.
    fn quarantine(&self, key: &str, generation: u64) -> Result<()>;
}

/// Delegation through shared ownership: `Arc<B>` is a backend whenever
/// `B` is, so one backend can outlive any particular store (the crash
/// recovery tests drop a store and reopen a new one over the same
/// `Arc<MemoryBackend>`).
impl<B: SnapshotBackend + ?Sized> SnapshotBackend for std::sync::Arc<B> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        (**self).put(key, bytes)
    }
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        (**self).get(key)
    }
    fn contains(&self, key: &str) -> Result<bool> {
        (**self).contains(key)
    }
    fn remove(&self, key: &str) -> Result<()> {
        (**self).remove(key)
    }
    fn keys(&self) -> Result<Vec<String>> {
        (**self).keys()
    }
    fn history(&self, key: &str) -> Result<Vec<(u64, Vec<u8>)>> {
        (**self).history(key)
    }
    fn quarantine(&self, key: &str, generation: u64) -> Result<()> {
        (**self).quarantine(key, generation)
    }
}

/// Frames retained per key by default (newest included).
const DEFAULT_KEEP: usize = 4;

/// One key's retained frames, oldest first, and the generation its
/// next `put` gets. `next` only grows, so a generation is never
/// reused, not even after its frame was quarantined or removed.
#[derive(Debug, Default)]
struct KeyFrames {
    frames: VecDeque<(u64, Vec<u8>)>,
    next: u64,
}

/// Per-key frame histories.
type FrameMap = BTreeMap<String, KeyFrames>;

/// An in-memory backend: a mutexed map of per-key frame histories.
#[derive(Debug)]
pub struct MemoryBackend {
    inner: Mutex<FrameMap>,
    keep: usize,
}

impl Default for MemoryBackend {
    fn default() -> Self {
        Self::with_keep(DEFAULT_KEEP)
    }
}

impl MemoryBackend {
    /// An empty backend retaining the default number of frames per key.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty backend retaining the last `keep` frames per key
    /// (`keep` is clamped to at least 1).
    pub fn with_keep(keep: usize) -> Self {
        MemoryBackend {
            inner: Mutex::new(BTreeMap::new()),
            keep: keep.max(1),
        }
    }

    /// The map lock, recovered from poisoning. Every operation below
    /// mutates the map through single `BTreeMap`/`VecDeque` calls that
    /// either complete or leave the value untouched, so data behind a
    /// poisoned lock is still consistent — recover it instead of
    /// panicking the next caller (`into_inner`-style).
    fn map(&self) -> MutexGuard<'_, FrameMap> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SnapshotBackend for MemoryBackend {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let mut map = self.map();
        let key = map.entry(key.to_string()).or_default();
        key.frames.push_back((key.next, bytes.to_vec()));
        key.next += 1;
        while key.frames.len() > self.keep {
            key.frames.pop_front();
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self
            .map()
            .get(key)
            .and_then(|key| key.frames.back())
            .map(|(_, bytes)| bytes.clone()))
    }

    fn contains(&self, key: &str) -> Result<bool> {
        Ok(self
            .map()
            .get(key)
            .is_some_and(|key| !key.frames.is_empty()))
    }

    fn remove(&self, key: &str) -> Result<()> {
        if let Some(key) = self.map().get_mut(key) {
            key.frames.clear();
        }
        Ok(())
    }

    fn keys(&self) -> Result<Vec<String>> {
        Ok(self
            .map()
            .iter()
            .filter(|(_, key)| !key.frames.is_empty())
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn history(&self, key: &str) -> Result<Vec<(u64, Vec<u8>)>> {
        Ok(self
            .map()
            .get(key)
            .map(|key| key.frames.iter().rev().cloned().collect())
            .unwrap_or_default())
    }

    fn quarantine(&self, key: &str, generation: u64) -> Result<()> {
        if let Some(key) = self.map().get_mut(key) {
            key.frames.retain(|(g, _)| *g != generation);
        }
        Ok(())
    }
}

/// Extension of snapshot files written by [`DirBackend`].
const SNAPSHOT_EXT: &str = "emsnap";
/// Subdirectory corrupt frames are moved into.
const QUARANTINE_DIR: &str = "quarantine";

/// One key's live generations on disk, ascending, and the generation
/// its next `put` gets — past every live *and* quarantined frame of the
/// key, so a generation number is never reused.
#[derive(Debug, Default)]
struct KeyGenerations {
    live: VecDeque<u64>,
    next: u64,
}

/// A directory-of-files backend with generational frames:
/// `<dir>/<key>/g<generation>.emsnap` per checkpoint, newest `keep`
/// retained.
///
/// Writes go through a temp file and an atomic rename, so a crash
/// mid-write leaves every committed frame intact (the orphaned temp
/// file is swept on the next [`DirBackend::new`]). Keys are restricted
/// to filename-safe characters (`[A-Za-z0-9._-]`) so a session id can
/// never escape the directory; `quarantine` is reserved for the corrupt
/// frames moved aside by recovery.
///
/// Each key's live generations are listed from disk once, on its first
/// touch, and kept in memory after that: a `put` writes one file and
/// prunes by name, without listing the directory. The backend assumes
/// it is the directory's only writer.
#[derive(Debug)]
pub struct DirBackend {
    dir: PathBuf,
    keep: usize,
    generations: Mutex<BTreeMap<String, KeyGenerations>>,
}

impl DirBackend {
    /// Open (creating if needed) a snapshot directory with the default
    /// retention, sweeping any orphaned temp files a crash left behind.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::with_generations(dir, DEFAULT_KEEP)
    }

    /// Open a snapshot directory retaining the last `keep` frames per
    /// key (clamped to at least 1).
    pub fn with_generations(dir: impl Into<PathBuf>, keep: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            EmError::storage_io(format!("creating snapshot dir {}", dir.display()), &e)
        })?;
        let backend = DirBackend {
            dir,
            keep: keep.max(1),
            generations: Mutex::new(BTreeMap::new()),
        };
        backend.sweep_orphaned_temp_files()?;
        Ok(backend)
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Frames retained per key.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// File names currently in `quarantine/` (sorted) — the corrupt
    /// frames recovery has moved aside.
    pub fn quarantined(&self) -> Result<Vec<String>> {
        let mut names = list_names(&self.dir.join(QUARANTINE_DIR))?;
        names.sort_unstable();
        Ok(names)
    }

    /// Remove `.tmp` files orphaned by a crash between write and rename
    /// — they were never committed, so deleting them is always safe.
    fn sweep_orphaned_temp_files(&self) -> Result<()> {
        let mut dirs = vec![self.dir.clone()];
        for entry in std::fs::read_dir(&self.dir)
            .map_err(|e| EmError::storage_io(format!("listing {}", self.dir.display()), &e))?
        {
            let entry = entry
                .map_err(|e| EmError::storage_io(format!("listing {}", self.dir.display()), &e))?;
            let path = entry.path();
            if path.is_dir() && entry.file_name().to_str() != Some(QUARANTINE_DIR) {
                dirs.push(path);
            }
        }
        for dir in dirs {
            for entry in std::fs::read_dir(&dir)
                .map_err(|e| EmError::storage_io(format!("listing {}", dir.display()), &e))?
            {
                let entry = entry
                    .map_err(|e| EmError::storage_io(format!("listing {}", dir.display()), &e))?;
                let name = entry.file_name();
                let is_tmp = name.to_str().is_some_and(|n| n.ends_with(".tmp"));
                if is_tmp && entry.path().is_file() {
                    std::fs::remove_file(entry.path()).map_err(|e| {
                        EmError::storage_io(
                            format!("sweeping orphan {}", entry.path().display()),
                            &e,
                        )
                    })?;
                }
            }
        }
        Ok(())
    }

    fn key_dir(&self, key: &str) -> Result<PathBuf> {
        if key.is_empty()
            || key == QUARANTINE_DIR
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
            || key.starts_with('.')
        {
            return Err(EmError::Storage(format!(
                "session key `{key}` is not filename-safe \
                 ([A-Za-z0-9._-], not dot-leading, not `{QUARANTINE_DIR}`)"
            )));
        }
        Ok(self.dir.join(key))
    }

    fn frame_name(generation: u64) -> String {
        format!("g{generation:016x}.{SNAPSHOT_EXT}")
    }

    /// Parse `g<16-hex>.emsnap` back into a generation.
    fn parse_frame_name(name: &str) -> Option<u64> {
        let hex = name
            .strip_prefix('g')?
            .strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()
    }

    /// Run `f` on `key`'s generations, listing them from disk first if
    /// this is the key's first touch: the live frames in its directory,
    /// and its quarantined frames, which only raise `next`.
    fn with_key<R>(&self, key: &str, f: impl FnOnce(&mut KeyGenerations) -> R) -> Result<R> {
        let dir = self.key_dir(key)?;
        let mut generations = self
            .generations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !generations.contains_key(key) {
            let mut live: Vec<u64> = list_names(&dir)?
                .iter()
                .filter_map(|name| Self::parse_frame_name(name))
                .collect();
            live.sort_unstable();
            let quarantined = list_names(&self.dir.join(QUARANTINE_DIR))?
                .into_iter()
                .filter_map(|name| {
                    Self::parse_frame_name(name.strip_prefix(key)?.strip_prefix('.')?)
                })
                .max();
            let next = live.last().max(quarantined.as_ref()).map_or(0, |g| g + 1);
            generations.insert(
                key.to_string(),
                KeyGenerations {
                    live: live.into(),
                    next,
                },
            );
        }
        let state = generations
            .get_mut(key)
            .ok_or_else(|| EmError::Internal(format!("generations of `{key}` vanished")))?;
        Ok(f(state))
    }
}

/// File names in `dir`; a missing directory lists as empty.
fn list_names(dir: &Path) -> Result<Vec<String>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(EmError::storage_io(
                format!("listing {}", dir.display()),
                &e,
            ))
        }
    };
    let mut names = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| EmError::storage_io(format!("listing {}", dir.display()), &e))?;
        if let Some(name) = entry.file_name().to_str() {
            names.push(name.to_string());
        }
    }
    Ok(names)
}

/// Remove `path`; an already-missing file is not an error.
fn remove_if_present(path: &Path, what: &str) -> Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(EmError::storage_io(
            format!("{what} {}", path.display()),
            &e,
        )),
    }
}

impl SnapshotBackend for DirBackend {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let dir = self.key_dir(key)?;
        let (gen, first) = self.with_key(key, |g| {
            g.next += 1;
            (g.next - 1, g.live.is_empty())
        })?;
        if first {
            std::fs::create_dir_all(&dir)
                .map_err(|e| EmError::storage_io(format!("creating {}", dir.display()), &e))?;
        }
        let path = dir.join(Self::frame_name(gen));
        let tmp = dir.join(format!(".{}.tmp", Self::frame_name(gen)));
        std::fs::write(&tmp, bytes)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| EmError::storage_io(format!("writing snapshot {}", path.display()), &e))?;
        // Record the frame, then prune past the retention window,
        // oldest first.
        let pruned = self.with_key(key, |g| {
            let at = g.live.partition_point(|&live| live < gen);
            g.live.insert(at, gen);
            let excess = g.live.len().saturating_sub(self.keep);
            g.live.drain(..excess).collect::<Vec<_>>()
        })?;
        for old in pruned {
            remove_if_present(&dir.join(Self::frame_name(old)), "pruning old frame")?;
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let dir = self.key_dir(key)?;
        let Some(newest) = self.with_key(key, |g| g.live.back().copied())? else {
            return Ok(None);
        };
        let path = dir.join(Self::frame_name(newest));
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(EmError::storage_io(
                format!("reading snapshot {}", path.display()),
                &e,
            )),
        }
    }

    fn contains(&self, key: &str) -> Result<bool> {
        self.with_key(key, |g| !g.live.is_empty())
    }

    fn remove(&self, key: &str) -> Result<()> {
        let dir = self.key_dir(key)?;
        // Keep `next`: a recreated key continues past the removed frames.
        self.with_key(key, |g| g.live.clear())?;
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(EmError::storage_io(
                format!("removing snapshots {}", dir.display()),
                &e,
            )),
        }
    }

    fn keys(&self) -> Result<Vec<String>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| EmError::storage_io(format!("listing {}", self.dir.display()), &e))?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| EmError::storage_io(format!("listing {}", self.dir.display()), &e))?;
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == QUARANTINE_DIR || name.starts_with('.') {
                continue;
            }
            if self.with_key(name, |g| !g.live.is_empty())? {
                keys.push(name.to_string());
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }

    fn history(&self, key: &str) -> Result<Vec<(u64, Vec<u8>)>> {
        let dir = self.key_dir(key)?;
        let live = self.with_key(key, |g| g.live.clone())?;
        let mut frames = Vec::new();
        for gen in live.into_iter().rev() {
            let path = dir.join(Self::frame_name(gen));
            match std::fs::read(&path) {
                Ok(bytes) => frames.push((gen, bytes)),
                // Pruned concurrently — older than anything we care about.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(EmError::storage_io(
                        format!("reading snapshot {}", path.display()),
                        &e,
                    ))
                }
            }
        }
        Ok(frames)
    }

    /// Move the frame into `quarantine/<key>.g<generation>.emsnap`. The
    /// move never replaces a file: should that name exist, the frame
    /// gets the first free `.<n>` suffix instead.
    fn quarantine(&self, key: &str, generation: u64) -> Result<()> {
        let src = self.key_dir(key)?.join(Self::frame_name(generation));
        self.with_key(key, |g| g.live.retain(|&live| live != generation))?;
        let qdir = self.dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&qdir)
            .map_err(|e| EmError::storage_io(format!("creating {}", qdir.display()), &e))?;
        let name = format!("{key}.{}", Self::frame_name(generation));
        for n in 0u64.. {
            let dst = match n {
                0 => qdir.join(&name),
                n => qdir.join(format!("{name}.{n}")),
            };
            // A hard link fails instead of replacing an existing `dst`.
            match std::fs::hard_link(&src, &dst) {
                Ok(()) => return remove_if_present(&src, "quarantining"),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()), // idempotent
                Err(e) => {
                    return Err(EmError::storage_io(
                        format!("quarantining {}", src.display()),
                        &e,
                    ))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn SnapshotBackend) {
        assert_eq!(backend.keys().unwrap(), Vec::<String>::new());
        assert_eq!(backend.get("a").unwrap(), None);
        assert!(!backend.contains("a").unwrap());
        assert_eq!(backend.history("a").unwrap(), vec![]);
        backend.put("a", b"one").unwrap();
        assert!(backend.contains("a").unwrap());
        backend.put("b", b"two").unwrap();
        backend.put("a", b"three").unwrap(); // supersede
        assert_eq!(backend.get("a").unwrap().unwrap(), b"three");
        assert_eq!(backend.keys().unwrap(), vec!["a", "b"]);
        // History is newest first and retains the superseded frame.
        let history = backend.history("a").unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].1, b"three");
        assert_eq!(history[1].1, b"one");
        assert!(history[0].0 > history[1].0, "generations not descending");
        backend.remove("a").unwrap();
        backend.remove("a").unwrap(); // idempotent
        assert_eq!(backend.get("a").unwrap(), None);
        assert!(!backend.contains("a").unwrap());
        assert_eq!(backend.keys().unwrap(), vec!["b"]);
        // A key whose every frame is quarantined holds nothing.
        backend.put("c", b"bad").unwrap();
        let only = backend.history("c").unwrap()[0].0;
        backend.quarantine("c", only).unwrap();
        assert!(!backend.contains("c").unwrap());
        assert_eq!(backend.get("c").unwrap(), None);
        assert_eq!(backend.keys().unwrap(), vec!["b"]);
    }

    fn retention(backend: &dyn SnapshotBackend, keep: usize) {
        for i in 0..10u8 {
            backend.put("k", &[i]).unwrap();
        }
        let history = backend.history("k").unwrap();
        assert_eq!(history.len(), keep, "retention window not enforced");
        assert_eq!(history[0].1, vec![9], "newest frame wrong");
        assert_eq!(backend.get("k").unwrap().unwrap(), vec![9]);
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
        retention(&MemoryBackend::new(), DEFAULT_KEEP);
    }

    #[test]
    fn memory_backend_recovers_from_poisoned_lock() {
        let backend = MemoryBackend::new();
        backend.put("before", b"ok").unwrap();
        // Poison the mutex: panic while holding the lock (as a panicking
        // serve-layer thread would).
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = backend.inner.lock().unwrap();
            panic!("worker thread dies mid-operation");
        }));
        assert!(poisoned.is_err());
        assert!(backend.inner.lock().is_err(), "lock not actually poisoned");
        // Every subsequent op still succeeds — the store degrades one
        // operation, never the whole backend.
        assert_eq!(backend.get("before").unwrap().unwrap(), b"ok");
        backend.put("after", b"also ok").unwrap();
        assert_eq!(backend.keys().unwrap(), vec!["after", "before"]);
        backend.remove("before").unwrap();
        assert_eq!(backend.keys().unwrap(), vec!["after"]);
    }

    #[test]
    fn memory_backend_quarantine_hides_a_generation() {
        let backend = MemoryBackend::new();
        backend.put("k", b"good-old").unwrap();
        backend.put("k", b"bad-new").unwrap();
        let newest_gen = backend.history("k").unwrap()[0].0;
        backend.quarantine("k", newest_gen).unwrap();
        assert_eq!(backend.get("k").unwrap().unwrap(), b"good-old");
        backend.quarantine("k", newest_gen).unwrap(); // idempotent
        assert_eq!(backend.history("k").unwrap().len(), 1);
    }

    #[test]
    fn memory_backend_never_reuses_a_quarantined_generation() {
        let backend = MemoryBackend::new();
        backend.put("k", b"good").unwrap();
        backend.put("k", b"corrupt").unwrap();
        let corrupt = backend.history("k").unwrap()[0].0;
        backend.quarantine("k", corrupt).unwrap();
        backend.put("k", b"next").unwrap();
        let newest = backend.history("k").unwrap()[0].0;
        assert!(newest > corrupt, "generation {corrupt} reused");
        // A removed key continues past its old generations too.
        backend.remove("k").unwrap();
        backend.put("k", b"again").unwrap();
        assert!(backend.history("k").unwrap()[0].0 > newest);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("emsnap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_backend_contract_and_key_safety() {
        let dir = temp_dir("contract");
        let backend = DirBackend::new(&dir).unwrap();
        exercise(&backend);
        retention(&DirBackend::new(dir.join("ret")).unwrap(), DEFAULT_KEEP);
        // Unsafe keys cannot touch the filesystem.
        for bad in ["", "../escape", "a/b", ".hidden", "nul\0byte", "quarantine"] {
            assert!(backend.put(bad, b"x").is_err(), "key {bad:?} accepted");
        }
        // A second backend over the same directory sees the data.
        let reopened = DirBackend::new(&dir).unwrap();
        assert_eq!(reopened.keys().unwrap(), vec!["b"]);
        assert_eq!(reopened.get("b").unwrap().unwrap(), b"two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_quarantines_frames_into_subdir() {
        let dir = temp_dir("quarantine");
        let backend = DirBackend::new(&dir).unwrap();
        backend.put("k", b"good").unwrap();
        backend.put("k", b"corrupt").unwrap();
        let newest = backend.history("k").unwrap()[0].0;
        backend.quarantine("k", newest).unwrap();
        // The frame is gone from the live history but preserved on disk.
        assert_eq!(backend.get("k").unwrap().unwrap(), b"good");
        let quarantined = backend.quarantined().unwrap();
        assert_eq!(quarantined.len(), 1);
        assert!(quarantined[0].starts_with("k."), "{quarantined:?}");
        backend.quarantine("k", newest).unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_never_reuses_generations_across_quarantine_and_reopen() {
        let dir = temp_dir("no-reuse");
        let first_corrupt = {
            let backend = DirBackend::new(&dir).unwrap();
            backend.put("k", b"good").unwrap();
            backend.put("k", b"corrupt-1").unwrap();
            let corrupt = backend.history("k").unwrap()[0].0;
            backend.quarantine("k", corrupt).unwrap();
            corrupt
        };
        // A restart must not hand the quarantined generation out again,
        // and a second quarantine must not replace the first frame.
        let backend = DirBackend::new(&dir).unwrap();
        backend.put("k", b"corrupt-2").unwrap();
        let second_corrupt = backend.history("k").unwrap()[0].0;
        assert!(
            second_corrupt > first_corrupt,
            "generation {first_corrupt} reused after reopen"
        );
        backend.quarantine("k", second_corrupt).unwrap();
        let quarantined = backend.quarantined().unwrap();
        assert_eq!(quarantined.len(), 2, "{quarantined:?}");
        let evidence: Vec<Vec<u8>> = quarantined
            .iter()
            .map(|name| std::fs::read(dir.join(QUARANTINE_DIR).join(name)).unwrap())
            .collect();
        assert_eq!(evidence, vec![b"corrupt-1".to_vec(), b"corrupt-2".to_vec()]);
        assert_eq!(backend.get("k").unwrap().unwrap(), b"good");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_quarantine_never_replaces_a_file() {
        let dir = temp_dir("no-clobber");
        let backend = DirBackend::new(&dir).unwrap();
        backend.put("k", b"good").unwrap();
        backend.put("k", b"corrupt").unwrap();
        let corrupt = backend.history("k").unwrap()[0].0;
        // A file already holds the quarantine name (left by an older
        // tool or a copied-in directory).
        let qdir = dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&qdir).unwrap();
        let taken = qdir.join(format!("k.{}", DirBackend::frame_name(corrupt)));
        std::fs::write(&taken, b"older evidence").unwrap();
        backend.quarantine("k", corrupt).unwrap();
        assert_eq!(std::fs::read(&taken).unwrap(), b"older evidence");
        assert_eq!(backend.quarantined().unwrap().len(), 2);
        assert_eq!(backend.get("k").unwrap().unwrap(), b"good");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_new_sweeps_orphaned_temp_files() {
        let dir = temp_dir("sweep");
        {
            let backend = DirBackend::new(&dir).unwrap();
            backend.put("real", b"committed").unwrap();
        }
        // Plant orphans a crash between write and rename would leave:
        // one inside a key directory, one at the top level.
        let planted_inner = dir.join("real").join(".g00000000000000ff.emsnap.tmp");
        let planted_top = dir.join(".stray.tmp");
        std::fs::write(&planted_inner, b"half-written").unwrap();
        std::fs::write(&planted_top, b"half-written").unwrap();

        let backend = DirBackend::new(&dir).unwrap();
        assert!(!planted_inner.exists(), "inner orphan not swept");
        assert!(!planted_top.exists(), "top-level orphan not swept");
        // Committed data is untouched.
        assert_eq!(backend.get("real").unwrap().unwrap(), b"committed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_generations_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let backend = DirBackend::new(&dir).unwrap();
            backend.put("k", b"v0").unwrap();
            backend.put("k", b"v1").unwrap();
        }
        let backend = DirBackend::new(&dir).unwrap();
        let history = backend.history("k").unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].1, b"v1");
        // New puts continue the generation sequence past the old ones.
        backend.put("k", b"v2").unwrap();
        let history = backend.history("k").unwrap();
        assert_eq!(history[0].1, b"v2");
        assert!(history[0].0 > history[1].0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
