//! Serving-layer integration tests: the binary snapshot codec must
//! restore bit-identically to the JSON path for every strategy, a
//! crashed `SessionStore` must recover every session exactly, eviction
//! must never lose in-flight labels, and corrupt frames must always
//! decode to structured errors.

mod common;

use std::sync::{Arc, OnceLock};

use battleship_em::al::ExperimentConfig;
use battleship_em::api::{
    DirBackend, Label, MatchSession, MemoryBackend, PairIdx, RunReport, SessionConfig,
    SessionPhase, SessionSnapshot, SessionStore, SnapshotBackend, SnapshotCodec, StrategySpec,
};
use battleship_em::core::codec::{fnv1a64, frame_checksum, write_frame, ByteWriter};
use battleship_em::core::{EmError, RngState};
use battleship_em::matcher::MatcherSnapshot;
use common::{drive_stored, scenario};
use proptest::prelude::*;

fn quick_config(strategy: StrategySpec, seed: u64) -> SessionConfig {
    let mut experiment = ExperimentConfig::low_resource(2, 16);
    experiment.al.seed_size = 16;
    experiment.matcher.epochs = 4;
    experiment.battleship.kselect_sample = 128;
    SessionConfig {
        experiment,
        strategy,
        seed,
    }
}

/// The uninterrupted reference run for (strategy, seed) on the shared
/// scenario.
fn reference_report(strategy: StrategySpec, seed: u64) -> RunReport {
    let art = scenario().materialize().unwrap();
    let oracle = battleship_em::api::PerfectOracle::new();
    let mut session =
        MatchSession::new(&art.dataset, &art.features, quick_config(strategy, seed)).unwrap();
    session.drive(&oracle).unwrap()
}

/// Tentpole golden: for every strategy, a session interrupted
/// mid-protocol and pushed through BOTH codecs — snapshot → JSON →
/// restore → snapshot → binary → restore — finishes with a report
/// bit-identical (modulo wall-clock) to the uninterrupted run, and both
/// decode paths agree on the snapshot value itself.
#[test]
fn json_then_binary_restore_is_bit_identical_for_every_strategy() {
    let art = scenario().materialize().unwrap();
    for spec in StrategySpec::all() {
        let uninterrupted = reference_report(spec, 11);
        let mut session =
            MatchSession::new(&art.dataset, &art.features, quick_config(spec, 11)).unwrap();
        let mut interrupted_batches = 0usize;
        loop {
            match session.advance().unwrap() {
                SessionPhase::AwaitingLabels => {
                    // Interrupt mid-batch: answer half, then round-trip
                    // the session through JSON and binary in sequence.
                    if interrupted_batches < 2 {
                        interrupted_batches += 1;
                        let pairs = session.next_query_batch();
                        let half: Vec<(PairIdx, Label)> = pairs[..pairs.len() / 2]
                            .iter()
                            .map(|&p| (p, art.dataset.ground_truth(p)))
                            .collect();
                        session.submit_labels(&half).unwrap();

                        let snap = session.snapshot().unwrap();
                        let json = SnapshotCodec::Json.encode(&snap).unwrap();
                        let from_json = SnapshotCodec::Json.decode(&json).unwrap();
                        assert_eq!(from_json, snap, "JSON round-trip lossy for {spec:?}");
                        let mid =
                            MatchSession::restore(&art.dataset, &art.features, &from_json).unwrap();

                        let snap2 = mid.snapshot().unwrap();
                        assert_eq!(snap2, snap, "restore changed state for {spec:?}");
                        let bytes = SnapshotCodec::Binary.encode(&snap2).unwrap();
                        let from_bin = SnapshotCodec::Binary.decode(&bytes).unwrap();
                        assert_eq!(from_bin, snap, "binary round-trip lossy for {spec:?}");
                        assert!(
                            bytes.len() < json.len(),
                            "binary ({} B) not smaller than JSON ({} B) for {spec:?}",
                            bytes.len(),
                            json.len()
                        );
                        session =
                            MatchSession::restore(&art.dataset, &art.features, &from_bin).unwrap();
                    }
                    let rest: Vec<(PairIdx, Label)> = session
                        .next_query_batch()
                        .into_iter()
                        .map(|p| (p, art.dataset.ground_truth(p)))
                        .collect();
                    session.submit_labels(&rest).unwrap();
                }
                SessionPhase::Done => break,
                SessionPhase::SeedDraw | SessionPhase::Training => {}
            }
        }
        assert!(interrupted_batches >= 2, "protocol too short for {spec:?}");
        assert_eq!(
            session.into_report().canonical(),
            uninterrupted.canonical(),
            "codec chain diverged from the uninterrupted run for {spec:?}"
        );
    }
}

/// Acceptance: checkpoint all → drop store → reload from the (on-disk)
/// backend → finish reproduces every uninterrupted per-session report
/// exactly.
#[test]
fn store_crash_recovery_reproduces_every_report() {
    let dir = std::env::temp_dir().join(format!("serve-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan: Vec<(String, StrategySpec, u64)> = StrategySpec::all()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (format!("sess-{i}"), s, 21 + i as u64))
        .collect();

    // Phase 1: a store drives every session partway, checkpoints all,
    // then "crashes" (is dropped).
    {
        let store = SessionStore::new(
            Box::new(DirBackend::new(&dir).unwrap()),
            SnapshotCodec::Binary,
        );
        store.register_scenario(scenario());
        for (id, spec, seed) in &plan {
            store
                .create(id, scenario().name(), quick_config(*spec, *seed))
                .unwrap();
            store.advance(id).unwrap(); // seed batch out
                                        // Leave a half-labeled batch in flight — the hardest state.
            let batch = store.next_query_batch(id).unwrap();
            let artifacts = store.artifacts(id).unwrap();
            let half: Vec<(PairIdx, Label)> = batch[..batch.len() / 2]
                .iter()
                .map(|&p| (p, artifacts.dataset.ground_truth(p)))
                .collect();
            store.submit_labels(id, &half).unwrap();
        }
        let sizes = store.checkpoint_all().unwrap();
        assert_eq!(sizes.len(), plan.len());
    }

    // Phase 2: a fresh store over the same directory recovers and
    // finishes every session.
    let store = SessionStore::new(
        Box::new(DirBackend::new(&dir).unwrap()),
        SnapshotCodec::Binary,
    );
    store.register_scenario(scenario());
    let recovery = store.recover().unwrap();
    assert_eq!(recovery.recovered.len(), plan.len());
    assert!(recovery.quarantined.is_empty());
    assert!(recovery.lost.is_empty());
    for (id, spec, seed) in &plan {
        assert_eq!(
            store.get(id).unwrap().phase,
            SessionPhase::AwaitingLabels,
            "recovered `{id}` lost its in-flight batch"
        );
        drive_stored(&store, id);
        assert_eq!(
            store.report(id).unwrap().canonical(),
            reference_report(*spec, *seed).canonical(),
            "recovered `{id}` diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: evicting an in-flight (half-labeled) session
/// checkpoints first — evict → transparent reload → finish equals the
/// uninterrupted report, and the submitted half-batch survives.
#[test]
fn evict_of_in_flight_session_checkpoints_first() {
    let backend = Arc::new(MemoryBackend::new());
    let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
    store.register_scenario(scenario());
    store
        .create(
            "live",
            scenario().name(),
            quick_config(StrategySpec::Dal, 31),
        )
        .unwrap();
    store.advance("live").unwrap();
    let batch = store.next_query_batch("live").unwrap();
    let artifacts = store.artifacts("live").unwrap();
    let half: Vec<(PairIdx, Label)> = batch[..batch.len() / 2]
        .iter()
        .map(|&p| (p, artifacts.dataset.ground_truth(p)))
        .collect();
    store.submit_labels("live", &half).unwrap();
    let labels_before = store.get("live").unwrap().labels_used;
    assert_eq!(labels_before, half.len());

    store.evict("live").unwrap();
    assert_eq!(store.resident_len(), 0);
    // The checkpoint happened: the backend holds a decodable snapshot
    // with the half-batch intact.
    let bytes = {
        use battleship_em::api::SnapshotBackend as _;
        backend.get("live").unwrap().expect("evict must checkpoint")
    };
    let snap: SessionSnapshot = SnapshotCodec::Binary.decode(&bytes).unwrap();
    assert_eq!(snap.pending.as_ref().unwrap().received.len(), half.len());

    // Operations on the evicted id transparently reload and finish the
    // run exactly as if nothing happened.
    assert_eq!(store.get("live").unwrap().labels_used, labels_before);
    drive_stored(&store, "live");
    assert_eq!(
        store.report("live").unwrap().canonical(),
        reference_report(StrategySpec::Dal, 31).canonical(),
        "evict→reload→finish diverged from the uninterrupted run"
    );
}

/// Parallel stepping is bit-identical to forced-serial stepping for a
/// mixed-strategy session population.
#[test]
fn step_ready_sessions_matches_serial_stepping() {
    let run = |serial: bool| -> Vec<RunReport> {
        let store = SessionStore::new(Box::new(MemoryBackend::new()), SnapshotCodec::Binary);
        store.register_scenario(scenario());
        let ids: Vec<String> = StrategySpec::all()
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let id = format!("p{i}");
                store
                    .create(&id, scenario().name(), quick_config(s, 40 + i as u64))
                    .unwrap();
                id
            })
            .collect();
        let drive = || loop {
            for id in &ids {
                let batch = store.next_query_batch(id).unwrap();
                if batch.is_empty() {
                    continue;
                }
                let artifacts = store.artifacts(id).unwrap();
                let answers: Vec<(PairIdx, Label)> = batch
                    .iter()
                    .map(|&p| (p, artifacts.dataset.ground_truth(p)))
                    .collect();
                store.submit_labels(id, &answers).unwrap();
            }
            if store.step_ready_sessions().unwrap().is_empty() {
                break;
            }
        };
        if serial {
            rayon::serial_scope(drive);
        } else {
            drive();
        }
        ids.iter()
            .map(|id| store.report(id).unwrap().canonical())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true));
}

/// A mid-run snapshot with every optional field populated, shared by
/// the corruption proptests.
fn snapshot_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let art = scenario().materialize().unwrap();
        let mut session = MatchSession::new(
            &art.dataset,
            &art.features,
            quick_config(StrategySpec::Random, 13),
        )
        .unwrap();
        session.advance().unwrap();
        let pairs = session.next_query_batch();
        let answers: Vec<(PairIdx, Label)> = pairs
            .iter()
            .map(|&p| (p, art.dataset.ground_truth(p)))
            .collect();
        session.submit_labels(&answers).unwrap();
        session.advance().unwrap(); // train → next batch pending
        let half: Vec<(PairIdx, Label)> = session.next_query_batch()[..2]
            .iter()
            .map(|&p| (p, art.dataset.ground_truth(p)))
            .collect();
        session.submit_labels(&half).unwrap();
        session.snapshot().unwrap().to_bytes()
    })
}

/// `frame` re-framed exactly as format version 1 wrote it: the same
/// envelope with version byte 1 and a byte-wise FNV-1a 64 checksum.
fn as_version_1(frame: &[u8]) -> Vec<u8> {
    let mut body = frame[..frame.len() - 8].to_vec();
    body[4] = 1;
    let sum = fnv1a64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// `frame` re-framed with version byte `version` and the word checksum
/// formats 2 and later use. The envelope is the one every version
/// wrote; the payloads of versions 2 and 3 also carried the scratch
/// membership set (and version 2 a matcher presence byte where later
/// formats have a tag), so only the version byte is checked here.
fn as_version(frame: &[u8], version: u8) -> Vec<u8> {
    let mut body = frame[..frame.len() - 8].to_vec();
    body[4] = version;
    let sum = frame_checksum(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Decoding a frame of an old format version must fail on its version,
/// before the checksum is even looked at.
fn assert_version_rejected<T>(decoded: Result<T, EmError>, context: &str, found: u8, expected: u8) {
    let wanted = format!("unsupported format version {found} (expected {expected})");
    match decoded {
        Err(EmError::Codec(msg)) => {
            assert!(msg.starts_with(context) && msg.contains(&wanted), "{msg}")
        }
        Err(other) => panic!("{context}: non-codec error {other}"),
        Ok(_) => panic!("{context}: a version-{found} frame decoded"),
    }
}

/// Recovery over `[good, old]` quarantines the old-format newest frame
/// and restores the good one under it.
fn assert_old_frame_quarantined(good: &[u8], old: &[u8]) {
    let backend = Arc::new(MemoryBackend::with_keep(4));
    backend.put("s", good).unwrap();
    backend.put("s", old).unwrap();
    let store = SessionStore::new(Box::new(backend.clone()), SnapshotCodec::Binary);
    store.register_scenario(scenario());
    let report = store.recover().unwrap();
    assert_eq!(report.recovered, vec!["s".to_string()]);
    assert_eq!(report.quarantined, vec![("s".to_string(), 1)]);
    assert!(report.lost.is_empty());
    assert_eq!(store.get("s").unwrap().phase, SessionPhase::AwaitingLabels);
}

/// Frames written by the version-1 codec (byte-wise FNV-1a checksum)
/// decode to the structured version error for each of the three framed
/// types, and recovery quarantines such a frame and falls back to the
/// generation under it.
#[test]
fn version_1_frames_are_rejected_and_quarantined() {
    let bytes = snapshot_bytes();
    let snap = SessionSnapshot::from_bytes(bytes).unwrap();
    let nested = [
        snap.rng.to_bytes(),
        snap.matcher.as_ref().unwrap().to_bytes(),
    ];
    assert_version_rejected(
        RngState::from_bytes(&as_version_1(&nested[0])),
        "RngState",
        1,
        2,
    );
    assert_version_rejected(
        MatcherSnapshot::from_bytes(&as_version_1(&nested[1])),
        "MatcherSnapshot",
        1,
        2,
    );
    // A version-1 session frame nests version-1 frames of the same size.
    let mut old = bytes.clone();
    for frame in &nested {
        let at = old
            .windows(frame.len())
            .position(|w| w == frame.as_slice())
            .unwrap();
        old[at..at + frame.len()].copy_from_slice(&as_version_1(frame));
    }
    let old = as_version_1(&old);
    assert_eq!(old.len(), bytes.len());
    assert_version_rejected(SessionSnapshot::from_bytes(&old), "SessionSnapshot", 1, 5);
    assert_old_frame_quarantined(bytes, &old);
}

/// `frame` (format 5) rebuilt as format 4 wrote it: the unlabeled
/// pool's varints after the rng block, and the pending batch's seed
/// flag after its pairs.
fn as_version_4(frame: &[u8]) -> Vec<u8> {
    let snap = SessionSnapshot::from_bytes(frame).unwrap();
    let pending = snap.pending.as_ref().unwrap();
    let art = scenario().materialize().unwrap();
    let pool: Vec<PairIdx> = art
        .dataset
        .split()
        .train
        .iter()
        .copied()
        .filter(|p| !snap.train.contains(p) && !pending.pairs.contains(p))
        .collect();
    let varints = |xs: &[usize]| {
        let mut w = ByteWriter::new();
        w.put_varints(xs);
        w.into_bytes()
    };
    // The end of the last occurrence of `needle` in `payload`.
    let end_of = |payload: &[u8], needle: &[u8]| {
        let at = payload.windows(needle.len()).rposition(|w| w == needle);
        at.unwrap() + needle.len()
    };
    let payload = &frame[13..frame.len() - 8];
    let after_rng = end_of(payload, &snap.rng.to_bytes());
    // The pending batch: its presence byte, then its pairs.
    let after_pairs = end_of(payload, &[&[1], &varints(&pending.pairs)[..]].concat());
    assert!(after_rng < after_pairs);
    let old = [
        &payload[..after_rng],
        &varints(&pool),
        &payload[after_rng..after_pairs],
        &[0], // a selected batch, not the seed
        &payload[after_pairs..],
    ]
    .concat();
    write_frame(*b"BSSS", 4, &old)
}

/// Version-2, -3 and -4 session frames (format 5 has no read path for
/// any of them) are rejected by their version and quarantined by
/// recovery.
#[test]
fn version_2_session_frames_are_rejected_and_quarantined() {
    let bytes = snapshot_bytes();
    for (version, old) in [
        (2, as_version(bytes, 2)),
        (3, as_version(bytes, 3)),
        (4, as_version_4(bytes)),
    ] {
        assert_version_rejected(
            SessionSnapshot::from_bytes(&old),
            "SessionSnapshot",
            version,
            5,
        );
        assert_old_frame_quarantined(bytes, &old);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Satellite: `from_bytes` on a truncated frame is always a
    /// structured codec error — never a panic, never a bogus decode.
    #[test]
    fn truncated_frames_decode_to_structured_errors(cut_frac in 0.0f64..1.0) {
        let bytes = snapshot_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        match SessionSnapshot::from_bytes(&bytes[..cut.min(bytes.len() - 1)]) {
            Err(EmError::Codec(_)) => {}
            Err(other) => prop_assert!(false, "non-codec error {other}"),
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
        }
    }

    /// Satellite: any single flipped bit anywhere in the frame is
    /// detected (checksum, magic, version or tag validation).
    #[test]
    fn bit_flipped_frames_decode_to_structured_errors(
        pos_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let bytes = snapshot_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;
        match SessionSnapshot::from_bytes(&bad) {
            Err(EmError::Codec(_)) => {}
            Err(other) => prop_assert!(false, "non-codec error {other}"),
            Ok(_) => prop_assert!(false, "flip at byte {pos} bit {bit} went undetected"),
        }
    }
}
