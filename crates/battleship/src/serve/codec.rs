//! Pluggable snapshot encodings for the serving layer.
//!
//! The store persists [`SessionSnapshot`]s through exactly one of two
//! wire formats:
//!
//! * [`SnapshotCodec::Json`] — the original `serde` path: human
//!   readable, diffable, and the compatibility format every existing
//!   checkpoint was written in. A JSON store writes each checkpoint as
//!   one self-contained snapshot;
//! * [`SnapshotCodec::Binary`] — the compact frame of
//!   [`SessionSnapshot::to_bytes`]: float bit patterns instead of
//!   decimal renderings, a version byte (format 5) and a word-wide
//!   64-bit checksum (`em_core::codec::frame_checksum`), and the store's
//!   default. A binary store writes the matcher once per training as
//!   its own blob and each checkpoint as a small frame naming it (see
//!   [`SessionStore`](super::SessionStore)). Frames of any other format
//!   version are rejected with a structured error, so JSON is the path
//!   for moving checkpoints across format versions.
//!
//! Both decode to the *same* [`SessionSnapshot`] value, so a session
//! restored from either continues bit-identically; the golden tests in
//! `tests/serve_api.rs` pin JSON→restore ≡ binary→restore for every
//! strategy. [`SnapshotCodec::decode`] sniffs nothing: each codec only
//! accepts its own format, and corruption is a structured error.

use em_core::{EmError, Result};

use crate::session::SessionSnapshot;

/// Which wire format a [`SessionStore`](super::SessionStore) persists
/// snapshots in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotCodec {
    /// `serde_json` text — the readable/compatible format.
    Json,
    /// The compact checksummed binary frame (the default).
    #[default]
    Binary,
}

impl SnapshotCodec {
    /// Display name (used in bench output and backend metadata).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotCodec::Json => "json",
            SnapshotCodec::Binary => "binary",
        }
    }

    /// Encode a snapshot under this codec.
    pub fn encode(self, snapshot: &SessionSnapshot) -> Result<Vec<u8>> {
        match self {
            SnapshotCodec::Json => serde_json::to_string(snapshot)
                .map(String::into_bytes)
                .map_err(|e| EmError::Codec(format!("SessionSnapshot JSON encode: {e}"))),
            SnapshotCodec::Binary => Ok(snapshot.to_bytes()),
        }
    }

    /// Decode bytes written by [`SnapshotCodec::encode`] under the same
    /// codec. Malformed input is a structured [`EmError::Codec`].
    pub fn decode(self, bytes: &[u8]) -> Result<SessionSnapshot> {
        match self {
            SnapshotCodec::Json => {
                let text = std::str::from_utf8(bytes).map_err(|e| {
                    EmError::Codec(format!("SessionSnapshot JSON is not UTF-8: {e}"))
                })?;
                serde_json::from_str(text)
                    .map_err(|e| EmError::Codec(format!("SessionSnapshot JSON decode: {e}")))
            }
            SnapshotCodec::Binary => SessionSnapshot::from_bytes(bytes),
        }
    }
}
