#![forbid(unsafe_code)]
//! # em-core
//!
//! Core data model and shared utilities for the `battleship-em` workspace —
//! a from-scratch Rust reproduction of *"The Battleship Approach to the Low
//! Resource Entity Matching Problem"* (Genossar, Gal & Shraga, SIGMOD 2023).
//!
//! This crate owns everything that every other crate needs and that carries
//! no algorithmic opinion of its own:
//!
//! * the **relational data model** for entity matching: [`Record`],
//!   [`Schema`], [`Table`], candidate [`pair::CandidatePair`]s and
//!   [`Dataset`]s with train/validation/test splits,
//! * **DITTO-style serialization** of tuple pairs into a
//!   `[CLS] [COL] a [VAL] v … [SEP] …` token stream (paper §2.1, Example 3),
//! * a **tokenizer** with word- and character-n-gram views used by both the
//!   featurizer and the similarity measures,
//! * **evaluation metrics**: precision / recall / F1, confusion matrices and
//!   the area-under-the-F1-curve measure used by Table 5,
//! * a deterministic, splittable **pseudo-random number generator** so every
//!   experiment in the workspace is reproducible from a single `u64` seed,
//! * the labeling [`Oracle`] abstraction (perfect and noisy variants),
//! * the stamped-set [`Membership`] structure for O(1)-reset membership
//!   tests over dense id spaces (the protocol driver's hot set tests),
//! * the **binary snapshot codec substrate** ([`codec`]): checksummed
//!   little-endian frames every checkpointable type builds its
//!   `to_bytes` / `from_bytes` on (the serving layer's compact
//!   persistence format).
//!
//! Everything is dependency-light: the only third-party crate is `serde`
//! (for experiment configs and reports).

pub mod codec;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod membership;
pub mod metrics;
pub mod oracle;
pub mod pair;
pub mod record;
pub mod rng;
pub mod serialize;
pub mod tokenize;

pub use codec::{ByteReader, ByteWriter};
pub use csv::{load_magellan_dir, parse_csv};
pub use dataset::{Dataset, DatasetStats, Split, SplitRatios};
pub use error::{EmError, Result};
pub use membership::Membership;
pub use metrics::{BinaryConfusion, F1Curve, Metrics};
pub use oracle::{NoisyOracle, Oracle, PerfectOracle};
pub use pair::{CandidatePair, Label, PairIdx, Prediction};
pub use record::{Record, RecordId, Schema, Table};
pub use rng::{Rng, RngState};
pub use serialize::{serialize_pair, serialize_record};
pub use tokenize::{
    char_ngrams, jaccard, jaccard_from_sizes, overlap_coefficient, overlap_from_sizes, tokenize,
    TokenSet,
};
