#![forbid(unsafe_code)]
//! # em-matcher
//!
//! The neural matcher substrate — a laptop-scale stand-in for DITTO.
//!
//! The paper trains DITTO (RoBERTa fine-tuned per active-learning
//! iteration) and consumes exactly three of its outputs (§3.2): a pair
//! representation (the `[CLS]` embedding), a binary prediction, and a
//! confidence value that is *badly calibrated* — "transformer-based
//! pre-trained language models tend to produce an uncalibrated confidence
//! value, assigning mostly dichotomous values close to either 0 or 1"
//! (§3.5.1). This crate reproduces that interface with a from-scratch
//! multi-layer perceptron:
//!
//! * [`features`] — DITTO-style serialization is tokenized and hashed
//!   (signed feature hashing) together with binned overlap channels;
//!   features are a pure function of the text, so they are computed once
//!   per dataset and reused across iterations — each record is viewed
//!   once and the pairs are featurized across the pool,
//! * [`mlp`] — dense layers with ReLU, sigmoid head, manual
//!   backpropagation; the **last hidden activation is the pair
//!   representation** (the `[CLS]` analogue); both passes are
//!   layer-level GEMMs on `em-vector`'s runtime-dispatched kernels over
//!   a reusable workspace,
//! * [`adamw`] — the AdamW optimizer (Loshchilov & Hutter), which the
//!   paper also uses,
//! * [`matcher`] — the training loop: mini-batches, epochs, best-epoch
//!   selection by validation F1 (the paper's §4.2 protocol),
//! * [`calibration`] — temperature sharpening that reproduces the PLM
//!   over-confidence phenomenon (plus ECE to measure it),
//! * [`committee`] — multi-seed matcher committees for the DIAL baseline
//!   (query-by-committee uncertainty).

pub mod adamw;
pub mod calibration;
pub mod committee;
pub mod features;
mod labels;
pub mod matcher;
pub mod mlp;

pub use adamw::AdamW;
pub use calibration::{apply_temperature, expected_calibration_error};
pub use committee::{Committee, CommitteeConfig};
pub use features::{FeatureConfig, Featurizer};
pub use matcher::{train_matcher, MatcherConfig, MatcherOutput, MatcherSnapshot, TrainedMatcher};
pub use mlp::{Mlp, MlpWorkspace, DENSE_INPUT_DENSITY};
