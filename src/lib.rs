#![forbid(unsafe_code)]
//! # battleship-em
//!
//! A from-scratch Rust reproduction of *"The Battleship Approach to the
//! Low Resource Entity Matching Problem"* (Genossar, Gal & Shraga,
//! SIGMOD 2023).
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof so applications can depend on a single package. The documented
//! public surface for applications is [`api`] — sessions (the
//! step-driven, checkpointable active-learning loop), strategies,
//! scenarios, reports and the experiment engine behind one import path.
//!
//! ```
//! use battleship_em::synth::{DatasetProfile, generate};
//! use battleship_em::core::Rng;
//!
//! let profile = DatasetProfile::walmart_amazon().scaled(0.02);
//! let dataset = generate(&profile, &mut Rng::seed_from_u64(7)).unwrap();
//! assert!(dataset.len() > 0);
//! ```
//!
//! See the workspace `README.md` for the architecture overview: the
//! "Crate map" section layers the modules from the paper's algorithm up
//! to the experiment engine, and the "Session API" section has the
//! phase diagram.

pub use battleship::api;

pub use battleship as al;
pub use em_cluster as cluster;
pub use em_core as core;
pub use em_graph as graph;
pub use em_matcher as matcher;
pub use em_synth as synth;
pub use em_vector as vector;

/// Workspace version, from the facade crate's metadata.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
