#![forbid(unsafe_code)]
//! # em-graph
//!
//! Pair graphs: the spatial data structure at the heart of the battleship
//! approach (paper §3.3).
//!
//! Tuple-pair representations become nodes of a weighted graph whose edges
//! encode latent-space proximity. The graph is built per cluster — each
//! node joins its `q` nearest in-cluster neighbours, plus a top fraction
//! of the remaining in-cluster pairs, never connecting two labeled nodes
//! (§3.3.2, reproduced exactly from the paper's Example 4 in this crate's
//! tests). On top of the graph this crate computes:
//!
//! * **connected components** ([`components`]) — the budget-distribution
//!   and selection granularity (§3.4),
//! * **weighted PageRank** ([`pagerank()`](pagerank::pagerank)) — the centrality criterion
//!   (Eq. 5),
//! * **spatial certainty** ([`certainty`]) — neighbourhood-agreement
//!   confidence (Eq. 3), binary entropy (Eq. 1) and their blend (Eq. 4),
//!   which overcomes the dichotomous confidence problem of pre-trained
//!   language models.

pub mod betweenness;
pub mod build;
pub mod certainty;
pub mod components;
pub mod graph;
pub mod pagerank;

pub use betweenness::{betweenness, betweenness_with_scratch, BetweennessScratch};
pub use build::{
    build_graph, build_graph_blocked, BlockedConfig, DotSim, EdgeConfig, MatrixSim, Similarity,
};
pub use certainty::{binary_entropy, certainty_score, spatial_confidence};
pub use components::connected_components;
pub use graph::{NodeKind, PairGraph};
pub use pagerank::{pagerank, PageRankConfig};
