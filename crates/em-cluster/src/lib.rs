#![forbid(unsafe_code)]
//! # em-cluster
//!
//! Clustering substrate for the `battleship-em` workspace.
//!
//! The battleship approach partitions the pair-representation space with a
//! *constrained* K-Means "to avoid small clusters that cannot be
//! represented under budget limitations, or alternatively, large clusters
//! that demand multiple similarity comparisons" (§3.3.1), choosing `k` by
//! the Kneedle algorithm over the SSE curve with a silhouette-score
//! fallback. The ZeroER baseline additionally needs a two-component
//! Gaussian mixture fitted by EM. All of that lives here:
//!
//! * [`kmeans()`](kmeans::kmeans) — Lloyd's algorithm with k-means++ seeding,
//! * [`constrained`] — min/max cluster-size enforcement, with a greedy
//!   capacity-respecting assignment (scales to the benchmark sizes) and
//!   an exact min-cost-flow assignment ([`flow`]) for small instances,
//! * [`kneedle`] — knee-point detection (Satopaa et al. 2011),
//! * [`silhouette`] — cluster-quality scoring (Rousseeuw 1987),
//! * [`kselect`] — the paper's `k`-selection policy combining the two,
//! * [`gmm`] — diagonal-covariance Gaussian mixture EM.

pub mod constrained;
pub mod flow;
pub mod gmm;
pub mod kmeans;
pub mod kneedle;
pub mod kselect;
pub mod silhouette;

pub use constrained::{constrained_kmeans, ConstrainedConfig};
pub use gmm::{Gmm, GmmConfig};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use kneedle::kneedle_decreasing;
pub use kselect::{select_k, KSelectConfig, KSelection, KSelectionMethod};
pub use silhouette::silhouette_score;
