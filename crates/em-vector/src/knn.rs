//! Exact top-k nearest-neighbour search by cosine similarity.
//!
//! [`top_k`] is a brute-force scan, the FAISS `IndexFlatIP` equivalent
//! (the paper runs its nearest-neighbour calculations with FAISS, §4.2).
//! The pipeline does not call it: in-cluster edges come from each
//! cluster's Gram rows (`em_graph::build_graph_blocked`) and large
//! clusters go through [`crate::hnsw`]. It stays as the exact oracle
//! that HNSW recall is checked against.

use std::cmp::Ordering;

use em_core::{EmError, Result};

use crate::embeddings::Embeddings;

/// A search hit: the neighbour's index and its cosine similarity to the
/// query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbour (a row of the searched matrix for
    /// [`top_k`], an insertion index for [`crate::Hnsw`]).
    pub index: usize,
    /// Cosine similarity to the query, in `[-1, 1]`.
    pub similarity: f32,
}

impl Neighbor {
    fn better_than(&self, other: &Neighbor) -> bool {
        // Deterministic total order: higher similarity wins; ties break
        // toward the smaller index so results never depend on scan order.
        match self
            .similarity
            .partial_cmp(&other.similarity)
            .unwrap_or(Ordering::Equal)
        {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => self.index < other.index,
        }
    }
}

/// Keep the best `k` of a stream of candidates (small `k`, linear scan).
///
/// For small `k`, a sorted buffer beats a `BinaryHeap` on both speed
/// and determinism.
struct TopBuffer {
    k: usize,
    items: Vec<Neighbor>,
}

impl TopBuffer {
    fn new(k: usize) -> Self {
        TopBuffer {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    fn offer(&mut self, n: Neighbor) {
        if self.k == 0 {
            return;
        }
        if self.items.len() == self.k {
            // Worst item is last; skip candidates that cannot enter.
            if !n.better_than(self.items.last().expect("non-empty buffer")) {
                return;
            }
            self.items.pop();
        }
        let pos = self
            .items
            .iter()
            .position(|x| n.better_than(x))
            .unwrap_or(self.items.len());
        self.items.insert(pos, n);
    }

    fn into_sorted(self) -> Vec<Neighbor> {
        self.items
    }
}

/// Exact top-`k` cosine neighbours of `query` among all rows of `data`.
///
/// `exclude` (typically the query's own row) is skipped. Results are
/// sorted by descending similarity with index tiebreak. A query whose
/// length is not `data.dim()` is an [`EmError::DimensionMismatch`].
pub fn top_k(
    data: &Embeddings,
    query: &[f32],
    k: usize,
    exclude: Option<usize>,
) -> Result<Vec<Neighbor>> {
    if query.len() != data.dim() {
        return Err(EmError::DimensionMismatch {
            context: "exact top-k query".into(),
            expected: data.dim(),
            actual: query.len(),
        });
    }
    let mut buf = TopBuffer::new(k);
    for i in 0..data.len() {
        if exclude == Some(i) {
            continue;
        }
        buf.offer(Neighbor {
            index: i,
            similarity: crate::embeddings::cosine(query, data.row(i)),
        });
    }
    Ok(buf.into_sorted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::Rng;

    fn toy() -> Embeddings {
        Embeddings::from_rows(&[
            vec![1.0, 0.0],  // 0
            vec![0.9, 0.1],  // 1: close to 0
            vec![0.0, 1.0],  // 2: orthogonal to 0
            vec![-1.0, 0.0], // 3: opposite to 0
            vec![0.7, 0.7],  // 4: diagonal
        ])
        .unwrap()
    }

    #[test]
    fn top_k_orders_by_similarity() {
        let e = toy();
        let hits = top_k(&e, e.row(0), 3, Some(0)).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[1].index, 4);
        assert_eq!(hits[2].index, 2);
        assert!(hits[0].similarity >= hits[1].similarity);
        assert!(hits[1].similarity >= hits[2].similarity);
    }

    #[test]
    fn top_k_zero_k_is_empty() {
        let e = toy();
        assert!(top_k(&e, e.row(0), 0, None).unwrap().is_empty());
    }

    #[test]
    fn top_k_k_larger_than_data() {
        let e = toy();
        let hits = top_k(&e, e.row(0), 100, Some(0)).unwrap();
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn top_k_rejects_a_query_of_the_wrong_length() {
        let e = toy();
        for query in [&[1.0f32][..], &[1.0, 0.0, 0.0]] {
            match top_k(&e, query, 2, None) {
                Err(EmError::DimensionMismatch {
                    expected, actual, ..
                }) => {
                    assert_eq!(expected, 2);
                    assert_eq!(actual, query.len());
                }
                other => panic!("expected a dimension mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn ties_break_by_smaller_index() {
        let e = Embeddings::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let hits = top_k(&e, e.row(0), 1, Some(0)).unwrap();
        assert_eq!(hits[0].index, 1);
    }

    #[test]
    fn brute_force_agrees_with_naive_sort() {
        let mut rng = Rng::seed_from_u64(1234);
        let rows: Vec<Vec<f32>> = (0..60)
            .map(|_| (0..8).map(|_| rng.normal() as f32).collect())
            .collect();
        let e = Embeddings::from_rows(&rows).unwrap();
        for q in 0..10 {
            let fast = top_k(&e, e.row(q), 7, Some(q)).unwrap();
            // Naive: sort all.
            let mut all: Vec<Neighbor> = (0..e.len())
                .filter(|&i| i != q)
                .map(|i| Neighbor {
                    index: i,
                    similarity: e.cosine(q, i),
                })
                .collect();
            all.sort_by(|a, b| {
                b.similarity
                    .partial_cmp(&a.similarity)
                    .unwrap()
                    .then(a.index.cmp(&b.index))
            });
            let slow: Vec<usize> = all[..7].iter().map(|n| n.index).collect();
            let fast_idx: Vec<usize> = fast.iter().map(|n| n.index).collect();
            assert_eq!(fast_idx, slow, "query {q}");
        }
    }
}
