//! The battleship selection strategy (§3 end-to-end).

use em_core::{EmError, Result, Rng};
use em_graph::NodeKind;

use crate::budget::positive_budget;
use crate::selection::select_side_with;
use crate::spatial::{SpatialIndex, SpatialParams};
use crate::strategies::{
    split_budget_with_spill, split_by_prediction, Selection, SelectionContext, SelectionStrategy,
};
use crate::weak::weak_side;

/// The paper's approach: correspondence via per-side graphs and Eq. 2
/// budgets, certainty via spatial entropy (Eq. 4), centrality via
/// weighted PageRank (Eq. 5), rank-blended by `α` (Eq. 6), plus
/// spatially-confident weak supervision (§3.7).
#[derive(Debug, Default)]
pub struct BattleshipStrategy;

impl BattleshipStrategy {
    /// Create the strategy (all parameters come from the
    /// [`SelectionContext`]'s config).
    pub fn new() -> Self {
        BattleshipStrategy
    }
}

/// One prediction side's spatial machinery, ready for selection.
struct Side {
    /// Spatial index over the side's nodes.
    index: SpatialIndex,
    /// Side node → pool position. Pool positions are the first rows of
    /// the heterogeneous graph, so this is also the side node's
    /// heterogeneous node id.
    positions: Vec<usize>,
}

impl SelectionStrategy for BattleshipStrategy {
    fn name(&self) -> String {
        "battleship".into()
    }

    fn select(&mut self, ctx: &mut SelectionContext<'_>, rng: &mut Rng) -> Result<Selection> {
        let params = &ctx.config.battleship;
        let n_pool = ctx.pool.len();
        if n_pool == 0 {
            return Ok(Selection::default());
        }
        if ctx.pool_preds.len() != n_pool || ctx.pool_reprs.len() != n_pool {
            return Err(EmError::DimensionMismatch {
                context: "battleship pool inputs".into(),
                expected: n_pool,
                actual: ctx.pool_preds.len().min(ctx.pool_reprs.len()),
            });
        }

        // --- Heterogeneous graph over pool ∪ labeled (§3.3.3). ------------
        // The full representation matrix is L2-normalized ONCE here;
        // all three spatial indexes of this iteration (`G`, `G⁺`, `G⁻`)
        // are built from views of it via `build_normalized`, instead of
        // each build cloning and re-normalizing its input (per-row
        // normalization commutes with row gathering, so the per-side
        // graphs are identical to normalizing the gathered subsets).
        // Storage comes from the session's scratch, so successive
        // iterations reuse capacity instead of reallocating pool-sized
        // buffers per call.
        let n_train = ctx.train.len();
        let (hetero_reprs, kinds, confs) = ctx.scratch.take(ctx.pool_reprs.dim())?;
        kinds.reserve(n_pool + n_train);
        confs.reserve(n_pool + n_train);
        for i in 0..n_pool {
            hetero_reprs.push(ctx.pool_reprs.row(i))?;
            kinds.push(if ctx.pool_preds[i].label.is_match() {
                NodeKind::PredictedMatch
            } else {
                NodeKind::PredictedNonMatch
            });
            confs.push(ctx.pool_preds[i].confidence_in_label());
        }
        for j in 0..n_train {
            hetero_reprs.push(ctx.train_reprs.row(j))?;
            kinds.push(if ctx.train_labels[j].is_match() {
                NodeKind::LabeledMatch
            } else {
                NodeKind::LabeledNonMatch
            });
            confs.push(1.0);
        }
        hetero_reprs.normalize_rows();
        let (hetero_reprs, kinds, confs) = (&*hetero_reprs, &*kinds, &*confs);
        let pool_preds = ctx.pool_preds;

        // --- The three spatial indexes, built concurrently. ----------------
        // Each build seeds itself from its own draw and consumes no other
        // randomness, so all three seeds are drawn first, in a fixed order:
        // G, then G⁺, then G⁻ (both side seeds are drawn even when a side
        // is empty). Then G builds beside G⁺ + G⁻ in one `rayon::join`.
        // Each build is thread-count independent, and a call nested inside
        // either arm runs inline, so the two arms are two serial builds on
        // two cores; inside a grid cell or under `rayon::serial_scope` the
        // join runs both inline, G first. Errors surface in seed order.
        //
        // Side rows are gathered from the already-normalized matrix
        // (pool positions are rows 0..n_pool of `hetero_reprs`).
        let (pos_nodes, neg_nodes) = split_by_prediction(pool_preds);
        let hetero_seed = rng.next_u64();
        let plus_seed = rng.next_u64();
        let minus_seed = rng.next_u64();
        let build_side = |positions: &[usize], kind: NodeKind, seed: u64| -> Result<Option<Side>> {
            if positions.is_empty() {
                return Ok(None);
            }
            let reprs = hetero_reprs.gather(positions)?;
            let confs: Vec<f32> = positions
                .iter()
                .map(|&p| pool_preds[p].confidence_in_label())
                .collect();
            let index = SpatialIndex::build_normalized(
                &reprs,
                &vec![kind; positions.len()],
                &confs,
                &SpatialParams::from((params, seed)),
            )?;
            Ok(Some(Side {
                index,
                positions: positions.to_vec(),
            }))
        };
        let (hetero, sides) = rayon::join(
            || {
                SpatialIndex::build_normalized(
                    hetero_reprs,
                    kinds,
                    confs,
                    &SpatialParams::from((params, hetero_seed)),
                )
            },
            || -> Result<_> {
                let plus = build_side(&pos_nodes, NodeKind::PredictedMatch, plus_seed)?;
                let minus = build_side(&neg_nodes, NodeKind::PredictedNonMatch, minus_seed)?;
                Ok((plus, minus))
            },
        );
        let hetero = hetero?;
        let (plus, minus) = sides?;

        // --- Budgets (correspondence, §3.4). --------------------------------
        let b_pos_target = positive_budget(ctx.budget, ctx.iteration);
        let (b_pos, b_neg) =
            split_budget_with_spill(b_pos_target, ctx.budget, pos_nodes.len(), neg_nodes.len());

        // --- Selection per side (§3.5–3.6). ----------------------------------
        let mut to_label = Vec::with_capacity(ctx.budget);
        for (side, side_budget) in [(&plus, b_pos), (&minus, b_neg)] {
            let Some(side) = side else { continue };
            let picked = select_side_with(
                &side.index,
                &hetero.graph,
                &side.positions,
                side_budget,
                params.alpha,
                params.beta,
                params.rho,
                params.centrality,
                rng,
            )?;
            to_label.extend(picked.iter().map(|&local| ctx.pool[side.positions[local]]));
        }

        // --- Weak supervision (§3.7). -----------------------------------------
        let mut weak = Vec::new();
        if ctx.config.al.weak_supervision && ctx.config.al.weak_budget > 0 {
            let half = ctx.config.al.weak_budget / 2;
            let (w_pos, w_neg) = split_budget_with_spill(
                half,
                ctx.config.al.weak_budget,
                pos_nodes.len(),
                neg_nodes.len(),
            );
            for (side, side_budget) in [(&plus, w_pos), (&minus, w_neg)] {
                let Some(side) = side else { continue };
                let preds: Vec<_> = side.positions.iter().map(|&p| ctx.pool_preds[p]).collect();
                let pairs: Vec<_> = side.positions.iter().map(|&p| ctx.pool[p]).collect();
                weak.extend(weak_side(
                    &side.index,
                    &hetero.graph,
                    &side.positions,
                    &preds,
                    &pairs,
                    side_budget,
                    params.weak_method,
                    params.beta,
                    rng,
                )?);
            }
            // Pairs picked for oracle labeling get real labels; drop their
            // weak duplicates.
            let labeled: std::collections::HashSet<_> = to_label.iter().copied().collect();
            weak.retain(|(p, _)| !labeled.contains(p));
        }

        Ok(Selection { to_label, weak })
    }
}
