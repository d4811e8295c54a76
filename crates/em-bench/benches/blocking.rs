//! Blocking-tier benchmark: sub-quadratic candidate generation for
//! 10⁵-record pools, gated on recall, reduction ratio and a
//! thread-aware speedup bound.
//!
//! Before timing, golden checks pin the tier's correctness contract:
//!
//! 1. a `BlockingSpec::Exhaustive` scenario is **bit-identical** to the
//!    legacy (pre-blocking) pair generation — same pairs, same split,
//!    same ground truth;
//! 2. at an anchor size where the exhaustive cross product is still
//!    co-computable, LSH and token candidates are sorted,
//!    duplicate-free subsets of the exhaustive pair set, and LSH output
//!    is identical under the forced-serial scheduler;
//! 3. blocking recall vs the pool's ground-truth matches clears the
//!    gate (default ≥ 0.95) for both LSH and token tiers.
//!
//! The headline measurement then runs a 10⁵-record pool through the LSH
//! tier via `Scenario::candidate_pool` — the exhaustive matrix (beyond
//! the 2²⁴ materialization cap) never exists — and records throughput
//! (candidate pairs/sec, from one call), recall and reduction ratio. A
//! smaller pool is timed parallel against `rayon::serial_scope` in 5
//! alternating pairs ([`em_bench::timing::paired`]) for the
//! thread-aware speedup gate on their median (≥ 2.5× with ≥ 4 worker
//! threads, ≥ 1.5× with 2–3, and a ≥ 0.97× no-regression bound on one
//! thread, where both paths run the same inline code).
//!
//! Finally, the `ann_cluster_threshold` sweep times
//! `em_graph::build_graph_blocked` on single clusters of doubling sizes
//! with ANN routing disabled vs forced, one pair per size, and reports
//! the measured exact→ANN crossover; the committed default in
//! `battleship::config` cites this table.
//!
//! Knobs (environment):
//! * `EM_BENCH_BLOCKING_RECORDS` — records in the headline pool
//!   (default 100 000);
//! * `EM_BENCH_BLOCKING_ANCHOR_RECORDS` — records in the co-computable
//!   anchor pool (default 4 000);
//! * `EM_BENCH_BLOCKING_SPEEDUP_RECORDS` — records in the speedup pool
//!   (default 20 000);
//! * `EM_BENCH_BLOCKING_MIN_RECALL` — recall gate (default 0.95);
//! * `EM_BENCH_BLOCKING_MIN_REDUCTION` — reduction-ratio gate
//!   (default 0.99);
//! * `EM_BENCH_BLOCKING_MIN_SPEEDUP` — override the thread-aware gate
//!   (set 0 to only report);
//! * `EM_BENCH_BLOCKING_SWEEP_SIZES` — comma-separated cluster sizes
//!   for the ANN sweep (default `2048,4096,8192,16384`; empty skips, a
//!   malformed entry panics);
//! * `EM_BENCH_BLOCKING_OUT` — output JSON path (default
//!   `BENCH_blocking.json`);
//! * `RAYON_NUM_THREADS` — worker threads.

use std::collections::HashSet;

use battleship::{block_tables, BlockingSpec, LshBlocking, Scenario, MAX_EXHAUSTIVE_PAIRS};
use em_bench::gate::{thread_aware, Gates};
use em_bench::timing::{paired, timed};
use em_bench::{env_or, parse_list};
use em_core::Rng;
use em_graph::{build_graph_blocked, BlockedConfig, EdgeConfig, NodeKind};
use em_synth::{blocking_recall, generate_pool, BlockingConfig, DatasetProfile, PoolProfile};
use em_vector::Embeddings;

/// Alternating parallel/serial pairs behind the speedup.
const PAIRS: usize = 5;

/// One row of the ANN-threshold sweep.
struct SweepRow {
    cluster_size: usize,
    exact_secs: f64,
    ann_secs: f64,
}

fn main() {
    let records: usize = env_or("EM_BENCH_BLOCKING_RECORDS", 100_000);
    let anchor_records: usize = env_or("EM_BENCH_BLOCKING_ANCHOR_RECORDS", 4_000);
    let speedup_records: usize = env_or("EM_BENCH_BLOCKING_SPEEDUP_RECORDS", 20_000);
    let min_recall: f64 = env_or("EM_BENCH_BLOCKING_MIN_RECALL", 0.95);
    let min_reduction: f64 = env_or("EM_BENCH_BLOCKING_MIN_REDUCTION", 0.99);
    let sweep_sizes: String = env_or(
        "EM_BENCH_BLOCKING_SWEEP_SIZES",
        "2048,4096,8192,16384".to_string(),
    );
    let out_path: String = env_or("EM_BENCH_BLOCKING_OUT", "BENCH_blocking.json".to_string());
    let threads = rayon::current_num_threads();
    let lsh_spec = BlockingSpec::Lsh(LshBlocking::default());
    let token_spec = BlockingSpec::Token(BlockingConfig::default());

    // --- Golden check 1: exhaustive spec ≡ legacy pair generation. -------
    eprintln!("[blocking] golden check: Exhaustive spec ≡ legacy scenario …");
    let legacy = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), 0.04, 11);
    let via_spec = legacy.clone().with_blocking(BlockingSpec::Exhaustive);
    let a = legacy.materialize().expect("legacy materialize");
    let b = via_spec.materialize().expect("spec materialize");
    assert_eq!(a.dataset.pairs(), b.dataset.pairs(), "pair list diverged");
    assert_eq!(a.dataset.split(), b.dataset.split(), "split diverged");
    for i in 0..a.dataset.len() {
        assert_eq!(a.dataset.ground_truth(i), b.dataset.ground_truth(i));
        assert_eq!(a.features.row(i), b.features.row(i), "features diverged");
    }

    // --- Golden check 2: anchor pool — containment, dedup, recall. -------
    eprintln!("[blocking] anchor pool ({anchor_records} records): exhaustive vs LSH vs token …");
    let anchor_profile = PoolProfile::products("bench-anchor", anchor_records);
    let anchor = generate_pool(&anchor_profile, &mut Rng::seed_from_u64(0xA2C4)).unwrap();
    assert!(
        anchor.exhaustive_pairs() <= MAX_EXHAUSTIVE_PAIRS,
        "anchor pool must stay co-computable"
    );
    let exhaustive = block_tables(&anchor.left, &anchor.right, &BlockingSpec::Exhaustive).unwrap();
    let exhaustive_set: HashSet<(u32, u32)> =
        exhaustive.candidates.iter().map(|p| p.key()).collect();
    let anchor_lsh = block_tables(&anchor.left, &anchor.right, &lsh_spec).unwrap();
    let anchor_token = block_tables(&anchor.left, &anchor.right, &token_spec).unwrap();
    for (name, out) in [("lsh", &anchor_lsh), ("token", &anchor_token)] {
        assert!(
            out.candidates.windows(2).all(|w| w[0] < w[1]),
            "{name} candidates must be sorted and duplicate-free"
        );
        assert!(
            out.candidates
                .iter()
                .all(|p| exhaustive_set.contains(&p.key())),
            "{name} candidates must be a subset of the exhaustive pairs"
        );
    }
    let serial_lsh =
        rayon::serial_scope(|| block_tables(&anchor.left, &anchor.right, &lsh_spec).unwrap());
    assert_eq!(
        anchor_lsh.candidates, serial_lsh.candidates,
        "LSH candidates depend on worker-thread count"
    );
    let anchor_recall_lsh = blocking_recall(&anchor_lsh.candidates, &anchor.true_matches);
    let anchor_recall_token = blocking_recall(&anchor_token.candidates, &anchor.true_matches);
    eprintln!(
        "[blocking] anchor recall: lsh {anchor_recall_lsh:.4}, token {anchor_recall_token:.4} \
         (gate ≥ {min_recall})"
    );
    eprintln!("[blocking] golden checks passed");

    // --- Headline: 10⁵-record pool through the LSH tier. -----------------
    eprintln!("[blocking] headline pool ({records} records) through the LSH tier …");
    let headline = Scenario::pool(PoolProfile::products("bench-pool", records), 0xDA7A)
        .with_blocking(lsh_spec.clone());
    let (pool, headline_secs) = timed(|| headline.candidate_pool().expect("candidate pool"));
    let stats = pool.blocking.stats;
    let headline_recall = blocking_recall(&pool.blocking.candidates, &pool.true_matches);
    let pairs_per_sec = stats.n_candidates as f64 / headline_secs.max(1e-12);
    assert!(
        stats.exhaustive_pairs > MAX_EXHAUSTIVE_PAIRS,
        "headline pool must be beyond the exhaustive materialization cap \
         (got {} records total)",
        stats.n_left + stats.n_right
    );
    eprintln!(
        "[blocking] {} candidates in {headline_secs:.2} s ({pairs_per_sec:.0} pairs/s), \
         recall {headline_recall:.4}, reduction {:.6}",
        stats.n_candidates, stats.reduction_ratio
    );

    // --- Thread-aware speedup gate. --------------------------------------
    eprintln!("[blocking] speedup pool ({speedup_records} records): parallel vs pinned serial …");
    let speedup_profile = PoolProfile::products("bench-speedup", speedup_records);
    let sp_pool = generate_pool(&speedup_profile, &mut Rng::seed_from_u64(0x5EED)).unwrap();
    let block = || block_tables(&sp_pool.left, &sp_pool.right, &lsh_spec).unwrap();
    let (speedup_timings, _, _) = paired(PAIRS, block, || rayon::serial_scope(block));
    let speedup = speedup_timings.ratio();
    let min_speedup: f64 = env_or(
        "EM_BENCH_BLOCKING_MIN_SPEEDUP",
        thread_aware(threads, 2.5, 1.5, 0.97),
    );
    eprintln!("[blocking] speedup: {speedup} with {threads} thread(s) (gate: ≥ {min_speedup})");

    // --- ann_cluster_threshold sweep: exact vs ANN per cluster size. -----
    let sizes: Vec<usize> = parse_list("EM_BENCH_BLOCKING_SWEEP_SIZES", &sweep_sizes);
    let mut sweep: Vec<SweepRow> = Vec::new();
    for &size in &sizes {
        eprintln!("[blocking] ANN sweep: cluster of {size} …");
        // One cluster of `size` pair nodes with realistic shape: unit
        // vectors, mixed predicted kinds, mid confidences.
        let mut rng = Rng::seed_from_u64(size as u64 ^ 0xA22);
        let dim = 32;
        let mut flat = Vec::with_capacity(size * dim);
        for _ in 0..size * dim {
            flat.push(rng.normal() as f32);
        }
        let mut emb = Embeddings::from_flat(dim, flat).unwrap();
        emb.normalize_rows();
        let kinds: Vec<NodeKind> = (0..size)
            .map(|i| {
                if i % 2 == 0 {
                    NodeKind::PredictedMatch
                } else {
                    NodeKind::PredictedNonMatch
                }
            })
            .collect();
        let confidences: Vec<f32> = (0..size).map(|_| rng.f32()).collect();
        let clusters = vec![(0..size).collect::<Vec<usize>>()];
        let edge = EdgeConfig::default();
        let build = |ann_threshold| {
            build_graph_blocked(
                &emb,
                &kinds,
                &confidences,
                &clusters,
                &BlockedConfig {
                    edge,
                    ann_threshold,
                    ann_seed: 0xA22_0E55,
                },
            )
            .expect("graph")
        };
        let (timings, _, _) = paired(1, || build(usize::MAX), || build(2));
        let (exact_secs, ann_secs) = (timings.a_median(), timings.b_median());
        eprintln!("[blocking]   exact {exact_secs:.3} s, ann {ann_secs:.3} s");
        sweep.push(SweepRow {
            cluster_size: size,
            exact_secs,
            ann_secs,
        });
    }
    let crossover = sweep
        .iter()
        .find(|row| row.ann_secs < row.exact_secs)
        .map(|row| row.cluster_size);
    match crossover {
        Some(c) => eprintln!("[blocking] ANN beats exact from cluster size {c}"),
        None => eprintln!("[blocking] exact wins at every swept size"),
    }

    // --- JSON artifact (written before gating, like the other benches). --
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|row| {
            format!(
                "    {{\"cluster_size\": {}, \"exact_secs\": {:.6}, \"ann_secs\": {:.6}}}",
                row.cluster_size, row.exact_secs, row.ann_secs
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"blocking tier\",\n  \"threads\": {threads},\n  \
         \"headline\": {{\n    \"records\": {},\n    \"left\": {},\n    \"right\": {},\n    \
         \"exhaustive_pairs\": {},\n    \"candidates\": {},\n    \
         \"candidate_secs\": {:.6},\n    \"pairs_per_sec\": {:.0},\n    \
         \"recall\": {:.6},\n    \"reduction_ratio\": {:.6}\n  }},\n  \
         \"anchor\": {{\n    \"records\": {anchor_records},\n    \
         \"recall_lsh\": {anchor_recall_lsh:.6},\n    \
         \"recall_token\": {anchor_recall_token:.6}\n  }},\n  \
         \"speedup\": {{\n    \"records\": {speedup_records},\n    \
         \"serial_median_secs\": {:.6},\n    \"parallel_median_secs\": {:.6},\n    \
         \"speedup\": {},\n    \"min_speedup_gate\": {min_speedup}\n  }},\n  \
         \"gates\": {{\"min_recall\": {min_recall}, \"min_reduction\": {min_reduction}}},\n  \
         \"ann_threshold_sweep\": [\n{}\n  ],\n  \"ann_crossover_cluster_size\": {}\n}}\n",
        stats.n_left + stats.n_right,
        stats.n_left,
        stats.n_right,
        stats.exhaustive_pairs,
        stats.n_candidates,
        headline_secs,
        pairs_per_sec,
        headline_recall,
        stats.reduction_ratio,
        speedup_timings.b_median(),
        speedup_timings.a_median(),
        speedup,
        sweep_json.join(",\n"),
        crossover.map_or("null".to_string(), |c| c.to_string()),
    );

    // --- Gates. -----------------------------------------------------------
    let mut gates = Gates::default();
    for (name, recall) in [
        ("anchor lsh", anchor_recall_lsh),
        ("anchor token", anchor_recall_token),
        ("headline lsh", headline_recall),
    ] {
        gates.at_least(&format!("{name} recall"), recall, min_recall);
    }
    gates.at_least("reduction ratio", stats.reduction_ratio, min_reduction);
    gates.at_least("speedup (×)", speedup.median, min_speedup);
    gates.finish("blocking", &out_path, &json);
}
