//! ANN routing benchmark: the `AnnPolicy` crossover layer's two
//! quadratic-stage rewrites, measured exact-vs-ANN at blocked-pool
//! scale, plus an end-to-end quality check and the below-threshold
//! bit-identity golden.
//!
//! Three stages:
//!
//! 1. **k-selection silhouette fallback** — the sweep's per-candidate
//!    exact score is `O(sample · n · d)`; the HNSW-backed estimator
//!    (one clustering-independent cache per sweep, centroid-moment
//!    distances) drops it to `O(n · d)` amortised. Both routes score
//!    the same untimed K-Means sweep, so the timing isolates the
//!    silhouette stage and the argmax `k` values are comparable.
//! 2. **constrained greedy assignment** — one assignment pass over
//!    fixed centroids via `greedy_assign_pass`: the exact route
//!    materialises the `n × k` distance matrix and sorts all `k`
//!    preferences per point; the ANN route shortlists `top_m`
//!    candidate clusters through HNSW over the centroids. The full
//!    `constrained_kmeans` is also run on both routes for the quality
//!    gates (capacity bounds exact, SSE ratio bounded). This is the
//!    regime where `k` scales with `n` (absolute cluster-size caps on
//!    10⁵⁺-record pools), not the paper's small fractional-`k` setting.
//! 3. **end-to-end** — a small battleship active-learning run with the
//!    default policy (exact below crossover) versus
//!    `ann_cluster_threshold = 2` (every stage routed through ANN);
//!    final F1 must agree within tolerance.
//!
//! A below-threshold golden re-checks in-bench that the default policy
//! is bit-identical to `AnnPolicy::never()` on a small pool, for both
//! `select_k` and `constrained_kmeans`.
//!
//! Each stage speedup is the median of 5 alternating ANN/exact pairs
//! ([`em_bench::timing::paired`]); the quality checks run on the
//! estimator's untimed warm-up results. Gates (every number is written
//! to `BENCH_ann.json` *before* gating so failures still leave an
//! artifact): silhouette-stage and assignment-stage speedups ≥ 3×,
//! `|k_ann − k_exact| ≤ 1`, ANN cluster sizes within `[min, max]`
//! exactly, SSE ratio ≤ 1.25, `|ΔF1| ≤ 5` points, golden pass.
//!
//! Knobs (environment):
//! * `EM_BENCH_ANN_RECORDS` — pool size for stages 1–2 (default 100000);
//! * `EM_BENCH_ANN_DIM` — embedding dim (default 32);
//! * `EM_BENCH_ANN_K` — constrained cluster count (default 4096; stage 2
//!   generates its own pool with this many natural clusters);
//! * `EM_BENCH_ANN_SCALE` — end-to-end dataset scale (default 0.04);
//! * `EM_BENCH_ANN_MIN_SPEEDUP` — stage gate (default 3.0; 0 = report only);
//! * `EM_BENCH_ANN_F1_TOL` — end-to-end F1 tolerance, points (default 5.0);
//! * `EM_BENCH_ANN_OUT` — output JSON path (default `BENCH_ann.json`).

use battleship::{run_active_learning, ArtifactCache, GridConfig, Scenario, StrategySpec};
use em_bench::env_or;
use em_bench::gate::Gates;
use em_bench::timing::{paired, timed};
use em_cluster::constrained::{greedy_assign_pass, AssignmentMode};
use em_cluster::silhouette::{build_silhouette_cache, silhouette_score, silhouette_score_ann};
use em_cluster::{
    constrained_kmeans, kmeans, select_k, ConstrainedConfig, KMeansConfig, KSelectConfig,
};
use em_core::{PerfectOracle, Rng};
use em_synth::DatasetProfile;
use em_vector::{AnnPolicy, Embeddings};

/// Alternating ANN/exact pairs behind each stage speedup.
const PAIRS: usize = 5;

/// Gaussian blobs with random-direction centers — the geometry real
/// embedding pools have (and the one cosine shortlisting is honest on),
/// unlike axis-grid toy data.
fn blobs(n: usize, dim: usize, true_k: usize, spread: f32, seed: u64) -> Embeddings {
    let mut rng = Rng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..true_k)
        .map(|_| (0..dim).map(|_| rng.normal() as f32 * 4.0).collect())
        .collect();
    let mut flat = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = &centers[i % true_k];
        for &cd in c {
            flat.push(cd + rng.normal() as f32 * spread);
        }
    }
    Embeddings::from_flat(dim, flat).unwrap()
}

/// Serial argmax with strict `>` — ties to the smaller k, the same rule
/// `select_k`'s silhouette fallback applies.
fn argmax_k(k_min: usize, scores: &[f64]) -> usize {
    let mut best_k = k_min;
    let mut best = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        if s > best {
            best = s;
            best_k = k_min + i;
        }
    }
    best_k
}

fn main() {
    let records: usize = env_or("EM_BENCH_ANN_RECORDS", 100_000);
    let dim: usize = env_or("EM_BENCH_ANN_DIM", 32);
    let k_constrained: usize = env_or("EM_BENCH_ANN_K", 4096);
    let scale: f64 = env_or("EM_BENCH_ANN_SCALE", 0.04);
    let min_speedup: f64 = env_or("EM_BENCH_ANN_MIN_SPEEDUP", 3.0);
    let f1_tol: f64 = env_or("EM_BENCH_ANN_F1_TOL", 5.0);
    let out_path: String = env_or("EM_BENCH_ANN_OUT", "BENCH_ann.json".to_string());
    let threads = rayon::current_num_threads();

    let policy_ann = AnnPolicy::always();
    let seed = 0xA55E55u64;
    eprintln!(
        "[ann] pool: {records} records × {dim} dims, {threads} thread(s); \
         policy: top_m {}, hnsw m {} ef {}",
        policy_ann.top_m, policy_ann.hnsw.m, policy_ann.hnsw.ef_search
    );
    let data = blobs(records, dim, 8, 0.8, seed);

    // ---- Stage 1: k-selection silhouette fallback -----------------------
    // Untimed sweep shared by both routes (same derived seeds as
    // `select_k`), then the silhouette stage timed in isolation.
    let (k_min, k_max, sil_sample) = (2usize, 12usize, 384usize);
    eprintln!("[ann] k-sweep: K-Means for k in [{k_min}, {k_max}] (untimed, shared) …");
    let clusterings: Vec<_> = (k_min..=k_max)
        .map(|k| {
            kmeans(
                &data,
                KMeansConfig {
                    k,
                    max_iters: 3,
                    tol: 1e-4,
                    seed: seed ^ (k as u64) << 32,
                },
            )
            .expect("sweep kmeans")
        })
        .collect();

    let exact_stage = || {
        clusterings
            .iter()
            .enumerate()
            .map(|(i, run)| {
                silhouette_score(&data, &run.assignment, k_min + i, sil_sample, seed)
                    .expect("exact silhouette")
            })
            .collect::<Vec<f64>>()
    };
    let ann_stage = || {
        let cache =
            build_silhouette_cache(&data, sil_sample, seed, &policy_ann).expect("silhouette cache");
        clusterings
            .iter()
            .enumerate()
            .map(|(i, run)| {
                silhouette_score_ann(&data, &run.assignment, k_min + i, &run.centroids, &cache)
                    .expect("ann silhouette")
            })
            .collect::<Vec<f64>>()
    };
    eprintln!("[ann] timing ANN (cache build + scores) vs exact silhouette stage …");
    let (sil, ann_scores, exact_scores) = paired(PAIRS, ann_stage, exact_stage);
    let (sil_exact_secs, sil_ann_secs) = (sil.b_median(), sil.a_median());
    eprintln!("[ann] silhouette stage: exact {sil_exact_secs:.3} s, ann {sil_ann_secs:.3} s");

    let k_exact = argmax_k(k_min, &exact_scores);
    let k_ann = argmax_k(k_min, &ann_scores);
    let sil_speedup = sil.ratio();
    let k_delta = k_ann.abs_diff(k_exact);
    eprintln!("[ann] silhouette: speedup {sil_speedup}, k exact {k_exact} vs ann {k_ann}");

    // ---- Stage 2: constrained greedy assignment -------------------------
    // Absolute size caps make k scale with n: 100k records at ≤ tens per
    // cluster (the graph tier's preferred occupancy) force thousands of
    // clusters — the regime where the exact route's n × k distance matrix
    // and O(k) per-point scans dominate. The stage gets its own pool
    // whose natural cluster count matches k: with k centroids tiling a
    // handful of blobs every candidate is near-equidistant, so the
    // shortlist is meaningless noise and the serial repair pass swamps
    // both routes; with separated clusters each record has a defined
    // nearest centroid and the measurement isolates the routed stage
    // (ANN agreement with exact is ≥ 0.99 here, so the SSE gate below
    // is tight rather than vacuous).
    // Bounds derive from the mean occupancy so any EM_BENCH_ANN_K stays
    // feasible (k · min ≤ n ≤ k · max) with 4× slack each way.
    let assign_data = blobs(records, dim, k_constrained, 1.0, seed ^ 0x51A6E2);
    let avg_occupancy = (records / k_constrained).max(1);
    let (min_size, max_size) = ((avg_occupancy / 4).max(1), avg_occupancy * 4);
    let base_cfg = ConstrainedConfig {
        k: k_constrained,
        min_size,
        max_size,
        max_iters: 2,
        seed: 0xC0_57A9,
        mode: AssignmentMode::Greedy,
        ann: AnnPolicy::never(),
    };
    eprintln!(
        "[ann] constrained: k={k_constrained}, sizes [{min_size}, {max_size}]; \
         warm-start K-Means (untimed, shared) …"
    );
    let warm = kmeans(
        &assign_data,
        KMeansConfig {
            k: k_constrained,
            max_iters: 5,
            tol: 1e-4,
            seed: base_cfg.seed,
        },
    )
    .expect("warm-start kmeans");

    let ann_cfg = ConstrainedConfig {
        ann: policy_ann,
        ..base_cfg
    };
    eprintln!("[ann] timing ANN vs exact assignment pass ({PAIRS} pairs) …");
    let (assign, ann_pass, _) = paired(
        PAIRS,
        || greedy_assign_pass(&assign_data, &warm.centroids, &ann_cfg).expect("ann pass"),
        || greedy_assign_pass(&assign_data, &warm.centroids, &base_cfg).expect("exact pass"),
    );
    let (assign_exact_secs, assign_ann_secs) = (assign.b_median(), assign.a_median());
    let assign_speedup = assign.ratio();

    // Capacity bounds on the ANN pass — exact, not approximate.
    let mut sizes = vec![0usize; k_constrained];
    for &c in &ann_pass {
        sizes[c] += 1;
    }
    let bounds_ok = sizes.iter().all(|&s| (min_size..=max_size).contains(&s));
    eprintln!(
        "[ann] assignment: exact {assign_exact_secs:.3} s, ann {assign_ann_secs:.3} s, speedup \
         {assign_speedup}; ann sizes in [{}, {}] (bounds_ok {bounds_ok})",
        sizes.iter().min().unwrap(),
        sizes.iter().max().unwrap()
    );

    // Full Lloyd runs on both routes for the SSE quality gate.
    eprintln!("[ann] full constrained_kmeans, exact route …");
    let (full_exact, full_exact_secs) =
        timed(|| constrained_kmeans(&assign_data, base_cfg).expect("exact constrained"));
    eprintln!("[ann] full constrained_kmeans, ANN route …");
    let (full_ann, full_ann_secs) =
        timed(|| constrained_kmeans(&assign_data, ann_cfg).expect("ann constrained"));
    let full_bounds_ok = full_ann
        .sizes
        .iter()
        .all(|&s| (min_size..=max_size).contains(&s));
    let sse_ratio = full_ann.sse as f64 / (full_exact.sse as f64).max(1e-12);
    eprintln!(
        "[ann] full runs: exact {full_exact_secs:.3} s (sse {:.1}) vs ann {full_ann_secs:.3} s \
         (sse {:.1}, ratio {sse_ratio:.4}, bounds_ok {full_bounds_ok})",
        full_exact.sse, full_ann.sse
    );

    // ---- Stage 3: end-to-end F1, default policy vs all-ANN --------------
    let mut config = GridConfig::default();
    config.experiment.al.budget = 40;
    config.experiment.al.seed_size = 40;
    config.experiment.al.weak_budget = 40;
    config.experiment.al.iterations = 2;
    config.experiment.matcher.epochs = 10;
    config.experiment.battleship.kselect_sample = 256;
    let scenario = Scenario::synthetic_scaled(DatasetProfile::amazon_google(), scale, 0xDA7A);
    let cache = ArtifactCache::new();
    let art = cache.get_or_materialize(&scenario).expect("materialize");
    eprintln!(
        "[ann] end-to-end: {} ({} pairs), default threshold {} vs forced 2 …",
        scenario.name(),
        art.dataset.len(),
        config.experiment.battleship.ann_cluster_threshold
    );
    let run_once = |cfg: &GridConfig| {
        let oracle = PerfectOracle::new();
        run_active_learning(
            &art.dataset,
            &art.features,
            StrategySpec::Battleship.build().as_mut(),
            &oracle,
            &cfg.experiment,
            0xF1,
        )
        .expect("end-to-end run")
    };
    let (f1_exact, e2e_exact_secs) = {
        let (r, s) = timed(|| run_once(&config));
        (r.final_f1().unwrap_or(f64::NAN), s)
    };
    let mut config_ann = config.clone();
    config_ann.experiment.battleship.ann_cluster_threshold = 2;
    let (f1_ann, e2e_ann_secs) = {
        let (r, s) = timed(|| run_once(&config_ann));
        (r.final_f1().unwrap_or(f64::NAN), s)
    };
    let f1_delta = (f1_ann - f1_exact).abs();
    eprintln!(
        "[ann] end-to-end F1: exact {f1_exact:.2} ({e2e_exact_secs:.3} s) vs \
         ann {f1_ann:.2} ({e2e_ann_secs:.3} s), |Δ| {f1_delta:.2} (gate ≤ {f1_tol})"
    );

    // ---- Below-threshold golden: default policy ≡ never() ---------------
    eprintln!("[ann] below-threshold golden (n=2000) …");
    let small = blobs(2000, 16, 6, 0.8, 0x600D);
    let golden_ok = {
        let sel = |ann: AnnPolicy| {
            select_k(
                &small,
                KSelectConfig {
                    sensitivity: 1e9, // force the silhouette fallback
                    kmeans_iters: 3,
                    silhouette_sample: 256,
                    ann,
                    ..Default::default()
                },
            )
            .expect("golden select_k")
        };
        let (sd, sn) = (sel(AnnPolicy::default()), sel(AnnPolicy::never()));
        let kselect_ok = sd.k == sn.k
            && sd.method == sn.method
            && sd
                .sse_curve
                .iter()
                .zip(&sn.sse_curve)
                .all(|(a, b)| a.1.to_bits() == b.1.to_bits());
        let con = |ann: AnnPolicy| {
            constrained_kmeans(
                &small,
                ConstrainedConfig {
                    k: 10,
                    min_size: 100,
                    max_size: 400,
                    max_iters: 4,
                    seed: 0x5EED,
                    mode: AssignmentMode::Greedy,
                    ann,
                },
            )
            .expect("golden constrained")
        };
        let (cd, cn) = (con(AnnPolicy::default()), con(AnnPolicy::never()));
        let constrained_ok = cd.assignment == cn.assignment && cd.sse.to_bits() == cn.sse.to_bits();
        eprintln!("[ann] golden: kselect {kselect_ok}, constrained {constrained_ok}");
        kselect_ok && constrained_ok
    };

    // ---- Artifact, then gates -------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"ann routing\",\n  \"records\": {records},\n  \"dim\": {dim},\n  \
         \"threads\": {threads},\n  \"policy\": {{\n    \"threshold_default\": {},\n    \
         \"top_m\": {},\n    \"hnsw_m\": {},\n    \"hnsw_ef_search\": {}\n  }},\n  \
         \"kselect_silhouette\": {{\n    \"k_range\": [{k_min}, {k_max}],\n    \
         \"sample\": {sil_sample},\n    \"exact_secs\": {sil_exact_secs:.6},\n    \
         \"ann_secs\": {sil_ann_secs:.6},\n    \"speedup\": {},\n    \
         \"k_exact\": {k_exact},\n    \"k_ann\": {k_ann}\n  }},\n  \
         \"constrained_assignment\": {{\n    \"k\": {k_constrained},\n    \
         \"min_size\": {min_size},\n    \"max_size\": {max_size},\n    \
         \"pass_exact_secs\": {assign_exact_secs:.6},\n    \
         \"pass_ann_secs\": {assign_ann_secs:.6},\n    \"speedup\": {},\n    \
         \"bounds_ok\": {},\n    \"full_exact_secs\": {full_exact_secs:.6},\n    \
         \"full_ann_secs\": {full_ann_secs:.6},\n    \"sse_exact\": {:.3},\n    \
         \"sse_ann\": {:.3},\n    \"sse_ratio\": {sse_ratio:.5}\n  }},\n  \
         \"end_to_end\": {{\n    \"scenario\": \"{}\",\n    \"pairs\": {},\n    \
         \"f1_exact_pct\": {f1_exact:.3},\n    \"f1_ann_pct\": {f1_ann:.3},\n    \
         \"f1_delta_pct\": {f1_delta:.3},\n    \"exact_secs\": {e2e_exact_secs:.6},\n    \
         \"ann_secs\": {e2e_ann_secs:.6}\n  }},\n  \
         \"below_threshold_bit_identical\": {golden_ok},\n  \"gates\": {{\n    \
         \"min_stage_speedup\": {min_speedup},\n    \"max_k_delta\": 1,\n    \
         \"max_sse_ratio\": 1.25,\n    \"f1_tol_pct\": {f1_tol}\n  }}\n}}\n",
        AnnPolicy::default().threshold,
        policy_ann.top_m,
        policy_ann.hnsw.m,
        policy_ann.hnsw.ef_search,
        sil_speedup,
        assign_speedup,
        bounds_ok && full_bounds_ok,
        full_exact.sse,
        full_ann.sse,
        scenario.name(),
        art.dataset.len(),
    );
    let mut gates = Gates::default();
    gates.at_least("silhouette speedup", sil_speedup.median, min_speedup);
    gates.at_least("assignment speedup", assign_speedup.median, min_speedup);
    gates.at_most("|Δk|", k_delta as f64, 1.0);
    gates.require(
        bounds_ok && full_bounds_ok,
        "ANN route violated capacity bounds",
    );
    gates.at_most("SSE ratio", sse_ratio, 1.25);
    // A NaN Δ (either run produced no F1) must fail the gate too.
    gates.require(
        f1_delta <= f1_tol,
        format!("|ΔF1| = {f1_delta:.2} above {f1_tol}"),
    );
    gates.require(golden_ok, "below-threshold routing not bit-identical");
    gates.finish("ann", &out_path, &json);
}
