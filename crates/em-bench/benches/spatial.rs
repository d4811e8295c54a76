//! Spatial-pipeline benchmark: blocked/parallel `SpatialIndex::build`
//! versus the seed's scalar baseline, measured in the same run.
//!
//! This is the perf gate for the kernel layer: on the default 5k-node,
//! 128-dim pool the blocked pipeline must beat
//! [`SpatialIndex::build_reference`] (the seed implementation, kept
//! verbatim) by ≥ 4×, as the median of 5 alternating pairs
//! ([`em_bench::timing::paired`]). Results are written to
//! `BENCH_spatial.json` for CI artifacts, quartiles included.
//!
//! Knobs (environment):
//! * `EM_BENCH_N` / `EM_BENCH_DIM` — pool size / dimension
//!   (default 5000 × 128);
//! * `EM_BENCH_OUT` — output JSON path (default `BENCH_spatial.json`);
//! * `EM_BENCH_MIN_SPEEDUP` — exit non-zero below this ratio
//!   (default 4.0; set 0 to only report);
//! * `RAYON_NUM_THREADS` — worker threads for the blocked pipeline.

use battleship::{SpatialIndex, SpatialParams};
use em_core::Rng;
use em_graph::NodeKind;
use em_vector::{AnnPolicy, Embeddings};

use em_bench::env_or;
use em_bench::gate::Gates;
use em_bench::timing::paired;

/// Alternating blocked/scalar pairs behind the speedup.
const PAIRS: usize = 5;

/// Gaussian blob pool mimicking matcher pair representations.
fn pool(n: usize, dim: usize, seed: u64) -> Embeddings {
    let mut rng = Rng::seed_from_u64(seed);
    let n_blobs = 10;
    let centers: Vec<Vec<f32>> = (0..n_blobs)
        .map(|_| (0..dim).map(|_| rng.normal() as f32 * 2.0).collect())
        .collect();
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let c = &centers[i % n_blobs];
        rows.push(
            c.iter()
                .map(|&x| x + rng.normal() as f32 * 0.6)
                .collect::<Vec<f32>>(),
        );
    }
    Embeddings::from_rows(&rows).expect("non-empty pool")
}

fn params(seed: u64) -> SpatialParams {
    // Paper defaults (§4.2): q = 15, extra ratio 0.03, cluster size
    // fractions 0.05–0.15, sweep sample 800.
    SpatialParams {
        q: 15,
        extra_ratio: 0.03,
        cluster_min_frac: 0.05,
        cluster_max_frac: 0.15,
        kselect_sample: 800,
        ann: AnnPolicy::with_threshold(4096),
        seed,
    }
}

fn main() {
    let n: usize = env_or("EM_BENCH_N", 5000);
    let dim: usize = env_or("EM_BENCH_DIM", 128);
    let min_speedup: f64 = env_or("EM_BENCH_MIN_SPEEDUP", 4.0);
    let out_path: String = env_or("EM_BENCH_OUT", "BENCH_spatial.json".to_string());

    eprintln!("[spatial] generating pool: n = {n}, dim = {dim}");
    let data = pool(n, dim, 0xDA7A);
    let kinds: Vec<NodeKind> = (0..n)
        .map(|i| {
            if i % 3 == 0 {
                NodeKind::PredictedNonMatch
            } else {
                NodeKind::PredictedMatch
            }
        })
        .collect();
    let confs = vec![0.9f32; n];
    let p = params(7);

    // Golden check before timing: the parallel pipeline must equal its
    // serial execution exactly (identical graphs, components, clusters).
    eprintln!("[spatial] golden check: parallel ≡ serial …");
    let fast = SpatialIndex::build(&data, &kinds, &confs, &p).expect("blocked build");
    let serial = rayon::serial_scope(|| {
        SpatialIndex::build(&data, &kinds, &confs, &p).expect("serial blocked build")
    });
    assert_eq!(fast.clusters, serial.clusters, "clusters diverged");
    assert_eq!(fast.components, serial.components, "components diverged");
    assert_eq!(
        fast.graph.edges(),
        serial.graph.edges(),
        "edge sets diverged"
    );
    eprintln!(
        "[spatial] golden check passed ({} nodes, {} edges, k = {})",
        fast.len(),
        fast.graph.n_edges(),
        fast.k
    );

    // Measure both pipelines in this same process/run.
    eprintln!("[spatial] timing blocked pipeline vs scalar baseline ({PAIRS} pairs) …");
    let (timings, _, _) = paired(
        PAIRS,
        || SpatialIndex::build(&data, &kinds, &confs, &p).expect("blocked build"),
        || SpatialIndex::build_reference(&data, &kinds, &confs, &p).expect("reference build"),
    );
    let speedup = timings.ratio();
    let threads = rayon::current_num_threads();
    eprintln!("[spatial] speedup: {speedup} (threads = {threads}, gate: ≥ {min_speedup})");

    let json = format!(
        "{{\n  \"bench\": \"SpatialIndex::build\",\n  \"n\": {n},\n  \"dim\": {dim},\n  \"threads\": {threads},\n  \"scalar_median_secs\": {:.6},\n  \"blocked_median_secs\": {:.6},\n  \"speedup\": {},\n  \"min_speedup_gate\": {min_speedup},\n  \"edges\": {},\n  \"k\": {}\n}}\n",
        timings.b_median(),
        timings.a_median(),
        speedup,
        fast.graph.n_edges(),
        fast.k,
    );
    let mut gates = Gates::default();
    gates.at_least("speedup (×)", speedup.median, min_speedup);
    gates.finish("spatial", &out_path, &json);
}
