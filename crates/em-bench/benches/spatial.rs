//! Spatial-pipeline benchmark: blocked/parallel `SpatialIndex::build`
//! against the seed pipeline's frozen time on the same task.
//!
//! This is the perf gate for the kernel layer: on a 5k-node, 128-dim
//! pool the blocked pipeline, on every worker thread, must run ≥ 4×
//! faster than the seed's scalar pipeline did ([`SEED_SECS`], measured
//! once before that copy was retired), as the median over 9 timed builds
//! ([`em_bench::timing::samples`]). Results are written to
//! `BENCH_spatial.json`, quartiles included.
//!
//! Knobs (environment):
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
use em_bench::timing::samples;

/// Pool size and dimension of the timed task; [`SEED_SECS`] holds for
/// this size only.
const N: usize = 5000;
const DIM: usize = 128;

/// Timed builds behind the speedup.
const RUNS: usize = 9;

/// Seconds per build of the seed's scalar pipeline (full-matrix
/// normalization, serial scalar k sweep and constrained K-Means,
/// per-pair edge scoring) on this task, measured at commit 11539af on a
/// 2-core AVX-512 VM with `RAYON_NUM_THREADS=2` (the seed pipeline ran
/// under `serial_scope`, so on one core). Fourteen bench runs' 5-build
/// medians spread over 0.64–0.93 s with the host's load; this is their
/// lower quartile, since load only adds time.
const SEED_SECS: f64 = 0.76;

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
    let min_speedup: f64 = env_or("EM_BENCH_MIN_SPEEDUP", 4.0);
    let out_path: String = env_or("EM_BENCH_OUT", "BENCH_spatial.json".to_string());

    eprintln!("[spatial] generating pool: n = {N}, dim = {DIM}");
    let data = pool(N, DIM, 0xDA7A);
    let kinds: Vec<NodeKind> = (0..N)
        .map(|i| {
            if i % 3 == 0 {
                NodeKind::PredictedNonMatch
            } else {
                NodeKind::PredictedMatch
            }
        })
        .collect();
    let confs = vec![0.9f32; N];
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

    eprintln!(
        "[spatial] timing blocked pipeline ({RUNS} builds) against the seed's {SEED_SECS} s …"
    );
    let (secs, _) = samples(RUNS, || {
        SpatialIndex::build(&data, &kinds, &confs, &p).expect("blocked build")
    });
    let speedup = secs.speedup_over(SEED_SECS);
    let threads = rayon::current_num_threads();
    eprintln!("[spatial] speedup: {speedup} (threads = {threads}, gate: ≥ {min_speedup})");

    let json = format!(
        "{{\n  \"bench\": \"SpatialIndex::build\",\n  \"n\": {N},\n  \"dim\": {DIM},\n  \"threads\": {threads},\n  \"seed_secs\": {SEED_SECS},\n  \"seed_measured\": \"commit 11539af, 2-core AVX-512 VM, one core\",\n  \"blocked_secs\": {secs},\n  \"speedup\": {speedup},\n  \"min_speedup_gate\": {min_speedup},\n  \"edges\": {},\n  \"k\": {}\n}}\n",
        fast.graph.n_edges(),
        fast.k,
    );
    let mut gates = Gates::default();
    gates.at_least("speedup (×)", speedup.median, min_speedup);
    gates.finish("spatial", &out_path, &json);
}
