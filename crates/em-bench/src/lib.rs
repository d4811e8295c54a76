#![forbid(unsafe_code)]
//! # em-bench
//!
//! The benchmark harness: one binary per table and figure of the paper's
//! evaluation (README's "Quickstart" lists how to run them), plus criterion
//! micro-benchmarks of the performance-critical substrate pieces.
//!
//! Every experiment binary runs on the grid engine: one
//! [`ExperimentGrid`] per configuration variant, all of a binary's grids
//! sharing one [`ArtifactCache`], every grid built from
//! [`BenchArgs::grid_config`] — so every experiment draws the same
//! repetition stream from one master seed.
//!
//! Every binary accepts:
//!
//! ```text
//! --scale smoke|quick|paper   experiment size (default: quick)
//! --seeds N                   seeds to average over (default: per scale)
//! --out DIR                   where JSON results are written
//! ```
//!
//! `smoke` finishes in tens of seconds, `quick` in minutes, `paper` runs
//! the full Table 3 sizes with 3 seeds (the paper's protocol) and is CPU
//! hours. Scales change dataset size and budgets proportionally — the
//! *shape* of every comparison (who wins, where the curves sit relative
//! to each other) is preserved, which is what the reproduction tracks.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use battleship::{
    ArtifactCache, ExperimentConfig, ExperimentGrid, GridConfig, MultiSeedReport, RunReport,
    Scenario, StrategySpec,
};
use em_core::Result;

pub mod store;

/// Parse an environment variable, falling back to `default` when unset
/// or unparsable — the shared knob reader of the gated bench binaries.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// ~6 % of the paper's dataset sizes, 1 seed, 4 iterations.
    Smoke,
    /// ~25 % sizes, 2 seeds, 8 iterations (default).
    Quick,
    /// Full Table 3 sizes, 3 seeds, 8 iterations (the paper's protocol).
    Paper,
}

impl Scale {
    /// Dataset scale factor.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.06,
            Scale::Quick => 0.25,
            Scale::Paper => 1.0,
        }
    }

    /// Default number of seeds.
    pub fn default_seeds(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Quick => 2,
            Scale::Paper => 3,
        }
    }

    /// The experiment protocol at this scale.
    pub fn experiment_config(self) -> ExperimentConfig {
        let mut c = ExperimentConfig::default();
        match self {
            Scale::Smoke => {
                c.al.budget = 40;
                c.al.seed_size = 40;
                c.al.weak_budget = 40;
                c.al.iterations = 4;
                c.matcher.epochs = 12;
                c.battleship.kselect_sample = 256;
            }
            Scale::Quick => {
                c.al.budget = 50;
                c.al.seed_size = 50;
                c.al.weak_budget = 50;
                c.al.iterations = 8;
                c.matcher.epochs = 20;
                c.battleship.kselect_sample = 512;
            }
            Scale::Paper => {
                // §4.2: B = 100, 8 iterations, 100-sample seed, weak
                // budget = B.
                c.matcher.epochs = 25;
            }
        }
        c
    }

    /// Battleship α values averaged into the headline "Battleship" row
    /// (§5.1 averages α ∈ {0.25, 0.5, 0.75}; smaller scales use 0.5).
    pub fn battleship_alphas(self) -> Vec<f64> {
        match self {
            Scale::Paper => vec![0.25, 0.5, 0.75],
            _ => vec![0.5],
        }
    }
}

/// Parsed command-line options shared by all bench binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Experiment size.
    pub scale: Scale,
    /// Seeds (repetitions) per experiment cell.
    pub n_seeds: usize,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
}

impl BenchArgs {
    /// Parse from `std::env::args`, exiting with usage on error.
    pub fn parse() -> Self {
        let mut scale = Scale::Quick;
        let mut seeds_n: Option<usize> = None;
        let mut out_dir = PathBuf::from("bench-results");
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = match args.get(i).map(String::as_str) {
                        Some("smoke") => Scale::Smoke,
                        Some("quick") => Scale::Quick,
                        Some("paper") => Scale::Paper,
                        other => {
                            eprintln!("unknown scale {other:?} (smoke|quick|paper)");
                            std::process::exit(2);
                        }
                    };
                }
                "--seeds" => {
                    i += 1;
                    seeds_n = args.get(i).and_then(|s| s.parse().ok());
                    if seeds_n.is_none() {
                        eprintln!("--seeds expects a positive integer");
                        std::process::exit(2);
                    }
                }
                "--out" => {
                    i += 1;
                    out_dir = PathBuf::from(args.get(i).cloned().unwrap_or_default());
                }
                other => {
                    eprintln!("unknown argument `{other}`");
                    eprintln!("usage: --scale smoke|quick|paper --seeds N --out DIR");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        BenchArgs {
            scale,
            n_seeds: seeds_n.unwrap_or(scale.default_seeds()).max(1),
            out_dir,
        }
    }

    /// The grid configuration every experiment runs under: `experiment`
    /// for each run, the shared master seed and the requested seed
    /// count, so every binary draws the same run seeds
    /// ([`GridConfig::run_seeds`]).
    pub fn grid_config(&self, experiment: ExperimentConfig, include_baselines: bool) -> GridConfig {
        GridConfig {
            experiment,
            master_seed: MASTER_SEED,
            n_seeds: self.n_seeds,
            include_baselines,
        }
    }

    /// Write a serializable result as pretty JSON under the out dir.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(name);
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", serde_json::to_string_pretty(value)?)?;
        Ok(path)
    }
}

/// CPU feature flags relevant to the kernel tiers, as detected at run
/// time on the benchmarking host.
pub fn cpu_feature_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, detected) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
            ("avx512vl", std::arch::is_x86_feature_detected!("avx512vl")),
        ] {
            if detected {
                flags.push(name);
            }
        }
    }
    flags
}

/// Hardware/runtime provenance of a benchmark artifact: the SIMD tier
/// the kernels actually dispatched to, the detected CPU feature flags,
/// and the rayon worker-thread count. Recorded into every
/// `BENCH_*.json` so a committed number can always be traced to the
/// hardware that produced it (an AVX-512 speedup measured on an AVX2
/// host would otherwise be indistinguishable from a regression).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provenance {
    /// Dispatched SIMD tier name (`portable` / `avx2` / `avx512`).
    pub simd_tier: String,
    /// Detected kernel-relevant CPU feature flags.
    pub cpu_features: Vec<String>,
    /// Rayon worker threads at measurement time.
    pub threads: usize,
    /// Target architecture the bench ran on.
    pub arch: String,
}

impl Provenance {
    /// Detect the current host's provenance.
    pub fn detect() -> Self {
        Provenance {
            simd_tier: em_vector::simd_tier().name().to_string(),
            cpu_features: cpu_feature_flags().iter().map(|s| s.to_string()).collect(),
            threads: if rayon::in_serial_mode() {
                1
            } else {
                rayon::current_num_threads()
            },
            arch: std::env::consts::ARCH.to_string(),
        }
    }

    /// The provenance as a `"provenance": {…}` JSON object member, for
    /// the hand-assembled bench artifacts.
    pub fn json_fragment(&self) -> String {
        let features: Vec<String> = self
            .cpu_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect();
        format!(
            "\"provenance\": {{\"simd_tier\": \"{}\", \"cpu_features\": [{}], \
             \"threads\": {}, \"arch\": \"{}\"}}",
            self.simd_tier,
            features.join(", "),
            self.threads,
            self.arch
        )
    }
}

/// Inject the detected [`Provenance`] into a hand-assembled JSON object
/// string, as a `"provenance"` member before the closing brace. Returns
/// the input unchanged if it does not end in an object.
pub fn with_provenance(json: &str) -> String {
    match json.rfind('}') {
        Some(pos) => {
            let head = json[..pos].trim_end().trim_end_matches(',');
            format!(
                "{head},\n  {}\n{}",
                Provenance::detect().json_fragment(),
                &json[pos..]
            )
        }
        None => json.to_string(),
    }
}

/// The serialized output of the Figure 5 sweep, reused by Tables 4/5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Results {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Per (dataset, method) aggregated curves.
    pub reports: Vec<MultiSeedReport>,
    /// ZeroER test F1 (%) per dataset.
    pub zeroer: BTreeMap<String, f64>,
    /// Full-D test F1 (%) per dataset.
    pub full_d: BTreeMap<String, f64>,
}

impl Fig5Results {
    /// Look up a (dataset, method) aggregate.
    pub fn report(&self, dataset: &str, method: &str) -> Option<&MultiSeedReport> {
        self.reports
            .iter()
            .find(|r| r.dataset == dataset && r.strategy == method)
    }
}

/// Master seed of every experiment grid (first chosen for Figure 5);
/// every run seed derives from it (see [`GridConfig::run_seeds`]), so
/// one constant reproduces every sweep.
const MASTER_SEED: u64 = 0xF165;

/// Run the full Figure 5 sweep (all datasets × all methods + the two
/// extremes). This is the workhorse shared by `fig5_f1_curves`,
/// `fig6_runtime`, `table4_f1` and `table5_auc`.
///
/// The sweep is expressed as [`ExperimentGrid`]s, so the figure
/// binaries inherit the engine's fan-out: all datasets materialize in
/// parallel into a shared [`ArtifactCache`], every (dataset, strategy,
/// seed) run is an independent grid cell scheduled across rayon
/// workers, and ZeroER / Full-D ride along as baseline cells. The
/// battleship row follows the paper's §5.1 convention of averaging
/// over α — one single-strategy grid per α value (the grid applies one
/// config to every cell), re-aggregated per dataset across (α, seed).
pub fn run_fig5(args: &BenchArgs) -> Result<Fig5Results> {
    let config = args.scale.experiment_config();
    let alphas = args.scale.battleship_alphas();
    let scenarios: Vec<Scenario> = em_synth::all_profiles()
        .into_iter()
        .map(|p| Scenario::synthetic(p.scaled(args.scale.factor()), 0xDA7A))
        .collect();
    let cache = ArtifactCache::new();
    let baselines = [StrategySpec::Dal, StrategySpec::Dial, StrategySpec::Random];

    // Grid 1: the non-battleship methods plus the ZeroER / Full-D
    // extremes, every (dataset, strategy, seed) cell fanned out at once.
    eprintln!(
        "[fig5] baseline grid: {} datasets × 3 methods (+ extremes) × {} seeds …",
        scenarios.len(),
        args.n_seeds
    );
    let baseline_grid = ExperimentGrid::new(
        scenarios.clone(),
        baselines.to_vec(),
        args.grid_config(config.clone(), true),
    );
    let baseline_report = baseline_grid.run_with_cache(&cache)?;

    // Grids 2…: battleship, one grid per α, sharing the same artifacts.
    let mut battleship_runs: BTreeMap<String, Vec<RunReport>> = BTreeMap::new();
    for &alpha in &alphas {
        eprintln!("[fig5] battleship grid (α = {alpha}) …");
        let mut cfg = config.clone();
        cfg.battleship.alpha = alpha;
        let grid = ExperimentGrid::new(
            scenarios.clone(),
            vec![StrategySpec::Battleship],
            args.grid_config(cfg, false),
        );
        for run in grid.run_with_cache(&cache)?.runs {
            battleship_runs
                .entry(run.dataset.clone())
                .or_default()
                .push(run);
        }
    }

    // Reassemble the per-(dataset, method) aggregates in the historical
    // reporting order (profile-major, battleship first).
    let mut reports = Vec::new();
    let mut zeroer = BTreeMap::new();
    let mut full_d = BTreeMap::new();
    for scenario in &scenarios {
        let name = scenario.name();
        let runs = battleship_runs.get(name).ok_or_else(|| {
            em_core::EmError::InvalidConfig(format!("no battleship runs for `{name}`"))
        })?;
        reports.push(MultiSeedReport::aggregate(runs)?);
        let cell = |label: &str| {
            baseline_report.cell(name, label).ok_or_else(|| {
                em_core::EmError::InvalidConfig(format!("no grid cell for ({name}, {label})"))
            })
        };
        for spec in baselines {
            reports.push(cell(spec.name())?.aggregate.clone());
        }
        for (label, out) in [("zeroer", &mut zeroer), ("full-d", &mut full_d)] {
            let f1 = cell(label)?.aggregate.final_f1().ok_or_else(|| {
                em_core::EmError::EmptyInput(format!("({name}, {label}) baseline curve"))
            })?;
            out.insert(name.to_string(), f1);
        }
    }
    Ok(Fig5Results {
        scale: args.scale,
        reports,
        zeroer,
        full_d,
    })
}

/// Load cached Figure 5 results from the out dir, or run the sweep and
/// cache it.
pub fn fig5_cached(args: &BenchArgs) -> Result<Fig5Results> {
    let path = args.out_dir.join("fig5_results.json");
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(cached) = serde_json::from_str::<Fig5Results>(&text) {
            if cached.scale == args.scale {
                eprintln!("[fig5] using cached results from {}", path.display());
                return Ok(cached);
            }
        }
    }
    let results = run_fig5(args)?;
    if let Err(e) = args.write_json("fig5_results.json", &results) {
        eprintln!("[fig5] warning: could not cache results: {e}");
    }
    Ok(results)
}

/// Fixed-width table printing helper.
pub fn print_row(label: &str, cells: &[String]) {
    let mut line = format!("{label:<22}");
    for c in cells {
        line.push_str(&format!("{c:>12}"));
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_sane_configs() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            let c = scale.experiment_config();
            c.validate().unwrap();
            assert!(scale.factor() > 0.0 && scale.factor() <= 1.0);
            assert!(scale.default_seeds() >= 1);
            assert!(!scale.battleship_alphas().is_empty());
        }
        // Paper scale matches §4.2 exactly.
        let paper = Scale::Paper.experiment_config();
        assert_eq!(paper.al.budget, 100);
        assert_eq!(paper.al.iterations, 8);
        assert_eq!(Scale::Paper.battleship_alphas(), vec![0.25, 0.5, 0.75]);
    }

    #[test]
    fn prepare_smoke_dataset() {
        let p = em_synth::DatasetProfile::wdc_shoes();
        let scenario = Scenario::synthetic(p.scaled(Scale::Smoke.factor()), 1);
        let artifacts = scenario.materialize().unwrap();
        assert_eq!(artifacts.dataset.name, "wdc-shoes");
        assert_eq!(artifacts.features.len(), artifacts.dataset.len());
    }

    /// The figure and table binaries look cells up by these names.
    #[test]
    fn method_names_are_stable() {
        let names: Vec<&str> = StrategySpec::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["battleship", "dal", "dial", "random"]);
    }

    #[test]
    fn grid_config_shares_one_seed_stream() {
        let args = BenchArgs {
            scale: Scale::Smoke,
            n_seeds: 3,
            out_dir: PathBuf::new(),
        };
        let a = args.grid_config(Scale::Smoke.experiment_config(), false);
        let b = args.grid_config(Scale::Paper.experiment_config(), true);
        assert_eq!(a.run_seeds().len(), 3);
        assert_eq!(a.run_seeds(), b.run_seeds());
    }
}
