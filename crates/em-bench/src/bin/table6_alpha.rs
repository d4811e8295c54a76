//! Table 6: the α ablation — final F1 per dataset for
//! α ∈ {0, 0.25, 0.5, 0.75, 1} (β fixed at 0.5). α = 0 is pure
//! centrality ("Battleship (cen)"), α = 1 pure certainty
//! ("Battleship (unc)"); the paper finds interior values win everywhere.

use battleship::{ArtifactCache, ExperimentGrid, Scenario, StrategySpec};
use em_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let config = args.scale.experiment_config();
    const ALPHAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
    let scenarios: Vec<Scenario> = em_synth::all_profiles()
        .into_iter()
        .map(|p| Scenario::synthetic(p.scaled(args.scale.factor()), 0xDA7A))
        .collect();
    let cache = ArtifactCache::new();

    let grids = ALPHAS.map(|alpha| {
        eprintln!("[table6] α = {alpha} …");
        let mut cfg = config.clone();
        cfg.battleship.alpha = alpha;
        cfg.battleship.beta = 0.5;
        ExperimentGrid::new(
            scenarios.clone(),
            vec![StrategySpec::Battleship],
            args.grid_config(cfg, false),
        )
        .run_with_cache(&cache)
        .expect("grid")
    });

    println!("Table 6 — final F1 (%) for varying α (β = 0.5)\n");
    em_bench::print_row(
        "dataset",
        &ALPHAS.iter().map(|a| format!("α={a}")).collect::<Vec<_>>(),
    );
    let mut dump = Vec::new();
    for scenario in &scenarios {
        let name = scenario.name();
        let mut cells = Vec::new();
        for (alpha, grid) in ALPHAS.iter().zip(&grids) {
            let report = &grid.cell(name, "battleship").expect("cell").aggregate;
            cells.push(format!("{:.2}", report.final_f1().unwrap_or(0.0)));
            dump.push((name, alpha, report));
        }
        em_bench::print_row(name, &cells);
    }
    let _ = args.write_json("table6_results.json", &dump);
}
