//! Figure 10: weak-supervision method comparison. The battleship
//! selection mechanism is held fixed (α = β = 0.5); only the weak-label
//! scoring changes — spatial certainty (Eq. 4) vs DAL-style conditional
//! entropy (Eq. 1). The paper finds the spatial variant slightly but
//! consistently ahead in AUC.

use battleship::{ArtifactCache, ExperimentGrid, Scenario, StrategySpec, WeakMethod};
use em_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let config = args.scale.experiment_config();
    let scenarios: Vec<Scenario> = [
        em_synth::DatasetProfile::walmart_amazon(),
        em_synth::DatasetProfile::amazon_google(),
    ]
    .into_iter()
    .map(|p| Scenario::synthetic(p.scaled(args.scale.factor()), 0xDA7A))
    .collect();
    let cache = ArtifactCache::new();

    let [spatial_grid, entropy_grid] = [WeakMethod::Spatial, WeakMethod::Entropy].map(|method| {
        eprintln!("[fig10] {method:?} weak labels …");
        let mut cfg = config.clone();
        cfg.battleship.alpha = 0.5;
        cfg.battleship.beta = 0.5;
        cfg.battleship.weak_method = method;
        cfg.al.weak_supervision = true;
        ExperimentGrid::new(
            scenarios.clone(),
            vec![StrategySpec::Battleship],
            args.grid_config(cfg, false),
        )
        .run_with_cache(&cache)
        .expect("grid")
    });

    for scenario in &scenarios {
        let name = scenario.name();
        println!("\nFigure 10 — {name} (F1 % per iteration, α = β = 0.5)");
        let spatial = &spatial_grid
            .cell(name, "battleship")
            .expect("cell")
            .aggregate;
        let entropy = &entropy_grid
            .cell(name, "battleship")
            .expect("cell")
            .aggregate;

        let labels: Vec<String> = spatial
            .mean_curve
            .iter()
            .map(|(x, _)| format!("{x:.0}"))
            .collect();
        em_bench::print_row("labels", &labels);
        for (row, report) in [
            ("battleship (Eq.4)", spatial),
            ("with WS_DAL (Eq.1)", entropy),
        ] {
            let cells: Vec<String> = report
                .mean_curve
                .iter()
                .map(|(_, y)| format!("{y:.2}"))
                .collect();
            em_bench::print_row(row, &cells);
        }
        println!(
            "AUC: spatial {:.2} vs entropy {:.2}",
            spatial.mean_auc, entropy.mean_auc
        );
        let _ = args.write_json(
            &format!("fig10_{name}.json"),
            &vec![("spatial", spatial), ("entropy", entropy)],
        );
    }
}
