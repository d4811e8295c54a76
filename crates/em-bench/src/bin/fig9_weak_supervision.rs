//! Figure 9: weak supervision on/off for both the battleship approach and
//! DAL on Walmart-Amazon and Amazon-Google. The paper finds weak
//! supervision gives both methods a large, stabilizing boost.

use battleship::{ArtifactCache, ExperimentGrid, Scenario, StrategySpec};
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

    let [with_ws, without_ws] = [true, false].map(|weak| {
        eprintln!(
            "[fig9] weak supervision {} …",
            if weak { "on" } else { "off" }
        );
        let mut cfg = config.clone();
        cfg.al.weak_supervision = weak;
        ExperimentGrid::new(
            scenarios.clone(),
            vec![StrategySpec::Battleship, StrategySpec::Dal],
            args.grid_config(cfg, false),
        )
        .run_with_cache(&cache)
        .expect("grid")
    });

    for scenario in &scenarios {
        let name = scenario.name();
        println!("\nFigure 9 — {name} (F1 % per iteration)");
        let rows = [
            ("battleship", &with_ws, "battleship"),
            ("battleship -WS", &without_ws, "battleship"),
            ("dal", &with_ws, "dal"),
            ("dal -WS", &without_ws, "dal"),
        ]
        .map(|(row, grid, strategy)| (row, &grid.cell(name, strategy).expect("cell").aggregate));
        let labels: Vec<String> = rows[0]
            .1
            .mean_curve
            .iter()
            .map(|(x, _)| format!("{x:.0}"))
            .collect();
        em_bench::print_row("labels", &labels);
        for (row, report) in &rows {
            let cells: Vec<String> = report
                .mean_curve
                .iter()
                .map(|(_, y)| format!("{y:.2}"))
                .collect();
            em_bench::print_row(row, &cells);
        }
        let _ = args.write_json(&format!("fig9_{name}.json"), &rows.to_vec());
    }
}
