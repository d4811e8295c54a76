//! Table 4: F1 at a mid-sweep label count and at the final label count
//! for every method and dataset (the paper reports 500 and 900 labels;
//! scaled runs report their own label counts, printed in the header).

use em_bench::{fig5_cached, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let results = fig5_cached(&args).expect("fig5 sweep");

    // Mid and final label counts from any curve.
    let any = &results.reports[0];
    let n = any.mean_curve.len();
    let mid_labels = any.mean_curve[n / 2].0;
    let final_labels = any.mean_curve[n - 1].0;

    println!(
        "Table 4 — F1 (%) at {mid_labels:.0} and {final_labels:.0} labels \
         (paper reports 500/900 at full scale)\n"
    );
    let datasets: Vec<&str> = em_synth::all_profiles().iter().map(|p| p.name).collect();
    em_bench::print_row(
        "method",
        &datasets.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
    );
    println!();

    for (row, extreme) in [
        ("zeroer (0)", &results.zeroer),
        ("full-d (all)", &results.full_d),
    ] {
        let cells: Vec<String> = datasets
            .iter()
            .map(|d| {
                extreme
                    .get(*d)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        em_bench::print_row(row, &cells);
    }
    println!();
    for method in ["random", "dal", "dial", "battleship"] {
        for (tag, labels) in [("mid", mid_labels), ("end", final_labels)] {
            let cells: Vec<String> = datasets
                .iter()
                .map(|d| {
                    results
                        .report(d, method)
                        .and_then(|r| r.f1_at(labels))
                        .map(|v| format!("{v:.2}"))
                        .unwrap_or_else(|| "-".into())
                })
                .collect();
            em_bench::print_row(&format!("{method} ({tag})"), &cells);
        }
    }
}
