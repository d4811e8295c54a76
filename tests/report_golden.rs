//! Golden-report test: the canonical (timing-zeroed) JSON of a pinned
//! tiny experiment grid must be bit-identical to the committed
//! fixture. This is the cross-session complement to the engine's
//! serial-vs-parallel invariance test — it catches determinism
//! regressions (hash-order iteration, ambient clock/env reads) that
//! change results between *builds*, not just between schedulers.
//!
//! Regenerate after an intentional algorithm change with:
//! `EM_UPDATE_GOLDEN=1 cargo test --test report_golden`
//!
//! The run is pinned to the AVX2 tier family: Portable and AVX2 are
//! bit-identical by the kernel's reduction-order contract, so the
//! fixture holds on any x86 host and on non-x86 (where the pin clamps
//! to Portable). AVX-512 ships under a *tolerance* contract instead
//! (FMA changes the bits) — letting it float here would fork the
//! fixture by host CPU. Its cross-tier agreement is gated separately in
//! `tests/simd_tolerance.rs`.

use battleship_em::al::{ExperimentConfig, ExperimentGrid, GridConfig, Scenario, StrategySpec};
use battleship_em::synth::DatasetProfile;
use battleship_em::vector::{with_simd_tier, SimdTier};

fn golden_path() -> String {
    format!(
        "{}/tests/fixtures/golden_grid_report.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn tiny_grid() -> ExperimentGrid {
    let mut experiment = ExperimentConfig::default();
    experiment.al.budget = 20;
    experiment.al.iterations = 2;
    experiment.al.seed_size = 20;
    experiment.al.weak_budget = 20;
    experiment.matcher.epochs = 6;
    experiment.battleship.kselect_sample = 128;
    ExperimentGrid::new(
        vec![Scenario::synthetic_scaled(
            DatasetProfile::amazon_google(),
            0.04,
            5,
        )],
        vec![
            StrategySpec::Random,
            StrategySpec::Battleship,
            StrategySpec::Dal,
            StrategySpec::Dial,
        ],
        GridConfig {
            experiment,
            master_seed: 0x0B17_5EED,
            n_seeds: 1,
            include_baselines: false,
        },
    )
}

#[test]
fn canonical_report_matches_committed_golden() {
    // Serial scope: the tier override is thread-local, so the grid must
    // not fan out onto workers that would fall back to the detected tier.
    let json = rayon::serial_scope(|| with_simd_tier(SimdTier::Avx2, || tiny_grid().run()))
        .expect("grid run")
        .canonical()
        .to_json()
        .expect("to_json");
    let path = golden_path();
    if std::env::var_os("EM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, json.as_bytes()).expect("writing golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden fixture missing — regenerate with EM_UPDATE_GOLDEN=1");
    assert_eq!(
        json, want,
        "canonical grid report diverged from the committed golden fixture; \
         if the change is intentional, regenerate with \
         `EM_UPDATE_GOLDEN=1 cargo test --test report_golden`"
    );
}
