//! Confidence calibration utilities.
//!
//! The battleship approach exists because PLM matchers are badly
//! calibrated: "they tend to produce extreme confidence values (close to
//! 0 or 1) which barely reflect the real confidence" (§1, citing Guo et
//! al. 2017). A small MLP is naturally *better* calibrated than a
//! 125M-parameter RoBERTa, so to preserve the phenomenon the selection
//! algorithm is designed around, the matcher applies **temperature
//! sharpening** (`T < 1`) to its logits at prediction time. The
//! `ablation_calibration` bench measures what happens to the battleship
//! and DAL selection mechanisms when the confidence is left raw.

use em_core::{EmError, Result};

use crate::mlp::sigmoid;

/// Re-scale a probability through logit temperature:
/// `p' = σ(logit(p) / T)`.
///
/// `T < 1` sharpens toward 0/1 (PLM-style over-confidence), `T > 1`
/// smooths toward 0.5. `T = 1` is the identity.
pub fn apply_temperature(p: f32, temperature: f32) -> Result<f32> {
    if temperature <= 0.0 || !temperature.is_finite() {
        return Err(EmError::InvalidConfig(format!(
            "temperature {temperature} must be positive and finite"
        )));
    }
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    let logit = (p / (1.0 - p)).ln();
    Ok(sigmoid(logit / temperature))
}

/// Expected calibration error over equal-width confidence bins.
///
/// `ECE = Σ_b (n_b / n) · |acc(b) − conf(b)|` with `conf` the mean
/// predicted match probability in bin `b` and `acc` the empirical match
/// rate. Lower is better calibrated; sharpening raises it.
pub fn expected_calibration_error(probs: &[f32], labels: &[bool], n_bins: usize) -> Result<f64> {
    if probs.len() != labels.len() {
        return Err(EmError::DimensionMismatch {
            context: "ECE inputs".into(),
            expected: probs.len(),
            actual: labels.len(),
        });
    }
    if probs.is_empty() {
        return Err(EmError::EmptyInput("ECE probabilities".into()));
    }
    if n_bins == 0 {
        return Err(EmError::InvalidConfig("ECE needs n_bins > 0".into()));
    }
    let mut bin_conf = vec![0.0f64; n_bins];
    let mut bin_acc = vec![0.0f64; n_bins];
    let mut bin_n = vec![0usize; n_bins];
    for (&p, &y) in probs.iter().zip(labels) {
        let b = (((p as f64) * n_bins as f64) as usize).min(n_bins - 1);
        bin_conf[b] += p as f64;
        bin_acc[b] += if y { 1.0 } else { 0.0 };
        bin_n[b] += 1;
    }
    let n = probs.len() as f64;
    let mut ece = 0.0f64;
    for b in 0..n_bins {
        if bin_n[b] == 0 {
            continue;
        }
        let conf = bin_conf[b] / bin_n[b] as f64;
        let acc = bin_acc[b] / bin_n[b] as f64;
        ece += (bin_n[b] as f64 / n) * (acc - conf).abs();
    }
    Ok(ece)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_at_t1() {
        for p in [0.1f32, 0.3, 0.5, 0.9] {
            assert!((apply_temperature(p, 1.0).unwrap() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn sharpening_pushes_toward_extremes() {
        let p = 0.7f32;
        let sharp = apply_temperature(p, 0.25).unwrap();
        assert!(sharp > 0.95, "sharpened {sharp}");
        let low = apply_temperature(0.3, 0.25).unwrap();
        assert!(low < 0.05, "sharpened {low}");
        // 0.5 is the fixed point.
        assert!((apply_temperature(0.5, 0.25).unwrap() - 0.5).abs() < 1e-5);
    }

    #[test]
    fn sharpening_and_the_identity_keep_the_half_threshold() {
        // The labels of `sigmoid(z) ≥ 0.5` are the labels of the
        // sharpened probability: every float within 2⁻¹² of 0.5, then
        // every 997th float of the whole clamped range.
        let near = (0.5f32 - 1.0 / 4096.0).to_bits()..=(0.5f32 + 1.0 / 4096.0).to_bits();
        let wide = (1e-7f32.to_bits()..=(1.0f32 - 1e-7).to_bits()).step_by(997);
        for bits in near.chain(wide) {
            let p = f32::from_bits(bits);
            for t in [0.25f32, 0.5, 1.0] {
                let q = apply_temperature(p, t).unwrap();
                assert_eq!(q >= 0.5, p >= 0.5, "p {p} T {t} -> {q}");
            }
        }
    }

    #[test]
    fn smoothing_pulls_toward_half() {
        let smooth = apply_temperature(0.9, 4.0).unwrap();
        assert!(smooth < 0.9 && smooth > 0.5, "smoothed {smooth}");
    }

    #[test]
    fn temperature_validated() {
        assert!(apply_temperature(0.5, 0.0).is_err());
        assert!(apply_temperature(0.5, -1.0).is_err());
        assert!(apply_temperature(0.5, f32::NAN).is_err());
    }

    #[test]
    fn extreme_probs_stay_finite() {
        assert!(apply_temperature(0.0, 0.1).unwrap().is_finite());
        assert!(apply_temperature(1.0, 0.1).unwrap().is_finite());
    }

    #[test]
    fn perfectly_calibrated_has_zero_ece() {
        // Probability 0.8 with exactly 80% positives in that bin.
        let probs = vec![0.8f32; 10];
        let labels = vec![true, true, true, true, true, true, true, true, false, false];
        let ece = expected_calibration_error(&probs, &labels, 10).unwrap();
        assert!(ece < 1e-6, "ece {ece}");
    }

    #[test]
    fn overconfident_predictions_have_high_ece() {
        // Claims 0.99 but is right only half the time.
        let probs = vec![0.99f32; 10];
        let labels = vec![
            true, false, true, false, true, false, true, false, true, false,
        ];
        let ece = expected_calibration_error(&probs, &labels, 10).unwrap();
        assert!((ece - 0.49).abs() < 0.01, "ece {ece}");
    }

    #[test]
    fn sharpening_increases_ece_of_calibrated_model() {
        let probs: Vec<f32> = (0..100).map(|i| 0.3 + 0.4 * (i as f32 / 99.0)).collect();
        // Labels drawn to match the probabilities deterministically: true
        // for the top fraction within each bin approximation.
        let labels: Vec<bool> = probs.iter().enumerate().map(|(i, _)| i % 2 == 0).collect();
        let base = expected_calibration_error(&probs, &labels, 10).unwrap();
        let sharpened: Vec<f32> = probs
            .iter()
            .map(|&p| apply_temperature(p, 0.2).unwrap())
            .collect();
        let sharp_ece = expected_calibration_error(&sharpened, &labels, 10).unwrap();
        assert!(sharp_ece > base, "sharpened ECE {sharp_ece} <= base {base}");
    }

    #[test]
    fn ece_validates_inputs() {
        assert!(expected_calibration_error(&[0.5], &[], 10).is_err());
        assert!(expected_calibration_error(&[], &[], 10).is_err());
        assert!(expected_calibration_error(&[0.5], &[true], 0).is_err());
    }
}
