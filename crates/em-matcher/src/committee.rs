//! Matcher committees for query-by-committee uncertainty (the DIAL
//! baseline's selection principle).
//!
//! "Typically, QBC finds uncertain samples ... by training multiple
//! versions of a classifier and measuring uncertainty as their level of
//! disagreement. For example, Mozafari et al. define the variance of the
//! committee for the matching task as X(u)(1 − X(u)) where X(u) is the
//! fraction of classifiers predicted that a given pair is a match" (§7).

use em_core::{EmError, Label, Result};
use em_vector::Embeddings;

use crate::matcher::{train_matcher, MatcherConfig, TrainedMatcher};

/// Committee parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitteeConfig {
    /// Number of committee members (each trained with a different seed).
    pub n_members: usize,
    /// Template configuration; member `i` gets `seed + i`.
    pub matcher: MatcherConfig,
}

impl Default for CommitteeConfig {
    fn default() -> Self {
        CommitteeConfig {
            n_members: 5,
            matcher: MatcherConfig::default(),
        }
    }
}

/// A trained committee.
pub struct Committee {
    members: Vec<TrainedMatcher>,
}

impl Committee {
    /// Train `n_members` matchers on the same data with different seeds.
    pub fn train(
        features: &Embeddings,
        train_idx: &[usize],
        train_labels: &[Label],
        valid_idx: &[usize],
        valid_labels: &[Label],
        config: &CommitteeConfig,
    ) -> Result<Self> {
        if config.n_members == 0 {
            return Err(EmError::InvalidConfig(
                "committee needs at least one member".into(),
            ));
        }
        let mut members = Vec::with_capacity(config.n_members);
        for m in 0..config.n_members {
            let member_cfg = MatcherConfig {
                seed: config
                    .matcher
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(m as u64 + 1)),
                ..config.matcher.clone()
            };
            members.push(train_matcher(
                features,
                train_idx,
                train_labels,
                valid_idx,
                valid_labels,
                &member_cfg,
            )?);
        }
        Ok(Committee { members })
    }

    /// Committee size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the committee has no members (unreachable via `train`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Fraction of members voting "match" per row of `indices`.
    pub fn vote_fractions(&self, features: &Embeddings, indices: &[usize]) -> Result<Vec<f64>> {
        let mut votes = vec![0usize; indices.len()];
        for member in &self.members {
            let labels = member.labels(features, indices)?;
            for (v, l) in votes.iter_mut().zip(&labels) {
                if l.is_match() {
                    *v += 1;
                }
            }
        }
        Ok(votes
            .into_iter()
            .map(|v| v as f64 / self.members.len() as f64)
            .collect())
    }

    /// Mozafari-style committee variance `X(u)(1 − X(u))` per pair —
    /// maximal (0.25) when the committee splits evenly.
    pub fn disagreement(&self, features: &Embeddings, indices: &[usize]) -> Result<Vec<f64>> {
        Ok(self
            .vote_fractions(features, indices)?
            .into_iter()
            .map(|x| x * (1.0 - x))
            .collect())
    }

    /// Majority-vote predictions (ties break toward match, mirroring the
    /// 0.5-threshold convention).
    pub fn majority_labels(&self, features: &Embeddings, indices: &[usize]) -> Result<Vec<Label>> {
        Ok(self
            .vote_fractions(features, indices)?
            .into_iter()
            .map(|x| Label::from_bool(x >= 0.5))
            .collect())
    }

    /// Access a member (for representation extraction — DIAL uses the
    /// first member's embeddings as its index representation).
    pub fn member(&self, i: usize) -> Result<&TrainedMatcher> {
        self.members
            .get(i)
            .ok_or_else(|| EmError::IndexOutOfBounds {
                context: "committee member".into(),
                index: i,
                len: self.members.len(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureConfig, Featurizer};
    use em_core::Rng;
    use em_synth::{generate, DatasetProfile};

    fn task() -> (Embeddings, Vec<usize>, Vec<Label>) {
        let p = DatasetProfile::amazon_google().scaled(0.02);
        let d = generate(&p, &mut Rng::seed_from_u64(11)).unwrap();
        let f = Featurizer::new(&d, FeatureConfig::default()).unwrap();
        let feats = f.featurize_all(&d).unwrap();
        let train = d.split().train.clone();
        let labels = d.ground_truth_of(&train);
        (feats, train, labels)
    }

    fn quick_config(n: usize) -> CommitteeConfig {
        CommitteeConfig {
            n_members: n,
            matcher: MatcherConfig {
                epochs: 3,
                ..Default::default()
            },
        }
    }

    #[test]
    fn votes_are_fractions() {
        let (feats, train, labels) = task();
        let c = Committee::train(&feats, &train, &labels, &[], &[], &quick_config(3)).unwrap();
        assert_eq!(c.len(), 3);
        let idx: Vec<usize> = (0..20).collect();
        let votes = c.vote_fractions(&feats, &idx).unwrap();
        for v in votes {
            assert!((0.0..=1.0).contains(&v));
            // With 3 members, fractions are multiples of 1/3.
            let scaled = v * 3.0;
            assert!((scaled - scaled.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn disagreement_bounded_and_consistent() {
        let (feats, train, labels) = task();
        let c = Committee::train(&feats, &train, &labels, &[], &[], &quick_config(4)).unwrap();
        let idx: Vec<usize> = (0..30).collect();
        let votes = c.vote_fractions(&feats, &idx).unwrap();
        let dis = c.disagreement(&feats, &idx).unwrap();
        for (v, d) in votes.iter().zip(&dis) {
            assert!((d - v * (1.0 - v)).abs() < 1e-12);
            assert!((0.0..=0.25).contains(d));
        }
    }

    #[test]
    fn unanimous_pairs_have_zero_disagreement() {
        let (feats, train, labels) = task();
        let c = Committee::train(&feats, &train, &labels, &[], &[], &quick_config(3)).unwrap();
        let idx: Vec<usize> = (0..feats.len()).collect();
        let dis = c.disagreement(&feats, &idx).unwrap();
        let zeros = dis.iter().filter(|&&d| d == 0.0).count();
        assert!(
            zeros > idx.len() / 2,
            "expected many unanimous pairs, got {zeros}/{}",
            idx.len()
        );
    }

    #[test]
    fn majority_agrees_with_votes() {
        let (feats, train, labels) = task();
        let c = Committee::train(&feats, &train, &labels, &[], &[], &quick_config(3)).unwrap();
        let idx: Vec<usize> = (0..25).collect();
        let votes = c.vote_fractions(&feats, &idx).unwrap();
        let majority = c.majority_labels(&feats, &idx).unwrap();
        for (v, l) in votes.iter().zip(&majority) {
            assert_eq!(l.is_match(), *v >= 0.5);
        }
    }

    #[test]
    fn member_access_checked() {
        let (feats, train, labels) = task();
        let c = Committee::train(&feats, &train, &labels, &[], &[], &quick_config(2)).unwrap();
        assert!(c.member(0).is_ok());
        assert!(c.member(5).is_err());
    }

    #[test]
    fn zero_members_rejected() {
        let (feats, train, labels) = task();
        assert!(Committee::train(&feats, &train, &labels, &[], &[], &quick_config(0)).is_err());
    }
}
