//! Tokenization and token-level similarity measures.
//!
//! The featurizer (`em-matcher`) and the synthetic blocker (`em-synth`)
//! both view text as lower-cased word tokens; the typo-robust similarity
//! features additionally use character n-grams. Special tokens of the
//! DITTO serialization (`[COL]`, `[VAL]`, …) survive tokenization as
//! single tokens.

use std::collections::BTreeMap;

/// Lower-cased word tokens of `text`.
///
/// Splitting rule: alphanumeric runs are tokens; everything else is a
/// separator, except that bracketed special tokens (`[COL]` etc.) are kept
/// whole. Punctuation inside words (e.g. `d-750`) splits them, mirroring
/// the aggressive normalization common in EM preprocessing pipelines.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '[' {
            // Possible special token: consume until ']' or separator.
            let mut special = String::from('[');
            let mut ok = false;
            for d in chars.by_ref() {
                special.push(d.to_ascii_uppercase());
                if d == ']' {
                    ok = true;
                    break;
                }
                if d.is_whitespace() {
                    break;
                }
            }
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            if ok {
                tokens.push(special);
            } else {
                // Not a special token: re-tokenize its alphanumeric runs.
                for part in special.split(|ch: char| !ch.is_alphanumeric()) {
                    if !part.is_empty() {
                        tokens.push(part.to_lowercase());
                    }
                }
            }
        } else if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Character n-grams of a token string (over the concatenation with `#`
/// boundary markers), used for typo-robust similarity.
pub fn char_ngrams(text: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let padded: Vec<char> = std::iter::once('#')
        .chain(text.to_lowercase().chars().filter(|c| !c.is_whitespace()))
        .chain(std::iter::once('#'))
        .collect();
    if padded.len() < n {
        return vec![padded.into_iter().collect()];
    }
    padded.windows(n).map(|w| w.iter().collect()).collect()
}

/// A multiset of tokens with counted occurrences.
///
/// Backed by a `BTreeMap` so iteration order — and therefore every
/// downstream hash/feature computation — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenSet {
    counts: BTreeMap<String, u32>,
    total: u32,
}

impl TokenSet {
    /// Build from any token iterator.
    pub fn from_tokens<S: Into<String>>(tokens: impl IntoIterator<Item = S>) -> Self {
        let mut set = TokenSet::default();
        for t in tokens {
            set.insert(t.into());
        }
        set
    }

    /// Tokenize `text` and collect the tokens.
    pub fn from_text(text: &str) -> Self {
        Self::from_tokens(tokenize(text))
    }

    /// Add one occurrence of `token`.
    pub fn insert(&mut self, token: String) {
        *self.counts.entry(token).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of distinct tokens.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total occurrences.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// `true` iff the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Occurrences of `token`.
    pub fn count(&self, token: &str) -> u32 {
        self.counts.get(token).copied().unwrap_or(0)
    }

    /// Iterate `(token, count)` in sorted token order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(t, &c)| (t.as_str(), c))
    }

    /// Size of the multiset intersection (min of counts per token).
    pub fn intersection_size(&self, other: &TokenSet) -> u32 {
        // Iterate the smaller map for speed.
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .counts
            .iter()
            .map(|(t, &c)| c.min(large.count(t)))
            .sum()
    }

    /// Size of the multiset union (max of counts per token).
    pub fn union_size(&self, other: &TokenSet) -> u32 {
        self.total + other.total - self.intersection_size(other)
    }
}

/// Multiset Jaccard similarity `|A ∩ B| / |A ∪ B|` in `[0, 1]`.
///
/// Both-empty inputs are defined to be identical (similarity 1).
pub fn jaccard(a: &TokenSet, b: &TokenSet) -> f64 {
    jaccard_from_sizes(a.intersection_size(b), a.total(), b.total())
}

/// [`jaccard`] from multiset sizes: `inter = |A ∩ B|`, `a_total = |A|`,
/// `b_total = |B|` (for callers that count the intersection themselves).
pub fn jaccard_from_sizes(inter: u32, a_total: u32, b_total: u32) -> f64 {
    if a_total == 0 && b_total == 0 {
        return 1.0;
    }
    let union = (a_total + b_total - inter) as f64;
    if union == 0.0 {
        1.0
    } else {
        inter as f64 / union
    }
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` in `[0, 1]`.
///
/// More forgiving than Jaccard when one side is much longer (e.g. the
/// ABT-Buy long-text attribute vs a short title).
pub fn overlap_coefficient(a: &TokenSet, b: &TokenSet) -> f64 {
    overlap_from_sizes(a.intersection_size(b), a.total(), b.total())
}

/// [`overlap_coefficient`] from multiset sizes, as in
/// [`jaccard_from_sizes`].
pub fn overlap_from_sizes(inter: u32, a_total: u32, b_total: u32) -> f64 {
    if a_total == 0 && b_total == 0 {
        return 1.0;
    }
    if a_total == 0 || b_total == 0 {
        return 0.0;
    }
    inter as f64 / (a_total.min(b_total) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(
            tokenize("Nikon D-750, 24.3MP!"),
            vec!["nikon", "d", "750", "24", "3mp"]
        );
    }

    #[test]
    fn tokenize_preserves_special_tokens() {
        assert_eq!(
            tokenize("[CLS] [COL] title [VAL] sims 2"),
            vec!["[CLS]", "[COL]", "title", "[VAL]", "sims", "2"]
        );
    }

    #[test]
    fn tokenize_unclosed_bracket_degrades_gracefully() {
        assert_eq!(tokenize("[oops next"), vec!["oops", "next"]);
    }

    #[test]
    fn tokenize_empty() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ,.;  ").is_empty());
    }

    #[test]
    fn char_ngrams_basic() {
        let grams = char_ngrams("abc", 3);
        assert_eq!(grams, vec!["#ab", "abc", "bc#"]);
    }

    #[test]
    fn char_ngrams_short_string() {
        let grams = char_ngrams("a", 3);
        assert_eq!(grams, vec!["#a#"]);
    }

    #[test]
    fn token_set_counts_multiplicity() {
        let s = TokenSet::from_text("the cat and the hat");
        assert_eq!(s.count("the"), 2);
        assert_eq!(s.count("cat"), 1);
        assert_eq!(s.distinct(), 4);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn jaccard_identity_and_disjoint() {
        let a = TokenSet::from_text("red fox");
        let b = TokenSet::from_text("red fox");
        let c = TokenSet::from_text("blue bird");
        assert!((jaccard(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(jaccard(&a, &c), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        let a = TokenSet::from_text("red fox jumps");
        let b = TokenSet::from_text("red fox sleeps");
        // |∩| = 2, |∪| = 4.
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_is_symmetric_and_empty_convention() {
        let a = TokenSet::from_text("x y");
        let e = TokenSet::default();
        assert_eq!(jaccard(&a, &e), 0.0);
        assert_eq!(jaccard(&e, &a), 0.0);
        assert_eq!(jaccard(&e, &e), 1.0);
    }

    #[test]
    fn overlap_coefficient_forgives_length() {
        let short = TokenSet::from_text("nikon d750");
        let long = TokenSet::from_text("nikon d750 full frame dslr camera body only");
        assert!((overlap_coefficient(&short, &long) - 1.0).abs() < 1e-12);
        assert!(jaccard(&short, &long) < 0.5);
    }

    #[test]
    fn multiset_intersection_uses_min_counts() {
        let a = TokenSet::from_tokens(["x", "x", "x", "y"]);
        let b = TokenSet::from_tokens(["x", "y", "y"]);
        assert_eq!(a.intersection_size(&b), 2); // min(3,1) + min(1,2)
        assert_eq!(a.union_size(&b), 5); // max(3,1) + max(1,2)
    }
}
