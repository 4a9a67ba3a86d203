//! The trivial zero-round randomized algorithm (Section 2.1).
//!
//! Each variable colors itself red or blue uniformly at random without any
//! communication. A union bound shows that for `δ ≥ 2·log n` every
//! constraint sees both colors with probability at least `1 − 2/n` — the
//! starting point of every derandomization in the paper.

use crate::outcome::{check_degree_threshold, SplitError, SplitOutcome};
use local_runtime::{NodeRngs, RoundLedger};
use rand::RngExt;
use splitgraph::{checks, BipartiteGraph, Color};

/// Runs the zero-round algorithm once with the given seed. No validity
/// guarantee — callers check, as a LOCAL checker would.
pub fn zero_round_coloring(b: &BipartiteGraph, seed: u64) -> SplitOutcome {
    let rngs = NodeRngs::new(seed);
    let colors: Vec<Color> = (0..b.right_count())
        .map(|v| Color::from_bool(rngs.rng(v, 0).random_bool(0.5)))
        .collect();
    let mut ledger = RoundLedger::new();
    ledger.add_measured("zero-round random coloring", 0.0);
    SplitOutcome { colors, ledger }
}

/// Zero-round algorithm with verification and seed retry (a Las Vegas
/// wrapper): requires the `δ ≥ 2·log n` regime in which the failure
/// probability is below `2/n`.
///
/// # Errors
///
/// Returns [`SplitError::Precondition`] when `δ < 2·log n`, and
/// [`SplitError::RandomizedFailure`] if `attempts` seeds all fail (has
/// probability `≤ (2/n)^attempts` in the valid regime).
pub fn zero_round_whp(
    b: &BipartiteGraph,
    seed: u64,
    attempts: usize,
) -> Result<SplitOutcome, SplitError> {
    check_degree_threshold(b, b.node_count())?;
    for i in 0..attempts {
        let out = zero_round_coloring(b, seed.wrapping_add(i as u64));
        if checks::is_weak_splitting(b, &out.colors, 0) {
            return Ok(out);
        }
    }
    Err(SplitError::RandomizedFailure {
        phase: "zero-round coloring".into(),
        attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    #[test]
    fn zero_round_uses_zero_rounds() {
        let b = generators::complete_bipartite(2, 8);
        let out = zero_round_coloring(&b, 1);
        assert_eq!(out.colors.len(), 8);
        assert_eq!(out.ledger.total(), 0.0);
    }

    #[test]
    fn zero_round_is_seed_deterministic() {
        let b = generators::complete_bipartite(3, 20);
        let a = zero_round_coloring(&b, 9).colors;
        let c = zero_round_coloring(&b, 9).colors;
        assert_eq!(a, c);
        let d = zero_round_coloring(&b, 10).colors;
        assert_ne!(a, d);
    }

    #[test]
    fn whp_variant_succeeds_in_regime() {
        let mut rng = StdRng::seed_from_u64(2);
        // n = 160, 2 log n ≈ 14.6 < 20
        let b = generators::random_left_regular(40, 120, 20, &mut rng).unwrap();
        let out = zero_round_whp(&b, 7, 10).unwrap();
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn whp_variant_rejects_low_degree() {
        let b = generators::complete_bipartite(40, 3); // δ = 3 < 2 log 43
        let err = zero_round_whp(&b, 7, 10).unwrap_err();
        assert!(matches!(err, SplitError::Precondition { .. }));
    }

    #[test]
    fn empirical_failure_rate_matches_union_bound() {
        let mut rng = StdRng::seed_from_u64(4);
        // δ = 16 = 2 log(256): failure probability ≤ 2·|U|/2^16 ≈ 0.002
        let b = generators::random_left_regular(64, 192, 16, &mut rng).unwrap();
        let failures = (0..200)
            .filter(|&s| {
                let out = zero_round_coloring(&b, s);
                !checks::is_weak_splitting(&b, &out.colors, 0)
            })
            .count();
        assert!(failures <= 4, "too many failures: {failures}/200");
    }
}
