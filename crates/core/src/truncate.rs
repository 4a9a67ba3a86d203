//! Lemma 2.2: deterministic weak splitting in `O(r·log n)` rounds.
//!
//! If `δ > 2·log n`, every constraint locally discards incident edges until
//! exactly `δ' = ⌈2·log n⌉` remain; Lemma 2.1 on the truncated instance `H`
//! then costs `O(Δ_H · r_H) = O(r·log n)` rounds, and a weak splitting of
//! `H` remains one of `B` because the property is preserved under adding
//! edges back.

use crate::basic::basic_deterministic;
use crate::outcome::{SplitError, SplitOutcome};
use local_runtime::RoundLedger;
use splitgraph::math::weak_splitting_degree_threshold;
use splitgraph::{checks, BipartiteGraph};

/// Truncates every constraint of `b` to its first `keep` incident edges (a
/// 0-round local rule) — exposed for the experiments that sweep `keep`.
pub fn truncate_left_degrees(b: &BipartiteGraph, keep: usize) -> BipartiteGraph {
    let rows = (0..b.left_count()).map(|u| b.left_neighbors(u).iter().take(keep).copied());
    BipartiteGraph::from_left_rows(b.right_count(), rows)
        .expect("prefixes of sorted rows stay sorted and simple")
}

/// Runs the Lemma 2.2 pipeline with threshold derived from
/// `n_for_threshold` (see [`crate::basic::basic_deterministic`] for why the
/// size is a parameter).
///
/// # Errors
///
/// Returns [`SplitError::Precondition`] if `δ < 2·log n`.
pub fn truncated_deterministic(
    b: &BipartiteGraph,
    n_for_threshold: usize,
) -> Result<SplitOutcome, SplitError> {
    let threshold = weak_splitting_degree_threshold(n_for_threshold);
    let delta = b.min_left_degree();
    if delta < threshold {
        return Err(SplitError::Precondition {
            requirement: format!("δ ≥ 2·log n = {threshold}"),
            actual: format!("δ = {delta}"),
        });
    }
    let mut ledger = RoundLedger::new();
    ledger.add_measured("degree truncation to ⌈2·log n⌉ (local)", 0.0);
    // when every constraint already sits at or below the threshold the
    // truncation is the identity — run Lemma 2.1 on `b` directly instead of
    // rebuilding an equal graph (δ ≈ 2·log n is the common regime here, via
    // Theorem 2.5's small-degree branch and Theorem 1.2's residual
    // components)
    let inner = if b.max_left_degree() <= threshold {
        basic_deterministic(b, n_for_threshold)?
    } else {
        let h = truncate_left_degrees(b, threshold);
        basic_deterministic(&h, n_for_threshold)?
    };
    ledger.merge_prefixed("Lemma 2.1 on truncated instance", inner.ledger);
    debug_assert!(
        checks::is_weak_splitting(b, &inner.colors, threshold),
        "weak splitting must be preserved under adding edges back"
    );
    Ok(SplitOutcome {
        colors: inner.colors,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::generators;

    #[test]
    fn truncation_caps_left_degrees() {
        let b = generators::complete_bipartite(4, 10);
        let h = truncate_left_degrees(&b, 3);
        for u in 0..4 {
            assert_eq!(h.left_degree(u), 3);
        }
        assert!(h.rank() <= b.rank());
    }

    #[test]
    fn truncation_keeps_small_degrees() {
        let b = generators::complete_bipartite(2, 3);
        let h = truncate_left_degrees(&b, 10);
        assert_eq!(h.edge_count(), b.edge_count());
    }

    #[test]
    fn solves_high_degree_instances() {
        let mut rng = StdRng::seed_from_u64(2);
        // δ = 64 far above 2 log 288 ≈ 16.3; truncation shrinks the work
        let b = generators::random_left_regular(96, 192, 64, &mut rng).unwrap();
        let out = truncated_deterministic(&b, b.node_count()).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn cheaper_than_untruncated_on_high_degrees() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = generators::random_left_regular(96, 192, 64, &mut rng).unwrap();
        let trunc = truncated_deterministic(&b, b.node_count()).unwrap();
        let full = crate::basic::basic_deterministic(&b, b.node_count()).unwrap();
        assert!(
            trunc.ledger.measured_total() < full.ledger.measured_total(),
            "truncated {} vs full {}",
            trunc.ledger.measured_total(),
            full.ledger.measured_total()
        );
    }

    #[test]
    fn noop_truncation_fast_path_is_exact() {
        let mut rng = StdRng::seed_from_u64(9);
        // δ = Δ = 18 = threshold for n = 440: truncation is the identity,
        // so the fast path (no rebuild) must match Lemma 2.1 on b directly
        let b = generators::random_biregular(220, 220, 18, &mut rng).unwrap();
        assert_eq!(truncate_left_degrees(&b, 18), b);
        let via_truncate = truncated_deterministic(&b, b.node_count()).unwrap();
        let direct = crate::basic::basic_deterministic(&b, b.node_count()).unwrap();
        assert_eq!(via_truncate.colors, direct.colors);
        assert!(is_weak_splitting(&b, &via_truncate.colors, 0));
    }

    #[test]
    fn propagates_precondition_error() {
        let b = generators::complete_bipartite(64, 8);
        assert!(matches!(
            truncated_deterministic(&b, b.node_count()),
            Err(SplitError::Precondition { .. })
        ));
    }
}
