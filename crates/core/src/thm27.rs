//! Theorem 2.7: weak splitting for `δ ≥ 6r` — deterministic in polylog `n`
//! rounds, randomized in polyloglog `n` rounds.
//!
//! When `δ ≥ 2·log n` the generic algorithms apply. Otherwise the paper's
//! pipeline runs: uniformize constraint degrees (`Δ ≤ 2δ`, Section 2.4
//! preprocessing), set `ε = 1/(10Δ)` so that every splitting discrepancy is
//! at most 2, run `⌈log r⌉` iterations of Degree–Rank Reduction II until the
//! rank is exactly 1 (Lemma 2.6), and observe that `δ ≥ 6r` leaves every
//! constraint with at least 2 edges — each constraint then simply picks one
//! remaining neighbor red and one blue, conflict-free because rank 1 means
//! no variable serves two constraints.

use crate::drr2::degree_rank_reduction_ii;
use crate::outcome::{SplitError, SplitOutcome};
use crate::thm12::{theorem12, Theorem12Config};
use crate::thm25::theorem25;
use crate::virtual_split::uniformize_left_degrees;
use crate::zero_round::zero_round_whp;
use degree_split::{DegreeSplitter, Engine, Flavor};
use local_runtime::RoundLedger;
use splitgraph::math::{ceil_log2, weak_splitting_degree_threshold};
use splitgraph::{checks, BipartiteGraph, Color};

/// Deterministic or randomized execution of Theorem 2.7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Deterministic: polylog `n` rounds.
    Deterministic,
    /// Randomized with a master seed: polyloglog `n` rounds.
    Randomized(u64),
}

/// Runs Theorem 2.7.
///
/// # Errors
///
/// Returns [`SplitError::Precondition`] unless `δ ≥ 6r` and `δ ≥ 2`
/// (non-trivial instances), or propagates inner-pipeline errors.
///
/// # Examples
///
/// ```
/// use splitting_core::{theorem27, Variant};
/// use splitgraph::{checks, generators};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// // δ = 12 ≥ 6·r = 12: the skewed regime Theorem 2.7 covers
/// let b = generators::random_biregular(12, 72, 12, &mut rng)?;
/// let out = theorem27(&b, Variant::Deterministic)?;
/// assert!(checks::is_weak_splitting(&b, &out.colors, 0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn theorem27(b: &BipartiteGraph, variant: Variant) -> Result<SplitOutcome, SplitError> {
    let delta = b.min_left_degree();
    let rank = b.rank();
    if delta < 6 * rank || delta < 2 {
        return Err(SplitError::Precondition {
            requirement: "δ ≥ 6r and δ ≥ 2".into(),
            actual: format!("δ = {delta}, r = {rank}"),
        });
    }
    let n = b.node_count();
    let threshold = weak_splitting_degree_threshold(n);

    // high-degree regime: the generic algorithms already apply
    if delta >= threshold {
        return match variant {
            Variant::Deterministic => theorem25(b, Flavor::Deterministic).map(|(out, _)| out),
            Variant::Randomized(seed) => zero_round_whp(b, seed, 64),
        };
    }

    // randomized middle regime: Theorem 1.2 handles δ = Ω(log(r·log n))
    if let Variant::Randomized(seed) = variant {
        let cfg = Theorem12Config {
            seed,
            ..Theorem12Config::default()
        };
        if let Ok(out) = theorem12(b, &cfg) {
            return Ok(out);
        }
        // otherwise fall through to the DRR-II route with randomized flavor
    }

    let mut ledger = RoundLedger::new();
    // degree uniformization: Δ ≤ 2δ − 1 afterwards (local, 0 rounds)
    let vs = uniformize_left_degrees(b, delta);
    ledger.add_measured("virtual-node degree uniformization (local)", 0.0);
    let work: &BipartiteGraph = &vs.graph;

    let flavor = match variant {
        Variant::Deterministic => Flavor::Deterministic,
        Variant::Randomized(_) => Flavor::Randomized,
    };
    let eps = 1.0 / (10.0 * work.max_left_degree().max(1) as f64);
    let splitter = DegreeSplitter::new(eps, Engine::EulerianOracle, flavor);
    let k = if work.rank() <= 1 {
        0
    } else {
        ceil_log2(work.rank()) as usize
    };
    let reduction = degree_rank_reduction_ii(work, &splitter, k);
    ledger.merge(reduction.ledger);
    let reduced = &reduction.graph;
    debug_assert!(
        reduced.rank() <= 1,
        "Lemma 2.6: rank must be 1 after ⌈log r⌉ iterations"
    );

    // rank 1: every constraint picks one red and one blue neighbor
    let mut colors = vec![None; b.right_count()];
    for u in 0..reduced.left_count() {
        let nbrs = reduced.left_neighbors(u);
        if nbrs.len() < 2 {
            return Err(SplitError::Precondition {
                requirement: "two surviving edges per constraint (δ ≥ 6r gives this)".into(),
                actual: format!("virtual constraint {u} kept {} edges", nbrs.len()),
            });
        }
        debug_assert!(colors[nbrs[0]].is_none() && colors[nbrs[1]].is_none());
        colors[nbrs[0]] = Some(Color::Red);
        colors[nbrs[1]] = Some(Color::Blue);
    }
    ledger.add_measured("final red/blue selection (1 round)", 1.0);
    let colors: Vec<Color> = colors
        .into_iter()
        .map(|c| c.unwrap_or(Color::Red))
        .collect();
    debug_assert!(
        checks::is_weak_splitting(b, &colors, 0),
        "Theorem 2.7 output must be valid"
    );
    Ok(SplitOutcome { colors, ledger })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::generators;

    #[test]
    fn low_degree_regime_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        // δ = 12, rank = 2, n = 84: threshold ≈ 13 > 12 → DRR-II route
        let b = generators::random_biregular(12, 72, 12, &mut rng).unwrap();
        assert!(b.min_left_degree() < weak_splitting_degree_threshold(b.node_count()));
        let out = theorem27(&b, Variant::Deterministic).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn low_degree_regime_randomized() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = generators::random_biregular(12, 72, 12, &mut rng).unwrap();
        let out = theorem27(&b, Variant::Randomized(99)).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn high_degree_regime_dispatches() {
        let mut rng = StdRng::seed_from_u64(3);
        // δ = 30 ≥ 2 log(480) ≈ 17.8 and rank 2 ≤ δ/6
        let b = generators::random_biregular(30, 450, 30, &mut rng).unwrap();
        assert!(b.rank() * 6 <= b.min_left_degree());
        let out = theorem27(&b, Variant::Deterministic).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
        let out = theorem27(&b, Variant::Randomized(5)).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn rejects_wrong_regime() {
        let b = generators::complete_bipartite(10, 10); // δ = 10, r = 10
        assert!(matches!(
            theorem27(&b, Variant::Deterministic),
            Err(SplitError::Precondition { .. })
        ));
    }

    #[test]
    fn nonuniform_degrees_are_uniformized() {
        // one huge constraint plus small ones, rank kept low by many variables
        let mut edges = Vec::new();
        for v in 0..60 {
            edges.push((0, v)); // degree-60 constraint
        }
        for u in 1..6 {
            for j in 0..12 {
                edges.push((u, 60 + (u - 1) * 12 + j)); // degree-12 constraints
            }
        }
        let b = BipartiteGraph::from_edges(6, 120, &edges).unwrap();
        assert_eq!(b.rank(), 1);
        let out = theorem27(&b, Variant::Deterministic).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }
}
