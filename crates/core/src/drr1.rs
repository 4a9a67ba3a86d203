//! Degree–Rank Reduction I (Section 2.2) and the Lemma 2.4 bounds.
//!
//! Each iteration computes a directed degree splitting of the bipartite
//! graph (viewed as a multigraph over `U ∪ V`, oriented straight from its
//! rows by [`DegreeSplitter::split_bipartite`]) and deletes every edge
//! oriented from the variable side toward the constraint side. Constraint
//! degrees shrink by roughly half per iteration while the rank shrinks at
//! the same rate, so after `k = ⌊log(δ / (12·log n))⌋` iterations the rank
//! is `O(r/δ · log n)` while constraint degrees stay above `2·log n` —
//! Lemma 2.4 makes the tradeoff precise:
//!
//! ```text
//! δ_k > ((1 − ε)/2)^k·δ − 2      r_k < ((1 + ε)/2)^k·r + 3
//! ```

use degree_split::DegreeSplitter;
use local_runtime::RoundLedger;
use splitgraph::BipartiteGraph;

/// Parameters and measurements of one DRR-I iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct DrrIterationStats {
    /// Iteration index (1-based, matching Lemma 2.4's `k`).
    pub iteration: usize,
    /// Minimum constraint degree after the iteration.
    pub min_left_degree: usize,
    /// Rank after the iteration.
    pub rank: usize,
    /// Lemma 2.4 lower bound `((1−ε)/2)^k·δ − 2` on the minimum degree.
    pub delta_lower_bound: f64,
    /// Lemma 2.4 upper bound `((1+ε)/2)^k·r + 3` on the rank.
    pub rank_upper_bound: f64,
}

/// Result of running DRR-I.
#[derive(Debug, Clone)]
pub struct DrrReduction {
    /// The residual bipartite graph after `k` iterations.
    pub graph: BipartiteGraph,
    /// Per-iteration measurements against the Lemma 2.4 bounds.
    pub trace: Vec<DrrIterationStats>,
    /// Accumulated rounds of the splitting subroutine calls.
    pub ledger: RoundLedger,
}

/// Runs `k` iterations of Degree–Rank Reduction I with accuracy `eps`.
///
/// # Panics
///
/// Panics if `eps` is outside `(0, 1]` (the splitter enforces it).
pub fn degree_rank_reduction_i(
    b: &BipartiteGraph,
    splitter: &DegreeSplitter,
    k: usize,
) -> DrrReduction {
    let delta0 = b.min_left_degree() as f64;
    let rank0 = b.rank() as f64;
    let eps = splitter.eps();
    let n = b.node_count();
    // `b` is only read until the first residual exists
    let mut residual: Option<BipartiteGraph> = None;
    let mut trace = Vec::with_capacity(k);
    let mut ledger = RoundLedger::new();
    for it in 1..=k {
        let current = residual.as_ref().unwrap_or(b);
        let split = splitter.split_bipartite(current, n);
        ledger.merge_prefixed(&format!("DRR-I iteration {it}"), split.ledger);
        // keep exactly the edges oriented toward the variable side
        let mut kept = split.kept.iter();
        let next = current.filter_edges(|_, _| *kept.next().unwrap());
        let factor_lo = ((1.0 - eps) / 2.0).powi(it as i32);
        let factor_hi = ((1.0 + eps) / 2.0).powi(it as i32);
        trace.push(DrrIterationStats {
            iteration: it,
            min_left_degree: next.min_left_degree(),
            rank: next.rank(),
            delta_lower_bound: factor_lo * delta0 - 2.0,
            rank_upper_bound: factor_hi * rank0 + 3.0,
        });
        residual = Some(next);
    }
    DrrReduction {
        graph: residual.unwrap_or_else(|| b.clone()),
        trace,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degree_split::{Engine, Flavor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    fn splitter(eps: f64) -> DegreeSplitter {
        DegreeSplitter::new(eps, Engine::EulerianOracle, Flavor::Deterministic)
    }

    #[test]
    fn single_iteration_roughly_halves_both_sides() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_biregular(120, 90, 24, &mut rng).unwrap();
        let red = degree_rank_reduction_i(&b, &splitter(0.25), 1);
        let s = &red.trace[0];
        assert!(s.min_left_degree >= 11, "δ₁ = {}", s.min_left_degree);
        assert!(s.rank <= 17, "r₁ = {}", s.rank);
    }

    #[test]
    fn lemma_2_4_bounds_hold_along_the_trace() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = generators::random_biregular(160, 128, 32, &mut rng).unwrap();
        let red = degree_rank_reduction_i(&b, &splitter(0.2), 4);
        for s in &red.trace {
            assert!(
                s.min_left_degree as f64 > s.delta_lower_bound,
                "iteration {}: δ = {} ≤ bound {}",
                s.iteration,
                s.min_left_degree,
                s.delta_lower_bound
            );
            assert!(
                (s.rank as f64) < s.rank_upper_bound,
                "iteration {}: r = {} ≥ bound {}",
                s.iteration,
                s.rank,
                s.rank_upper_bound
            );
        }
    }

    #[test]
    fn oracle_engine_accumulates_charged_rounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = generators::random_biregular(60, 60, 16, &mut rng).unwrap();
        let red = degree_rank_reduction_i(&b, &splitter(0.3), 3);
        assert_eq!(red.trace.len(), 3);
        assert!(red.ledger.charged_total() > 0.0);
        assert_eq!(red.ledger.measured_total(), 0.0);
        assert_eq!(red.ledger.entries().len(), 3);
    }

    #[test]
    fn walk_engine_measures_rounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = generators::random_biregular(60, 60, 16, &mut rng).unwrap();
        let s = DegreeSplitter::new(0.25, Engine::Walk, Flavor::Deterministic);
        let red = degree_rank_reduction_i(&b, &s, 2);
        assert!(red.ledger.measured_total() > 0.0);
        assert_eq!(red.ledger.charged_total(), 0.0);
        // walk engine is approximate: degrees still shrink near half
        assert!(red.trace[0].min_left_degree >= 5);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let b = generators::complete_bipartite(4, 6);
        let red = degree_rank_reduction_i(&b, &splitter(0.2), 0);
        assert_eq!(red.graph, b);
        assert!(red.trace.is_empty());
        assert_eq!(red.ledger.total(), 0.0);
    }

    #[test]
    fn edges_only_ever_deleted() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = generators::random_biregular(40, 40, 12, &mut rng).unwrap();
        let red = degree_rank_reduction_i(&b, &splitter(0.25), 2);
        for (u, v) in red.graph.edges() {
            assert!(
                b.contains_edge(u, v),
                "edge ({u}, {v}) appeared from nowhere"
            );
        }
    }
}
