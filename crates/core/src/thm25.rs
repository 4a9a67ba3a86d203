//! Theorem 2.5 (the precise form of Theorem 1.1): deterministic weak
//! splitting in `O(r/δ·log² n + log³ n·(log log n)^1.1)` rounds for
//! `δ ≥ 2·log n`.
//!
//! Pipeline exactly as in the paper's proof: if `δ ≤ 48·log n`, run
//! Lemma 2.2 directly (`O(r·log n) = O(r/δ·log² n)`). Otherwise run
//! `k = ⌊log(δ/(12·log n))⌋` iterations of Degree–Rank Reduction I with
//! accuracy `ε = min{1/k, 1/3}`, which brings the rank down to
//! `O(r/δ·log n)` while keeping `δ ≥ 2·log n`, then finish with Lemma 2.2.
//!
//! Both branches bottom out in the incremental conditional-expectation
//! engine (`derand::phased_fix` via Lemma 2.1), so the whole pipeline is
//! deterministic down to the bit level: identical inputs yield identical
//! colorings. The `pipeline` benchmark (`exp_pipeline`) tracks both the
//! small-degree and the DRR branch end to end.

use crate::drr1::{degree_rank_reduction_i, DrrIterationStats};
use crate::outcome::{check_degree_threshold, SplitError, SplitOutcome};
use crate::truncate::truncated_deterministic;
use degree_split::{DegreeSplitter, Engine, Flavor};
use local_runtime::RoundLedger;
use splitgraph::math::log2;
use splitgraph::{checks, BipartiteGraph};

/// The paper's predicted round bound `r/δ·log² n + log³ n·(log log n)^1.1`
/// (constants 1), for experiment tables.
pub fn theorem25_round_bound(n: usize, delta: usize, rank: usize) -> f64 {
    let n = n.max(4) as f64;
    let log_n = n.log2();
    rank as f64 / delta.max(1) as f64 * log_n * log_n
        + log_n.powi(3) * log_n.log2().max(1.0).powf(1.1)
}

/// Diagnostics of a Theorem 2.5 run.
#[derive(Debug, Clone)]
pub struct Theorem25Report {
    /// Iterations of DRR-I executed (`0` when Lemma 2.2 ran directly).
    pub drr_iterations: usize,
    /// Accuracy used for the degree splitting.
    pub eps: f64,
    /// DRR-I trace (empty when Lemma 2.2 ran directly).
    pub trace: Vec<DrrIterationStats>,
    /// Rank of the reduced instance handed to Lemma 2.2.
    pub reduced_rank: usize,
    /// Minimum constraint degree of the reduced instance.
    pub reduced_delta: usize,
}

/// Runs Theorem 2.5 and returns the splitting plus diagnostics.
///
/// # Errors
///
/// Returns [`SplitError::Precondition`] if `δ < 2·log n`.
///
/// # Examples
///
/// ```
/// use splitting_core::theorem25;
/// use splitgraph::{checks, generators};
/// use degree_split::Flavor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let b = generators::random_biregular(100, 100, 20, &mut rng)?;
/// let (out, report) = theorem25(&b, Flavor::Deterministic)?;
/// assert!(checks::is_weak_splitting(&b, &out.colors, 0));
/// assert_eq!(report.drr_iterations, 0); // δ ≤ 48·log n: Lemma 2.2 path
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn theorem25(
    b: &BipartiteGraph,
    flavor: Flavor,
) -> Result<(SplitOutcome, Theorem25Report), SplitError> {
    let n = b.node_count();
    let threshold = check_degree_threshold(b, n)?;
    let delta = b.min_left_degree();
    let log_n = log2(n.max(2));

    // small-degree regime: Lemma 2.2 is already within budget
    if (delta as f64) <= 48.0 * log_n {
        let out = truncated_deterministic(b, n)?;
        let report = Theorem25Report {
            drr_iterations: 0,
            eps: 0.0,
            trace: Vec::new(),
            reduced_rank: b.rank(),
            reduced_delta: delta,
        };
        return Ok((out, report));
    }

    let k = (delta as f64 / (12.0 * log_n)).log2().floor() as usize;
    debug_assert!(k >= 1, "δ > 48·log n implies at least one iteration");
    let eps = (1.0 / k as f64).min(1.0 / 3.0);
    let splitter = DegreeSplitter::new(eps, Engine::EulerianOracle, flavor);
    let reduction = degree_rank_reduction_i(b, &splitter, k);
    let reduced = reduction.graph;
    let reduced_delta = reduced.min_left_degree();
    let reduced_rank = reduced.rank();
    debug_assert!(
        reduced_delta >= threshold,
        "Lemma 2.4 guarantees δ̄ ≥ 2·log n (got {reduced_delta} < {threshold})"
    );

    let mut ledger = RoundLedger::new();
    ledger.merge(reduction.ledger);
    let inner = truncated_deterministic(&reduced, n)?;
    ledger.merge_prefixed("Lemma 2.2 on reduced instance", inner.ledger);

    // a weak splitting of the reduced (edge-subset) instance is one of B
    debug_assert!(checks::is_weak_splitting(b, &inner.colors, threshold));
    let report = Theorem25Report {
        drr_iterations: k,
        eps,
        trace: reduction.trace,
        reduced_rank,
        reduced_delta,
    };
    Ok((
        SplitOutcome {
            colors: inner.colors,
            ledger,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::generators;

    #[test]
    fn small_degree_regime_uses_lemma22() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_biregular(120, 100, 20, &mut rng).unwrap();
        let (out, report) = theorem25(&b, Flavor::Deterministic).unwrap();
        assert_eq!(report.drr_iterations, 0);
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn large_degree_regime_runs_drr() {
        // K_{64,512}: n = 576, δ = 512 > 48·log n ≈ 440, rank 64
        let b = generators::complete_bipartite(64, 512);
        let (out, report) = theorem25(&b, Flavor::Deterministic).unwrap();
        assert!(report.drr_iterations >= 1, "expected DRR iterations");
        assert!(report.reduced_rank < b.rank());
        assert!(is_weak_splitting(&b, &out.colors, 0));
        assert!(
            out.ledger.charged_total() > 0.0,
            "oracle splitting must be charged"
        );
    }

    #[test]
    fn pipeline_is_bit_deterministic() {
        // the incremental fixer engine underneath must not introduce any
        // run-to-run nondeterminism in either regime
        let mut rng = StdRng::seed_from_u64(21);
        let small = generators::random_biregular(120, 100, 20, &mut rng).unwrap();
        let dense = generators::complete_bipartite(64, 512);
        for b in [&small, &dense] {
            let (a, _) = theorem25(b, Flavor::Deterministic).unwrap();
            let (c, _) = theorem25(b, Flavor::Deterministic).unwrap();
            assert_eq!(a.colors, c.colors);
            assert_eq!(a.ledger.total(), c.ledger.total());
        }
    }

    #[test]
    fn rejects_below_threshold() {
        let b = generators::complete_bipartite(300, 10);
        assert!(matches!(
            theorem25(&b, Flavor::Deterministic),
            Err(SplitError::Precondition { .. })
        ));
    }

    #[test]
    fn round_bound_formula_shape() {
        // doubling r doubles the first term
        let a = theorem25_round_bound(1 << 12, 64, 64);
        let b2 = theorem25_round_bound(1 << 12, 64, 128);
        assert!(b2 > a);
        // the additive polylog term dominates for tiny r/δ
        let c = theorem25_round_bound(1 << 12, 4096, 2);
        assert!(c > 0.0);
    }

    #[test]
    fn randomized_flavor_charges_fewer_rounds() {
        let b = generators::complete_bipartite(64, 512);
        let (det, _) = theorem25(&b, Flavor::Deterministic).unwrap();
        let (ran, _) = theorem25(&b, Flavor::Randomized).unwrap();
        assert!(ran.ledger.charged_total() < det.ledger.charged_total());
    }
}
