//! Lemma 2.1: deterministic weak splitting in `O(Δ·r)` rounds for
//! `δ ≥ 2·log n`.
//!
//! The zero-round algorithm is derandomized by the method of conditional
//! expectations ([GHK16, Thm III.1] gives an SLOCAL(2) algorithm), compiled
//! to LOCAL with a proper coloring of the variable square of `B`
//! ([GHK17a, Prop. 3.2]): variables sharing a constraint must not decide
//! simultaneously, so the phases enumerate the square's color classes. The
//! square has maximum degree `< Δ·r`, so the palette — and hence the phase
//! count — is `O(Δ·r)`.
//!
//! The scheduling coloring itself is a cited black box in the paper
//! (\[BEK14a\]: `O(Δr)` colors in `O(Δr + log* n)` rounds); see
//! [`SchedulingMode`] for the two reproduction engines.

use crate::outcome::{check_degree_threshold, to_two_coloring, SplitError, SplitOutcome};
use derand::{phased_fix, ColoringEstimator};
use local_coloring::{color_power, greedy_right_square};
use local_runtime::RoundLedger;
use splitgraph::math::log_star;
use splitgraph::{right_square, BipartiteGraph};

/// How the distance-2 scheduling coloring of Lemma 2.1 is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingMode {
    /// Reference engine for the cited \[BEK14a\] black box: a sequential
    /// greedy coloring with `Δ(B²|_V)+1 = O(Δr)` colors, rounds **charged**
    /// as `Δr + log* n` (the cited complexity, constants 1). Computed on `B`
    /// directly by [`local_coloring::greedy_right_square`] without building
    /// the square: `Σ_v Σ_{u ∈ N(v)} deg(u)` steps in `O(|V|)` memory.
    #[default]
    Reference,
    /// Genuinely distributed engine: Linial + Kuhn–Wattenhofer on the
    /// variable square, rounds **measured** (shape `O(Δr·log(Δr) + log* n)`,
    /// one log factor above the citation; see DESIGN.md).
    Distributed,
}

/// Runs the Lemma 2.1 pipeline with the default (reference) scheduling.
///
/// `n_for_threshold` is the node count entering the `δ ≥ 2·log n`
/// requirement — callers solving a *sub*instance of a larger network (e.g.
/// Theorem 1.2 on shattered components) pass the relevant size.
///
/// # Errors
///
/// Returns [`SplitError::Precondition`] if `δ < 2·log n` and
/// [`SplitError::EstimatorTooLarge`] if the union bound fails to certify
/// the derandomization (impossible when the precondition holds).
pub fn basic_deterministic(
    b: &BipartiteGraph,
    n_for_threshold: usize,
) -> Result<SplitOutcome, SplitError> {
    basic_deterministic_with(b, n_for_threshold, SchedulingMode::default())
}

/// [`basic_deterministic`] with an explicit scheduling engine.
///
/// # Errors
///
/// Same as [`basic_deterministic`].
pub fn basic_deterministic_with(
    b: &BipartiteGraph,
    n_for_threshold: usize,
    mode: SchedulingMode,
) -> Result<SplitOutcome, SplitError> {
    check_degree_threshold(b, n_for_threshold)?;
    basic_deterministic_unchecked(b, mode)
}

/// The Lemma 2.1 pipeline without the degree precondition — used by callers
/// that establish `Φ < 1` by other means. Still fails if `Φ ≥ 1`.
///
/// # Errors
///
/// Returns [`SplitError::EstimatorTooLarge`] when the union bound does not
/// certify success.
pub fn basic_deterministic_unchecked(
    b: &BipartiteGraph,
    mode: SchedulingMode,
) -> Result<SplitOutcome, SplitError> {
    let mut ledger = RoundLedger::new();

    // distance-2 scheduling coloring of the variable square (palette O(Δ·r))
    let (scheduling_colors, palette) = match mode {
        SchedulingMode::Reference => {
            let (colors, max_degree) = greedy_right_square(b);
            ledger.add_charged(
                "B² coloring (BEK14a: Δr + log* n)",
                (max_degree + 1) as f64 + log_star(b.node_count().max(2)) as f64,
            );
            (colors, max_degree as u32 + 1)
        }
        SchedulingMode::Distributed => {
            let sq = right_square(b);
            let ids: Vec<u64> = (0..sq.node_count() as u64).collect();
            let out = color_power(&sq, 1, &ids, sq.node_count().max(1) as u64);
            // coloring the square of B costs a factor-2 simulation on B
            ledger.add_measured(
                "B² coloring (Linial + KW, simulated on B)",
                2.0 * out.rounds as f64,
            );
            (out.colors, out.palette)
        }
    };

    let est = ColoringEstimator::monochromatic(b);
    let fix = phased_fix(b, est, &scheduling_colors, palette);
    ledger.add_measured(
        "conditional-expectation phases (2 per color class)",
        fix.rounds as f64,
    );
    if fix.initial_phi >= 1.0 {
        return Err(SplitError::EstimatorTooLarge {
            phi: fix.initial_phi,
        });
    }
    debug_assert!(fix.final_phi < 1.0, "greedy fixing must not increase Φ");
    Ok(SplitOutcome {
        colors: to_two_coloring(&fix.colors),
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
    fn solves_random_biregular_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        // n = 300: threshold = ⌈2 log 300⌉ = 17
        let b = generators::random_biregular(100, 200, 18, &mut rng).unwrap();
        let out = basic_deterministic(&b, b.node_count()).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
        assert!(out.ledger.measured_total() > 0.0);
        assert!(
            out.ledger.charged_total() > 0.0,
            "reference scheduling is charged"
        );
    }

    #[test]
    fn distributed_mode_matches_reference_validity() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = generators::random_biregular(60, 120, 18, &mut rng).unwrap();
        let reference =
            basic_deterministic_with(&b, b.node_count(), SchedulingMode::Reference).unwrap();
        let distributed =
            basic_deterministic_with(&b, b.node_count(), SchedulingMode::Distributed).unwrap();
        assert!(is_weak_splitting(&b, &reference.colors, 0));
        assert!(is_weak_splitting(&b, &distributed.colors, 0));
        assert_eq!(
            distributed.ledger.charged_total(),
            0.0,
            "fully measured pipeline"
        );
    }

    #[test]
    fn rejects_low_degree_instances() {
        let b = generators::complete_bipartite(50, 4);
        let err = basic_deterministic(&b, b.node_count()).unwrap_err();
        assert!(matches!(err, SplitError::Precondition { .. }));
    }

    #[test]
    fn unchecked_variant_works_when_phi_small() {
        let mut rng = StdRng::seed_from_u64(3);
        // degree 12 < 2 log 360 but Φ = 120·2·2^{-12} ≈ 0.06 < 1
        let b = generators::random_left_regular(120, 240, 12, &mut rng).unwrap();
        let out = basic_deterministic_unchecked(&b, SchedulingMode::Reference).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn unchecked_variant_reports_large_phi() {
        let mut rng = StdRng::seed_from_u64(5);
        // degree 3: Φ = 100·2·2^{-3} = 25 ≥ 1
        let b = generators::random_left_regular(100, 60, 3, &mut rng).unwrap();
        let err = basic_deterministic_unchecked(&b, SchedulingMode::Reference).unwrap_err();
        assert!(matches!(err, SplitError::EstimatorTooLarge { .. }));
    }

    #[test]
    fn rounds_scale_with_delta_r() {
        let mut rng = StdRng::seed_from_u64(8);
        // same n, growing Δ·r: charged + measured rounds must grow
        let small = generators::random_biregular(128, 128, 18, &mut rng).unwrap();
        let big = generators::complete_bipartite(120, 136);
        let rs = basic_deterministic(&small, small.node_count()).unwrap();
        let rb = basic_deterministic(&big, big.node_count()).unwrap();
        assert!(
            rb.ledger.total() > rs.ledger.total(),
            "expected more rounds for larger Δ·r ({} vs {})",
            rb.ledger.total(),
            rs.ledger.total()
        );
    }
}
