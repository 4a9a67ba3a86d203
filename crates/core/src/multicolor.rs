//! Multicolor splitting variants (Definitions 1.2 and 1.3) and their
//! membership algorithms (the "in P-RLOCAL" halves of Theorems 3.2/3.3).
//!
//! * **C-weak multicolor splitting** (Def. 1.3): color the variables with
//!   `C ≥ 2·log n` colors so every constraint of degree at least
//!   `2(log n + 1)·ln n` sees at least `2·log n` distinct colors. The
//!   membership algorithm picks uniformly from the first `⌈2·log n⌉`
//!   colors; the expected number of (constraint, missing-color) pairs is
//!   below 1, so the conditional-expectation fixer derandomizes it.
//! * **(C, λ)-multicolor splitting** (Def. 1.2): color with `C` colors so
//!   every constraint has at most `⌈λ·deg(u)⌉` neighbors of each color.
//!   The membership algorithm picks uniformly from `C' = 3` (if `λ ≥ 2/3`)
//!   or `C' = ⌈3/λ⌉` colors; the per-color Chernoff tail is `n^{-Θ(α)}`
//!   for degrees `≥ (α/λ)·ln n`, derandomized via the MGF estimator.

use crate::outcome::SplitError;
use derand::{chernoff_t, sequential_fix, ColoringEstimator, FixOutcome};
use local_runtime::{NodeRngs, RoundLedger};
use rand::RngExt;
use splitgraph::math::{weak_multicolor_degree_threshold, weak_multicolor_required_colors};
use splitgraph::{checks, BipartiteGraph, MultiColor};

/// A multicolor splitting result.
#[derive(Debug, Clone)]
pub struct MulticolorOutcome {
    /// Color per variable, in `0..palette`.
    pub colors: Vec<MultiColor>,
    /// Palette size actually used.
    pub palette: u32,
    /// Round accounting.
    pub ledger: RoundLedger,
}

/// Randomized zero-round C-weak multicolor splitting: each variable picks
/// uniformly among the first `⌈2·log n⌉` colors. Validity holds in
/// expectation for the Definition 1.3 degree threshold; callers verify.
pub fn weak_multicolor_random(b: &BipartiteGraph, seed: u64) -> MulticolorOutcome {
    let n = b.node_count();
    let palette = weak_multicolor_required_colors(n) as u32;
    let rngs = NodeRngs::new(seed);
    let colors: Vec<MultiColor> = (0..b.right_count())
        .map(|v| rngs.rng(v, 0).random_range(0..palette))
        .collect();
    let mut ledger = RoundLedger::new();
    ledger.add_measured("zero-round multicolor choice", 0.0);
    MulticolorOutcome {
        colors,
        palette,
        ledger,
    }
}

/// Deterministic C-weak multicolor splitting via the missing-color
/// estimator, scheduled by a coloring of the variable square
/// (SLOCAL(2) → LOCAL compilation, as in the Theorem 3.2 membership proof).
///
/// # Errors
///
/// Returns [`SplitError::EstimatorTooLarge`] if the union bound does not
/// certify success (the instance violates the Definition 1.3 degree
/// regime badly).
pub fn weak_multicolor_deterministic(b: &BipartiteGraph) -> Result<MulticolorOutcome, SplitError> {
    let n = b.node_count();
    let palette = weak_multicolor_required_colors(n) as u32;
    let est = ColoringEstimator::missing_color(b, palette);
    let (fix, rounds_entry) = scheduled_fix(b, est);
    if fix.initial_phi >= 1.0 {
        return Err(SplitError::EstimatorTooLarge {
            phi: fix.initial_phi,
        });
    }
    let mut ledger = RoundLedger::new();
    ledger.add_charged("B² scheduling coloring (BEK14a)", rounds_entry.0);
    ledger.add_charged("conditional-expectation phases (compiled)", rounds_entry.1);
    debug_assert!(checks::is_weak_multicolor_splitting(
        b,
        &fix.colors,
        weak_multicolor_degree_threshold(n),
        weak_multicolor_required_colors(n),
    ));
    Ok(MulticolorOutcome {
        colors: fix.colors,
        palette,
        ledger,
    })
}

/// Randomized zero-round (C, λ)-multicolor splitting with the Theorem 3.3
/// palette choice `C' = 3` (if `λ ≥ 2/3`) or `C' = ⌈3/λ⌉`.
///
/// # Panics
///
/// Panics if `lambda` is not in `(0, 1]` or `c < 2`.
pub fn multicolor_splitting_random(
    b: &BipartiteGraph,
    c: u32,
    lambda: f64,
    seed: u64,
) -> MulticolorOutcome {
    let c_prime = theorem33_palette(c, lambda);
    let rngs = NodeRngs::new(seed);
    let colors: Vec<MultiColor> = (0..b.right_count())
        .map(|v| rngs.rng(v, 0).random_range(0..c_prime))
        .collect();
    let mut ledger = RoundLedger::new();
    ledger.add_measured("zero-round multicolor choice", 0.0);
    MulticolorOutcome {
        colors,
        palette: c_prime,
        ledger,
    }
}

/// Deterministic (C, λ)-multicolor splitting via the Chernoff/MGF overload
/// estimator (the derandomized Theorem 3.3 membership algorithm).
///
/// # Errors
///
/// Returns [`SplitError::EstimatorTooLarge`] if the Chernoff union bound
/// does not certify success for this instance.
///
/// # Panics
///
/// Panics if `lambda` is not in `(0, 1]` or `c < 2`.
pub fn multicolor_splitting_deterministic(
    b: &BipartiteGraph,
    c: u32,
    lambda: f64,
) -> Result<MulticolorOutcome, SplitError> {
    let c_prime = theorem33_palette(c, lambda);
    let caps: Vec<usize> = (0..b.left_count())
        .map(|u| (lambda * b.left_degree(u) as f64).ceil() as usize)
        .collect();
    let avg_deg = if b.left_count() == 0 {
        1.0
    } else {
        b.edge_count() as f64 / b.left_count() as f64
    };
    let t = chernoff_t(lambda * avg_deg, c_prime, avg_deg);
    let est = ColoringEstimator::overload(b, c_prime, &caps, t);
    let (fix, rounds_entry) = scheduled_fix(b, est);
    if fix.initial_phi >= 1.0 {
        return Err(SplitError::EstimatorTooLarge {
            phi: fix.initial_phi,
        });
    }
    let mut ledger = RoundLedger::new();
    ledger.add_charged("B² scheduling coloring (BEK14a)", rounds_entry.0);
    ledger.add_charged("conditional-expectation phases (compiled)", rounds_entry.1);
    debug_assert!(checks::is_multicolor_splitting(
        b,
        &fix.colors,
        c_prime,
        lambda,
        0
    ));
    Ok(MulticolorOutcome {
        colors: fix.colors,
        palette: c_prime,
        ledger,
    })
}

/// The Theorem 3.3 palette: `3` when `λ ≥ 2/3`, else `⌈3/λ⌉` (both `≤ C`
/// under the theorem's assumption `λ ≥ min{0.95, 3/(C−1)}`).
///
/// # Panics
///
/// Panics if `lambda` is not in `(0, 1]` or `c < 2`.
pub fn theorem33_palette(c: u32, lambda: f64) -> u32 {
    assert!(lambda > 0.0 && lambda <= 1.0, "lambda must lie in (0, 1]");
    assert!(c >= 2, "palette bound must be at least 2");
    if c == 2 {
        return 2;
    }
    let c_prime = if lambda >= 2.0 / 3.0 {
        3
    } else {
        (3.0 / lambda).ceil() as u32
    };
    c_prime.min(c)
}

/// Shared fixing step: the greedy pass runs sequentially (it *is* the
/// SLOCAL(2) algorithm — materializing the variable square of the dense
/// Definition 1.3 instances would cost `Σ_u deg(u)²` memory for no output
/// difference), while the LOCAL compilation costs are charged from the
/// [GHK17a] formulas: a `O(Δ·r)`-coloring of the square (`Δ·r + log* n`
/// rounds per [BEK14a]) plus two rounds per color class. Returns the fix
/// plus `(coloring_charge, phases_charge)`.
fn scheduled_fix(b: &BipartiteGraph, est: ColoringEstimator) -> (FixOutcome, (f64, f64)) {
    // Δ(B²|V) < Δ·r, and the palette cannot exceed the variable count
    let sched_palette = (b.max_left_degree() * b.rank().max(1)).min(b.right_count().max(1));
    let coloring_charge =
        sched_palette as f64 + splitgraph::math::log_star(b.node_count().max(2)) as f64;
    let phases_charge = 2.0 * (sched_palette as f64 + 1.0);
    let fix = sequential_fix(b, est, 0..b.right_count());
    (fix, (coloring_charge, phases_charge))
}

/// Sequential (SLOCAL) variant of [`weak_multicolor_deterministic`],
/// exposed for cross-validation in tests and experiments.
///
/// # Errors
///
/// Returns [`SplitError::EstimatorTooLarge`] when `Φ ≥ 1` initially.
pub fn weak_multicolor_slocal(b: &BipartiteGraph) -> Result<MulticolorOutcome, SplitError> {
    let n = b.node_count();
    let palette = weak_multicolor_required_colors(n) as u32;
    let est = ColoringEstimator::missing_color(b, palette);
    let fix = sequential_fix(b, est, 0..b.right_count());
    if fix.initial_phi >= 1.0 {
        return Err(SplitError::EstimatorTooLarge {
            phi: fix.initial_phi,
        });
    }
    let mut ledger = RoundLedger::new();
    ledger.add_measured("SLOCAL sequential pass", 0.0);
    Ok(MulticolorOutcome {
        colors: fix.colors,
        palette,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    /// An instance inside the Definition 1.3 regime with `c > 1` headroom:
    /// the randomized membership argument needs `deg ≫ (2·log n + 1)·ln n`,
    /// so degrees sit near `(2·log n + 1)·ln² n` as in the theorem's
    /// statement for `c = 2`.
    fn def13_instance(seed: u64) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        // n = 2176: (2·log n + 1)·ln n ≈ 176, with ln² headroom → 1024
        generators::random_left_regular(128, 2048, 1024, &mut rng).unwrap()
    }

    #[test]
    fn weak_multicolor_random_mostly_valid() {
        let b = def13_instance(1);
        let n = b.node_count();
        let out = weak_multicolor_random(&b, 3);
        let violations = checks::weak_multicolor_violations(
            &b,
            &out.colors,
            weak_multicolor_degree_threshold(n),
            weak_multicolor_required_colors(n),
        );
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn weak_multicolor_deterministic_always_valid() {
        let b = def13_instance(2);
        let n = b.node_count();
        let out = weak_multicolor_deterministic(&b).unwrap();
        assert!(checks::is_weak_multicolor_splitting(
            &b,
            &out.colors,
            weak_multicolor_degree_threshold(n),
            weak_multicolor_required_colors(n),
        ));
        assert!(out.colors.iter().all(|&x| x < out.palette));
    }

    #[test]
    fn weak_multicolor_slocal_matches() {
        let b = def13_instance(3);
        let n = b.node_count();
        let out = weak_multicolor_slocal(&b).unwrap();
        assert!(checks::is_weak_multicolor_splitting(
            &b,
            &out.colors,
            weak_multicolor_degree_threshold(n),
            weak_multicolor_required_colors(n),
        ));
    }

    #[test]
    fn theorem33_palette_cases() {
        assert_eq!(theorem33_palette(16, 0.7), 3);
        assert_eq!(theorem33_palette(16, 0.5), 6);
        assert_eq!(theorem33_palette(16, 0.25), 12);
        assert_eq!(theorem33_palette(4, 0.25), 4, "clamped to C");
        assert_eq!(theorem33_palette(2, 0.95), 2);
    }

    #[test]
    fn multicolor_splitting_deterministic_respects_caps() {
        let mut rng = StdRng::seed_from_u64(4);
        // λ = 1/2, degrees 64: caps 32, Chernoff certifies easily
        let b = generators::random_biregular(128, 256, 64, &mut rng).unwrap();
        let out = multicolor_splitting_deterministic(&b, 8, 0.5).unwrap();
        assert!(checks::is_multicolor_splitting(
            &b,
            &out.colors,
            out.palette,
            0.5,
            0
        ));
    }

    #[test]
    fn multicolor_splitting_random_usually_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = generators::random_biregular(128, 256, 64, &mut rng).unwrap();
        let mut successes = 0;
        for seed in 0..10 {
            let out = multicolor_splitting_random(&b, 8, 0.5, seed);
            if checks::is_multicolor_splitting(&b, &out.colors, out.palette, 0.5, 0) {
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes}/10 random runs valid");
    }

    #[test]
    fn estimator_failure_reported_for_bad_regime() {
        // degree-2 constraints cannot see 2·log n ≫ 2 colors
        let b = generators::complete_bipartite(200, 2);
        assert!(matches!(
            weak_multicolor_deterministic(&b),
            Err(SplitError::EstimatorTooLarge { .. })
        ));
    }
}
