//! Lemma 3.1: weak splitting has a deterministic SLOCAL(2) algorithm.
//!
//! The conditional-expectation fixer reads, when processing a variable, the
//! states of its constraints (distance 1) and of their already-decided
//! variables (distance 2) — nothing else. Running it through
//! [`local_runtime::run_slocal`], whose views *panic* on any read outside
//! the declared radius, certifies the radius claim operationally: if this
//! function completes, the algorithm provably touched only 2-hop state.
//! The output is cross-validated (bit-identical) against
//! [`derand::sequential_fix`].

use crate::outcome::{SplitError, SplitOutcome};
use local_runtime::{run_slocal, RoundLedger};
use splitgraph::{BipartiteGraph, Color};

/// Per-node SLOCAL state: variables commit a color, constraints stay inert
/// (their "state" is derivable from their variables, as in the SLOCAL
/// formalism where reads inspect the neighborhood's memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    /// Not yet processed (or a constraint node).
    #[default]
    Undecided,
    /// A committed variable color.
    Decided(Color),
}

/// Runs the Lemma 3.1 SLOCAL(2) weak-splitting algorithm over the variables
/// in index order, with the executor enforcing the radius-2 read bound.
///
/// # Errors
///
/// Returns [`SplitError::EstimatorTooLarge`] if the union bound does not
/// certify the instance (`Φ = Σ_u 2·2^{-deg(u)} ≥ 1`); Lemma 3.1's
/// precondition `deg(u) ≥ 2·log n` always certifies it.
pub fn slocal_weak_splitting(b: &BipartiteGraph) -> Result<SplitOutcome, SplitError> {
    let initial_phi: f64 = (0..b.left_count())
        .map(|u| 2.0 * 0.5f64.powi(b.left_degree(u) as i32))
        .sum();
    if initial_phi >= 1.0 {
        return Err(SplitError::EstimatorTooLarge { phi: initial_phi });
    }

    let g = b.to_graph();
    let left = b.left_count();
    // process variables in index order; constraints are processed trivially
    // first so the permutation covers every node of the host graph
    let order: Vec<usize> = (0..left).chain(left..g.node_count()).collect();
    let states = run_slocal(
        &g,
        &order,
        2,
        vec![State::Undecided; g.node_count()],
        |v, view| {
            if v < left {
                return State::Undecided; // constraints hold no output
            }
            // greedy choice: for each candidate color, sum φ'_u over the
            // adjacent constraints, reading only radius-2 state
            let mut best = Color::Red;
            let mut best_score = f64::INFINITY;
            for cand in Color::both() {
                let mut score = 0.0;
                for &u in view.graph().neighbors(v) {
                    // u is a constraint (distance 1); its variables are at
                    // distance 2 from v
                    let mut fixed_red = 0i32;
                    let mut fixed_blue = 0i32;
                    let mut unfixed = 0i32;
                    for &w in view.graph().neighbors(u) {
                        match view.state(w) {
                            State::Decided(Color::Red) => fixed_red += 1,
                            State::Decided(Color::Blue) => fixed_blue += 1,
                            State::Undecided => unfixed += 1,
                        }
                    }
                    // hypothetically commit the candidate
                    let (fr, fb) = match cand {
                        Color::Red => (fixed_red + 1, fixed_blue),
                        Color::Blue => (fixed_red, fixed_blue + 1),
                    };
                    let m = unfixed - 1;
                    let missing = f64::from(u8::from(fr == 0)) + f64::from(u8::from(fb == 0));
                    score += 0.5f64.powi(m) * missing;
                }
                if score < best_score {
                    best_score = score;
                    best = cand;
                }
            }
            State::Decided(best)
        },
    );

    let colors: Vec<Color> = states[left..]
        .iter()
        .map(|s| match s {
            State::Decided(c) => *c,
            State::Undecided => Color::Red, // isolated variables
        })
        .collect();
    let mut ledger = RoundLedger::new();
    ledger.add_measured(
        "SLOCAL(2) pass (sequential; radius enforced by executor)",
        0.0,
    );
    Ok(SplitOutcome { colors, ledger })
}

#[cfg(test)]
mod tests {
    use super::*;
    use derand::{sequential_fix, ColoringEstimator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::generators;

    #[test]
    fn radius_two_suffices_and_output_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_left_regular(80, 160, 14, &mut rng).unwrap();
        // completing at all certifies the SLOCAL(2) claim (the executor
        // panics on radius violations)
        let out = slocal_weak_splitting(&b).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
    }

    #[test]
    fn matches_the_incremental_fixer_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = generators::random_left_regular(50, 100, 12, &mut rng).unwrap();
        let slocal = slocal_weak_splitting(&b).unwrap();
        let fix = sequential_fix(&b, ColoringEstimator::monochromatic(&b), 0..b.right_count());
        assert_eq!(slocal.colors, crate::outcome::to_two_coloring(&fix.colors));
    }

    #[test]
    fn rejects_uncertified_instances() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = generators::random_left_regular(100, 60, 3, &mut rng).unwrap();
        assert!(matches!(
            slocal_weak_splitting(&b),
            Err(SplitError::EstimatorTooLarge { .. })
        ));
    }

    #[test]
    fn handles_isolated_variables() {
        // one constraint over 12 of 14 variables: two variables isolated
        let edges: Vec<(usize, usize)> = (0..12).map(|v| (0, v)).collect();
        let b = BipartiteGraph::from_edges(1, 14, &edges).unwrap();
        let out = slocal_weak_splitting(&b).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
        assert_eq!(out.colors.len(), 14);
    }
}
