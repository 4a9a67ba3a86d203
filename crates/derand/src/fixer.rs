//! The method of conditional expectations, in SLOCAL and LOCAL form.
//!
//! * [`sequential_fix`] processes the variables in an arbitrary order — this
//!   is the SLOCAL(2) algorithm produced by [GHK16, Theorem III.1]: a
//!   variable's greedy choice reads only the states of its constraints
//!   (distance 1) and their fixed neighbors (distance 2).
//! * [`phased_fix`] is the SLOCAL→LOCAL compilation of
//!   [GHK17a, Prop. 3.2] as used by Lemma 2.1 and Theorem 3.2: given a
//!   proper coloring of the *variable square* (variables sharing a
//!   constraint get distinct colors), all variables of one color class
//!   decide simultaneously — they share no constraint, so their greedy
//!   choices commute and `Φ` still never increases. Each class costs 2
//!   LOCAL rounds (constraints publish their counts; variables announce
//!   their choice), for `2·C` measured rounds total.
//!
//! Both fixers run on the incremental [`FixerState`] engine: scheduling
//! preconditions are verified by a linear stamp pass (not a pairwise scan),
//! class buckets come from one counting sort over the square coloring
//! (`O(nv + palette)`, not `O(nv·palette)`), and the greedy inner loop is
//! table-driven with no `powi` — see the [`crate::estimator`] module docs.

use crate::estimator::{ColoringEstimator, FixerState};
use splitgraph::{BipartiteGraph, MultiColor};

/// Commit-loop stride between cooperative cancellation checkpoints
/// ([`local_runtime::checkpoint`]). Checkpoints never touch fixer
/// state, so results stay bit-identical whether or not a
/// [`local_runtime::CancelToken`] is installed; the stride keeps the
/// thread-local read off the per-variable hot path.
const CANCEL_STRIDE: usize = 4096;

/// Outcome of a derandomized fixing pass.
#[derive(Debug, Clone)]
pub struct FixOutcome {
    /// The chosen color per variable.
    pub colors: Vec<MultiColor>,
    /// `Φ` before any variable was fixed (< 1 certifies success).
    pub initial_phi: f64,
    /// `Φ` after all variables were fixed (number of violated constraints
    /// is at most this).
    pub final_phi: f64,
    /// Measured LOCAL rounds (0 for the sequential SLOCAL form).
    pub rounds: usize,
}

/// Runs the sequential (SLOCAL(2)) conditional-expectation fixer over the
/// variables of `b` in `order` (`0..nv` for the identity order), checking
/// that it is a permutation as it fixes.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the variables.
pub fn sequential_fix(
    b: &BipartiteGraph,
    est: ColoringEstimator,
    order: impl IntoIterator<Item = usize, IntoIter: ExactSizeIterator>,
) -> FixOutcome {
    let nv = b.right_count();
    let order = order.into_iter();
    assert_eq!(order.len(), nv, "order must cover every variable");
    let mut state = FixerState::new(b, est);
    let initial_phi = state.total();
    let mut colors = vec![0 as MultiColor; nv];
    let mut seen = vec![false; nv];
    for (i, v) in order.enumerate() {
        assert!(
            v < nv && !seen[v],
            "order must be a permutation of the variables"
        );
        seen[v] = true;
        if i % CANCEL_STRIDE == 0 {
            local_runtime::checkpoint();
        }
        let x = state.best_color(v);
        state.fix(v, x);
        colors[v] = x;
    }
    FixOutcome {
        colors,
        initial_phi,
        final_phi: state.total(),
        rounds: 0,
    }
}

/// Verifies the scheduling precondition (same-class variables share no
/// constraint) with one linear stamp pass: per class, remember the last
/// constraint that saw it and which variable carried it — a repeat within
/// the same constraint is a violation. `O(Σ deg(u) + classes)` instead of
/// the pairwise `O(Σ deg(u)²)` scan.
pub(crate) fn verify_schedule(b: &BipartiteGraph, square_coloring: &[u32]) {
    let classes = square_coloring
        .iter()
        .copied()
        .max()
        .map_or(0, |c| c as usize + 1);
    let mut last_seen_constraint = vec![usize::MAX; classes];
    let mut last_seen_var = vec![0usize; classes];
    for u in 0..b.left_count() {
        for &w in b.left_neighbors(u) {
            let class = square_coloring[w] as usize;
            if last_seen_constraint[class] == u {
                let v = last_seen_var[class];
                assert_ne!(
                    square_coloring[v], square_coloring[w],
                    "variables {v} and {w} share constraint {u} but have the same class"
                );
            }
            last_seen_constraint[class] = u;
            last_seen_var[class] = w;
        }
    }
}

/// Runs the LOCAL-compiled fixer: variables decide in phases given by
/// `square_coloring`, a proper coloring (palette size `palette`) of the
/// variable square of `b` (variables sharing a constraint must have
/// different colors — e.g. from `local_coloring::greedy_right_square`,
/// which colors the square without building it, or from
/// [`splitgraph::right_square`] + `local_coloring::color_power`).
///
/// Measured rounds are `2 × palette` (each phase: constraints publish
/// counts, the class announces choices).
///
/// # Panics
///
/// Panics if the coloring length mismatches or two variables sharing a
/// constraint have the same color.
pub fn phased_fix(
    b: &BipartiteGraph,
    est: ColoringEstimator,
    square_coloring: &[u32],
    palette: u32,
) -> FixOutcome {
    let nv = b.right_count();
    assert_eq!(square_coloring.len(), nv, "square coloring length mismatch");
    verify_schedule(b, square_coloring);
    // counting-sort the variables into class buckets once: deciders of
    // class p are the slice bucket[offsets[p]..offsets[p + 1]], ascending
    // (classes ≥ palette fall outside the compiled schedule and never
    // decide, exactly as before)
    let np = palette as usize;
    let mut offsets = vec![0usize; np + 1];
    for &class in square_coloring {
        if (class as usize) < np {
            offsets[class as usize + 1] += 1;
        }
    }
    for p in 0..np {
        offsets[p + 1] += offsets[p];
    }
    let mut bucket = vec![0usize; offsets[np]];
    let mut cursor = offsets.clone();
    for (v, &class) in square_coloring.iter().enumerate() {
        if (class as usize) < np {
            bucket[cursor[class as usize]] = v;
            cursor[class as usize] += 1;
        }
    }

    let mut state = FixerState::new(b, est);
    let initial_phi = state.total();
    let mut colors = vec![0 as MultiColor; nv];
    let mut rounds = 0usize;
    let mut choices: Vec<u32> = Vec::new();
    for class in 0..np {
        local_runtime::checkpoint();
        // one phase: every variable of this class decides from the current
        // counts; commits are order-independent because the class is
        // constraint-disjoint (empty classes still cost their phase in the
        // compiled schedule)
        let deciders = &bucket[offsets[class]..offsets[class + 1]];
        rounds += 2;
        if deciders.is_empty() {
            continue;
        }
        choices.clear();
        for &v in deciders {
            choices.push(state.best_color(v));
        }
        for (&v, &x) in deciders.iter().zip(&choices) {
            state.fix(v, x);
            colors[v] = x;
        }
    }
    FixOutcome {
        colors,
        initial_phi,
        final_phi: state.total(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_coloring::{color_power, greedy_right_square};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::{generators, right_square, Color};

    fn to_colors(xs: &[MultiColor]) -> Vec<Color> {
        xs.iter()
            .map(|&x| if x == 0 { Color::Red } else { Color::Blue })
            .collect()
    }

    #[test]
    fn sequential_fix_solves_weak_splitting() {
        let mut rng = StdRng::seed_from_u64(1);
        // 60 constraints of degree 16 over 120 variables: 2·2^{-16}·60 < 1
        let b = generators::random_left_regular(60, 120, 16, &mut rng).unwrap();
        let est = ColoringEstimator::monochromatic(&b);
        let out = sequential_fix(&b, est, 0..120);
        assert!(out.initial_phi < 1.0, "initial Φ = {}", out.initial_phi);
        assert!(out.final_phi < 1.0);
        assert!(is_weak_splitting(&b, &to_colors(&out.colors), 0));
    }

    #[test]
    #[should_panic(expected = "order must cover every variable")]
    fn sequential_fix_rejects_short_order() {
        let b = generators::complete_bipartite(1, 3);
        let _ = sequential_fix(&b, ColoringEstimator::monochromatic(&b), 0..2);
    }

    #[test]
    #[should_panic(expected = "order must be a permutation of the variables")]
    fn sequential_fix_rejects_repeated_variable() {
        let b = generators::complete_bipartite(1, 3);
        let _ = sequential_fix(&b, ColoringEstimator::monochromatic(&b), [0, 2, 0]);
    }

    #[test]
    fn sequential_fix_order_invariance_of_guarantee() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = generators::random_left_regular(40, 80, 14, &mut rng).unwrap();
        for seed in 0..3 {
            let mut order: Vec<usize> = (0..80).collect();
            use rand::seq::SliceRandom;
            let mut r = StdRng::seed_from_u64(seed);
            order.shuffle(&mut r);
            let out = sequential_fix(&b, ColoringEstimator::monochromatic(&b), order);
            assert!(is_weak_splitting(&b, &to_colors(&out.colors), 0));
        }
    }

    #[test]
    fn phased_fix_matches_guarantee_and_counts_rounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = generators::random_left_regular(50, 100, 16, &mut rng).unwrap();
        let sq = right_square(&b);
        let ids: Vec<u64> = (0..sq.node_count() as u64).collect();
        let coloring = color_power(&sq, 1, &ids, sq.node_count() as u64);
        let out = phased_fix(
            &b,
            ColoringEstimator::monochromatic(&b),
            &coloring.colors,
            coloring.palette,
        );
        assert!(out.final_phi < 1.0);
        assert!(is_weak_splitting(&b, &to_colors(&out.colors), 0));
        assert_eq!(out.rounds, 2 * coloring.palette as usize);
    }

    #[test]
    fn phased_fix_with_sequential_reference_coloring() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = generators::random_left_regular(30, 60, 12, &mut rng).unwrap();
        let (colors, _) = greedy_right_square(&b);
        let palette = colors.iter().max().unwrap() + 1;
        let out = phased_fix(&b, ColoringEstimator::monochromatic(&b), &colors, palette);
        assert!(is_weak_splitting(&b, &to_colors(&out.colors), 0));
    }

    #[test]
    #[should_panic(expected = "same class")]
    fn phased_fix_rejects_bad_schedule() {
        let b = generators::complete_bipartite(1, 3);
        // all three variables share the constraint but get one class
        let _ = phased_fix(&b, ColoringEstimator::monochromatic(&b), &[0, 0, 0], 1);
    }

    #[test]
    #[should_panic(expected = "same class")]
    fn phased_fix_rejects_nonadjacent_class_repeat() {
        let b = generators::complete_bipartite(1, 4);
        // classes repeat with a different class in between: the stamp pass
        // must still catch the {0, 2} collision under constraint 0
        let _ = phased_fix(&b, ColoringEstimator::monochromatic(&b), &[0, 1, 0, 2], 3);
    }

    #[test]
    fn missing_color_fix_covers_palette() {
        let mut rng = StdRng::seed_from_u64(11);
        // degree 64, palette 6: Φ = 40·6·(5/6)^64 ≈ 0.002
        let b = generators::random_left_regular(40, 160, 64, &mut rng).unwrap();
        let est = ColoringEstimator::missing_color(&b, 6);
        let out = sequential_fix(&b, est, 0..160);
        assert!(out.initial_phi < 1.0, "initial Φ = {}", out.initial_phi);
        // every constraint sees all 6 colors
        for u in 0..40 {
            let mut seen = std::collections::HashSet::new();
            for &v in b.left_neighbors(u) {
                seen.insert(out.colors[v]);
            }
            assert_eq!(seen.len(), 6, "constraint {u} missing colors");
        }
    }

    #[test]
    fn overload_fix_respects_caps() {
        let mut rng = StdRng::seed_from_u64(13);
        let b = generators::random_left_regular(30, 90, 48, &mut rng).unwrap();
        // palette 4, cap = ⌈0.5·48⌉ = 24 (generous: Chernoff bound is tiny)
        let caps = vec![24usize; 30];
        let t = crate::estimator::chernoff_t(24.0, 4, 48.0);
        let est = ColoringEstimator::overload(&b, 4, &caps, t);
        let out = sequential_fix(&b, est, 0..90);
        assert!(out.initial_phi < 1.0, "initial Φ = {}", out.initial_phi);
        for u in 0..30 {
            let mut counts = [0usize; 4];
            for &v in b.left_neighbors(u) {
                counts[out.colors[v] as usize] += 1;
            }
            assert!(
                counts.iter().all(|&c| c <= 24),
                "constraint {u}: {counts:?}"
            );
        }
    }
}
