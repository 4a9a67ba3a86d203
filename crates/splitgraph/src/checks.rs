//! Validity checkers for every output object produced in the reproduction.
//!
//! All splitting problems in the paper are *locally checkable*: a solution's
//! validity can be verified by inspecting constant-radius neighborhoods.
//! These functions are the ground truth every algorithm and experiment is
//! validated against; they return the full list of violating nodes so that
//! failures are debuggable.

use crate::bipartite::BipartiteGraph;
use crate::color::{Color, MultiColor};
use crate::graph::Graph;
use std::collections::HashSet;

/// Whether constraint `u` sees at least one neighbor of each color under a
/// partial coloring of the variable side (`None` = uncolored).
///
/// # Panics
///
/// Panics if `colors.len() != b.right_count()` or `u` is out of range.
pub fn sees_both_colors(b: &BipartiteGraph, u: usize, colors: &[Option<Color>]) -> bool {
    assert_eq!(
        colors.len(),
        b.right_count(),
        "color vector length mismatch"
    );
    let mut red = false;
    let mut blue = false;
    for &v in b.left_neighbors(u) {
        match colors[v] {
            Some(Color::Red) => red = true,
            Some(Color::Blue) => blue = true,
            None => {}
        }
        if red && blue {
            return true;
        }
    }
    false
}

/// Constraints of degree at least `min_degree` that do **not** see both
/// colors (Definition 1.1, restricted to sufficiently large degrees as in
/// the weak-splitting variants of the introduction).
///
/// # Panics
///
/// Panics if `colors.len() != b.right_count()`.
pub fn weak_splitting_violations(
    b: &BipartiteGraph,
    colors: &[Color],
    min_degree: usize,
) -> Vec<usize> {
    weak_splitting_violations_among(b, colors, min_degree, 0..b.left_count())
}

/// The constraints among `rows` that [`weak_splitting_violations`] would
/// report, in the order `rows` lists them: the same row predicate, read
/// on the given rows only. Weak splitting is locally checkable, so a
/// caller that knows every other row kept its status (churn repair
/// counts an edit's halo this way) gets the whole-instance count from
/// these rows alone.
///
/// # Panics
///
/// Panics if `colors.len() != b.right_count()` or a row is out of range.
pub fn weak_splitting_violations_among(
    b: &BipartiteGraph,
    colors: &[Color],
    min_degree: usize,
    rows: impl IntoIterator<Item = usize>,
) -> Vec<usize> {
    assert_eq!(
        colors.len(),
        b.right_count(),
        "color vector length mismatch"
    );
    // a row sees both colors iff some neighbor differs from its first;
    // an empty row sees neither
    let monochrome = |row: &[usize]| match row.split_first() {
        Some((&first, rest)) => rest.iter().all(|&v| colors[v] == colors[first]),
        None => true,
    };
    rows.into_iter()
        .filter(|&u| {
            let row = b.left_neighbors(u);
            row.len() >= min_degree && monochrome(row)
        })
        .collect()
}

/// Whether `colors` is a weak splitting of `b` for all constraints of degree
/// at least `min_degree` (use `min_degree = 0` for Definition 1.1 verbatim).
pub fn is_weak_splitting(b: &BipartiteGraph, colors: &[Color], min_degree: usize) -> bool {
    weak_splitting_violations(b, colors, min_degree).is_empty()
}

/// Violations of a `(C, λ)`-multicolor splitting (Definition 1.2):
/// constraints of degree ≥ `min_degree` with more than `⌈λ·deg(u)⌉`
/// neighbors of some color. Returns `(u, color, count)` triples.
///
/// # Panics
///
/// Panics if `colors.len() != b.right_count()`, if some color is ≥ `c`, or
/// if `lambda` is not in `(0, 1]`.
pub fn multicolor_splitting_violations(
    b: &BipartiteGraph,
    colors: &[MultiColor],
    c: u32,
    lambda: f64,
    min_degree: usize,
) -> Vec<(usize, MultiColor, usize)> {
    assert_eq!(
        colors.len(),
        b.right_count(),
        "color vector length mismatch"
    );
    assert!(lambda > 0.0 && lambda <= 1.0, "lambda must lie in (0, 1]");
    assert!(colors.iter().all(|&x| x < c), "color out of palette range");
    let mut violations = Vec::new();
    let mut counts = vec![0usize; c as usize];
    for u in 0..b.left_count() {
        let d = b.left_degree(u);
        if d < min_degree {
            continue;
        }
        let cap = (lambda * d as f64).ceil() as usize;
        for x in counts.iter_mut() {
            *x = 0;
        }
        for &v in b.left_neighbors(u) {
            counts[colors[v] as usize] += 1;
        }
        for (x, &cnt) in counts.iter().enumerate() {
            if cnt > cap {
                violations.push((u, x as MultiColor, cnt));
            }
        }
    }
    violations
}

/// Whether `colors` is a valid `(C, λ)`-multicolor splitting for constraints
/// of degree at least `min_degree`.
pub fn is_multicolor_splitting(
    b: &BipartiteGraph,
    colors: &[MultiColor],
    c: u32,
    lambda: f64,
    min_degree: usize,
) -> bool {
    multicolor_splitting_violations(b, colors, c, lambda, min_degree).is_empty()
}

/// Violations of a C-weak multicolor splitting (Definition 1.3): constraints
/// of degree at least `degree_threshold` that see fewer than
/// `required_colors` distinct colors. Returns `(u, distinct_seen)` pairs.
///
/// # Panics
///
/// Panics if `colors.len() != b.right_count()`.
pub fn weak_multicolor_violations(
    b: &BipartiteGraph,
    colors: &[MultiColor],
    degree_threshold: usize,
    required_colors: usize,
) -> Vec<(usize, usize)> {
    assert_eq!(
        colors.len(),
        b.right_count(),
        "color vector length mismatch"
    );
    let mut violations = Vec::new();
    let mut seen = HashSet::new();
    for u in 0..b.left_count() {
        if b.left_degree(u) < degree_threshold {
            continue;
        }
        seen.clear();
        for &v in b.left_neighbors(u) {
            seen.insert(colors[v]);
        }
        if seen.len() < required_colors {
            violations.push((u, seen.len()));
        }
    }
    violations
}

/// Whether `colors` is a valid C-weak multicolor splitting with the given
/// thresholds (use [`crate::math::weak_multicolor_degree_threshold`] and
/// [`crate::math::weak_multicolor_required_colors`] for the paper's values).
pub fn is_weak_multicolor_splitting(
    b: &BipartiteGraph,
    colors: &[MultiColor],
    degree_threshold: usize,
    required_colors: usize,
) -> bool {
    weak_multicolor_violations(b, colors, degree_threshold, required_colors).is_empty()
}

/// Monochromatic edges under a vertex coloring of a simple graph.
///
/// # Panics
///
/// Panics if `colors.len() != g.node_count()`.
pub fn proper_coloring_violations(g: &Graph, colors: &[MultiColor]) -> Vec<(usize, usize)> {
    assert_eq!(colors.len(), g.node_count(), "color vector length mismatch");
    g.edges().filter(|&(u, v)| colors[u] == colors[v]).collect()
}

/// Whether `colors` is a proper vertex coloring of `g`.
pub fn is_proper_coloring(g: &Graph, colors: &[MultiColor]) -> bool {
    proper_coloring_violations(g, colors).is_empty()
}

/// Monochromatic *adjacent edge pairs* under an edge coloring aligned with
/// [`Graph::edges`] order — empty iff the coloring is a proper edge
/// coloring.
///
/// # Panics
///
/// Panics if `colors.len() != g.edge_count()`.
pub fn edge_coloring_violations(g: &Graph, colors: &[MultiColor]) -> Vec<(usize, usize)> {
    assert_eq!(
        colors.len(),
        g.edge_count(),
        "edge color vector length mismatch"
    );
    // per node, detect repeated colors among incident edges
    let mut incident: Vec<Vec<(MultiColor, usize)>> = vec![Vec::new(); g.node_count()];
    for (i, (u, v)) in g.edges().enumerate() {
        incident[u].push((colors[i], i));
        incident[v].push((colors[i], i));
    }
    let mut violations = Vec::new();
    for list in incident.iter_mut() {
        list.sort_unstable();
        for w in list.windows(2) {
            if w[0].0 == w[1].0 {
                violations.push((w[0].1, w[1].1));
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    violations
}

/// Whether `colors` is a proper edge coloring of `g`.
pub fn is_proper_edge_coloring(g: &Graph, colors: &[MultiColor]) -> bool {
    edge_coloring_violations(g, colors).is_empty()
}

/// Violations of maximal-independent-set validity: returns
/// `(independence_violations, maximality_violations)` — edges inside the set,
/// and nodes neither in the set nor adjacent to it.
///
/// # Panics
///
/// Panics if `in_set.len() != g.node_count()`.
pub fn mis_violations(g: &Graph, in_set: &[bool]) -> (Vec<(usize, usize)>, Vec<usize>) {
    assert_eq!(in_set.len(), g.node_count(), "set mask length mismatch");
    let independence: Vec<(usize, usize)> =
        g.edges().filter(|&(u, v)| in_set[u] && in_set[v]).collect();
    let maximality: Vec<usize> = (0..g.node_count())
        .filter(|&v| !in_set[v] && !g.neighbors(v).iter().any(|&w| in_set[w]))
        .collect();
    (independence, maximality)
}

/// Whether `in_set` is a maximal independent set of `g`.
pub fn is_mis(g: &Graph, in_set: &[bool]) -> bool {
    let (ind, max) = mis_violations(g, in_set);
    ind.is_empty() && max.is_empty()
}

/// An orientation of a simple graph, aligned with [`Graph::edges`] order:
/// `forward[i] == true` directs the `i`-th edge `(u, v)` (with `u < v`)
/// from `u` to `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphOrientation {
    /// Direction flags in [`Graph::edges`] order.
    pub forward: Vec<bool>,
}

impl GraphOrientation {
    /// Out-degree of `v` in `g` under this orientation.
    ///
    /// # Panics
    ///
    /// Panics if the flag vector length does not match `g.edge_count()`.
    pub fn out_degree(&self, g: &Graph, v: usize) -> usize {
        assert_eq!(
            self.forward.len(),
            g.edge_count(),
            "orientation length mismatch"
        );
        g.edges()
            .zip(&self.forward)
            .filter(|&((a, b), &f)| if f { a == v } else { b == v })
            .count()
    }
}

/// Nodes of degree at least `min_degree` with **no outgoing edge** (sinks).
/// A sinkless orientation (Section 2.5 of the paper) has none.
pub fn sink_violations(g: &Graph, orientation: &GraphOrientation, min_degree: usize) -> Vec<usize> {
    assert_eq!(
        orientation.forward.len(),
        g.edge_count(),
        "orientation length mismatch"
    );
    let mut has_out = vec![false; g.node_count()];
    for ((a, b), &f) in g.edges().zip(&orientation.forward) {
        let tail = if f { a } else { b };
        has_out[tail] = true;
    }
    (0..g.node_count())
        .filter(|&v| g.degree(v) >= min_degree && !has_out[v])
        .collect()
}

/// Whether `orientation` is sinkless on all nodes of degree ≥ `min_degree`.
pub fn is_sinkless(g: &Graph, orientation: &GraphOrientation, min_degree: usize) -> bool {
    sink_violations(g, orientation, min_degree).is_empty()
}

/// Violations of a uniform (strong) splitting with accuracy `eps`
/// (Section 4.1): nodes of degree ≥ `min_degree` whose same-side or
/// other-side neighbor count leaves `[(1/2 − eps)·d(v), (1/2 + eps)·d(v)]`.
/// Returns `(v, red_neighbors, blue_neighbors)`.
///
/// # Panics
///
/// Panics if `sides.len() != g.node_count()`.
pub fn uniform_splitting_violations(
    g: &Graph,
    sides: &[Color],
    eps: f64,
    min_degree: usize,
) -> Vec<(usize, usize, usize)> {
    assert_eq!(sides.len(), g.node_count(), "side vector length mismatch");
    let mut violations = Vec::new();
    for v in 0..g.node_count() {
        let d = g.degree(v);
        if d < min_degree {
            continue;
        }
        let red = g
            .neighbors(v)
            .iter()
            .filter(|&&w| sides[w] == Color::Red)
            .count();
        let blue = d - red;
        let lo = (0.5 - eps) * d as f64;
        let hi = (0.5 + eps) * d as f64;
        if (red as f64) < lo || (red as f64) > hi || (blue as f64) < lo || (blue as f64) > hi {
            violations.push((v, red, blue));
        }
    }
    violations
}

/// Whether `sides` is a uniform splitting of accuracy `eps` on nodes of
/// degree at least `min_degree`.
pub fn is_uniform_splitting(g: &Graph, sides: &[Color], eps: f64, min_degree: usize) -> bool {
    uniform_splitting_violations(g, sides, eps, min_degree).is_empty()
}

/// Checker-check property tests: the certifiers themselves are validated
/// against permutation equivariance (relabeling nodes relabels the reported
/// violations and nothing else) and planted-violation completeness (a
/// deliberately broken solution is always reported). Everything downstream
/// — unit tests, the conformance harness, the experiments — trusts these
/// functions as ground truth, so they get their own adversarial tests.
#[cfg(test)]
mod checker_checks {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};

    /// A random instance, a random (mostly broken) coloring, and relabeling
    /// permutations for both sides, all derived from one seed.
    fn setup(seed: u64) -> (BipartiteGraph, Vec<Color>, Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = rng.random_range(2usize..12);
        let nr = rng.random_range(2usize..20);
        let b = generators::erdos_renyi_bipartite(nl, nr, 0.4, &mut rng);
        let colors: Vec<Color> = (0..nr)
            .map(|_| Color::from_bool(rng.random_bool(0.5)))
            .collect();
        let mut left_perm: Vec<usize> = (0..nl).collect();
        let mut right_perm: Vec<usize> = (0..nr).collect();
        left_perm.shuffle(&mut rng);
        right_perm.shuffle(&mut rng);
        (b, colors, left_perm, right_perm)
    }

    /// Applies `(left_perm, right_perm)` to a bipartite graph: node `u`
    /// becomes `left_perm[u]`, node `v` becomes `right_perm[v]`.
    fn permuted(b: &BipartiteGraph, left_perm: &[usize], right_perm: &[usize]) -> BipartiteGraph {
        let edges: Vec<(usize, usize)> = b
            .edges()
            .map(|(u, v)| (left_perm[u], right_perm[v]))
            .collect();
        BipartiteGraph::from_edges(b.left_count(), b.right_count(), &edges)
            .expect("permutation preserves simplicity")
    }

    fn permuted_colors<T: Copy>(colors: &[T], perm: &[usize]) -> Vec<T> {
        let mut out = colors.to_vec();
        for (v, &c) in colors.iter().enumerate() {
            out[perm[v]] = c;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn weak_splitting_checker_is_permutation_equivariant(seed in 0u64..10_000) {
            let (b, colors, left_perm, right_perm) = setup(seed);
            let bp = permuted(&b, &left_perm, &right_perm);
            let cp = permuted_colors(&colors, &right_perm);
            for min_degree in [0, 2] {
                let mut expected: Vec<usize> = weak_splitting_violations(&b, &colors, min_degree)
                    .into_iter()
                    .map(|u| left_perm[u])
                    .collect();
                expected.sort_unstable();
                let mut got = weak_splitting_violations(&bp, &cp, min_degree);
                got.sort_unstable();
                prop_assert_eq!(got, expected);
            }
        }

        // The row scan agrees with `sees_both_colors` constraint by
        // constraint, degree-0 rows (violations at min_degree = 0) included.
        #[test]
        fn weak_splitting_checker_matches_sees_both_colors(seed in 0u64..10_000) {
            let (b, colors, _, _) = setup(seed);
            // mostly Red, so monochrome rows of every degree show up
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EE5);
            let skewed: Vec<Color> = colors
                .iter()
                .map(|&c| if rng.random_bool(0.8) { Color::Red } else { c })
                .collect();
            for colors in [&colors, &skewed] {
                let partial: Vec<Option<Color>> = colors.iter().map(|&c| Some(c)).collect();
                for min_degree in 0..4 {
                    let expected: Vec<usize> = (0..b.left_count())
                        .filter(|&u| b.left_degree(u) >= min_degree)
                        .filter(|&u| !sees_both_colors(&b, u, &partial))
                        .collect();
                    prop_assert_eq!(weak_splitting_violations(&b, colors, min_degree), expected);
                }
            }
        }

        // The row form reads only the rows it is given: over any subset it
        // is the whole-instance list filtered to that subset, in its order.
        #[test]
        fn weak_splitting_among_rows_filters_the_whole_list(seed in 0u64..10_000) {
            let (b, colors, left_perm, _) = setup(seed);
            let rows = &left_perm[..left_perm.len() / 2];
            for min_degree in [0, 2] {
                let whole = weak_splitting_violations(&b, &colors, min_degree);
                let expected: Vec<usize> =
                    rows.iter().copied().filter(|u| whole.contains(u)).collect();
                let got = weak_splitting_violations_among(&b, &colors, min_degree, rows.iter().copied());
                prop_assert_eq!(got, expected);
            }
        }

        #[test]
        fn multicolor_checker_is_permutation_equivariant(seed in 0u64..10_000) {
            let (b, _, left_perm, right_perm) = setup(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC01);
            let palette = 3u32;
            let colors: Vec<MultiColor> = (0..b.right_count())
                .map(|_| rng.random_range(0..palette))
                .collect();
            let bp = permuted(&b, &left_perm, &right_perm);
            let cp = permuted_colors(&colors, &right_perm);
            let mut expected: Vec<(usize, MultiColor, usize)> =
                multicolor_splitting_violations(&b, &colors, palette, 0.4, 0)
                    .into_iter()
                    .map(|(u, x, c)| (left_perm[u], x, c))
                    .collect();
            expected.sort_unstable();
            let mut got = multicolor_splitting_violations(&bp, &cp, palette, 0.4, 0);
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn uniform_checker_is_permutation_equivariant(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(3usize..24);
            let g = generators::erdos_renyi(n, 0.35, &mut rng);
            let sides: Vec<Color> = (0..n)
                .map(|_| Color::from_bool(rng.random_bool(0.5)))
                .collect();
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let edges: Vec<(usize, usize)> =
                g.edges().map(|(u, v)| (perm[u], perm[v])).collect();
            let gp = Graph::from_edges(n, &edges).expect("permuted simple graph");
            let sp = permuted_colors(&sides, &perm);
            let mut expected: Vec<(usize, usize, usize)> =
                uniform_splitting_violations(&g, &sides, 0.2, 1)
                    .into_iter()
                    .map(|(v, r, bl)| (perm[v], r, bl))
                    .collect();
            expected.sort_unstable();
            let mut got = uniform_splitting_violations(&gp, &sp, 0.2, 1);
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn planted_weak_violation_is_always_reported(seed in 0u64..10_000) {
            let (b, mut colors, _, _) = setup(seed);
            let Some(u) = (0..b.left_count()).find(|&u| b.left_degree(u) >= 1) else {
                return;
            };
            // blind constraint u: all its variables red
            for &v in b.left_neighbors(u) {
                colors[v] = Color::Red;
            }
            prop_assert!(weak_splitting_violations(&b, &colors, 0).contains(&u));
            prop_assert!(!is_weak_splitting(&b, &colors, 0));
        }

        #[test]
        fn planted_multicolor_overload_is_always_reported(seed in 0u64..10_000) {
            let (b, _, _, _) = setup(seed);
            let Some(u) = (0..b.left_count()).find(|&u| b.left_degree(u) >= 3) else {
                return;
            };
            let mut colors: Vec<MultiColor> = vec![1; b.right_count()];
            // overload color 0 at u: all deg(u) neighbors, cap is ⌈0.4·deg⌉ < deg
            for &v in b.left_neighbors(u) {
                colors[v] = 0;
            }
            let d = b.left_degree(u);
            let violations = multicolor_splitting_violations(&b, &colors, 2, 0.4, 0);
            prop_assert!(violations.contains(&(u, 0, d)), "missing ({}, 0, {}) in {:?}", u, d, violations);
        }

        #[test]
        fn planted_uniform_violation_is_always_reported(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(3usize..24);
            let g = generators::erdos_renyi(n, 0.4, &mut rng);
            let Some(v) = (0..n).find(|&v| g.degree(v) >= 1) else {
                return;
            };
            let mut sides: Vec<Color> = (0..n)
                .map(|_| Color::from_bool(rng.random_bool(0.5)))
                .collect();
            // starve v of blue neighbors entirely
            for &w in g.neighbors(v) {
                sides[w] = Color::Red;
            }
            let violations = uniform_splitting_violations(&g, &sides, 0.25, 1);
            prop_assert!(violations.iter().any(|&(x, _, blue)| x == v && blue == 0));
        }

        #[test]
        fn planted_sink_is_always_reported(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(3usize..24);
            let g = generators::erdos_renyi(n, 0.4, &mut rng);
            let Some(v) = (0..n).find(|&v| g.degree(v) >= 1) else {
                return;
            };
            // orient every incident edge into v, the rest arbitrarily
            let forward: Vec<bool> = g
                .edges()
                .map(|(a, b2)| {
                    if b2 == v {
                        true
                    } else if a == v {
                        false
                    } else {
                        rng.random_bool(0.5)
                    }
                })
                .collect();
            let o = GraphOrientation { forward };
            prop_assert!(sink_violations(&g, &o, 0).contains(&v));
            prop_assert!(!is_sinkless(&g, &o, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_constraints() -> BipartiteGraph {
        // u0 ~ {v0, v1}, u1 ~ {v1, v2}
        BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn weak_splitting_valid_and_invalid() {
        let b = two_constraints();
        let good = vec![Color::Red, Color::Blue, Color::Red];
        assert!(is_weak_splitting(&b, &good, 0));
        let bad = vec![Color::Red, Color::Red, Color::Blue];
        assert_eq!(weak_splitting_violations(&b, &bad, 0), vec![0]);
        // with a degree threshold above deg(u0) the violation disappears
        assert!(is_weak_splitting(&b, &bad, 3));
    }

    #[test]
    fn sees_both_colors_partial() {
        let b = two_constraints();
        let partial = vec![Some(Color::Red), Some(Color::Blue), None];
        assert!(sees_both_colors(&b, 0, &partial));
        assert!(!sees_both_colors(&b, 1, &partial));
    }

    #[test]
    fn multicolor_splitting_cap() {
        let b = BipartiteGraph::from_edges(1, 4, &[(0, 0), (0, 1), (0, 2), (0, 3)]).unwrap();
        // λ = 1/2, deg = 4 → cap = 2 per color
        let ok = vec![0, 0, 1, 1];
        assert!(is_multicolor_splitting(&b, &ok, 2, 0.5, 0));
        let bad = vec![0, 0, 0, 1];
        let v = multicolor_splitting_violations(&b, &bad, 2, 0.5, 0);
        assert_eq!(v, vec![(0, 0, 3)]);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn multicolor_rejects_bad_lambda() {
        let b = two_constraints();
        let _ = multicolor_splitting_violations(&b, &[0, 0, 0], 1, 0.0, 0);
    }

    #[test]
    fn weak_multicolor_counts_distinct() {
        let b = BipartiteGraph::from_edges(1, 4, &[(0, 0), (0, 1), (0, 2), (0, 3)]).unwrap();
        let colors = vec![0, 1, 1, 2];
        assert!(is_weak_multicolor_splitting(&b, &colors, 0, 3));
        let v = weak_multicolor_violations(&b, &colors, 0, 4);
        assert_eq!(v, vec![(0, 3)]);
        // threshold above the degree silences the constraint
        assert!(is_weak_multicolor_splitting(&b, &colors, 5, 4));
    }

    #[test]
    fn proper_coloring_detects_monochromatic_edge() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(is_proper_coloring(&g, &[0, 1, 0]));
        assert_eq!(proper_coloring_violations(&g, &[0, 0, 1]), vec![(0, 1)]);
    }

    #[test]
    fn edge_coloring_checker() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // path edges alternate: proper with 2 colors
        assert!(is_proper_edge_coloring(&g, &[0, 1, 0]));
        // both edges at node 1 share color 0
        let v = edge_coloring_violations(&g, &[0, 0, 1]);
        assert_eq!(v, vec![(0, 1)]);
        // a star needs distinct colors on every edge
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert!(is_proper_edge_coloring(&star, &[0, 1, 2]));
        assert!(!is_proper_edge_coloring(&star, &[0, 1, 1]));
    }

    #[test]
    fn mis_checks_independence_and_maximality() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(is_mis(&g, &[true, false, true, false]));
        // not independent
        let (ind, _) = mis_violations(&g, &[true, true, false, false]);
        assert_eq!(ind, vec![(0, 1)]);
        // not maximal: node 3 uncovered
        let (ind, max) = mis_violations(&g, &[true, false, false, false]);
        assert!(ind.is_empty());
        assert_eq!(max, vec![2, 3]);
    }

    #[test]
    fn sinkless_orientation_on_cycle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        // edges() order: (0,1), (0,2), (1,2); orient 0→1, 2→0, 1→2 : a cycle
        let o = GraphOrientation {
            forward: vec![true, false, true],
        };
        assert!(is_sinkless(&g, &o, 0));
        assert_eq!(o.out_degree(&g, 0), 1);
        // orient everything into node 2's direction making node... make 0 a sink:
        let o = GraphOrientation {
            forward: vec![false, false, true],
        };
        assert_eq!(sink_violations(&g, &o, 0), vec![0]);
        // min_degree above deg silences it
        assert!(is_sinkless(&g, &o, 3));
    }

    #[test]
    fn uniform_splitting_tolerance() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let sides = vec![Color::Red, Color::Red, Color::Red, Color::Blue, Color::Blue];
        // node 0 has 2 red / 2 blue neighbors: perfectly balanced
        assert!(is_uniform_splitting(&g, &sides, 0.0, 2));
        let lopsided = vec![Color::Red, Color::Red, Color::Red, Color::Red, Color::Blue];
        // node 0 has 3 red / 1 blue; with eps = 0.1 bounds are [1.6, 2.4]
        let v = uniform_splitting_violations(&g, &lopsided, 0.1, 2);
        assert_eq!(v, vec![(0, 3, 1)]);
        // generous eps accepts it
        assert!(is_uniform_splitting(&g, &lopsided, 0.3, 2));
    }
}
