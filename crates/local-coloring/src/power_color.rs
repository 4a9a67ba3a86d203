//! Distance-`k` colorings.
//!
//! The SLOCAL→LOCAL compiler ([GHK17a, Prop 3.2], used by Lemma 2.1,
//! Theorem 3.2 and Theorem 5.2 of the paper) consumes a proper coloring of a
//! power graph `G^k`. A LOCAL algorithm on `G^k` is simulated on `G` with a
//! factor-`k` round overhead (one `G^k` round = `k` rounds of flooding on
//! `G`); the [`ColoringOutcome::rounds`] reported here already include that
//! factor.

use crate::linial::{linial_color, ColoringOutcome};
use crate::reduce::kw_reduce;
use splitgraph::{power_graph, BipartiteGraph, Graph};

/// Properly colors `G^k` (nodes at distance ≤ `k` receive distinct colors)
/// with `Δ(G^k) + 1` colors via Linial + Kuhn–Wattenhofer reduction.
///
/// Measured rounds are host-graph rounds: `k ×` the rounds of the coloring
/// algorithm on the power graph.
///
/// # Panics
///
/// Panics if `ids` are not consistent with `id_space` or lengths mismatch.
///
/// # Examples
///
/// ```
/// use local_coloring::color_power;
/// use splitgraph::{checks, generators, power_graph};
///
/// let g = generators::cycle(32).unwrap();
/// let ids: Vec<u64> = (0..32).collect();
/// let out = color_power(&g, 2, &ids, 32);
/// // distance-2 coloring: proper on the square of the cycle
/// assert!(checks::is_proper_coloring(&power_graph(&g, 2), &out.colors));
/// ```
pub fn color_power(g: &Graph, k: usize, ids: &[u64], id_space: u64) -> ColoringOutcome {
    assert!(k >= 1, "power must be at least 1");
    let gk = power_graph(g, k);
    let linial = linial_color(&gk, ids, id_space);
    let reduced = kw_reduce(&gk, &linial.colors, linial.palette);
    ColoringOutcome {
        colors: reduced.colors,
        palette: reduced.palette,
        rounds: k * (linial.rounds + reduced.rounds),
        messages: linial.messages + reduced.messages,
    }
}

/// Sequential greedy coloring in a given order — the centralized reference
/// used by tests and by experiments that need *some* proper coloring without
/// round accounting.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the nodes.
pub fn greedy_sequential(g: &Graph, order: &[usize]) -> Vec<u32> {
    let n = g.node_count();
    assert_eq!(order.len(), n, "order must cover every node");
    let mut colors = vec![u32::MAX; n];
    // used[c] == i + 1 iff color c is taken by a neighbor of order[i]; the
    // stamp is new for every node, so the array is never cleared
    let mut used: Vec<usize> = Vec::new();
    for (i, &v) in order.iter().enumerate() {
        assert!(
            v < n && colors[v] == u32::MAX,
            "order must be a permutation"
        );
        let stamp = i + 1;
        for &w in g.neighbors(v) {
            if colors[w] != u32::MAX {
                used[colors[w] as usize] = stamp;
            }
        }
        let c = used.iter().position(|&s| s != stamp).unwrap_or(used.len());
        if c == used.len() {
            used.push(0);
        }
        colors[v] = c as u32;
    }
    colors
}

/// [`greedy_sequential`] on [`splitgraph::right_square`]`(b)` in identity
/// order, computed on `b` itself without materializing the square.
///
/// Returns the coloring and the square's maximum degree `Δ(B²|_V)`, so the
/// palette `Δ(B²|_V) + 1` is exactly the one the materialized path reports.
/// Variable `v` walks its constraints `u ∈ N(v)` and their variables
/// `w ∈ N(u)`: a per-variable stamp counts each co-variable once (the
/// square degree of `v`), and a per-color stamp marks the colors already
/// taken, so `v` gets the smallest free one. Both stamps are reused across
/// variables; the work is `Σ_v Σ_{u ∈ N(v)} deg(u)` branch-free steps in
/// `O(|V|)` memory, with no sort and no square graph.
///
/// # Examples
///
/// ```
/// use local_coloring::{greedy_right_square, greedy_sequential};
/// use splitgraph::{right_square, BipartiteGraph};
///
/// let b = BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap();
/// let sq = right_square(&b);
/// let (colors, max_degree) = greedy_right_square(&b);
/// assert_eq!(colors, greedy_sequential(&sq, &[0, 1, 2]));
/// assert_eq!(max_degree, sq.max_degree());
/// ```
pub fn greedy_right_square(b: &BipartiteGraph) -> (Vec<u32>, usize) {
    let nv = b.right_count();
    // an uncolored variable reads as color `nv`, a scratch slot no real
    // color reaches (a variable's color is at most its square degree < nv),
    // so the inner loop marks colors without branching on the state
    let uncolored = u32::try_from(nv).expect("variable count fits in u32");
    let mut colors = vec![uncolored; nv];
    // seen[w] == v + 1 iff w was already met as a co-variable of v
    let mut seen = vec![0usize; nv];
    let mut used = vec![0usize; nv + 1];
    let mut max_degree = 0;
    for v in 0..nv {
        let stamp = v + 1;
        // v is in every one of its constraints' lists; never count it
        seen[v] = stamp;
        let mut degree = 0;
        for &u in b.right_neighbors(v) {
            for &w in b.left_neighbors(u) {
                degree += usize::from(seen[w] != stamp);
                seen[w] = stamp;
                used[colors[w] as usize] = stamp;
            }
        }
        max_degree = max_degree.max(degree);
        let c = used[..nv]
            .iter()
            .position(|&s| s != stamp)
            .expect("at most nv - 1 co-variables leave a color below nv free");
        colors[v] = c as u32;
    }
    (colors, max_degree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_proper_coloring;
    use splitgraph::generators;

    #[test]
    fn greedy_sequential_uses_at_most_delta_plus_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::random_regular(60, 5, &mut rng).unwrap();
        let order: Vec<usize> = (0..60).collect();
        let colors = greedy_sequential(&g, &order);
        assert!(is_proper_coloring(&g, &colors));
        assert!(colors.iter().all(|&c| c <= 5));
    }

    #[test]
    fn color_power_distance2_on_cycle() {
        let g = generators::cycle(50).unwrap();
        let ids: Vec<u64> = (0..50).collect();
        let out = color_power(&g, 2, &ids, 50);
        let g2 = power_graph(&g, 2);
        assert!(is_proper_coloring(&g2, &out.colors));
        assert_eq!(out.palette, g2.max_degree() as u32 + 1);
        assert!(
            out.rounds.is_multiple_of(2),
            "rounds include the simulation factor"
        );
    }

    #[test]
    fn color_power_k1_matches_direct_coloring() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::random_regular(40, 4, &mut rng).unwrap();
        let ids: Vec<u64> = (0..40).collect();
        let out = color_power(&g, 1, &ids, 40);
        assert!(is_proper_coloring(&g, &out.colors));
        assert_eq!(out.palette, 5);
    }

    #[test]
    fn color_power_distance4_for_theorem52() {
        // Theorem 5.2 derandomizes via a coloring of B⁴
        let mut rng = StdRng::seed_from_u64(21);
        let (b, _) = generators::random_girth10_bipartite(40, 3, &mut rng).unwrap();
        let g = b.to_graph();
        let ids: Vec<u64> = (0..g.node_count() as u64).collect();
        let out = color_power(&g, 4, &ids, g.node_count() as u64);
        assert!(is_proper_coloring(&power_graph(&g, 4), &out.colors));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn greedy_sequential_rejects_bad_order() {
        let g = generators::path(3);
        let _ = greedy_sequential(&g, &[0, 1, 1]);
    }
}
