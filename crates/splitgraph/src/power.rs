//! Graph powers.
//!
//! The SLOCAL→LOCAL compilation used throughout the paper schedules nodes by
//! color classes of a power graph: Lemma 2.1 colors `B²`, Theorem 5.2 colors
//! `B⁴`, and Theorem 3.2 uses a coloring of `B'²` restricted to the variable
//! side. These helpers materialize such powers.
//!
//! All three are bulk builders: per-node BFS frontiers are collected into
//! reused scratch buffers and the output rows are appended directly to one
//! flat CSR buffer pair ([`crate::Graph`] flat form), instead of paying an
//! `O(log Δ)` sorted insert per discovered pair. This is the hottest path of
//! the SLOCAL compilations that materialize a power (`thm52`, `thm32`);
//! Lemma 2.1's reference scheduling colors the variable square without
//! building it (`local_coloring::greedy_right_square`).

use crate::bipartite::BipartiteGraph;
use crate::graph::Graph;

/// The `k`-th power of `g`: nodes at distance `1..=k` become adjacent.
///
/// Even exponents are computed by repeated squaring (`G^{2j} = (G²)^j`),
/// odd ones by a depth-`k` BFS per node; either way the ball of `v` minus
/// `v` itself *is* row `v` of the power graph, so the output is assembled
/// row by row into flat CSR form with no per-edge insertion.
///
/// # Examples
///
/// ```
/// use splitgraph::{Graph, power_graph};
///
/// let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let p2 = power_graph(&path, 2);
/// assert!(p2.contains_edge(0, 2));
/// assert!(!p2.contains_edge(0, 3));
/// ```
pub fn power_graph(g: &Graph, k: usize) -> Graph {
    match k {
        0 => Graph::new(g.node_count()),
        1 => g.clone(),
        2 => square(g),
        // dist_g(u, v) ≤ 2j  ⟺  dist_{g²}(u, v) ≤ j: halve even exponents
        // on the (much denser but flat) square instead of deepening the BFS
        k if k % 2 == 0 => power_graph(&square(g), k / 2),
        k => direct_power(g, k),
    }
}

/// Two-hop power: row `v` is the union of the closed neighborhoods of
/// `N(v)`, minus `v` itself.
///
/// Each row is assembled by bulk-copying the (contiguous, sorted) CSR rows
/// of all neighbors into one scratch buffer, then `sort + dedup` — pure
/// memcpy streams plus one small sort, with no per-entry membership tests.
/// The output buffer is reserved up-front from the exact pre-dedup bound
/// `Σ_v Σ_{u ∈ N(v)} (1 + deg(u))`, so it never reallocates mid-build.
fn square(g: &Graph) -> Graph {
    let n = g.node_count();
    let mut bound = 0usize;
    for v in 0..n {
        for &u in g.neighbors(v) {
            bound = bound.saturating_add(1 + g.degree(u));
        }
    }
    let cap = bound.min(n.saturating_mul(n.saturating_sub(1)));
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut targets: Vec<usize> = Vec::with_capacity(cap);
    let mut buf: Vec<usize> = Vec::new();
    for v in 0..n {
        buf.clear();
        for &u in g.neighbors(v) {
            buf.push(u);
            buf.extend_from_slice(g.neighbors(u));
        }
        buf.sort_unstable();
        buf.dedup();
        // v itself is in every closed neighborhood; splice it out
        match buf.binary_search(&v) {
            Ok(i) => {
                targets.extend_from_slice(&buf[..i]);
                targets.extend_from_slice(&buf[i + 1..]);
            }
            Err(_) => targets.extend_from_slice(&buf),
        }
        offsets.push(targets.len());
    }
    Graph::from_csr_parts_unchecked(offsets, targets)
}

/// Depth-`k` BFS per node (odd `k ≥ 3`), with all scratch buffers reused.
fn direct_power(g: &Graph, k: usize) -> Graph {
    let n = g.node_count();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut targets: Vec<usize> = Vec::with_capacity(2 * g.edge_count());
    // scratch buffers reused across all n BFS runs
    let mut seen = vec![false; n];
    let mut reached: Vec<usize> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let mut next: Vec<usize> = Vec::new();
    for v in 0..n {
        seen[v] = true;
        frontier.push(v);
        for _ in 0..k {
            for &x in &frontier {
                for &y in g.neighbors(x) {
                    if !seen[y] {
                        seen[y] = true;
                        reached.push(y);
                        next.push(y);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            if frontier.is_empty() {
                break;
            }
        }
        frontier.clear();
        reached.sort_unstable();
        targets.extend_from_slice(&reached);
        offsets.push(targets.len());
        seen[v] = false;
        for &w in &reached {
            seen[w] = false;
        }
        reached.clear();
    }
    Graph::from_csr_parts_unchecked(offsets, targets)
}

/// Adjacency among the **variable side** of `b` at distance exactly 2, i.e.,
/// two right nodes are adjacent iff they share a constraint neighbor.
///
/// This is the graph on which derandomized variable choices must be
/// sequentialized: variables sharing a constraint may not decide
/// simultaneously (see Lemma 2.1 and Theorem 3.2 of the paper). Row `v` is
/// the union of the variable lists of `v`'s constraints, assembled by bulk
/// row copies plus one sort/dedup per row (same shape as the two-hop power
/// kernel), so the intermediate never exceeds one row's pre-dedup size.
pub fn right_square(b: &BipartiteGraph) -> Graph {
    let nv = b.right_count();
    let mut bound = 0usize;
    for v in 0..nv {
        for &u in b.right_neighbors(v) {
            bound = bound.saturating_add(b.left_degree(u));
        }
    }
    let cap = bound.min(nv.saturating_mul(nv.saturating_sub(1)));
    let mut offsets = Vec::with_capacity(nv + 1);
    offsets.push(0usize);
    let mut targets: Vec<usize> = Vec::with_capacity(cap);
    let mut buf: Vec<usize> = Vec::new();
    for v in 0..nv {
        buf.clear();
        for &u in b.right_neighbors(v) {
            buf.extend_from_slice(b.left_neighbors(u));
        }
        buf.sort_unstable();
        buf.dedup();
        // v itself appears in every constraint's variable list; splice it out
        match buf.binary_search(&v) {
            Ok(i) => {
                targets.extend_from_slice(&buf[..i]);
                targets.extend_from_slice(&buf[i + 1..]);
            }
            Err(_) => targets.extend_from_slice(&buf),
        }
        offsets.push(targets.len());
    }
    Graph::from_csr_parts_unchecked(offsets, targets)
}

/// The `k`-th power of the flattened bipartite graph `B` (both sides),
/// with left node `u` at index `u` and right node `v` at `left_count + v`.
pub fn bipartite_power(b: &BipartiteGraph, k: usize) -> Graph {
    power_graph(&b.to_graph(), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_zero_is_empty() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(power_graph(&g, 0).edge_count(), 0);
    }

    #[test]
    fn power_one_is_identity() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(power_graph(&g, 1), g);
    }

    #[test]
    fn power_two_of_path() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let p = power_graph(&g, 2);
        assert!(p.contains_edge(0, 2));
        assert!(p.contains_edge(1, 3));
        assert!(!p.contains_edge(0, 3));
        assert_eq!(p.edge_count(), 4 + 3);
    }

    #[test]
    fn power_saturates_to_component_clique() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let p = power_graph(&g, 10);
        assert_eq!(p.edge_count(), 6); // K4
    }

    #[test]
    fn power_respects_components() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let p = power_graph(&g, 5);
        assert!(!p.contains_edge(1, 2));
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn power_output_is_flat() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert!(power_graph(&g, 2).is_flat());
        assert!(right_square(&BipartiteGraph::new(2, 3)).is_flat());
    }

    #[test]
    fn right_square_links_covariables() {
        // u0 ~ {v0, v1}, u1 ~ {v1, v2}: v0-v1 and v1-v2 but not v0-v2
        let b = BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap();
        let sq = right_square(&b);
        assert!(sq.contains_edge(0, 1));
        assert!(sq.contains_edge(1, 2));
        assert!(!sq.contains_edge(0, 2));
    }

    #[test]
    fn right_square_handles_shared_pairs_once() {
        // v0 and v1 share two constraints; edge must appear once
        let b = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let sq = right_square(&b);
        assert_eq!(sq.edge_count(), 1);
    }

    #[test]
    fn bipartite_power_two_contains_same_side_links() {
        let b = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0)]).unwrap();
        let p = bipartite_power(&b, 2);
        // u0 and u1 share v0, so they are adjacent in B²
        assert!(p.contains_edge(0, 1));
    }
}
