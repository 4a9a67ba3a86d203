//! Paper-specific instance constructions.
//!
//! * Section 1.2: a general graph `G` becomes a weak-splitting instance by
//!   doubling every node into a left copy `vL ∈ U` and a right copy
//!   `vR ∈ V`, connecting `vL` to `uR` for every edge `{u, v}` of `G`.
//! * Section 2.5 / Figure 1: the node–edge incidence construction that
//!   reduces sinkless orientation to weak splitting on rank-2 instances.

use crate::bipartite::BipartiteGraph;
use crate::graph::Graph;

/// The doubling construction of Section 1.2: node `v` of `G` yields
/// constraint `vL` (left index `v`) and variable `vR` (right index `v`);
/// every edge `{u, v}` yields bipartite edges `(uL, vR)` and `(vL, uR)`.
///
/// The resulting instance satisfies `δ_B = δ_G`, `Δ_B = Δ_G` and
/// `r_B = Δ_G` — in particular `δ_B ≤ r_B` always (the reason Theorem 2.7's
/// `δ ≥ 6r` regime cannot arise from general graphs, as the paper notes).
///
/// # Examples
///
/// ```
/// use splitgraph::{Graph, generators::doubling_instance};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// let b = doubling_instance(&g);
/// assert_eq!(b.min_left_degree(), 2);
/// assert_eq!(b.rank(), 2);
/// ```
pub fn doubling_instance(g: &Graph) -> BipartiteGraph {
    let n = g.node_count();
    let mut edges = Vec::with_capacity(2 * g.edge_count());
    for (u, v) in g.edges() {
        edges.push((u, v));
        edges.push((v, u));
    }
    BipartiteGraph::from_edges(n, n, &edges).expect("simple graph gives simple doubling")
}

/// Node–edge incidence graph: constraints are the nodes of `G`, variables
/// its edges (in [`Graph::edges`] order), connected by incidence. Always has
/// rank exactly 2 (for graphs with at least one edge) and `δ_B = δ_G`.
///
/// Returns the bipartite graph together with the edge list indexing the
/// variable side.
pub fn incidence_instance(g: &Graph) -> (BipartiteGraph, Vec<(usize, usize)>) {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let incidences: Vec<(usize, usize)> = edges
        .iter()
        .enumerate()
        .flat_map(|(i, &(u, v))| [(u, i), (v, i)])
        .collect();
    let b = BipartiteGraph::from_edges(g.node_count(), edges.len(), &incidences)
        .expect("incidence edges are simple");
    (b, edges)
}

/// The Section 2.5 construction reducing sinkless orientation on `G` to weak
/// splitting: constraint `u` is connected to the variable of edge
/// `e = {u, v}` iff `v` lies on `u`'s *majority ID side* — toward larger IDs
/// if at least half of `u`'s neighbors have larger IDs, toward smaller IDs
/// otherwise.
#[derive(Debug, Clone)]
pub struct SinklessInstance {
    /// The weak-splitting instance `B` (rank ≤ 2).
    pub bipartite: BipartiteGraph,
    /// Variable-side index → edge of `G` (in [`Graph::edges`] order).
    pub edges: Vec<(usize, usize)>,
    /// Whether node `u` connected toward **larger**-ID neighbors.
    pub toward_larger: Vec<bool>,
}

/// Builds the [`SinklessInstance`] for `G` under the ID assignment `ids`
/// (`ids[v]` is the unique identifier of node `v`).
///
/// For `δ_G ≥ 5` the resulting bipartite graph has `δ_B ≥ ⌈δ_G/2⌉ ≥ 3` and
/// rank ≤ 2, as required by Theorem 2.10.
///
/// # Panics
///
/// Panics if `ids.len() != g.node_count()` or if two nodes share an ID.
pub fn sinkless_instance(g: &Graph, ids: &[u64]) -> SinklessInstance {
    assert_eq!(ids.len(), g.node_count(), "id vector length mismatch");
    {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids must be unique");
    }
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut b = BipartiteGraph::new(g.node_count(), edges.len());
    let toward_larger: Vec<bool> = (0..g.node_count())
        .map(|u| {
            let larger = g.neighbors(u).iter().filter(|&&v| ids[v] > ids[u]).count();
            2 * larger >= g.degree(u)
        })
        .collect();
    for (i, &(x, y)) in edges.iter().enumerate() {
        // connect endpoint u to this edge iff the other endpoint is on u's
        // majority side
        for (u, v) in [(x, y), (y, x)] {
            let keep = if toward_larger[u] {
                ids[v] > ids[u]
            } else {
                ids[v] < ids[u]
            };
            if keep {
                b.add_edge(u, i).expect("incidence edges are simple");
            }
        }
    }
    SinklessInstance {
        bipartite: b,
        edges,
        toward_larger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_matches_paper_parameters() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let b = doubling_instance(&g);
        assert_eq!(b.left_count(), 4);
        assert_eq!(b.right_count(), 4);
        assert_eq!(b.edge_count(), 2 * g.edge_count());
        for v in 0..4 {
            assert_eq!(b.left_degree(v), g.degree(v));
            assert_eq!(b.right_degree(v), g.degree(v));
        }
        assert_eq!(b.rank(), g.max_degree());
        // vL is NOT adjacent to vR (no self-edges in G)
        for v in 0..4 {
            assert!(!b.contains_edge(v, v));
        }
    }

    #[test]
    fn incidence_has_rank_two() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (b, edges) = incidence_instance(&g);
        assert_eq!(edges.len(), 3);
        assert_eq!(b.rank(), 2);
        for (i, &(u, v)) in edges.iter().enumerate() {
            assert!(b.contains_edge(u, i));
            assert!(b.contains_edge(v, i));
        }
        assert_eq!(b.left_degree(1), 2);
    }

    #[test]
    fn sinkless_instance_majority_side() {
        // star with center 0 (id 10), leaves 1..4 (ids 1, 2, 30, 40):
        // center has 2 of 4 larger → toward_larger
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let ids = [10, 1, 2, 30, 40];
        let inst = sinkless_instance(&g, &ids);
        assert!(inst.toward_larger[0]);
        assert_eq!(inst.bipartite.left_degree(0), 2); // edges to nodes 3, 4
                                                      // leaf 1 (id 1): single neighbor has larger id → toward_larger, keeps its edge
        assert!(inst.toward_larger[1]);
        assert_eq!(inst.bipartite.left_degree(1), 1);
        // leaf 4 (id 40): single neighbor has smaller id → toward smaller
        assert!(!inst.toward_larger[4]);
        assert_eq!(inst.bipartite.left_degree(4), 1);
        assert!(inst.bipartite.rank() <= 2);
    }

    #[test]
    fn sinkless_instance_degree_bound() {
        // on a 6-regular-ish graph every node keeps at least ⌈deg/2⌉ edges
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
                (3, 4),
                (3, 5),
                (4, 5),
            ],
        )
        .unwrap();
        let ids: Vec<u64> = (0..6).map(|v| (v * v + 3) as u64).collect();
        let inst = sinkless_instance(&g, &ids);
        for u in 0..6 {
            assert!(
                inst.bipartite.left_degree(u) >= g.degree(u).div_ceil(2),
                "node {u} kept too few edges"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn sinkless_instance_rejects_duplicate_ids() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let _ = sinkless_instance(&g, &[5, 5, 7]);
    }
}
