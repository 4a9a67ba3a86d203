//! Bipartite constraint/variable graphs.
//!
//! The paper phrases all splitting problems on a bipartite graph
//! `B = (U ∪ V, E)` where `U` holds *constraint* nodes (the left side,
//! hypergraph vertices) and `V` holds *variable* nodes (the right side,
//! hyperedges). Following the paper's notation, `δ`/`Δ` are the minimum and
//! maximum degree over `U` and the *rank* `r` is the maximum degree over `V`.

use crate::error::GraphError;
use crate::graph::Graph;

/// A bipartite graph `B = (U ∪ V, E)` with constraint side `U` and variable side `V`.
///
/// Left nodes are indexed `0..left_count`, right nodes `0..right_count`;
/// the two index spaces are independent. Parallel edges are not allowed.
///
/// # Examples
///
/// ```
/// use splitgraph::BipartiteGraph;
///
/// // one constraint watching three variables
/// let b = BipartiteGraph::from_edges(1, 3, &[(0, 0), (0, 1), (0, 2)]).unwrap();
/// assert_eq!(b.min_left_degree(), 3); // δ
/// assert_eq!(b.rank(), 1); // r
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BipartiteGraph {
    adj_left: Vec<Vec<usize>>,
    adj_right: Vec<Vec<usize>>,
    edge_count: usize,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with the given side sizes.
    pub fn new(left_count: usize, right_count: usize) -> Self {
        BipartiteGraph {
            adj_left: vec![Vec::new(); left_count],
            adj_right: vec![Vec::new(); right_count],
            edge_count: 0,
        }
    }

    /// Builds a bipartite graph from `(left, right)` edge pairs in bulk:
    /// rows are filled by appends, sorted once, and scanned for duplicates —
    /// `O(|U| + |V| + m log Δ)` with no per-edge sorted insertion.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or duplicate edges. Range
    /// violations are reported in list order before any duplicate.
    pub fn from_edges(
        left_count: usize,
        right_count: usize,
        edges: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        for &(u, v) in edges {
            if u >= left_count {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    count: left_count,
                });
            }
            if v >= right_count {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    count: right_count,
                });
            }
        }
        // degree prepass so every row is allocated exactly once — the
        // incremental `push` growth pattern costs several reallocations
        // per row, which dominates build time on parse-heavy paths
        let mut left_deg = vec![0usize; left_count];
        let mut right_deg = vec![0usize; right_count];
        for &(u, v) in edges {
            left_deg[u] += 1;
            right_deg[v] += 1;
        }
        let mut b = BipartiteGraph {
            adj_left: left_deg.iter().map(|&d| Vec::with_capacity(d)).collect(),
            adj_right: right_deg.iter().map(|&d| Vec::with_capacity(d)).collect(),
            edge_count: edges.len(),
        };
        for &(u, v) in edges {
            b.adj_left[u].push(v);
            b.adj_right[v].push(u);
        }
        // canonical encodings list edges in adjacency order, so the rows
        // usually arrive sorted — checking is one linear pass, far
        // cheaper than re-sorting every row
        for (u, row) in b.adj_left.iter_mut().enumerate() {
            if !row.is_sorted() {
                row.sort_unstable();
            }
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge { u, v: w[0] });
            }
        }
        for row in &mut b.adj_right {
            if !row.is_sorted() {
                row.sort_unstable();
            }
        }
        Ok(b)
    }

    /// Former name of [`BipartiteGraph::from_edges`], kept only because the
    /// end-to-end benchmark's probe (`perfbench/probe`), which is versioned
    /// with the benchmark rather than the library, still calls it.
    #[doc(hidden)]
    pub fn from_edges_bulk(
        left_count: usize,
        right_count: usize,
        edges: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        BipartiteGraph::from_edges(left_count, right_count, edges)
    }

    /// Adds the edge between left node `u` and right node `v`.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or duplicate edges.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.left_count() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                count: self.left_count(),
            });
        }
        if v >= self.right_count() {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                count: self.right_count(),
            });
        }
        match self.adj_left[u].binary_search(&v) {
            Ok(_) => return Err(GraphError::DuplicateEdge { u, v }),
            Err(pos) => self.adj_left[u].insert(pos, v),
        }
        let pos = self.adj_right[v].binary_search(&u).unwrap_err();
        self.adj_right[v].insert(pos, u);
        self.edge_count += 1;
        Ok(())
    }

    /// Removes the edge `(u, v)` if present; returns whether it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.left_count() || v >= self.right_count() {
            return false;
        }
        if let Ok(pos) = self.adj_left[u].binary_search(&v) {
            self.adj_left[u].remove(pos);
            let pos = self.adj_right[v]
                .binary_search(&u)
                .expect("adjacency symmetric");
            self.adj_right[v].remove(pos);
            self.edge_count -= 1;
            true
        } else {
            false
        }
    }

    /// Number of constraint (left, `U`) nodes.
    pub fn left_count(&self) -> usize {
        self.adj_left.len()
    }

    /// Number of variable (right, `V`) nodes.
    pub fn right_count(&self) -> usize {
        self.adj_right.len()
    }

    /// Total number of nodes `|U| + |V|` (the paper's `n`).
    pub fn node_count(&self) -> usize {
        self.left_count() + self.right_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of left node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn left_degree(&self, u: usize) -> usize {
        self.adj_left[u].len()
    }

    /// Degree of right node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn right_degree(&self, v: usize) -> usize {
        self.adj_right[v].len()
    }

    /// Sorted neighbors (right indices) of left node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn left_neighbors(&self, u: usize) -> &[usize] {
        &self.adj_left[u]
    }

    /// Sorted neighbors (left indices) of right node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn right_neighbors(&self, v: usize) -> &[usize] {
        &self.adj_right[v]
    }

    /// Whether the edge `(u, v)` is present. Out-of-range endpoints yield `false`.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        u < self.left_count()
            && v < self.right_count()
            && self.adj_left[u].binary_search(&v).is_ok()
    }

    /// Minimum degree `δ` over the constraint side `U` (0 if `U` is empty).
    pub fn min_left_degree(&self) -> usize {
        self.adj_left.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Maximum degree `Δ` over the constraint side `U` (0 if `U` is empty).
    pub fn max_left_degree(&self) -> usize {
        self.adj_left.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Rank `r`: the maximum degree over the variable side `V` (0 if `V` is empty).
    pub fn rank(&self) -> usize {
        self.adj_right.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum degree over the variable side `V` (0 if `V` is empty).
    pub fn min_right_degree(&self) -> usize {
        self.adj_right.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Iterator over edges as `(left, right)` pairs, in left-major order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj_left
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().map(move |&v| (u, v)))
    }

    /// Bipartite subgraph keeping exactly the edges for which `pred(u, v)` is true.
    ///
    /// `pred` is called once per edge, in [`Self::edges`] order. Rows are
    /// allocated at their exact kept degree and filled in order, so both
    /// sides stay sorted with no sort or duplicate scan.
    pub fn filter_edges<F: FnMut(usize, usize) -> bool>(&self, mut pred: F) -> BipartiteGraph {
        let mut right_deg = vec![0usize; self.right_count()];
        let mut edge_count = 0;
        let mut row_buf = Vec::new();
        let adj_left: Vec<Vec<usize>> = self
            .adj_left
            .iter()
            .enumerate()
            .map(|(u, row)| {
                row_buf.clear();
                for &v in row {
                    if pred(u, v) {
                        row_buf.push(v);
                        right_deg[v] += 1;
                    }
                }
                edge_count += row_buf.len();
                row_buf.to_vec()
            })
            .collect();
        let mut adj_right: Vec<Vec<usize>> =
            right_deg.iter().map(|&d| Vec::with_capacity(d)).collect();
        for (u, row) in adj_left.iter().enumerate() {
            for &v in row {
                adj_right[v].push(u);
            }
        }
        BipartiteGraph {
            adj_left,
            adj_right,
            edge_count,
        }
    }

    /// Subgraph induced by node masks on both sides (indices are preserved;
    /// dropped nodes become isolated).
    ///
    /// # Panics
    ///
    /// Panics if the mask lengths do not match the side sizes.
    pub fn induced_subgraph(&self, keep_left: &[bool], keep_right: &[bool]) -> BipartiteGraph {
        assert_eq!(
            keep_left.len(),
            self.left_count(),
            "left mask length mismatch"
        );
        assert_eq!(
            keep_right.len(),
            self.right_count(),
            "right mask length mismatch"
        );
        self.filter_edges(|u, v| keep_left[u] && keep_right[v])
    }

    /// Flattens into a simple [`Graph`] over `left_count + right_count` nodes;
    /// left node `u` maps to index `u`, right node `v` to `left_count + v`.
    ///
    /// Used to run generic node algorithms (colorings, power graphs,
    /// components) on bipartite instances.
    pub fn to_graph(&self) -> Graph {
        let shift = self.left_count();
        let edges: Vec<(usize, usize)> = self.edges().map(|(u, v)| (u, shift + v)).collect();
        Graph::from_edges_unchecked(self.node_count(), &edges)
    }

    /// Index of right node `v` in the flattened [`Graph`] of [`Self::to_graph`].
    pub fn right_index(&self, v: usize) -> usize {
        self.left_count() + v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        // U = {0,1}, V = {0,1,2}; u0 ~ {v0,v1}, u1 ~ {v1,v2}
        BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn degrees_and_rank() {
        let b = sample();
        assert_eq!(b.left_count(), 2);
        assert_eq!(b.right_count(), 3);
        assert_eq!(b.node_count(), 5);
        assert_eq!(b.edge_count(), 4);
        assert_eq!(b.left_degree(0), 2);
        assert_eq!(b.right_degree(1), 2);
        assert_eq!(b.min_left_degree(), 2);
        assert_eq!(b.max_left_degree(), 2);
        assert_eq!(b.rank(), 2);
        assert_eq!(b.min_right_degree(), 1);
    }

    #[test]
    fn rejects_duplicates_and_out_of_range() {
        let mut b = sample();
        assert_eq!(
            b.add_edge(0, 0),
            Err(GraphError::DuplicateEdge { u: 0, v: 0 })
        );
        assert_eq!(
            b.add_edge(2, 0),
            Err(GraphError::NodeOutOfRange { node: 2, count: 2 })
        );
        assert_eq!(
            b.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, count: 3 })
        );
    }

    #[test]
    fn remove_edge_symmetric() {
        let mut b = sample();
        assert!(b.remove_edge(0, 1));
        assert!(!b.contains_edge(0, 1));
        assert_eq!(b.right_neighbors(1), &[1]);
        assert_eq!(b.edge_count(), 3);
        assert!(!b.remove_edge(0, 1));
    }

    #[test]
    fn edge_iterator_is_complete() {
        let b = sample();
        let edges: Vec<_> = b.edges().collect();
        assert_eq!(edges, vec![(0, 0), (0, 1), (1, 1), (1, 2)]);
    }

    #[test]
    fn filter_and_induced() {
        let b = sample();
        let f = b.filter_edges(|u, _| u == 1);
        assert_eq!(f.edge_count(), 2);
        assert_eq!(f.left_degree(0), 0);

        let ind = b.induced_subgraph(&[true, false], &[true, true, true]);
        assert_eq!(ind.edge_count(), 2);
        assert_eq!(ind.left_neighbors(0), &[0, 1]);
    }

    #[test]
    fn to_graph_shifts_right_indices() {
        let b = sample();
        let g = b.to_graph();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.contains_edge(0, b.right_index(0)));
        assert!(g.contains_edge(1, b.right_index(2)));
        assert!(!g.contains_edge(0, 1));
    }

    #[test]
    fn from_edges_sorts_rows_and_validates() {
        let b = BipartiteGraph::from_edges(2, 3, &[(1, 2), (0, 1), (1, 1), (0, 0)]).unwrap();
        assert_eq!(b, sample());
        assert_eq!(b.left_neighbors(1), &[1, 2]);
        assert_eq!(b.right_neighbors(1), &[0, 1]);
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(2, 0)]),
            Err(GraphError::NodeOutOfRange { node: 2, count: 2 })
        );
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, count: 3 })
        );
        // range errors come before duplicates, in list order
        assert_eq!(
            BipartiteGraph::from_edges(2, 3, &[(0, 1), (0, 1), (0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, count: 3 })
        );
    }

    #[test]
    fn empty_sides() {
        let b = BipartiteGraph::new(0, 0);
        assert_eq!(b.min_left_degree(), 0);
        assert_eq!(b.rank(), 0);
        assert_eq!(b.edges().count(), 0);
    }
}
