//! Simple undirected graphs.
//!
//! [`Graph`] is the plain host-network type used throughout the reproduction:
//! nodes are dense indices `0..n`, edges are unordered pairs without
//! self-loops or duplicates.
//!
//! # Memory layout
//!
//! A graph is one sorted CSR ([`crate::csr::Csr`]): all adjacency rows
//! packed into a single `offsets`/`targets` buffer pair, each row ascending.
//! `neighbors()` returns a slice of that one allocation, so membership tests
//! are logarithmic, iteration order is deterministic and whole-graph scans
//! are cache-linear. A graph is immutable once built: [`Graph::from_edges`]
//! validates an edge list and builds the CSR in bulk, the in-crate producers
//! (power graphs, subgraph operations) emit CSR rows directly, and code that
//! edits a graph builds the edited edge list and constructs a new one.
//! [`Graph::csr`] lends the buffers to the LOCAL executor, which runs on
//! them without copying.

use crate::csr::Csr;
use crate::error::GraphError;

/// A simple undirected graph over nodes `0..n`.
///
/// # Examples
///
/// ```
/// use splitgraph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.contains_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    csr: Csr,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl Graph {
    /// Creates the edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            csr: Csr::from_parts(vec![0; n + 1], Vec::new()),
        }
    }

    /// Builds a graph from an edge list: counting-sort into CSR rows, sort
    /// each row, then one linear duplicate scan — `O(n + m log Δ)`.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range, an edge is a
    /// self-loop, or an edge appears twice (in either orientation). Range
    /// and self-loop violations are reported in list order before any
    /// duplicate; a duplicate is reported with `u < v`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, count: n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, count: n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
        }
        let mut csr = Csr::from_undirected_pairs(n, edges);
        csr.sort_rows();
        for u in 0..n {
            if let Some(w) = csr.row(u).windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge { u, v: w[0] });
            }
        }
        Ok(Graph { csr })
    }

    /// Assembles a graph from trusted CSR parts: rows sorted strictly
    /// ascending, symmetric, no self-loops. Used by in-crate bulk producers
    /// (power graphs) that guarantee the invariants.
    pub(crate) fn from_csr_parts_unchecked(offsets: Vec<usize>, targets: Vec<usize>) -> Graph {
        let csr = Csr::from_parts(offsets, targets);
        debug_assert!((0..csr.node_count()).all(|v| csr.row(v).windows(2).all(|w| w[0] < w[1])));
        debug_assert!((0..csr.node_count()).all(|v| csr
            .row(v)
            .iter()
            .all(|&u| u != v && csr.row(u).binary_search(&v).is_ok())));
        Graph { csr }
    }

    /// Builds a graph from a trusted simple edge list (no validation beyond
    /// debug assertions). `O(n + m log Δ)`.
    pub(crate) fn from_edges_unchecked(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut csr = Csr::from_undirected_pairs(n, edges);
        csr.sort_rows();
        debug_assert!((0..n).all(|v| csr.row(v).windows(2).all(|w| w[0] < w[1])));
        Graph { csr }
    }

    /// The CSR buffers `(offsets, targets)`: row `v` is
    /// `targets[offsets[v]..offsets[v + 1]]`, sorted ascending, so
    /// `offsets.len() == n + 1` and every edge fills two slots.
    pub fn csr(&self) -> (&[usize], &[usize]) {
        self.csr.parts()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.csr.entry_count() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.csr.row_len(v)
    }

    /// Sorted slice of neighbors of `v`, borrowed from the one contiguous
    /// whole-graph buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        self.csr.row(v)
    }

    /// Whether the edge `{u, v}` is present. Out-of-range endpoints yield `false`.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        u < self.node_count()
            && v < self.node_count()
            && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree Δ, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree δ, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Iterator over edges as ordered pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Subgraph induced by `keep` (nodes keep their indices; edges to dropped
    /// nodes are removed). `keep[v]` tells whether node `v` survives.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.node_count()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> Graph {
        assert_eq!(keep.len(), self.node_count(), "keep mask length mismatch");
        self.filter_edges(|u, v| keep[u] && keep[v])
    }

    /// Subgraph keeping exactly the edges for which `pred` returns true.
    /// Built in bulk, not edge-by-edge.
    pub fn filter_edges<F: FnMut(usize, usize) -> bool>(&self, mut pred: F) -> Graph {
        let kept: Vec<(usize, usize)> = self.edges().filter(|&(u, v)| pred(u, v)).collect();
        Graph::from_edges_unchecked(self.node_count(), &kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g, Graph::default());
        let g = Graph::new(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.neighbors(2), &[] as &[usize]);
    }

    #[test]
    fn query_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.contains_edge(1, 0));
        assert!(g.contains_edge(1, 2));
        assert!(!g.contains_edge(0, 2));
        assert!(!g.contains_edge(0, 17));
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn csr_exposes_sorted_rows() {
        let g = Graph::from_edges(4, &[(2, 0), (0, 1), (3, 0)]).unwrap();
        let (offsets, targets) = g.csr();
        assert_eq!(offsets, &[0, 3, 4, 5, 6]);
        assert_eq!(targets, &[1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_duplicate_in_either_orientation() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, count: 2 })
        );
        assert_eq!(
            Graph::from_edges(2, &[(5, 0)]),
            Err(GraphError::NodeOutOfRange { node: 5, count: 2 })
        );
    }

    #[test]
    fn range_and_self_loop_errors_precede_duplicates() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2)]),
            Err(GraphError::SelfLoop { node: 2 })
        );
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0), (0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, count: 3 })
        );
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 5);
        for &(u, v) in &edges {
            assert!(u < v);
        }
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn induced_subgraph_drops_incident_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let sub = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.contains_edge(2, 3));
        assert_eq!(sub.degree(1), 0);
    }

    #[test]
    fn filter_edges_applies_predicate() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let sub = g.filter_edges(|u, v| u + v >= 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.contains_edge(1, 2));
        assert!(sub.contains_edge(2, 3));
    }

    #[test]
    fn equality_ignores_edge_list_order() {
        let a = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let b = Graph::from_edges(3, &[(2, 1), (1, 0)]).unwrap();
        assert_eq!(a, b);
        let c = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_ne!(a, c);
        assert_ne!(Graph::new(2), Graph::new(3));
    }
}
