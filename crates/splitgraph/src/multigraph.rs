//! Multigraphs with edge identities, and edge orientations.
//!
//! Degree–Rank Reduction II (Section 2.3 of the paper) builds a *multigraph*
//! `G` on the constraint side `U`: each variable node pairs up its neighbors
//! and every pair becomes an edge of `G`, so two constraint nodes can be
//! connected by many parallel edges with distinct *corresponding* variable
//! nodes. Directed degree splitting (Definition 2.1) then orients these
//! edges; [`Orientation`] stores the result and computes per-node
//! discrepancies.

use crate::csr::Csr;

/// Identifier of an edge inside a [`MultiGraph`].
pub type EdgeId = usize;

/// An undirected multigraph over nodes `0..n`: parallel edges allowed,
/// self-loops allowed (they never arise in the paper's constructions but are
/// handled consistently: a self-loop contributes 2 to the degree and 0 to any
/// orientation discrepancy).
///
/// # Examples
///
/// ```
/// use splitgraph::MultiGraph;
///
/// let mut g = MultiGraph::new(3);
/// let e0 = g.add_edge(0, 1);
/// let e1 = g.add_edge(0, 1); // parallel edge
/// assert_ne!(e0, e1);
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiGraph {
    node_count: usize,
    endpoints: Vec<(usize, usize)>,
    incident: Vec<Vec<EdgeId>>,
}

impl MultiGraph {
    /// Creates an empty multigraph with `n` nodes.
    pub fn new(n: usize) -> Self {
        MultiGraph {
            node_count: n,
            endpoints: Vec::new(),
            incident: vec![Vec::new(); n],
        }
    }

    /// Builds a multigraph from an endpoint list in bulk; edge `e` gets id
    /// `e` (its index in `endpoints`). The incidence lists are filled by one
    /// counting-sort pass instead of `m` individual appends.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_endpoints(n: usize, endpoints: Vec<(usize, usize)>) -> Self {
        for &(a, b) in &endpoints {
            assert!(a < n, "endpoint {a} out of range");
            assert!(b < n, "endpoint {b} out of range");
        }
        let incident = Csr::from_incidence(n, &endpoints).into_rows();
        MultiGraph {
            node_count: n,
            endpoints,
            incident,
        }
    }

    /// Flat incidence structure: row `v` lists the edge ids incident to `v`
    /// (self-loops twice) in one contiguous buffer.
    pub fn incidence_csr(&self) -> Csr {
        Csr::from_incidence(self.node_count, &self.endpoints)
    }

    /// Adds an edge between `u` and `v` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> EdgeId {
        assert!(u < self.node_count, "endpoint {u} out of range");
        assert!(v < self.node_count, "endpoint {v} out of range");
        let id = self.endpoints.len();
        self.endpoints.push((u, v));
        self.incident[u].push(id);
        if u != v {
            self.incident[v].push(id);
        } else {
            // a self-loop is incident to its node twice
            self.incident[u].push(id);
        }
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges (parallel edges counted individually).
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Endpoints `(u, v)` of edge `e` in insertion orientation.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (usize, usize) {
        self.endpoints[e]
    }

    /// Degree of `v` (self-loops count twice).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.incident[v].len()
    }

    /// Edge ids incident to `v` (self-loops appear twice).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn incident_edges(&self, v: usize) -> &[EdgeId] {
        &self.incident[v]
    }

    /// Maximum degree, or 0 for an empty multigraph.
    pub fn max_degree(&self) -> usize {
        self.incident.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Given edge `e` and one endpoint `v`, returns the other endpoint
    /// (`v` itself for a self-loop).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `v` is not an endpoint of `e`.
    pub fn other_endpoint(&self, e: EdgeId, v: usize) -> usize {
        let (a, b) = self.endpoints[e];
        if a == v {
            b
        } else if b == v {
            a
        } else {
            panic!("node {v} is not an endpoint of edge {e}");
        }
    }
}

/// An orientation of every edge of a [`MultiGraph`].
///
/// `towards_second[e] == true` means edge `e = (u, v)` is directed `u → v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orientation {
    towards_second: Vec<bool>,
}

impl Orientation {
    /// Wraps a per-edge direction vector.
    ///
    /// # Panics
    ///
    /// Panics in [`Orientation::head`]/[`Orientation::tail`] if the vector's
    /// length does not match the multigraph it is later used with.
    pub fn new(towards_second: Vec<bool>) -> Self {
        Orientation { towards_second }
    }

    /// Number of oriented edges.
    pub fn edge_count(&self) -> usize {
        self.towards_second.len()
    }

    /// Whether edge `e` is directed from its first to its second endpoint.
    pub fn is_towards_second(&self, e: EdgeId) -> bool {
        self.towards_second[e]
    }

    /// Head (target) of edge `e` in graph `g`.
    pub fn head(&self, g: &MultiGraph, e: EdgeId) -> usize {
        let (u, v) = g.endpoints(e);
        if self.towards_second[e] {
            v
        } else {
            u
        }
    }

    /// Tail (source) of edge `e` in graph `g`.
    pub fn tail(&self, g: &MultiGraph, e: EdgeId) -> usize {
        let (u, v) = g.endpoints(e);
        if self.towards_second[e] {
            u
        } else {
            v
        }
    }

    /// Out-degree of node `v` (self-loops contribute one in and one out).
    pub fn out_degree(&self, g: &MultiGraph, v: usize) -> usize {
        g.incident_edges(v)
            .iter()
            .filter(|&&e| {
                let (a, b) = g.endpoints(e);
                a == b || self.tail(g, e) == v
            })
            .count()
            // each self-loop occurrence pair contributes exactly one "out";
            // incident_edges lists a loop twice and the filter above accepts
            // both copies, so subtract one per loop.
            - g.incident_edges(v)
                .iter()
                .filter(|&&e| {
                    let (a, b) = g.endpoints(e);
                    a == b && a == v
                })
                .count()
                / 2
    }

    /// In-degree of node `v` (self-loops contribute one in and one out).
    pub fn in_degree(&self, g: &MultiGraph, v: usize) -> usize {
        g.degree(v) - self.out_degree(g, v)
    }

    /// Discrepancy `|out(v) − in(v)|` of node `v` (Definition 2.1).
    pub fn discrepancy(&self, g: &MultiGraph, v: usize) -> usize {
        let out = self.out_degree(g, v);
        let inn = self.in_degree(g, v);
        out.abs_diff(inn)
    }

    /// Maximum discrepancy over all nodes, or 0 for an empty graph.
    pub fn max_discrepancy(&self, g: &MultiGraph) -> usize {
        (0..g.node_count())
            .map(|v| self.discrepancy(g, v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_have_distinct_ids() {
        let mut g = MultiGraph::new(2);
        let e0 = g.add_edge(0, 1);
        let e1 = g.add_edge(1, 0);
        assert_eq!(e0, 0);
        assert_eq!(e1, 1);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.endpoints(e1), (1, 0));
        assert_eq!(g.other_endpoint(e0, 0), 1);
        assert_eq!(g.other_endpoint(e1, 0), 1);
    }

    #[test]
    fn self_loop_counts_twice_in_degree() {
        let mut g = MultiGraph::new(1);
        g.add_edge(0, 0);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.incident_edges(0), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_panics_out_of_range() {
        let mut g = MultiGraph::new(1);
        g.add_edge(0, 1);
    }

    #[test]
    fn bulk_endpoints_match_incremental() {
        let pairs = vec![(0, 1), (1, 0), (2, 2), (0, 2)];
        let mut inc = MultiGraph::new(3);
        for &(a, b) in &pairs {
            inc.add_edge(a, b);
        }
        let bulk = MultiGraph::from_endpoints(3, pairs);
        assert_eq!(inc, bulk);
        let csr = bulk.incidence_csr();
        for v in 0..3 {
            assert_eq!(csr.row(v), bulk.incident_edges(v));
        }
    }

    #[test]
    fn orientation_head_tail_and_degrees() {
        let mut g = MultiGraph::new(3);
        g.add_edge(0, 1); // e0
        g.add_edge(1, 2); // e1
        g.add_edge(2, 0); // e2
                          // orient the triangle as a directed cycle 0→1→2→0
        let o = Orientation::new(vec![true, true, true]);
        for v in 0..3 {
            assert_eq!(o.out_degree(&g, v), 1);
            assert_eq!(o.in_degree(&g, v), 1);
            assert_eq!(o.discrepancy(&g, v), 0);
        }
        assert_eq!(o.head(&g, 0), 1);
        assert_eq!(o.tail(&g, 0), 0);
        assert_eq!(o.max_discrepancy(&g), 0);
    }

    #[test]
    fn orientation_discrepancy_on_star() {
        let mut g = MultiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        // all edges out of the center
        let o = Orientation::new(vec![true, true, true]);
        assert_eq!(o.out_degree(&g, 0), 3);
        assert_eq!(o.in_degree(&g, 0), 0);
        assert_eq!(o.discrepancy(&g, 0), 3);
        assert_eq!(o.max_discrepancy(&g), 3);
        // flip one edge
        let o = Orientation::new(vec![false, true, true]);
        assert_eq!(o.discrepancy(&g, 0), 1);
    }

    #[test]
    fn self_loop_is_balanced() {
        let mut g = MultiGraph::new(2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        let o = Orientation::new(vec![true, true]);
        assert_eq!(o.out_degree(&g, 0), 2);
        assert_eq!(o.in_degree(&g, 0), 1);
        assert_eq!(o.discrepancy(&g, 0), 1);
    }
}
