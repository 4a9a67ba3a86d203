//! # splitgraph — graph substrate for the distributed-splitting reproduction
//!
//! This crate provides the graph machinery underneath the reproduction of
//! *"On the Complexity of Distributed Splitting Problems"* (Bamberger,
//! Ghaffari, Kuhn, Maus, Uitto; PODC 2019):
//!
//! * [`Graph`] — simple undirected graphs (host networks), each one
//!   immutable sorted CSR built from an edge list by [`Graph::from_edges`];
//! * [`BipartiteGraph`] — the constraint/variable bipartite instances
//!   `B = (U ∪ V, E)` on which all splitting problems are defined, with the
//!   paper's parameters `δ`, `Δ` (left degrees) and rank `r` (right degree);
//! * [`MultiGraph`] and [`Orientation`] — the multigraphs built by
//!   Degree–Rank Reduction II and directed degree splittings
//!   (Definition 2.1);
//! * [`checks`] — ground-truth validity checkers for every output object
//!   (weak splittings, multicolor splittings, colorings, MIS, sinkless
//!   orientations, uniform splittings);
//! * [`generators`] — random and deterministic instance families, including
//!   the doubling construction of Section 1.2, the sinkless-orientation
//!   reduction instances of Section 2.5 / Figure 1, and girth-10 bipartite
//!   graphs for Section 5;
//! * [`csr`] — the flat compressed-sparse-row storage underneath [`Graph`]
//!   and the multigraph incidence lists: bulk counting-sort construction
//!   with no per-edge shifting;
//! * [`delta`] — typed edge-mutation batches ([`EdgeDelta`]) with in-place
//!   patching, dirty-region tracking, and exact inverses for the churn
//!   subsystem;
//! * girth, connected components, and power-graph utilities.
//!
//! # Examples
//!
//! Build a weak-splitting instance from a graph and check a coloring:
//!
//! ```
//! use splitgraph::{checks, generators, Color, Graph};
//!
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
//! let b = generators::doubling_instance(&g);
//! // color the variable side alternately: every constraint sees both colors
//! let colors = vec![Color::Red, Color::Blue, Color::Red];
//! assert!(checks::weak_splitting_violations(&b, &colors, 0).len() <= 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bipartite;
pub mod checks;
mod color;
mod components;
pub mod csr;
pub mod delta;
mod error;
pub mod generators;
mod girth;
mod graph;
pub mod math;
mod multigraph;
mod power;

pub use bipartite::BipartiteGraph;
pub use color::{Color, MultiColor};
pub use components::{bipartite_components, connected_components, BipartiteComponent, Components};
pub use delta::{DeltaError, DirtyRegion, EdgeDelta};
pub use error::GraphError;
pub use girth::{bipartite_girth, girth};
pub use graph::Graph;
pub use multigraph::{EdgeId, MultiGraph, Orientation};
pub use power::{power_graph, right_square};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Graph>();
        assert_send_sync::<super::BipartiteGraph>();
        assert_send_sync::<super::MultiGraph>();
        assert_send_sync::<super::Orientation>();
        assert_send_sync::<super::Color>();
        assert_send_sync::<super::GraphError>();
    }
}
