//! Undirected degree splitting (edge 2-coloring), the variant the paper's
//! introduction credits with unlocking deterministic edge coloring
//! [GS17, GHK+17b]: color the edges red/blue so every node has roughly
//! half of each color.
//!
//! Two engines, mirroring the directed case:
//!
//! * **Eulerian engine** — alternate colors along the edge-marking
//!   traversal of the virtually-augmented (all-even) graph. Every visit of
//!   a node consumes one incoming and one outgoing traversal edge with
//!   opposite colors, so discrepancies stay bounded by a small constant
//!   (one per odd circuit plus the virtual-edge parity); rounds are
//!   charged by the Theorem 2.3 formula, as for the directed oracle.
//! * **Walk engine** — alternate colors along pairing walks, restarting
//!   the alternation at ruling-set cuts: each cut at a node can cost 2,
//!   giving the same `≈ ε·d` empirical behavior as the directed walk
//!   engine; rounds measured.

use crate::charge::splitting_rounds_deterministic;
use crate::distributed::segment_walks;
use local_runtime::RoundLedger;
use splitgraph::csr::Csr;
use splitgraph::{Color, MultiGraph};

/// Result of an undirected degree splitting.
#[derive(Debug, Clone)]
pub struct EdgeSplitting {
    /// Color per edge id.
    pub colors: Vec<Color>,
    /// Round accounting.
    pub ledger: RoundLedger,
}

impl EdgeSplitting {
    /// Number of red (resp. blue) edges at `v`.
    pub fn color_degree(&self, g: &MultiGraph, v: usize, color: Color) -> usize {
        g.incident_edges(v)
            .iter()
            .filter(|&&e| self.colors[e] == color)
            .count()
    }

    /// `|red(v) − blue(v)|`.
    pub fn discrepancy(&self, g: &MultiGraph, v: usize) -> usize {
        let red = self.color_degree(g, v, Color::Red);
        let blue = g.degree(v) - red;
        red.abs_diff(blue)
    }

    /// Maximum discrepancy over all nodes.
    pub fn max_discrepancy(&self, g: &MultiGraph) -> usize {
        (0..g.node_count())
            .map(|v| self.discrepancy(g, v))
            .max()
            .unwrap_or(0)
    }
}

/// Eulerian-traversal edge 2-coloring: colors alternate along the
/// traversal circuits of the virtually-augmented graph. Rounds charged per
/// Theorem 2.3 with accuracy `eps` (the contract the callers rely on).
///
/// # Panics
///
/// Panics if `g` contains self-loops.
pub fn edge_splitting_eulerian(g: &MultiGraph, eps: f64, n_for_charge: usize) -> EdgeSplitting {
    let n = g.node_count();
    let m = g.edge_count();
    let mut endpoints: Vec<(usize, usize)> = (0..m).map(|e| g.endpoints(e)).collect();
    for &(a, b) in &endpoints {
        assert_ne!(a, b, "self-loops are not supported");
    }
    let odd: Vec<usize> = (0..n).filter(|&v| g.degree(v) % 2 == 1).collect();
    for pair in odd.chunks_exact(2) {
        endpoints.push((pair[0], pair[1]));
    }
    let total = endpoints.len();
    // flat incidence over the augmented graph (no self-loops here, so this
    // matches the old push-per-endpoint lists exactly)
    let incident = Csr::from_incidence(n, &endpoints);
    let mut used = vec![false; total];
    let mut ptr = vec![0usize; n];
    let mut colors = vec![Color::Red; total];
    // iterative traversal; alternate the color along the trail
    let mut stack: Vec<usize> = Vec::new();
    for start in 0..n {
        stack.push(start);
        let mut flip = Color::Red;
        while let Some(&v) = stack.last() {
            let row = incident.row(v);
            let mut advanced = None;
            while ptr[v] < row.len() {
                let e = row[ptr[v]];
                ptr[v] += 1;
                if !used[e] {
                    advanced = Some(e);
                    break;
                }
            }
            match advanced {
                Some(e) => {
                    used[e] = true;
                    colors[e] = flip;
                    flip = flip.flipped();
                    let (a, b) = endpoints[e];
                    let w = if a == v { b } else { a };
                    stack.push(w);
                }
                None => {
                    stack.pop();
                }
            }
        }
    }
    colors.truncate(m);
    let mut ledger = RoundLedger::new();
    ledger.add_charged(
        "undirected degree splitting (Thm 2.3 contract)",
        splitting_rounds_deterministic(eps, n_for_charge),
    );
    EdgeSplitting { colors, ledger }
}

/// Walk-engine edge 2-coloring: alternate along pairing walks, restarting
/// at spaced cuts (`spacing = ⌈1/ε⌉`); rounds measured.
///
/// # Panics
///
/// Panics if `eps` is outside `(0, 1]` or `g` contains self-loops.
pub fn edge_splitting_walk(g: &MultiGraph, eps: f64) -> EdgeSplitting {
    let mut colors = vec![Color::Red; g.edge_count()];
    let (ledger, _) = segment_walks(
        g,
        eps,
        [
            "walk edge splitting (empty graph)",
            "segment alternation (host rounds)",
        ],
        |_, seg| {
            let mut flip = Color::Red;
            for &e in seg {
                colors[e] = flip;
                flip = flip.flipped();
            }
        },
    );
    EdgeSplitting { colors, ledger }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_multigraph(n: usize, m: usize, seed: u64) -> MultiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = MultiGraph::new(n);
        for _ in 0..m {
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n);
            while b == a {
                b = rng.random_range(0..n);
            }
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn eulerian_engine_small_discrepancy_on_random_graphs() {
        for seed in 0..10 {
            let g = random_multigraph(30, 200, seed);
            let s = edge_splitting_eulerian(&g, 0.1, 30);
            let max = s.max_discrepancy(&g);
            assert!(max <= 4, "discrepancy {max} too large (seed {seed})");
        }
    }

    #[test]
    fn eulerian_engine_on_even_cycle_is_perfect() {
        let mut g = MultiGraph::new(8);
        for i in 0..8 {
            g.add_edge(i, (i + 1) % 8);
        }
        let s = edge_splitting_eulerian(&g, 0.5, 8);
        assert_eq!(s.max_discrepancy(&g), 0);
        let reds = s.colors.iter().filter(|&&c| c == Color::Red).count();
        assert_eq!(reds, 4);
    }

    #[test]
    fn walk_engine_colors_every_edge() {
        let g = random_multigraph(25, 150, 3);
        let s = edge_splitting_walk(&g, 0.125);
        assert_eq!(s.colors.len(), 150);
        // average discrepancy should be far below average degree
        let avg_disc: f64 = (0..25).map(|v| s.discrepancy(&g, v)).sum::<usize>() as f64 / 25.0;
        let avg_deg = 2.0 * 150.0 / 25.0;
        assert!(
            avg_disc < avg_deg / 3.0,
            "avg discrepancy {avg_disc} vs degree {avg_deg}"
        );
    }

    #[test]
    fn ledgers_have_expected_kinds() {
        let g = random_multigraph(20, 60, 5);
        let e = edge_splitting_eulerian(&g, 0.25, 20);
        assert!(e.ledger.charged_total() > 0.0);
        assert_eq!(e.ledger.measured_total(), 0.0);
        let w = edge_splitting_walk(&g, 0.25);
        assert!(w.ledger.measured_total() > 0.0);
        assert_eq!(w.ledger.charged_total(), 0.0);
    }

    #[test]
    fn empty_graph_handled() {
        let g = MultiGraph::new(4);
        let s = edge_splitting_walk(&g, 0.5);
        assert!(s.colors.is_empty());
        assert_eq!(s.max_discrepancy(&g), 0);
    }
}
