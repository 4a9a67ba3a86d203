//! The distributed walk-segmentation engine.
//!
//! A genuinely local implementation of the degree-splitting *mechanism*
//! underlying [GHK+17b]: pair incident edges (0 rounds) so the edge set
//! decomposes into walks; 3-color the walks with Cole–Vishkin
//! (`log* + O(1)` rounds); select cut points with spacing `≈ ⌈1/ε⌉` via a
//! greedy ruling set (`O(1/ε)` rounds); orient every segment consistently
//! using only segment-local information (`O(1/ε)` rounds).
//!
//! Per node `v`, the discrepancy is at most `2·(cuts at v's visits) + 1`;
//! cuts carry spacing `> L` along each walk, so on near-regular inputs the
//! engine lands near the `ε·d(v) + 2` contract. Worst-case inputs can
//! concentrate cuts on one node, which is why the Eulerian engine remains
//! the contract-keeping reference — the `abl_engine` experiment quantifies
//! the gap.
//!
//! The segmentation is shared with the undirected walk engine
//! ([`crate::edge_splitting_walk`]), which alternates colors along each
//! segment instead of orienting it.

use crate::walks::WalkDecomposition;
use local_coloring::{cole_vishkin_3color, spaced_ruling_set};
use local_runtime::RoundLedger;
use splitgraph::{MultiGraph, Orientation};

/// Outcome of the walk-engine splitting.
#[derive(Debug, Clone)]
pub struct WalkSplitting {
    /// The computed orientation.
    pub orientation: Orientation,
    /// Measured walk-graph rounds per phase. Host-graph simulation of a
    /// walk-graph round costs at most 2 host rounds (adjacent walk positions
    /// share a host node); the ledger stores host rounds.
    pub ledger: RoundLedger,
    /// Number of segments the walks were cut into.
    pub segments: usize,
}

/// Runs the walk engine with target accuracy `eps` (cut spacing
/// `L = ⌈1/ε⌉`).
///
/// # Panics
///
/// Panics if `eps` is not in `(0, 1]` or `g` contains self-loops.
pub fn walk_splitting(g: &MultiGraph, eps: f64) -> WalkSplitting {
    // orient every segment consistently; the direction is chosen from
    // segment-local data (parity of the smallest edge id in the segment),
    // so neighboring segments decide independently
    let mut towards_second = vec![false; g.edge_count()];
    let (ledger, segments) = segment_walks(
        g,
        eps,
        [
            "walk engine (empty graph)",
            "segment orientation (host rounds)",
        ],
        |walks, seg| {
            let forward = seg.iter().min().expect("segment nonempty") % 2 == 0;
            for &e in seg {
                let (tail, _) = walks.direction[e];
                let (a, _) = g.endpoints(e);
                towards_second[e] = forward == (tail == a);
            }
        },
    );
    WalkSplitting {
        orientation: Orientation::new(towards_second),
        ledger,
        segments,
    }
}

/// The segmentation both walk engines share: checks `eps`, pairs the
/// walks (0 rounds), 3-colors them with Cole–Vishkin (`log* + O(1)` walk
/// rounds) and cuts them at a spaced ruling set (`O(L)` walk rounds).
/// Segments begin at cut positions and at the heads of open walks and run
/// up to the next cut (exclusive) or the walk's end; `per_segment` sees
/// each one in walk order, in ascending order of its first edge. The
/// ledger records the two phases and then, under `labels[1]`, the
/// longest segment's per-segment pass (`O(L)` walk rounds); an empty
/// graph records only `labels[0]`. Returns the ledger and the segment
/// count.
///
/// # Panics
///
/// Panics if `eps` is not in `(0, 1]` or `g` contains self-loops.
pub(crate) fn segment_walks(
    g: &MultiGraph,
    eps: f64,
    labels: [&str; 2],
    mut per_segment: impl FnMut(&WalkDecomposition, &[usize]),
) -> (RoundLedger, usize) {
    assert!(eps > 0.0 && eps <= 1.0, "accuracy must lie in (0, 1]");
    let spacing = (1.0 / eps).ceil() as usize;
    let mut ledger = RoundLedger::new();
    if g.edge_count() == 0 {
        ledger.add_measured(labels[0], 0.0);
        return (ledger, 0);
    }
    let walks = WalkDecomposition::from_pairing(g);
    // edge ids are unique identifiers
    let ids: Vec<u64> = (0..g.edge_count() as u64).collect();
    let coloring = cole_vishkin_3color(&walks.chains, &ids);
    ledger.add_measured(
        "cole-vishkin 3-coloring (host rounds)",
        2.0 * coloring.rounds as f64,
    );
    let cuts = spaced_ruling_set(&walks.chains, &coloring.colors, spacing);
    ledger.add_measured("spaced ruling set (host rounds)", 2.0 * cuts.rounds as f64);

    // every edge lies in exactly one segment: a start is a cut or has no
    // predecessor, so the walk from it stops at the next cut (on a cycle,
    // at the latest at the start itself) or at the walk's end
    let mut seg = Vec::new();
    let (mut segments, mut covered, mut max_segment) = (0usize, 0usize, 0usize);
    for start in 0..g.edge_count() {
        if !cuts.cut[start] && walks.chains.prev(start).is_some() {
            continue;
        }
        seg.clear();
        seg.push(start);
        let mut cur = start;
        while let Some(nx) = walks.chains.next(cur) {
            if cuts.cut[nx] {
                break;
            }
            seg.push(nx);
            cur = nx;
        }
        per_segment(&walks, &seg);
        segments += 1;
        covered += seg.len();
        max_segment = max_segment.max(seg.len());
    }
    debug_assert_eq!(
        covered,
        g.edge_count(),
        "every edge must belong to a segment"
    );
    ledger.add_measured(labels[1], 2.0 * max_segment.max(1) as f64);
    (ledger, segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_even_multigraph(n: usize, m: usize, seed: u64) -> MultiGraph {
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
    fn orients_every_edge_exactly_once() {
        let g = random_even_multigraph(40, 120, 3);
        let out = walk_splitting(&g, 0.25);
        assert_eq!(out.orientation.edge_count(), 120);
        assert!(out.segments >= 1);
    }

    #[test]
    fn empty_graph() {
        let g = MultiGraph::new(5);
        let out = walk_splitting(&g, 0.5);
        assert_eq!(out.orientation.edge_count(), 0);
        assert_eq!(out.segments, 0);
    }

    #[test]
    fn cycle_with_coarse_eps_single_segments() {
        let mut g = MultiGraph::new(8);
        for i in 0..8 {
            g.add_edge(i, (i + 1) % 8);
        }
        let out = walk_splitting(&g, 1.0);
        // spacing 1: many cuts, many segments
        assert!(out.segments >= 2);
        // every node has degree 2: discrepancy is 0 or 2
        for v in 0..8 {
            let d = out.orientation.discrepancy(&g, v);
            assert!(d == 0 || d == 2);
        }
    }

    #[test]
    fn fine_eps_keeps_discrepancy_low_on_regular_graphs() {
        // high-degree nodes: discrepancy should stay well below degree
        let g = random_even_multigraph(20, 400, 11);
        let out = walk_splitting(&g, 1.0 / 16.0);
        let mut total_disc = 0usize;
        for v in 0..20 {
            total_disc += out.orientation.discrepancy(&g, v);
        }
        let avg_degree = 2.0 * 400.0 / 20.0;
        let avg_disc = total_disc as f64 / 20.0;
        assert!(
            avg_disc <= 0.25 * avg_degree,
            "avg discrepancy {avg_disc} too large vs degree {avg_degree}"
        );
    }

    #[test]
    fn ledger_reports_three_measured_phases() {
        let g = random_even_multigraph(30, 90, 5);
        let out = walk_splitting(&g, 0.2);
        assert_eq!(out.ledger.entries().len(), 3);
        assert!(out.ledger.charged_total() == 0.0);
        assert!(out.ledger.measured_total() > 0.0);
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn rejects_bad_eps() {
        let g = MultiGraph::new(2);
        let _ = walk_splitting(&g, 0.0);
    }
}
