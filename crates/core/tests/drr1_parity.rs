//! Parity of the packed Eulerian traversal and of Degree–Rank Reduction I
//! with the formulation they replaced:
//!
//! * (a) [`DegreeSplitter::split_bipartite`]'s kept flags equal
//!   [`eulerian_orientation`] of the bipartite graph's multigraph view over
//!   `U ∪ V`, and its ledger equals [`DegreeSplitter::split`]'s;
//! * (b) [`eulerian_orientation`] equals the traversal as first written
//!   over a `Vec<(usize, usize)>` endpoint list and a `Csr` incidence, on
//!   random multigraphs with parallel edges and self-loops;
//! * (c) [`degree_rank_reduction_i`]'s residual graph, Lemma 2.4 trace and
//!   ledger equal a replay of the loop as first written (multigraph view,
//!   `split`, kept-edge list, `from_edges`) for `k ∈ {0, 1, 3}`.
//!
//! The bipartite shapes cover odd degrees, isolated nodes on both sides,
//! empty rows and the empty graph.
//!
//! CI runs this file with `PROPTEST_CASES=2048` for a heavier sweep.

use degree_split::{eulerian_orientation, DegreeSplitter, Engine, Flavor};
use local_runtime::RoundLedger;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splitgraph::csr::Csr;
use splitgraph::{generators, BipartiteGraph, MultiGraph, Orientation};
use splitting_core::{degree_rank_reduction_i, DrrIterationStats};

/// A random bipartite graph of one of five shapes.
fn arb_bipartite(shape: u32, nu: usize, nv: usize, density: u32, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = f64::from(density) / 100.0;
    let mut edges = Vec::new();
    match shape {
        // independent edges: odd degrees and isolated nodes of both sides
        0 => {
            for u in 0..nu {
                for v in 0..nv {
                    if rng.random_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
        }
        1 => return generators::complete_bipartite(nu, nv),
        // every constraint has degree 0 or 1
        2 => {
            for u in 0..nu {
                if nv > 0 && rng.random_bool(p) {
                    edges.push((u, rng.random_range(0..nv)));
                }
            }
        }
        // the upper half of the variables and every odd constraint is
        // isolated
        3 => {
            for u in (0..nu).step_by(2) {
                for v in 0..nv / 2 {
                    if rng.random_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
        }
        // a hub constraint over every variable on top of sparse edges
        _ => {
            for u in 0..nu {
                for v in 0..nv {
                    if u == 0 || rng.random_bool(p / 4.0) {
                        edges.push((u, v));
                    }
                }
            }
        }
    }
    BipartiteGraph::from_edges(nu, nv, &edges).expect("generated edges are simple")
}

/// A random multigraph whose edges come from a small pool of node pairs,
/// so parallel edges are common, with self-loops at rate `loops`%.
fn arb_multigraph(n: usize, m: usize, loops: u32, seed: u64) -> MultiGraph {
    let mut g = MultiGraph::new(n);
    if n == 0 {
        return g;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<(usize, usize)> = (0..n.max(2))
        .map(|_| {
            let a = rng.random_range(0..n);
            if rng.random_bool(f64::from(loops) / 100.0) {
                (a, a)
            } else {
                (a, rng.random_range(0..n))
            }
        })
        .collect();
    for _ in 0..m {
        let (a, b) = pool[rng.random_range(0..pool.len())];
        g.add_edge(a, b);
    }
    g
}

/// The multigraph view of `b` over `U ∪ V` with edge ids in
/// [`BipartiteGraph::edges`] order, and those edges.
fn multigraph_view(b: &BipartiteGraph) -> (MultiGraph, Vec<(usize, usize)>) {
    let edges: Vec<(usize, usize)> = b.edges().collect();
    let endpoints: Vec<(usize, usize)> =
        edges.iter().map(|&(u, v)| (u, b.right_index(v))).collect();
    (MultiGraph::from_endpoints(b.node_count(), endpoints), edges)
}

/// The Eulerian traversal as first written: an augmented endpoint list,
/// a `Csr` incidence over it, and separate `used` / direction arrays.
fn reference_orientation(g: &MultiGraph) -> Orientation {
    let n = g.node_count();
    let m = g.edge_count();
    let mut endpoints: Vec<(usize, usize)> = (0..m).map(|e| g.endpoints(e)).collect();
    let odd: Vec<usize> = (0..n).filter(|&v| g.degree(v) % 2 == 1).collect();
    for pair in odd.chunks_exact(2) {
        endpoints.push((pair[0], pair[1]));
    }
    let total = endpoints.len();
    let incident = Csr::from_incidence(n, &endpoints);
    let mut used = vec![false; total];
    let mut ptr = vec![0usize; n];
    let mut towards_second = vec![false; total];
    let mut stack: Vec<usize> = Vec::new();
    for start in 0..n {
        stack.push(start);
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
                    let (a, b) = endpoints[e];
                    let w = if a == v { b } else { a };
                    towards_second[e] = a == v;
                    stack.push(w);
                }
                None => {
                    stack.pop();
                }
            }
        }
    }
    towards_second.truncate(m);
    Orientation::new(towards_second)
}

/// Degree–Rank Reduction I as first written: multigraph view, `split`,
/// kept-edge list, `from_edges`.
fn reference_drr1(
    b: &BipartiteGraph,
    splitter: &DegreeSplitter,
    k: usize,
) -> (BipartiteGraph, Vec<DrrIterationStats>, RoundLedger) {
    let delta0 = b.min_left_degree() as f64;
    let rank0 = b.rank() as f64;
    let eps = splitter.eps();
    let n = b.node_count();
    let mut current = b.clone();
    let mut trace = Vec::new();
    let mut ledger = RoundLedger::new();
    for it in 1..=k {
        let (g, edges) = multigraph_view(&current);
        let result = splitter.split(&g, n);
        ledger.merge_prefixed(&format!("DRR-I iteration {it}"), result.ledger);
        let kept: Vec<(usize, usize)> = edges
            .iter()
            .enumerate()
            .filter(|&(e, &(_, v))| result.orientation.head(&g, e) == current.right_index(v))
            .map(|(_, &edge)| edge)
            .collect();
        current = BipartiteGraph::from_edges(current.left_count(), current.right_count(), &kept)
            .expect("kept edges stay simple");
        let factor_lo = ((1.0 - eps) / 2.0).powi(it as i32);
        let factor_hi = ((1.0 + eps) / 2.0).powi(it as i32);
        trace.push(DrrIterationStats {
            iteration: it,
            min_left_degree: current.min_left_degree(),
            rank: current.rank(),
            delta_lower_bound: factor_lo * delta0 - 2.0,
            rank_upper_bound: factor_hi * rank0 + 3.0,
        });
    }
    (current, trace, ledger)
}

fn oracle(eps: f64) -> DegreeSplitter {
    DegreeSplitter::new(eps, Engine::EulerianOracle, Flavor::Deterministic)
}

proptest! {
    #[test]
    fn bipartite_entry_matches_orientation_of_multigraph_view(
        (shape, nu, nv, density, seed) in (0u32..5, 0usize..16, 0usize..24, 0u32..=100, 0u64..1_000_000)
    ) {
        let b = arb_bipartite(shape, nu, nv, density, seed);
        let (view, _) = multigraph_view(&b);
        let splitter = oracle(0.25);
        let split = splitter.split_bipartite(&b, b.node_count());
        let whole = splitter.split(&view, b.node_count());
        let orientation = eulerian_orientation(&view);
        let expected: Vec<bool> = (0..view.edge_count())
            .map(|e| orientation.is_towards_second(e))
            .collect();
        prop_assert_eq!(split.kept, expected);
        prop_assert_eq!(split.ledger, whole.ledger);
    }

    #[test]
    fn packed_traversal_matches_endpoint_list_traversal(
        (n, m, loops, seed) in (0usize..20, 0usize..60, 0u32..=40, 0u64..1_000_000)
    ) {
        let g = arb_multigraph(n, m, loops, seed);
        prop_assert_eq!(eulerian_orientation(&g), reference_orientation(&g));
    }

    #[test]
    fn drr1_matches_replay_of_the_multigraph_loop(
        ((shape, nu, nv, density, seed), (k, walk)) in
            ((0u32..5, 0usize..16, 0usize..24, 0u32..=100, 0u64..1_000_000), (0usize..3, 0u32..4))
    ) {
        let b = arb_bipartite(shape, nu, nv, density, seed);
        let k = [0, 1, 3][k];
        // the walk engine keeps its multigraph view; cover it on a quarter
        let engine = if walk == 0 { Engine::Walk } else { Engine::EulerianOracle };
        let splitter = DegreeSplitter::new(1.0 / 3.0, engine, Flavor::Deterministic);
        let red = degree_rank_reduction_i(&b, &splitter, k);
        let (graph, trace, ledger) = reference_drr1(&b, &splitter, k);
        prop_assert_eq!(red.graph, graph);
        prop_assert_eq!(red.trace, trace);
        prop_assert_eq!(red.ledger, ledger);
    }
}

#[test]
fn self_loops_are_listed_twice_and_oriented_forward() {
    // a self-loop between two ordinary edges, plus a loop on an isolated
    // node, on both formulations
    let mut g = MultiGraph::new(4);
    g.add_edge(0, 1);
    g.add_edge(1, 1);
    g.add_edge(1, 2);
    g.add_edge(3, 3);
    let o = eulerian_orientation(&g);
    assert_eq!(o, reference_orientation(&g));
    assert!(o.is_towards_second(1) && o.is_towards_second(3));
    assert_eq!(o.discrepancy(&g, 1), 0);
}

#[test]
fn empty_graphs() {
    for (nu, nv) in [(0, 0), (3, 0), (0, 5), (2, 2)] {
        let b = BipartiteGraph::new(nu, nv);
        assert!(oracle(0.5).split_bipartite(&b, 1).kept.is_empty());
        let red = degree_rank_reduction_i(&b, &oracle(0.5), 3);
        assert_eq!(red.graph, b);
    }
    assert_eq!(eulerian_orientation(&MultiGraph::new(0)).edge_count(), 0);
}
