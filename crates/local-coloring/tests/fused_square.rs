//! Parity of the fused scheduling kernel: [`greedy_right_square`] must
//! return exactly the coloring and maximum degree of the materialized path,
//! `greedy_sequential(&right_square(b), identity)` and
//! `right_square(b).max_degree()`, over random bipartite graphs including
//! the degenerate shapes (no variables, isolated variables, constraints of
//! degree 0 and 1, complete `K_{a,b}`). The greedy itself is pinned against
//! the sort/dedup formulation it replaced.
//!
//! CI runs this file with `PROPTEST_CASES=2048` for a heavier sweep.

use local_coloring::{greedy_right_square, greedy_sequential};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use splitgraph::{generators, right_square, BipartiteGraph, Graph};

/// A random bipartite graph of one of five shapes.
fn arb_bipartite(shape: u32, nu: usize, nv: usize, density: u32, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = f64::from(density) / 100.0;
    let mut edges = Vec::new();
    match shape {
        // independent edges: isolated nodes of both sides appear naturally
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
        // the upper half of the variables is isolated
        3 => {
            for u in 0..nu {
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

/// The greedy coloring as first written: per node, collect the colored
/// neighbors' colors, sort, dedup, take the smallest gap.
fn sort_dedup_greedy(g: &Graph, order: &[usize]) -> Vec<u32> {
    let mut colors = vec![u32::MAX; g.node_count()];
    for &v in order {
        let mut used: Vec<u32> = g
            .neighbors(v)
            .iter()
            .map(|&w| colors[w])
            .filter(|&c| c != u32::MAX)
            .collect();
        used.sort_unstable();
        used.dedup();
        let mut c = 0u32;
        for &u in &used {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        colors[v] = c;
    }
    colors
}

proptest! {
    #[test]
    fn fused_kernel_matches_greedy_on_materialized_square(
        (shape, nu, nv, density, seed) in (0u32..5, 0usize..14, 0usize..24, 0u32..=100, 0u64..1_000_000)
    ) {
        let b = arb_bipartite(shape, nu, nv, density, seed);
        let sq = right_square(&b);
        let identity: Vec<usize> = (0..nv).collect();
        let (colors, max_degree) = greedy_right_square(&b);
        prop_assert_eq!(colors, greedy_sequential(&sq, &identity));
        prop_assert_eq!(max_degree, sq.max_degree());
    }

    #[test]
    fn stamped_greedy_matches_sort_dedup_greedy(
        (n, density, seed) in (0usize..40, 0u32..=100, 0u64..1_000_000)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, f64::from(density) / 100.0, &mut rng);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        prop_assert_eq!(greedy_sequential(&g, &order), sort_dedup_greedy(&g, &order));
    }
}

#[test]
fn degenerate_instances() {
    // no variables at all
    assert_eq!(greedy_right_square(&BipartiteGraph::new(3, 0)), (vec![], 0));
    // no constraints: every variable is isolated and takes color 0
    assert_eq!(
        greedy_right_square(&BipartiteGraph::new(0, 4)),
        (vec![0; 4], 0)
    );
    // K_{2,3}: the square is K_3
    assert_eq!(
        greedy_right_square(&generators::complete_bipartite(2, 3)),
        (vec![0, 1, 2], 2)
    );
}
