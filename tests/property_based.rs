//! Property-based tests (proptest) over the core data structures and
//! algorithm invariants.

use degree_split::{eulerian_orientation, walk_splitting, DegreeSplitter, Engine, Flavor};
use distributed_splitting::core;
use distributed_splitting::splitgraph::{
    bipartite_components, checks, generators, BipartiteGraph, Graph, MultiGraph,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random simple graph from an edge-probability model.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, 0u64..1000).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(n, 0.3, &mut rng)
    })
}

/// Strategy: a random multigraph (parallel edges allowed).
fn arb_multigraph() -> impl Strategy<Value = MultiGraph> {
    (2usize..30, 1usize..120, 0u64..1000).prop_map(|(n, m, seed)| {
        use rand::RngExt;
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
    })
}

/// Strategy: a random bipartite instance with decent left degrees.
fn arb_bipartite() -> impl Strategy<Value = BipartiteGraph> {
    (8usize..40, 16usize..60, 4usize..12, 0u64..1000).prop_map(|(u, v, d, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = d.min(v);
        generators::random_left_regular(u, v, d, &mut rng).expect("d ≤ v")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eulerian_orientation_meets_parity_bound(g in arb_multigraph()) {
        let o = eulerian_orientation(&g);
        for v in 0..g.node_count() {
            prop_assert!(o.discrepancy(&g, v) <= g.degree(v) % 2 );
        }
    }

    #[test]
    fn walk_engine_orients_every_edge(g in arb_multigraph()) {
        let out = walk_splitting(&g, 0.25);
        prop_assert_eq!(out.orientation.edge_count(), g.edge_count());
        // in/out degrees are consistent with the handshake identity
        let total_out: usize =
            (0..g.node_count()).map(|v| out.orientation.out_degree(&g, v)).sum();
        prop_assert_eq!(total_out, g.edge_count());
    }

    #[test]
    fn oracle_splitter_always_meets_contract(g in arb_multigraph()) {
        let s = DegreeSplitter::new(0.1, Engine::EulerianOracle, Flavor::Deterministic);
        let r = s.split(&g, g.node_count());
        prop_assert!(s.contract_violations(&g, &r.orientation).is_empty());
    }

    #[test]
    fn components_partition_the_bipartite_instance(b in arb_bipartite()) {
        // the components partition the edges and the nodes with an edge;
        // every node in no component is isolated
        let comps = bipartite_components(&b);
        let mut left_seen = vec![false; b.left_count()];
        let mut right_seen = vec![false; b.right_count()];
        for c in &comps {
            prop_assert!(c.graph.edge_count() > 0);
            for &u in &c.original_left {
                prop_assert!(!std::mem::replace(&mut left_seen[u], true));
            }
            for &v in &c.original_right {
                prop_assert!(!std::mem::replace(&mut right_seen[v], true));
            }
        }
        for (u, &seen) in left_seen.iter().enumerate() {
            prop_assert_eq!(seen, b.left_degree(u) > 0);
        }
        for (v, &seen) in right_seen.iter().enumerate() {
            prop_assert_eq!(seen, b.right_degree(v) > 0);
        }
        let edges: usize = comps.iter().map(|c| c.graph.edge_count()).sum();
        prop_assert_eq!(edges, b.edge_count());
    }

    #[test]
    fn drr2_never_orphans_variables(b in arb_bipartite()) {
        let eps = 1.0 / (10.0 * b.max_left_degree().max(1) as f64);
        let s = DegreeSplitter::new(eps, Engine::EulerianOracle, Flavor::Deterministic);
        let k = splitgraph_ceil_log2(b.rank().max(1));
        let red = core::degree_rank_reduction_ii(&b, &s, k);
        prop_assert!(red.graph.rank() <= 1);
        for v in 0..red.graph.right_count() {
            // variables that started with edges keep at least one
            if b.right_degree(v) >= 1 {
                prop_assert!(red.graph.right_degree(v) >= 1);
            }
        }
    }

    #[test]
    fn conditional_expectation_fix_valid_when_phi_below_one(b in arb_bipartite()) {
        use derand::{sequential_fix, ColoringEstimator};
        let est = ColoringEstimator::monochromatic(&b);
        let order: Vec<usize> = (0..b.right_count()).collect();
        let out = sequential_fix(&b, est, &order);
        if out.initial_phi < 1.0 {
            let colors = core::to_two_coloring(&out.colors);
            prop_assert!(checks::is_weak_splitting(&b, &colors, 0));
        }
    }

    #[test]
    fn shattering_preserves_quarter_uncolored(b in arb_bipartite()) {
        let sh = core::shatter(&b, 99);
        for u in 0..b.left_count() {
            let uncolored = b
                .left_neighbors(u)
                .iter()
                .filter(|&&v| sh.colors[v].is_none())
                .count();
            prop_assert!(4 * uncolored >= b.left_degree(u));
        }
    }

    #[test]
    fn truncation_never_breaks_weak_splittings(b in arb_bipartite()) {
        // any valid splitting of a truncated instance remains valid on the
        // full instance restricted to the same threshold
        let h = core::truncate_left_degrees(&b, 4);
        use derand::{sequential_fix, ColoringEstimator};
        let est = ColoringEstimator::monochromatic(&h);
        let order: Vec<usize> = (0..h.right_count()).collect();
        let out = sequential_fix(&h, est, &order);
        if out.initial_phi < 1.0 {
            let colors = core::to_two_coloring(&out.colors);
            prop_assert!(checks::is_weak_splitting(&h, &colors, 0));
            prop_assert!(checks::is_weak_splitting(&b, &colors, 0));
        }
    }

    #[test]
    fn sinkless_reduction_preserves_validity(
        (n, d, seed) in (20usize..80, 5usize..10, 0u64..200)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = if (n * d) % 2 == 1 { d + 1 } else { d };
        if let Ok(g) = generators::random_regular(n, d, &mut rng) {
            let ids: Vec<u64> = (0..n as u64).collect();
            if let Ok(red) = core::sinkless_via_weak_splitting(&g, &ids, seed) {
                prop_assert!(checks::is_sinkless(&g, &red.orientation, 1));
            }
        }
    }

    #[test]
    fn girth_of_incidence_doubles(g in arb_graph()) {
        use distributed_splitting::splitgraph::{bipartite_girth, girth};
        let (b, _) = generators::incidence_instance(&g);
        match (girth(&g), bipartite_girth(&b)) {
            (Some(host), Some(inc)) => prop_assert_eq!(inc, 2 * host),
            (None, None) => {}
            (host, inc) => prop_assert!(
                false, "girth mismatch: host {:?}, incidence {:?}", host, inc
            ),
        }
    }
}

fn splitgraph_ceil_log2(x: usize) -> usize {
    distributed_splitting::splitgraph::math::ceil_log2(x) as usize
}
