//! Property-based tests for the graph substrate itself.
//!
//! CI runs this file with `PROPTEST_CASES=2048` for a heavier sweep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::{
    bipartite_components, connected_components, generators, girth, power_graph, right_square,
    BipartiteGraph, Graph,
};
use std::collections::BTreeSet;

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..3 * n)
}

/// Reference model of `Graph::from_edges`: the rows as `BTreeSet`s, or
/// `None` when the list has an out-of-range endpoint, a self-loop or a
/// duplicate (in either orientation).
fn graph_model(n: usize, edges: &[(usize, usize)]) -> Option<Vec<BTreeSet<usize>>> {
    let mut rows = vec![BTreeSet::new(); n];
    for &(u, v) in edges {
        if u >= n || v >= n || u == v || !rows[u].insert(v) {
            return None;
        }
        rows[v].insert(u);
    }
    Some(rows)
}

/// Reference model of `BipartiteGraph::from_edges`: the left and right
/// rows as `BTreeSet`s, or `None` when the list has an out-of-range
/// endpoint or a duplicate.
type Sides = (Vec<BTreeSet<usize>>, Vec<BTreeSet<usize>>);
fn bipartite_model(left: usize, right: usize, edges: &[(usize, usize)]) -> Option<Sides> {
    let mut rows = (vec![BTreeSet::new(); left], vec![BTreeSet::new(); right]);
    for &(u, v) in edges {
        if u >= left || v >= right || !rows.0[u].insert(v) {
            return None;
        }
        rows.1[v].insert(u);
    }
    Some(rows)
}

/// The longest-kept sublist `accepts` takes edge by edge: each edge stays
/// if the list with it is still accepted. Orientation and order survive.
fn accepted_sublist(
    edges: &[(usize, usize)],
    accepts: impl Fn(&[(usize, usize)]) -> bool,
) -> Vec<(usize, usize)> {
    let mut kept = Vec::new();
    for &e in edges {
        kept.push(e);
        if !accepts(&kept) {
            kept.pop();
        }
    }
    kept
}

/// A simple graph on `n` nodes from the accepted sublist of a raw list.
fn simple_graph(n: usize, edges: &[(usize, usize)]) -> Graph {
    let kept = accepted_sublist(edges, |l| graph_model(n, l).is_some());
    Graph::from_edges(n, &kept).unwrap()
}

fn check_graph(n: usize, edges: &[(usize, usize)]) {
    let built = Graph::from_edges(n, edges);
    let Some(rows) = graph_model(n, edges) else {
        prop_assert!(built.is_err(), "accepted {:?}", edges);
        return;
    };
    let g = built.expect("the model accepts this list");
    prop_assert_eq!(g.node_count(), n);
    prop_assert_eq!(g.edge_count(), edges.len());
    for (u, row) in rows.iter().enumerate() {
        prop_assert!(g.neighbors(u).iter().eq(row), "row {}", u);
        prop_assert_eq!(g.degree(u), row.len());
        for v in 0..n + 2 {
            prop_assert_eq!(g.contains_edge(u, v), row.contains(&v));
        }
    }
}

fn check_bipartite(left: usize, right: usize, edges: &[(usize, usize)]) {
    let built = BipartiteGraph::from_edges(left, right, edges);
    let Some((lrows, rrows)) = bipartite_model(left, right, edges) else {
        prop_assert!(built.is_err(), "accepted {:?}", edges);
        return;
    };
    let b = built.expect("the model accepts this list");
    prop_assert_eq!((b.left_count(), b.right_count()), (left, right));
    prop_assert_eq!(b.edge_count(), edges.len());
    for (u, row) in lrows.iter().enumerate() {
        prop_assert!(b.left_neighbors(u).iter().eq(row), "left row {}", u);
        prop_assert_eq!(b.left_degree(u), row.len());
        for v in 0..right + 2 {
            prop_assert_eq!(b.contains_edge(u, v), row.contains(&v));
        }
    }
    for (v, row) in rrows.iter().enumerate() {
        prop_assert!(b.right_neighbors(v).iter().eq(row), "right row {}", v);
        prop_assert_eq!(b.right_degree(v), row.len());
    }
}

/// Seed `power_graph` semantics (depth-bounded BFS per node), kept as the
/// reference the bulk CSR implementation must reproduce exactly.
fn reference_power_graph(g: &Graph, k: usize) -> Graph {
    let n = g.node_count();
    let mut edges = Vec::new();
    if k == 0 {
        return Graph::new(n);
    }
    let mut dist = vec![usize::MAX; n];
    let mut touched = Vec::new();
    for v in 0..n {
        dist[v] = 0;
        touched.push(v);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(v);
        while let Some(x) = queue.pop_front() {
            if dist[x] == k {
                continue;
            }
            for &y in g.neighbors(x) {
                if dist[y] == usize::MAX {
                    dist[y] = dist[x] + 1;
                    touched.push(y);
                    queue.push_back(y);
                }
            }
        }
        edges.extend(touched.iter().filter(|&&w| w > v).map(|&w| (v, w)));
        for &w in &touched {
            dist[w] = usize::MAX;
        }
        touched.clear();
    }
    Graph::from_edges(n, &edges).expect("power graph edges are simple")
}

proptest! {
    #[test]
    fn from_edges_matches_reference_model(
        (n, right, raw, (pick, at)) in (
            1usize..=20,
            1usize..=20,
            prop::collection::vec((0..20usize, 0..20usize), 0..48),
            (0..60usize, 0..64usize),
        )
    ) {
        // raw (0..n, 0..n) lists carry self-loops and duplicates in both
        // orientations; their accepted sublists exercise `Ok`, and each
        // accepted sublist with one bad edge inserted exercises one error
        let insert = |list: &[(usize, usize)], bad: (usize, usize)| {
            let mut list = list.to_vec();
            list.insert(at % (list.len() + 1), bad);
            list
        };
        let edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
        check_graph(n, &edges);
        let kept = accepted_sublist(&edges, |l| graph_model(n, l).is_some());
        check_graph(n, &kept);
        let (x, k) = (pick % n, pick % 3);
        let mut bad = vec![(x, x), (x, n + k), (n + k, x)];
        if let Some(&(u, v)) = kept.get(pick % kept.len().max(1)) {
            bad.extend([(u, v), (v, u)]);
        }
        for e in bad {
            check_graph(n, &insert(&kept, e));
        }

        // the same lists read as `(left, right)` pairs over `0..n × 0..right`
        let left = n;
        let edges: Vec<(usize, usize)> = raw.iter().map(|&(u, v)| (u % left, v % right)).collect();
        check_bipartite(left, right, &edges);
        let kept = accepted_sublist(&edges, |l| bipartite_model(left, right, l).is_some());
        check_bipartite(left, right, &kept);
        let mut bad = vec![(left + k, pick % right), (pick % left, right + k)];
        bad.extend(kept.get(pick % kept.len().max(1)));
        for e in bad {
            check_bipartite(left, right, &insert(&kept, e));
        }
    }

    #[test]
    fn edges_iterator_matches_contains(edges in arb_edges(16)) {
        let g = simple_graph(16, &edges);
        let listed: Vec<(usize, usize)> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.edge_count());
        for &(u, v) in &listed {
            prop_assert!(u < v);
            prop_assert!(g.contains_edge(u, v));
            prop_assert!(g.contains_edge(v, u));
        }
    }

    #[test]
    fn components_cover_all_nodes(edges in arb_edges(24)) {
        let g = simple_graph(24, &edges);
        let cc = connected_components(&g);
        let sizes = cc.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), 24);
        // adjacent nodes share a component
        for (u, v) in g.edges() {
            prop_assert_eq!(cc.label(u), cc.label(v));
        }
    }

    #[test]
    fn power_graph_matches_seed_reference(
        (seed, k, p) in (0u64..200, 2usize..5, 1usize..4)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(28, 0.04 * p as f64, &mut rng);
        let fast = power_graph(&g, k);
        let reference = reference_power_graph(&g, k);
        prop_assert_eq!(&fast, &reference);
        for v in 0..28 {
            prop_assert_eq!(fast.neighbors(v), reference.neighbors(v));
        }
    }

    #[test]
    fn power_graph_is_monotone(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(18, 0.2, &mut rng);
        let p1 = power_graph(&g, 1);
        let p2 = power_graph(&g, 2);
        let p3 = power_graph(&g, 3);
        for (u, v) in p1.edges() {
            prop_assert!(p2.contains_edge(u, v));
        }
        for (u, v) in p2.edges() {
            prop_assert!(p3.contains_edge(u, v));
        }
    }

    #[test]
    fn right_square_links_exactly_the_covariables(
        (u, v, d, seed) in (4usize..16, 8usize..24, 2usize..6, 0u64..300)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = d.min(v);
        let b = generators::random_left_regular(u, v, d, &mut rng).unwrap();
        let sq = right_square(&b);
        // two variables adjacent in the square iff they share a constraint
        for x in 0..v {
            for y in x + 1..v {
                let share = (0..u).any(|c| {
                    b.left_neighbors(c).contains(&x) && b.left_neighbors(c).contains(&y)
                });
                prop_assert_eq!(sq.contains_edge(x, y), share, "pair ({}, {})", x, y);
            }
        }
    }

    #[test]
    fn doubling_preserves_degree_profile(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(20, 0.3, &mut rng);
        let b = generators::doubling_instance(&g);
        for w in 0..20 {
            prop_assert_eq!(b.left_degree(w), g.degree(w));
            prop_assert_eq!(b.right_degree(w), g.degree(w));
        }
    }

    #[test]
    fn biregular_generator_is_biregular(
        (u, dl, seed) in (2usize..20, 1usize..8, 0u64..300)
    ) {
        // choose a right side that divides the stubs evenly
        let stubs = u * dl;
        for v in (1..=stubs).rev() {
            if stubs % v == 0 && stubs / v <= u && dl <= v {
                let mut rng = StdRng::seed_from_u64(seed);
                if let Ok(b) = generators::random_biregular(u, v, dl, &mut rng) {
                    for x in 0..u {
                        prop_assert_eq!(b.left_degree(x), dl);
                    }
                    for y in 0..v {
                        prop_assert_eq!(b.right_degree(y), stubs / v);
                    }
                }
                break;
            }
        }
    }

    #[test]
    fn bipartite_component_edges_match_original(
        (u, v, seed) in (3usize..15, 3usize..20, 0u64..300)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::erdos_renyi_bipartite(u, v, 0.15, &mut rng);
        let comps = bipartite_components(&b);
        for comp in &comps {
            for (lu, lv) in comp.graph.edges() {
                let orig_u = comp.original_left[lu];
                let orig_v = comp.original_right[lv];
                prop_assert!(b.contains_edge(orig_u, orig_v));
            }
        }
    }

    #[test]
    fn girth_never_below_three(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(15, 0.3, &mut rng);
        if let Some(girth) = girth(&g) {
            prop_assert!(girth >= 3);
            prop_assert!(girth <= 15);
        }
    }

    #[test]
    fn incidence_instance_always_rank_two(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(15, 0.3, &mut rng);
        let (b, edges) = generators::incidence_instance(&g);
        prop_assert_eq!(edges.len(), g.edge_count());
        if g.edge_count() > 0 {
            prop_assert_eq!(b.rank(), 2);
        }
        for u in 0..15 {
            prop_assert_eq!(b.left_degree(u), g.degree(u));
        }
    }
}

#[test]
fn bipartite_graph_default_is_empty() {
    let b = BipartiteGraph::default();
    assert_eq!(b.node_count(), 0);
    assert_eq!(b.edge_count(), 0);
}
