//! Property-based tests for the graph substrate itself.
//!
//! CI runs this file with `PROPTEST_CASES=2048` for a heavier sweep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::{
    bipartite_components, connected_components, generators, girth, power_graph, right_square,
    BipartiteGraph, EdgeDelta, Graph, GraphError,
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
    fn to_graph_matches_the_shifted_edge_list(
        (left, right, raw) in (
            0usize..=12,
            0usize..=12,
            prop::collection::vec((0..12usize, 0..12usize), 0..48),
        )
    ) {
        // the row-copy host graph equals the one built from the edge list
        // with right nodes shifted past the left side, rows and offsets alike
        let edges: Vec<(usize, usize)> = raw
            .iter()
            .filter(|&&(u, v)| u < left && v < right)
            .copied()
            .collect();
        let kept = accepted_sublist(&edges, |l| bipartite_model(left, right, l).is_some());
        let b = BipartiteGraph::from_edges(left, right, &kept).expect("accepted sublist");
        let shifted: Vec<(usize, usize)> = kept.iter().map(|&(u, v)| (u, left + v)).collect();
        let g = Graph::from_edges(left + right, &shifted).expect("bipartite edges are simple");
        prop_assert_eq!(b.to_graph(), g);
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

/// The arena model: a bipartite graph as one `BTreeSet` row per left node.
struct RowModel {
    right: usize,
    rows: Vec<BTreeSet<usize>>,
}

impl RowModel {
    fn edges(&self) -> Vec<(usize, usize)> {
        let rows = self.rows.iter().enumerate();
        rows.flat_map(|(u, row)| row.iter().map(move |&v| (u, v)))
            .collect()
    }

    fn contains(&self, (u, v): (usize, usize)) -> bool {
        self.rows[u].contains(&v)
    }

    /// The first `k` pairs of `0..left × 0..right`, read cyclically from
    /// `from`, that are present (`present`) or absent in the model.
    fn pick(&self, from: usize, k: usize, present: bool) -> Vec<(usize, usize)> {
        let total = self.rows.len() * self.right;
        (0..total)
            .map(|i| {
                (
                    (from + i) % total / self.right,
                    (from + i) % total % self.right,
                )
            })
            .filter(|&e| self.contains(e) == present)
            .take(k)
            .collect()
    }
}

/// Every read of `b` against the model, and `b` against a fresh build of
/// the model's edge set, which is tight where `b` may hold relocated rows,
/// room and dead slots.
fn check_against_model(b: &BipartiteGraph, m: &RowModel) {
    let (left, right) = (m.rows.len(), m.right);
    let edges = m.edges();
    let mut cols = vec![Vec::new(); right];
    for &(u, v) in &edges {
        cols[v].push(u);
    }
    prop_assert_eq!((b.left_count(), b.right_count()), (left, right));
    prop_assert_eq!(b.edge_count(), edges.len());
    for (u, row) in m.rows.iter().enumerate() {
        prop_assert!(b.left_neighbors(u).iter().eq(row), "left row {}", u);
        prop_assert_eq!(b.left_degree(u), row.len());
    }
    for (v, col) in cols.iter().enumerate() {
        prop_assert_eq!(b.right_neighbors(v), col.as_slice(), "right row {}", v);
        prop_assert_eq!(b.right_degree(v), col.len());
    }
    let lens = m.rows.iter().map(BTreeSet::len);
    prop_assert_eq!(b.min_left_degree(), lens.clone().min().unwrap_or(0));
    prop_assert_eq!(b.max_left_degree(), lens.max().unwrap_or(0));
    prop_assert_eq!(b.rank(), cols.iter().map(Vec::len).max().unwrap_or(0));
    prop_assert_eq!(
        b.min_right_degree(),
        cols.iter().map(Vec::len).min().unwrap_or(0)
    );
    prop_assert_eq!(b.edges().collect::<Vec<_>>(), edges.clone());
    let shifted: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (u, left + v)).collect();
    prop_assert_eq!(
        b.to_graph(),
        Graph::from_edges(left + right, &shifted).unwrap()
    );
    let fresh = BipartiteGraph::from_edges(left, right, &edges).unwrap();
    prop_assert_eq!(b, &fresh);
    prop_assert_eq!(&fresh, b);
    prop_assert_eq!(&b.clone(), b);
}

proptest! {
    #[test]
    fn arena_edits_match_a_row_model(
        (left, right, tight, start, ops) in (
            1usize..=8,
            1usize..=10,
            0..2u8,
            prop::collection::vec((0..8usize, 0..10usize), 0..40),
            prop::collection::vec((0..8u8, 0..10usize, 0..12usize), 0..64),
        )
    ) {
        // rows start tight (`from_edges`) or empty (`new`); inserts move
        // full rows to the arena's tail, deletes leave room behind, and a
        // side is packed once its dead slots outnumber its live targets, so
        // long op lists cross relocations and compactions alike
        let mut m = RowModel { right, rows: vec![BTreeSet::new(); left] };
        let mut b = if tight == 1 {
            let edges: Vec<(usize, usize)> = start.iter().map(|&(u, v)| (u % left, v % right)).collect();
            let kept = accepted_sublist(&edges, |l| bipartite_model(left, right, l).is_some());
            for &(u, v) in &kept {
                m.rows[u].insert(v);
            }
            BipartiteGraph::from_edges(left, right, &kept).unwrap()
        } else {
            BipartiteGraph::new(left, right)
        };
        check_against_model(&b, &m);
        for (kind, x, y) in ops {
            let (u, v) = (x % left, y % right);
            match kind {
                // inserts outnumber deletes, so rows grow past their room
                0..=2 => {
                    let got = b.add_edge(u, v);
                    if m.rows[u].insert(v) {
                        prop_assert_eq!(got, Ok(()));
                    } else {
                        prop_assert_eq!(got, Err(GraphError::DuplicateEdge { u, v }));
                    }
                }
                3 | 4 => prop_assert_eq!(b.remove_edge(u, v), m.rows[u].remove(&v)),
                5 => {
                    // out of range on either side: rejected, nothing moves
                    prop_assert!(b.add_edge(left + x, v).is_err());
                    prop_assert!(b.add_edge(u, right + y).is_err());
                    prop_assert!(!b.remove_edge(left + x, v));
                }
                _ => {
                    // a batch of up to 3 inserts and 3 deletes; kind 7
                    // applies its inverse straight after
                    let from = x * right + y;
                    let inserts = m.pick(from, 1 + y % 3, false);
                    let deletes = m.pick(from, 1 + x % 3, true);
                    let delta = EdgeDelta::new(&b, &inserts, &deletes).unwrap();
                    delta.apply(&mut b).unwrap();
                    if kind == 7 {
                        delta.inverse().apply(&mut b).unwrap();
                    } else {
                        for &(u, v) in &inserts {
                            m.rows[u].insert(v);
                        }
                        for &(u, v) in &deletes {
                            m.rows[u].remove(&v);
                        }
                    }
                }
            }
            check_against_model(&b, &m);
        }
    }
}
