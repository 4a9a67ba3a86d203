//! Theorem 1.2's preprocessing and shattering, pinned against the
//! formulations they replaced:
//!
//! * [`uniformize_left_degrees`] equals the per-edge rebuild through
//!   `BipartiteGraph::from_edges` (graph and origin map), for constraint
//!   degrees below, at and above `2·target`;
//! * [`bipartite_components`] equals a bulk build of every component that
//!   holds an edge, isolated nodes omitted;
//! * [`shatter`] on Theorem 1.2's wire shape (400 × 1800, δ = 18) keeps the
//!   colours, satisfied flags, residual edges, rounds and messages it had
//!   when the executor still sorted every round's messages.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use splitgraph::{bipartite_components, generators, BipartiteComponent, BipartiteGraph, Color};
use splitting_core::{shatter, uniformize_left_degrees, ShatterOutcome, VirtualSplit};
use std::borrow::Cow;

/// The uniformization as first written: every constraint re-emitted in
/// parts and the whole graph rebuilt edge by edge.
fn reference_uniformize(b: &BipartiteGraph, target: usize) -> VirtualSplit<'static> {
    let mut origin = Vec::new();
    let mut edges = Vec::new();
    for u in 0..b.left_count() {
        let nbrs = b.left_neighbors(u);
        let d = nbrs.len();
        let parts = (d / target).max(1);
        let (base, extra) = (d / parts, d % parts);
        let mut offset = 0;
        for p in 0..parts {
            let size = base + usize::from(p < extra);
            let vid = origin.len();
            origin.push(u);
            edges.extend(nbrs[offset..offset + size].iter().map(|&v| (vid, v)));
            offset += size;
        }
    }
    let graph = BipartiteGraph::from_edges(origin.len(), b.right_count(), &edges).unwrap();
    VirtualSplit {
        graph: Cow::Owned(graph),
        origin,
    }
}

/// The component split as first written: one bulk build per component,
/// then the edgeless ones (isolated nodes) dropped.
fn reference_components(b: &BipartiteGraph) -> Vec<BipartiteComponent> {
    let shift = b.left_count();
    let cc = splitgraph::connected_components(&b.to_graph());
    let mut comps: Vec<BipartiteComponent> = (0..cc.count())
        .map(|_| BipartiteComponent {
            graph: BipartiteGraph::default(),
            original_left: Vec::new(),
            original_right: Vec::new(),
        })
        .collect();
    let mut local = vec![0; b.node_count()];
    for (v, slot) in local.iter_mut().enumerate() {
        let comp = &mut comps[cc.label(v)];
        if v < shift {
            *slot = comp.original_left.len();
            comp.original_left.push(v);
        } else {
            *slot = comp.original_right.len();
            comp.original_right.push(v - shift);
        }
    }
    for comp in &mut comps {
        let edges: Vec<(usize, usize)> = comp
            .original_left
            .iter()
            .enumerate()
            .flat_map(|(i, &u)| b.left_neighbors(u).iter().map(move |&v| (i, v)))
            .map(|(i, v)| (i, local[shift + v]))
            .collect();
        comp.graph =
            BipartiteGraph::from_edges(comp.original_left.len(), comp.original_right.len(), &edges)
                .unwrap();
    }
    comps.retain(|comp| comp.graph.edge_count() > 0);
    comps
}

/// A bipartite graph whose constraint degrees scatter over `0..=max_deg`
/// (clamped to `nv`), with isolated nodes on both sides likely.
fn arb_bipartite(nu: usize, nv: usize, max_deg: usize, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vars: Vec<usize> = (0..nv).collect();
    let mut edges = Vec::new();
    for u in 0..nu {
        let d = rng.random_range(0..=max_deg.min(nv));
        vars.shuffle(&mut rng);
        edges.extend(vars[..d].iter().map(|&v| (u, v)));
    }
    BipartiteGraph::from_edges(nu, nv, &edges).unwrap()
}

fn assert_same_components(b: &BipartiteGraph) {
    let (got, want) = (bipartite_components(b), reference_components(b));
    assert_eq!(got.len(), want.len());
    for (c, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.graph, w.graph, "component {c}: graph");
        assert_eq!(g.original_left, w.original_left, "component {c}: left map");
        assert_eq!(
            g.original_right, w.original_right,
            "component {c}: right map"
        );
    }
}

proptest! {
    #[test]
    fn uniformization_matches_the_per_edge_rebuild(
        (nu, nv, max_deg, target, seed) in (0usize..10, 0usize..40, 0usize..40, 1usize..8, 0u64..1_000_000)
    ) {
        let b = arb_bipartite(nu, nv, max_deg, seed);
        let (got, want) = (uniformize_left_degrees(&b, target), reference_uniformize(&b, target));
        prop_assert_eq!(got.graph, want.graph);
        prop_assert_eq!(got.origin, want.origin);
    }

    #[test]
    fn components_match_a_bulk_build_of_each(
        (nu, nv, max_deg, seed) in (0usize..12, 0usize..30, 0usize..4, 0u64..1_000_000)
    ) {
        assert_same_components(&arb_bipartite(nu, nv, max_deg, seed));
    }
}

#[test]
fn uniformization_at_the_split_threshold() {
    // target 4: degrees 3 and 7 stay whole, 8 (= 2·target) splits in two,
    // 13 splits in three; a lone constraint of degree 7 takes the no-split
    // path, which must still match the rebuild
    let degrees = [3usize, 7, 8, 13];
    let edges: Vec<(usize, usize)> = degrees
        .iter()
        .enumerate()
        .flat_map(|(u, &d)| (0..d).map(move |v| (u, (5 * u + 3 * v) % 16)))
        .collect();
    let b = BipartiteGraph::from_edges(4, 16, &edges).unwrap();
    let vs = uniformize_left_degrees(&b, 4);
    assert_eq!(vs.origin, vec![0, 1, 2, 2, 3, 3, 3]);
    let want = reference_uniformize(&b, 4);
    assert_eq!((vs.graph, vs.origin), (want.graph, want.origin));
    let lone = generators::complete_bipartite(1, 7);
    let vs = uniformize_left_degrees(&lone, 4);
    let want = reference_uniformize(&lone, 4);
    assert_eq!((vs.graph, vs.origin), (want.graph, want.origin));
}

#[test]
fn components_of_a_shattered_residual() {
    // the residual keeps every node, so most of its nodes are isolated,
    // and none of them may form a component
    let mut rng = StdRng::seed_from_u64(9);
    let b = generators::random_biregular(120, 540, 18, &mut rng).unwrap();
    let residual = shatter(&b, 4).residual;
    assert_same_components(&residual);
    let comps = bipartite_components(&residual);
    assert!(!comps.is_empty());
    assert!(comps.iter().all(|c| c.graph.edge_count() > 0));
    let isolated = (0..residual.right_count())
        .filter(|&v| residual.right_degree(v) == 0)
        .count();
    let covered: usize = comps.iter().map(|c| c.original_right.len()).sum();
    assert!(isolated > 0);
    assert_eq!(covered + isolated, residual.right_count());
}

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Colours (hash, coloured count), satisfied flags (hash, count), residual
/// edges (hash, count), rounds and messages of one shattering run.
fn digest(out: &ShatterOutcome) -> [u64; 8] {
    let color = |c: &Option<Color>| match c {
        None => 0,
        Some(Color::Red) => 1,
        Some(Color::Blue) => 2,
    };
    [
        fnv(out.colors.iter().map(color)),
        out.colors.iter().filter(|c| c.is_some()).count() as u64,
        fnv(out.satisfied.iter().map(|&s| u64::from(s))),
        out.satisfied.iter().filter(|&&s| s).count() as u64,
        fnv(out.residual.edges().flat_map(|(u, v)| [u as u64, v as u64])),
        out.residual.edge_count() as u64,
        out.rounds as u64,
        out.messages as u64,
    ]
}

#[test]
fn shattering_outcomes_on_the_wire_shape_are_pinned() {
    // recorded with the sorting executor and the per-edge uniformization
    const EXPECTED: [(u64, [u64; 8]); 4] = [
        (
            0x1,
            [
                0x8ce4950c23017404,
                811,
                0x3644a12e70f8fc25,
                384,
                0xfc8f6e76a718d742,
                237,
                3,
                14544,
            ],
        ),
        (
            0x2,
            [
                0x508037f13160b2a7,
                809,
                0x90a9c3cbb54b8e04,
                389,
                0xca084c90f20831d1,
                178,
                3,
                14508,
            ],
        ),
        (
            0x3,
            [
                0xdf0b2c7d8c0d1385,
                740,
                0x33f301a12e3333e4,
                381,
                0x6f94f81b2d72a705,
                297,
                3,
                14598,
            ],
        ),
        (
            0x5eed,
            [
                0x68340240970db386,
                854,
                0xa9d5f8fb7fe10204,
                387,
                0xc2ec263ee6ffcf28,
                205,
                3,
                14526,
            ],
        ),
    ];
    let mut rng = StdRng::seed_from_u64(1);
    let b = generators::random_biregular(400, 1800, 18, &mut rng).unwrap();
    let work = uniformize_left_degrees(&b, b.min_left_degree()).graph;
    assert!(
        matches!(work, Cow::Borrowed(g) if std::ptr::eq(g, &b)),
        "a left-regular instance is its own uniformization"
    );
    for (seed, want) in EXPECTED {
        assert_eq!(digest(&shatter(&work, seed)), want, "seed {seed:#x}");
    }
}
