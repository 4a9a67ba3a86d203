//! Parity proptest for the walk engines: [`walk_splitting`] (directed) and
//! [`edge_splitting_walk`] (undirected) share one segmentation of the
//! pairing walks, and each must equal, bit for bit, the stand-alone engine
//! it replaced — kept here as the reference. Over random loop-free
//! multigraphs (empty, with isolated nodes, odd degrees and closed cycles)
//! and accuracies in `(0, 1]`, the orientation, the colours, the segment
//! count and every ledger entry (label, rounds bits, kind) must agree.
//!
//! CI runs this file with `PROPTEST_CASES=2048` for a heavier sweep.

use degree_split::{edge_splitting_walk, walk_splitting, WalkDecomposition};
use local_coloring::{cole_vishkin_3color, spaced_ruling_set};
use local_runtime::RoundLedger;
use proptest::prelude::*;
use splitgraph::{Color, MultiGraph, Orientation};

/// The directed walk engine as a stand-alone function: segments cut at
/// the ruling set and at open-walk heads, each oriented along or against
/// its walk by the parity of its smallest edge id.
fn reference_walk_splitting(g: &MultiGraph, eps: f64) -> (Orientation, RoundLedger, usize) {
    assert!(eps > 0.0 && eps <= 1.0, "accuracy must lie in (0, 1]");
    let spacing = (1.0 / eps).ceil() as usize;
    let mut ledger = RoundLedger::new();
    if g.edge_count() == 0 {
        ledger.add_measured("walk engine (empty graph)", 0.0);
        return (Orientation::new(vec![]), ledger, 0);
    }
    let walks = WalkDecomposition::from_pairing(g);
    let ids: Vec<u64> = (0..g.edge_count() as u64).collect();
    let coloring = cole_vishkin_3color(&walks.chains, &ids);
    ledger.add_measured(
        "cole-vishkin 3-coloring (host rounds)",
        2.0 * coloring.rounds as f64,
    );
    let cuts = spaced_ruling_set(&walks.chains, &coloring.colors, spacing);
    ledger.add_measured("spaced ruling set (host rounds)", 2.0 * cuts.rounds as f64);
    let mut towards_second = vec![false; g.edge_count()];
    let mut assigned = vec![false; g.edge_count()];
    let mut segments = 0usize;
    let mut max_segment = 0usize;
    for start in 0..g.edge_count() {
        let is_start = cuts.cut[start] || walks.chains.prev(start).is_none();
        if !is_start || assigned[start] {
            continue;
        }
        let mut seg = vec![start];
        let mut cur = start;
        while let Some(nx) = walks.chains.next(cur) {
            if cuts.cut[nx] || nx == start || assigned[nx] {
                break;
            }
            seg.push(nx);
            cur = nx;
        }
        let forward = seg.iter().min().expect("segment nonempty") % 2 == 0;
        for &e in &seg {
            assigned[e] = true;
            let (tail, _) = walks.direction[e];
            let (a, _) = g.endpoints(e);
            let along_walk = tail == a;
            towards_second[e] = if forward { along_walk } else { !along_walk };
        }
        segments += 1;
        max_segment = max_segment.max(seg.len());
    }
    debug_assert!(
        assigned.iter().all(|&x| x),
        "every edge must belong to a segment"
    );
    ledger.add_measured(
        "segment orientation (host rounds)",
        2.0 * max_segment.max(1) as f64,
    );
    (Orientation::new(towards_second), ledger, segments)
}

/// The undirected walk engine as a stand-alone function: colours
/// alternate along each segment, starting red.
fn reference_edge_splitting_walk(g: &MultiGraph, eps: f64) -> (Vec<Color>, RoundLedger) {
    assert!(eps > 0.0 && eps <= 1.0, "accuracy must lie in (0, 1]");
    let spacing = (1.0 / eps).ceil() as usize;
    let mut ledger = RoundLedger::new();
    if g.edge_count() == 0 {
        ledger.add_measured("walk edge splitting (empty graph)", 0.0);
        return (vec![], ledger);
    }
    let walks = WalkDecomposition::from_pairing(g);
    let ids: Vec<u64> = (0..g.edge_count() as u64).collect();
    let coloring = cole_vishkin_3color(&walks.chains, &ids);
    ledger.add_measured(
        "cole-vishkin 3-coloring (host rounds)",
        2.0 * coloring.rounds as f64,
    );
    let cuts = spaced_ruling_set(&walks.chains, &coloring.colors, spacing);
    ledger.add_measured("spaced ruling set (host rounds)", 2.0 * cuts.rounds as f64);
    let mut colors = vec![Color::Red; g.edge_count()];
    let mut assigned = vec![false; g.edge_count()];
    let mut max_segment = 0usize;
    for start in 0..g.edge_count() {
        let is_start = cuts.cut[start] || walks.chains.prev(start).is_none();
        if !is_start || assigned[start] {
            continue;
        }
        let mut cur = start;
        let mut len = 0usize;
        let mut flip = Color::Red;
        loop {
            assigned[cur] = true;
            colors[cur] = flip;
            flip = flip.flipped();
            len += 1;
            match walks.chains.next(cur) {
                Some(nx) if !cuts.cut[nx] && nx != start && !assigned[nx] => cur = nx,
                _ => break,
            }
        }
        max_segment = max_segment.max(len);
    }
    debug_assert!(assigned.iter().all(|&x| x), "every edge must be colored");
    ledger.add_measured(
        "segment alternation (host rounds)",
        2.0 * max_segment.max(1) as f64,
    );
    (colors, ledger)
}

/// A ledger as comparable data: label, rounds bits and kind per entry.
fn entries(ledger: &RoundLedger) -> Vec<(String, u64, String)> {
    ledger
        .entries()
        .iter()
        .map(|e| (e.label.clone(), e.rounds.to_bits(), e.kind.to_string()))
        .collect()
}

/// A loop-free multigraph on `n < 14` nodes, then an accuracy in
/// `(0, 1]`. The graph has random edges (parallel ones included, so
/// degrees come out odd and even), then a closed cycle through the first
/// `cycle` nodes (two parallel edges when `cycle` is 2); `n < 2` or an
/// empty edge list leave nodes isolated or the graph empty. The accuracy
/// is an exact reciprocal `1/k` (spacing `k`) or `x/1000`, whose spacing
/// rounds up.
fn case() -> impl Strategy<Value = (MultiGraph, f64)> {
    (
        0usize..14,
        prop::collection::vec((0usize..14, 0usize..13), 0..60),
        0usize..9,
        (0u32..2, 1u32..=24, 1u32..=1000),
    )
        .prop_map(|(n, pairs, cycle, (exact, k, x))| {
            let mut g = MultiGraph::new(n);
            if n >= 2 {
                for (a, b) in pairs {
                    let a = a % n;
                    g.add_edge(a, (a + 1 + b % (n - 1)) % n);
                }
                let k = cycle.min(n);
                if k >= 2 {
                    for i in 0..k {
                        g.add_edge(i, (i + 1) % k);
                    }
                }
            }
            let eps = if exact == 1 {
                1.0 / f64::from(k)
            } else {
                f64::from(x) / 1000.0
            };
            (g, eps)
        })
}

proptest! {
    #[test]
    fn walk_engines_match_their_stand_alone_references((g, eps) in case()) {
        let directed = walk_splitting(&g, eps);
        let (orientation, ledger, segments) = reference_walk_splitting(&g, eps);
        prop_assert_eq!(&directed.orientation, &orientation);
        prop_assert_eq!(directed.segments, segments);
        prop_assert_eq!(entries(&directed.ledger), entries(&ledger));

        let undirected = edge_splitting_walk(&g, eps);
        let (colors, ledger) = reference_edge_splitting_walk(&g, eps);
        prop_assert_eq!(&undirected.colors, &colors);
        prop_assert_eq!(entries(&undirected.ledger), entries(&ledger));
    }
}
