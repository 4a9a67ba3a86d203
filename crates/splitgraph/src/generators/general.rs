//! Generators for simple graphs: deterministic families and random models.

use crate::error::GraphError;
use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// The cycle `C_n`.
///
/// # Errors
///
/// Returns an error if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("cycle needs n >= 3, got {n}"),
        });
    }
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Ok(Graph::from_edges(n, &edges).expect("cycle edges are simple"))
}

/// The path `P_n` on `n` nodes.
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges).expect("path edges are simple")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in u + 1..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).expect("complete graph edges are simple")
}

/// The `d`-dimensional hypercube (`2^d` nodes, degree `d`).
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut edges = Vec::with_capacity(n * d as usize / 2);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if w > v {
                edges.push((v, w));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("hypercube edges are simple")
}

/// The `rows × cols` torus (wrap-around grid): 4-regular for
/// `rows, cols ≥ 3`, a standard benchmark topology for LOCAL algorithms.
///
/// # Errors
///
/// Returns an error if either dimension is below 3 (smaller wraps would
/// create parallel edges).
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("torus needs both dimensions ≥ 3, got {rows}×{cols}"),
        });
    }
    let mut edges = Vec::with_capacity(2 * rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            edges.push((id(r, c), id((r + 1) % rows, c)));
            edges.push((id(r, c), id(r, (c + 1) % cols)));
        }
    }
    Ok(Graph::from_edges(rows * cols, &edges).expect("torus edges are simple"))
}

/// Erdős–Rényi graph `G(n, p)`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_bool(p.clamp(0.0, 1.0)) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("fresh pairs are simple")
}

/// Random `d`-regular simple graph via the configuration model with
/// local edge-swap repair of self-loops and duplicates.
///
/// # Errors
///
/// Returns an error if `n·d` is odd, `d ≥ n`, or repair fails repeatedly
/// (only plausible for extreme parameters such as `d = n − 1`).
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        // the empty graph is vacuously 0-regular for d = 0
        return if d == 0 {
            Ok(Graph::new(0))
        } else {
            Err(GraphError::InfeasibleDegrees {
                reason: format!("degree {d} requested on an empty node set"),
            })
        };
    }
    if d >= n {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("degree {d} must be smaller than node count {n}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("n*d = {} must be even", n * d),
        });
    }
    const ATTEMPTS: usize = 200;
    for _ in 0..ATTEMPTS {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(rng);
        let mut pairs: Vec<(usize, usize)> = stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        if repair_pairing(&mut pairs, rng) {
            let g = Graph::from_edges(n, &pairs).expect("repaired pairing is simple");
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed {
        reason: format!("random {d}-regular graph on {n} nodes: repair attempts exhausted"),
    })
}

/// Repairs a stub pairing in place by swapping the second stubs of offending
/// pairs with random partners until the pairing is a simple graph; returns
/// false if it gives up. Each pass fixes a bad pair with probability
/// `1 − O(d/n)`, so a few passes suffice away from the complete-graph regime.
fn repair_pairing<R: Rng + ?Sized>(pairs: &mut [(usize, usize)], rng: &mut R) -> bool {
    use std::collections::HashSet;
    let key = |u: usize, v: usize| (u.min(v), u.max(v));
    const PASSES: usize = 500;
    for _ in 0..PASSES {
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if u == v || !seen.insert(key(u, v)) {
                bad.push(i);
            }
        }
        if bad.is_empty() {
            return true;
        }
        for &i in &bad {
            let j = rng.random_range(0..pairs.len());
            let tmp = pairs[i].1;
            pairs[i].1 = pairs[j].1;
            pairs[j].1 = tmp;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_and_path() {
        let c = cycle(5).unwrap();
        assert_eq!(c.edge_count(), 5);
        assert!(c.neighbors(0).contains(&4));
        assert!(cycle(2).is_err());
        let p = path(4);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(1), 2);
    }

    #[test]
    fn complete_graph_degrees() {
        let k = complete(6);
        assert_eq!(k.edge_count(), 15);
        assert_eq!(k.min_degree(), 5);
    }

    #[test]
    fn hypercube_structure() {
        let h = hypercube(4);
        assert_eq!(h.node_count(), 16);
        assert_eq!(h.max_degree(), 4);
        assert_eq!(h.min_degree(), 4);
        assert_eq!(h.edge_count(), 32);
    }

    #[test]
    fn torus_is_4_regular() {
        let t = torus(4, 5).unwrap();
        assert_eq!(t.node_count(), 20);
        assert_eq!(t.edge_count(), 40);
        for v in 0..20 {
            assert_eq!(t.degree(v), 4);
        }
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        let g0 = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(g0.edge_count(), 0);
        let g1 = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(g1.edge_count(), 45);
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(n, d) in &[(10, 3), (50, 4), (64, 7), (100, 16)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.node_count(), n);
            for v in 0..n {
                assert_eq!(g.degree(v), d, "node {v} in {n}-node {d}-regular graph");
            }
        }
    }

    #[test]
    fn random_regular_rejects_infeasible() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
        assert!(random_regular(4, 4, &mut rng).is_err()); // d >= n
    }

    #[test]
    fn hypercube_trivial_dimensions() {
        // d = 0: the single-node graph, no edges
        let h0 = hypercube(0);
        assert_eq!(h0.node_count(), 1);
        assert_eq!(h0.edge_count(), 0);
        assert_eq!(h0.degree(0), 0);
        // d = 1: a single edge
        let h1 = hypercube(1);
        assert_eq!(h1.node_count(), 2);
        assert_eq!(h1.edge_count(), 1);
        assert!(h1.contains_edge(0, 1));
    }

    #[test]
    fn torus_minimal_dimensions() {
        // 3×3 is the smallest torus without parallel wrap-around edges
        let t = torus(3, 3).unwrap();
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.edge_count(), 18);
        for v in 0..9 {
            assert_eq!(t.degree(v), 4);
        }
        // anything smaller in either dimension must be rejected, not folded
        assert!(torus(2, 3).is_err());
        assert!(torus(3, 2).is_err());
        assert!(torus(0, 0).is_err());
    }

    #[test]
    fn trivial_families_are_well_formed() {
        assert_eq!(path(0).node_count(), 0);
        let p1 = path(1);
        assert_eq!((p1.node_count(), p1.edge_count()), (1, 0));
        assert_eq!(complete(0).node_count(), 0);
        assert_eq!(complete(1).edge_count(), 0);
        let c3 = cycle(3).unwrap();
        assert_eq!((c3.node_count(), c3.edge_count()), (3, 3));
    }

    #[test]
    fn erdos_renyi_clamps_out_of_range_probabilities() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(erdos_renyi(6, -0.5, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi(6, 1.5, &mut rng).edge_count(), 15);
    }

    #[test]
    fn random_regular_degenerate_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        // the empty graph is vacuously 0-regular
        let g = random_regular(0, 0, &mut rng).unwrap();
        assert_eq!(g.node_count(), 0);
        assert!(random_regular(0, 2, &mut rng).is_err());
        // d = 0 on any node set: isolated nodes
        let g = random_regular(7, 0, &mut rng).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (7, 0));
        // n·d odd in both orders of magnitude
        assert!(random_regular(3, 1, &mut rng).is_err());
        assert!(random_regular(101, 7, &mut rng).is_err());
    }

    #[test]
    fn random_regular_dense_case() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(8, 6, &mut rng).unwrap();
        for v in 0..8 {
            assert_eq!(g.degree(v), 6);
        }
    }
}
