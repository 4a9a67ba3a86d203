//! Generators for bipartite constraint/variable instances.

use crate::bipartite::BipartiteGraph;
use crate::error::GraphError;
use rand::seq::SliceRandom;
use rand::Rng;

/// Random bipartite graph where every **left** (constraint) node has exactly
/// `left_degree` distinct right neighbors chosen uniformly at random.
///
/// Right degrees concentrate around `left_count·left_degree / right_count`;
/// the realized rank is whatever the sample produced — measure it with
/// [`BipartiteGraph::rank`].
///
/// # Errors
///
/// Returns an error if `left_degree > right_count`.
pub fn random_left_regular<R: Rng + ?Sized>(
    left_count: usize,
    right_count: usize,
    left_degree: usize,
    rng: &mut R,
) -> Result<BipartiteGraph, GraphError> {
    if left_degree > right_count {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("left degree {left_degree} exceeds right side size {right_count}"),
        });
    }
    let mut b = BipartiteGraph::new(left_count, right_count);
    let mut pool: Vec<usize> = (0..right_count).collect();
    for u in 0..left_count {
        // partial Fisher–Yates: draw `left_degree` distinct right nodes
        for i in 0..left_degree {
            let j = rng.random_range(i..right_count);
            pool.swap(i, j);
            b.add_edge(u, pool[i])
                .expect("distinct draws give fresh edges");
        }
    }
    Ok(b)
}

/// Random biregular bipartite graph: every left node has degree
/// `left_degree` and every right node degree `left_count·left_degree /
/// right_count`, via the configuration model with swap repair.
///
/// # Errors
///
/// Returns an error if the degree sums do not match
/// (`left_count·left_degree` must be divisible by `right_count`), if the
/// implied right degree exceeds `left_count`, or if repair fails repeatedly.
pub fn random_biregular<R: Rng + ?Sized>(
    left_count: usize,
    right_count: usize,
    left_degree: usize,
    rng: &mut R,
) -> Result<BipartiteGraph, GraphError> {
    let stubs = left_count * left_degree;
    if right_count == 0 || !stubs.is_multiple_of(right_count) {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("left stubs {stubs} not divisible by right side size {right_count}"),
        });
    }
    let right_degree = stubs / right_count;
    if right_degree > left_count {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!(
                "implied right degree {right_degree} exceeds left side size {left_count}"
            ),
        });
    }
    if left_degree > right_count {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("left degree {left_degree} exceeds right side size {right_count}"),
        });
    }
    const ATTEMPTS: usize = 200;
    for _ in 0..ATTEMPTS {
        let left_stubs: Vec<usize> = (0..left_count)
            .flat_map(|u| std::iter::repeat_n(u, left_degree))
            .collect();
        let mut right_stubs: Vec<usize> = (0..right_count)
            .flat_map(|v| std::iter::repeat_n(v, right_degree))
            .collect();
        right_stubs.shuffle(rng);
        let mut pairs: Vec<(usize, usize)> = left_stubs.into_iter().zip(right_stubs).collect();
        if repair_bipartite_pairing(&mut pairs, rng) {
            return BipartiteGraph::from_edges(left_count, right_count, &pairs);
        }
    }
    Err(GraphError::GenerationFailed {
        reason: format!(
            "biregular bipartite graph ({left_count}×{right_count}, left degree {left_degree}): repair attempts exhausted"
        ),
    })
}

fn repair_bipartite_pairing<R: Rng + ?Sized>(pairs: &mut [(usize, usize)], rng: &mut R) -> bool {
    use std::collections::HashSet;
    const PASSES: usize = 500;
    for _ in 0..PASSES {
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut bad: Vec<usize> = Vec::new();
        for (i, &p) in pairs.iter().enumerate() {
            if !seen.insert(p) {
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

/// Bipartite Erdős–Rényi graph: each of the `left·right` pairs is an edge
/// independently with probability `p`.
pub fn erdos_renyi_bipartite<R: Rng + ?Sized>(
    left_count: usize,
    right_count: usize,
    p: f64,
    rng: &mut R,
) -> BipartiteGraph {
    let mut b = BipartiteGraph::new(left_count, right_count);
    let p = p.clamp(0.0, 1.0);
    for u in 0..left_count {
        for v in 0..right_count {
            if rng.random_bool(p) {
                b.add_edge(u, v).expect("fresh pair");
            }
        }
    }
    b
}

/// Chung–Lu-style power-law bipartite graph: each left (constraint) node
/// draws its degree from the truncated power law
/// `P(deg = k) ∝ k^{-exponent}` on `min_degree..=max_degree`, then picks
/// that many distinct right neighbors uniformly at random. The heavy tail
/// concentrates edges on a few constraints — the regime where weak
/// splitting's degree thresholds and rank bounds diverge the most across a
/// single instance.
///
/// # Errors
///
/// Returns an error if `max_degree > right_count`, `min_degree == 0`, or
/// `min_degree > max_degree`.
pub fn power_law_bipartite<R: Rng + ?Sized>(
    left_count: usize,
    right_count: usize,
    exponent: f64,
    min_degree: usize,
    max_degree: usize,
    rng: &mut R,
) -> Result<BipartiteGraph, GraphError> {
    if min_degree == 0 || min_degree > max_degree {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("power-law degree range [{min_degree}, {max_degree}] is empty or zero"),
        });
    }
    if max_degree > right_count {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("max degree {max_degree} exceeds right side size {right_count}"),
        });
    }
    // inverse-CDF table over the truncated support
    let weights: Vec<f64> = (min_degree..=max_degree)
        .map(|k| (k as f64).powf(-exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut b = BipartiteGraph::new(left_count, right_count);
    let mut pool: Vec<usize> = (0..right_count).collect();
    for u in 0..left_count {
        let coin: f64 = rng.random::<f64>() * total;
        let mut acc = 0.0;
        let mut degree = max_degree;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if coin < acc {
                degree = min_degree + i;
                break;
            }
        }
        for i in 0..degree {
            let j = rng.random_range(i..right_count);
            pool.swap(i, j);
            b.add_edge(u, pool[i])
                .expect("distinct draws give fresh edges");
        }
    }
    Ok(b)
}

/// Two-tier skewed bipartite graph: `heavy_count` constraints of degree
/// `heavy_degree` plus `light_count` constraints of degree `light_degree`,
/// each picking distinct right neighbors uniformly at random. `δ` comes
/// from one tier and `Δ` from the other, so degree-uniformization and the
/// `δ ≥ 6r` dispatch see maximal spread.
///
/// # Errors
///
/// Returns an error if either tier's degree exceeds `right_count`.
pub fn skewed_bipartite<R: Rng + ?Sized>(
    heavy_count: usize,
    heavy_degree: usize,
    light_count: usize,
    light_degree: usize,
    right_count: usize,
    rng: &mut R,
) -> Result<BipartiteGraph, GraphError> {
    let max_degree = heavy_degree.max(light_degree);
    if max_degree > right_count {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("tier degree {max_degree} exceeds right side size {right_count}"),
        });
    }
    let left_count = heavy_count + light_count;
    let mut b = BipartiteGraph::new(left_count, right_count);
    let mut pool: Vec<usize> = (0..right_count).collect();
    for u in 0..left_count {
        let degree = if u < heavy_count {
            heavy_degree
        } else {
            light_degree
        };
        for i in 0..degree {
            let j = rng.random_range(i..right_count);
            pool.swap(i, j);
            b.add_edge(u, pool[i])
                .expect("distinct draws give fresh edges");
        }
    }
    Ok(b)
}

/// Disjoint union of bipartite instances: part `i`'s left nodes are offset
/// by the preceding parts' left counts, its right nodes by the preceding
/// right counts. `δ`, `Δ`, and the rank of the union are the min/max over
/// the parts — the composition the metamorphic conformance checks exploit
/// (a splitting of the union restricts to one of every part and vice
/// versa).
pub fn bipartite_disjoint_union(parts: &[&BipartiteGraph]) -> BipartiteGraph {
    let left_count: usize = parts.iter().map(|p| p.left_count()).sum();
    let right_count: usize = parts.iter().map(|p| p.right_count()).sum();
    let mut edges = Vec::with_capacity(parts.iter().map(|p| p.edge_count()).sum());
    let (mut left_off, mut right_off) = (0usize, 0usize);
    for p in parts {
        edges.extend(p.edges().map(|(u, v)| (u + left_off, v + right_off)));
        left_off += p.left_count();
        right_off += p.right_count();
    }
    BipartiteGraph::from_edges(left_count, right_count, &edges)
        .expect("offset parts keep edges disjoint and in range")
}

/// The complete bipartite graph `K_{left,right}`.
pub fn complete_bipartite(left_count: usize, right_count: usize) -> BipartiteGraph {
    let mut b = BipartiteGraph::new(left_count, right_count);
    for u in 0..left_count {
        for v in 0..right_count {
            b.add_edge(u, v).expect("fresh pair");
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn left_regular_exact_left_degrees() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = random_left_regular(40, 25, 8, &mut rng).unwrap();
        assert_eq!(b.left_count(), 40);
        assert_eq!(b.right_count(), 25);
        for u in 0..40 {
            assert_eq!(b.left_degree(u), 8);
        }
        assert_eq!(b.edge_count(), 320);
        assert!(b.rank() >= 320 / 25);
    }

    #[test]
    fn left_regular_rejects_excess_degree() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_left_regular(3, 2, 3, &mut rng).is_err());
    }

    #[test]
    fn biregular_exact_both_sides() {
        let mut rng = StdRng::seed_from_u64(5);
        // 30 * 6 = 180 stubs, right side 20 → right degree 9
        let b = random_biregular(30, 20, 6, &mut rng).unwrap();
        for u in 0..30 {
            assert_eq!(b.left_degree(u), 6);
        }
        for v in 0..20 {
            assert_eq!(b.right_degree(v), 9);
        }
        assert_eq!(b.rank(), 9);
        assert_eq!(b.min_left_degree(), 6);
    }

    #[test]
    fn biregular_infeasible_params() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(random_biregular(3, 7, 2, &mut rng).is_err()); // 6 stubs / 7 right
        assert!(random_biregular(2, 4, 1, &mut rng).is_err()); // 2 stubs / 4 right
        assert!(random_biregular(2, 1, 4, &mut rng).is_err()); // left degree 4 > right side 1
        assert!(random_biregular(5, 5, 0, &mut rng).is_ok()); // empty graph is fine
    }

    #[test]
    fn biregular_square_case() {
        let mut rng = StdRng::seed_from_u64(9);
        let b = random_biregular(16, 16, 5, &mut rng).unwrap();
        for v in 0..16 {
            assert_eq!(b.right_degree(v), 5);
        }
    }

    #[test]
    fn er_bipartite_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(erdos_renyi_bipartite(5, 5, 0.0, &mut rng).edge_count(), 0);
        let full = erdos_renyi_bipartite(5, 5, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 25);
        assert_eq!(full.rank(), 5);
        assert_eq!(full.min_left_degree(), 5);
        // out-of-range probabilities clamp instead of panicking
        assert_eq!(erdos_renyi_bipartite(4, 4, -0.3, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi_bipartite(4, 4, 2.0, &mut rng).edge_count(), 16);
        // empty sides are fine at both extremes
        for p in [0.0, 1.0] {
            assert_eq!(erdos_renyi_bipartite(0, 5, p, &mut rng).edge_count(), 0);
            assert_eq!(erdos_renyi_bipartite(5, 0, p, &mut rng).edge_count(), 0);
            assert_eq!(erdos_renyi_bipartite(0, 0, p, &mut rng).node_count(), 0);
        }
    }

    #[test]
    fn power_law_degrees_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(13);
        let b = power_law_bipartite(80, 60, 2.0, 2, 40, &mut rng).unwrap();
        assert_eq!(b.left_count(), 80);
        for u in 0..80 {
            assert!((2..=40).contains(&b.left_degree(u)));
        }
        // the heavy tail should actually produce spread
        assert!(b.max_left_degree() > b.min_left_degree());
        assert!(power_law_bipartite(4, 3, 2.0, 1, 5, &mut rng).is_err());
        assert!(power_law_bipartite(4, 8, 2.0, 0, 5, &mut rng).is_err());
        assert!(power_law_bipartite(4, 8, 2.0, 6, 5, &mut rng).is_err());
    }

    #[test]
    fn power_law_exponent_controls_skew() {
        let mut rng = StdRng::seed_from_u64(17);
        // a steep exponent keeps most constraints near the minimum degree
        let b = power_law_bipartite(200, 100, 3.5, 2, 50, &mut rng).unwrap();
        let low = (0..200).filter(|&u| b.left_degree(u) <= 4).count();
        assert!(low > 150, "steep power law should hug d_min, got {low}");
    }

    #[test]
    fn skewed_two_tier_degrees() {
        let mut rng = StdRng::seed_from_u64(19);
        let b = skewed_bipartite(4, 30, 20, 6, 40, &mut rng).unwrap();
        assert_eq!(b.left_count(), 24);
        for u in 0..4 {
            assert_eq!(b.left_degree(u), 30);
        }
        for u in 4..24 {
            assert_eq!(b.left_degree(u), 6);
        }
        assert_eq!(b.min_left_degree(), 6);
        assert_eq!(b.max_left_degree(), 30);
        assert!(skewed_bipartite(1, 50, 1, 2, 40, &mut rng).is_err());
    }

    #[test]
    fn disjoint_union_offsets_parts() {
        let a = complete_bipartite(2, 3);
        let b = complete_bipartite(1, 4);
        let u = bipartite_disjoint_union(&[&a, &b]);
        assert_eq!(u.left_count(), 3);
        assert_eq!(u.right_count(), 7);
        assert_eq!(u.edge_count(), 10);
        // part boundaries: no edge crosses the offset
        for v in 0..3 {
            assert!(u.contains_edge(0, v) && u.contains_edge(1, v));
            assert!(!u.contains_edge(2, v));
        }
        for v in 3..7 {
            assert!(u.contains_edge(2, v));
            assert!(!u.contains_edge(0, v));
        }
        // parameters are min/max over parts
        assert_eq!(u.min_left_degree(), 3);
        assert_eq!(u.rank(), 2);
        // empty union is the empty graph
        let e = bipartite_disjoint_union(&[]);
        assert_eq!(e.left_count(), 0);
        assert_eq!(e.edge_count(), 0);
    }

    #[test]
    fn complete_bipartite_counts() {
        let b = complete_bipartite(3, 4);
        assert_eq!(b.edge_count(), 12);
        assert_eq!(b.rank(), 3);
        assert_eq!(b.min_left_degree(), 4);
    }
}
