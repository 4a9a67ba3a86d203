//! Virtual-node degree uniformization (Section 2.4 preprocessing).
//!
//! The randomized algorithm assumes almost-uniform constraint degrees
//! (`δ > Δ/2`). This is without loss of generality: every constraint `u`
//! with `deg(u) ≥ 2δ` splits into `⌊deg(u)/δ⌋` virtual constraints, each
//! watching between `δ` and `2δ − 1` of `u`'s edges. A weak splitting
//! satisfying every virtual constraint satisfies `u` (each virtual node
//! already sees both colors), so solutions pull back directly.

use splitgraph::BipartiteGraph;
use std::borrow::Cow;

/// A degree-uniformized instance with the mapping back to the original
/// constraints.
#[derive(Debug, Clone)]
pub struct VirtualSplit<'a> {
    /// The uniformized instance: same variable side, virtual constraint
    /// side. Borrows the input when no constraint splits.
    pub graph: Cow<'a, BipartiteGraph>,
    /// `origin[i]` = original constraint of virtual constraint `i`.
    pub origin: Vec<usize>,
}

/// Splits every constraint of degree `≥ 2·target` into virtual constraints
/// of degree in `[target, 2·target)`. Constraints of degree `< 2·target`
/// (including those below `target`) are kept as single virtual nodes.
///
/// # Panics
///
/// Panics if `target == 0`.
pub fn uniformize_left_degrees(b: &BipartiteGraph, target: usize) -> VirtualSplit<'_> {
    assert!(target > 0, "target degree must be positive");
    if b.max_left_degree() < 2 * target {
        // no constraint splits: the instance is its own uniformization
        return VirtualSplit {
            graph: Cow::Borrowed(b),
            origin: (0..b.left_count()).collect(),
        };
    }
    let mut origin = Vec::new();
    let mut rows: Vec<&[usize]> = Vec::new();
    for u in 0..b.left_count() {
        let nbrs = b.left_neighbors(u);
        let d = nbrs.len();
        let parts = (d / target).max(1);
        // distribute the d edges over `parts` virtual nodes as evenly as
        // possible: sizes differ by at most one, all in [target, 2·target)
        // when d ≥ 2·target
        let base = d / parts;
        let extra = d % parts;
        let mut offset = 0;
        for p in 0..parts {
            let size = base + usize::from(p < extra);
            origin.push(u);
            rows.push(&nbrs[offset..offset + size]);
            offset += size;
        }
        debug_assert_eq!(offset, d);
    }
    let graph =
        BipartiteGraph::from_left_rows(b.right_count(), rows.iter().map(|r| r.iter().copied()))
            .expect("virtual split preserves simplicity");
    VirtualSplit {
        graph: Cow::Owned(graph),
        origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::generators;
    use splitgraph::Color;

    #[test]
    fn small_degrees_untouched() {
        let b = generators::complete_bipartite(3, 5); // degrees 5 < 2·4
        let vs = uniformize_left_degrees(&b, 4);
        assert_eq!(vs.graph.left_count(), 3);
        assert_eq!(vs.origin, vec![0, 1, 2]);
        assert_eq!(vs.graph.edge_count(), b.edge_count());
    }

    #[test]
    fn high_degree_splits_into_uniform_parts() {
        let b = generators::complete_bipartite(1, 23); // one constraint, degree 23
        let vs = uniformize_left_degrees(&b, 5);
        // 23/5 = 4 parts of sizes 6, 6, 6, 5
        assert_eq!(vs.graph.left_count(), 4);
        for i in 0..4 {
            let d = vs.graph.left_degree(i);
            assert!((5..10).contains(&d), "virtual degree {d} outside [5, 10)");
            assert_eq!(vs.origin[i], 0);
        }
        assert_eq!(vs.graph.edge_count(), 23);
    }

    #[test]
    fn degrees_end_up_almost_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::erdos_renyi_bipartite(50, 120, 0.4, &mut rng);
        let target = 8;
        let vs = uniformize_left_degrees(&b, target);
        let max = (0..vs.graph.left_count())
            .map(|u| vs.graph.left_degree(u))
            .max()
            .unwrap();
        // constraints of original degree ≥ 2·target now sit below 2·target
        for i in 0..vs.graph.left_count() {
            let orig_deg = b.left_degree(vs.origin[i]);
            if orig_deg >= 2 * target {
                let d = vs.graph.left_degree(i);
                assert!((target..2 * target).contains(&d), "degree {d}");
            }
        }
        assert!(max < 2 * target.max(b.max_left_degree().min(2 * target)));
    }

    #[test]
    fn solutions_pull_back() {
        let b = generators::complete_bipartite(2, 12);
        let vs = uniformize_left_degrees(&b, 3);
        // alternate colors on the variable side: valid for the virtual
        // instance (every virtual node has ≥ 3 consecutive variables)
        let colors: Vec<Color> = (0..12)
            .map(|v| if v % 2 == 0 { Color::Red } else { Color::Blue })
            .collect();
        assert!(is_weak_splitting(&vs.graph, &colors, 0));
        assert!(is_weak_splitting(&b, &colors, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_target() {
        let b = generators::complete_bipartite(1, 1);
        let _ = uniformize_left_degrees(&b, 0);
    }
}
