//! Typed edge-mutation batches on bipartite instances.
//!
//! The churn subsystem (ROADMAP item 4) treats a held instance as a
//! long-lived object under edge churn: an [`EdgeDelta`] is a validated,
//! canonicalized batch of inserts and deletes that patches the adjacency
//! **in place** and reports the [`DirtyRegion`] — the touched nodes plus
//! their radius-1 halo — so an incremental solver can re-fix only the
//! constraints the mutation can possibly have invalidated. Every delta has
//! an exact [`inverse`](EdgeDelta::inverse), which is what makes the
//! round-trip proptests (apply → inverse-apply is bit-identical) possible.
//!
//! Validation is strict and fully typed ([`DeltaError`]): out-of-range
//! endpoints, edits listed twice, an edit appearing as both insert and
//! delete, inserting a present edge, and deleting an absent edge are all
//! rejected *before* anything is patched, so a failed construction never
//! leaves a half-applied batch. (Self-loops are unrepresentable here by
//! construction: the two endpoints of a bipartite edge live in disjoint
//! index spaces.)

use crate::bipartite::BipartiteGraph;
use std::fmt;

/// A rejected edit in an [`EdgeDelta`] batch. Construction is
/// all-or-nothing: the first offending edit is reported and the graph is
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An endpoint lies outside the instance's index spaces.
    NodeOutOfRange {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// The offending index.
        index: usize,
        /// The size of that side.
        count: usize,
    },
    /// The same `(left, right)` edit appears twice in one list.
    DuplicateEdit {
        /// Left endpoint.
        left: usize,
        /// Right endpoint.
        right: usize,
    },
    /// The same `(left, right)` pair appears as both an insert and a
    /// delete — the batch is ambiguous.
    ContradictoryEdit {
        /// Left endpoint.
        left: usize,
        /// Right endpoint.
        right: usize,
    },
    /// An insert targets an edge the instance already has.
    InsertExisting {
        /// Left endpoint.
        left: usize,
        /// Right endpoint.
        right: usize,
    },
    /// A delete targets an edge the instance does not have.
    DeleteMissing {
        /// Left endpoint.
        left: usize,
        /// Right endpoint.
        right: usize,
    },
    /// The delta was validated against a differently-shaped instance.
    ShapeMismatch {
        /// Left/right counts the delta was validated against.
        expected: (usize, usize),
        /// Left/right counts of the instance it was applied to.
        actual: (usize, usize),
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NodeOutOfRange { side, index, count } => {
                write!(f, "{side} index {index} out of range (count {count})")
            }
            DeltaError::DuplicateEdit { left, right } => {
                write!(f, "edit ({left}, {right}) listed twice")
            }
            DeltaError::ContradictoryEdit { left, right } => {
                write!(f, "edit ({left}, {right}) is both an insert and a delete")
            }
            DeltaError::InsertExisting { left, right } => {
                write!(f, "insert ({left}, {right}) targets an existing edge")
            }
            DeltaError::DeleteMissing { left, right } => {
                write!(f, "delete ({left}, {right}) targets a missing edge")
            }
            DeltaError::ShapeMismatch { expected, actual } => write!(
                f,
                "delta validated for {}x{} applied to {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A validated, canonicalized batch of edge inserts and deletes against one
/// bipartite instance.
///
/// Canonical form: both lists sorted lexicographically and duplicate-free,
/// so two deltas describing the same edit set compare equal and render
/// identically on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeDelta {
    left_count: usize,
    right_count: usize,
    inserts: Vec<(usize, usize)>,
    deletes: Vec<(usize, usize)>,
}

impl EdgeDelta {
    /// Validates `inserts`/`deletes` against `b` and builds the canonical
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns the first [`DeltaError`] encountered; `b` is never touched.
    pub fn new(
        b: &BipartiteGraph,
        inserts: &[(usize, usize)],
        deletes: &[(usize, usize)],
    ) -> Result<EdgeDelta, DeltaError> {
        let (lc, rc) = (b.left_count(), b.right_count());
        let mut ins = inserts.to_vec();
        let mut del = deletes.to_vec();
        for list in [&mut ins, &mut del] {
            for &(u, v) in list.iter() {
                if u >= lc {
                    return Err(DeltaError::NodeOutOfRange {
                        side: "left",
                        index: u,
                        count: lc,
                    });
                }
                if v >= rc {
                    return Err(DeltaError::NodeOutOfRange {
                        side: "right",
                        index: v,
                        count: rc,
                    });
                }
            }
            list.sort_unstable();
            if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                return Err(DeltaError::DuplicateEdit {
                    left: w[0].0,
                    right: w[0].1,
                });
            }
        }
        // both lists are sorted: a linear merge finds any shared pair
        let (mut i, mut j) = (0, 0);
        while i < ins.len() && j < del.len() {
            match ins[i].cmp(&del[j]) {
                std::cmp::Ordering::Equal => {
                    return Err(DeltaError::ContradictoryEdit {
                        left: ins[i].0,
                        right: ins[i].1,
                    })
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        for &(u, v) in &ins {
            if b.contains_edge(u, v) {
                return Err(DeltaError::InsertExisting { left: u, right: v });
            }
        }
        for &(u, v) in &del {
            if !b.contains_edge(u, v) {
                return Err(DeltaError::DeleteMissing { left: u, right: v });
            }
        }
        Ok(EdgeDelta {
            left_count: lc,
            right_count: rc,
            inserts: ins,
            deletes: del,
        })
    }

    /// The canonical insert list (sorted, duplicate-free).
    pub fn inserts(&self) -> &[(usize, usize)] {
        &self.inserts
    }

    /// The canonical delete list (sorted, duplicate-free).
    pub fn deletes(&self) -> &[(usize, usize)] {
        &self.deletes
    }

    /// Number of edits in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch contains no edits.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// The `(left, right)` shape the delta was validated against.
    pub fn shape(&self) -> (usize, usize) {
        (self.left_count, self.right_count)
    }

    /// The exact inverse batch: applying `self` then `self.inverse()`
    /// restores the original instance bit-identically.
    pub fn inverse(&self) -> EdgeDelta {
        EdgeDelta {
            left_count: self.left_count,
            right_count: self.right_count,
            inserts: self.deletes.clone(),
            deletes: self.inserts.clone(),
        }
    }

    /// Patches `b` in place and reports the dirty region.
    ///
    /// The patch edits the sorted adjacency rows directly (binary-search
    /// insertion/removal per row); no row is rebuilt and untouched rows are
    /// never visited, so the cost is proportional to the touched rows, not
    /// the instance.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError::ShapeMismatch`] if `b` is not the shape the
    /// delta was validated against, or the first stale edit
    /// ([`DeltaError::InsertExisting`] / [`DeltaError::DeleteMissing`]) if
    /// `b` has drifted since validation. On error `b` is left exactly as it
    /// was: preconditions are re-checked before the first edit lands.
    pub fn apply(&self, b: &mut BipartiteGraph) -> Result<DirtyRegion, DeltaError> {
        if (b.left_count(), b.right_count()) != (self.left_count, self.right_count) {
            return Err(DeltaError::ShapeMismatch {
                expected: (self.left_count, self.right_count),
                actual: (b.left_count(), b.right_count()),
            });
        }
        for &(u, v) in &self.inserts {
            if b.contains_edge(u, v) {
                return Err(DeltaError::InsertExisting { left: u, right: v });
            }
        }
        for &(u, v) in &self.deletes {
            if !b.contains_edge(u, v) {
                return Err(DeltaError::DeleteMissing { left: u, right: v });
            }
        }
        for &(u, v) in &self.deletes {
            let removed = b.remove_edge(u, v);
            debug_assert!(removed, "validated delete must hit an edge");
        }
        for &(u, v) in &self.inserts {
            b.add_edge(u, v).expect("validated insert must be fresh");
        }
        Ok(DirtyRegion::of(b, &self.inserts, &self.deletes))
    }
}

/// The part of an instance an applied [`EdgeDelta`] can have invalidated:
/// the directly touched endpoints plus the radius-1 halo of constraints
/// around every touched variable. An incremental solver that recolors only
/// the touched variables needs to re-check exactly the halo — no constraint
/// outside it gained, lost, or saw a recolored neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRegion {
    /// Constraints (left nodes) whose adjacency changed, sorted.
    pub left: Vec<usize>,
    /// Variables (right nodes) whose adjacency changed, sorted.
    pub right: Vec<usize>,
    /// Constraints to re-verify: `left` plus every post-patch left
    /// neighbor of a node in `right`, sorted.
    pub halo: Vec<usize>,
}

impl DirtyRegion {
    fn of(b: &BipartiteGraph, inserts: &[(usize, usize)], deletes: &[(usize, usize)]) -> Self {
        let mut left: Vec<usize> = inserts.iter().chain(deletes).map(|&(u, _)| u).collect();
        let mut right: Vec<usize> = inserts.iter().chain(deletes).map(|&(_, v)| v).collect();
        left.sort_unstable();
        left.dedup();
        right.sort_unstable();
        right.dedup();
        let mut halo = left.clone();
        for &v in &right {
            halo.extend_from_slice(b.right_neighbors(v));
        }
        halo.sort_unstable();
        halo.dedup();
        DirtyRegion { left, right, halo }
    }

    /// Whether the region is empty (the delta was a no-op).
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// Fraction of constraints a repair must re-verify: `|halo| / |U|`
    /// (0 for an empty instance). This is the quantity repair thresholds
    /// compare against.
    pub fn refix_fraction(&self, b: &BipartiteGraph) -> f64 {
        if b.left_count() == 0 {
            return 0.0;
        }
        self.halo.len() as f64 / b.left_count() as f64
    }
}

/// Churn-stream styles for [`random_delta`]: what mix of inserts and
/// deletes a seeded stream step draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnStyle {
    /// Insert-only steps: the instance densifies.
    Grow,
    /// Delete-only steps: the instance sparsifies.
    Shrink,
    /// Paired delete+insert steps: edge count is preserved, endpoints move.
    Rewire,
}

impl ChurnStyle {
    /// All styles, in display order.
    pub const ALL: [ChurnStyle; 3] = [ChurnStyle::Grow, ChurnStyle::Shrink, ChurnStyle::Rewire];

    /// Stable display name (used in conformance scenario streams and bench
    /// rows).
    pub fn name(self) -> &'static str {
        match self {
            ChurnStyle::Grow => "grow",
            ChurnStyle::Shrink => "shrink",
            ChurnStyle::Rewire => "rewire",
        }
    }
}

/// Draws a seeded random [`EdgeDelta`] of about `edits` edits against `b`
/// in the given style. Deterministic in the RNG state; used by the churn
/// conformance streams, the bench, and the delta proptests so they all
/// mutate instances the same way. May return fewer edits than requested
/// when the instance is too dense (grow) or sparse (shrink) to honor them.
pub fn random_delta<R: rand::Rng>(
    b: &BipartiteGraph,
    style: ChurnStyle,
    edits: usize,
    rng: &mut R,
) -> EdgeDelta {
    let (lc, rc) = (b.left_count(), b.right_count());
    let mut inserts: Vec<(usize, usize)> = Vec::new();
    let mut deletes: Vec<(usize, usize)> = Vec::new();
    if lc == 0 || rc == 0 {
        return EdgeDelta::new(b, &[], &[]).expect("empty delta is always valid");
    }
    let want_deletes = match style {
        ChurnStyle::Grow => 0,
        ChurnStyle::Shrink => edits,
        ChurnStyle::Rewire => edits / 2,
    };
    if want_deletes > 0 && b.edge_count() > 0 {
        // sample existing edges by index through the left-major iterator
        let mut picks: Vec<usize> = (0..want_deletes.min(b.edge_count()))
            .map(|_| rng.random_range(0..b.edge_count()))
            .collect();
        picks.sort_unstable();
        picks.dedup();
        let mut it = b.edges().enumerate();
        for p in picks {
            for (i, e) in it.by_ref() {
                if i == p {
                    deletes.push(e);
                    break;
                }
            }
        }
    }
    let want_inserts = match style {
        ChurnStyle::Grow => edits,
        ChurnStyle::Shrink => 0,
        ChurnStyle::Rewire => edits - edits / 2,
    };
    let mut tries = 0;
    while inserts.len() < want_inserts && tries < 20 * edits + 20 {
        tries += 1;
        let u = rng.random_range(0..lc);
        let v = rng.random_range(0..rc);
        if !b.contains_edge(u, v) && !inserts.contains(&(u, v)) {
            inserts.push((u, v));
        }
    }
    EdgeDelta::new(b, &inserts, &deletes).expect("sampled edits are fresh and in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_delta(b: &BipartiteGraph, rng: &mut StdRng) -> (EdgeDelta, ChurnStyle) {
        let style = ChurnStyle::ALL[rng.random_range(0..3usize)];
        let edits = rng.random_range(1..6usize);
        (super::random_delta(b, style, edits, rng), style)
    }

    fn k23() -> BipartiteGraph {
        BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn canonicalizes_and_applies() {
        let mut b = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        // unsorted input canonicalizes
        let d = EdgeDelta::new(&b, &[(2, 0), (0, 1)], &[(1, 1)]).unwrap();
        assert_eq!(d.inserts(), &[(0, 1), (2, 0)]);
        assert_eq!(d.deletes(), &[(1, 1)]);
        assert_eq!(d.len(), 3);
        let region = d.apply(&mut b).unwrap();
        assert!(b.contains_edge(0, 1));
        assert!(b.contains_edge(2, 0));
        assert!(!b.contains_edge(1, 1));
        assert_eq!(b.edge_count(), 4);
        assert_eq!(region.left, vec![0, 1, 2]);
        assert_eq!(region.right, vec![0, 1]);
        // halo: all of left — constraint 0 via v1, 2 via v0, 1 directly
        assert_eq!(region.halo, vec![0, 1, 2]);
    }

    #[test]
    fn inverse_round_trips() {
        let original = k23();
        let mut b = original.clone();
        let d = EdgeDelta::new(&b, &[], &[(0, 1), (1, 2)]).unwrap();
        d.apply(&mut b).unwrap();
        assert_ne!(b, original);
        d.inverse().apply(&mut b).unwrap();
        assert_eq!(b, original);
    }

    #[test]
    fn typed_rejections() {
        let b = k23();
        assert_eq!(
            EdgeDelta::new(&b, &[(5, 0)], &[]),
            Err(DeltaError::NodeOutOfRange {
                side: "left",
                index: 5,
                count: 2
            })
        );
        assert_eq!(
            EdgeDelta::new(&b, &[], &[(0, 9)]),
            Err(DeltaError::NodeOutOfRange {
                side: "right",
                index: 9,
                count: 3
            })
        );
        assert_eq!(
            EdgeDelta::new(&b, &[], &[(0, 0), (0, 0)]),
            Err(DeltaError::DuplicateEdit { left: 0, right: 0 })
        );
        assert_eq!(
            EdgeDelta::new(&b, &[(0, 0)], &[]),
            Err(DeltaError::InsertExisting { left: 0, right: 0 })
        );
        let sparse = BipartiteGraph::new(2, 2);
        assert_eq!(
            EdgeDelta::new(&sparse, &[], &[(0, 0)]),
            Err(DeltaError::DeleteMissing { left: 0, right: 0 })
        );
        assert_eq!(
            EdgeDelta::new(&sparse, &[(0, 0)], &[(0, 0)]),
            Err(DeltaError::ContradictoryEdit { left: 0, right: 0 })
        );
    }

    #[test]
    fn apply_rejects_shape_mismatch_and_drift() {
        let b = k23();
        let d = EdgeDelta::new(&b, &[], &[(0, 0)]).unwrap();
        let mut other = BipartiteGraph::new(4, 4);
        assert_eq!(
            d.apply(&mut other),
            Err(DeltaError::ShapeMismatch {
                expected: (2, 3),
                actual: (4, 4)
            })
        );
        // drift: the target lost the edge since validation — nothing applied
        let mut drifted = b.clone();
        drifted.remove_edge(0, 0);
        let before = drifted.clone();
        assert_eq!(
            d.apply(&mut drifted),
            Err(DeltaError::DeleteMissing { left: 0, right: 0 })
        );
        assert_eq!(drifted, before);
    }

    #[test]
    fn empty_delta_is_noop() {
        let mut b = k23();
        let before = b.clone();
        let d = EdgeDelta::new(&b, &[], &[]).unwrap();
        assert!(d.is_empty());
        let region = d.apply(&mut b).unwrap();
        assert!(region.is_empty());
        assert!(region.halo.is_empty());
        assert_eq!(b, before);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn setup(seed: u64) -> (BipartiteGraph, StdRng) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = rng.random_range(2usize..12);
            let nr = rng.random_range(2usize..16);
            let b = crate::generators::erdos_renyi_bipartite(nl, nr, 0.4, &mut rng);
            (b, rng)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn apply_then_inverse_is_bit_identical(seed in 0u64..10_000) {
                let (original, mut rng) = setup(seed);
                let mut b = original.clone();
                let (d, _) = random_delta(&b, &mut rng);
                let region = d.apply(&mut b).unwrap();
                prop_assert_eq!(d.is_empty(), region.is_empty());
                d.inverse().apply(&mut b).unwrap();
                prop_assert_eq!(b, original);
            }

            #[test]
            fn empty_delta_preserves_instance_exactly(seed in 0u64..10_000) {
                let (original, _) = setup(seed);
                let mut b = original.clone();
                let d = EdgeDelta::new(&b, &[], &[]).unwrap();
                let region = d.apply(&mut b).unwrap();
                prop_assert!(region.is_empty());
                prop_assert_eq!(region.refix_fraction(&b), 0.0);
                prop_assert_eq!(b, original);
            }

            #[test]
            fn out_of_range_and_duplicate_edits_reject_typedly(seed in 0u64..10_000) {
                let (b, mut rng) = setup(seed);
                // out of range on either side
                let u = b.left_count() + rng.random_range(0usize..4);
                prop_assert!(matches!(
                    EdgeDelta::new(&b, &[(u, 0)], &[]),
                    Err(DeltaError::NodeOutOfRange { side: "left", .. })
                ));
                let v = b.right_count() + rng.random_range(0usize..4);
                prop_assert!(matches!(
                    EdgeDelta::new(&b, &[], &[(0, v)]),
                    Err(DeltaError::NodeOutOfRange { side: "right", .. })
                ));
                // duplicate and contradictory edits on a fresh pair
                let pair = (
                    rng.random_range(0..b.left_count()),
                    rng.random_range(0..b.right_count()),
                );
                prop_assert!(matches!(
                    EdgeDelta::new(&b, &[pair, pair], &[]),
                    Err(DeltaError::DuplicateEdit { .. })
                ));
                if !b.contains_edge(pair.0, pair.1) {
                    prop_assert!(matches!(
                        EdgeDelta::new(&b, &[pair], &[pair]),
                        Err(DeltaError::ContradictoryEdit { .. })
                    ));
                    prop_assert!(matches!(
                        EdgeDelta::new(&b, &[], &[pair]),
                        Err(DeltaError::DeleteMissing { .. })
                    ));
                } else {
                    prop_assert!(matches!(
                        EdgeDelta::new(&b, &[pair], &[]),
                        Err(DeltaError::InsertExisting { .. })
                    ));
                }
            }

            #[test]
            fn stream_equals_upfront_application(seed in 0u64..10_000) {
                // a stream of deltas applied one by one equals the same
                // edits applied to a fresh copy in the same order — the
                // conformance churn group's bit-identity invariant in
                // miniature
                let (original, mut rng) = setup(seed);
                let mut streamed = original.clone();
                let mut deltas = Vec::new();
                for _ in 0..4 {
                    let (d, _) = random_delta(&streamed, &mut rng);
                    d.apply(&mut streamed).unwrap();
                    deltas.push(d);
                }
                let mut upfront = original.clone();
                for d in &deltas {
                    d.apply(&mut upfront).unwrap();
                }
                prop_assert_eq!(streamed, upfront);
            }
        }

        // the contract churn repair counts a certificate from: no
        // constraint outside the halo gained or lost an edge, or has a
        // neighbor the repair may recolor (a variable in `right`). No
        // config header, so `PROPTEST_CASES` sets the case count
        proptest! {
            #[test]
            fn dirty_region_halo_is_sound(seed in 0u64..10_000) {
                let (before, mut rng) = setup(seed);
                for style in ChurnStyle::ALL {
                    let edits = rng.random_range(1..6usize);
                    let d = crate::delta::random_delta(&before, style, edits, &mut rng);
                    let mut after = before.clone();
                    let region = d.apply(&mut after).unwrap();
                    prop_assert!(region.left.iter().all(|u| region.halo.binary_search(u).is_ok()));
                    for u in 0..after.left_count() {
                        if region.halo.binary_search(&u).is_ok() {
                            continue;
                        }
                        prop_assert_eq!(before.left_neighbors(u), after.left_neighbors(u));
                        prop_assert!(
                            after.left_neighbors(u).iter().all(|v| region.right.binary_search(v).is_err()),
                            "constraint {} outside the halo has a dirty neighbor ({:?})", u, style
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refix_fraction_bounds() {
        let mut b = k23();
        let d = EdgeDelta::new(&b, &[], &[(0, 0)]).unwrap();
        let region = d.apply(&mut b).unwrap();
        let f = region.refix_fraction(&b);
        assert!(f > 0.0 && f <= 1.0, "fraction {f}");
        assert_eq!(
            DirtyRegion {
                left: vec![],
                right: vec![],
                halo: vec![]
            }
            .refix_fraction(&BipartiteGraph::new(0, 0)),
            0.0
        );
    }
}
