//! Section 2.5 / Figure 1: the reduction from sinkless orientation to weak
//! splitting, and the Theorem 2.10 lower-bound family.
//!
//! Given `G` with `δ_G ≥ 5` and unique IDs, the construction of
//! [`splitgraph::generators::sinkless_instance`] yields a rank-2 instance
//! `B` with `δ_B ≥ ⌈δ_G/2⌉ ≥ 3`. Any weak splitting of `B` orients `G`
//! sinklessly: a red edge points from the smaller toward the larger ID, a
//! blue edge the other way, so every node — which sees both colors on its
//! majority side — obtains an outgoing edge.
//!
//! Because Theorem 2.10 proves `Ω(log_Δ log n)` randomized /
//! `Ω(log_Δ n)` deterministic hardness for exactly these instances, no fast
//! LOCAL solver can exist for them in general. The reproduction therefore
//! solves the instance with (a) Theorem 2.7 whenever `δ_B ≥ 6·r_B = 12`
//! (i.e. `δ_G ≥ 23`), and (b) a centralized repair reference otherwise
//! (clearly labelled: the lower bound concerns LOCAL rounds, not
//! centralized feasibility — solutions always exist here).

use crate::outcome::{SplitError, SplitOutcome};
use crate::thm27::{theorem27, Variant};
use local_runtime::{NodeRngs, RoundLedger};
use rand::RngExt;
use splitgraph::checks::GraphOrientation;
use splitgraph::generators::{sinkless_instance, SinklessInstance};
use splitgraph::{checks, BipartiteGraph, Color, Graph};

/// Result of the full Figure 1 pipeline.
#[derive(Debug, Clone)]
pub struct SinklessReduction {
    /// The weak-splitting instance built from `G`.
    pub instance: SinklessInstance,
    /// The weak splitting of the instance.
    pub splitting: Vec<Color>,
    /// The derived orientation of `G` (aligned with [`Graph::edges`]).
    pub orientation: GraphOrientation,
    /// Round accounting of the solving step.
    pub ledger: RoundLedger,
}

/// Runs the Figure 1 pipeline: build `B`, solve weak splitting, derive the
/// sinkless orientation.
///
/// # Errors
///
/// Returns [`SplitError::Precondition`] if `δ_G < 5` (the reduction's
/// requirement) and [`SplitError::RandomizedFailure`] if the reference
/// solver exhausts its repair budget (not observed on valid inputs).
///
/// # Examples
///
/// ```
/// use splitting_core::sinkless_via_weak_splitting;
/// use splitgraph::{checks, generators};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let g = generators::random_regular(60, 6, &mut rng)?;
/// let ids: Vec<u64> = (0..60).collect();
/// let reduction = sinkless_via_weak_splitting(&g, &ids, 7)?;
/// assert!(reduction.instance.bipartite.rank() <= 2);
/// assert!(checks::is_sinkless(&g, &reduction.orientation, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sinkless_via_weak_splitting(
    g: &Graph,
    ids: &[u64],
    seed: u64,
) -> Result<SinklessReduction, SplitError> {
    sinkless_from_instance(g, sinkless_instance(g, ids), ids, seed)
}

/// Runs Figure 1 steps 2–3 on a **prebuilt** sinkless instance (callers
/// that already constructed one — e.g. to inspect `δ_B`/`r_B` before
/// committing — avoid building it twice). `instance` must come from
/// [`sinkless_instance`] over the same `(g, ids)`.
///
/// # Errors
///
/// Exactly like [`sinkless_via_weak_splitting`].
pub fn sinkless_from_instance(
    g: &Graph,
    instance: SinklessInstance,
    ids: &[u64],
    seed: u64,
) -> Result<SinklessReduction, SplitError> {
    if g.min_degree() < 5 {
        return Err(SplitError::Precondition {
            requirement: "δ_G ≥ 5".into(),
            actual: format!("δ_G = {}", g.min_degree()),
        });
    }
    let b = &instance.bipartite;
    debug_assert!(b.rank() <= 2);
    debug_assert!(b.min_left_degree() >= 3);

    // δ_B ≥ 6·r_B puts us in the Theorem 2.7 regime; otherwise fall back to
    // the centralized reference (the lower bound forbids a fast LOCAL
    // algorithm here — that is the point of the construction)
    let solved = if b.min_left_degree() >= 6 * b.rank() {
        theorem27(b, Variant::Deterministic)?
    } else {
        solve_rank2_reference(b, seed)?
    };

    let orientation = orientation_from_splitting(&instance, ids, &solved.colors);
    debug_assert!(checks::is_sinkless(g, &orientation, 1));
    Ok(SinklessReduction {
        instance,
        splitting: solved.colors,
        orientation,
        ledger: solved.ledger,
    })
}

/// Derives the orientation from a weak splitting of a sinkless instance:
/// red edges run small-ID → large-ID, blue edges the other way.
pub fn orientation_from_splitting(
    instance: &SinklessInstance,
    ids: &[u64],
    colors: &[Color],
) -> GraphOrientation {
    let forward = instance
        .edges
        .iter()
        .zip(colors)
        .map(|(&(a, b), &c)| match c {
            // `forward` means directed a → b where (a, b) is the stored
            // edge with a < b by index; red directs from the smaller ID
            Color::Red => ids[a] < ids[b],
            Color::Blue => ids[a] > ids[b],
        })
        .collect();
    GraphOrientation { forward }
}

/// Centralized reference solver for rank-≤2 instances: randomized repair
/// (flip a variable of a violated constraint, preferring flips that do not
/// break the variable's other constraint), retried over seeds.
///
/// This is **not** a LOCAL algorithm — Theorem 2.10 rules those out — and
/// its ledger records a single charged entry labelled accordingly.
///
/// # Errors
///
/// Returns [`SplitError::RandomizedFailure`] if the repair budget is
/// exhausted on every seed.
pub fn solve_rank2_reference(b: &BipartiteGraph, seed: u64) -> Result<SplitOutcome, SplitError> {
    let rngs = NodeRngs::new(seed);
    const SEEDS: usize = 20;
    for attempt in 0..SEEDS {
        let mut rng = rngs.derive(attempt as u64).rng(0, 0);
        let mut colors: Vec<Color> = (0..b.right_count())
            .map(|_| Color::from_bool(rng.random_bool(0.5)))
            .collect();
        let budget = 50 * (b.left_count() + b.right_count()).max(16);
        let mut steps = 0usize;
        loop {
            let violated: Vec<usize> = checks::weak_splitting_violations(b, &colors, 1);
            if violated.is_empty() {
                let mut ledger = RoundLedger::new();
                ledger.add_charged(
                    "centralized rank-2 reference solver (no fast LOCAL algorithm exists: Thm 2.10)",
                    0.0,
                );
                return Ok(SplitOutcome { colors, ledger });
            }
            if steps >= budget {
                break;
            }
            let u = violated[rng.random_range(0..violated.len())];
            let nbrs = b.left_neighbors(u);
            // flip a neighbor toward the missing color, preferring one whose
            // other constraint keeps both colors afterwards
            let flip = nbrs
                .iter()
                .copied()
                .find(|&v| {
                    let mut trial = colors[v].flipped();
                    std::mem::swap(&mut colors[v], &mut trial);
                    let ok = b
                        .right_neighbors(v)
                        .iter()
                        .all(|&w| constraint_ok(b, &colors, w));
                    std::mem::swap(&mut colors[v], &mut trial);
                    ok
                })
                .unwrap_or_else(|| nbrs[rng.random_range(0..nbrs.len())]);
            colors[flip] = colors[flip].flipped();
            steps += 1;
        }
    }
    Err(SplitError::RandomizedFailure {
        phase: "rank-2 repair".into(),
        attempts: SEEDS,
    })
}

/// Whether constraint `u` sees both colors under a full coloring.
fn constraint_ok(b: &BipartiteGraph, colors: &[Color], u: usize) -> bool {
    let mut red = false;
    let mut blue = false;
    for &v in b.left_neighbors(u) {
        match colors[v] {
            Color::Red => red = true,
            Color::Blue => blue = true,
        }
    }
    red && blue
}

/// The Theorem 2.10 randomized lower bound `log_Δ log n` (constants 1), for
/// experiment tables.
pub fn theorem210_randomized_bound(n: usize, max_degree: usize) -> f64 {
    let logn = (n.max(4) as f64).log2().max(2.0);
    logn.log2() / (max_degree.max(2) as f64).log2()
}

/// The Corollary 2.11 deterministic lower bound `log_Δ n` (constants 1).
pub fn corollary211_deterministic_bound(n: usize, max_degree: usize) -> f64 {
    (n.max(4) as f64).log2() / (max_degree.max(2) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    /// The 8-node, δ ≥ 5 example in the spirit of Figure 1.
    fn figure1_graph() -> Graph {
        // complete graph on 8 nodes minus a perfect matching: 6-regular
        generators::complete(8).filter_edges(|u, v| !(u % 2 == 0 && v == u + 1))
    }

    #[test]
    fn figure1_example_pipeline() {
        let g = figure1_graph();
        let ids: Vec<u64> = (0..8).map(|v| v * v + 7).collect();
        let red = sinkless_via_weak_splitting(&g, &ids, 1).unwrap();
        assert!(red.instance.bipartite.rank() <= 2);
        assert!(red.instance.bipartite.min_left_degree() >= 3);
        assert!(checks::is_weak_splitting(
            &red.instance.bipartite,
            &red.splitting,
            0
        ));
        assert!(checks::is_sinkless(&g, &red.orientation, 1));
    }

    #[test]
    fn high_degree_family_uses_theorem27() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::random_regular(120, 24, &mut rng).unwrap();
        let ids: Vec<u64> = (0..120).collect();
        let red = sinkless_via_weak_splitting(&g, &ids, 3).unwrap();
        assert!(red.instance.bipartite.min_left_degree() >= 12);
        assert!(checks::is_sinkless(&g, &red.orientation, 1));
        // Theorem 2.7 path: no centralized entry in the ledger
        assert!(red
            .ledger
            .entries()
            .iter()
            .all(|e| !e.label.contains("centralized")));
    }

    #[test]
    fn low_degree_family_uses_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::random_regular(60, 6, &mut rng).unwrap();
        let ids: Vec<u64> = (0..60).collect();
        let red = sinkless_via_weak_splitting(&g, &ids, 5).unwrap();
        assert!(checks::is_sinkless(&g, &red.orientation, 1));
        assert!(red
            .ledger
            .entries()
            .iter()
            .any(|e| e.label.contains("centralized")));
    }

    #[test]
    fn rejects_small_degrees() {
        let g = generators::cycle(10).unwrap();
        let ids: Vec<u64> = (0..10).collect();
        assert!(matches!(
            sinkless_via_weak_splitting(&g, &ids, 0),
            Err(SplitError::Precondition { .. })
        ));
    }

    #[test]
    fn bounds_grow_and_shrink_correctly() {
        // deterministic bound grows with n, shrinks with Δ
        assert!(
            corollary211_deterministic_bound(1 << 20, 4)
                > corollary211_deterministic_bound(1 << 10, 4)
        );
        assert!(
            corollary211_deterministic_bound(1 << 20, 4)
                > corollary211_deterministic_bound(1 << 20, 16)
        );
        // randomized bound is exponentially smaller
        assert!(
            theorem210_randomized_bound(1 << 20, 4)
                < corollary211_deterministic_bound(1 << 20, 4) / 2.0
        );
    }
}
