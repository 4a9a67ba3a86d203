//! The P-RLOCAL-completeness reductions of Section 3, run *forward* as
//! executable pipelines.
//!
//! Completeness means: a deterministic polylog-round algorithm for the
//! relaxed problem would solve weak splitting (and hence everything in
//! P-RLOCAL). The reductions are constructive, so we execute them:
//!
//! * [`weak_splitting_via_weak_multicolor`] (Theorem 3.2): solve C-weak
//!   multicolor splitting, keep for every constraint a set `S(u)` of
//!   `⌈2·log n⌉` distinctly-colored neighbors, and observe that on the
//!   pruned instance `B'` the multicolor classes form a proper distance-2
//!   schedule — the SLOCAL(2) weak-splitting fixer then compiles to `O(C)`
//!   LOCAL rounds.
//! * [`weak_multicolor_via_multicolor_splitting`] (Theorem 3.3): iterate
//!   (C, λ)-multicolor splitting `⌈log_{1/λ}(2·log n)⌉` times on virtual
//!   per-color-class constraints, refining the coloring until every class
//!   holds at most a `1/(2·log n)` fraction of each neighborhood, which
//!   forces at least `2·log n` distinct colors.

use crate::multicolor::{
    multicolor_splitting_deterministic, weak_multicolor_deterministic, MulticolorOutcome,
};
use crate::outcome::{to_two_coloring, SplitError, SplitOutcome};
use derand::{phased_fix, ColoringEstimator};
use local_runtime::RoundLedger;
use splitgraph::math::{ln, log2, weak_multicolor_required_colors};
use splitgraph::{checks, BipartiteGraph, MultiColor};

/// Theorem 3.2 forward: reduces weak splitting on `b` to one C-weak
/// multicolor splitting call plus `O(C)` compiled phases.
///
/// # Errors
///
/// Propagates solver errors; returns [`SplitError::Precondition`] if some
/// constraint sees fewer than `⌈2·log n⌉` distinct colors (i.e., the
/// multicolor solution was invalid for the Definition 1.3 regime) and
/// [`SplitError::EstimatorTooLarge`] if the pruned instance fails the
/// union bound (impossible when `S(u)` selection succeeded).
pub fn weak_splitting_via_weak_multicolor(b: &BipartiteGraph) -> Result<SplitOutcome, SplitError> {
    let n = b.node_count();
    let required = weak_multicolor_required_colors(n);
    let mut ledger = RoundLedger::new();

    // step 1: the relaxed problem
    let mc: MulticolorOutcome = weak_multicolor_deterministic(b)?;
    ledger.merge_prefixed("weak multicolor splitting", mc.ledger);

    // step 2: select S(u) — ⌈2·log n⌉ distinctly-colored neighbors per u
    let mut selected_edges: Vec<(usize, usize)> = Vec::new();
    for u in 0..b.left_count() {
        let mut seen = std::collections::HashSet::new();
        let mut selected = 0usize;
        for &v in b.left_neighbors(u) {
            if seen.insert(mc.colors[v]) {
                selected_edges.push((u, v));
                selected += 1;
                if selected == required {
                    break;
                }
            }
        }
        if selected < required {
            return Err(SplitError::Precondition {
                requirement: format!("{required} distinct colors at every constraint"),
                actual: format!("constraint {u} saw only {selected}"),
            });
        }
    }
    let pruned = BipartiteGraph::from_edges(b.left_count(), b.right_count(), &selected_edges)
        .expect("subset of simple edges");
    ledger.add_measured("S(u) selection (local)", 0.0);

    // step 3: the multicolor classes schedule the SLOCAL(2) fixer on B'
    let est = ColoringEstimator::monochromatic(&pruned);
    let fix = phased_fix(&pruned, est, &mc.colors, mc.palette);
    ledger.add_measured(
        "weak splitting phases on B' (2 per color)",
        fix.rounds as f64,
    );
    if fix.initial_phi >= 1.0 {
        return Err(SplitError::EstimatorTooLarge {
            phi: fix.initial_phi,
        });
    }
    let colors = to_two_coloring(&fix.colors);
    debug_assert!(checks::is_weak_splitting(&pruned, &colors, 0));
    debug_assert!(checks::is_weak_splitting(b, &colors, required));
    Ok(SplitOutcome { colors, ledger })
}

/// Configuration of the Theorem 3.3 iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem33Config {
    /// Palette bound `C` handed to the (C, λ) solver.
    pub c: u32,
    /// Per-color load fraction `λ`.
    pub lambda: f64,
    /// The constant `α` in the virtual-node degree floor `α·λ·ln n`.
    pub alpha: f64,
}

/// Diagnostics of a Theorem 3.3 reduction run.
#[derive(Debug, Clone)]
pub struct Theorem33Report {
    /// Iterations executed (`⌈log_{1/λ}(2·log n)⌉`).
    pub iterations: usize,
    /// Total colors `C''` of the final refinement.
    pub total_colors: u64,
    /// Max per-class fraction `max_u max_x |class|/deg(u)` after each
    /// iteration.
    pub class_fractions: Vec<f64>,
}

/// Theorem 3.3 forward: builds a C-weak multicolor splitting from iterated
/// (C, λ)-multicolor splitting calls.
///
/// # Errors
///
/// Propagates estimator failures from the inner solver; returns
/// [`SplitError::Precondition`] if `λ > 1/2` would make the refinement
/// diverge or the final coloring is not a valid weak multicolor splitting
/// in the Definition 1.3 sense restricted to the paper's degree regime.
pub fn weak_multicolor_via_multicolor_splitting(
    b: &BipartiteGraph,
    cfg: &Theorem33Config,
) -> Result<(Vec<MultiColor>, Theorem33Report, RoundLedger), SplitError> {
    let n = b.node_count();
    if cfg.lambda <= 0.0 || cfg.lambda >= 1.0 {
        return Err(SplitError::Precondition {
            requirement: "λ ∈ (0, 1)".into(),
            actual: format!("λ = {}", cfg.lambda),
        });
    }
    let target_fraction = 1.0 / (2.0 * log2(n.max(2)));
    let iterations = ((2.0 * log2(n.max(2))).ln() / (1.0 / cfg.lambda).ln())
        .ceil()
        .max(1.0) as usize;
    let floor = (cfg.alpha * cfg.lambda * ln(n.max(2))).ceil().max(2.0) as usize;

    let mut colors: Vec<u64> = vec![0; b.right_count()];
    let mut palette: u64 = 1;
    let mut ledger = RoundLedger::new();
    let mut report = Theorem33Report {
        iterations,
        total_colors: 1,
        class_fractions: Vec::new(),
    };

    for it in 1..=iterations {
        // virtual constraints: one per (original constraint, color class)
        // with at least `floor` members
        let mut virt_edges: Vec<(usize, usize)> = Vec::new();
        let mut virt_count = 0usize;
        for u in 0..b.left_count() {
            let mut classes: std::collections::HashMap<u64, Vec<usize>> =
                std::collections::HashMap::new();
            for &v in b.left_neighbors(u) {
                classes.entry(colors[v]).or_default().push(v);
            }
            for (_, members) in classes {
                if members.len() >= floor {
                    for v in members {
                        virt_edges.push((virt_count, v));
                    }
                    virt_count += 1;
                }
            }
        }
        if virt_count == 0 {
            break; // every class is already below the floor
        }
        let h = BipartiteGraph::from_edges(virt_count, b.right_count(), &virt_edges)
            .expect("virtual instance edges are simple");
        let inner = multicolor_splitting_deterministic(&h, cfg.c, cfg.lambda)?;
        ledger.merge_prefixed(&format!("iteration {it} (C, λ)-splitting"), inner.ledger);
        let c_prime = inner.palette as u64;
        for (color, &refined) in colors.iter_mut().zip(&inner.colors) {
            *color = *color * c_prime + refined as u64;
        }
        palette *= c_prime;
        report.class_fractions.push(max_class_fraction(b, &colors));
    }
    report.total_colors = palette;

    // validity: classes end at size ≤ max(λ^i·d, floor) with
    // λ^i ≤ 1/(2·log n), so any constraint of degree ≥ 2·log n · floor
    // sees ≥ min(2·log n, d/floor) = 2·log n distinct colors
    let _ = target_fraction;
    let out: Vec<MultiColor> = compress_palette(&colors);
    let required = weak_multicolor_required_colors(n);
    let degree_needed = required * floor;
    let violations = checks::weak_multicolor_violations(b, &out, degree_needed, required);
    if !violations.is_empty() {
        return Err(SplitError::Precondition {
            requirement: format!("{required} distinct colors at high-degree constraints"),
            actual: format!("{} constraints below target", violations.len()),
        });
    }
    Ok((out, report, ledger))
}

/// Largest per-class neighborhood fraction over all constraints.
fn max_class_fraction(b: &BipartiteGraph, colors: &[u64]) -> f64 {
    let mut worst: f64 = 0.0;
    for u in 0..b.left_count() {
        let d = b.left_degree(u);
        if d == 0 {
            continue;
        }
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for &v in b.left_neighbors(u) {
            *counts.entry(colors[v]).or_default() += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        worst = worst.max(max as f64 / d as f64);
    }
    worst
}

/// Renames the (sparse, possibly large) refined colors into a dense
/// `0..k` palette — distinctness is all Definition 1.3 cares about.
fn compress_palette(colors: &[u64]) -> Vec<MultiColor> {
    let mut map: std::collections::HashMap<u64, MultiColor> = std::collections::HashMap::new();
    colors
        .iter()
        .map(|&c| {
            let next = map.len() as MultiColor;
            *map.entry(c).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    #[test]
    fn theorem32_reduction_end_to_end() {
        let mut rng = StdRng::seed_from_u64(1);
        // n = 2176, degrees deep in the Def 1.3 regime (c > 1 headroom)
        let b = generators::random_left_regular(128, 2048, 1024, &mut rng).unwrap();
        let out = weak_splitting_via_weak_multicolor(&b).unwrap();
        assert!(checks::is_weak_splitting(&b, &out.colors, 0));
        assert!(out.ledger.measured_total() > 0.0);
    }

    #[test]
    fn theorem32_rejects_low_degree() {
        let b = generators::complete_bipartite(100, 6);
        assert!(weak_splitting_via_weak_multicolor(&b).is_err());
    }

    #[test]
    fn theorem33_reduction_refines_classes() {
        let mut rng = StdRng::seed_from_u64(2);
        // dense instance: degrees 1536 ≥ β·ln² n (the paper's regime)
        let b = generators::random_left_regular(128, 3072, 1536, &mut rng).unwrap();
        let cfg = Theorem33Config {
            c: 16,
            lambda: 0.5,
            alpha: 16.0,
        };
        let (colors, report, _ledger) = weak_multicolor_via_multicolor_splitting(&b, &cfg).unwrap();
        assert_eq!(colors.len(), 3072);
        assert!(report.iterations >= 3);
        // fractions must decay roughly like λ^i until hitting the floor
        for w in report.class_fractions.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "fractions must not increase: {w:?}");
        }
        let n = b.node_count();
        let required = weak_multicolor_required_colors(n);
        // high-degree constraints see many colors
        let distinct_min = (0..b.left_count())
            .map(|u| {
                let mut s = std::collections::HashSet::new();
                for &v in b.left_neighbors(u) {
                    s.insert(colors[v]);
                }
                s.len()
            })
            .min()
            .unwrap();
        assert!(
            distinct_min >= required,
            "min distinct colors {distinct_min} < required {required}"
        );
    }

    #[test]
    fn theorem33_rejects_bad_lambda() {
        let b = generators::complete_bipartite(4, 4);
        let cfg = Theorem33Config {
            c: 8,
            lambda: 1.0,
            alpha: 1.0,
        };
        assert!(weak_multicolor_via_multicolor_splitting(&b, &cfg).is_err());
    }

    #[test]
    fn compress_palette_preserves_distinctness() {
        let colors = vec![100, 7, 100, 3, 7];
        let out = compress_palette(&colors);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[1], out[4]);
        assert_ne!(out[0], out[1]);
        assert_ne!(out[3], out[0]);
    }
}
