//! Theorem 1.2: randomized weak splitting in
//! `O(r/δ · poly log(r·log n))` rounds for `δ ≥ c·log(r·log n)`.
//!
//! Graph shattering: if `δ > 2·log n` the zero-round algorithm already
//! succeeds w.h.p.; otherwise the shattering algorithm satisfies most
//! constraints outright (Lemma 2.9) and Theorem 2.8 confines the leftovers
//! to connected components of size `poly(r, log n)`, where the
//! deterministic algorithm of Theorem 2.5 — parameterized by the *component*
//! size `n_H` — finishes in `poly log(r·log n)` rounds. Since the uncoloring
//! phase leaves every constraint at least a quarter of its neighbors
//! uncolored, the residual minimum degree `δ_H ≥ δ/4` meets Theorem 2.5's
//! requirement `δ_H ≥ 2·log n_H` once `c` is large enough.
//!
//! The residual components all funnel into the incremental
//! conditional-expectation engine (through Theorem 2.5 / Lemma 2.1), and
//! their truncation step reuses the component graph in place when it is a
//! no-op — given a fixed seed the whole randomized pipeline is replayable
//! bit for bit.

use crate::basic::{basic_deterministic_unchecked, SchedulingMode};
use crate::outcome::{SplitError, SplitOutcome};
use crate::shatter::shatter;
use crate::thm25::theorem25;
use crate::virtual_split::uniformize_left_degrees;
use crate::zero_round::zero_round_whp;
use degree_split::Flavor;
use local_runtime::RoundLedger;
use splitgraph::math::{log2, weak_splitting_degree_threshold};
use splitgraph::{bipartite_components, checks, BipartiteGraph, Color};

/// Tunables of the Theorem 1.2 pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem12Config {
    /// Master seed for the shattering randomness.
    pub seed: u64,
    /// The constant `c` in the precondition `δ ≥ c·log(r·log n)`.
    pub c_constant: f64,
    /// Shattering retries before reporting failure (each retry is an
    /// independent seed; w.h.p. one suffices).
    pub attempts: usize,
}

impl Default for Theorem12Config {
    fn default() -> Self {
        Theorem12Config {
            seed: 0x5eed,
            c_constant: 3.0,
            attempts: 16,
        }
    }
}

/// Statistics of a successful Theorem 1.2 run (for the `thm12` experiment).
#[derive(Debug, Clone, Default)]
pub struct Theorem12Report {
    /// Number of unsatisfied constraints after shattering.
    pub unsatisfied: usize,
    /// Size (nodes) of the largest residual component.
    pub max_component: usize,
    /// Number of residual components containing constraints to solve.
    pub solved_components: usize,
    /// Shattering seeds consumed.
    pub attempts_used: usize,
}

/// Runs Theorem 1.2; see [`theorem12_with_report`] for diagnostics.
///
/// # Errors
///
/// [`SplitError::Precondition`] if `δ < c·log(r·log n)`, or
/// [`SplitError::RandomizedFailure`] if every shattering attempt left a
/// component outside Theorem 2.5's regime.
pub fn theorem12(b: &BipartiteGraph, cfg: &Theorem12Config) -> Result<SplitOutcome, SplitError> {
    theorem12_with_report(b, cfg).map(|(out, _)| out)
}

/// Runs Theorem 1.2, returning diagnostics alongside the splitting.
///
/// # Errors
///
/// As for [`theorem12`].
pub fn theorem12_with_report(
    b: &BipartiteGraph,
    cfg: &Theorem12Config,
) -> Result<(SplitOutcome, Theorem12Report), SplitError> {
    let n = b.node_count();
    let rank = b.rank().max(1);
    let delta = b.min_left_degree();
    let requirement = cfg.c_constant * log2((rank as f64 * log2(n.max(2))).ceil() as usize + 1);
    if (delta as f64) < requirement {
        return Err(SplitError::Precondition {
            requirement: format!("δ ≥ c·log(r·log n) = {requirement:.1}"),
            actual: format!("δ = {delta}"),
        });
    }

    // high-degree regime: the zero-round algorithm succeeds w.h.p.
    if delta > weak_splitting_degree_threshold(n) {
        let out = zero_round_whp(b, cfg.seed, cfg.attempts)?;
        return Ok((out, Theorem12Report::default()));
    }

    // degree uniformization (δ > Δ/2 assumption of Section 2.4)
    let vs = uniformize_left_degrees(b, delta);
    let work: &BipartiteGraph = &vs.graph;

    'attempt: for attempt in 0..cfg.attempts {
        let mut ledger = RoundLedger::new();
        ledger.add_measured("virtual-node degree uniformization (local)", 0.0);
        let sh = shatter(work, cfg.seed.wrapping_add(attempt as u64));
        ledger.add_measured("shattering (coloring + uncoloring)", sh.rounds as f64);

        let mut colors: Vec<Option<Color>> = sh.colors.clone();
        let comps = bipartite_components(&sh.residual);
        let mut report = Theorem12Report {
            unsatisfied: sh.satisfied.iter().filter(|&&s| !s).count(),
            max_component: 0,
            solved_components: 0,
            attempts_used: attempt + 1,
        };
        // components run in parallel: the ledger takes the per-kind maximum
        let mut comp_measured = 0.0f64;
        let mut comp_charged = 0.0f64;
        // every component holds a constraint with an edge; variables left
        // isolated in the residual keep their shattering colour, or take
        // the red of the final unwrap if they have none
        for comp in &comps {
            report.max_component = report.max_component.max(comp.node_count());
            // Theorem 2.5 parameterized by the component size n_H; when its
            // (conservative) δ_H ≥ 2·log n_H check fails, fall back to the
            // underlying union-bound engine directly — Lemma 2.1's
            // derandomization is valid whenever Φ_H < 1
            let solved = theorem25(&comp.graph, Flavor::Deterministic)
                .map(|(out, _)| out)
                .or_else(|_| basic_deterministic_unchecked(&comp.graph, SchedulingMode::Reference));
            match solved {
                Ok(out) => {
                    report.solved_components += 1;
                    for (j, &orig) in comp.original_right.iter().enumerate() {
                        colors[orig] = Some(out.colors[j]);
                    }
                    comp_measured = comp_measured.max(out.ledger.measured_total());
                    comp_charged = comp_charged.max(out.ledger.charged_total());
                }
                Err(_) => continue 'attempt, // Φ_H ≥ 1: reshatter with a fresh seed
            }
        }
        ledger.add_measured(
            "residual components (Thm 2.5, parallel, max)",
            comp_measured,
        );
        ledger.add_charged("residual components (Thm 2.5, parallel, max)", comp_charged);

        let colors: Vec<Color> = colors
            .into_iter()
            .map(|c| c.unwrap_or(Color::Red))
            .collect();
        if checks::is_weak_splitting(work, &colors, 0) {
            debug_assert!(checks::is_weak_splitting(b, &colors, 0));
            return Ok((SplitOutcome { colors, ledger }, report));
        }
    }
    Err(SplitError::RandomizedFailure {
        phase: "shattering + residual solving".into(),
        attempts: cfg.attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::generators;

    #[test]
    fn high_degree_regime_zero_round() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_biregular(60, 120, 24, &mut rng).unwrap();
        let (out, report) = theorem12_with_report(&b, &Theorem12Config::default()).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
        assert_eq!(
            report.attempts_used, 0,
            "zero-round path has no shattering attempts"
        );
    }

    #[test]
    fn shattering_regime_solves() {
        let mut rng = StdRng::seed_from_u64(2);
        // n = 18432, 2·log n ≈ 28.3 (threshold 29); δ = 28 sits just below
        // the zero-round regime, rank 8, c·log(r·log n) ≈ 10.3 ≤ 28
        let b = generators::random_biregular(4096, 14336, 28, &mut rng).unwrap();
        let cfg = Theorem12Config {
            c_constant: 1.5,
            ..Theorem12Config::default()
        };
        let (out, report) = theorem12_with_report(&b, &cfg).unwrap();
        assert!(is_weak_splitting(&b, &out.colors, 0));
        assert!(report.attempts_used >= 1);
        // shattering must satisfy the overwhelming majority outright
        assert!(
            report.unsatisfied < 205,
            "unsatisfied = {} out of 4096",
            report.unsatisfied
        );
    }

    #[test]
    fn shattering_pipeline_is_replayable() {
        // same seed → same shattering, same residual components, and the
        // engine-backed component solving must reproduce colors bit for bit
        let mut rng = StdRng::seed_from_u64(5);
        let b = generators::random_biregular(2048, 6656, 26, &mut rng).unwrap();
        let cfg = Theorem12Config {
            c_constant: 1.5,
            ..Theorem12Config::default()
        };
        let (a, ra) = theorem12_with_report(&b, &cfg).unwrap();
        let (c, rc) = theorem12_with_report(&b, &cfg).unwrap();
        assert_eq!(a.colors, c.colors);
        assert_eq!(ra.unsatisfied, rc.unsatisfied);
        assert_eq!(ra.attempts_used, rc.attempts_used);
        assert!(is_weak_splitting(&b, &a.colors, 0));
    }

    #[test]
    fn precondition_rejects_tiny_degrees() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = generators::random_biregular(128, 256, 4, &mut rng).unwrap();
        assert!(matches!(
            theorem12(&b, &Theorem12Config::default()),
            Err(SplitError::Precondition { .. })
        ));
    }

    #[test]
    fn ledger_separates_parallel_component_costs() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = generators::random_biregular(4096, 14336, 28, &mut rng).unwrap();
        let cfg = Theorem12Config {
            c_constant: 1.5,
            ..Theorem12Config::default()
        };
        let (out, _) = theorem12_with_report(&b, &cfg).unwrap();
        // shattering is measured; component work may include charged entries
        assert!(out.ledger.measured_total() >= 3.0);
    }
}
