//! Held instances under churn: incremental re-splitting of a live
//! instance as edge mutations stream in.
//!
//! [`Session::hold`] solves a request once and keeps the instance and its
//! coloring alive; [`HeldSolution::apply`] then patches the instance with
//! an [`EdgeDelta`] and **repairs** the previous solution instead of
//! re-solving from scratch. The incremental conditional-expectation engine
//! is built over the delta's halo only ([`derand::FixerState::seeded`]):
//! each halo constraint is seeded from its clean neighbors' previous
//! colors, and only the dirty variables — the delta's endpoints — are
//! re-fixed, in the same order and with the same arithmetic as a replay
//! over the whole instance, so colorings and the `Φ < 1` decision are
//! bit-identical to that replay.
//!
//! Cost model per update: the fixer is `O(Σ_{u ∈ halo} deg u)`; the
//! regime re-check and the copy of the coloring are `O(n)`; the
//! whole-instance certificate check is `O(m)`. (The content handle a
//! `splitd` `mutate` moves the instance to is updated from the edits
//! alone, in `O(edits)`.)
//!
//! Repair is an optimization, never a correctness shortcut:
//!
//! * every repaired [`Solution`] carries a **full** certificate, verified
//!   over the entire patched instance, not just the dirty region;
//! * the regime dispatch ([`splitting_core::decide_pipeline`]) is
//!   re-checked per update — if churn moved the instance into a different
//!   pipeline's regime (or out of every regime), the repair path is
//!   abandoned for a full re-solve (or a typed decline);
//! * when the dirty fraction exceeds the refix threshold, or seeding the
//!   fixer from the stale coloring cannot certify (`Φ ≥ 1`), the update
//!   falls back to a from-scratch solve of the patched instance.

use crate::error::ApiError;
use crate::problem::{Instance, Output, Problem};
use crate::request::{Determinism, Request};
use crate::session::Session;
use crate::solution::{Certificate, CertificateKind, Provenance, Solution};
use derand::{ColoringEstimator, FixerState};
use local_runtime::RoundLedger;
use splitgraph::checks;
use splitgraph::delta::{DirtyRegion, EdgeDelta};
use splitgraph::{BipartiteGraph, Color};
use splitting_core::{decide_pipeline, Pipeline, RegimeParams};
use std::sync::Arc;

/// Default ceiling on the dirty fraction (`|halo| / |U|`) the repair path
/// accepts; above it a from-scratch solve of the patched instance is
/// assumed cheaper than dragging a mostly-invalidated coloring along.
pub const DEFAULT_REFIX_THRESHOLD: f64 = 0.25;

/// Churn bookkeeping of one held solution — the same counters the `splitd`
/// heartbeat exposes service-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChurnStats {
    /// Edge-delta batches successfully applied to the held instance.
    pub mutations_applied: u64,
    /// Updates served by the incremental repair path.
    pub repairs: u64,
    /// Updates that fell back to a from-scratch solve (threshold, regime
    /// change, unrepairable problem, stale coloring, or failed repair).
    pub full_resolves: u64,
    /// Sum of the refix fractions over all repairs (for the mean).
    refix_sum: f64,
}

impl ChurnStats {
    /// Mean fraction of constraints re-examined per repair (0 when no
    /// repair has run).
    pub fn mean_refix_fraction(&self) -> f64 {
        if self.repairs == 0 {
            0.0
        } else {
            self.refix_sum / self.repairs as f64
        }
    }
}

/// A held instance with its live solution, ready to absorb edge deltas.
///
/// Produced by [`Session::hold`]; each [`apply`](HeldSolution::apply)
/// patches the instance in place and returns a freshly certified
/// [`Solution`] for the patched instance.
#[derive(Debug, Clone)]
pub struct HeldSolution {
    session: Session,
    request: Request,
    graph: BipartiteGraph,
    solution: Solution,
    /// The last certified coloring, if the held problem is repairable and
    /// the previous update succeeded (`None` forces a full re-solve).
    colors: Option<Vec<Color>>,
    pipeline: Option<Pipeline>,
    threshold: f64,
    stats: ChurnStats,
}

impl Session {
    /// Solves `request` and holds its instance for incremental updates.
    ///
    /// Only bipartite instances can be held (edge deltas are defined on
    /// them); the weak-splitting problem additionally gets the repair
    /// path — every other problem re-solves from scratch on each update,
    /// still through the same [`HeldSolution::apply`] surface.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] for non-bipartite instances, plus
    /// anything [`Session::solve`] can return for the initial solve.
    pub fn hold(&self, request: &Request) -> Result<HeldSolution, ApiError> {
        let graph = request.instance().bipartite()?.clone();
        let solution = self.solve(request)?;
        Ok(HeldSolution::assemble(
            *self,
            request.clone(),
            graph,
            solution,
        ))
    }
}

impl HeldSolution {
    fn assemble(
        session: Session,
        request: Request,
        graph: BipartiteGraph,
        solution: Solution,
    ) -> HeldSolution {
        let colors = if matches!(request.problem(), Problem::WeakSplitting { .. }) {
            solution.output.two_coloring().map(<[Color]>::to_vec)
        } else {
            None
        };
        let pipeline = solution.provenance.pipeline;
        HeldSolution {
            session,
            request,
            graph,
            solution,
            colors,
            pipeline,
            threshold: DEFAULT_REFIX_THRESHOLD,
            stats: ChurnStats::default(),
        }
    }

    /// Adopts an already-solved request as a held solution without
    /// re-solving — the entry the `splitd` server uses after a worker has
    /// produced `solution` for `request` the normal way.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the request's instance is not
    /// bipartite or the output length does not match its variable side.
    pub fn adopt(
        session: &Session,
        request: &Request,
        solution: Solution,
    ) -> Result<HeldSolution, ApiError> {
        let graph = request.instance().bipartite()?.clone();
        if let Some(colors) = solution.output.two_coloring() {
            if colors.len() != graph.right_count() {
                return Err(ApiError::InvalidRequest {
                    field: "solution",
                    reason: format!(
                        "coloring covers {} variables but the instance has {}",
                        colors.len(),
                        graph.right_count()
                    ),
                });
            }
        }
        Ok(HeldSolution::assemble(
            *session,
            request.clone(),
            graph,
            solution,
        ))
    }

    /// The held instance in its current (patched) state.
    pub fn instance(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The most recent certified solution.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Churn counters accumulated by this held solution.
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// Overrides the dirty-fraction ceiling of the repair path
    /// (clamped to `[0, 1]`; see [`DEFAULT_REFIX_THRESHOLD`]).
    pub fn set_refix_threshold(&mut self, threshold: f64) {
        self.threshold = threshold.clamp(0.0, 1.0);
    }

    /// Validates `(inserts, deletes)` against the current instance state —
    /// the convenience wrapper callers use to build deltas that are in
    /// sync with a held instance that has already absorbed updates.
    ///
    /// # Errors
    ///
    /// Exactly [`EdgeDelta::new`]'s typed errors, mapped to
    /// [`ApiError::InvalidRequest`].
    pub fn delta(
        &self,
        inserts: &[(usize, usize)],
        deletes: &[(usize, usize)],
    ) -> Result<EdgeDelta, ApiError> {
        EdgeDelta::new(&self.graph, inserts, deletes).map_err(|e| ApiError::InvalidRequest {
            field: "delta",
            reason: e.to_string(),
        })
    }

    /// Applies an edge delta to the held instance and returns a certified
    /// solution for the patched instance — repaired incrementally when
    /// possible, re-solved from scratch otherwise.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the delta does not validate
    /// against the current instance state (nothing is patched), or any
    /// solve error when the patched instance is re-solved and declined —
    /// the patch **has** been applied in that case, and the next update
    /// starts from a full re-solve.
    pub fn apply(&mut self, delta: &EdgeDelta) -> Result<Solution, ApiError> {
        let region = delta
            .apply(&mut self.graph)
            .map_err(|e| ApiError::InvalidRequest {
                field: "delta",
                reason: e.to_string(),
            })?;
        self.stats.mutations_applied += 1;
        match self.try_repair(delta, &region) {
            Some(solution) => {
                self.stats.repairs += 1;
                self.stats.refix_sum += region.refix_fraction(&self.graph);
                self.colors = solution.output.two_coloring().map(<[Color]>::to_vec);
                self.solution = solution.clone();
                Ok(solution)
            }
            None => {
                self.stats.full_resolves += 1;
                match self.full_resolve() {
                    Ok(solution) => {
                        self.colors =
                            if matches!(self.request.problem(), Problem::WeakSplitting { .. }) {
                                solution.output.two_coloring().map(<[Color]>::to_vec)
                            } else {
                                None
                            };
                        self.pipeline = solution.provenance.pipeline;
                        self.solution = solution.clone();
                        Ok(solution)
                    }
                    Err(e) => {
                        // the instance moved on but no solution covers it:
                        // drop the stale coloring so the next update
                        // re-solves instead of repairing from fiction
                        self.colors = None;
                        Err(e)
                    }
                }
            }
        }
    }

    /// The incremental path: `None` means "fall back to a full solve".
    fn try_repair(&self, delta: &EdgeDelta, region: &DirtyRegion) -> Option<Solution> {
        let Problem::WeakSplitting { thm12_constant } = *self.request.problem() else {
            return None;
        };
        let prev = self.colors.as_deref()?;
        let pipeline = self.pipeline?;
        // regime re-check: churn may have moved the instance into another
        // pipeline's territory (or out of every regime) — the repair path
        // must never mask a dispatch change
        let params = RegimeParams::of(&self.graph);
        let allow_randomized = self.request.determinism() == Determinism::Randomized;
        let expected = match self.request.pipeline_override() {
            Some(p) => p,
            None => decide_pipeline(allow_randomized, thm12_constant, params)?,
        };
        if expected != pipeline {
            return None;
        }
        let fraction = region.refix_fraction(&self.graph);
        if fraction > self.threshold {
            return None;
        }
        // seed the incremental fixer over the halo only: each halo
        // constraint starts from its clean neighbors' previous colors, then
        // the dirty variables are greedily re-fixed in ascending order —
        // the same commits, in the same order, that a whole-instance replay
        // makes on these constraints, so the choices are identical
        let est = ColoringEstimator::monochromatic(&self.graph);
        let prev_color = |v: usize| u32::from(prev[v] == Color::Blue);
        let mut state =
            FixerState::seeded(&self.graph, &est, &region.halo, &region.right, prev_color);
        let mut two = prev.to_vec();
        for (j, &v) in region.right.iter().enumerate() {
            let x = state.best_color(j);
            state.fix(j, x);
            two[v] = if x == 0 { Color::Red } else { Color::Blue };
        }
        // Φ < 1 certifies the halo. A constraint outside it kept its edges
        // and its neighbors' colors, so it is fully fixed and adds exactly
        // 0 to the whole-instance Φ unless it is violated — and then the
        // whole-instance check below declines — so accept/decline always
        // matches a Φ summed over the whole instance
        if state.total() >= 1.0 {
            return None;
        }
        // full certificate over the whole patched instance — repair never
        // narrows verification to the dirty region
        let kind = CertificateKind::WeakSplitting { min_degree: 0 };
        let violations = checks::weak_splitting_violations(&self.graph, &two, 0).len();
        if violations != 0 {
            return None;
        }
        let mut ledger = RoundLedger::new();
        ledger.add_measured("churn repair (seeded incremental fixer)", 0.0);
        Some(Solution {
            output: Output::TwoColoring(two),
            certificate: Certificate::from_parts(kind, violations),
            provenance: Provenance {
                problem: self.request.problem().name(),
                route: "weak-splitting/repair",
                pipeline: Some(pipeline),
                determinism: self.request.determinism(),
                seed: self.request.master_seed(),
                regime: params.to_string(),
                why: format!(
                    "re-fixed {} dirty variable(s), re-verified {} of {} constraints \
                     ({:.2}% refix) after {} edit(s)",
                    region.right.len(),
                    region.halo.len(),
                    self.graph.left_count(),
                    100.0 * fraction,
                    delta.len()
                ),
            },
            ledger,
        })
    }

    /// From-scratch solve of the current (patched) instance with the held
    /// request's policy.
    fn full_resolve(&self) -> Result<Solution, ApiError> {
        let mut request = Request::from_shared(
            self.request.problem().clone(),
            Arc::new(Instance::Bipartite(self.graph.clone())),
        )
        .determinism_policy(self.request.determinism())
        .seed(self.request.master_seed());
        if let Some(p) = self.request.pipeline_override() {
            request = request.force_pipeline(p);
        }
        let budget = self.request.budget();
        if let Some(rounds) = budget.max_rounds {
            request = request.max_rounds(rounds);
        }
        if let Some(attempts) = budget.attempts {
            request = request.attempts(attempts);
        }
        if let Some(ms) = budget.deadline_ms {
            request = request.deadline_ms(ms);
        }
        self.session.solve(&request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::delta::{random_delta, ChurnStyle};
    use splitgraph::generators;

    fn held(seed: u64) -> HeldSolution {
        let mut rng = StdRng::seed_from_u64(seed);
        // δ = r = 32 over n = 4000: the Theorem 2.5 density regime with
        // margin (2·log₂ n ≈ 23.9), so deletes cannot knock the instance
        // out of the regime; large enough that a handful of edits stays
        // well under the refix threshold (each dirty variable's halo
        // covers r constraints)
        let b = generators::random_biregular(2000, 2000, 32, &mut rng).unwrap();
        let request = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(seed);
        Session::new().hold(&request).unwrap()
    }

    #[test]
    fn small_mutation_takes_the_repair_route() {
        let mut held = held(11);
        let mut rng = StdRng::seed_from_u64(12);
        let delta = random_delta(held.instance(), ChurnStyle::Rewire, 8, &mut rng);
        let solution = held.apply(&delta).unwrap();
        assert_eq!(solution.provenance.route, "weak-splitting/repair");
        assert!(solution.certificate.holds());
        // the certificate re-verifies against the *patched* instance
        let patched = Instance::Bipartite(held.instance().clone());
        assert!(solution.reverify(&patched));
        assert_eq!(held.stats().mutations_applied, 1);
        assert_eq!(held.stats().repairs, 1);
        assert_eq!(held.stats().full_resolves, 0);
        let mean = held.stats().mean_refix_fraction();
        assert!(mean > 0.0 && mean <= DEFAULT_REFIX_THRESHOLD);
    }

    #[test]
    fn zero_threshold_forces_full_resolve() {
        let mut held = held(21);
        held.set_refix_threshold(0.0);
        let mut rng = StdRng::seed_from_u64(22);
        let delta = random_delta(held.instance(), ChurnStyle::Grow, 4, &mut rng);
        let solution = held.apply(&delta).unwrap();
        assert_ne!(solution.provenance.route, "weak-splitting/repair");
        assert!(solution.certificate.holds());
        assert_eq!(held.stats().repairs, 0);
        assert_eq!(held.stats().full_resolves, 1);
        assert_eq!(held.stats().mean_refix_fraction(), 0.0);
    }

    #[test]
    fn repair_and_scratch_agree_on_accept() {
        let mut held = held(31);
        let mut rng = StdRng::seed_from_u64(32);
        for step in 0..4u64 {
            let style = ChurnStyle::ALL[(step % 3) as usize];
            let delta = random_delta(held.instance(), style, 6, &mut rng);
            let repaired = held.apply(&delta).unwrap();
            assert!(repaired.certificate.holds());
            // a from-scratch solve of the same patched instance accepts too
            let scratch = Request::new(Problem::weak_splitting(), held.instance().clone())
                .deterministic()
                .seed(31);
            let scratch = Session::new().solve(&scratch).unwrap();
            assert!(scratch.certificate.holds());
        }
        assert_eq!(held.stats().mutations_applied, 4);
    }

    #[test]
    fn regime_exit_declines_on_both_paths() {
        // δ = 6, r = 1 → Theorem 2.7 (δ ≥ 6r); deleting one constraint's
        // edges drops δ to 0, outside every regime — repair must not paper
        // over the dispatch change
        let mut edges = Vec::new();
        for u in 0..4usize {
            for j in 0..6usize {
                edges.push((u, 6 * u + j));
            }
        }
        let b = splitgraph::BipartiteGraph::from_edges(4, 24, &edges).unwrap();
        let request = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(5);
        let mut held = Session::new().hold(&request).unwrap();
        let deletes: Vec<(usize, usize)> = (0..6).map(|j| (0, j)).collect();
        let delta = held.delta(&[], &deletes).unwrap();
        let err = held.apply(&delta).unwrap_err();
        assert_eq!(err.kind(), "unsupported-regime");
        assert_eq!(held.stats().full_resolves, 1);
        // the patch stuck: re-inserting the edges re-enters the regime
        // and the next update full-resolves from the (dropped) coloring
        let inserts: Vec<(usize, usize)> = (0..6).map(|j| (0, j)).collect();
        let delta = held.delta(&inserts, &[]).unwrap();
        let solution = held.apply(&delta).unwrap();
        assert!(solution.certificate.holds());
        assert_eq!(held.stats().full_resolves, 2);
        assert_eq!(held.stats().repairs, 0);
    }

    #[test]
    fn stale_delta_is_rejected_without_patching() {
        let mut held = held(41);
        let hash_before = held.instance().edge_count();
        // a delta built against a node that does not exist
        let err = held.delta(&[(0, 99_999)], &[]).unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
        // inserting an existing edge through a hand-built shape mismatch
        let other = splitgraph::BipartiteGraph::from_edges(1, 2, &[(0, 0)]).unwrap();
        let foreign = EdgeDelta::new(&other, &[(0, 1)], &[]).unwrap();
        let err = held.apply(&foreign).unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
        assert_eq!(held.instance().edge_count(), hash_before);
        assert_eq!(held.stats().mutations_applied, 0);
    }

    #[test]
    fn adopt_matches_hold() {
        let mut rng = StdRng::seed_from_u64(51);
        let b = generators::random_biregular(1200, 1200, 28, &mut rng).unwrap();
        let session = Session::new();
        let request = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(51);
        let solution = session.solve(&request).unwrap();
        let mut adopted = HeldSolution::adopt(&session, &request, solution).unwrap();
        let mut rng = StdRng::seed_from_u64(52);
        let delta = random_delta(adopted.instance(), ChurnStyle::Rewire, 6, &mut rng);
        let repaired = adopted.apply(&delta).unwrap();
        assert_eq!(repaired.provenance.route, "weak-splitting/repair");
        assert!(repaired.certificate.holds());
    }
}
