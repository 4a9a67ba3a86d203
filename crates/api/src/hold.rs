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
//! Ownership and cost: the held [`Request`] owns the held instance, and
//! the retained [`Solution`] is the only copy of its coloring.
//! [`HeldSolution::adopt`] shares the request's instance; each update
//! patches it through [`Arc::make_mut`](std::sync::Arc::make_mut), which
//! deep-copies it only while another owner (the caller's `Request`, or
//! `splitd`'s interned table) still shares it, so that owner never sees
//! a patch. Once nothing else shares it, a held solution costs one
//! instance and an update copies none.
//!
//! Cost model per update: the fixer and the certificate count are
//! `O(Σ_{u ∈ halo} deg u)`; the regime re-check and the copy of the
//! coloring are `O(n)`. (The content handle a `splitd` `mutate` moves
//! the instance to is updated from the edits alone, in `O(edits)`.)
//! [`HeldSolution::adopt`] checks the adopted solution's certificate
//! once, in `O(m)`.
//!
//! Repair is an optimization, never a correctness shortcut:
//!
//! * every repaired [`Solution`] carries a **whole-instance** certificate:
//!   verification is never narrowed. Its count covers every constraint —
//!   the halo's rows counted with the checker's own row predicate
//!   ([`checks::weak_splitting_violations_among`]), every other row
//!   carried from the retained certificate, which must hold. That is
//!   exact because [`DirtyRegion`]'s halo holds every constraint whose
//!   row or neighbor colors an update can change, and it is why `adopt`
//!   refuses a solution that does not certify on its request's instance.
//!   Debug builds re-run the whole-instance checker after every repair
//!   and assert the same count;
//! * the weak-splitting route (the request's override, else
//!   [`splitting_core::decide_pipeline`]) is re-checked per update — if
//!   churn moved the instance into a different pipeline's regime (or out
//!   of every regime), the repair path is abandoned for a full re-solve
//!   (or a typed decline);
//! * when the dirty fraction exceeds the refix threshold, or seeding the
//!   fixer from the stale coloring cannot certify (`Φ ≥ 1`), the update
//!   falls back to a from-scratch solve of the patched instance.

use crate::error::ApiError;
use crate::problem::{Instance, Output, Problem};
use crate::request::Request;
use crate::session::{certified_solution, weak_splitting_route, Session};
use crate::solution::{Certificate, CertificateKind, Solution};
use derand::{ColoringEstimator, FixerState};
use local_runtime::RoundLedger;
use splitgraph::delta::{DirtyRegion, EdgeDelta};
use splitgraph::{checks, BipartiteGraph, Color};
use splitting_core::RegimeParams;

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

    /// Sum of the refix fractions over all repairs (for exact deltas).
    pub fn refix_sum(&self) -> f64 {
        self.refix_sum
    }
}

/// A held instance with its live solution, ready to absorb edge deltas.
///
/// Produced by [`Session::hold`]; each [`apply`](HeldSolution::apply)
/// patches the instance in place and returns a freshly certified
/// [`Solution`] for the patched instance.
#[derive(Debug, Clone)]
pub struct HeldSolution {
    /// The held request; its bipartite instance is the held graph.
    request: Request,
    solution: Solution,
    /// Set when a re-solve failed: `solution` covers an earlier instance,
    /// so the next update re-solves instead of repairing from it.
    stale: bool,
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
        request.instance().bipartite()?;
        HeldSolution::adopt(self, request, self.solve(request)?)
    }
}

impl HeldSolution {
    /// Adopts an already-solved request as a held solution without
    /// re-solving — the entry the `splitd` server uses after a worker has
    /// produced `solution` for `request` the normal way. The held request
    /// shares `request`'s instance; the first update copies it if
    /// `request` is still alive then.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the request's instance is not
    /// bipartite, the output length does not match its variable side, or
    /// the solution's certificate does not hold on the request's instance
    /// (checked once here, in `O(m)`).
    pub fn adopt(
        _session: &Session,
        request: &Request,
        solution: Solution,
    ) -> Result<HeldSolution, ApiError> {
        let variables = request.instance().bipartite()?.right_count();
        if let Some(colors) = solution.output.two_coloring() {
            if colors.len() != variables {
                return Err(ApiError::InvalidRequest {
                    field: "solution",
                    reason: format!(
                        "coloring covers {} variables but the instance has {variables}",
                        colors.len()
                    ),
                });
            }
        }
        // every repair carries the rows outside its halo from this
        // solution's certificate, so it must certify on this instance
        if !solution.reverify(request.instance()) {
            return Err(ApiError::InvalidRequest {
                field: "solution",
                reason: format!(
                    "the {} certificate does not hold on the request's instance",
                    solution.certificate.kind().name()
                ),
            });
        }
        Ok(HeldSolution {
            request: request.clone(),
            solution,
            stale: false,
            threshold: DEFAULT_REFIX_THRESHOLD,
            stats: ChurnStats::default(),
        })
    }

    /// The held instance in its current (patched) state.
    pub fn instance(&self) -> &BipartiteGraph {
        match self.request.instance() {
            Instance::Bipartite(b) => b,
            _ => unreachable!("adopt holds bipartite instances only"),
        }
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
        EdgeDelta::new(self.instance(), inserts, deletes).map_err(|e| ApiError::InvalidRequest {
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
        let Instance::Bipartite(graph) = self.request.instance_mut() else {
            unreachable!("adopt holds bipartite instances only")
        };
        let region = delta.apply(graph).map_err(|e| ApiError::InvalidRequest {
            field: "delta",
            reason: e.to_string(),
        })?;
        self.stats.mutations_applied += 1;
        let solution = match self.try_repair(delta, &region) {
            Some(solution) => {
                self.stats.repairs += 1;
                self.stats.refix_sum += region.refix_fraction(self.instance());
                solution
            }
            None => {
                self.stats.full_resolves += 1;
                let solved = Session::new().solve(&self.request);
                // a failed re-solve leaves the patched instance without a
                // solution: the retained one must not seed a repair
                self.stale = solved.is_err();
                solved?
            }
        };
        self.solution = solution.clone();
        Ok(solution)
    }

    /// The incremental path: `None` means "fall back to a full solve".
    fn try_repair(&self, delta: &EdgeDelta, region: &DirtyRegion) -> Option<Solution> {
        let Problem::WeakSplitting { thm12_constant } = *self.request.problem() else {
            return None;
        };
        // the count below carries every row outside the halo from the
        // retained certificate, so that certificate must be current (not
        // stale), hold, and count the predicate this repair certifies
        let kind = CertificateKind::WeakSplitting { min_degree: 0 };
        let retained = &self.solution.certificate;
        if self.stale || *retained.kind() != kind || !retained.holds() {
            return None;
        }
        let prev = self.solution.output.two_coloring()?;
        let pipeline = self.solution.provenance.pipeline?;
        // route re-check: churn may have moved the instance into another
        // pipeline's territory (or out of every regime) — the repair path
        // must never mask a dispatch change
        let graph = self.instance();
        let params = RegimeParams::of(graph);
        let (route, _) = weak_splitting_route(&self.request, thm12_constant, params).ok()?;
        if route != pipeline {
            return None;
        }
        let fraction = region.refix_fraction(graph);
        if fraction > self.threshold {
            return None;
        }
        // seed the incremental fixer over the halo only: each halo
        // constraint starts from its clean neighbors' previous colors, then
        // the dirty variables are greedily re-fixed in ascending order —
        // the same commits, in the same order, that a whole-instance replay
        // makes on these constraints, so the choices are identical
        let est = ColoringEstimator::monochromatic(graph);
        let prev_color = |v: usize| u32::from(prev[v] == Color::Blue);
        let mut state = FixerState::seeded(graph, &est, &region.halo, &region.right, prev_color);
        let mut two = prev.to_vec();
        for (j, &v) in region.right.iter().enumerate() {
            let x = state.best_color(j);
            state.fix(j, x);
            two[v] = if x == 0 { Color::Red } else { Color::Blue };
        }
        // Φ < 1 certifies the halo. A constraint outside it kept its edges
        // and its neighbors' colors, so it is fully fixed and adds exactly
        // 0 to the whole-instance Φ unless it is violated — and then the
        // retained certificate would not hold — so accept/decline always
        // matches a Φ summed over the whole instance
        if state.total() >= 1.0 {
            return None;
        }
        // the whole-instance count: the halo's rows read by the checker's
        // own predicate, plus the retained certificate's count for every
        // other row, which kept its row and its neighbors' colors
        let carried = retained.violations();
        let halo =
            checks::weak_splitting_violations_among(graph, &two, 0, region.halo.iter().copied());
        let violations = carried + halo.len();
        debug_assert_eq!(
            violations,
            checks::weak_splitting_violations(graph, &two, 0).len(),
            "the halo count disagrees with the whole-instance checker"
        );
        if violations > 0 {
            return None;
        }
        let mut ledger = RoundLedger::new();
        ledger.add_measured("churn repair (seeded incremental fixer)", 0.0);
        let why = format!(
            "re-fixed {} dirty variable(s), re-verified {} of {} constraints \
             ({:.2}% refix) after {} edit(s)",
            region.right.len(),
            region.halo.len(),
            graph.left_count(),
            100.0 * fraction,
            delta.len()
        );
        Some(certified_solution(
            &self.request,
            Certificate::counted(kind, violations),
            Output::TwoColoring(two),
            ledger,
            "weak-splitting/repair",
            Some((pipeline, params)),
            why,
        ))
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
    fn a_constraint_that_only_lost_edges_is_counted() {
        // δ = 6, r = 1 → Theorem 2.7; constraint 0 has 20 private
        // variables. Deleting its edges to the minority color leaves it
        // monochromatic on 10 or more clean variables, no dirty variable
        // is its neighbor afterwards, and δ, r and the route stay as they
        // were: only its place in the halo as an edited row counts it
        let mut edges: Vec<(usize, usize)> = (0..20).map(|v| (0, v)).collect();
        for u in 1..8usize {
            edges.extend((0..6).map(|j| (u, 20 + 6 * (u - 1) + j)));
        }
        let b = BipartiteGraph::from_edges(8, 62, &edges).unwrap();
        let request = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(7);
        let mut held = Session::new().hold(&request).unwrap();
        let colors = held.solution().output.two_coloring().unwrap().to_vec();
        let blue = colors[..20].iter().filter(|&&c| c == Color::Blue).count();
        let minority = if 2 * blue < 20 {
            Color::Blue
        } else {
            Color::Red
        };
        let deletes: Vec<(usize, usize)> = (0..20)
            .filter(|&v| colors[v] == minority)
            .map(|v| (0, v))
            .collect();
        let delta = held.delta(&[], &deletes).unwrap();
        let solution = held.apply(&delta).unwrap();
        assert!(solution.certificate.holds());
        assert!(solution.reverify(&Instance::Bipartite(held.instance().clone())));
        assert_eq!(solution.provenance.route, "theorem27");
        assert_eq!(held.stats().repairs, 0);
        assert_eq!(held.stats().full_resolves, 1);
    }

    #[test]
    fn adopt_refuses_a_solution_that_does_not_certify() {
        let mut rng = StdRng::seed_from_u64(71);
        let a = generators::random_biregular(1200, 1200, 28, &mut rng).unwrap();
        let request_a = Request::new(Problem::weak_splitting(), a.clone())
            .deterministic()
            .seed(71);
        let solution = Session::new().solve(&request_a).unwrap();
        // B has A's shape, with constraint 0 moved onto variables A's
        // solution colors Red, so that solution leaves it monochromatic
        let colors = solution.output.two_coloring().unwrap();
        let red = (0..a.right_count()).filter(|&v| colors[v] == Color::Red);
        let edges: Vec<(usize, usize)> = a
            .edges()
            .filter(|&(u, _)| u != 0)
            .chain(red.take(a.left_degree(0)).map(|v| (0, v)))
            .collect();
        let b = BipartiteGraph::from_edges(a.left_count(), a.right_count(), &edges).unwrap();
        let request_b = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(71);
        let err = HeldSolution::adopt(&Session::new(), &request_b, solution.clone()).unwrap_err();
        assert!(
            matches!(
                err,
                ApiError::InvalidRequest {
                    field: "solution",
                    ..
                }
            ),
            "{err}"
        );
        assert!(HeldSolution::adopt(&Session::new(), &request_a, solution).is_ok());
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
    fn the_held_request_owns_the_only_copy() {
        let mut rng = StdRng::seed_from_u64(61);
        let b = generators::random_biregular(1200, 1200, 28, &mut rng).unwrap();
        let request = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(61);
        let original = request.instance().clone();
        let solution = Session::new().solve(&request).unwrap();
        let mut held = HeldSolution::adopt(&Session::new(), &request, solution).unwrap();
        let graph = |r: &Request| r.instance().bipartite().unwrap() as *const BipartiteGraph;
        assert!(std::ptr::eq(held.instance(), graph(&request)), "shared");

        // while the caller keeps its request, an update copies the graph
        // and the caller's instance stays as it was
        let mut kept = held.clone();
        let delta = random_delta(held.instance(), ChurnStyle::Rewire, 6, &mut rng);
        let copied = kept.apply(&delta).unwrap();
        assert!(!std::ptr::eq(kept.instance(), graph(&request)));
        assert_eq!(*request.instance(), original);
        assert_ne!(Instance::Bipartite(kept.instance().clone()), original);

        // with the request dropped, nothing else shares the graph: the
        // update patches it in place, to the same result
        let address = graph(&request);
        drop(request);
        let patched = held.apply(&delta).unwrap();
        assert!(std::ptr::eq(held.instance(), address), "patched in place");
        assert_eq!(held.instance(), kept.instance());
        assert_eq!(patched.to_json_line(), copied.to_json_line());
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
