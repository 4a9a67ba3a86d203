//! Repair parity: the halo-restricted churn repair behind
//! [`HeldSolution::apply`] must decide and answer exactly like the
//! whole-instance replay it replaced.
//!
//! [`Reference`] below is that replay, kept here as the test-only
//! reference: a fresh [`FixerState`] over the whole patched instance, every
//! clean variable re-fixed to its previous color in ascending order, the
//! dirty variables greedily re-fixed, `Φ` summed over every constraint, and
//! the same fallback to a from-scratch solve. Over seeded delta streams of
//! every [`ChurnStyle`], plus streams built to force each kind of decline
//! (refix threshold 0, regime exit, a stale coloring that drives `Φ ≥ 1`),
//! both sides must agree on accept/decline and return byte-identical
//! [`Solution::to_json_line`] (or error) payloads at every step.

use derand::{ColoringEstimator, FixerState};
use local_runtime::RoundLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::delta::{random_delta, ChurnStyle, DirtyRegion, EdgeDelta};
use splitgraph::{checks, generators, BipartiteGraph, Color};
use splitting_api::{
    ApiError, Certificate, CertificateKind, Determinism, HeldSolution, Instance, Output, Pipeline,
    Problem, Provenance, RegimeParams, Request, Session, Solution, DEFAULT_REFIX_THRESHOLD,
};
use splitting_core::decide_pipeline;

/// Why the reference took the route it took on one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Repaired,
    /// No certified coloring to repair from (the previous update declined).
    NoColoring,
    /// The patched instance left the held pipeline's regime.
    Regime,
    /// The halo exceeded the refix threshold.
    Threshold,
    /// Seeding from the stale coloring could not certify (`Φ ≥ 1`).
    Phi,
    /// `Φ < 1` but the whole-instance check found violations.
    Violations,
}

/// The whole-instance replay repair, with [`HeldSolution::apply`]'s
/// fallback and bookkeeping.
struct Reference {
    session: Session,
    request: Request,
    graph: BipartiteGraph,
    colors: Option<Vec<Color>>,
    pipeline: Option<Pipeline>,
    threshold: f64,
}

impl Reference {
    fn new(request: &Request, solution: &Solution) -> Self {
        Reference {
            session: Session::new(),
            request: request.clone(),
            graph: request.instance().bipartite().unwrap().clone(),
            colors: solution.output.two_coloring().map(<[Color]>::to_vec),
            pipeline: solution.provenance.pipeline,
            threshold: DEFAULT_REFIX_THRESHOLD,
        }
    }

    fn apply(&mut self, delta: &EdgeDelta) -> (Route, Result<Solution, ApiError>) {
        let region = delta.apply(&mut self.graph).expect("delta validates");
        match self.try_repair(delta, &region) {
            Ok(solution) => {
                self.colors = solution.output.two_coloring().map(<[Color]>::to_vec);
                (Route::Repaired, Ok(solution))
            }
            Err(route) => {
                let mut request = Request::new(self.request.problem().clone(), self.graph.clone())
                    .determinism_policy(self.request.determinism())
                    .seed(self.request.master_seed());
                if let Some(p) = self.request.pipeline_override() {
                    request = request.force_pipeline(p);
                }
                let result = self.session.solve(&request);
                match &result {
                    Ok(solution) => {
                        self.colors = solution.output.two_coloring().map(<[Color]>::to_vec);
                        self.pipeline = solution.provenance.pipeline;
                    }
                    Err(_) => self.colors = None,
                }
                (route, result)
            }
        }
    }

    fn try_repair(&self, delta: &EdgeDelta, region: &DirtyRegion) -> Result<Solution, Route> {
        let Problem::WeakSplitting { thm12_constant } = *self.request.problem() else {
            panic!("the parity streams hold weak-splitting requests");
        };
        let prev = self.colors.as_deref().ok_or(Route::NoColoring)?;
        let pipeline = self.pipeline.ok_or(Route::NoColoring)?;
        let params = RegimeParams::of(&self.graph);
        let allow_randomized = self.request.determinism() == Determinism::Randomized;
        let expected = match self.request.pipeline_override() {
            Some(p) => p,
            None => {
                decide_pipeline(allow_randomized, thm12_constant, params).ok_or(Route::Regime)?
            }
        };
        if expected != pipeline {
            return Err(Route::Regime);
        }
        let fraction = region.refix_fraction(&self.graph);
        if fraction > self.threshold {
            return Err(Route::Threshold);
        }
        let nv = self.graph.right_count();
        let mut dirty = vec![false; nv];
        for &v in &region.right {
            dirty[v] = true;
        }
        let mut state = FixerState::new(&self.graph, ColoringEstimator::monochromatic(&self.graph));
        let mut colors: Vec<u32> = prev.iter().map(|&c| (c == Color::Blue) as u32).collect();
        for (v, &is_dirty) in dirty.iter().enumerate() {
            if !is_dirty {
                state.fix(v, colors[v]);
            }
        }
        for &v in &region.right {
            let x = state.best_color(v);
            state.fix(v, x);
            colors[v] = x;
        }
        if state.total() >= 1.0 {
            return Err(Route::Phi);
        }
        let two: Vec<Color> = colors
            .iter()
            .map(|&x| if x == 0 { Color::Red } else { Color::Blue })
            .collect();
        if !checks::weak_splitting_violations(&self.graph, &two, 0).is_empty() {
            return Err(Route::Violations);
        }
        let output = Output::TwoColoring(two);
        let certificate = Certificate::verify(
            CertificateKind::WeakSplitting { min_degree: 0 },
            &Instance::Bipartite(self.graph.clone()),
            &output,
        )
        .unwrap();
        let mut ledger = RoundLedger::new();
        ledger.add_measured("churn repair (seeded incremental fixer)", 0.0);
        Ok(Solution {
            output,
            certificate,
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
}

/// The held solution under test and its reference, started from the same
/// solve.
fn pair(request: &Request) -> (HeldSolution, Reference) {
    let held = Session::new().hold(request).unwrap();
    let reference = Reference::new(request, held.solution());
    (held, reference)
}

fn biregular(seed: u64) -> Request {
    let mut rng = StdRng::seed_from_u64(seed);
    // δ = r = 32 over n = 4000: the Theorem 2.5 regime with margin
    // (2·log₂ n ≈ 23.9), so random edits keep the instance in it
    let b = generators::random_biregular(2000, 2000, 32, &mut rng).unwrap();
    Request::new(Problem::weak_splitting(), b)
        .deterministic()
        .seed(seed)
}

/// Applies `delta` to both sides and asserts the same route and the same
/// payload bytes; returns the reference's route.
fn step(held: &mut HeldSolution, reference: &mut Reference, delta: &EdgeDelta) -> Route {
    let repairs_before = held.stats().repairs;
    let got = held.apply(delta);
    let (route, want) = reference.apply(delta);
    let repaired = held.stats().repairs > repairs_before;
    assert_eq!(
        repaired,
        route == Route::Repaired,
        "accept/decline split ({route:?})"
    );
    match (&got, &want) {
        (Ok(a), Ok(b)) => assert!(
            a.to_json_line() == b.to_json_line(),
            "solution bytes differ ({route:?})"
        ),
        (Err(a), Err(b)) => assert_eq!(a.to_json_line(), b.to_json_line()),
        _ => panic!("one side failed: {got:?} vs {want:?}"),
    }
    assert_eq!(held.instance(), &reference.graph);
    route
}

#[test]
fn seeded_streams_of_every_style_match_the_whole_instance_replay() {
    for (i, style) in ChurnStyle::ALL.into_iter().enumerate() {
        let seed = 100 + i as u64;
        let (mut held, mut reference) = pair(&biregular(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let mut repaired = 0;
        for _ in 0..8 {
            let delta = random_delta(held.instance(), style, 6, &mut rng);
            if step(&mut held, &mut reference, &delta) == Route::Repaired {
                repaired += 1;
            }
        }
        assert!(
            repaired > 0,
            "{style:?}: the stream never took the repair path"
        );
    }
}

#[test]
fn mixed_style_stream_matches_the_whole_instance_replay() {
    let (mut held, mut reference) = pair(&biregular(7));
    let mut rng = StdRng::seed_from_u64(8);
    for k in 0..9 {
        let style = ChurnStyle::ALL[k % 3];
        let delta = random_delta(held.instance(), style, 1 + k % 5, &mut rng);
        step(&mut held, &mut reference, &delta);
    }
}

#[test]
fn zero_threshold_declines_on_both_sides() {
    let (mut held, mut reference) = pair(&biregular(21));
    held.set_refix_threshold(0.0);
    reference.threshold = 0.0;
    let mut rng = StdRng::seed_from_u64(22);
    for style in ChurnStyle::ALL {
        let delta = random_delta(held.instance(), style, 4, &mut rng);
        assert_eq!(step(&mut held, &mut reference, &delta), Route::Threshold);
    }
}

#[test]
fn regime_exit_declines_on_both_sides() {
    // δ = 6, r = 1 → Theorem 2.7 (δ ≥ 6r); deleting one constraint's edges
    // drops δ to 0, outside every regime
    let mut edges = Vec::new();
    for u in 0..4usize {
        for j in 0..6usize {
            edges.push((u, 6 * u + j));
        }
    }
    let b = BipartiteGraph::from_edges(4, 24, &edges).unwrap();
    let request = Request::new(Problem::weak_splitting(), b)
        .deterministic()
        .seed(5);
    let (mut held, mut reference) = pair(&request);
    let pairs: Vec<(usize, usize)> = (0..6).map(|j| (0, j)).collect();
    let delta = held.delta(&[], &pairs).unwrap();
    assert_eq!(step(&mut held, &mut reference, &delta), Route::Regime);
    // the decline dropped the coloring: re-entering the regime re-solves
    let delta = held.delta(&pairs, &[]).unwrap();
    assert_eq!(step(&mut held, &mut reference, &delta), Route::NoColoring);
    // and a degree-preserving swap between constraints 0 and 1 repairs
    // from the fresh solve again (its halo is half the instance, so the
    // threshold is lifted on both sides)
    held.set_refix_threshold(1.0);
    reference.threshold = 1.0;
    let delta = held.delta(&[(0, 6), (1, 0)], &[(0, 0), (1, 6)]).unwrap();
    assert_eq!(step(&mut held, &mut reference, &delta), Route::Repaired);
}

#[test]
fn stale_coloring_with_phi_over_one_declines_on_both_sides() {
    let (mut held, mut reference) = pair(&biregular(31));
    // the stale constraint loses half its edges below; the threshold is
    // lifted so only Φ can decline, and constraint 0 first grows to degree
    // 72 so the deletes keep it above the regime's δ ≥ 2·log₂ n
    held.set_refix_threshold(1.0);
    reference.threshold = 1.0;
    let u = 0usize;
    let grow: Vec<(usize, usize)> = (0..held.instance().right_count())
        .filter(|&v| !held.instance().contains_edge(u, v))
        .take(40)
        .map(|v| (u, v))
        .collect();
    let delta = held.delta(&grow, &[]).unwrap();
    step(&mut held, &mut reference, &delta);
    // delete every edge from constraint 0 to its minority color: its
    // remaining neighbors are clean and monochromatic, so the seeded Φ
    // is at least 1 before any dirty variable is re-fixed
    let colors = held.solution().output.two_coloring().unwrap().to_vec();
    let neighbors = held.instance().left_neighbors(u).to_vec();
    let blue = neighbors
        .iter()
        .filter(|&&v| colors[v] == Color::Blue)
        .count();
    let minority = if 2 * blue <= neighbors.len() {
        Color::Blue
    } else {
        Color::Red
    };
    let cut: Vec<(usize, usize)> = neighbors
        .iter()
        .filter(|&&v| colors[v] == minority)
        .map(|&v| (u, v))
        .collect();
    assert!(!cut.is_empty());
    let delta = held.delta(&[], &cut).unwrap();
    assert_eq!(step(&mut held, &mut reference, &delta), Route::Phi);
    // both sides re-solved the same patched instance
    assert!(held.solution().certificate.holds());
}
