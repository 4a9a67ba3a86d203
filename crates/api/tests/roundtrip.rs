//! Round-trip coverage of the request/solution boundary: every
//! [`Problem`] variant goes through `Request` → `Session::solve` →
//! `Solution` on a small conformance-style scenario, and the result is
//! checked two ways:
//!
//! 1. the returned [`Certificate`] holds and re-verifies against the
//!    instance (`Solution::reverify`);
//! 2. the output is **bit-identical** to the entrypoint the API
//!    dispatches to, called directly under the same seed.
//!
//! The scenarios mirror the conformance corpus families at quick-tier
//! sizes (biregular density regimes, a skewed Theorem 2.7 instance, a
//! regular Section 4 host, a small multigraph).

use degree_split::{DegreeSplitter, Engine, Flavor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use splitgraph::{checks, generators, BipartiteGraph, Graph, MultiGraph};
use splitting_api::{ApiError, Determinism, Problem, Request, Session, Solution};
use splitting_core as core;
use splitting_reductions as red;

const SEED: u64 = 0xAB1DE;

/// Dense biregular instance: the Theorem 2.5 / zero-round regime.
fn dense_bipartite() -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(2);
    generators::random_biregular(100, 100, 20, &mut rng).unwrap()
}

/// Skewed instance: the Theorem 2.7 regime (δ = 12 ≥ 6r).
fn skewed_bipartite() -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(1);
    generators::random_biregular(12, 72, 12, &mut rng).unwrap()
}

/// Regular host graph for the Section 4 reductions.
fn host_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(3);
    generators::random_regular(128, 16, &mut rng).unwrap()
}

/// Dense regular host where the uniform Chernoff certificate holds.
fn dense_host() -> Graph {
    let mut rng = StdRng::seed_from_u64(4);
    generators::random_regular(128, 48, &mut rng).unwrap()
}

/// Small random multigraph (degree-splitting substrate).
fn multigraph() -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(5);
    let mut g = MultiGraph::new(25);
    for _ in 0..80 {
        let a = rng.random_range(0..25usize);
        let mut b = rng.random_range(0..25usize);
        while b == a {
            b = rng.random_range(0..25usize);
        }
        g.add_edge(a, b);
    }
    g
}

fn solve_ok(request: &Request) -> Solution {
    let solution = Session::new().solve(request).expect("request is solvable");
    assert!(solution.certificate.holds(), "{}", solution.certificate);
    assert!(
        solution.reverify(request.instance()),
        "certificate does not re-verify"
    );
    // the JSON line is stable and single-line
    let line = solution.to_json_line();
    assert!(line.starts_with("{\"event\":\"solution\""), "{line}");
    assert!(!line.contains('\n'));
    solution
}

#[test]
fn weak_splitting_matches_its_entrypoint_randomized() {
    let b = dense_bipartite();
    let solution = solve_ok(&Request::new(Problem::weak_splitting(), b.clone()).seed(SEED));
    assert_eq!(
        solution.provenance.pipeline,
        Some(core::Pipeline::ZeroRound)
    );
    // the zero-round entrypoint with its default retry budget
    let direct = core::zero_round_whp(&b, SEED, 32).unwrap();
    assert_eq!(solution.output.two_coloring().unwrap(), &direct.colors[..]);
}

#[test]
fn weak_splitting_matches_its_entrypoint_deterministic() {
    let b = dense_bipartite();
    let solution = solve_ok(&Request::new(Problem::weak_splitting(), b.clone()).deterministic());
    assert_eq!(
        solution.provenance.pipeline,
        Some(core::Pipeline::Theorem25)
    );
    let (direct, _) = core::theorem25(&b, Flavor::Deterministic).unwrap();
    assert_eq!(solution.output.two_coloring().unwrap(), &direct.colors[..]);
}

#[test]
fn weak_splitting_skewed_dispatches_theorem27() {
    let b = skewed_bipartite();
    let solution = solve_ok(&Request::new(Problem::weak_splitting(), b.clone()).seed(SEED));
    assert_eq!(
        solution.provenance.pipeline,
        Some(core::Pipeline::Theorem27)
    );
    let legacy = core::theorem27(&b, core::Variant::Randomized(SEED)).unwrap();
    assert_eq!(solution.output.two_coloring().unwrap(), &legacy.colors[..]);
}

#[test]
fn weak_splitting_pipeline_override_forces_theorem25() {
    // the dense instance would dispatch to zero-round under the
    // randomized policy; the override forces the deterministic headline
    let b = dense_bipartite();
    let solution = solve_ok(
        &Request::new(Problem::weak_splitting(), b.clone())
            .seed(SEED)
            .force_pipeline(core::Pipeline::Theorem25),
    );
    assert_eq!(
        solution.provenance.pipeline,
        Some(core::Pipeline::Theorem25)
    );
    assert!(solution.provenance.why.contains("override"));
    let (legacy, _) = core::theorem25(&b, Flavor::Deterministic).unwrap();
    assert_eq!(solution.output.two_coloring().unwrap(), &legacy.colors[..]);
}

#[test]
fn weak_splitting_uncovered_regime_is_typed() {
    let mut rng = StdRng::seed_from_u64(4);
    let b = generators::random_biregular(128, 256, 4, &mut rng).unwrap();
    let err = Session::new()
        .solve(&Request::new(Problem::weak_splitting(), b))
        .unwrap_err();
    assert_eq!(err.kind(), "unsupported-regime");
}

#[test]
fn weak_multicolor_matches_legacy_both_policies() {
    // Definition 1.3 needs huge degrees relative to 2·log n — the
    // conformance corpus's multicolor-def13 family at quick-tier size
    let mut rng = StdRng::seed_from_u64(6);
    let b = generators::random_left_regular(18, 512, 256, &mut rng).unwrap();

    let det = solve_ok(&Request::new(Problem::WeakMulticolor, b.clone()).deterministic());
    let legacy = core::weak_multicolor_deterministic(&b).unwrap();
    let (colors, palette) = det.output.multi_coloring().unwrap();
    assert_eq!(colors, &legacy.colors[..]);
    assert_eq!(palette, legacy.palette);

    let rand = solve_ok(&Request::new(Problem::WeakMulticolor, b.clone()).seed(SEED));
    let legacy = core::weak_multicolor_random(&b, SEED);
    assert_eq!(rand.output.multi_coloring().unwrap().0, &legacy.colors[..]);
}

#[test]
fn multicolor_splitting_matches_legacy_both_policies() {
    let b = dense_bipartite();
    let problem = Problem::MulticolorSplitting {
        colors: 6,
        lambda: 0.6,
    };

    let det = solve_ok(&Request::new(problem.clone(), b.clone()).deterministic());
    let legacy = core::multicolor_splitting_deterministic(&b, 6, 0.6).unwrap();
    let (colors, palette) = det.output.multi_coloring().unwrap();
    assert_eq!(colors, &legacy.colors[..]);
    assert_eq!(palette, legacy.palette);

    let rand = solve_ok(&Request::new(problem, b.clone()).seed(SEED));
    let legacy = core::multicolor_splitting_random(&b, 6, 0.6, SEED);
    assert_eq!(rand.output.multi_coloring().unwrap().0, &legacy.colors[..]);
}

#[test]
fn uniform_splitting_matches_legacy_both_policies() {
    let g = dense_host();
    let eps = red::feasible_eps(g.node_count(), 48);
    let problem = Problem::UniformSplitting {
        eps: None,
        min_degree: None,
    };

    let det = solve_ok(&Request::new(problem.clone(), g.clone()).deterministic());
    let legacy = red::uniform_splitting_deterministic(&g, eps, 48).unwrap();
    assert_eq!(det.output.two_coloring().unwrap(), &legacy.colors[..]);

    // the randomized route replays the legacy Las Vegas loop: first
    // certifying seed in seed, seed+1, ... wins
    let rand = solve_ok(&Request::new(problem, g.clone()).seed(SEED));
    let legacy_las_vegas = (0..16)
        .map(|i| red::uniform_splitting_random(&g, SEED.wrapping_add(i)))
        .find(|sides| checks::is_uniform_splitting(&g, sides, eps, 48))
        .expect("some seed certifies");
    assert_eq!(rand.output.two_coloring().unwrap(), &legacy_las_vegas[..]);
}

#[test]
fn degree_splitting_matches_legacy_both_engines() {
    let g = multigraph();
    for (engine, determinism) in [
        (Engine::EulerianOracle, Determinism::Deterministic),
        (Engine::EulerianOracle, Determinism::Randomized),
        (Engine::Walk, Determinism::Deterministic),
    ] {
        let problem = Problem::DegreeSplitting { eps: 0.25, engine };
        let solution = solve_ok(
            &Request::new(problem, g.clone())
                .determinism_policy(determinism)
                .seed(SEED),
        );
        let flavor = match determinism {
            Determinism::Deterministic => Flavor::Deterministic,
            Determinism::Randomized => Flavor::Randomized,
        };
        let legacy = DegreeSplitter::new(0.25, engine, flavor).split(&g, g.node_count());
        let bits = |o: &splitgraph::Orientation| -> Vec<bool> {
            (0..o.edge_count())
                .map(|e| o.is_towards_second(e))
                .collect()
        };
        assert_eq!(
            bits(solution.output.edge_orientation().unwrap()),
            bits(&legacy.orientation),
            "{engine:?}/{determinism:?}"
        );
        assert_eq!(solution.ledger.total(), legacy.ledger.total());
    }
}

#[test]
fn sinkless_orientation_matches_legacy_reduction() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::random_regular(60, 24, &mut rng).unwrap();
    let solution = solve_ok(&Request::new(Problem::SinklessOrientation, g.clone()).seed(SEED));
    let ids: Vec<u64> = (0..60).collect();
    let legacy = core::sinkless_via_weak_splitting(&g, &ids, SEED).unwrap();
    assert_eq!(
        solution.output.host_orientation().unwrap().forward,
        legacy.orientation.forward
    );
}

#[test]
fn delta_coloring_matches_legacy_reduction() {
    let g = host_graph();
    let problem = Problem::DeltaColoring {
        base_degree: Some(28),
        max_eps: Some(0.35),
    };
    let solution = solve_ok(&Request::new(problem, g.clone()).deterministic());
    let (legacy, report, _) = red::delta_coloring_via_splitting(&g, 28, Some(0.35)).unwrap();
    let (colors, palette) = solution.output.multi_coloring().unwrap();
    assert_eq!(colors, &legacy[..]);
    assert_eq!(palette, report.palette.max(1));
}

#[test]
fn edge_coloring_matches_legacy_both_engines() {
    let g = host_graph();
    for engine in [red::EdgeSplitEngine::Eulerian, red::EdgeSplitEngine::Walk] {
        let problem = Problem::EdgeColoring {
            base_degree: Some(8),
            engine,
        };
        let solution = solve_ok(&Request::new(problem, g.clone()));
        let (legacy, _, _) = red::edge_coloring_via_splitting(&g, 8, engine).unwrap();
        assert_eq!(
            solution.output.multi_coloring().unwrap().0,
            &legacy[..],
            "{engine:?}"
        );
    }
}

#[test]
fn mis_matches_legacy_reduction() {
    let g = host_graph();
    let problem = Problem::Mis { base_degree: None };
    let solution = solve_ok(&Request::new(problem.clone(), g.clone()).seed(SEED));
    let base = 4 * splitgraph::math::ceil_log2(g.node_count()) as usize;
    let (legacy, _, _) = red::mis_via_splitting(&g, base, SEED);
    assert_eq!(solution.output.independent_set().unwrap(), &legacy[..]);

    // the deterministic policy is honestly rejected (Lemma 4.2's oracle
    // A is instantiated randomized — the open problem)
    let err = Session::new()
        .solve(&Request::new(problem, g).deterministic())
        .unwrap_err();
    assert_eq!(err.kind(), "invalid-request");
}

#[test]
fn round_budget_is_enforced() {
    let b = dense_bipartite();
    // deterministic Theorem 2.5 charges thousands of rounds; 1.0 is
    // far below any real ledger
    let err = Session::new()
        .solve(
            &Request::new(Problem::weak_splitting(), b)
                .deterministic()
                .max_rounds(1.0),
        )
        .unwrap_err();
    match err {
        ApiError::BudgetExceeded { budget, needed } => {
            assert_eq!(budget, 1.0);
            assert!(needed > 1.0);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn invalid_parameters_are_rejected_before_solving() {
    let b = dense_bipartite();
    let err = Session::new()
        .solve(&Request::new(
            Problem::MulticolorSplitting {
                colors: 6,
                lambda: 1.5,
            },
            b.clone(),
        ))
        .unwrap_err();
    assert_eq!(err.kind(), "invalid-request");

    // instance-shape mismatch: weak splitting over a host graph
    let err = Session::new()
        .solve(&Request::new(Problem::weak_splitting(), Graph::new(4)))
        .unwrap_err();
    assert_eq!(err.kind(), "invalid-request");

    // estimator honestly declines an uncertifiable accuracy
    let mut rng = StdRng::seed_from_u64(3);
    let g = generators::random_regular(128, 16, &mut rng).unwrap();
    let err = Session::new()
        .solve(
            &Request::new(
                Problem::UniformSplitting {
                    eps: Some(0.01),
                    min_degree: Some(16),
                },
                g,
            )
            .deterministic(),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "certification-unavailable");
}

#[test]
fn solutions_and_errors_render_stable_json_lines() {
    let b = dense_bipartite();
    let solution = solve_ok(&Request::new(Problem::weak_splitting(), b).seed(SEED));
    let line = solution.to_json_line();
    for field in [
        "\"problem\":\"weak-splitting\"",
        "\"route\":\"zero-round\"",
        "\"certificate\":{\"kind\":\"weak-splitting\",\"holds\":true",
        "\"output\":{\"type\":\"two-coloring\",\"len\":100}",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
    let err = ApiError::BudgetExceeded {
        budget: 1.0,
        needed: 2.0,
    };
    assert_eq!(
        err.to_json_line(),
        "{\"event\":\"error\",\"kind\":\"budget-exceeded\",\
         \"detail\":\"round budget exceeded: need 2, budget 1\"}"
    );
}

#[test]
fn deterministic_policy_cannot_be_bypassed() {
    // forcing a randomized pipeline under the deterministic policy is a
    // typed error, not a silent randomized run
    let b = dense_bipartite();
    let err = Session::new()
        .solve(
            &Request::new(Problem::weak_splitting(), b)
                .deterministic()
                .force_pipeline(core::Pipeline::ZeroRound),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "invalid-request");
    assert!(err.to_string().contains("zero-round"), "{err}");

    // sinkless below the Theorem 2.7 window (δ_G < 23): the only in-tree
    // solver is the randomized rank-2 reference, so the deterministic
    // track is honestly refused …
    let mut rng = StdRng::seed_from_u64(8);
    let sparse = generators::random_regular(60, 6, &mut rng).unwrap();
    let err = Session::new()
        .solve(&Request::new(Problem::SinklessOrientation, sparse).deterministic())
        .unwrap_err();
    assert_eq!(err.kind(), "unsupported-regime");

    // … while above the window (δ_G ≥ 23 ⇒ δ_B ≥ 6·r_B) Theorem 2.7
    // solves it deterministically
    let mut rng = StdRng::seed_from_u64(7);
    let dense = generators::random_regular(60, 24, &mut rng).unwrap();
    let solution = solve_ok(&Request::new(Problem::SinklessOrientation, dense).deterministic());
    assert!(solution.certificate.holds());
}

#[test]
fn certificate_shape_mismatch_errors_instead_of_panicking() {
    use splitting_api::{Certificate, CertificateKind, Instance, Output};
    let inst = Instance::from(dense_bipartite());
    // wrong length: 3 colors for 100 variables
    let short = Output::TwoColoring(vec![splitgraph::Color::Red; 3]);
    let err = Certificate::verify(
        CertificateKind::WeakSplitting { min_degree: 0 },
        &inst,
        &short,
    )
    .unwrap_err();
    assert_eq!(err.kind(), "invalid-request");

    // reverify against a mismatched instance degrades to false, not a panic
    let solution = solve_ok(&Request::new(Problem::weak_splitting(), dense_bipartite()));
    let other = Instance::from(skewed_bipartite());
    assert!(!solution.reverify(&other));

    // out-of-palette colors are a shape error for the (C, λ) predicate
    let bad = Output::MultiColoring {
        colors: vec![9; 100],
        palette: 6,
    };
    let err = Certificate::verify(
        CertificateKind::MulticolorSplitting {
            lambda: 0.6,
            min_degree: 0,
        },
        &inst,
        &bad,
    )
    .unwrap_err();
    assert_eq!(err.kind(), "invalid-request");
}
