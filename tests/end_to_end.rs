//! Cross-crate integration tests: full paper pipelines from generators
//! through simulators to validated outputs.

use degree_split::Flavor;
use distributed_splitting::core;
use distributed_splitting::reductions;
use distributed_splitting::splitgraph::{self, checks, generators};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn deterministic_track_theorem25_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1);
    let b = generators::random_biregular(150, 300, 20, &mut rng).unwrap();
    let (out, report) = core::theorem25(&b, Flavor::Deterministic).unwrap();
    assert!(checks::is_weak_splitting(&b, &out.colors, 0));
    // small-degree regime: Lemma 2.2 path
    assert_eq!(report.drr_iterations, 0);
    // the ledger separates measured and charged costs
    assert!(out.ledger.measured_total() > 0.0);
}

#[test]
fn randomized_track_theorem12_end_to_end() {
    let mut rng = StdRng::seed_from_u64(2);
    let b = generators::random_biregular(2048, 8192, 24, &mut rng).unwrap();
    let cfg = core::Theorem12Config {
        c_constant: 1.5,
        ..Default::default()
    };
    let (out, report) = core::theorem12_with_report(&b, &cfg).unwrap();
    assert!(checks::is_weak_splitting(&b, &out.colors, 0));
    assert!(report.attempts_used >= 1);
    assert!(
        out.ledger.measured_total() >= 3.0,
        "shattering costs 3 rounds"
    );
}

#[test]
fn figure1_pipeline_derives_sinkless_orientation() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = generators::random_regular(150, 24, &mut rng).unwrap();
    let ids: Vec<u64> = (0..150).collect();
    let red = core::sinkless_via_weak_splitting(&g, &ids, 4).unwrap();
    assert!(red.instance.bipartite.rank() <= 2);
    assert!(checks::is_sinkless(&g, &red.orientation, 1));
}

#[test]
fn completeness_chain_thm33_into_thm32_regimes() {
    // the Section 3 chain: (C, λ)-splitting → weak multicolor → weak splitting
    let mut rng = StdRng::seed_from_u64(4);
    let b = generators::random_left_regular(96, 2048, 1024, &mut rng).unwrap();
    // membership algorithms validate their own definitions
    let mc = core::weak_multicolor_deterministic(&b).unwrap();
    let n = b.node_count();
    assert!(checks::is_weak_multicolor_splitting(
        &b,
        &mc.colors,
        splitgraph::math::weak_multicolor_degree_threshold(n),
        splitgraph::math::weak_multicolor_required_colors(n),
    ));
    // and the reduction recovers a weak splitting
    let out = core::weak_splitting_via_weak_multicolor(&b).unwrap();
    assert!(checks::is_weak_splitting(&b, &out.colors, 0));
}

#[test]
fn high_girth_track_theorems_52_53() {
    let (b, _) = generators::projective_girth12_bipartite(23).unwrap();
    let det = core::theorem52(&b, 1, false, core::GirthScheduling::Reference).unwrap();
    assert!(checks::is_weak_splitting(&b, &det.colors, 0));
    let rand = core::theorem53(&b, 2, false).unwrap();
    assert!(checks::is_weak_splitting(&b, &rand.colors, 0));
}

#[test]
fn section4_track_coloring_and_mis() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::random_regular(512, 64, &mut rng).unwrap();
    let (colors, report, _) = reductions::delta_coloring_via_splitting(&g, 40, None).unwrap();
    assert!(checks::is_proper_coloring(&g, &colors));
    assert!(report.ratio >= 1.0);

    let (mis, _, _) = reductions::mis_via_splitting(&g, 40, 3);
    assert!(checks::is_mis(&g, &mis));
}

#[test]
fn session_covers_all_paper_regimes() {
    use distributed_splitting::api::{Problem, Request, Session};
    let mut rng = StdRng::seed_from_u64(6);
    // Theorem 2.7 regime
    let skewed = generators::random_biregular(12, 72, 12, &mut rng).unwrap();
    // zero-round / Theorem 2.5 regime
    let balanced = generators::random_biregular(100, 100, 20, &mut rng).unwrap();
    let session = Session::new();
    for (b, randomized) in [
        (&skewed, false),
        (&skewed, true),
        (&balanced, false),
        (&balanced, true),
    ] {
        let request = Request::new(Problem::weak_splitting(), b.clone());
        let request = if randomized {
            request
        } else {
            request.deterministic()
        };
        let solution = session.solve(&request).unwrap();
        let colors = solution.output.two_coloring().unwrap();
        assert!(checks::is_weak_splitting(b, colors, 0));
    }
}

#[test]
fn doubling_instances_roundtrip_through_solvers() {
    // Section 1.2: general graph → bipartite weak splitting instance
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::random_regular(128, 24, &mut rng).unwrap();
    let b = generators::doubling_instance(&g);
    assert_eq!(b.min_left_degree(), 24);
    assert_eq!(b.rank(), 24);
    // δ = 24 ≥ 2·log(256) = 16: zero-round and Lemma 2.1 both apply
    let out = core::zero_round_whp(&b, 5, 16).unwrap();
    assert!(checks::is_weak_splitting(&b, &out.colors, 0));
    let det = core::basic_deterministic(&b, b.node_count()).unwrap();
    assert!(checks::is_weak_splitting(&b, &det.colors, 0));
}
