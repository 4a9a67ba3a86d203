//! Lemma 2.1 with reference scheduling is pinned, colors and full ledger,
//! against the pipeline it was first written as: materialize the variable
//! square with `right_square`, greedy-color it in identity order, and run
//! `phased_fix` on that schedule. The instances are the two Theorem 2.5
//! shapes of the end-to-end benchmark at small scale (a Lemma 2.2 biregular
//! one and a DRR-I dense left-regular one), each as given, truncated to
//! `⌈2·log n⌉` the way Lemma 2.2 feeds Lemma 2.1, and after one DRR-I
//! iteration; plus one instance where the union bound fails.

use degree_split::{DegreeSplitter, Engine, Flavor};
use derand::{phased_fix, ColoringEstimator};
use local_coloring::greedy_sequential;
use local_runtime::RoundLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::math::{log_star, weak_splitting_degree_threshold};
use splitgraph::{generators, right_square, BipartiteGraph};
use splitting_core::{
    basic_deterministic_unchecked, degree_rank_reduction_i, to_two_coloring, truncate_left_degrees,
    SchedulingMode, SplitError, SplitOutcome,
};

/// Lemma 2.1 over the materialized square.
fn materialized_reference(b: &BipartiteGraph) -> Result<SplitOutcome, SplitError> {
    let mut ledger = RoundLedger::new();
    let sq = right_square(b);
    let order: Vec<usize> = (0..sq.node_count()).collect();
    let colors = greedy_sequential(&sq, &order);
    ledger.add_charged(
        "B² coloring (BEK14a: Δr + log* n)",
        (sq.max_degree() + 1) as f64 + log_star(b.node_count().max(2)) as f64,
    );
    let est = ColoringEstimator::monochromatic(b);
    let fix = phased_fix(b, est, &colors, sq.max_degree() as u32 + 1);
    ledger.add_measured(
        "conditional-expectation phases (2 per color class)",
        fix.rounds as f64,
    );
    if fix.initial_phi >= 1.0 {
        return Err(SplitError::EstimatorTooLarge {
            phi: fix.initial_phi,
        });
    }
    Ok(SplitOutcome {
        colors: to_two_coloring(&fix.colors),
        ledger,
    })
}

fn assert_pinned(b: &BipartiteGraph, what: &str) {
    let fused = basic_deterministic_unchecked(b, SchedulingMode::Reference);
    match (fused, materialized_reference(b)) {
        (Ok(fused), Ok(reference)) => {
            assert_eq!(fused.colors, reference.colors, "{what}: colors");
            assert_eq!(fused.ledger, reference.ledger, "{what}: ledger");
        }
        (Err(fused), Err(reference)) => assert_eq!(fused, reference, "{what}: error"),
        (fused, reference) => panic!("{what}: {fused:?} vs {reference:?}"),
    }
}

/// The instance, its Lemma 2.2 truncation, and its residual after one
/// DRR-I iteration.
fn assert_pinned_with_derived(b: &BipartiteGraph, what: &str) {
    assert_pinned(b, what);
    let threshold = weak_splitting_degree_threshold(b.node_count());
    assert_pinned(
        &truncate_left_degrees(b, threshold),
        &format!("{what}, truncated"),
    );
    let splitter = DegreeSplitter::new(1.0 / 3.0, Engine::EulerianOracle, Flavor::Deterministic);
    let residual = degree_rank_reduction_i(b, &splitter, 1).graph;
    assert_pinned(&residual, &format!("{what}, after one DRR-I iteration"));
}

#[test]
fn lemma22_shape_matches_materialized_square() {
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::random_biregular(150, 150, 24, &mut rng).unwrap();
        assert_pinned_with_derived(&b, &format!("biregular(150, 150, 24) seed {seed}"));
    }
}

#[test]
fn drr1_shape_matches_materialized_square() {
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = generators::random_left_regular(16, 128, 112, &mut rng).unwrap();
        assert_pinned_with_derived(&b, &format!("left_regular(16, 128, 112) seed {seed}"));
    }
}

#[test]
fn large_phi_fails_identically() {
    let mut rng = StdRng::seed_from_u64(5);
    // degree 3: Φ = 100·2·2^{-3} = 25 ≥ 1
    let b = generators::random_left_regular(100, 60, 3, &mut rng).unwrap();
    assert!(matches!(
        materialized_reference(&b),
        Err(SplitError::EstimatorTooLarge { .. })
    ));
    assert_pinned(&b, "left_regular(100, 60, 3)");
}
