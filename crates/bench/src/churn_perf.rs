//! Experiment `churn` — incremental re-splitting under edge mutations:
//! the cost of one `HeldSolution::apply` update versus re-solving the
//! patched instance from scratch.
//!
//! Per churn style (grow / shrink / rewire), the bench holds a solved
//! weak-splitting instance and streams seeded edge-delta batches into
//! it. Every timed update is paired with a from-scratch
//! `Session::solve` of the identical patched instance, so the two
//! records of a style — `api.held_apply` and `api.solve`, one sample per
//! update — time two certified solutions of the same graph. Repaired
//! certificates are verified **in the loop**: `certificate.holds()`
//! inside the timed region, plus an untimed full `reverify` against the
//! patched instance after every update.
//!
//! The stream is preceded by warm-up updates (steady-state measurement:
//! the very first delete-containing update repairs from the pristine
//! derandomized coloring and may legitimately fall back to a full
//! re-solve; the route counters in the record report whatever happened
//! inside the timed window). Results feed `BENCH_churn.json`.

use crate::json::{params, Record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::delta::{random_delta, ChurnStyle};
use splitgraph::generators;
use splitting_api::{Instance, Problem, Request, Session};
use std::time::Instant;

/// Runs the churn benchmark; the records of `BENCH_churn.json`.
pub fn run_churn_perf(quick: bool) -> Vec<Record> {
    // full: n = 120 000 nodes, 2.4 M edges, 150-edit batches (0.25 % of
    // constraints per update, ≪ 1 % churn); δ = 40 keeps 2·log₂ n ≈ 33.7
    // at a margin so deletes cannot exit the Theorem 2.5 regime
    let (l, d, edits, warmup, updates) = if quick {
        (10_000, 36, 40, 2, 4)
    } else {
        (60_000, 40, 150, 2, 12)
    };
    let session = Session::new();
    let mut records = Vec::new();
    for style in ChurnStyle::ALL {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let b = generators::random_biregular(l, l, d, &mut rng).expect("feasible biregular");
        let request = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(1);
        let mut held = session.hold(&request).expect("regime is covered");
        for _ in 0..warmup {
            let delta = random_delta(held.instance(), style, edits, &mut rng);
            held.apply(&delta).expect("warm-up update solves");
        }
        let before = *held.stats();
        let edges = held.instance().edge_count();
        let mut update_ns = Vec::with_capacity(updates);
        let mut scratch_ns = Vec::with_capacity(updates);
        let mut certificates_verified = 0usize;
        for _ in 0..updates {
            let delta = random_delta(held.instance(), style, edits, &mut rng);
            // incremental side: apply + certificate check, timed
            let t0 = Instant::now();
            let repaired = held.apply(&delta).expect("update solves");
            assert!(repaired.certificate.holds(), "repaired certificate holds");
            update_ns.push(t0.elapsed().as_nanos());
            certificates_verified += 1;
            // full re-verification against the patched instance, in-loop
            // but untimed (the scratch side verifies internally too, so
            // the timed comparison stays one solve vs one update)
            let patched = Instance::Bipartite(held.instance().clone());
            assert!(repaired.reverify(&patched), "repair re-verifies");
            certificates_verified += 1;
            // scratch side: solve the identical patched instance
            let scratch_request = Request::new(Problem::weak_splitting(), held.instance().clone())
                .deterministic()
                .seed(1);
            let t0 = Instant::now();
            let scratch = session.solve(&scratch_request).expect("scratch solves");
            scratch_ns.push(t0.elapsed().as_nanos());
            std::hint::black_box(scratch.output.len());
        }
        let after = *held.stats();
        let repairs = after.repairs - before.repairs;
        let mean_refix_fraction = if repairs > 0 {
            (after.refix_sum() - before.refix_sum()) / repairs as f64
        } else {
            0.0
        };
        let shape =
            || params!["n" => 2 * l, "degree" => d, "edges" => edges, "edits_per_update" => edits];
        let mut apply_params = shape();
        apply_params.extend(params![
            "repairs" => repairs,
            "full_resolves" => after.full_resolves - before.full_resolves,
            "mean_refix_fraction" => mean_refix_fraction,
            "certificates_verified" => certificates_verified,
        ]);
        records.push(Record::new(
            "api.held_apply",
            style.name(),
            apply_params,
            update_ns,
        ));
        records.push(Record::new("api.solve", style.name(), shape(), scratch_ns));
    }
    records
}
