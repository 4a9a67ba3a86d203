//! Experiment `api` — throughput of the unified request/solution layer:
//! one `Session::solve` per request versus the theorem entrypoints called
//! directly.
//!
//! Two records per workload:
//!
//! * **`api.direct`** — a hand-written loop over the per-theorem
//!   entrypoints (what callers did before the API existed);
//! * **`api.solve`** — the same work as one `Session::solve` per request:
//!   its median over `api.direct`'s is the boundary's overhead (request
//!   validation, dispatch, certificate verification, provenance assembly).
//!
//! Results feed `BENCH_api.json`.

use crate::json::{params, sample, Record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::generators;
use splitting_api::{Problem, Request, Session};
use splitting_core as core;
use splitting_reductions as red;

/// One workload: a request batch plus the matching direct-call loop.
struct Workload {
    name: &'static str,
    requests: Vec<Request>,
    direct: Box<dyn Fn()>,
}

fn weak_batch(name: &'static str, count: usize, nu: usize, d: usize, randomized: bool) -> Workload {
    let instances: Vec<_> = (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0xA110 + i as u64);
            generators::random_biregular(nu, nu, d, &mut rng).expect("feasible")
        })
        .collect();
    let requests = instances
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let r = Request::new(Problem::weak_splitting(), b.clone()).seed(i as u64);
            if randomized {
                r
            } else {
                r.deterministic()
            }
        })
        .collect();
    // the entrypoint the dispatch picks for these dense instances,
    // called directly with the request's seed
    let pipeline = if randomized {
        core::Pipeline::ZeroRound
    } else {
        core::Pipeline::Theorem25
    };
    assert!(
        instances.iter().all(
            |b| core::decide_pipeline(randomized, 3.0, core::RegimeParams::of(b)) == Some(pipeline)
        ),
        "the direct loop calls the dispatched entrypoint"
    );
    let direct = Box::new(move || {
        for (i, b) in instances.iter().enumerate() {
            let out = if randomized {
                core::zero_round_whp(b, i as u64, 32)
            } else {
                core::theorem25(b, degree_split::Flavor::Deterministic).map(|(out, _)| out)
            };
            std::hint::black_box(out.expect("covered regime").colors.len());
        }
    });
    Workload {
        name,
        requests,
        direct,
    }
}

fn mixed_batch(count: usize, n: usize, d: usize) -> Workload {
    let hosts: Vec<_> = (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0xB220 + i as u64);
            generators::random_regular(n, d, &mut rng).expect("feasible")
        })
        .collect();
    let requests = hosts
        .iter()
        .enumerate()
        .flat_map(|(i, g)| {
            [
                Request::new(Problem::Mis { base_degree: None }, g.clone()).seed(i as u64),
                Request::new(
                    Problem::EdgeColoring {
                        base_degree: Some(8),
                        engine: red::EdgeSplitEngine::Eulerian,
                    },
                    g.clone(),
                ),
            ]
        })
        .collect();
    let direct = Box::new(move || {
        for (i, g) in hosts.iter().enumerate() {
            let base = 4 * splitgraph::math::ceil_log2(g.node_count().max(2)) as usize;
            let (mis, _, _) = red::mis_via_splitting(g, base, i as u64);
            std::hint::black_box(mis.len());
            let (colors, _, _) =
                red::edge_coloring_via_splitting(g, 8, red::EdgeSplitEngine::Eulerian)
                    .expect("non-empty");
            std::hint::black_box(colors.len());
        }
    });
    Workload {
        name: "mixed_reductions_batch",
        requests,
        direct,
    }
}

/// Runs the API benchmark; the records of `BENCH_api.json`.
pub fn run_api_perf(quick: bool) -> Vec<Record> {
    let (samples, wcount, wsize, wdeg, dcount, mcount, msize) = if quick {
        (5, 16, 60, 16, 6, 3, 64)
    } else {
        (11, 64, 100, 20, 16, 6, 128)
    };
    let workloads = vec![
        // zero-round dispatch: the work per request is tiny, so this is
        // the purest measurement of the boundary's own cost
        weak_batch("zero_round_batch", wcount, wsize, wdeg, true),
        // Theorem 2.5: compute-heavy deterministic requests
        weak_batch("theorem25_batch", dcount, wsize, wdeg, false),
        // Section 4 reductions over host graphs (MIS + edge coloring)
        mixed_batch(mcount, msize, 8.min(msize - 1)),
    ];

    let mut records = Vec::new();
    for w in &workloads {
        let requests = w.requests.len();
        // warm-up, then the direct-call baseline
        (w.direct)();
        let ((), wall) = sample(samples, || (w.direct)());
        records.push(Record::new(
            "api.direct",
            w.name,
            params!["requests" => requests],
            wall,
        ));

        let session = Session::new();
        let ((), wall) = sample(samples, || {
            for r in &w.requests {
                let s = session.solve(r).expect("workload requests are solvable");
                std::hint::black_box(s.output.len());
            }
        });
        records.push(Record::new(
            "api.solve",
            w.name,
            params!["requests" => requests],
            wall,
        ));
    }
    records
}
