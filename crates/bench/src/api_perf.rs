//! Experiment `api` — throughput of the unified request/solution layer:
//! batched `Session::solve_batch` dispatch versus sequential single-call
//! dispatch versus the raw legacy entrypoints.
//!
//! Three quantities per workload:
//!
//! * **legacy** — a hand-written loop over the per-theorem entrypoints
//!   (what callers did before the API existed);
//! * **api seq** — the same work as one `Session::with_threads(1)` solve
//!   per request: measures the boundary's overhead (request validation,
//!   dispatch, certificate verification, provenance assembly);
//! * **api batch** — one `solve_batch` call at each thread count:
//!   measures the scoped-thread fan-out. On a single-vCPU host the
//!   multi-thread rows certify wall-clock *parity*, not speedup (the
//!   batch path is bit-identical to sequential by construction).
//!
//! Results feed `BENCH_api.json`.

use crate::json::esc;
use crate::table::{fnum, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::generators;
use splitting_api::{Problem, Request, Session};
use splitting_core as core;
use splitting_reductions as red;
use std::time::Instant;

/// One workload measurement at one thread count.
#[derive(Debug, Clone)]
pub struct ApiRecord {
    /// Workload name, e.g. `zero_round_batch`.
    pub name: &'static str,
    /// Number of requests in the batch.
    pub requests: usize,
    /// Worker threads of the batch side.
    pub threads: usize,
    /// `std::thread::available_parallelism()` of the measuring host at
    /// the time this row was measured — recorded per row so a reader of
    /// `BENCH_api.json` can tell a genuine batch slowdown from plain
    /// oversubscription without consulting out-of-band context.
    pub host_parallelism: usize,
    /// Wall time of the legacy direct-call loop, nanoseconds.
    pub wall_ns_legacy: u128,
    /// Wall time of sequential single-call API dispatch, nanoseconds.
    pub wall_ns_api_seq: u128,
    /// Wall time of one `solve_batch` call, nanoseconds.
    pub wall_ns_api_batch: u128,
}

impl ApiRecord {
    /// API-boundary overhead: sequential API time over legacy time
    /// (1.0 = free; includes certificate verification the legacy loop
    /// does not perform).
    pub fn overhead(&self) -> f64 {
        self.wall_ns_api_seq as f64 / self.wall_ns_legacy.max(1) as f64
    }

    /// Batch speedup over sequential API dispatch.
    pub fn batch_speedup(&self) -> f64 {
        self.wall_ns_api_seq as f64 / self.wall_ns_api_batch.max(1) as f64
    }

    /// Batched requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_ns_api_batch.max(1) as f64 / 1e9)
    }

    /// True when this row ran more worker threads than the host has
    /// cores. Such rows certify wall-clock *parity* (the batch path is
    /// bit-identical to sequential by construction) and their
    /// `batch_speedup` ≤ 1 is scheduling noise, not an API regression.
    pub fn oversubscribed(&self) -> bool {
        self.threads > self.host_parallelism
    }
}

/// A full API benchmark run.
#[derive(Debug, Clone)]
pub struct ApiReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_parallelism: usize,
    /// All measurements.
    pub records: Vec<ApiRecord>,
}

impl ApiReport {
    /// Serializes the report for `BENCH_api.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"bench\": \"api\",\n  \"mode\": \"{}\",\n  \"host_parallelism\": {},\n  \"records\": [",
            esc(self.mode),
            self.host_parallelism
        ));
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"requests\": {}, \"threads\": {}, \
                 \"host_parallelism\": {}, \"oversubscribed\": {}, \
                 \"wall_ns_legacy\": {}, \"wall_ns_api_seq\": {}, \"wall_ns_api_batch\": {}, \
                 \"overhead\": {:.3}, \"batch_speedup\": {:.2}, \"throughput_rps\": {:.1}, \
                 \"parity_run\": {}}}",
                esc(r.name),
                r.requests,
                r.threads,
                r.host_parallelism,
                r.oversubscribed(),
                r.wall_ns_legacy,
                r.wall_ns_api_seq,
                r.wall_ns_api_batch,
                r.overhead(),
                r.batch_speedup(),
                r.throughput_rps(),
                r.threads == 1 || r.oversubscribed()
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// One workload: a request batch plus the matching legacy loop.
struct Workload {
    name: &'static str,
    requests: Vec<Request>,
    legacy: Box<dyn Fn() + Send + Sync>,
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
        "the legacy loop calls the dispatched entrypoint"
    );
    let legacy = Box::new(move || {
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
        legacy,
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
    let legacy = Box::new(move || {
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
        legacy,
    }
}

/// Runs the API benchmark; returns printable tables plus the JSON report.
pub fn run_api_perf(quick: bool) -> (Vec<Table>, ApiReport) {
    let mode = if quick { "quick" } else { "full" };
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (wcount, wsize, wdeg, dcount, mcount, msize) = if quick {
        (16, 60, 16, 6, 3, 64)
    } else {
        (64, 100, 20, 16, 6, 128)
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

    let mut thread_counts = vec![1, 2, 4, host_parallelism];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut records = Vec::new();
    for w in &workloads {
        // warm-up + legacy baseline
        (w.legacy)();
        let t0 = Instant::now();
        (w.legacy)();
        let wall_ns_legacy = t0.elapsed().as_nanos();

        let seq = Session::with_threads(1);
        let t0 = Instant::now();
        for r in &w.requests {
            let s = seq.solve(r).expect("workload requests are solvable");
            std::hint::black_box(s.output.len());
        }
        let wall_ns_api_seq = t0.elapsed().as_nanos();

        for &threads in &thread_counts {
            let session = Session::with_threads(threads);
            let t0 = Instant::now();
            let results = session.solve_batch(&w.requests);
            let wall_ns_api_batch = t0.elapsed().as_nanos();
            assert!(
                results.iter().all(Result::is_ok),
                "batch workload must solve"
            );
            records.push(ApiRecord {
                name: w.name,
                requests: w.requests.len(),
                threads,
                host_parallelism,
                wall_ns_legacy,
                wall_ns_api_seq,
                wall_ns_api_batch,
            });
        }
    }

    let mut table = Table::new(
        format!("api ({mode}): batch dispatch vs sequential vs legacy"),
        &[
            "workload",
            "reqs",
            "threads",
            "legacy ms",
            "api seq ms",
            "api batch ms",
            "overhead",
            "batch speedup",
            "req/s",
        ],
    );
    for r in &records {
        table.row(vec![
            r.name.to_string(),
            r.requests.to_string(),
            r.threads.to_string(),
            fnum(r.wall_ns_legacy as f64 / 1e6),
            fnum(r.wall_ns_api_seq as f64 / 1e6),
            fnum(r.wall_ns_api_batch as f64 / 1e6),
            format!("{:.3}×", r.overhead()),
            format!(
                "{:.2}×{}",
                r.batch_speedup(),
                if r.oversubscribed() { " (oversub)" } else { "" }
            ),
            fnum(r.throughput_rps()),
        ]);
    }
    let report = ApiReport {
        mode,
        host_parallelism,
        records,
    };
    (vec![table], report)
}
