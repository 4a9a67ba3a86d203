//! Experiment `server` — sustained-load throughput and latency of the
//! `splitd` job-queue service.
//!
//! Drives the same zero-round weak-splitting workload as experiment
//! `api` (the single-threaded `zero_round_batch` row of
//! `BENCH_api.json`) through the full service path — ingest, admission, priority queue,
//! persistent workers, ordered reporting — plus a mixed-traffic workload
//! blending zero-round requests with Section 4 reductions across all
//! three priority lanes.
//!
//! Each row records wall-clock throughput, per-request service latency
//! percentiles (queue wait + solve, from the frame timings the server
//! stamps), the queue's high-water depth, and the rejected count, for
//! two transports:
//!
//! * **inproc** — pre-parsed `Request`s via `Submitter::submit_request`,
//!   isolating the queue/worker/reporting machinery itself. This is the
//!   row the acceptance gate reads: its absolute zero-round throughput
//!   must stay within 10% of the single-threaded `zero_round_batch`
//!   figure committed in `BENCH_api.json`.
//! * **wire** — rendered JSON lines via `Submitter::submit_line`,
//!   additionally paying the full codec round trip (frame scan and
//!   edge decoding on ingest, request build in the worker), reported
//!   honestly rather than hidden: on multi-kilobyte instances the parse
//!   dominates a zero-round solve.
//!
//! A `zero_round_degraded` row reruns the zero-round workload under
//! the seeded chaos layer (2% injected worker panics, 2% 1 ms stalls)
//! so the fault path's throughput cost stays on the record, and a
//! `zero_round_journaled` row reruns it with a write-ahead journal
//! under the default batch fsync policy, pricing the durability layer
//! (per-admission append + per-completion append) against the clean
//! in-proc figure.
//!
//! Two rows price the parse-light ingest work:
//!
//! * **`zero_round_wire_handle`** — the zero-round workload over the
//!   wire with every instance uploaded once and referenced by handle,
//!   so requests are a few hundred bytes and solves share the interned
//!   `Arc<Instance>`. The run asserts `parse_fallbacks == 0`.
//! * **`wire_fast_parse`** — a codec microbench over the exact edge
//!   array bytes the wire rows carry: `wall_ns` times the frame scan's
//!   in-place edge-list decoder. `wall_ns_direct` is not measured: it
//!   is the strict `Json` tree parser's committed time on the same
//!   lists (see [`TREE_PARSE_NS`]), from before the tree left the
//!   shipped codec, so on this one row `vs_direct` reads as the
//!   decoder's speedup over that figure.
//!
//! Results feed `BENCH_server.json`.

use crate::json::esc;
use crate::table::{fnum, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::generators;
use splitting_api::{Problem, Request, Session};
use splitting_reductions as red;
use splitting_server::{json, wire, Admission, Priority, Server, ServerConfig};
use std::time::Instant;

/// One (workload, transport) measurement.
#[derive(Debug, Clone)]
pub struct ServerRecord {
    /// Workload name, e.g. `zero_round_sustained`.
    pub name: &'static str,
    /// `"inproc"` (pre-parsed requests) or `"wire"` (JSON lines).
    pub transport: &'static str,
    /// Requests pushed through the service.
    pub requests: usize,
    /// Persistent worker threads.
    pub workers: usize,
    /// Host cores at measurement time (see `ApiRecord`).
    pub host_parallelism: usize,
    /// Wall time from first submission to last in-order reply, ns.
    pub wall_ns: u128,
    /// Direct `Session::solve` wall time for the identical request
    /// stream, ns — the no-service baseline.
    pub wall_ns_direct: u128,
    /// Median per-request service latency (queue wait + solve), ns.
    pub p50_ns: u64,
    /// 95th-percentile service latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile service latency, ns.
    pub p99_ns: u64,
    /// Deepest the job queue got during the run.
    pub queue_high_water: usize,
    /// Requests refused admission (0 under blocking backpressure).
    pub rejected: u64,
    /// Error frames received (0 outside degraded-mode rows, where
    /// injected worker panics come back as typed `internal-panic`
    /// frames and count against throughput honestly).
    pub errors: u64,
}

impl ServerRecord {
    /// Requests per second through the full service path.
    pub fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Direct-dispatch requests per second on the same stream.
    pub fn direct_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_ns_direct.max(1) as f64 / 1e9)
    }

    /// Service throughput as a fraction of direct dispatch (1.0 = the
    /// service machinery is free). Expect well below 1.0 even in-proc:
    /// the direct loop only solves, while every served request also
    /// pays payload rendering, frame assembly, timing stamps, and two
    /// cross-thread handoffs.
    pub fn vs_direct(&self) -> f64 {
        self.throughput_rps() / self.direct_rps().max(1e-9)
    }
}

/// A full service benchmark run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_parallelism: usize,
    /// All measurements.
    pub records: Vec<ServerRecord>,
}

impl ServerReport {
    /// Serializes the report for `BENCH_server.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"bench\": \"server\",\n  \"mode\": \"{}\",\n  \"host_parallelism\": {},\n  \"records\": [",
            esc(self.mode),
            self.host_parallelism
        ));
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"transport\": \"{}\", \"requests\": {}, \
                 \"workers\": {}, \"host_parallelism\": {}, \
                 \"wall_ns\": {}, \"wall_ns_direct\": {}, \
                 \"throughput_rps\": {:.1}, \"direct_rps\": {:.1}, \"vs_direct\": {:.3}, \
                 \"latency_p50_ns\": {}, \"latency_p95_ns\": {}, \"latency_p99_ns\": {}, \
                 \"queue_high_water\": {}, \"rejected\": {}, \"errors\": {}}}",
                esc(r.name),
                esc(r.transport),
                r.requests,
                r.workers,
                r.host_parallelism,
                r.wall_ns,
                r.wall_ns_direct,
                r.throughput_rps(),
                r.direct_rps(),
                r.vs_direct(),
                r.p50_ns,
                r.p95_ns,
                r.p99_ns,
                r.queue_high_water,
                r.rejected,
                r.errors
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The strict `Json` tree parser's time on the `wire_fast_parse` lists
/// (parse, then read back into pairs), as committed in
/// `BENCH_server.json` before the tree left the shipped codec:
/// [`TREE_PARSE_NS`] over [`TREE_PARSE_LISTS`] lists, full mode, on a
/// 2-vCPU host. The row scales it to its own list count.
const TREE_PARSE_NS: u128 = 1_924_967_240;
/// The list count [`TREE_PARSE_NS`] was measured over.
const TREE_PARSE_LISTS: u128 = 10_000;

/// Nearest-rank percentile over an already-sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The request pool one workload cycles over.
struct Pool {
    name: &'static str,
    requests: Vec<(Priority, Request)>,
}

/// The zero-round weak-splitting pool — identical instances to
/// experiment `api`'s `zero_round_batch`, so the two reports share a
/// baseline.
fn zero_round_pool(count: usize, nu: usize, d: usize) -> Pool {
    let requests = (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0xA110 + i as u64);
            let b = generators::random_biregular(nu, nu, d, &mut rng).expect("feasible");
            (
                Priority::Normal,
                Request::new(Problem::weak_splitting(), b).seed(i as u64),
            )
        })
        .collect();
    Pool {
        name: "zero_round_sustained",
        requests,
    }
}

/// Mixed traffic: zero-round weak splitting interleaved with Section 4
/// reductions, spread across all three priority lanes.
fn mixed_pool(weak: usize, hosts: usize, n: usize, d: usize) -> Pool {
    let mut requests: Vec<(Priority, Request)> = Vec::new();
    for i in 0..weak {
        let mut rng = StdRng::seed_from_u64(0xA110 + i as u64);
        let b = generators::random_biregular(60, 60, 16, &mut rng).expect("feasible");
        requests.push((
            Priority::Normal,
            Request::new(Problem::weak_splitting(), b).seed(i as u64),
        ));
    }
    for i in 0..hosts {
        let mut rng = StdRng::seed_from_u64(0xB220 + i as u64);
        let g = generators::random_regular(n, d, &mut rng).expect("feasible");
        requests.push((
            Priority::High,
            Request::new(Problem::Mis { base_degree: None }, g.clone()).seed(i as u64),
        ));
        requests.push((
            Priority::Low,
            Request::new(
                Problem::EdgeColoring {
                    base_degree: Some(8),
                    engine: red::EdgeSplitEngine::Eulerian,
                },
                g,
            ),
        ));
    }
    Pool {
        name: "mixed_traffic",
        requests,
    }
}

/// Sorted per-request service latencies plus the run's wall time.
struct LoadOutcome {
    wall_ns: u128,
    latencies: Vec<u64>,
    replies: usize,
    queue_high_water: usize,
    rejected: u64,
    errors: u64,
}

/// How many requests the load generator keeps in flight. Below the
/// default queue capacity, so admission never blocks the generator and
/// the queue's high-water mark records the sustained depth honestly.
const INFLIGHT_WINDOW: usize = 128;

/// How long the load generator parks when no reply is ready. Long
/// enough that a single-core host spends its cycles in the worker (one
/// wake drains ~60 frames at zero-round service rates), short enough
/// that the in-flight window never fully empties.
const POLL_SLEEP: std::time::Duration = std::time::Duration::from_micros(700);

/// Pushes `total` requests from `pool` through one connection as an
/// event loop — a bounded in-flight window, new submissions interleaved
/// with non-blocking drains of the ordered reply stream — and collects
/// the server-stamped service latency of every reply.
///
/// The event-loop shape matters on purpose: it models a real sustained
/// client (requests materialize shortly before submission and stay
/// cache-warm, nobody parks on the reporting channel per frame) instead
/// of a one-shot backlog dump, which would measure DRAM misses over a
/// multi-megabyte request graveyard rather than the service.
fn drive(
    server: &Server,
    pool: &Pool,
    total: usize,
    transport: &str,
    allow_errors: bool,
) -> LoadOutcome {
    let lines: Vec<String> = match transport {
        "wire" => pool
            .requests
            .iter()
            .map(|(p, r)| wire::render_request(pool.name, *p, r))
            .collect(),
        // handle-form rendering assumes the caller already uploaded
        // every pool instance (the handle is derived from content, so
        // no upload round trip is needed here)
        "wire-handle" => pool
            .requests
            .iter()
            .map(|(p, r)| {
                let handle = wire::render_handle(wire::instance_fingerprint(r.instance()));
                wire::render_request_with(
                    pool.name,
                    *p,
                    None,
                    wire::InstanceRef::Handle(&handle),
                    r,
                )
            })
            .collect(),
        _ => Vec::new(),
    };

    let (tx, mut rx) = server.connect().split();
    let mut tx = Some(tx);
    let mut submitted = 0usize;
    let mut frames: Vec<String> = Vec::with_capacity(total);
    let t0 = Instant::now();
    loop {
        while submitted < total && submitted - frames.len() < INFLIGHT_WINDOW {
            let i = submitted % pool.requests.len();
            let sub = tx.as_mut().expect("submitter live until total");
            if !lines.is_empty() {
                sub.submit_line(&lines[i]);
            } else {
                let (priority, request) = &pool.requests[i];
                sub.submit_request(pool.name, *priority, request.clone());
            }
            submitted += 1;
        }
        if submitted == total {
            if let Some(tx) = tx.take() {
                tx.finish();
            }
        }
        match rx.try_recv() {
            splitting_server::Polled::Frame(frame) => frames.push(frame),
            // nothing ready: park instead of spinning — on a shared
            // core, burning cycles here would slow the workers
            splitting_server::Polled::Pending => std::thread::sleep(POLL_SLEEP),
            splitting_server::Polled::Finished => break,
        }
    }
    let wall_ns = t0.elapsed().as_nanos();
    let replies = frames.len();
    let mut latencies = Vec::with_capacity(total);
    let mut errors = 0u64;
    for frame in &frames {
        let reply = wire::split_reply(frame).expect("well-formed reply frame");
        if reply.frame_type == "error" {
            assert!(allow_errors, "workload request failed under load: {frame}");
            errors += 1;
        } else {
            assert_eq!(
                reply.frame_type, "solution",
                "unexpected frame under load: {frame}"
            );
        }
        if let Some(t) = reply.timing {
            latencies.push(t.queued_ns + t.solve_ns);
        }
    }
    let stats = server.stats();
    latencies.sort_unstable();
    LoadOutcome {
        wall_ns,
        latencies,
        replies,
        queue_high_water: stats.queue_high_water,
        rejected: stats.rejected,
        errors,
    }
}

/// Runs the service benchmark; returns printable tables plus the JSON
/// report.
pub fn run_server_perf(quick: bool) -> (Vec<Table>, ServerReport) {
    let mode = if quick { "quick" } else { "full" };
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (zero_pool, zero_total, mixed_weak, mixed_hosts, mixed_total) = if quick {
        (16, 4_000, 16, 3, 300)
    } else {
        (64, 12_000, 32, 6, 1_200)
    };

    let pools = [
        (zero_round_pool(zero_pool, 60, 16), zero_total),
        (mixed_pool(mixed_weak, mixed_hosts, 64, 8), mixed_total),
    ];

    let session = Session::with_threads(1);
    let mut records = Vec::new();
    let mut zero_direct_ns = 0u128;
    for (pool, total) in &pools {
        // the no-service baseline on the identical stream (warm, then
        // timed), solving straight through the API
        for (_, r) in &pool.requests {
            std::hint::black_box(session.solve(r).expect("pool solves").output.len());
        }
        let t0 = Instant::now();
        for i in 0..*total {
            let (_, r) = &pool.requests[i % pool.requests.len()];
            std::hint::black_box(session.solve(r).expect("pool solves").output.len());
        }
        let wall_ns_direct = t0.elapsed().as_nanos();
        if pool.name == "zero_round_sustained" {
            zero_direct_ns = wall_ns_direct;
        }

        for transport in ["inproc", "wire"] {
            // a fresh single-worker server per row: blocking admission
            // gives sustained backpressure instead of load shedding, so
            // every request is served and the queue saturates honestly
            let server = Server::start(ServerConfig {
                workers: 1,
                admission: Admission::Block,
                ..ServerConfig::default()
            });
            let outcome = drive(&server, pool, *total, transport, false);
            assert_eq!(outcome.replies, *total, "one reply per request");
            if transport == "wire" {
                // the renderer emits canonical encodings, so no edge list
                // may count as a non-canonical spelling
                assert_eq!(
                    server.stats().parse_fallbacks,
                    0,
                    "canonical wire encodings counted as non-canonical spellings"
                );
            }
            records.push(ServerRecord {
                name: pool.name,
                transport: if transport == "wire" {
                    "wire"
                } else {
                    "inproc"
                },
                requests: *total,
                workers: server.config().workers,
                host_parallelism,
                wall_ns: outcome.wall_ns,
                wall_ns_direct,
                p50_ns: percentile(&outcome.latencies, 0.50),
                p95_ns: percentile(&outcome.latencies, 0.95),
                p99_ns: percentile(&outcome.latencies, 0.99),
                queue_high_water: outcome.queue_high_water,
                rejected: outcome.rejected,
                errors: outcome.errors,
            });
            server.shutdown();
        }
    }

    // Handle mode: the zero-round workload over the wire with every
    // instance uploaded once and the sustained stream referencing it by
    // handle. Requests shrink from multi-kilobyte instance encodings to
    // a few hundred bytes of envelope, and each solve shares the
    // interned Arc<Instance> — this is the row that should close most
    // of the wire-vs-inproc gap.
    {
        let (pool, total) = &pools[0];
        let server = Server::start(ServerConfig {
            workers: 1,
            admission: Admission::Block,
            ..ServerConfig::default()
        });
        let (mut utx, mut urx) = server.connect().split();
        for (_, r) in &pool.requests {
            utx.submit_line(&wire::render_upload("upload", r.instance()));
        }
        utx.finish();
        let mut uploads = 0;
        while let Some(frame) = urx.recv() {
            assert!(
                frame.contains("\"type\":\"uploaded\""),
                "upload refused: {frame}"
            );
            uploads += 1;
        }
        assert_eq!(uploads, pool.requests.len(), "every instance uploaded");
        let outcome = drive(&server, pool, *total, "wire-handle", false);
        assert_eq!(outcome.replies, *total, "one reply per handle request");
        let stats = server.stats();
        assert_eq!(
            stats.parse_fallbacks, 0,
            "handle-path frames carry no edge list to count"
        );
        assert_eq!(
            stats.handles_held as usize,
            pool.requests.len(),
            "interned instances survive the run"
        );
        records.push(ServerRecord {
            name: "zero_round_wire_handle",
            transport: "wire-handle",
            requests: *total,
            workers: server.config().workers,
            host_parallelism,
            wall_ns: outcome.wall_ns,
            wall_ns_direct: zero_direct_ns,
            p50_ns: percentile(&outcome.latencies, 0.50),
            p95_ns: percentile(&outcome.latencies, 0.95),
            p99_ns: percentile(&outcome.latencies, 0.99),
            queue_high_water: outcome.queue_high_water,
            rejected: outcome.rejected,
            errors: outcome.errors,
        });
        server.shutdown();
    }

    // Codec microbench: the frame scan's edge-list decoder over the
    // exact edge-array bytes the wire rows carry. No server in the loop
    // — this row isolates ingest decoding; its `vs_direct` compares it
    // with the tree parser's committed time.
    {
        let (pool, _) = &pools[0];
        let lines: Vec<String> = pool
            .requests
            .iter()
            .map(|(p, r)| wire::render_request(pool.name, *p, r))
            .collect();
        let edges: Vec<&str> = lines
            .iter()
            .map(|line| {
                let field = |text: &str, key| {
                    let spans = json::Cursor::new(text)
                        .object(|_, _| Ok(false))
                        .expect("canonical object");
                    json::Fields::new(text, &spans)
                        .span(key)
                        .expect("field present")
                };
                let instance = &line[field(line, "instance")];
                &instance[field(instance, "edges")]
            })
            .collect();
        let iters = if quick { 2_000 } else { 10_000 };
        let decode = |e: &str| {
            let list = json::Cursor::new(e)
                .edge_list(0)
                .and_then(|decoded| decoded)
                .expect("valid");
            assert!(list.canonical, "canonical edges decode canonically");
            list.pairs
        };
        for e in &edges {
            decode(e);
        }
        let wall_ns_direct = TREE_PARSE_NS * iters as u128 / TREE_PARSE_LISTS;
        let t0 = Instant::now();
        for i in 0..iters {
            let e = edges[i % edges.len()];
            std::hint::black_box(decode(e).len());
        }
        let wall_ns = t0.elapsed().as_nanos();
        records.push(ServerRecord {
            name: "wire_fast_parse",
            transport: "codec",
            requests: iters,
            workers: 0,
            host_parallelism,
            wall_ns,
            wall_ns_direct,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            queue_high_water: 0,
            rejected: 0,
            errors: 0,
        });
    }

    // Degraded mode: the zero-round workload again, but with the seeded
    // chaos layer injecting worker panics and 1 ms stalls at 2% each.
    // Throughput and tail latency under faults land in the report next
    // to the clean rows, so a regression in fault-path overhead (panic
    // capture, typed error rendering, token bookkeeping) is visible in
    // the same place as a regression in the happy path.
    {
        let (pool, total) = &pools[0];
        let server = Server::start(ServerConfig {
            workers: 1,
            admission: Admission::Block,
            chaos: Some(splitting_server::ChaosConfig {
                seed: 0xDE9,
                worker_panic: 0.02,
                worker_stall: 0.02,
                stall_ms: 1,
                torn_frame: 0.0,
                drop_connection: 0.0,
                process_kill: 0.0,
            }),
            ..ServerConfig::default()
        });
        let outcome = drive(&server, pool, *total, "inproc", true);
        assert_eq!(
            outcome.replies, *total,
            "degraded mode still answers every request"
        );
        assert!(outcome.errors > 0, "the 2% panic schedule must fire");
        records.push(ServerRecord {
            name: "zero_round_degraded",
            transport: "inproc",
            requests: *total,
            workers: server.config().workers,
            host_parallelism,
            wall_ns: outcome.wall_ns,
            wall_ns_direct: zero_direct_ns,
            p50_ns: percentile(&outcome.latencies, 0.50),
            p95_ns: percentile(&outcome.latencies, 0.95),
            p99_ns: percentile(&outcome.latencies, 0.99),
            queue_high_water: outcome.queue_high_water,
            rejected: outcome.rejected,
            errors: outcome.errors,
        });
        server.shutdown();
    }

    // Journaled mode: the zero-round workload once more with the
    // write-ahead journal enabled under its default batch fsync policy
    // — the acceptance gate keeps this row within 20% of the clean
    // in-proc figure, pinning the durability layer's per-request cost
    // (a structural fingerprint plus two small serialized appends;
    // payload interning keeps the full wire line off the steady-state
    // path) where a regression is visible.
    {
        let (pool, total) = &pools[0];
        let path = std::env::temp_dir().join(format!(
            "splitd-bench-journal-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let journal = std::sync::Arc::new(
            splitting_server::Journal::open(&path, splitting_server::FsyncPolicy::Batch)
                .expect("bench journal opens"),
        );
        let server = Server::start(ServerConfig {
            workers: 1,
            admission: Admission::Block,
            journal: Some(std::sync::Arc::clone(&journal)),
            ..ServerConfig::default()
        });
        let outcome = drive(&server, pool, *total, "inproc", false);
        assert_eq!(
            outcome.replies, *total,
            "journaled mode still answers every request"
        );
        let jstats = journal.stats();
        assert_eq!(
            (jstats.appended, jstats.completed),
            (*total as u64, *total as u64),
            "every request journaled and completed"
        );
        records.push(ServerRecord {
            name: "zero_round_journaled",
            transport: "inproc",
            requests: *total,
            workers: server.config().workers,
            host_parallelism,
            wall_ns: outcome.wall_ns,
            wall_ns_direct: zero_direct_ns,
            p50_ns: percentile(&outcome.latencies, 0.50),
            p95_ns: percentile(&outcome.latencies, 0.95),
            p99_ns: percentile(&outcome.latencies, 0.99),
            queue_high_water: outcome.queue_high_water,
            rejected: outcome.rejected,
            errors: outcome.errors,
        });
        server.shutdown();
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    let mut table = Table::new(
        format!("server ({mode}): sustained load through the splitd service path"),
        &[
            "workload",
            "transport",
            "reqs",
            "workers",
            "wall ms",
            "req/s",
            "vs direct",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "q-high",
            "rejected",
            "errors",
        ],
    );
    for r in &records {
        table.row(vec![
            r.name.to_string(),
            r.transport.to_string(),
            r.requests.to_string(),
            r.workers.to_string(),
            fnum(r.wall_ns as f64 / 1e6),
            fnum(r.throughput_rps()),
            format!("{:.3}×", r.vs_direct()),
            fnum(r.p50_ns as f64 / 1e3),
            fnum(r.p95_ns as f64 / 1e3),
            fnum(r.p99_ns as f64 / 1e3),
            r.queue_high_water.to_string(),
            r.rejected.to_string(),
            r.errors.to_string(),
        ]);
    }
    let report = ServerReport {
        mode,
        host_parallelism,
        records,
    };
    (vec![table], report)
}
