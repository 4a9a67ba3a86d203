//! Experiment `server` — sustained-load throughput and latency of the
//! `splitd` job-queue service.
//!
//! Drives the same zero-round weak-splitting workload as experiment
//! `api` (the `zero_round_batch` rows of `BENCH_api.json`) through the
//! full service path — ingest, admission, priority queue, persistent
//! workers, ordered reporting — plus a mixed-traffic workload blending
//! zero-round requests with Section 4 reductions across all three
//! priority lanes.
//!
//! Each sample of a row pushes the workload's request stream through one
//! server (fresh per row, kept across the row's samples) and times it
//! first submission to last in-order reply. `params` carry per-request
//! service latency percentiles over all samples (queue wait + solve, from
//! the frame timings the server stamps), the queue's high-water depth,
//! and the rejected and error counts, for each layer:
//!
//! * **`api.solve`** — the identical stream through bare
//!   `Session::solve`: the no-service baseline a row's median divides;
//! * **`server.inproc`** — pre-parsed `Request`s via
//!   `Submitter::submit_request`, isolating the queue/worker/reporting
//!   machinery itself. Its zero-round row is the one the acceptance gate
//!   reads: its throughput must stay within 10% of the `api.solve`
//!   `zero_round_sustained` row of the same run;
//! * **`server.wire`** — rendered JSON lines via `Submitter::submit_line`,
//!   additionally paying the full codec round trip (frame scan and edge
//!   decoding on ingest, request build in the worker). The run asserts
//!   `parse_fallbacks == 0`;
//! * **`server.wire_handle`** — the zero-round workload over the wire
//!   with every instance uploaded once and referenced by handle, so
//!   requests are a few hundred bytes and solves share the interned
//!   `Arc<Instance>`. The run asserts `parse_fallbacks == 0`;
//! * **`wire.edge_decode`** — a codec microbench: the frame scan's
//!   in-place edge-list decoder over the exact edge array bytes the wire
//!   rows carry.
//!
//! Two more `server.inproc` rows rerun the zero-round workload:
//! `zero_round_degraded` under the seeded chaos layer (2% injected
//! worker panics, 2% 1 ms stalls) so the fault path's throughput cost
//! stays on the record, and `zero_round_journaled` with a write-ahead
//! journal under the default batch fsync policy, pricing the durability
//! layer (per-admission append + per-completion append) against the
//! clean in-proc figure.
//!
//! Results feed `BENCH_server.json`.

use crate::json::{params, quantile, sample, Record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::generators;
use splitting_api::{Problem, Request, Session};
use splitting_reductions as red;
use splitting_server::{json, wire, Admission, Priority, Server, ServerConfig};
use std::time::Instant;

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

/// What the runs of one row saw besides their wall times.
#[derive(Default)]
struct Load {
    latencies: Vec<u64>,
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
/// the server-stamped service latency of every reply into `load`;
/// returns the run's wall time, first submission to last in-order
/// reply.
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
    chaos: bool,
    load: &mut Load,
) -> u128 {
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
    assert_eq!(frames.len(), total, "one reply per request");
    for frame in &frames {
        let reply = wire::split_reply(frame).expect("well-formed reply frame");
        if reply.frame_type == "error" {
            assert!(chaos, "workload request failed under load: {frame}");
            load.errors += 1;
        } else {
            assert_eq!(
                reply.frame_type, "solution",
                "unexpected frame under load: {frame}"
            );
        }
        if let Some(t) = reply.timing {
            load.latencies.push(t.queued_ns + t.solve_ns);
        }
    }
    wall_ns
}
/// Times `samples` drives of `total` requests from `pool` through
/// `server` as one record: each run's wall time, plus latency
/// percentiles, error frames and the server's queue counters over all
/// runs. A `chaos` row must see error frames; any other row none.
#[allow(clippy::too_many_arguments)]
fn served(
    layer: &'static str,
    name: &str,
    server: &Server,
    pool: &Pool,
    total: usize,
    transport: &str,
    chaos: bool,
    samples: usize,
) -> Record {
    let mut load = Load::default();
    let wall: Vec<u128> = (0..samples)
        .map(|_| drive(server, pool, total, transport, chaos, &mut load))
        .collect();
    assert_eq!(
        chaos,
        load.errors > 0,
        "error frames iff the chaos schedule fires"
    );
    load.latencies.sort_unstable();
    let stats = server.stats();
    Record::new(
        layer,
        name,
        params![
            "requests" => total,
            "workers" => server.config().workers,
            "latency_p50_ns" => quantile(&load.latencies, 0.50),
            "latency_p95_ns" => quantile(&load.latencies, 0.95),
            "latency_p99_ns" => quantile(&load.latencies, 0.99),
            "queue_high_water" => stats.queue_high_water,
            "rejected" => stats.rejected,
            "errors" => load.errors,
        ],
        wall,
    )
}

/// A single-worker server with blocking admission: sustained
/// backpressure instead of load shedding, so every request is served and
/// the queue saturates honestly.
fn blocking_server(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        workers: 1,
        admission: Admission::Block,
        ..config
    })
}

/// Runs the service benchmark; the records of `BENCH_server.json`.
pub fn run_server_perf(quick: bool) -> Vec<Record> {
    let (samples, zero_pool, zero_total, mixed_weak, mixed_hosts, mixed_total) = if quick {
        (5, 16, 4_000, 16, 3, 300)
    } else {
        (11, 64, 12_000, 32, 6, 1_200)
    };

    let pools = [
        (zero_round_pool(zero_pool, 60, 16), zero_total),
        (mixed_pool(mixed_weak, mixed_hosts, 64, 8), mixed_total),
    ];

    let session = Session::new();
    let mut records = Vec::new();
    for (pool, total) in &pools {
        // the no-service baseline on the identical stream (warm, then
        // timed), solving straight through the API
        for (_, r) in &pool.requests {
            std::hint::black_box(session.solve(r).expect("pool solves").output.len());
        }
        let ((), wall) = sample(samples, || {
            for i in 0..*total {
                let (_, r) = &pool.requests[i % pool.requests.len()];
                std::hint::black_box(session.solve(r).expect("pool solves").output.len());
            }
        });
        records.push(Record::new(
            "api.solve",
            pool.name,
            params!["requests" => *total],
            wall,
        ));

        for (layer, transport) in [("server.inproc", "inproc"), ("server.wire", "wire")] {
            let server = blocking_server(ServerConfig::default());
            records.push(served(
                layer, pool.name, &server, pool, *total, transport, false, samples,
            ));
            // the renderer emits canonical encodings, so no edge list may
            // count as a non-canonical spelling
            assert_eq!(
                server.stats().parse_fallbacks,
                0,
                "canonical wire encodings counted as non-canonical spellings"
            );
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
        let server = blocking_server(ServerConfig::default());
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
        records.push(served(
            "server.wire_handle",
            "zero_round_sustained",
            &server,
            pool,
            *total,
            "wire-handle",
            false,
            samples,
        ));
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
        server.shutdown();
    }

    // Codec microbench: the frame scan's edge-list decoder over the
    // exact edge-array bytes the wire rows carry. No server in the loop
    // — this row isolates ingest decoding.
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
        let lists = if quick { 2_000 } else { 10_000 };
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
        let ((), wall) = sample(samples, || {
            for i in 0..lists {
                std::hint::black_box(decode(edges[i % edges.len()]).len());
            }
        });
        records.push(Record::new(
            "wire.edge_decode",
            "zero_round_edge_lists",
            params!["lists" => lists],
            wall,
        ));
    }

    // Degraded mode: the zero-round workload again, but with the seeded
    // chaos layer injecting worker panics and 1 ms stalls at 2% each.
    // Throughput and tail latency under faults land in the report next
    // to the clean rows, so a regression in fault-path overhead (panic
    // capture, typed error rendering, token bookkeeping) is visible in
    // the same place as a regression in the happy path.
    {
        let (pool, total) = &pools[0];
        let server = blocking_server(ServerConfig {
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
        records.push(served(
            "server.inproc",
            "zero_round_degraded",
            &server,
            pool,
            *total,
            "inproc",
            true,
            samples,
        ));
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
        let server = blocking_server(ServerConfig {
            journal: Some(std::sync::Arc::clone(&journal)),
            ..ServerConfig::default()
        });
        records.push(served(
            "server.inproc",
            "zero_round_journaled",
            &server,
            pool,
            *total,
            "inproc",
            false,
            samples,
        ));
        let jstats = journal.stats();
        let journaled = (*total * samples) as u64;
        assert_eq!(
            (jstats.appended, jstats.completed),
            (journaled, journaled),
            "every request journaled and completed"
        );
        server.shutdown();
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }
    records
}
