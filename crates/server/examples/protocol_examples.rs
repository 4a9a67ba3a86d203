//! Regenerates the worked request/response examples embedded in
//! `docs/PROTOCOL.md`.
//!
//! Every example in the spec is real output of this build — the
//! doc-sync test (`crates/server/tests/protocol_doc.rs`) replays each
//! request through a timings-disabled server and asserts the committed
//! response byte for byte. After changing the wire format, run
//!
//! ```text
//! cargo run -p splitting-server --example protocol_examples
//! ```
//!
//! and paste the emitted blocks over the marked sections of the spec.

use splitgraph::{generators, MultiGraph};
use splitting_api::{Problem, Request};
use splitting_server::{transport, wire, ChaosConfig, Submitted};
use splitting_server::{Priority, Server, ServerConfig};

/// The chaos schedule behind the survival transcript in
/// `docs/PROTOCOL.md` § Robustness. The doc-sync test replays exactly
/// this configuration, so keep it in lockstep with
/// `crates/server/tests/protocol_doc.rs`.
pub fn transcript_chaos_config() -> ChaosConfig {
    ChaosConfig {
        seed: 51,
        worker_panic: 0.2,
        worker_stall: 0.0,
        stall_ms: 1,
        torn_frame: 0.1,
        drop_connection: 0.0,
        process_kill: 0.0,
    }
}

/// The request lines behind the survival transcript — six cheap MIS
/// requests, so the fault draws (keyed by sequence number) are the only
/// thing that varies between replies.
pub fn transcript_input() -> String {
    let cyc6 = generators::cycle(6).unwrap();
    let mut input = String::new();
    for i in 0..6 {
        let request = Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            cyc6.clone(),
        );
        input.push_str(&wire::render_request(
            &format!("c{i}"),
            Priority::Normal,
            &request,
        ));
        input.push('\n');
    }
    input
}

fn main() {
    let server = Server::start(ServerConfig {
        record_timings: false,
        ..ServerConfig::default()
    });

    // 3 constraints of degree 12 over 36 variables of degree 1: the
    // δ ≥ 6r zero-round regime, so the weak-splitting examples solve
    let skewed = splitgraph::BipartiteGraph::from_edges(
        3,
        36,
        &(0..3)
            .flat_map(|c| (0..12).map(move |j| (c, 12 * c + j)))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let k66 = generators::complete_bipartite(6, 6);
    let host6 = generators::complete(6);
    let host16 = generators::complete(16);
    let cyc6 = generators::cycle(6).unwrap();
    let multi = MultiGraph::from_endpoints(
        4,
        vec![
            (0, 1),
            (0, 1),
            (1, 2),
            (2, 3),
            (2, 3),
            (3, 0),
            (1, 3),
            (0, 2),
        ],
    );

    let examples: Vec<(&str, String, Request)> = vec![
        (
            "weak-splitting",
            "weak".into(),
            Request::new(Problem::weak_splitting(), skewed.clone()).seed(7),
        ),
        (
            "weak-multicolor",
            "weak-mc".into(),
            Request::new(
                Problem::WeakMulticolor,
                generators::complete_bipartite(3, 64),
            )
            .deterministic(),
        ),
        (
            "multicolor-splitting",
            "mc".into(),
            Request::new(
                Problem::MulticolorSplitting {
                    colors: 6,
                    lambda: 0.6,
                },
                k66.clone(),
            )
            .deterministic(),
        ),
        (
            "uniform-splitting",
            "uniform".into(),
            Request::new(
                Problem::UniformSplitting {
                    eps: Some(splitting_reductions::feasible_eps(16, 15)),
                    min_degree: Some(15),
                },
                host16.clone(),
            )
            .deterministic(),
        ),
        (
            "degree-splitting",
            "degree".into(),
            Request::new(
                Problem::DegreeSplitting {
                    eps: 0.25,
                    engine: degree_split::Engine::EulerianOracle,
                },
                multi,
            )
            .deterministic(),
        ),
        (
            "sinkless-orientation",
            "sinkless".into(),
            Request::new(Problem::SinklessOrientation, host6.clone()),
        ),
        (
            "delta-coloring",
            "delta".into(),
            Request::new(
                Problem::DeltaColoring {
                    base_degree: Some(12),
                    max_eps: Some(0.35),
                },
                host6.clone(),
            )
            .deterministic(),
        ),
        (
            "edge-coloring",
            "edge".into(),
            Request::new(
                Problem::EdgeColoring {
                    base_degree: Some(8),
                    engine: splitting_reductions::EdgeSplitEngine::Eulerian,
                },
                cyc6.clone(),
            ),
        ),
        (
            "mis",
            "mis-1".into(),
            Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                cyc6.clone(),
            ),
        ),
        (
            // a zero-millisecond budget is already expired when a worker
            // picks the job up, so the reply is the typed
            // `deadline-exceeded` error frame — deterministically
            "deadline-exceeded",
            "dl-1".into(),
            Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                cyc6,
            )
            .deadline_ms(0),
        ),
    ];

    // one request in flight at a time — lockstep keeps the idempotency
    // pair below deterministic (the retry is only submitted once the
    // first reply exists, so it always hits the cache), and the frames
    // are byte-identical to what a streamed transport would carry
    let (mut tx, mut rx) = server.connect().split();
    let print_pair = |name: &str, line: &str, reply: &str| {
        println!("### `{name}`\n");
        println!("<!-- doc-sync: request {name} -->");
        println!("```json\n{line}\n```\n");
        println!("<!-- doc-sync: response {name} -->");
        println!("```json\n{reply}\n```\n");
    };
    for (name, id, request) in &examples {
        let line = wire::render_request(id, Priority::Normal, request);
        assert_eq!(tx.submit_line(&line), Submitted::Queued, "{name}");
        let reply = rx.recv().expect("one reply per request");
        print_pair(name, &line, &reply);
    }

    // the duplicate-retry transcript behind § Durability and
    // idempotency: the same keyed request twice over one connection;
    // the retry is answered from the idempotency cache — same payload
    // bytes, its own seq, flagged `"replayed":true`, no fresh solve
    let keyed = wire::render_request_with(
        "idem-1",
        Priority::Normal,
        Some("retry-demo-1"),
        wire::InstanceRef::Inline,
        &Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            generators::cycle(6).unwrap(),
        ),
    );
    for (name, want) in [
        ("idempotent-first", Submitted::Queued),
        ("idempotent-retry", Submitted::Replied),
    ] {
        assert_eq!(tx.submit_line(&keyed), want, "{name}");
        let reply = rx.recv().expect("one reply per submission");
        print_pair(name, &keyed, &reply);
    }

    // the instance-handle transcript behind § Instance handles: upload
    // the 6-cycle once, solve the held instance twice under different
    // seeds (no instance bytes on either request), then release it.
    // Handles are content hashes, so these bytes are reproducible on
    // any build.
    let held = splitting_api::Instance::Host(generators::cycle(6).unwrap());
    let handle = wire::render_handle(wire::instance_fingerprint(&held));
    let upload = wire::render_upload("up-1", &held);
    assert_eq!(tx.submit_line(&upload), Submitted::Replied, "upload");
    let reply = rx.recv().expect("uploaded frame");
    print_pair("upload-instance", &upload, &reply);
    for (name, id, seed) in [("handle-mis-1", "h-1", 5u64), ("handle-mis-2", "h-2", 6)] {
        let request = Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            generators::cycle(6).unwrap(),
        )
        .seed(seed);
        let line = wire::render_request_with(
            id,
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&handle),
            &request,
        );
        assert_eq!(tx.submit_line(&line), Submitted::Queued, "{name}");
        let reply = rx.recv().expect("one reply per handle request");
        print_pair(name, &line, &reply);
    }
    let release = wire::render_release("rel-1", &handle);
    assert_eq!(tx.submit_line(&release), Submitted::Replied, "release");
    let reply = rx.recv().expect("released frame");
    print_pair("release-instance", &release, &reply);

    // the churn transcript behind § Mutating held instances: upload a
    // bipartite instance, solve it by handle, mutate it (one edge
    // moved between constraints), then solve the patched instance by
    // its re-derived handle — the second solve is answered by the
    // incremental repair path seeded from the held solution, visible in
    // its provenance route. 8 constraints of degree 8 over 64 variables
    // of degree 1: the δ ≥ 6r zero-round regime with one edge of margin
    // (the delete below leaves δ = 7 ≥ 6), and wide enough that a
    // one-edge move dirties exactly 2 of 8 constraints — at the repair
    // path's 25% refix threshold, not over it
    let churned = splitgraph::BipartiteGraph::from_edges(
        8,
        64,
        &(0..8)
            .flat_map(|c| (0..8).map(move |j| (c, 8 * c + j)))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let bip = splitting_api::Instance::Bipartite(churned.clone());
    let bip_handle = wire::render_handle(wire::instance_fingerprint(&bip));
    let upload = wire::render_upload("up-2", &bip);
    assert_eq!(tx.submit_line(&upload), Submitted::Replied, "upload");
    let reply = rx.recv().expect("uploaded frame");
    print_pair("upload-bipartite", &upload, &reply);
    let churn_request = Request::new(Problem::weak_splitting(), churned.clone()).seed(7);
    let line = wire::render_request_with(
        "w-1",
        Priority::Normal,
        None,
        wire::InstanceRef::Handle(&bip_handle),
        &churn_request,
    );
    assert_eq!(tx.submit_line(&line), Submitted::Queued, "handle-weak-1");
    let reply = rx.recv().expect("one reply per handle request");
    print_pair("handle-weak-1", &line, &reply);
    let inserts = [(7usize, 0usize)];
    let deletes = [(0usize, 0usize)];
    let mutate = wire::render_mutate("mut-1", &bip_handle, None, &inserts, &deletes);
    assert_eq!(tx.submit_line(&mutate), Submitted::Replied, "mutate");
    let reply = rx.recv().expect("mutated frame");
    print_pair("mutate-instance", &mutate, &reply);
    // the new handle is the content hash of the patched instance; a
    // client can recompute it like this or read it off the `mutated`
    // reply's `new_handle` field
    let mut patched = churned.clone();
    splitgraph::delta::EdgeDelta::new(&patched, &inserts, &deletes)
        .unwrap()
        .apply(&mut patched)
        .unwrap();
    let new_handle = wire::render_handle(wire::instance_fingerprint(
        &splitting_api::Instance::Bipartite(patched),
    ));
    let line = wire::render_request_with(
        "w-2",
        Priority::Normal,
        None,
        wire::InstanceRef::Handle(&new_handle),
        &churn_request,
    );
    assert_eq!(tx.submit_line(&line), Submitted::Queued, "handle-weak-2");
    let reply = rx.recv().expect("one reply per handle request");
    print_pair("handle-weak-2", &line, &reply);
    tx.finish();
    server.shutdown();

    // The chaos-survival transcript: the same fixed fault schedule every
    // time, so the surviving bytes below are reproducible on any build.
    let chaos_server = Server::start(ServerConfig {
        workers: 1,
        record_timings: false,
        chaos: Some(transcript_chaos_config()),
        ..ServerConfig::default()
    });
    let input = transcript_input();
    let mut out = Vec::new();
    let outcome = transport::serve_stream(&chaos_server, input.as_bytes(), &mut out);
    chaos_server.shutdown();
    println!("### chaos-survival transcript\n");
    println!("<!-- chaos-sync: input -->");
    println!("```json\n{}```\n", input);
    println!("<!-- chaos-sync: output -->");
    print!("```text\n{}", String::from_utf8_lossy(&out));
    if !out.ends_with(b"\n") {
        println!();
    }
    println!("```\n");
    match outcome {
        Ok(summary) => println!(
            "(stream completed: {} lines in, {} replies out)",
            summary.lines_in, summary.replies_out
        ),
        Err(e) => println!("(stream torn down by the injected fault: {e})"),
    }
}
