//! Reference client for the churn lifecycle (docs/PROTOCOL.md
//! § Mutating held instances): upload a bipartite instance once, solve
//! it by handle, then stream edge-mutation batches — citing the
//! re-derived content handle from each `mutated` reply on the next
//! round — and let the server answer the post-mutation solves from its
//! incremental repair path.
//!
//! The client keeps a local mirror of the graph so it can verify the
//! server's handle arithmetic: after every `mutate`, the `new_handle`
//! on the reply must equal the content hash of the locally patched
//! mirror. The closing heartbeat shows the churn counters moving.
//!
//! ```text
//! cargo run -p splitting-server --example churn_client
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::delta::{random_delta, ChurnStyle};
use splitgraph::generators;
use splitting_api::{Instance, Problem, Request};
use splitting_server::{wire, Priority, Server, ServerConfig, Submitted};

/// Mutation rounds to stream.
const ROUNDS: usize = 5;

/// Extracts a `"key":N` integer field from a frame.
fn field_u64(frame: &str, key: &str) -> u64 {
    let rest = frame
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("frame has no {key} field: {frame}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("integer field")
}

/// Extracts a `"key":"value"` string field from a frame.
fn field_str<'a>(frame: &'a str, key: &str) -> &'a str {
    let rest = frame
        .split(&format!("\"{key}\":\""))
        .nth(1)
        .unwrap_or_else(|| panic!("frame has no {key} field: {frame}"));
    rest.split('"').next().expect("terminated string field")
}

fn main() {
    let server = Server::start(ServerConfig {
        record_timings: false,
        ..ServerConfig::default()
    });
    let (mut tx, mut rx) = server.connect().split();

    // 300 constraints and variables of degree 24 over n = 600: the
    // deterministic δ ≥ 2·log n regime (threshold 19) with enough
    // margin that a handful of deletes cannot exit it
    let mut rng = StdRng::seed_from_u64(0x0C11E27);
    let mut mirror = generators::random_biregular(300, 300, 24, &mut rng).expect("feasible");
    // handle requests carry no instance bytes, so the request's graph
    // argument never reaches the wire — what matters is that every
    // solve reuses the same problem/determinism/seed: the held-solution
    // cache keys on the policy, and only a matching policy is answered
    // by incremental repair
    let policy = Request::new(
        Problem::weak_splitting(),
        splitgraph::BipartiteGraph::new(1, 1),
    )
    .deterministic()
    .seed(3);

    let upload = wire::render_upload("up-1", &Instance::Bipartite(mirror.clone()));
    assert_eq!(tx.submit_line(&upload), Submitted::Replied);
    let uploaded = rx.recv().expect("uploaded frame");
    let mut handle = field_str(&uploaded, "handle").to_owned();
    println!(
        "uploaded {} edges under handle {handle}",
        mirror.edge_count()
    );

    let line = wire::render_request_with(
        "solve-0",
        Priority::Normal,
        None,
        wire::InstanceRef::Handle(&handle),
        &policy,
    );
    assert_eq!(tx.submit_line(&line), Submitted::Queued);
    let first = rx.recv().expect("first solution");
    println!("solve-0: route={}", field_str(&first, "route"));
    assert!(first.contains("\"type\":\"solution\""), "{first}");

    let mut repair_routes = 0usize;
    for round in 0..ROUNDS {
        // a seeded rewire batch against the mirror (2 edits: each dirty
        // variable drags its ~24 constraints into the refix halo, so a
        // small batch keeps the halo under the repair path's 25%
        // threshold); apply it locally first so the client can predict
        // the server's new handle
        let delta = random_delta(&mirror, ChurnStyle::Rewire, 2, &mut rng);
        delta.apply(&mut mirror).expect("mirror stays in sync");
        let expected = wire::render_handle(wire::instance_fingerprint(&Instance::Bipartite(
            mirror.clone(),
        )));
        let mutate = wire::render_mutate(
            &format!("mut-{round}"),
            &handle,
            None,
            delta.inserts(),
            delta.deletes(),
        );
        assert_eq!(tx.submit_line(&mutate), Submitted::Replied);
        let mutated = rx.recv().expect("mutated frame");
        assert!(mutated.contains("\"type\":\"mutated\""), "{mutated}");
        let new_handle = field_str(&mutated, "new_handle").to_owned();
        assert_eq!(
            new_handle, expected,
            "server and client agree on the patched content hash"
        );
        handle = new_handle;

        let id = format!("solve-{}", round + 1);
        let line = wire::render_request_with(
            &id,
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&handle),
            &policy,
        );
        assert_eq!(tx.submit_line(&line), Submitted::Queued);
        let solved = rx.recv().expect("post-mutation solution");
        assert!(solved.contains("\"type\":\"solution\""), "{solved}");
        let route = field_str(&solved, "route");
        println!(
            "{id}: {} inserts / {} deletes → handle {}… route={route}",
            delta.inserts().len(),
            delta.deletes().len(),
            &handle[..8],
        );
        if route == "weak-splitting/repair" {
            repair_routes += 1;
        }
    }

    // the heartbeat's churn counters summarize what just happened
    assert_eq!(
        tx.submit_line("{\"v\":1,\"type\":\"ping\",\"id\":\"hb\"}"),
        Submitted::Replied
    );
    let hb = rx.recv().expect("heartbeat frame");
    let (mutations, repairs, fulls) = (
        field_u64(&hb, "mutations_applied"),
        field_u64(&hb, "repairs"),
        field_u64(&hb, "full_resolves"),
    );
    println!(
        "heartbeat: mutations_applied={mutations} repairs={repairs} \
         full_resolves={fulls} refix_mean_permille={}",
        field_u64(&hb, "refix_mean_permille"),
    );
    assert_eq!(mutations, ROUNDS as u64, "every mutate frame applied");
    assert_eq!(
        repairs + fulls,
        ROUNDS as u64,
        "every post-mutation solve drained its pending delta"
    );
    assert_eq!(
        repair_routes, repairs as usize,
        "repair routes on the wire match the server's counter"
    );
    tx.finish();
    server.shutdown();
    println!("done: {repair_routes}/{ROUNDS} post-mutation solves served by incremental repair");
}
