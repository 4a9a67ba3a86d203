//! Reference client for `overloaded` handling: exponential backoff with
//! seeded jitter, honouring the server's `retry_after_ms` hint.
//!
//! The protocol promises (docs/PROTOCOL.md § Admission control) that an
//! admission reject carries a machine-readable `retry_after_ms` field.
//! A well-behaved client sleeps at least that long and doubles its own
//! delay on every consecutive reject of the same request, with jitter
//! so a fleet of clients does not retry in lockstep. This example runs
//! the full loop against a deliberately tiny in-process server: a burst
//! of requests overflows the 2-slot queue, the rejects come back typed,
//! and every request eventually solves.
//!
//! The second act is the crash-retry loop (docs/PROTOCOL.md
//! § Durability and idempotency): the client attaches an
//! `idempotency_key`, "crashes" before recording the reply, reconnects,
//! and retries the identical line — the server answers from its reply
//! cache with the same payload bytes, flagged `"replayed":true`.
//!
//! ```text
//! cargo run -p splitting-server --example backoff_client
//! ```

use local_runtime::splitmix64;
use splitgraph::generators;
use splitting_api::{Problem, Request};
use splitting_server::{wire, Admission, Priority, Server, ServerConfig, Submitted};
use std::collections::HashMap;
use std::thread;
use std::time::Duration;

/// Base client-side delay; the effective wait is
/// `max(retry_after_ms hint, BASE_MS << attempt)` plus jitter.
const BASE_MS: u64 = 5;
/// Give up after this many consecutive rejects of one request.
const MAX_ATTEMPTS: u32 = 10;
/// Seed for the jitter draws — any fixed value keeps the run
/// reproducible; a real fleet would use a per-client seed.
const JITTER_SEED: u64 = 0xBAC0FF;

/// Extracts `"retry_after_ms":N` from an `overloaded` error payload.
fn retry_after_hint(payload: &str) -> Option<u64> {
    let rest = payload.split("\"retry_after_ms\":").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Deterministic jitter in `[0, cap_ms)` keyed by (request, attempt).
fn jitter_ms(job: u64, attempt: u32, cap_ms: u64) -> u64 {
    if cap_ms == 0 {
        return 0;
    }
    splitmix64(JITTER_SEED ^ splitmix64(job ^ u64::from(attempt))) % cap_ms
}

fn main() {
    // A server small enough that a burst must overflow: one worker,
    // two queue slots, reject-on-full with a 10 ms retry hint.
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        admission: Admission::Reject,
        retry_after_ms: 10,
        record_timings: false,
        ..ServerConfig::default()
    });
    let (mut tx, mut rx) = server.connect().split();

    let cyc6 = generators::cycle(6).unwrap();
    let jobs: u64 = 12;
    let mut pending: Vec<u64> = (0..jobs).collect();
    let mut attempts: HashMap<u64, u32> = HashMap::new();
    let mut solved = 0u64;
    let mut rejects = 0u64;
    let mut wave = 0u32;

    while !pending.is_empty() {
        wave += 1;
        // submit the whole wave as a burst — this is what overflows the
        // queue and provokes typed `overloaded` rejects
        let wave_jobs = std::mem::take(&mut pending);
        for &job in &wave_jobs {
            let request = Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                cyc6.clone(),
            );
            let submitted = tx.submit_request(&format!("job-{job}"), Priority::Normal, request);
            assert!(
                matches!(submitted, Submitted::Queued | Submitted::Replied),
                "unexpected submit outcome: {submitted:?}"
            );
        }
        // exactly one reply frame per submission, in submission order
        let mut max_hint = 0u64;
        for &job in &wave_jobs {
            let frame = rx.recv().expect("one reply per request");
            let reply = wire::split_reply(&frame).expect("well-formed reply frame");
            assert_eq!(reply.id, format!("job-{job}"));
            match reply.frame_type.as_str() {
                "solution" => {
                    solved += 1;
                }
                "error" => {
                    let payload = reply.payload.expect("error frames carry a payload");
                    assert!(
                        payload.contains("\"kind\":\"overloaded\""),
                        "unexpected error: {payload}"
                    );
                    rejects += 1;
                    let attempt = attempts.entry(job).or_insert(0);
                    *attempt += 1;
                    assert!(
                        *attempt <= MAX_ATTEMPTS,
                        "job-{job} still rejected after {MAX_ATTEMPTS} attempts"
                    );
                    max_hint =
                        max_hint.max(retry_after_hint(payload).expect("overloaded carries a hint"));
                    pending.push(job);
                }
                other => panic!("unexpected frame type {other}"),
            }
        }
        if pending.is_empty() {
            break;
        }
        // exponential backoff from the worst attempt count in the wave,
        // floored by the server's hint, plus jitter to spread retries
        let worst = pending
            .iter()
            .map(|job| attempts.get(job).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let backoff = max_hint.max(BASE_MS << worst.min(10));
        let delay = backoff + jitter_ms(pending[0], worst, backoff / 2 + 1);
        println!(
            "wave {wave}: {} solved, {} to retry — sleeping {delay} ms \
             (hint {max_hint} ms, attempt {worst})",
            wave_jobs.len() - pending.len(),
            pending.len()
        );
        thread::sleep(Duration::from_millis(delay));
    }
    tx.finish();

    let stats = server.stats();
    println!(
        "done: {solved}/{jobs} solved over {wave} waves, {rejects} typed rejects \
         (server counted {} rejected)",
        stats.rejected
    );
    assert_eq!(solved, jobs, "every request eventually solves");
    assert_eq!(
        rejects, stats.rejected,
        "client saw every reject the server issued"
    );

    // ---- reconnect and retry with an idempotency key ----------------
    //
    // A client that crashes after the server has committed its reply
    // (but before durably recording it) must be able to retry without
    // the work running twice. The key makes the retry safe: the server
    // replays the cached reply frame with identical payload bytes.
    let keyed = wire::render_request_with(
        "keyed-1",
        Priority::Normal,
        Some("backoff-demo-key"),
        wire::InstanceRef::Inline,
        &Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            cyc6.clone(),
        ),
    );
    let (mut tx, mut rx) = server.connect().split();
    assert_eq!(tx.submit_line(&keyed), Submitted::Queued);
    let first = rx.recv().expect("the keyed request solves");
    let first_payload = wire::split_reply(&first)
        .expect("well-formed reply frame")
        .payload
        .expect("solution frames carry a payload")
        .to_owned();
    // the "crash": the connection dies with the reply unrecorded
    tx.finish();
    drop(rx);

    // the restarted client reconnects and retries the identical line
    let (mut tx, mut rx) = server.connect().split();
    assert_eq!(
        tx.submit_line(&keyed),
        Submitted::Replied,
        "the retry is answered from the idempotency cache"
    );
    let retry = rx.recv().expect("one reply for the retry");
    let reply = wire::split_reply(&retry).expect("well-formed reply frame");
    assert!(reply.replayed, "the retry is flagged as a replay");
    assert_eq!(
        reply.payload.expect("replayed solutions carry a payload"),
        first_payload,
        "replayed payload is byte-identical to the original reply"
    );
    println!(
        "retry of keyed-1 replayed from cache ({} payload bytes, byte-identical)",
        first_payload.len()
    );
    tx.finish();
    server.shutdown();
}
