//! # splitting-server — splitting-as-a-service (`splitd`)
//!
//! A long-lived job-queue service over the `splitting-api` boundary.
//! Clients speak a newline-delimited JSON wire protocol (specified in
//! `docs/PROTOCOL.md` and pinned by a doc-sync test); every request runs
//! through one global bounded [`queue::JobQueue`] feeding a fixed pool
//! of persistent workers — never a thread per request — and replies
//! stream back **in submission order**, each tagged with the client's
//! request id.
//!
//! The service adds scheduling, admission control, and framing around
//! the API; it never changes results: the solution payload embedded in a
//! reply frame is byte-for-byte the
//! [`Solution::to_json_line`](splitting_api::Solution::to_json_line) a
//! direct single-threaded [`Session::solve`](splitting_api::Session)
//! call produces (asserted across the whole scenario corpus by the
//! conformance harness's `server` group).
//!
//! Layering:
//!
//! * [`json`] — strict, dependency-free JSON parsing and skip-scanning;
//! * [`wire`] — frame schemas, the request codec, reply assembly;
//! * [`queue`] — the bounded three-lane priority queue;
//! * [`journal`] — crash-safe write-ahead journal (`splitd --journal`);
//! * [`server`] — worker pool, connections, ordered reporting;
//! * [`transport`] — stdio / Unix-socket / TCP byte-stream pumps;
//! * [`chaos`] — deterministic seeded fault injection (test/bench hook).
//!
//! Robustness: requests may carry a wall-clock `deadline_ms` budget,
//! enforced in-queue (expired jobs become typed `deadline-exceeded`
//! error frames without costing a solve) and in-solve (workers abandon
//! over-budget solves at cooperative cancellation checkpoints and
//! return to the pool). Slow reply consumers are evicted after a
//! bounded write timeout — the connection drops, the server never
//! wedges — and [`Server::shutdown`]/[`Server::drain`] are bounded by a
//! drain deadline so the daemon always terminates.
//!
//! Durability: with `splitd --journal PATH`, every admitted request is
//! recorded in a checksummed write-ahead [`journal`] before it is
//! queued and marked complete when its reply is handed to delivery, so
//! a `kill -9` loses zero admitted work — on restart the incomplete
//! tail is re-enqueued in admission order and a torn final record is
//! truncated. Requests may carry an `idempotency_key`: a retry of a
//! completed key is answered from a bounded reply cache, byte-identical
//! and flagged `"replayed":true`, instead of being solved twice.
//!
//! # Example
//!
//! ```
//! use splitting_server::{Server, ServerConfig, Priority};
//! use splitting_api::{Problem, Request};
//! use splitgraph::generators;
//!
//! let server = Server::start(ServerConfig::default());
//! let (mut tx, mut rx) = server.connect().split();
//! tx.submit_request(
//!     "job-1",
//!     Priority::Normal,
//!     Request::new(Problem::Mis { base_degree: Some(8) }, generators::cycle(8).unwrap()),
//! );
//! tx.finish();
//! let frame = rx.recv().expect("one reply per request");
//! assert!(frame.contains("\"type\":\"solution\""));
//! assert!(frame.contains("\"id\":\"job-1\""));
//! server.shutdown();
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod journal;
pub mod json;
pub mod queue;
pub mod server;
mod store;
pub mod transport;
pub mod wire;

pub use chaos::ChaosConfig;
pub use journal::{FsyncPolicy, Journal, JournalError, JournalStats};
pub use server::{
    Admission, Connection, FrameReceiver, Polled, Server, ServerConfig, Submitted, Submitter,
};
pub use wire::{Priority, Reply, StatsSnapshot, Timing, PROTOCOL_VERSION};
