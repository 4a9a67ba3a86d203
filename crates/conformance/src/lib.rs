//! # conformance — scenario corpus and differential/metamorphic harness
//!
//! All splitting problems in the paper are locally checkable, and
//! `splitgraph::checks` holds the ground-truth certifiers. This crate
//! closes the loop: a [`scenario`] registry enumerates instance families
//! tagged with the theorem regimes they exercise, and the [`harness`]
//! drives **every solver entrypoint** of the workspace over that corpus —
//!
//! * the weak-splitting regime dispatch
//!   ([`splitting_core::decide_pipeline`]) against what
//!   [`splitting_api::Session`] runs and announces,
//! * the direct theorem pipelines (2.5, 2.7, 1.2, zero-round),
//! * the multicolor variants (Definitions 1.2/1.3) across all engines,
//! * [`degree_split::DegreeSplitter`] over every `Engine` × `Flavor`,
//! * the Section 4 reductions (uniform splitting, Δ-coloring, MIS, edge
//!   coloring),
//! * the `splitting-api` request layer and the `splitd` wire path, and
//!   the stateful service as one seeded operation sequence across
//!   restarts, kills and faults ([`service`]),
//!
//! validating outputs with the certifiers and round-ledger bounds,
//! cross-checking alternate engines on shared instances, and asserting
//! metamorphic invariants (relabeling equivariance, Red↔Blue swap,
//! disjoint-union composition). Failures are recorded in a seeded
//! [`replay`] ledger whose lines are one-command repros.
//!
//! Run the quick tier (per-PR CI budget) or the full tier:
//!
//! ```text
//! cargo run -p conformance --release -- --quick
//! cargo run -p conformance --release -- --full --ledger conformance-ledger.txt
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod service;

pub use harness::{
    run_cell, run_corpus, run_corpus_groups, run_scenario, ConformanceReport, Finding, Group,
};
pub use replay::{repro_line, write_ledger, Selector, REPLAY_ENV};
pub use report::{matrix, render_matrix, MatrixRow};
pub use scenario::{corpus, Regime, Scenario, Tier, FAMILY_COUNT};
