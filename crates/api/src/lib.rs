//! # splitting-api — one typed door to every splitting workload
//!
//! The paper presents one coherent landscape — weak, multicolor, and
//! uniform splitting, degree splitting, and the Section 4 reductions —
//! dispatched by `(n, δ, r)` regime. This crate is that landscape as a
//! single request/solution surface:
//!
//! * [`Problem`] — every solvable workload as one enum (weak splitting,
//!   Definition 1.2/1.3 multicolor, uniform splitting, degree splitting,
//!   sinkless orientation, Δ-coloring, edge coloring, MIS);
//! * [`Request`] — a builder carrying the instance, determinism policy,
//!   master seed, theorem-selection override, and resource budgets;
//! * [`Solution`] — the output bundled with a self-verifying
//!   [`Certificate`] (re-runs the matching `splitgraph::checks`
//!   predicate), a [`Provenance`] record (chosen pipeline + regime
//!   parameters + why), and the round ledger;
//! * [`Session`] — solves one request at a time on the calling thread;
//! * [`Session::hold`] / [`HeldSolution`] — the churn surface: hold an
//!   instance, stream [`splitgraph::EdgeDelta`] batches into it, and get
//!   back incrementally repaired (still fully certified) solutions;
//! * [`ApiError`] — the closed error taxonomy of the boundary.
//!
//! Solutions are **verified before they are returned**: a session never
//! hands out an output that fails its own certificate. Under the same
//! seed, every route is bit-identical to the legacy per-theorem
//! entrypoint it wraps (asserted by the conformance harness's `api`
//! group).
//!
//! # Example
//!
//! ```
//! use splitting_api::{Problem, Request, Session};
//! use splitgraph::generators;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 100 constraints of degree 20 over 100 variables: the Theorem 2.5 /
//! // zero-round density regime.
//! let mut rng = StdRng::seed_from_u64(1);
//! let b = generators::random_biregular(100, 100, 20, &mut rng)?;
//!
//! let session = Session::new();
//! let solution = session.solve(&Request::new(Problem::weak_splitting(), b).seed(7))?;
//!
//! // the certificate re-ran splitgraph::checks and holds
//! assert!(solution.certificate.holds());
//! // provenance says which pipeline the regime dispatcher picked and why
//! println!("{}", solution.provenance);
//! // one-line JSON for service logs
//! assert!(solution.to_json_line().starts_with("{\"event\":\"solution\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod hold;
mod problem;
pub mod render;
mod request;
mod session;
mod solution;

pub use error::ApiError;
pub use hold::{ChurnStats, HeldSolution, DEFAULT_REFIX_THRESHOLD};
pub use problem::{Instance, Output, Problem};
pub use request::{Budget, Determinism, Request, DEFAULT_SEED};
pub use session::{solve, Session};
pub use solution::{Certificate, CertificateKind, Provenance, Solution};

// the pipeline names surface in requests (`force_pipeline`) and
// provenance records; re-export so API callers need not depend on the
// core crate for them
pub use splitting_core::{Pipeline, RegimeParams};

// cancellation handles surface in `Session::solve_with_cancel`;
// re-export so API callers (notably the `splitd` workers) need not
// depend on the runtime crate for them
pub use local_runtime::{CancelToken, Cancelled};
