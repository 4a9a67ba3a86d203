//! # local-runtime — LOCAL and SLOCAL model simulators
//!
//! Round-accurate simulation infrastructure for the reproduction of
//! *"On the Complexity of Distributed Splitting Problems"* (PODC 2019):
//!
//! * [`run_local`] executes one [`NodeProgram`] per node of a
//!   [`splitgraph::Graph`] under the synchronous LOCAL model, measuring
//!   rounds and messages;
//! * [`run_slocal`] executes sequential-local (SLOCAL) algorithms with
//!   *enforced* read radius — the model in which the paper's
//!   derandomization arguments live;
//! * [`RoundLedger`] keeps measured and charged (cited-formula) round costs
//!   separate and labelled;
//! * [`NodeRngs`] derives reproducible independent randomness per node;
//! * [`IdAssignment`] controls the unique-identifier space;
//! * [`CancelToken`] + [`with_token`] + [`checkpoint`] provide
//!   cooperative, deadline-aware cancellation of long solves without
//!   perturbing results when unused.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cancel;
mod ids;
mod local;
mod metrics;
mod rngs;
mod slocal;

pub use cancel::{checkpoint, with_token, CancelToken, Cancelled};
pub use ids::IdAssignment;
pub use local::{run_local, Inbox, LocalRun, NodeContext, NodeProgram, Outbox};
pub use metrics::{CostKind, LedgerEntry, RoundLedger};
pub use rngs::{splitmix64, NodeRngs};
pub use slocal::{run_slocal, SLocalView};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::RoundLedger>();
        assert_send_sync::<super::NodeRngs>();
        assert_send_sync::<super::IdAssignment>();
        assert_send_sync::<super::NodeContext>();
    }
}
