//! # derand — derandomization substrate (\[GHK16\])
//!
//! The splitting paper's deterministic algorithms all arise by
//! derandomizing trivial zero-round randomized algorithms through the
//! method of conditional expectations, phrased in the SLOCAL model and
//! compiled to LOCAL via distance-2 colorings. This crate packages that
//! machinery:
//!
//! * [`ColoringEstimator`] — product-form pessimistic estimators for all
//!   three failure events used in the paper (monochromatic neighborhood,
//!   missing colors, per-color overload);
//! * [`FixerState`] — incremental state with O(1) per-candidate
//!   re-evaluation: flat per-constraint × per-color count arrays over a
//!   flat CSR incidence, precomputed `factor^k`/`step^k` power tables (no
//!   `powi`/`powf` in the inner loop), and an incrementally maintained `Φ`
//!   ([`FixerState::tracked_total`]) whose floating-point drift is bounded
//!   by a periodic full-recompute guard — the tracked value is rebased
//!   onto an exact `Σ_u φ_u` every `max(64, |U|)` commits, so whole-run
//!   overhead stays `O(m)` while step-wise error stays below `1e-9`;
//! * [`sequential_fix`] — the SLOCAL(2) greedy fixer, over any order of
//!   the variables;
//! * [`phased_fix`] — the LOCAL compilation by color classes of the
//!   variable square ([GHK17a, Prop. 3.2]), with measured rounds `2·C`;
//! * [`distributed_phased_fix`] — the same compilation executed as real
//!   message passing through [`local_runtime::run_local`], bit-identical
//!   to [`phased_fix`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod estimator;
mod fixer;
mod local_fixer;

pub use estimator::{chernoff_t, ColoringEstimator, FixerState};
pub use fixer::{phased_fix, sequential_fix, FixOutcome};
pub use local_fixer::distributed_phased_fix;
