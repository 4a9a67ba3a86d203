//! # splitting-core — the algorithms of the splitting paper
//!
//! Reproduction of every algorithm in *"On the Complexity of Distributed
//! Splitting Problems"* (Bamberger, Ghaffari, Kuhn, Maus, Uitto; PODC 2019):
//!
//! * [`zero_round_coloring`] — the trivial randomized algorithm (Sec. 2.1);
//! * [`basic_deterministic`] — Lemma 2.1, `O(Δ·r)` rounds;
//! * [`truncated_deterministic`] — Lemma 2.2, `O(r·log n)` rounds;
//! * [`degree_rank_reduction_i`] — Section 2.2 + Lemma 2.4 bound traces;
//! * [`theorem25`] — Theorem 2.5 / 1.1, the deterministic headline result;
//! * [`degree_rank_reduction_ii`] — Section 2.3 + Lemma 2.6;
//! * [`theorem27`] — Theorem 2.7, the `δ ≥ 6r` regime;
//! * [`shatter`] — the Section 2.4 shattering algorithm (LOCAL program);
//! * [`theorem12`] — Theorem 1.2, the randomized headline result;
//! * [`uniformize_left_degrees`] — Section 2.4 virtual-node preprocessing;
//! * [`weak_multicolor_deterministic`] / [`multicolor_splitting_deterministic`]
//!   — the Section 3 multicolor variants;
//! * [`weak_splitting_via_weak_multicolor`] /
//!   [`weak_multicolor_via_multicolor_splitting`] — the Theorems 3.2/3.3
//!   completeness reductions, run forward;
//! * [`sinkless_via_weak_splitting`] — Section 2.5 / Figure 1;
//! * [`theorem52`] / [`theorem53`] — Section 5 high-girth results;
//! * [`slocal_weak_splitting`] — Lemma 3.1's SLOCAL(2) algorithm with the
//!   read radius enforced by the executor;
//! * [`decide_pipeline`] — the regime dispatch: which theorem's
//!   pipeline an instance's `(n, δ, r)` parameters admit.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod basic;
mod completeness;
mod drr1;
mod drr2;
mod high_girth;
mod lower_bound;
mod multicolor;
mod outcome;
mod shatter;
mod slocal_alg;
mod solver;
mod thm12;
mod thm25;
mod thm27;
mod truncate;
mod virtual_split;
mod zero_round;

pub use basic::{
    basic_deterministic, basic_deterministic_unchecked, basic_deterministic_with, SchedulingMode,
};
pub use completeness::{
    weak_multicolor_via_multicolor_splitting, weak_splitting_via_weak_multicolor, Theorem33Config,
    Theorem33Report,
};
pub use drr1::{degree_rank_reduction_i, DrrIterationStats, DrrReduction};
pub use drr2::{degree_rank_reduction_ii, drr2_iteration, Drr2IterationStats, Drr2Reduction};
pub use high_girth::{lemma51_stats, theorem52, theorem53, GirthScheduling, Lemma51Stats};
pub use lower_bound::{
    corollary211_deterministic_bound, orientation_from_splitting, sinkless_from_instance,
    sinkless_via_weak_splitting, solve_rank2_reference, theorem210_randomized_bound,
    SinklessReduction,
};
pub use multicolor::{
    multicolor_splitting_deterministic, multicolor_splitting_random, theorem33_palette,
    weak_multicolor_deterministic, weak_multicolor_random, weak_multicolor_slocal,
    MulticolorOutcome,
};
pub use outcome::{to_two_coloring, SplitError, SplitOutcome};
pub use shatter::{shatter, shatter_with_probability, ShatterOutcome};
pub use slocal_alg::slocal_weak_splitting;
pub use solver::{decide_pipeline, Pipeline, RegimeParams, DISPATCH_REQUIREMENT};
pub use thm12::{theorem12, theorem12_with_report, Theorem12Config, Theorem12Report};
pub use thm25::{theorem25, theorem25_round_bound, Theorem25Report};
pub use thm27::{theorem27, Variant};
pub use truncate::{truncate_left_degrees, truncated_deterministic};
pub use virtual_split::{uniformize_left_degrees, VirtualSplit};
pub use zero_round::{zero_round_coloring, zero_round_whp};
