//! # local-coloring — distributed symmetry-breaking substrate
//!
//! The coloring toolbox the splitting paper's algorithms rely on, every
//! piece implemented as an actual distributed procedure with measured round
//! counts:
//!
//! * [`linial_color`] — Linial's `O(Δ²)`-coloring in `O(log* n)` rounds via
//!   polynomial cover-free families over [`PrimeField`];
//! * [`greedy_reduce`] / [`kw_reduce`] — color reduction to `Δ+1`
//!   (one-class-per-round, and Kuhn–Wattenhofer batched halving — the
//!   stand-in for the linear-in-Δ \[BEK14a\] coloring cited in Lemma 2.1);
//! * [`color_power`] — distance-`k` colorings of `G^k` with the factor-`k`
//!   simulation overhead accounted, as consumed by the SLOCAL→LOCAL
//!   compiler;
//! * [`greedy_right_square`] — the sequential greedy coloring of a
//!   bipartite graph's variable square, computed on the bipartite graph
//!   without building the square (Lemma 2.1's reference scheduling);
//! * [`cole_vishkin_3color`] / [`spaced_ruling_set`] — 3-coloring and
//!   spaced cut-point selection on [`Chains`] (walk decompositions), used by
//!   the distributed degree-splitting engine;
//! * [`luby_mis`] — Luby's randomized MIS as a message-passing baseline for
//!   the flagship symmetry-breaking problem of the paper's introduction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chains;
mod gf;
mod linial;
mod mis;
mod power_color;
mod reduce;

pub use chains::{cole_vishkin_3color, spaced_ruling_set, ChainColoring, Chains, RulingSet};
pub use gf::{is_prime, next_prime, PrimeField};
pub use linial::{linial_color, linial_schedule, ColoringOutcome, LinialStep};
pub use mis::{luby_mis, LubyOutcome};
pub use power_color::{color_power, greedy_right_square, greedy_sequential};
pub use reduce::{greedy_reduce, kw_reduce};
