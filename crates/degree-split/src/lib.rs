//! # degree-split — directed degree splitting (Theorem 2.3 substrate)
//!
//! The splitting paper invokes "improved distributed degree splitting"
//! [GHK+17b] as a black box: an orientation with per-node in/out discrepancy
//! at most `ε·d(v) + 2` in `O(ε⁻¹·log ε⁻¹·(log log ε⁻¹)^1.71·log n)` rounds
//! (deterministic; `log log n` randomized). This crate reproduces the
//! contract with two engines behind the [`DegreeSplitter`] facade:
//!
//! * [`eulerian_orientation`] — the reference engine (discrepancy 0/1),
//!   rounds charged by the cited formula ([`splitting_rounds_deterministic`]
//!   / [`splitting_rounds_randomized`]); one traversal kernel over a packed
//!   incidence, which [`DegreeSplitter::split_bipartite`] also builds
//!   straight from a bipartite graph's rows;
//! * [`walk_splitting`] — a genuinely distributed engine built on walk
//!   decompositions ([`WalkDecomposition`]), Cole–Vishkin coloring and
//!   spaced ruling sets, with measured rounds;
//! * [`edge_splitting_eulerian`] / [`edge_splitting_walk`] — the
//!   *undirected* variant (edge 2-coloring with per-node balance), the
//!   tool behind the paper's edge-coloring motivation (§1.1). The walk
//!   engine cuts the walks into the same segments as [`walk_splitting`]
//!   (one shared segmentation) and alternates colors along each.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod charge;
mod distributed;
mod eulerian;
mod splitter;
mod undirected;
mod walks;

pub use charge::{splitting_rounds_deterministic, splitting_rounds_randomized};
pub use distributed::{walk_splitting, WalkSplitting};
pub use eulerian::eulerian_orientation;
pub use splitter::{BipartiteSplit, DegreeSplitter, Engine, Flavor, SplitResult};
pub use undirected::{edge_splitting_eulerian, edge_splitting_walk, EdgeSplitting};
pub use walks::WalkDecomposition;
