//! The shattering algorithm (Section 2.4) as a genuine LOCAL node program.
//!
//! Coloring phase: every variable colors itself red with probability 1/4,
//! blue with probability 1/4, and stays uncolored otherwise. Uncoloring
//! phase: every constraint with more than `3/4` of its neighbors colored
//! uncolors **all** of its neighbors. A constraint is *satisfied* if it then
//! sees both colors; Lemma 2.9 shows unsatisfied constraints are
//! exponentially rare in `Δ`, and Theorem 2.8 ([GHK16]) bounds the residual
//! components by `poly(Δ, r)·log n`.
//!
//! The three message rounds (announce color, command uncoloring, announce
//! final color) run through [`local_runtime::run_local`] on the flattened
//! bipartite host graph.

use local_runtime::{run_local, Inbox, NodeContext, NodeProgram, NodeRngs, Outbox};
use rand::RngExt;
use splitgraph::{BipartiteGraph, Color};

/// Outcome of one shattering run.
#[derive(Debug, Clone)]
pub struct ShatterOutcome {
    /// Partial coloring of the variable side after the uncoloring phase.
    pub colors: Vec<Option<Color>>,
    /// Which constraints see both colors.
    pub satisfied: Vec<bool>,
    /// The residual instance: unsatisfied constraints × uncolored variables
    /// (indices preserved from the input instance; satisfied/colored nodes
    /// are isolated in it).
    pub residual: BipartiteGraph,
    /// Measured LOCAL rounds (always 3).
    pub rounds: usize,
    /// Messages delivered by the simulator.
    pub messages: usize,
}

/// Messages of the shattering program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    /// A variable announces its (tentative or final) color.
    Announce(Option<Color>),
    /// A constraint commands its neighborhood to uncolor.
    Uncolor,
}

/// Per-node state: constraints and variables run the same program with a
/// role flag (nodes `0..left_count` are constraints).
struct Shatter {
    is_constraint: bool,
    probability: f64,
    rngs: NodeRngs,
    step: u8,
    /// variable: my color; constraint: unused
    color: Option<Color>,
    /// constraint: satisfied flag
    satisfied: bool,
}

impl NodeProgram for Shatter {
    type Msg = Msg;
    type Output = (Option<Color>, bool);

    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<Msg>) {
        if self.is_constraint {
            return;
        }
        let mut rng = self.rngs.rng(ctx.node, 0);
        let roll: f64 = rng.random();
        self.color = if roll < self.probability {
            Some(Color::Red)
        } else if roll < 2.0 * self.probability {
            Some(Color::Blue)
        } else {
            None
        };
        out.broadcast(Msg::Announce(self.color));
    }

    fn round(&mut self, ctx: &NodeContext, inbox: Inbox<'_, Msg>, out: &mut Outbox<Msg>) {
        self.step += 1;
        match (self.is_constraint, self.step) {
            (true, 1) => {
                // uncoloring decision: more than 3/4 colored neighbors?
                let colored = inbox
                    .iter()
                    .filter(|(_, m)| matches!(m, Msg::Announce(Some(_))))
                    .count();
                if 4 * colored > 3 * ctx.degree {
                    out.broadcast(Msg::Uncolor);
                }
            }
            (false, 2) => {
                // apply uncoloring, announce the final color
                if inbox.iter().any(|(_, m)| matches!(m, Msg::Uncolor)) {
                    self.color = None;
                }
                out.broadcast(Msg::Announce(self.color));
            }
            (true, 3) => {
                // satisfaction: both colors present among final announcements
                let mut red = false;
                let mut blue = false;
                for (_, m) in inbox.iter() {
                    match m {
                        Msg::Announce(Some(Color::Red)) => red = true,
                        Msg::Announce(Some(Color::Blue)) => blue = true,
                        _ => {}
                    }
                }
                self.satisfied = red && blue;
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        self.step >= 3
    }

    fn output(&self) -> (Option<Color>, bool) {
        (self.color, self.satisfied)
    }
}

/// Runs the shattering algorithm with per-color probability 1/4 (the
/// paper's choice).
///
/// # Examples
///
/// ```
/// use splitting_core::shatter;
/// use splitgraph::generators;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let b = generators::random_biregular(50, 100, 16, &mut rng)?;
/// let out = shatter(&b, 42);
/// assert_eq!(out.rounds, 3); // coloring, uncoloring, final announcement
/// // every constraint keeps at least a quarter of its neighbors uncolored
/// for u in 0..50 {
///     let uncolored = b.left_neighbors(u).iter().filter(|&&v| out.colors[v].is_none()).count();
///     assert!(4 * uncolored >= b.left_degree(u));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn shatter(b: &BipartiteGraph, seed: u64) -> ShatterOutcome {
    shatter_with_probability(b, seed, 0.25)
}

/// Runs the shattering algorithm with a custom per-color probability — the
/// `abl_shatter` ablation sweeps this parameter.
///
/// # Panics
///
/// Panics if `probability` is not in `(0, 0.5]`.
pub fn shatter_with_probability(b: &BipartiteGraph, seed: u64, probability: f64) -> ShatterOutcome {
    assert!(
        probability > 0.0 && probability <= 0.5,
        "per-color probability must lie in (0, 0.5]"
    );
    let g = b.to_graph();
    let ids: Vec<u64> = (0..g.node_count() as u64).collect();
    let rngs = NodeRngs::new(seed);
    let left = b.left_count();
    let run = run_local(&g, &ids, 4, |ctx| Shatter {
        is_constraint: ctx.node < left,
        probability,
        rngs,
        step: 0,
        color: None,
        satisfied: false,
    });
    debug_assert!(run.completed);

    let satisfied: Vec<bool> = run.outputs[..left].iter().map(|&(_, s)| s).collect();
    let colors: Vec<Option<Color>> = run.outputs[left..].iter().map(|&(c, _)| c).collect();
    let keep_left: Vec<bool> = satisfied.iter().map(|&s| !s).collect();
    let keep_right: Vec<bool> = colors.iter().map(Option::is_none).collect();
    let residual = b.induced_subgraph(&keep_left, &keep_right);
    ShatterOutcome {
        colors,
        satisfied,
        residual,
        rounds: run.rounds,
        messages: run.messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    #[test]
    fn shattering_takes_three_rounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_biregular(50, 100, 16, &mut rng).unwrap();
        let out = shatter(&b, 42);
        assert_eq!(out.rounds, 3);
        assert_eq!(out.colors.len(), 100);
        assert_eq!(out.satisfied.len(), 50);
    }

    #[test]
    fn satisfied_constraints_see_both_colors() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = generators::random_biregular(60, 120, 20, &mut rng).unwrap();
        let out = shatter(&b, 7);
        for u in 0..60 {
            let sees_both = splitgraph::checks::sees_both_colors(&b, u, &out.colors);
            assert_eq!(out.satisfied[u], sees_both, "constraint {u}");
        }
    }

    #[test]
    fn every_constraint_keeps_quarter_uncolored() {
        // the δ_H ≥ δ/4 property from the proof of Theorem 1.2
        let mut rng = StdRng::seed_from_u64(3);
        let b = generators::random_biregular(80, 160, 24, &mut rng).unwrap();
        for seed in 0..5 {
            let out = shatter(&b, seed);
            for u in 0..80 {
                let uncolored = b
                    .left_neighbors(u)
                    .iter()
                    .filter(|&&v| out.colors[v].is_none())
                    .count();
                assert!(
                    4 * uncolored >= b.left_degree(u),
                    "constraint {u} kept only {uncolored}/{} uncolored (seed {seed})",
                    b.left_degree(u)
                );
            }
        }
    }

    #[test]
    fn residual_contains_exactly_unsatisfied_and_uncolored() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = generators::random_biregular(40, 80, 12, &mut rng).unwrap();
        let out = shatter(&b, 11);
        for u in 0..40 {
            if out.satisfied[u] {
                assert_eq!(out.residual.left_degree(u), 0);
            } else {
                let uncolored = b
                    .left_neighbors(u)
                    .iter()
                    .filter(|&&v| out.colors[v].is_none())
                    .count();
                assert_eq!(out.residual.left_degree(u), uncolored);
            }
        }
        for v in 0..80 {
            if out.colors[v].is_some() {
                assert_eq!(out.residual.right_degree(v), 0);
            }
        }
    }

    #[test]
    fn unsatisfied_fraction_drops_with_degree() {
        // Lemma 2.9 shape: exponential decay in Δ
        let mut rng = StdRng::seed_from_u64(5);
        let mut rates = Vec::new();
        for &d in &[4usize, 16, 48] {
            let b = generators::random_biregular(64, 128, d, &mut rng).unwrap();
            let mut unsat = 0usize;
            let trials = 40;
            for seed in 0..trials {
                let out = shatter(&b, seed);
                unsat += out.satisfied.iter().filter(|&&s| !s).count();
            }
            rates.push(unsat as f64 / (64.0 * trials as f64));
        }
        assert!(rates[0] > rates[2], "rates {rates:?} must decay in Δ");
        assert!(
            rates[2] < 0.01,
            "high-degree unsatisfied rate {} too large",
            rates[2]
        );
    }

    #[test]
    fn seed_determinism() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = generators::random_biregular(30, 60, 8, &mut rng).unwrap();
        let a = shatter(&b, 5);
        let c = shatter(&b, 5);
        assert_eq!(a.colors, c.colors);
        assert_eq!(a.satisfied, c.satisfied);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let b = generators::complete_bipartite(1, 2);
        let _ = shatter_with_probability(&b, 0, 0.75);
    }
}
