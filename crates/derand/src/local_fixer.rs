//! The conditional-expectation fixer as a genuine message-passing LOCAL
//! program.
//!
//! [`crate::phased_fix`] computes the compiled schedule centrally (the
//! loop structure mirrors the phases exactly). This module runs the *same*
//! algorithm through [`local_runtime::run_local`] as real node programs:
//! in phase `p`, constraints broadcast their estimator state (per-color
//! base values and unfixed counts — one LOCAL message), and the variables
//! of square-color class `p` pick the `Φ`-minimizing color and announce it.
//! Because same-class variables share no constraint, their greedy choices
//! commute, and the outputs are *bit-identical* to [`crate::phased_fix`] —
//! the cross-validation test below asserts exactly that.

use crate::estimator::ColoringEstimator;
use crate::fixer::FixOutcome;
use local_runtime::{run_local, Inbox, NodeContext, NodeProgram, Outbox};
use splitgraph::{BipartiteGraph, MultiColor};
use std::rc::Rc;

/// Messages exchanged by the distributed fixer.
#[derive(Debug)]
enum Msg {
    /// Constraint → variables: per-color base values and the unfixed count.
    State { bases: Box<[f64]>, unfixed: usize },
    /// Variable → constraints: the chosen color.
    Decide(MultiColor),
}

/// Node roles share one program struct.
struct Fixer {
    est: Rc<ColoringEstimator>,
    is_constraint: bool,
    /// variable: its square-coloring class; constraint: unused
    class: u32,
    palette_classes: u32,
    phase: u32,
    step: u8,
    /// constraint state: per-color fixed counts + unfixed neighbors
    counts: Vec<u32>,
    unfixed: usize,
    /// constraint id (for base lookups)
    cid: usize,
    /// variable output
    color: MultiColor,
    decided: bool,
}

impl Fixer {
    fn constraint_bases(&self) -> Box<[f64]> {
        (0..self.est.palette())
            .map(|x| self.est.base(self.cid, self.counts[x as usize]))
            .collect()
    }
}

impl NodeProgram for Fixer {
    type Msg = Msg;
    type Output = (MultiColor, bool);

    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<Msg>) {
        if self.is_constraint {
            self.unfixed = ctx.degree;
            out.broadcast(Msg::State {
                bases: self.constraint_bases(),
                unfixed: self.unfixed,
            });
        }
    }

    fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, Msg>, out: &mut Outbox<Msg>) {
        self.step += 1;
        let odd = self.step % 2 == 1; // odd steps: variables act on states
        if self.is_constraint {
            if odd {
                // nothing to do: wait for decisions
                return;
            }
            // apply decisions, then publish the refreshed state
            for (_, m) in inbox.iter() {
                if let Msg::Decide(x) = m {
                    self.counts[*x as usize] += 1;
                    self.unfixed -= 1;
                }
            }
            self.phase += 1;
            if self.phase >= self.palette_classes {
                return;
            }
            out.broadcast(Msg::State {
                bases: self.constraint_bases(),
                unfixed: self.unfixed,
            });
        } else {
            if !odd {
                return;
            }
            // decide if this is our class
            if self.decided || self.phase != self.class {
                self.phase += 1;
                return;
            }
            // greedy choice: minimize Σ_u φ'_u over the candidates; each
            // state's base sum is taken once, and every candidate's score
            // adds its constraints' terms in inbox order
            let factor = self.est.factor();
            let step_f = self.est.step();
            let mut scores = vec![0.0f64; self.est.palette() as usize];
            for (_, m) in inbox.iter() {
                if let Msg::State { bases, unfixed } = m {
                    let sum: f64 = bases.iter().sum();
                    let f = factor.powi(*unfixed as i32 - 1);
                    for (score, &old) in scores.iter_mut().zip(bases.iter()) {
                        let new = if step_f == 0.0 { 0.0 } else { old * step_f };
                        *score += f * (sum - old + new);
                    }
                }
            }
            let mut best = 0u32;
            let mut best_score = f64::INFINITY;
            for (x, &score) in scores.iter().enumerate() {
                if score < best_score {
                    best_score = score;
                    best = x as u32;
                }
            }
            self.color = best;
            self.decided = true;
            self.phase += 1;
            out.broadcast(Msg::Decide(best));
        }
    }

    fn is_done(&self) -> bool {
        self.phase >= self.palette_classes
    }

    fn output(&self) -> (MultiColor, bool) {
        (self.color, self.decided)
    }
}

/// Runs the compiled fixer as real message passing on the flattened host
/// graph of `b`. Outputs match [`crate::phased_fix`] exactly; measured
/// rounds are `2 × palette` (plus nothing — init is round 0).
///
/// # Panics
///
/// Panics if the square coloring violates the scheduling precondition or
/// lengths mismatch.
pub fn distributed_phased_fix(
    b: &BipartiteGraph,
    est: ColoringEstimator,
    square_coloring: &[u32],
    palette: u32,
) -> FixOutcome {
    assert_eq!(
        square_coloring.len(),
        b.right_count(),
        "square coloring length mismatch"
    );
    // same scheduling precondition (and stamp-pass check) as the central fixer
    crate::fixer::verify_schedule(b, square_coloring);
    let est = Rc::new(est);
    let g = b.to_graph();
    let ids: Vec<u64> = (0..g.node_count() as u64).collect();
    let left = b.left_count();

    // initial Φ for the certificate (same quantity the central fixer uses)
    let initial_phi: f64 = (0..b.left_count())
        .map(|u| est.factor().powi(b.left_degree(u) as i32) * est.palette() as f64 * est.base(u, 0))
        .sum();

    let est2 = est.clone();
    let run = run_local(&g, &ids, 2 * palette as usize + 2, move |ctx| Fixer {
        est: est2.clone(),
        is_constraint: ctx.node < left,
        class: if ctx.node < left {
            0
        } else {
            square_coloring[ctx.node - left]
        },
        palette_classes: palette,
        phase: 0,
        step: 0,
        counts: vec![0; est2.palette() as usize],
        unfixed: 0,
        cid: if ctx.node < left { ctx.node } else { 0 },
        color: 0,
        decided: false,
    });
    assert!(run.completed, "fixer must finish within 2·palette rounds");
    let colors: Vec<MultiColor> = run.outputs[left..].iter().map(|&(c, _)| c).collect();
    debug_assert!(
        run.outputs[left..]
            .iter()
            .all(|&(_, d)| d || b.right_count() == 0),
        "every variable must decide"
    );

    // final Φ re-evaluated centrally (for the FixOutcome contract)
    let mut state = crate::estimator::FixerState::new(b, (*est).clone());
    for (v, &x) in colors.iter().enumerate() {
        state.fix(v, x);
    }
    FixOutcome {
        colors,
        initial_phi,
        final_phi: state.total(),
        rounds: run.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixer::phased_fix;
    use local_coloring::greedy_right_square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_weak_splitting;
    use splitgraph::{generators, Color};

    fn schedule(b: &BipartiteGraph) -> (Vec<u32>, u32) {
        let (colors, _) = greedy_right_square(b);
        let palette = colors.iter().copied().max().map_or(1, |c| c + 1);
        (colors, palette)
    }

    #[test]
    fn matches_central_phased_fix_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = generators::random_left_regular(40, 80, 14, &mut rng).unwrap();
        let (sched, palette) = schedule(&b);
        let central = phased_fix(&b, ColoringEstimator::monochromatic(&b), &sched, palette);
        let distributed =
            distributed_phased_fix(&b, ColoringEstimator::monochromatic(&b), &sched, palette);
        assert_eq!(
            central.colors, distributed.colors,
            "identical greedy choices"
        );
        assert_eq!(distributed.rounds, 2 * palette as usize);
        assert!((central.initial_phi - distributed.initial_phi).abs() < 1e-9);
    }

    #[test]
    fn solves_weak_splitting_distributedly() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = generators::random_left_regular(60, 120, 16, &mut rng).unwrap();
        let (sched, palette) = schedule(&b);
        let out = distributed_phased_fix(&b, ColoringEstimator::monochromatic(&b), &sched, palette);
        assert!(out.initial_phi < 1.0);
        assert!(out.final_phi < 1.0);
        let colors: Vec<Color> = out
            .colors
            .iter()
            .map(|&x| if x == 0 { Color::Red } else { Color::Blue })
            .collect();
        assert!(is_weak_splitting(&b, &colors, 0));
    }

    #[test]
    fn multicolor_estimator_also_works() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = generators::random_left_regular(24, 96, 48, &mut rng).unwrap();
        let (sched, palette) = schedule(&b);
        let est = ColoringEstimator::missing_color(&b, 5);
        let central = phased_fix(&b, est.clone(), &sched, palette);
        let distributed = distributed_phased_fix(&b, est, &sched, palette);
        assert_eq!(central.colors, distributed.colors);
    }
}
