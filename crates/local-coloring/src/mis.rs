//! Luby's randomized maximal independent set [Luby '86] as a genuine
//! message-passing LOCAL program.
//!
//! MIS is the flagship symmetry-breaking problem in the splitting paper's
//! framing: a `poly log n` deterministic MIS is among the open problems
//! weak splitting is complete for, while this randomized algorithm ends in
//! `O(log n)` phases w.h.p. It serves as a measured-rounds baseline next to
//! the Section 4 heavy-node-elimination MIS.
//!
//! Each phase costs three rounds: active nodes exchange random priorities,
//! local maxima join the set and announce it, and their neighbors retire
//! (announcing that too, so the survivors shrink their active-neighbor
//! sets).

use local_runtime::{run_local, Inbox, NodeContext, NodeProgram, NodeRngs, Outbox};
use rand::RngExt;
use splitgraph::Graph;

/// Outcome of a Luby MIS run.
#[derive(Debug, Clone)]
pub struct LubyOutcome {
    /// Set-membership indicator, by node.
    pub in_mis: Vec<bool>,
    /// Measured LOCAL rounds (3 per phase).
    pub rounds: usize,
    /// Phases executed (`rounds / 3`, rounded up).
    pub phases: usize,
    /// Messages delivered.
    pub messages: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Msg {
    /// `(priority, id)` of an active node this phase.
    Priority(u64, u64),
    /// The sender joined the MIS.
    Joined,
    /// The sender retired (a neighbor joined).
    Retired,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Active,
    InMis,
    Out,
}

struct Luby {
    rngs: NodeRngs,
    state: State,
    /// ports of still-active neighbors
    active_ports: Vec<bool>,
    phase: u64,
    step: u8,
    /// best competing (priority, id) received this phase
    best_rival: Option<(u64, u64)>,
}

impl NodeProgram for Luby {
    type Msg = Msg;
    type Output = bool;

    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<Msg>) {
        self.active_ports = vec![true; ctx.degree];
        if ctx.degree == 0 {
            // isolated nodes join immediately
            self.state = State::InMis;
            return;
        }
        let p: u64 = self.rngs.rng(ctx.node, self.phase).random();
        out.broadcast(Msg::Priority(p, ctx.id));
    }

    fn round(&mut self, ctx: &NodeContext, inbox: Inbox<'_, Msg>, out: &mut Outbox<Msg>) {
        self.step = (self.step + 1) % 3;
        match self.step {
            1 => {
                // received priorities; decide whether we are the local max
                self.best_rival = inbox
                    .iter()
                    .filter_map(|(_, m)| match *m {
                        Msg::Priority(p, id) => Some((p, id)),
                        _ => None,
                    })
                    .max();
                if self.state != State::Active {
                    return;
                }
                let mine: u64 = self.rngs.rng(ctx.node, self.phase).random();
                if self.best_rival.is_none_or(|rival| (mine, ctx.id) > rival) {
                    self.state = State::InMis;
                    out.broadcast(Msg::Joined);
                }
            }
            2 => {
                // joiners' neighbors retire
                for (port, &m) in inbox.iter() {
                    if m == Msg::Joined {
                        self.active_ports[port] = false;
                        if self.state == State::Active {
                            self.state = State::Out;
                        }
                    }
                }
                if self.state == State::Out && inbox.iter().any(|(_, &m)| m == Msg::Joined) {
                    out.broadcast(Msg::Retired);
                }
            }
            _ => {
                // prune retired neighbors; next phase's priorities go out
                for (port, &m) in inbox.iter() {
                    if m == Msg::Retired {
                        self.active_ports[port] = false;
                    }
                }
                self.phase += 1;
                if self.state != State::Active {
                    return;
                }
                if !self.active_ports.iter().any(|&a| a) {
                    // all neighbors decided: we can join unopposed
                    self.state = State::InMis;
                    out.broadcast(Msg::Joined);
                    return;
                }
                let p: u64 = self.rngs.rng(ctx.node, self.phase).random();
                out.broadcast(Msg::Priority(p, ctx.id));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.state != State::Active
    }

    fn output(&self) -> bool {
        self.state == State::InMis
    }
}

/// Runs Luby's MIS on `g` with the given seed. Completes in `O(log n)`
/// phases w.h.p.; the returned indicator is always validated by the caller
/// (or see the tests) via [`splitgraph::checks::is_mis`].
///
/// # Examples
///
/// ```
/// use local_coloring::luby_mis;
/// use splitgraph::{checks, generators};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let g = generators::random_regular(100, 6, &mut rng)?;
/// let out = luby_mis(&g, 42);
/// assert!(checks::is_mis(&g, &out.in_mis));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn luby_mis(g: &Graph, seed: u64) -> LubyOutcome {
    let n = g.node_count();
    let ids: Vec<u64> = (0..n as u64).collect();
    let rngs = NodeRngs::new(seed);
    // O(log n) phases w.h.p.; the limit is far above that
    let max_rounds = 3 * (4 * (n.max(2) as f64).log2().ceil() as usize + 8);
    let run = run_local(g, &ids, max_rounds, |_| Luby {
        rngs,
        state: State::Active,
        active_ports: Vec::new(),
        phase: 0,
        step: 0,
        best_rival: None,
    });
    assert!(
        run.completed,
        "Luby must terminate within O(log n) phases w.h.p."
    );
    LubyOutcome {
        in_mis: run.outputs,
        rounds: run.rounds,
        phases: run.rounds.div_ceil(3),
        messages: run.messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::checks::is_mis;
    use splitgraph::generators;

    #[test]
    fn valid_mis_on_random_regular_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in [3usize, 8, 16] {
            let g = generators::random_regular(200, d, &mut rng).unwrap();
            let out = luby_mis(&g, d as u64);
            assert!(is_mis(&g, &out.in_mis), "Δ = {d}");
        }
    }

    #[test]
    fn phases_grow_logarithmically() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut phase_counts = Vec::new();
        for n in [64usize, 512, 4096] {
            let g = generators::random_regular(n, 6, &mut rng).unwrap();
            let out = luby_mis(&g, 9);
            assert!(is_mis(&g, &out.in_mis));
            phase_counts.push(out.phases);
        }
        // 64× more nodes must not multiply phases (log-shape sanity)
        assert!(
            phase_counts[2] <= 3 * phase_counts[0].max(2),
            "phases {phase_counts:?} grew superlogarithmically"
        );
    }

    #[test]
    fn isolated_nodes_always_join() {
        let g = Graph::new(5);
        let out = luby_mis(&g, 0);
        assert!(out.in_mis.iter().all(|&x| x));
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn cycle_and_path_cases() {
        let g = generators::cycle(101).unwrap();
        let out = luby_mis(&g, 5);
        assert!(is_mis(&g, &out.in_mis));
        let g = generators::path(50);
        let out = luby_mis(&g, 6);
        assert!(is_mis(&g, &out.in_mis));
    }

    #[test]
    fn seed_determinism() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_regular(100, 4, &mut rng).unwrap();
        let a = luby_mis(&g, 7);
        let b = luby_mis(&g, 7);
        assert_eq!(a.in_mis, b.in_mis);
        let c = luby_mis(&g, 8);
        assert!(is_mis(&g, &c.in_mis));
    }

    #[test]
    fn complete_graph_selects_exactly_one() {
        let g = generators::complete(12);
        let out = luby_mis(&g, 4);
        assert_eq!(out.in_mis.iter().filter(|&&x| x).count(), 1);
        assert!(is_mis(&g, &out.in_mis));
    }
}
