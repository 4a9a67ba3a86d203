//! Determinism parity: the opt-in parallel round step must produce a
//! bit-identical [`LocalRun`] — outputs, rounds, messages, completion — to
//! the sequential executor, for every thread count, across programs with
//! different communication patterns (broadcast floods, port-targeted sends,
//! staggered termination).

use local_runtime::{
    run_local, run_local_parallel, IdAssignment, LocalRun, NodeContext, NodeProgram, BROADCAST,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitgraph::{generators, Graph};

fn assert_identical<O: PartialEq + std::fmt::Debug>(a: &LocalRun<O>, b: &LocalRun<O>, what: &str) {
    assert_eq!(a.outputs, b.outputs, "{what}: outputs differ");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds differ");
    assert_eq!(a.messages, b.messages, "{what}: messages differ");
    assert_eq!(a.completed, b.completed, "{what}: completion differs");
}

fn check_parity<P, F>(g: &Graph, ids: &[u64], max_rounds: usize, make: F, what: &str)
where
    P: NodeProgram + Send,
    P::Msg: Send + Sync,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(&NodeContext) -> P,
{
    let seq = run_local(g, ids, max_rounds, &make);
    for threads in [2, 3, 4, 7] {
        let par = run_local_parallel(g, ids, max_rounds, threads, &make);
        assert_identical(&seq, &par, &format!("{what} (threads={threads})"));
    }
}

/// Max-ID flooding: broadcasts until quiescent, fixed round budget.
struct MaxId {
    best: u64,
    rounds_left: usize,
}

impl NodeProgram for MaxId {
    type Msg = u64;
    type Output = u64;
    fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
        self.best = ctx.id;
        self.rounds_left = ctx.n;
        vec![(BROADCAST, self.best)]
    }
    fn round(&mut self, _ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
        let incoming = inbox.iter().map(|&(_, x)| x).max().unwrap_or(0);
        let changed = incoming > self.best;
        self.best = self.best.max(incoming);
        self.rounds_left -= 1;
        if changed {
            vec![(BROADCAST, self.best)]
        } else {
            vec![]
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
    fn output(&self) -> u64 {
        self.best
    }
}

/// Order-sensitive program: hashes the exact (port, payload) sequence of its
/// inbox every round, so any difference in delivery *order* — not just
/// content — changes the output.
struct InboxHash {
    acc: u64,
    rounds_left: usize,
}

impl NodeProgram for InboxHash {
    type Msg = u64;
    type Output = u64;
    fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
        self.acc = ctx.id;
        vec![(BROADCAST, self.acc)]
    }
    fn round(&mut self, ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
        for &(port, x) in inbox {
            self.acc = self
                .acc
                .wrapping_mul(0x100000001b3)
                .wrapping_add(x ^ (port as u64).rotate_left(17));
        }
        self.rounds_left -= 1;
        if self.rounds_left == 0 {
            return vec![];
        }
        // alternate between a targeted send and a broadcast
        if self.acc.is_multiple_of(3) && ctx.degree > 0 {
            vec![(self.acc as usize % ctx.degree, self.acc)]
        } else {
            vec![(BROADCAST, self.acc)]
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
    fn output(&self) -> u64 {
        self.acc
    }
}

/// Staggered termination: node with id `i` stops after `i % 7 + 1` rounds,
/// exercising the active-frontier bookkeeping (chunks shrink and shift).
struct Staggered {
    fuel: usize,
    heard: u64,
}

impl NodeProgram for Staggered {
    type Msg = u64;
    type Output = (u64, usize);
    fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
        self.fuel = (ctx.id % 7 + 1) as usize;
        vec![(BROADCAST, ctx.id)]
    }
    fn round(&mut self, _ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
        self.heard = self
            .heard
            .wrapping_add(inbox.iter().map(|&(_, x)| x).sum::<u64>());
        self.fuel -= 1;
        if self.fuel > 0 {
            vec![(BROADCAST, self.heard)]
        } else {
            vec![]
        }
    }
    fn is_done(&self) -> bool {
        self.fuel == 0
    }
    fn output(&self) -> (u64, usize) {
        (self.heard, self.fuel)
    }
}

#[test]
fn max_id_flood_parity_on_torus() {
    let g = generators::torus(8, 9).unwrap();
    let ids = IdAssignment::Shuffled(11).assign(g.node_count());
    check_parity(
        &g,
        &ids,
        200,
        |_| MaxId {
            best: 0,
            rounds_left: 0,
        },
        "max-id flood on torus",
    );
}

#[test]
fn inbox_hash_parity_on_random_regular() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::random_regular(120, 6, &mut rng).unwrap();
    let ids = IdAssignment::Shuffled(3).assign(g.node_count());
    check_parity(
        &g,
        &ids,
        25,
        |_| InboxHash {
            acc: 0,
            rounds_left: 12,
        },
        "inbox-order hash on random regular",
    );
}

#[test]
fn staggered_termination_parity() {
    let mut rng = StdRng::seed_from_u64(13);
    let g = generators::erdos_renyi(150, 0.05, &mut rng);
    let ids = IdAssignment::Shuffled(5).assign(g.node_count());
    check_parity(
        &g,
        &ids,
        50,
        |_| Staggered { fuel: 0, heard: 0 },
        "staggered termination",
    );
}

#[test]
fn inbox_hash_parity_on_cycle() {
    let g = generators::cycle(40).unwrap();
    let ids = IdAssignment::Shuffled(2).assign(40);
    check_parity(
        &g,
        &ids,
        20,
        |_| InboxHash {
            acc: 0,
            rounds_left: 9,
        },
        "inbox-order hash on a cycle",
    );
}

#[test]
fn parallel_handles_degenerate_inputs() {
    // empty graph, more threads than nodes, isolated nodes
    let g = Graph::new(0);
    let run = run_local_parallel(&g, &[], 5, 8, |_| MaxId {
        best: 0,
        rounds_left: 0,
    });
    assert!(run.completed);
    assert_eq!(run.rounds, 0);

    let g = Graph::new(3); // isolated nodes only
    let ids = [5, 1, 9];
    let seq = run_local(&g, &ids, 5, |_| MaxId {
        best: 0,
        rounds_left: 0,
    });
    let par = run_local_parallel(&g, &ids, 5, 16, |_| MaxId {
        best: 0,
        rounds_left: 0,
    });
    assert_identical(&seq, &par, "isolated nodes, threads > nodes");
    assert_eq!(par.outputs, vec![5, 1, 9]);
}
