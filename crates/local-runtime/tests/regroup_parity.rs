//! Inbox-order parity of the broadcast-once LOCAL executor with the first
//! formulation: one `(dst, port, msg)` copy per receiver, a reverse-port
//! table found by binary search per directed edge, and a regroup that
//! stamps every outbound message with its emission index and sorts the
//! round's messages by `(dst, seq)`.
//!
//! The node program logs every inbox it sees as `(round, port, msg)`,
//! broadcasts up to four messages a round, so one port carries several
//! messages in one round, and stops nodes at different rounds, so any
//! change in delivery order, tagging or message count changes the run.
//! [`run_local`] must equal the reference on random graphs with isolated
//! nodes, stars, cliques and paths.
//!
//! CI runs this file with `PROPTEST_CASES=2048` for a heavier sweep.

use local_runtime::{run_local, Inbox, LocalRun, NodeContext, NodeProgram, Outbox};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use splitgraph::{generators, Graph};

/// One inbox entry as a node saw it: `(round, port, msg)`.
type Seen = (usize, usize, u64);

/// The program interface the reference executor was written against:
/// inboxes arrive as slices and broadcasts are returned as lists.
trait SliceProgram {
    type Msg: Clone;
    type Output;
    fn init(&mut self, ctx: &NodeContext) -> Vec<Self::Msg>;
    fn round(&mut self, ctx: &NodeContext, inbox: &[(usize, Self::Msg)]) -> Vec<Self::Msg>;
    fn is_done(&self) -> bool;
    fn output(&self) -> Self::Output;
}

/// Runs a [`SliceProgram`] on [`run_local`]: copies each inbox into a slice
/// and broadcasts each returned message.
struct OnExecutor<P>(P);

fn write<M>(broadcasts: Vec<M>, out: &mut Outbox<M>) {
    for msg in broadcasts {
        out.broadcast(msg);
    }
}

impl<P: SliceProgram> NodeProgram for OnExecutor<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<P::Msg>) {
        write(self.0.init(ctx), out);
    }

    fn round(&mut self, ctx: &NodeContext, inbox: Inbox<'_, P::Msg>, out: &mut Outbox<P::Msg>) {
        let inbox: Vec<(usize, P::Msg)> = inbox.iter().map(|(p, m)| (p, m.clone())).collect();
        write(self.0.round(ctx, &inbox), out);
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn output(&self) -> P::Output {
        self.0.output()
    }
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Logs every inbox and broadcasts a hash-driven number (0–4) of messages
/// each round until its fuel runs out.
struct Logger {
    salt: u64,
    fuel: usize,
    round: usize,
    seen: Vec<Seen>,
}

impl Logger {
    fn new(ctx: &NodeContext, salt: u64) -> Logger {
        Logger {
            salt,
            // fuel 0 stops a node at init; it never runs a round
            fuel: (mix(ctx.id ^ salt) % 6) as usize,
            round: 0,
            seen: Vec::new(),
        }
    }

    fn sends(&self, ctx: &NodeContext) -> Vec<u64> {
        let h = mix(ctx.id.wrapping_mul(31) ^ self.salt ^ ((self.round as u64) << 40));
        (0..h % 5).map(|k| mix(h ^ k)).collect()
    }
}

impl SliceProgram for Logger {
    type Msg = u64;
    type Output = Vec<Seen>;

    fn init(&mut self, ctx: &NodeContext) -> Vec<u64> {
        self.sends(ctx)
    }

    fn round(&mut self, ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<u64> {
        self.round += 1;
        self.seen
            .extend(inbox.iter().map(|&(port, msg)| (self.round, port, msg)));
        self.fuel -= 1;
        if self.fuel == 0 {
            vec![]
        } else {
            self.sends(ctx)
        }
    }

    fn is_done(&self) -> bool {
        self.fuel == 0
    }

    fn output(&self) -> Vec<Seen> {
        self.seen.clone()
    }
}

/// The executor as first written: binary-searched reverse ports and a
/// `(dst, seq)` sort per round.
fn reference_run<P: SliceProgram>(
    g: &Graph,
    ids: &[u64],
    max_rounds: usize,
    mut make: impl FnMut(&NodeContext) -> P,
) -> LocalRun<P::Output> {
    let n = g.node_count();
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    for v in 0..n {
        targets.extend_from_slice(g.neighbors(v));
        offsets.push(targets.len());
    }
    let mut rev_port = vec![0usize; targets.len()];
    for v in 0..n {
        for i in offsets[v]..offsets[v + 1] {
            let u = targets[i];
            rev_port[i] = targets[offsets[u]..offsets[u + 1]]
                .binary_search(&v)
                .expect("adjacency is symmetric");
        }
    }
    let contexts: Vec<NodeContext> = (0..n)
        .map(|v| NodeContext {
            node: v,
            id: ids[v],
            degree: g.degree(v),
            n,
        })
        .collect();
    let mut programs: Vec<P> = contexts.iter().map(&mut make).collect();
    let mut messages = 0usize;
    // (dst, seq, port, msg)
    let mut outbox: Vec<(usize, usize, usize, P::Msg)> = Vec::new();
    let mut emit = |v: usize, out: Vec<P::Msg>, outbox: &mut Vec<(usize, usize, usize, P::Msg)>| {
        for msg in out {
            for i in offsets[v]..offsets[v + 1] {
                outbox.push((targets[i], 0, rev_port[i], msg.clone()));
                messages += 1;
            }
        }
    };
    let regroup = |outbox: &mut Vec<(usize, usize, usize, P::Msg)>| {
        for (i, m) in outbox.iter_mut().enumerate() {
            m.1 = i;
        }
        outbox.sort_unstable_by_key(|m| (m.0, m.1));
        let mut starts = vec![0usize; n + 1];
        for m in outbox.iter() {
            starts[m.0 + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let inbox: Vec<(usize, P::Msg)> = outbox.drain(..).map(|m| (m.2, m.3)).collect();
        (inbox, starts)
    };
    for v in 0..n {
        let out = programs[v].init(&contexts[v]);
        emit(v, out, &mut outbox);
    }
    let (mut inbox, mut starts) = regroup(&mut outbox);
    let mut active: Vec<usize> = (0..n).filter(|&v| !programs[v].is_done()).collect();
    let mut rounds = 0;
    while !active.is_empty() && rounds < max_rounds {
        for &v in &active {
            let out = programs[v].round(&contexts[v], &inbox[starts[v]..starts[v + 1]]);
            emit(v, out, &mut outbox);
        }
        (inbox, starts) = regroup(&mut outbox);
        active.retain(|&v| !programs[v].is_done());
        rounds += 1;
    }
    LocalRun {
        outputs: programs.iter().map(SliceProgram::output).collect(),
        rounds,
        messages,
        completed: active.is_empty(),
    }
}

/// A random graph of one of four shapes; the random shape keeps a tail of
/// isolated nodes.
fn arb_graph(shape: u32, n: usize, density: u32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match shape {
        0 => {
            let core = n - n / 4;
            let p = f64::from(density) / 100.0;
            let mut edges = Vec::new();
            for u in 0..core {
                for v in u + 1..core {
                    if rng.random_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
            Graph::from_edges(n, &edges).expect("generated edges are simple")
        }
        1 => {
            let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
            Graph::from_edges(n, &edges).expect("a star is simple")
        }
        2 => generators::complete(n),
        _ => generators::path(n),
    }
}

fn assert_same(a: &LocalRun<Vec<Seen>>, b: &LocalRun<Vec<Seen>>, what: &str) {
    assert_eq!(a.outputs, b.outputs, "{what}: inboxes differ");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds differ");
    assert_eq!(a.messages, b.messages, "{what}: messages differ");
    assert_eq!(a.completed, b.completed, "{what}: completion differs");
}

proptest! {
    #[test]
    fn executor_inboxes_match_the_sorting_reference(
        (shape, n, density, seed, max_rounds) in (0u32..4, 0usize..40, 0u32..=100, 0u64..1_000_000, 1usize..8)
    ) {
        let g = arb_graph(shape, n, density, seed);
        let mut ids: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xa5a5));
        let make = move |ctx: &NodeContext| Logger::new(ctx, seed);
        let reference = reference_run(&g, &ids, max_rounds, make);
        let run = run_local(&g, &ids, max_rounds, |ctx| OnExecutor(make(ctx)));
        assert_same(&run, &reference, "run_local");
    }
}

#[test]
fn the_program_exercises_every_delivery_case() {
    // one clique run sends repeated broadcasts and stops nodes at several
    // rounds, so the property above is not vacuous
    let g = generators::complete(12);
    let ids: Vec<u64> = (0..12).collect();
    let run = run_local(&g, &ids, 10, |ctx| OnExecutor(Logger::new(ctx, 7)));
    let contexts: Vec<NodeContext> = (0..12)
        .map(|v| NodeContext {
            node: v,
            id: ids[v],
            degree: 11,
            n: 12,
        })
        .collect();
    let stops: std::collections::BTreeSet<usize> = contexts
        .iter()
        .map(|ctx| Logger::new(ctx, 7).fuel)
        .collect();
    assert!(stops.len() >= 3, "fuels {stops:?}");
    let repeated = run.outputs.iter().any(|seen| {
        seen.windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 == w[1].1)
    });
    assert!(repeated, "no port carried two messages in one round");
    assert!(run.messages > 0);
}
