//! The synchronous LOCAL model executor.
//!
//! The LOCAL model [Linial '92; Peleg '00] is a synchronous message-passing
//! model: in every round each node may send an arbitrarily large message to
//! each neighbor, receive the messages of its neighbors, and update its
//! state. Complexity is the number of rounds. This executor runs one
//! [`NodeProgram`] instance per node, delivers messages along the edges of a
//! [`Graph`], and reports measured rounds and message counts.
//!
//! Ports: node `u`'s ports are `0..degree(u)`; port `p` leads to
//! `graph.neighbors(u)[p]`. Incoming messages are tagged with the
//! *receiver's* port towards the sender, so programs can reason purely in
//! terms of their local port numbering (no global indices needed), exactly
//! as in the formal model.
//!
//! # Memory layout
//!
//! Programs only broadcast. That loses nothing in LOCAL: messages are
//! unbounded and ids are unique, so per-neighbor content rides in one
//! broadcast keyed by the neighbor's id. On the graph's own CSR buffers
//! ([`Graph::csr`], borrowed), an [`Outbox`] stores each broadcast **once**,
//! in its sender's range of one arena, and an [`Inbox`] walks the
//! receiver's sorted row, reading each neighbor's range in place: senders
//! act in ascending order, so the inbox comes out by sender, then emission
//! order, with no regroup and no per-neighbor copy. Two outboxes alternate
//! and keep their buffers; terminated nodes cost zero.

use splitgraph::Graph;

/// Static knowledge available to a node at wake-up: its unique ID, its
/// degree, and the global parameter `n` (standard in the LOCAL model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeContext {
    /// Simulator index of the node (stable across the run; programs should
    /// treat it as opaque — distributed logic must use `id`).
    pub node: usize,
    /// The node's unique identifier.
    pub id: u64,
    /// The node's degree (number of ports).
    pub degree: usize,
    /// Number of nodes in the network.
    pub n: usize,
}

/// A per-node program for the LOCAL executor.
///
/// The executor calls [`NodeProgram::init`] once (round 0, no inbox), then
/// repeatedly [`NodeProgram::round`] with the messages received that round,
/// until every node reports [`NodeProgram::is_done`] or the round limit is
/// hit. Programs send only by [`Outbox::broadcast`] to all neighbors; a
/// message meant for one neighbor names it by id inside the broadcast.
pub trait NodeProgram {
    /// Message type exchanged with neighbors.
    type Msg;
    /// Final output of a node.
    type Output;

    /// Round-0 initialization; writes the messages to deliver in round 1.
    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<Self::Msg>);

    /// One synchronous round: reads the `(port, message)` pairs neighbors
    /// sent in the previous round and writes messages for the next round.
    fn round(
        &mut self,
        ctx: &NodeContext,
        inbox: Inbox<'_, Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    );

    /// Whether this node has terminated (done nodes no longer act; messages
    /// addressed to them are dropped).
    fn is_done(&self) -> bool;

    /// The node's output, read after the run completes.
    fn output(&self) -> Self::Output;
}

/// Result of a LOCAL execution.
#[derive(Debug, Clone)]
pub struct LocalRun<O> {
    /// Per-node outputs, indexed by node.
    pub outputs: Vec<O>,
    /// Number of message-passing rounds executed (round 0 init is free).
    pub rounds: usize,
    /// Total messages sent (a broadcast counts once per neighbor).
    pub messages: usize,
    /// Whether all nodes terminated before the round limit.
    pub completed: bool,
}

/// One round's broadcasts, written by the acting nodes in ascending order
/// through [`Outbox::broadcast`].
pub struct Outbox<M> {
    broadcasts: Vec<M>,
    /// Where each opened node's broadcasts start (the next start ends them).
    at: Vec<usize>,
    /// The acting node's degree: the messages one broadcast counts as.
    degree: usize,
    /// Every message this outbox carried, over all rounds.
    messages: usize,
}

impl<M> Outbox<M> {
    fn new() -> Outbox<M> {
        Outbox {
            broadcasts: Vec::new(),
            at: Vec::new(),
            degree: 0,
            messages: 0,
        }
    }

    /// Sends `msg` to every neighbor. It is stored once and counts as one
    /// message per neighbor.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcasts.push(msg);
        self.messages += self.degree;
    }

    /// Opens node `v`'s range; nodes skipped since the last one get empty
    /// ranges. Opening node `n` ends the round.
    fn open(&mut self, v: usize, degree: usize) {
        self.at.resize(v + 1, self.broadcasts.len());
        self.degree = degree;
    }

    /// Drops the round's messages, keeping the buffers and the count.
    fn clear(&mut self) {
        self.broadcasts.clear();
        self.at.clear();
    }
}

/// The messages a node received in one round, read in place from the
/// senders' [`Outbox`] ranges: by sender (that is, port), then emission order.
pub struct Inbox<'a, M> {
    sent: &'a Outbox<M>,
    /// The receiver's row: the sender behind each port.
    row: &'a [usize],
}

impl<'a, M> Inbox<'a, M> {
    /// The received `(port, message)` pairs, in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a M)> + 'a {
        let (broadcasts, at) = (&self.sent.broadcasts, &self.sent.at);
        self.row
            .iter()
            .enumerate()
            .flat_map(move |(port, &w)| broadcasts[at[w]..at[w + 1]].iter().map(move |m| (port, m)))
    }
}

/// Runs one [`NodeProgram`] per node of `g` for at most `max_rounds` rounds.
///
/// `make` constructs the program for each node from its [`NodeContext`].
///
/// # Panics
///
/// Panics if `ids.len() != g.node_count()`.
///
/// # Examples
///
/// Flood the maximum ID through a path (takes `n − 1 = 3` rounds):
///
/// ```
/// use local_runtime::{run_local, Inbox, NodeContext, NodeProgram, Outbox};
///
/// struct MaxId { best: u64, rounds_left: usize }
/// impl NodeProgram for MaxId {
///     type Msg = u64;
///     type Output = u64;
///     fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<u64>) {
///         // the diameter certainly is smaller than n
///         *self = MaxId { best: ctx.id, rounds_left: ctx.n - 1 };
///         out.broadcast(self.best);
///     }
///     fn round(&mut self, _: &NodeContext, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) {
///         self.rounds_left -= 1;
///         if let Some(&x) = inbox.iter().map(|(_, x)| x).max().filter(|&&x| x > self.best) {
///             self.best = x;
///             out.broadcast(x);
///         }
///     }
///     fn is_done(&self) -> bool { self.rounds_left == 0 }
///     fn output(&self) -> u64 { self.best }
/// }
///
/// let g = splitgraph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let run = run_local(&g, &[9, 2, 5, 1], 100, |_| MaxId { best: 0, rounds_left: 1 });
/// assert!(run.completed);
/// assert_eq!(run.rounds, 3);
/// assert!(run.outputs.iter().all(|&x| x == 9));
/// ```
pub fn run_local<P: NodeProgram>(
    g: &Graph,
    ids: &[u64],
    max_rounds: usize,
    make: impl FnMut(&NodeContext) -> P,
) -> LocalRun<P::Output> {
    let n = g.node_count();
    assert_eq!(ids.len(), n, "id vector length mismatch");
    let (offsets, targets) = g.csr();
    let contexts: Vec<NodeContext> = (0..n)
        .map(|v| NodeContext {
            node: v,
            id: ids[v],
            degree: g.degree(v),
            n,
        })
        .collect();
    let mut programs: Vec<P> = contexts.iter().map(make).collect();
    let (mut out, mut inbox) = (Outbox::new(), Outbox::new());

    for v in 0..n {
        out.open(v, contexts[v].degree);
        programs[v].init(&contexts[v], &mut out);
    }
    let mut active: Vec<usize> = (0..n).filter(|&v| !programs[v].is_done()).collect();
    let mut rounds = 0usize;
    while !active.is_empty() && rounds < max_rounds {
        crate::cancel::checkpoint();
        out.open(n, 0);
        std::mem::swap(&mut out, &mut inbox);
        out.clear();
        for &v in &active {
            let view = Inbox {
                sent: &inbox,
                row: &targets[offsets[v]..offsets[v + 1]],
            };
            out.open(v, contexts[v].degree);
            programs[v].round(&contexts[v], view, &mut out);
        }
        active.retain(|&v| !programs[v].is_done());
        rounds += 1;
    }

    LocalRun {
        outputs: programs.iter().map(NodeProgram::output).collect(),
        rounds,
        messages: out.messages + inbox.messages,
        completed: active.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node outputs the `(port, id)` pairs it heard in round 1, in
    /// delivery order.
    struct CollectNeighbors {
        seen: Vec<(usize, u64)>,
        done: bool,
    }

    impl NodeProgram for CollectNeighbors {
        type Msg = u64;
        type Output = Vec<(usize, u64)>;
        fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<u64>) {
            out.broadcast(ctx.id);
        }
        fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, u64>, _out: &mut Outbox<u64>) {
            self.seen = inbox.iter().map(|(p, &x)| (p, x)).collect();
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn output(&self) -> Vec<(usize, u64)> {
            self.seen.clone()
        }
    }

    #[test]
    fn one_round_neighbor_exchange() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let run = run_local(&g, &[10, 20, 30], 5, |_| CollectNeighbors {
            seen: vec![],
            done: false,
        });
        assert!(run.completed);
        assert_eq!(run.rounds, 1);
        assert_eq!(run.outputs[0], vec![(0, 20)]);
        // unsorted: tagged with node 1's own port towards each sender
        assert_eq!(run.outputs[1], vec![(0, 10), (1, 30)]);
        assert_eq!(run.outputs[2], vec![(0, 20)]);
        // 3 broadcasts over degrees 1, 2, 1 = 4 messages
        assert_eq!(run.messages, 4);
    }

    /// Never terminates: used to exercise the round limit.
    struct Chatter;
    impl NodeProgram for Chatter {
        type Msg = ();
        type Output = ();
        fn init(&mut self, _ctx: &NodeContext, out: &mut Outbox<()>) {
            out.broadcast(());
        }
        fn round(&mut self, _ctx: &NodeContext, _inbox: Inbox<'_, ()>, out: &mut Outbox<()>) {
            out.broadcast(());
        }
        fn is_done(&self) -> bool {
            false
        }
        fn output(&self) {}
    }

    #[test]
    fn round_limit_stops_runaway_programs() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let run = run_local(&g, &[0, 1], 7, |_| Chatter);
        assert!(!run.completed);
        assert_eq!(run.rounds, 7);
    }

    /// Zero-round program: decides at init.
    struct ZeroRound;
    impl NodeProgram for ZeroRound {
        type Msg = ();
        type Output = u64;
        fn init(&mut self, _ctx: &NodeContext, _out: &mut Outbox<()>) {}
        fn round(&mut self, _ctx: &NodeContext, _inbox: Inbox<'_, ()>, _out: &mut Outbox<()>) {}
        fn is_done(&self) -> bool {
            true
        }
        fn output(&self) -> u64 {
            7
        }
    }

    #[test]
    fn zero_round_algorithms_cost_zero_rounds() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let run = run_local(&g, &[0, 1], 10, |_| ZeroRound);
        assert!(run.completed);
        assert_eq!(run.rounds, 0);
        assert_eq!(run.messages, 0);
        assert_eq!(run.outputs, vec![7, 7]);
    }

    /// Max-ID flooding: rebroadcasts a larger id when it hears one, for
    /// `n` rounds.
    struct MaxId {
        best: u64,
        rounds_left: usize,
    }
    impl NodeProgram for MaxId {
        type Msg = u64;
        type Output = u64;
        fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<u64>) {
            self.best = ctx.id;
            self.rounds_left = ctx.n;
            out.broadcast(self.best);
        }
        fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) {
            let incoming = inbox.iter().map(|(_, &x)| x).max().unwrap_or(0);
            self.rounds_left -= 1;
            if incoming > self.best {
                self.best = incoming;
                out.broadcast(self.best);
            }
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
        fn output(&self) -> u64 {
            self.best
        }
    }

    #[test]
    fn degenerate_graphs_run() {
        let max_id = |_: &NodeContext| MaxId {
            best: 0,
            rounds_left: 0,
        };
        let run = run_local(&Graph::new(0), &[], 5, max_id);
        assert!(run.completed);
        assert_eq!(run.rounds, 0);

        // isolated nodes hear nothing and keep their own ids
        let run = run_local(&Graph::new(3), &[5, 1, 9], 5, max_id);
        assert!(run.completed);
        assert_eq!(run.outputs, vec![5, 1, 9]);
    }

    /// Node 0 stops after one round; the others broadcast their id every
    /// round for three rounds and log what they hear.
    struct EarlyStop {
        rounds_left: usize,
        heard: Vec<(usize, u64)>,
    }
    impl NodeProgram for EarlyStop {
        type Msg = u64;
        type Output = Vec<(usize, u64)>;
        fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<u64>) {
            self.rounds_left = if ctx.id == 0 { 1 } else { 3 };
            out.broadcast(ctx.id);
        }
        fn round(&mut self, ctx: &NodeContext, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) {
            self.heard.extend(inbox.iter().map(|(p, &x)| (p, x)));
            self.rounds_left -= 1;
            out.broadcast(ctx.id);
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
        fn output(&self) -> Vec<(usize, u64)> {
            self.heard.clone()
        }
    }

    #[test]
    fn broadcasts_to_finished_neighbors_count_but_are_not_delivered() {
        // star centred on node 0, which stops after round 1: its round-1
        // broadcast reaches the leaves in round 2, and the leaves' later
        // broadcasts to it are counted but nobody reads them
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let run = run_local(&g, &[0, 1, 2], 10, |_| EarlyStop {
            rounds_left: 0,
            heard: Vec::new(),
        });
        assert!(run.completed);
        assert_eq!(run.rounds, 3);
        assert_eq!(run.outputs[0], vec![(0, 1), (1, 2)]);
        assert_eq!(run.outputs[1], vec![(0, 0), (0, 0)]);
        assert_eq!(run.outputs[2], vec![(0, 0), (0, 0)]);
        // init 2 + 1 + 1, round 1 2 + 1 + 1, rounds 2 and 3 1 + 1 each
        assert_eq!(run.messages, 12);
    }
}
