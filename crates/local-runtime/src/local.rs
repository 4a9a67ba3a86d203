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
//! The executor runs on the graph's own CSR buffers ([`Graph::csr`],
//! borrowed, not copied) plus a reverse-port table filled in one sweep with
//! a per-node cursor, so no per-message port lookups; it shuttles messages
//! through two flat, double-buffered arenas: an *outbox* of `(dst, port,
//! msg)` records filled during the round in emission order, and an *inbox*
//! arena regrouped from it by a stable counting sort on `dst`, `O(n +
//! messages)` per round. Both arenas, the counting-sort slots and the
//! active-node frontier are reused every round, so steady-state execution
//! performs no per-node per-round allocation (programs still own the `Vec`s
//! they return). Terminated nodes leave the frontier and cost zero.
//!
//! # Parallelism contract
//!
//! [`run_local_parallel`] is the opt-in parallel round step: the active
//! frontier is split into contiguous chunks, each processed by a scoped
//! thread (`std::thread::scope`), and the per-chunk outboxes are merged in
//! chunk order — which equals the sequential emission order — before the
//! same stable regrouping. Nodes are independent within a round,
//! so for any thread count the run is **bit-identical** to [`run_local`]:
//! same outputs, same round count, same message count, same inbox orderings.

use splitgraph::Graph;

/// Port number that broadcasts a message to every neighbor.
pub const BROADCAST: usize = usize::MAX;

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
/// hit. Messages are `(port, message)` pairs; use [`BROADCAST`] as the port
/// to send to all neighbors.
pub trait NodeProgram {
    /// Message type exchanged with neighbors.
    type Msg: Clone;
    /// Final output of a node.
    type Output;

    /// Round-0 initialization; returns the messages to deliver in round 1.
    fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, Self::Msg)>;

    /// One synchronous round: receives `(port, message)` pairs sent by
    /// neighbors in the previous round, returns messages for the next round.
    fn round(&mut self, ctx: &NodeContext, inbox: &[(usize, Self::Msg)])
        -> Vec<(usize, Self::Msg)>;

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
    /// Total messages delivered (a broadcast counts once per neighbor).
    pub messages: usize,
    /// Whether all nodes terminated before the round limit.
    pub completed: bool,
}

/// The graph's own CSR adjacency, borrowed, plus for every directed edge
/// slot `v → u` the port of `u` back towards `v` (precomputed once so
/// delivery needs no per-message lookup).
struct Topology<'g> {
    offsets: &'g [usize],
    targets: &'g [usize],
    rev_port: Vec<usize>,
}

impl<'g> Topology<'g> {
    fn new(g: &'g Graph) -> Topology<'g> {
        let (offsets, targets) = g.csr();
        let n = g.node_count();
        // Rows are sorted and swept in ascending node order, so `v`'s slot
        // in `u`'s row is always the next one `u`'s cursor has not claimed.
        let mut cursor = offsets[..n].to_vec();
        let mut rev_port = vec![0usize; targets.len()];
        for v in 0..n {
            for i in offsets[v]..offsets[v + 1] {
                let u = targets[i];
                let slot = cursor[u];
                assert!(
                    slot < offsets[u + 1] && targets[slot] == v,
                    "adjacency is symmetric"
                );
                rev_port[i] = slot - offsets[u];
                cursor[u] += 1;
            }
        }
        Topology {
            offsets,
            targets,
            rev_port,
        }
    }

    fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }
}

/// One outbound message record in the flat arena. The arena is filled in
/// emission order, and [`regroup`] keeps that order within each inbox, so
/// the regrouped inbox arena is deterministic.
struct OutMsg<M> {
    dst: usize,
    port: usize,
    msg: M,
}

/// Appends node `v`'s outgoing messages to the outbox arena, resolving
/// broadcast and reverse ports from the flat topology.
fn emit<M: Clone>(
    topo: &Topology,
    v: usize,
    out: Vec<(usize, M)>,
    buf: &mut Vec<OutMsg<M>>,
    messages: &mut usize,
) {
    for (port, msg) in out {
        if port == BROADCAST {
            let (lo, hi) = (topo.offsets[v], topo.offsets[v + 1]);
            for i in lo..hi {
                buf.push(OutMsg {
                    dst: topo.targets[i],
                    port: topo.rev_port[i],
                    msg: msg.clone(),
                });
            }
            *messages += hi - lo;
        } else {
            assert!(
                port < topo.degree(v),
                "node {v} sent to invalid port {port}"
            );
            let i = topo.offsets[v] + port;
            buf.push(OutMsg {
                dst: topo.targets[i],
                port: topo.rev_port[i],
                msg,
            });
            *messages += 1;
        }
    }
}

/// Regroups the outbox arena into the inbox arena by a stable counting sort
/// on `dst`, `O(n + messages)`. The outbox is in emission order, so every
/// inbox keeps its messages in emission order — exactly the order the seed
/// executor's per-node push loop produced. After this, node `v`'s inbox is
/// `inbox_data[starts[v]..starts[v + 1]]`; `slots` is scatter scratch.
fn regroup<M>(
    n: usize,
    outbox: &mut Vec<OutMsg<M>>,
    slots: &mut Vec<Option<(usize, M)>>,
    inbox_data: &mut Vec<(usize, M)>,
    starts: &mut Vec<usize>,
) {
    starts.clear();
    starts.resize(n + 1, 0);
    for m in outbox.iter() {
        starts[m.dst + 1] += 1;
    }
    for i in 0..n {
        starts[i + 1] += starts[i];
    }
    // scatter with `starts[v]` as `v`'s cursor; it ends at the end of `v`'s
    // inbox, which is where `v + 1`'s begins, so one shift restores `starts`
    slots.resize_with(outbox.len(), || None);
    for m in outbox.drain(..) {
        let at = &mut starts[m.dst];
        slots[*at] = Some((m.port, m.msg));
        *at += 1;
    }
    starts.copy_within(0..n, 1);
    starts[0] = 0;
    inbox_data.clear();
    inbox_data.extend(
        slots
            .drain(..)
            .map(|slot| slot.expect("the counting sort fills every slot")),
    );
}

/// Runs one [`NodeProgram`] per node of `g` for at most `max_rounds` rounds.
///
/// `make` constructs the program for each node from its [`NodeContext`].
///
/// # Panics
///
/// Panics if `ids.len() != g.node_count()` or a program sends to an invalid
/// port.
///
/// # Examples
///
/// Flood the maximum ID through a path (takes `n − 1 = 3` rounds):
///
/// ```
/// use local_runtime::{run_local, NodeContext, NodeProgram, BROADCAST};
/// use splitgraph::Graph;
///
/// struct MaxId {
///     best: u64,
///     rounds_left: usize,
/// }
/// impl NodeProgram for MaxId {
///     type Msg = u64;
///     type Output = u64;
///     fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
///         self.best = ctx.id;
///         self.rounds_left = ctx.n - 1; // the diameter certainly is smaller
///         vec![(BROADCAST, self.best)]
///     }
///     fn round(&mut self, _ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
///         let incoming = inbox.iter().map(|&(_, x)| x).max().unwrap_or(0);
///         let changed = incoming > self.best;
///         self.best = self.best.max(incoming);
///         self.rounds_left -= 1;
///         if changed { vec![(BROADCAST, self.best)] } else { vec![] }
///     }
///     fn is_done(&self) -> bool {
///         self.rounds_left == 0
///     }
///     fn output(&self) -> u64 {
///         self.best
///     }
/// }
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
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
    let topo = Topology::new(g);
    let contexts = make_contexts(g, ids);
    let mut programs: Vec<P> = contexts.iter().map(make).collect();

    let mut messages = 0usize;
    let mut outbox: Vec<OutMsg<P::Msg>> = Vec::new();
    let mut slots: Vec<Option<(usize, P::Msg)>> = Vec::new();
    let mut inbox_data: Vec<(usize, P::Msg)> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();

    for v in 0..n {
        let out = programs[v].init(&contexts[v]);
        emit(&topo, v, out, &mut outbox, &mut messages);
    }
    regroup(n, &mut outbox, &mut slots, &mut inbox_data, &mut starts);

    let mut active: Vec<usize> = (0..n).filter(|&v| !programs[v].is_done()).collect();
    let mut rounds = 0usize;
    while !active.is_empty() && rounds < max_rounds {
        crate::cancel::checkpoint();
        for &v in &active {
            let inbox = &inbox_data[starts[v]..starts[v + 1]];
            let out = programs[v].round(&contexts[v], inbox);
            emit(&topo, v, out, &mut outbox, &mut messages);
        }
        regroup(n, &mut outbox, &mut slots, &mut inbox_data, &mut starts);
        active.retain(|&v| !programs[v].is_done());
        rounds += 1;
    }

    LocalRun {
        outputs: programs.iter().map(NodeProgram::output).collect(),
        rounds,
        messages,
        completed: active.is_empty(),
    }
}

/// Parallel variant of [`run_local`]: the round step is executed by up to
/// `threads` scoped worker threads over contiguous chunks of the active
/// frontier, with per-chunk outboxes merged deterministically in chunk
/// order. For every thread count the result is **bit-identical** to the
/// sequential executor (see the module docs for the contract); `threads`
/// is clamped to at least 1, and `threads == 1` takes the sequential path.
///
/// # Panics
///
/// Panics if `ids.len() != g.node_count()` or a program sends to an invalid
/// port.
pub fn run_local_parallel<P>(
    g: &Graph,
    ids: &[u64],
    max_rounds: usize,
    threads: usize,
    make: impl FnMut(&NodeContext) -> P,
) -> LocalRun<P::Output>
where
    P: NodeProgram + Send,
    P::Msg: Send + Sync,
{
    if threads <= 1 {
        return run_local(g, ids, max_rounds, make);
    }
    let n = g.node_count();
    assert_eq!(ids.len(), n, "id vector length mismatch");
    let topo = Topology::new(g);
    let contexts = make_contexts(g, ids);
    let mut programs: Vec<P> = contexts.iter().map(make).collect();

    let mut messages = 0usize;
    let mut outbox: Vec<OutMsg<P::Msg>> = Vec::new();
    let mut slots: Vec<Option<(usize, P::Msg)>> = Vec::new();
    let mut inbox_data: Vec<(usize, P::Msg)> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    // per-worker outbox buffers, reused across rounds
    let mut chunk_bufs: Vec<Vec<OutMsg<P::Msg>>> = Vec::new();

    // round-0 init is cheap and sequential by definition (no inbox)
    for v in 0..n {
        let out = programs[v].init(&contexts[v]);
        emit(&topo, v, out, &mut outbox, &mut messages);
    }
    regroup(n, &mut outbox, &mut slots, &mut inbox_data, &mut starts);

    let mut active: Vec<usize> = (0..n).filter(|&v| !programs[v].is_done()).collect();
    let mut rounds = 0usize;
    while !active.is_empty() && rounds < max_rounds {
        crate::cancel::checkpoint();
        let t = threads.min(active.len());
        chunk_bufs.resize_with(t, Vec::new);
        let (topo_ref, contexts_ref) = (&topo, &contexts);
        let (inbox_ref, starts_ref, active_ref) = (&inbox_data, &starts, &active);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(t);
            let mut rest: &mut [P] = &mut programs;
            let mut base = 0usize;
            for (chunk, mut buf) in chunk_bufs.drain(..).enumerate() {
                // contiguous chunk of the active frontier, balanced by count
                let sub =
                    &active_ref[chunk * active_ref.len() / t..(chunk + 1) * active_ref.len() / t];
                let end_node = sub.last().expect("chunks are non-empty") + 1;
                let (head, tail) = rest.split_at_mut(end_node - base);
                rest = tail;
                let chunk_base = base;
                base = end_node;
                handles.push(s.spawn(move || {
                    let mut msgs = 0usize;
                    for &v in sub {
                        let inbox = &inbox_ref[starts_ref[v]..starts_ref[v + 1]];
                        let out = head[v - chunk_base].round(&contexts_ref[v], inbox);
                        emit(topo_ref, v, out, &mut buf, &mut msgs);
                    }
                    (buf, msgs)
                }));
            }
            // merge in chunk order = ascending node order = sequential order
            for handle in handles {
                let (mut buf, msgs) = handle.join().expect("worker thread panicked");
                messages += msgs;
                outbox.append(&mut buf);
                chunk_bufs.push(buf);
            }
        });
        regroup(n, &mut outbox, &mut slots, &mut inbox_data, &mut starts);
        active.retain(|&v| !programs[v].is_done());
        rounds += 1;
    }

    LocalRun {
        outputs: programs.iter().map(NodeProgram::output).collect(),
        rounds,
        messages,
        completed: active.is_empty(),
    }
}

fn make_contexts(g: &Graph, ids: &[u64]) -> Vec<NodeContext> {
    let n = g.node_count();
    (0..n)
        .map(|v| NodeContext {
            node: v,
            id: ids[v],
            degree: g.degree(v),
            n,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node outputs the multiset of neighbor IDs it saw in round 1.
    struct CollectNeighbors {
        seen: Vec<u64>,
        done: bool,
    }

    impl NodeProgram for CollectNeighbors {
        type Msg = u64;
        type Output = Vec<u64>;
        fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
            vec![(BROADCAST, ctx.id)]
        }
        fn round(&mut self, _ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
            self.seen = inbox.iter().map(|&(_, x)| x).collect();
            self.seen.sort_unstable();
            self.done = true;
            vec![]
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn output(&self) -> Vec<u64> {
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
        assert_eq!(run.outputs[0], vec![20]);
        assert_eq!(run.outputs[1], vec![10, 30]);
        assert_eq!(run.outputs[2], vec![20]);
        // 3 broadcasts over degrees 1, 2, 1 = 4 messages
        assert_eq!(run.messages, 4);
    }

    /// Never terminates: used to exercise the round limit.
    struct Chatter;
    impl NodeProgram for Chatter {
        type Msg = ();
        type Output = ();
        fn init(&mut self, _ctx: &NodeContext) -> Vec<(usize, ())> {
            vec![(BROADCAST, ())]
        }
        fn round(&mut self, _ctx: &NodeContext, _inbox: &[(usize, ())]) -> Vec<(usize, ())> {
            vec![(BROADCAST, ())]
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
        fn init(&mut self, _ctx: &NodeContext) -> Vec<(usize, ())> {
            vec![]
        }
        fn round(&mut self, _ctx: &NodeContext, _inbox: &[(usize, ())]) -> Vec<(usize, ())> {
            vec![]
        }
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

    /// Sends on a specific port and checks the receiving port tag.
    struct PortEcho {
        got: Option<(usize, u64)>,
        done: bool,
    }
    impl NodeProgram for PortEcho {
        type Msg = u64;
        type Output = Option<(usize, u64)>;
        fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
            if ctx.id == 0 && ctx.degree > 1 {
                vec![(1, 99)] // send to second port only
            } else {
                vec![]
            }
        }
        fn round(&mut self, _ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
            if let Some(&(p, m)) = inbox.first() {
                self.got = Some((p, m));
            }
            self.done = true;
            vec![]
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn output(&self) -> Option<(usize, u64)> {
            self.got
        }
    }

    #[test]
    fn port_addressing_and_tagging() {
        // triangle; node 0 sends to its port 1 = neighbor 2
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let run = run_local(&g, &[0, 1, 2], 5, |_| PortEcho {
            got: None,
            done: false,
        });
        assert_eq!(run.outputs[1], None);
        // node 2's neighbors are [0, 1]; port towards 0 is 0
        assert_eq!(run.outputs[2], Some((0, 99)));
        assert_eq!(run.messages, 1);
    }

    #[test]
    #[should_panic(expected = "invalid port")]
    fn invalid_port_panics() {
        struct BadPort;
        impl NodeProgram for BadPort {
            type Msg = ();
            type Output = ();
            fn init(&mut self, _ctx: &NodeContext) -> Vec<(usize, ())> {
                vec![(5, ())]
            }
            fn round(&mut self, _ctx: &NodeContext, _inbox: &[(usize, ())]) -> Vec<(usize, ())> {
                vec![]
            }
            fn is_done(&self) -> bool {
                false
            }
            fn output(&self) {}
        }
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let _ = run_local(&g, &[0, 1], 5, |_| BadPort);
    }
}
