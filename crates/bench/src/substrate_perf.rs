//! Substrate microbenchmarks: the flat CSR bulk builders, the bipartite
//! row-arena build (with a clone and a drop), power graphs,
//! the broadcast-once executor's rounds, the symmetry-breaking colorings,
//! and the multigraph degree-splitting engines, each timed alone over
//! repeated samples.
//!
//! Correctness of these kernels is pinned by tests, not re-timed here:
//! `from_edges_matches_reference_model` and
//! `power_graph_matches_seed_reference` (`splitgraph`), and
//! `regroup_parity.rs` (`local-runtime`), which holds the executor's
//! inboxes to the per-receiver sorting executor it replaced. Results feed
//! `BENCH_substrate.json`.

use crate::json::{params, sample, Record};
use degree_split::{eulerian_orientation, walk_splitting, WalkDecomposition};
use local_coloring::{cole_vishkin_3color, kw_reduce, linial_color, Chains};
use local_runtime::{run_local, Inbox, NodeContext, NodeProgram, Outbox};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use splitgraph::{generators, power_graph, BipartiteGraph, Graph, MultiGraph};

/// A named bipartite shape `(name, left, right, d)`: `random_biregular`,
/// every constraint of degree `d`.
type BipartiteShape = (&'static str, usize, usize, usize);

/// The end-to-end benchmark's bipartite instances: its three `wire`
/// request shapes (Theorem 2.7, zero-round, Theorem 1.2) and its `churn`
/// upload.
const SERVICE_SHAPES: [BipartiteShape; 4] = [
    ("wire_thm27", 200, 1_200, 24),
    ("wire_zero_round", 600, 600, 24),
    ("wire_thm12", 400, 1_800, 18),
    ("churn_upload", 4_000, 4_000, 28),
];

/// Instance sizes and sample count for one benchmark tier.
struct Scale {
    samples: usize,
    build_sparse: (usize, usize),
    build_dense: (usize, usize),
    bipartite: [BipartiteShape; 4],
    power: (usize, usize),
    exec: (usize, usize, usize), // (n, d, rounds)
    coloring: (usize, usize),    // (n, d); the Cole–Vishkin cycle has 5n nodes
    multigraph: (usize, usize),  // (n, m)
}

const FULL: Scale = Scale {
    samples: 11,
    build_sparse: (100_000, 4),
    build_dense: (20_000, 64),
    bipartite: SERVICE_SHAPES,
    power: (100_000, 4),
    exec: (100_000, 8, 16),
    coloring: (1_000, 8),
    multigraph: (500, 10_000),
};

const QUICK: Scale = Scale {
    samples: 5,
    build_sparse: (10_000, 4),
    build_dense: (4_000, 32),
    bipartite: SERVICE_SHAPES,
    power: (10_000, 4),
    exec: (10_000, 8, 8),
    coloring: (1_000, 8),
    multigraph: (500, 10_000),
};

#[cfg(test)]
const TINY: Scale = Scale {
    samples: 3,
    build_sparse: (400, 4),
    build_dense: (200, 8),
    bipartite: [
        ("a", 20, 60, 6),
        ("b", 30, 30, 6),
        ("c", 20, 90, 9),
        ("d", 40, 40, 7),
    ],
    power: (300, 4),
    exec: (300, 4, 4),
    coloring: (100, 4),
    multigraph: (50, 400),
};

/// Fixed-round gossip: broadcast a running sum of everything heard. Keeps
/// every node active for exactly `rounds` rounds with one broadcast each.
struct Gossip {
    acc: u64,
    rounds_left: usize,
}

impl NodeProgram for Gossip {
    type Msg = u64;
    type Output = u64;
    fn init(&mut self, ctx: &NodeContext, out: &mut Outbox<u64>) {
        self.acc = ctx.id;
        out.broadcast(self.acc);
    }
    fn round(&mut self, _ctx: &NodeContext, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) {
        for (port, &x) in inbox.iter() {
            self.acc = self.acc.wrapping_add(x.rotate_left(port as u32));
        }
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            out.broadcast(self.acc);
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
    fn output(&self) -> u64 {
        self.acc
    }
}

fn random_multigraph(n: usize, m: usize, seed: u64) -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = MultiGraph::new(n);
    for _ in 0..m {
        let a = rng.random_range(0..n);
        let mut b = rng.random_range(0..n);
        while b == a {
            b = rng.random_range(0..n);
        }
        g.add_edge(a, b);
    }
    g
}

fn run_sized(scale: &Scale) -> Vec<Record> {
    let samples = scale.samples;
    let mut records = Vec::new();

    // graph construction: bulk counting sort
    for (name, (n, d), seed) in [
        ("graph_build_sparse", scale.build_sparse, 41u64),
        ("graph_build_dense", scale.build_dense, 42u64),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).expect("feasible");
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let (built, wall) = sample(samples, || Graph::from_edges(n, &edges).expect("simple"));
        assert_eq!(built.edge_count(), edges.len());
        records.push(Record::new(
            "splitgraph.from_edges",
            name,
            params!["n" => n, "m" => edges.len()],
            wall,
        ));
    }

    // bipartite instances: the row-arena build from a row-ordered edge
    // list (as the wire lists them), one clone, and both dropped
    for (i, &(name, left, right, d)) in scale.bipartite.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(50 + i as u64);
        let b = generators::random_biregular(left, right, d, &mut rng).expect("feasible");
        let edges: Vec<(usize, usize)> = b.edges().collect();
        let (copies, wall) = sample(samples, || {
            let built = BipartiteGraph::from_edges(left, right, &edges).expect("simple");
            let copy = built.clone();
            built.edge_count() + copy.edge_count()
        });
        assert_eq!(copies, 2 * edges.len());
        records.push(Record::new(
            "splitgraph.bipartite_from_edges",
            name,
            params!["n" => left + right, "left" => left, "right" => right, "m" => edges.len()],
            wall,
        ));
    }

    // power graphs: BFS-ball bulk CSR assembly
    {
        let (n, d) = scale.power;
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::random_regular(n, d, &mut rng).expect("feasible");
        for (name, k) in [("power_graph_k2", 2usize), ("power_graph_k4", 4usize)] {
            let (p, wall) = sample(samples, || power_graph(&g, k));
            records.push(Record::new(
                "splitgraph.power_graph",
                name,
                params!["n" => n, "m" => p.edge_count(), "k" => k],
                wall,
            ));
        }
    }

    // executor rounds: one stored broadcast per sender, read in place
    {
        let (n, d, rounds) = scale.exec;
        let mut rng = StdRng::seed_from_u64(44);
        let g = generators::random_regular(n, d, &mut rng).expect("feasible");
        let ids: Vec<u64> = (0..n as u64)
            .map(|x| x.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let shape = || params!["n" => n, "m" => g.edge_count(), "rounds" => rounds];
        let mk = |_: &NodeContext| Gossip {
            acc: 0,
            rounds_left: rounds,
        };
        let (run, wall) = sample(samples, || run_local(&g, &ids, 10 * rounds, mk));
        assert_eq!(run.rounds, rounds);
        records.push(Record::new(
            "local_runtime.run_local",
            "executor_rounds",
            shape(),
            wall,
        ));
    }

    // symmetry breaking: Linial, Kuhn–Wattenhofer reduction, Cole–Vishkin
    {
        let (n, d) = scale.coloring;
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_regular(n, d, &mut rng).expect("feasible");
        let ids: Vec<u64> = (0..n as u64).collect();
        let shape = || params!["n" => n, "m" => g.edge_count()];
        let (lin, wall) = sample(samples, || linial_color(&g, &ids, n as u64));
        records.push(Record::new(
            "local_coloring.linial_color",
            "linial_regular",
            shape(),
            wall,
        ));
        let (_, wall) = sample(samples, || kw_reduce(&g, &lin.colors, lin.palette));
        records.push(Record::new(
            "local_coloring.kw_reduce",
            "kw_reduce_regular",
            shape(),
            wall,
        ));
        let len = 5 * n;
        let chains = Chains::from_next((0..len).map(|i| Some((i + 1) % len)).collect());
        let chain_ids: Vec<u64> = (0..len as u64)
            .map(|i| i * 2_654_435_761 % 1_000_003)
            .collect();
        let (_, wall) = sample(samples, || cole_vishkin_3color(&chains, &chain_ids));
        records.push(Record::new(
            "local_coloring.cole_vishkin",
            "cole_vishkin_cycle",
            params!["n" => len],
            wall,
        ));
    }

    // multigraph degree splitting: Eulerian oracle, walk engine, pairing
    {
        let (n, m) = scale.multigraph;
        let g = random_multigraph(n, m, 3);
        let shape = || params!["n" => n, "m" => m];
        let (_, wall) = sample(samples, || eulerian_orientation(&g));
        records.push(Record::new(
            "degree_split.eulerian_orientation",
            "eulerian_multigraph",
            shape(),
            wall,
        ));
        let (_, wall) = sample(samples, || walk_splitting(&g, 0.1));
        let mut walk_params = shape();
        walk_params.extend(params!["eps" => 0.1]);
        records.push(Record::new(
            "degree_split.walk_splitting",
            "walk_multigraph",
            walk_params,
            wall,
        ));
        let (_, wall) = sample(samples, || WalkDecomposition::from_pairing(&g));
        records.push(Record::new(
            "degree_split.walk_decomposition",
            "pairing_multigraph",
            shape(),
            wall,
        ));
    }
    records
}

/// `substrate` — microbench of graph construction, power graphs,
/// executor rounds, colorings and multigraph splitting engines; the
/// records of `BENCH_substrate.json`.
pub fn run_substrate_perf(quick: bool) -> Vec<Record> {
    run_sized(if quick { &QUICK } else { &FULL })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_records() {
        let records = run_sized(&TINY);
        assert_eq!(records.len(), 15);
        for r in &records {
            assert_eq!(r.samples_ns.len(), TINY.samples, "{}", r.name);
            assert!(r.samples_ns.iter().all(|&w| w > 0), "{}", r.name);
            assert!(r.params.iter().any(|(k, _)| *k == "n"), "{}", r.name);
        }
        assert!(records.iter().any(|r| r.name == "executor_rounds"));
        assert!(records.iter().any(|r| r.name == "power_graph_k4"));
    }
}
