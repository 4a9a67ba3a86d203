//! Substrate microbenchmarks: the flat CSR bulk builders, power graphs,
//! the arena executor (sequential and parallel round steps), the
//! symmetry-breaking colorings, and the multigraph degree-splitting
//! engines, each timed alone over repeated samples.
//!
//! Bit-parity of these kernels with the implementations they replaced is
//! pinned by tests, not re-timed here: `representations_agree_on_random_edge_lists`
//! and `power_graph_matches_seed_reference` (`splitgraph`) and
//! `regroup_parity.rs` (`local-runtime`). Results feed
//! `BENCH_substrate.json`.

use crate::json::{params, sample, Record};
use degree_split::{eulerian_orientation, walk_splitting, WalkDecomposition};
use local_coloring::{cole_vishkin_3color, kw_reduce, linial_color, Chains};
use local_runtime::{run_local, run_local_parallel, NodeContext, NodeProgram, BROADCAST};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use splitgraph::{generators, power_graph, Graph, MultiGraph};

/// Instance sizes and sample count for one benchmark tier.
struct Scale {
    samples: usize,
    build_sparse: (usize, usize),
    build_dense: (usize, usize),
    power: (usize, usize),
    exec: (usize, usize, usize), // (n, d, rounds)
    coloring: (usize, usize),    // (n, d); the Cole–Vishkin cycle has 5n nodes
    multigraph: (usize, usize),  // (n, m)
}

const FULL: Scale = Scale {
    samples: 11,
    build_sparse: (100_000, 4),
    build_dense: (20_000, 64),
    power: (100_000, 4),
    exec: (100_000, 8, 16),
    coloring: (1_000, 8),
    multigraph: (500, 10_000),
};

const QUICK: Scale = Scale {
    samples: 5,
    build_sparse: (10_000, 4),
    build_dense: (4_000, 32),
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
    fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
        self.acc = ctx.id;
        vec![(BROADCAST, self.acc)]
    }
    fn round(&mut self, _ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
        for &(port, x) in inbox {
            self.acc = self.acc.wrapping_add(x.rotate_left(port as u32));
        }
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            vec![(BROADCAST, self.acc)]
        } else {
            vec![]
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
    fn output(&self) -> u64 {
        self.acc
    }
}

/// Compute-heavy gossip: burns a fixed splitmix chain per received message,
/// modelling node programs with real local work (estimator evaluations,
/// coloring trials). This is the regime the parallel round step targets.
struct HeavyGossip {
    acc: u64,
    rounds_left: usize,
}

impl HeavyGossip {
    const MIX_ITERS: usize = 96;
}

impl NodeProgram for HeavyGossip {
    type Msg = u64;
    type Output = u64;
    fn init(&mut self, ctx: &NodeContext) -> Vec<(usize, u64)> {
        self.acc = ctx.id;
        vec![(BROADCAST, self.acc)]
    }
    fn round(&mut self, _ctx: &NodeContext, inbox: &[(usize, u64)]) -> Vec<(usize, u64)> {
        for &(port, x) in inbox {
            let mut h = x ^ (port as u64);
            for _ in 0..Self::MIX_ITERS {
                h = h.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = h;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                h ^= z >> 31;
            }
            self.acc = self.acc.wrapping_add(h);
        }
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            vec![(BROADCAST, self.acc)]
        } else {
            vec![]
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

    // executor rounds: double-buffered arenas; plus the opt-in parallel
    // step against the same compute-heavy program run sequentially, with
    // the thread count sized to what the host exposes (a 1-vCPU host
    // yields a wall-clock parity run: `threads` equals 1)
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
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mk_heavy = |_: &NodeContext| HeavyGossip {
            acc: 0,
            rounds_left: rounds,
        };
        let (seq, wall_seq) = sample(samples, || run_local(&g, &ids, 10 * rounds, mk_heavy));
        let (par, wall_par) = sample(samples, || {
            run_local_parallel(&g, &ids, 10 * rounds, threads, mk_heavy)
        });
        assert_eq!(par.outputs, seq.outputs);
        assert_eq!(par.rounds, seq.rounds);
        assert_eq!(par.messages, seq.messages);
        records.push(Record::new(
            "local_runtime.run_local",
            "executor_heavy_sequential",
            shape(),
            wall_seq,
        ));
        let mut par_params = shape();
        par_params.extend(params!["threads" => threads]);
        records.push(Record::new(
            "local_runtime.run_local_parallel",
            "executor_heavy_parallel",
            par_params,
            wall_par,
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
        assert_eq!(records.len(), 13);
        for r in &records {
            assert_eq!(r.samples_ns.len(), TINY.samples, "{}", r.name);
            assert!(r.samples_ns.iter().all(|&w| w > 0), "{}", r.name);
            assert!(r.params.iter().any(|(k, _)| *k == "n"), "{}", r.name);
        }
        let parallel = records
            .iter()
            .find(|r| r.name == "executor_heavy_parallel")
            .unwrap();
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(parallel
            .params
            .contains(&("threads", crate::json::Param::Int(host as u128))));
        assert!(records
            .iter()
            .any(|r| r.name == "executor_heavy_sequential"));
        assert!(records.iter().any(|r| r.name == "power_graph_k4"));
    }
}
