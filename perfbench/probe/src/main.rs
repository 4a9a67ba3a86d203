//! In-process probe for `perfbench/run.py`.
//!
//! `run.py` writes a script of the solves one benchmark run sent to
//! `splitd`, together with the payload bytes `splitd` replied. The probe
//! replays that script through the library (`splitting_api::Session`,
//! `HeldSolution`) on one thread:
//!
//! * `probe verify SCRIPT` checks every reply payload byte for byte
//!   against the library's own solution, prints the colorings `run.py`
//!   asked for (so it can check them against its own copy of the graph),
//!   and exits 1 on any mismatch;
//! * `probe spans SCRIPT` times the call into each layer `REPS` times per
//!   solve — wire parse (which includes the instance's CSR build), the
//!   CSR build on its own, solve, certificate check, render, and, for
//!   `M` lines only, edge-delta patch and churn repair — and prints the
//!   median of each span in microseconds as one JSON object. A layer the
//!   script never reaches has no entry.
//!
//! Script lines are tab-separated; node lists are space-separated
//! `u v u v ...` pairs:
//!
//! ```text
//! I  left  right  edges                                  instance (numbered from 0)
//! S  inst  det|rand  seed  pipeline|-  emit  payload     one solve
//! H  inst  det|rand  seed  pipeline|-  emit  payload     solve and hold for churn
//! M  inserts  deletes  emit  payload                     edit the held instance, repair
//! E  handle                                              content handle of the held instance
//! ```

use splitgraph::delta::EdgeDelta;
use splitgraph::{BipartiteGraph, Color};
use splitting_api::{
    Certificate, HeldSolution, Instance, Pipeline, Problem, Request, Session, Solution,
};
use splitting_server::{wire, Priority};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

type Edges = Vec<(usize, usize)>;

/// Timed repetitions of each solve in `probe spans`.
const REPS: usize = 3;

struct Solve {
    inst: usize,
    deterministic: bool,
    seed: u64,
    pipeline: Option<Pipeline>,
}

enum Op {
    Solve {
        hold: bool,
        solve: Solve,
        emit: bool,
        payload: String,
    },
    Mutate {
        inserts: Edges,
        deletes: Edges,
        emit: bool,
        payload: String,
    },
    Handle(String),
}

struct Script {
    instances: Vec<(usize, usize, Edges)>,
    /// `(line number, op)` in script order.
    ops: Vec<(usize, Op)>,
}

fn pairs(field: &str) -> Edges {
    let nums: Vec<usize> = field
        .split_ascii_whitespace()
        .map(|t| t.parse().expect("script: node index"))
        .collect();
    nums.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

fn pipeline(name: &str) -> Option<Pipeline> {
    [
        Pipeline::Theorem27,
        Pipeline::Theorem25,
        Pipeline::ZeroRound,
        Pipeline::Theorem12,
    ]
    .into_iter()
    .find(|p| p.name() == name)
}

fn parse_script(text: &str) -> Script {
    let mut script = Script {
        instances: Vec::new(),
        ops: Vec::new(),
    };
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |k: usize| -> u64 { f[k].parse().expect("script: number") };
        match f[0] {
            "I" => script
                .instances
                .push((num(1) as usize, num(2) as usize, pairs(f[3]))),
            "S" | "H" => script.ops.push((
                i + 1,
                Op::Solve {
                    hold: f[0] == "H",
                    solve: Solve {
                        inst: num(1) as usize,
                        deterministic: f[2] == "det",
                        seed: num(3),
                        pipeline: pipeline(f[4]),
                    },
                    emit: f[5] == "1",
                    payload: f[6].to_string(),
                },
            )),
            "M" => script.ops.push((
                i + 1,
                Op::Mutate {
                    inserts: pairs(f[1]),
                    deletes: pairs(f[2]),
                    emit: f[3] == "1",
                    payload: f[4].to_string(),
                },
            )),
            "E" => script.ops.push((i + 1, Op::Handle(f[1].to_string()))),
            other => panic!("script line {}: unknown tag {other:?}", i + 1),
        }
    }
    script
}

impl Script {
    /// The instance's graph, built by the bulk constructor `splitd`'s
    /// wire ingest uses.
    fn graph(&self, inst: usize) -> BipartiteGraph {
        let (left, right, edges) = &self.instances[inst];
        BipartiteGraph::from_edges_bulk(*left, *right, edges)
            .expect("script instance is a valid graph")
    }
}

/// The request `splitd` decoded from the frame `run.py` sent.
fn request(graph: BipartiteGraph, s: &Solve) -> Request {
    let r = Request::new(Problem::weak_splitting(), graph).seed(s.seed);
    let r = if s.deterministic {
        r.deterministic()
    } else {
        r.randomized()
    };
    match s.pipeline {
        Some(p) => r.force_pipeline(p),
        None => r,
    }
}

fn bits(solution: &Solution) -> String {
    solution
        .output
        .two_coloring()
        .expect("weak splitting outputs a two-coloring")
        .iter()
        .map(|c| if *c == Color::Red { '0' } else { '1' })
        .collect()
}

fn verify(script: &Script) -> ExitCode {
    let session = Session::with_threads(1);
    let mut held: Option<HeldSolution> = None;
    let (mut checked, mut mismatches) = (0usize, 0usize);
    for (line, op) in &script.ops {
        let (got, emit, payload) = match op {
            Op::Solve {
                hold,
                solve,
                emit,
                payload,
            } => {
                let req = request(script.graph(solve.inst), solve);
                let got = if *hold {
                    session.hold(&req).map(|h| {
                        let s = h.solution().clone();
                        held = Some(h);
                        s
                    })
                } else {
                    session.solve(&req)
                };
                (got, *emit, payload)
            }
            Op::Mutate {
                inserts,
                deletes,
                emit,
                payload,
            } => {
                let h = held.as_mut().expect("script: M follows an H");
                let got = h.delta(inserts, deletes).and_then(|d| h.apply(&d));
                (got, *emit, payload)
            }
            Op::Handle(expected) => {
                let h = held.as_ref().expect("script: E follows an H");
                let instance = Instance::from(h.instance().clone());
                let handle = wire::render_handle(wire::instance_fingerprint(&instance));
                checked += 1;
                if handle != *expected {
                    mismatches += 1;
                    println!("MISMATCH\t{line}\thandle {handle} != {expected}");
                }
                continue;
            }
        };
        let bytes = match &got {
            Ok(s) => s.to_json_line(),
            Err(e) => e.to_json_line(),
        };
        checked += 1;
        if bytes != *payload {
            mismatches += 1;
            println!("MISMATCH\t{line}\tlibrary payload {bytes}");
        }
        if let (true, Ok(s)) = (emit, &got) {
            println!("C\t{line}\t{}", bits(s));
        }
    }
    println!("checked\t{checked}\tmismatches\t{mismatches}");
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Default)]
struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Runs `f` as the span `name`, recording its wall time.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.0.entry(name).or_default().push(us);
        out
    }

    /// Times one edge-delta patch of a copy of `graph` (the copy is not
    /// timed), then the churn repair of `held` under the same delta.
    fn churn(
        &mut self,
        held: &mut HeldSolution,
        inserts: &[(usize, usize)],
        deletes: &[(usize, usize)],
    ) {
        let mut copy = held.instance().clone();
        self.time("splitgraph.delta_apply_us", || {
            let delta = EdgeDelta::new(&copy, inserts, deletes).expect("edits validate");
            delta.apply(&mut copy).expect("validated delta applies")
        });
        let delta = held.delta(inserts, deletes).expect("edits validate");
        let _ = self.time("api.repair_us", || held.apply(&delta));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, samples)| {
                let mut s = samples.clone();
                s.sort_by(f64::total_cmp);
                format!("\"{name}\":{}", s[s.len() / 2])
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn spans(script: &Script) -> ExitCode {
    let session = Session::with_threads(1);
    let mut spans = Spans::default();
    let mut held: Option<HeldSolution> = None;
    for (_, op) in &script.ops {
        match op {
            Op::Solve { hold, solve, .. } => {
                let mut last = None;
                for _ in 0..REPS {
                    let graph = spans.time("splitgraph.csr_build_us", || script.graph(solve.inst));
                    let req = request(graph, solve);
                    let frame = wire::render_request("probe", Priority::Normal, &req);
                    let _ = spans.time("wire.parse_us", || wire::parse_request(&frame));
                    let Ok(sol) = spans.time("api.solve_us", || session.solve(&req)) else {
                        break;
                    };
                    let kind = sol.certificate.kind().clone();
                    let _ = spans.time("api.certify_us", || {
                        Certificate::verify(kind, req.instance(), &sol.output)
                    });
                    spans.time("api.render_us", || sol.to_json_line());
                    last = Some((req, sol));
                }
                if let (true, Some((req, sol))) = (*hold, last) {
                    held =
                        Some(HeldSolution::adopt(&session, &req, sol).expect("bipartite instance"));
                }
            }
            Op::Mutate {
                inserts, deletes, ..
            } => {
                let h = held.as_mut().expect("script: M follows an H");
                spans.churn(h, inserts, deletes);
            }
            Op::Handle(_) => {}
        }
    }
    println!("{}", spans.to_json());
    ExitCode::SUCCESS
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), which is all clock_gettime writes to.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// `probe calibrate`: for each line read on stdin, runs one fixed pass of
/// a reference kernel and prints the pass's CPU time in nanoseconds. A
/// pass sorts 128 KiB of random words (branchy integer work on cached
/// data), then follows 4000 dependent loads through a 2 MiB table (cache
/// misses): a mix like the program's own. The kernel uses none of the
/// repository's code, so its time moves only with the host's speed;
/// `run.py` runs a pass after every measured operation and divides by it.
fn calibrate() -> ExitCode {
    const WORDS: usize = 1 << 19;
    const SORTED: usize = 1 << 15;
    const LOADS: usize = 4_000;
    let mut x = 0x9e37_79b9_u32;
    let table: Vec<u32> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect();
    let mut sorted = vec![0u32; SORTED];
    let mut out = std::io::stdout().lock();
    let mut at = 0usize;
    for line in std::io::stdin().lines() {
        if line.is_err() {
            break;
        }
        let start = thread_cpu_ns();
        let from = at & (WORDS - SORTED);
        sorted.copy_from_slice(&table[from..from + SORTED]);
        sorted.sort_unstable();
        let mut acc = sorted[SORTED / 2];
        for _ in 0..LOADS {
            let v = table[at];
            acc = acc.wrapping_mul(0x0100_0193) ^ v;
            at = (v ^ acc) as usize & (WORDS - 1);
        }
        black_box(acc);
        let ns = thread_cpu_ns() - start;
        if writeln!(out, "{ns}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: probe verify SCRIPT | probe spans SCRIPT | probe calibrate";
    if args.len() == 2 && args[1] == "calibrate" {
        return calibrate();
    }
    if args.len() != 3 {
        eprintln!("{usage}");
        return ExitCode::from(2);
    }
    let text = std::fs::read_to_string(&args[2]).expect("readable script");
    let script = parse_script(&text);
    match args[1].as_str() {
        "verify" => verify(&script),
        "spans" => spans(&script),
        _ => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}
