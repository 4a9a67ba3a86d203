//! The `service` group: one seeded operation sequence driven through
//! `splitd` against one reference model.
//!
//! `plan` draws six epochs from the scenario seed mixed with
//! [`SEED_ENV`]; each is a server process with its own configuration on
//! a journal all epochs share. A *sequential* epoch sends every frame
//! kind one at a time, fills the held-solution cache and moves its
//! handles so they repair, and ends in a clean restart or in a burst of
//! keyed solves with a seeded `process_kill` inside it, whose queued
//! tail the restart re-runs and the next epoch retries. A *streamed*
//! epoch (always the second) sends inline solves through the byte-stream
//! transport under worker panics and stalls, torn frames and dropped
//! connections, at least one of which fires; its bytes do not depend
//! on scheduling, so it may run two workers. Every plan kills once.
//!
//! The `Model` answers every frame byte for byte from its instance
//! table, idempotency cache, held-cache mirror ([`Session::solve`] on a
//! miss, [`HeldSolution::apply`] of the pending deltas on a hit),
//! journal records and fault schedule; `drive` compares every reply,
//! stream, stats snapshot and journal image. A failure's detail names
//! seed, epoch and step; the `scenario:service` ledger line replays it.

use crate::harness::{server_request_menu, Ctx};
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use splitgraph::delta::{random_delta, ChurnStyle, EdgeDelta};
use splitgraph::BipartiteGraph;
use splitting_api::Solution;
use splitting_api::{ApiError, Determinism, HeldSolution, Instance, Problem, Request, Session};
use splitting_server::chaos::{
    SITE_DROP_CONNECTION, SITE_PROCESS_KILL, SITE_TORN_FRAME, SITE_WORKER_PANIC, SITE_WORKER_STALL,
};
use splitting_server::journal::{self, JournalError, Record};
use splitting_server::transport::{self, ServeSummary};
use splitting_server::wire::{self, InstanceRef, ReplyKind};
use splitting_server::Submitted;
use splitting_server::{ChaosConfig, FsyncPolicy, Journal, Priority, Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{Debug, Display};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The environment variable whose value is mixed into every scenario's
/// service seed; unset, the sequence is a pure function of the scenario.
pub const SEED_ENV: &str = "CONFORMANCE_SERVICE_SEED";

/// The [`SEED_ENV`] values the CI sweep runs. Together their plans tear
/// a stream mid-sequence and late, run one fault-free, kill under every
/// fsync policy and with jobs still queued, evict and compact (pinned
/// by a test).
pub const CI_SEEDS: [u64; 3] = [3, 12, 45];

const EPOCHS: usize = 6;

/// What the server must answer one frame with.
#[derive(Debug, Clone, PartialEq)]
enum Reply {
    /// Exactly this frame.
    Frame(String),
    /// A heartbeat reporting this table size, admissions appended and
    /// replies replayed (the rest of a heartbeat is timing).
    Heartbeat(usize, u64, u64),
    /// Nothing: the process dies on this frame or before reaching it.
    Killed,
}

/// A frame's line and what the server must do with it: admit it or
/// answer it at ingest, and reply.
#[derive(Debug, Clone, PartialEq)]
struct Step(String, Submitted, Reply);

/// A streamed epoch's transport output and liveness probe.
#[derive(Debug, Clone, PartialEq)]
struct Stream {
    bytes: Vec<u8>,
    outcome: Result<ServeSummary, &'static str>,
    /// An inline solve on a second connection after the burst.
    probe: Step,
}

/// The counters and journal image an epoch must leave behind.
#[derive(Debug, Clone, PartialEq, Default)]
struct Ledger {
    /// Incomplete records the journal recovers at open.
    recovered: u64,
    /// Of those, solves the restart re-runs before the first frame.
    resolves: u64,
    /// Completion records the restart appends before the first frame:
    /// the re-run solves and the records a compaction folds.
    settled: u64,
    /// Admissions this process appends, replies it replays, and held
    /// solution updates it serves by repair and by full re-solve.
    appended: u64,
    replayed: u64,
    repairs: (u64, u64),
    handles: usize,
    /// Every admission in the image, in file order.
    admitted: Vec<String>,
    /// Admissions still incomplete at the epoch's end: (id, key).
    incomplete: Vec<(String, Option<String>)>,
    /// Completion records in the image.
    completed: usize,
}

/// One server process of the sequence; `drive` adds the journal.
#[derive(Debug, Clone)]
struct Epoch {
    config: ServerConfig,
    fsync: FsyncPolicy,
    steps: Vec<Step>,
    stream: Option<Stream>,
    /// Keyed solves sent after `steps` without waiting; the process
    /// dies on the first whose reply is [`Reply::Killed`].
    burst: Vec<Step>,
    ledger: Ledger,
}

/// The whole sequence, and the frame kinds, events and cache
/// transitions it exercises.
#[derive(Debug)]
pub(crate) struct Plan {
    epochs: Vec<Epoch>,
    #[cfg_attr(not(test), allow(dead_code))]
    tags: BTreeSet<&'static str>,
}

/// What a client frame does.
#[derive(Clone)]
enum Op {
    /// An inline solve of this entry of the scenario's request menu.
    Solve(usize),
    /// A weak-splitting solve by handle, randomized or deterministic.
    HandleSolve(String, bool),
    Upload(BipartiteGraph),
    /// Edge inserts and deletes on a handle.
    Mutate(String, Vec<(usize, usize)>, Vec<(usize, usize)>),
    Release(String),
    Ping,
}

/// A client frame, kept so a keyed one can be retried verbatim.
#[derive(Clone)]
struct Frame {
    id: String,
    key: Option<String>,
    op: Op,
    line: String,
}

/// The weak-splitting request a handle solve sends for `g`.
fn weak(s: &Scenario, g: &BipartiteGraph, randomized: bool) -> Request {
    let problem = Problem::WeakSplitting {
        thm12_constant: s.thm12_constant,
    };
    let policy = [Determinism::Deterministic, Determinism::Randomized][usize::from(randomized)];
    Request::new(problem, g.clone())
        .determinism_policy(policy)
        .seed(s.seed)
}

fn handle_of(g: &BipartiteGraph) -> String {
    let instance = Instance::Bipartite(g.clone());
    wire::render_handle(wire::instance_fingerprint(&instance))
}

fn rendered(solved: Result<Solution, ApiError>) -> String {
    solved.map_or_else(|e| e.to_json_line(), |s| s.to_json_line())
}

fn kind_of(payload: &str) -> ReplyKind {
    if payload.starts_with("{\"event\":\"solution\"") {
        ReplyKind::Solution
    } else {
        ReplyKind::Error
    }
}

fn invalid(field: &'static str, reason: String) -> String {
    ApiError::InvalidRequest { field, reason }.to_json_line()
}

fn unknown(handle: &str) -> String {
    let reason = format!("unknown instance handle \"{handle}\"; upload it first");
    invalid("handle", reason)
}

/// The fault schedule of a streamed epoch.
fn stream_faults(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        worker_panic: 0.2,
        worker_stall: 0.1,
        stall_ms: 1,
        torn_frame: 0.1,
        drop_connection: 0.05,
        process_kill: 0.0,
    }
}

/// Whether the fault schedule under `seed` tears, drops or panics
/// somewhere in a burst of `count` frames.
fn injects(seed: u64, count: u64) -> bool {
    let c = stream_faults(seed);
    let sites = [
        (c.worker_panic, SITE_WORKER_PANIC),
        (c.torn_frame, SITE_TORN_FRAME),
        (c.drop_connection, SITE_DROP_CONNECTION),
    ];
    (0..count).any(|seq| sites.iter().any(|&(p, site)| c.fires(p, site, 0, seq)))
}

/// A `process_kill` schedule that fires on job `seq` of connection 0
/// and on no earlier job — nor on the `recovered` jobs the restart
/// re-runs first on the reserved recovery connection (id `u64::MAX`).
/// Every draw is a pure function of (seed, conn, seq), so scanning seeds
/// finds one whose draw at `seq` is the smallest.
fn kill_schedule(seq: u64, recovered: u64) -> ChaosConfig {
    (0u64..)
        .find_map(|seed| {
            let probe = ChaosConfig {
                seed,
                ..ChaosConfig::default()
            };
            let target = probe.roll(SITE_PROCESS_KILL, 0, seq);
            let others = (0..seq)
                .map(|i| probe.roll(SITE_PROCESS_KILL, 0, i))
                .chain((0..recovered).map(|i| probe.roll(SITE_PROCESS_KILL, u64::MAX, i)))
                .fold(1.0f64, f64::min);
            (target < others).then(|| ChaosConfig {
                seed,
                process_kill: (target + others) / 2.0,
                ..ChaosConfig::default()
            })
        })
        .expect("some seed puts the smallest draw on the target job")
}

/// A held solution in the model's mirror of the server's cache.
struct Held {
    held: HeldSolution,
    pending: Vec<EdgeDelta>,
    last_used: u64,
}

/// An outstanding journal state record: its admission id and key, and
/// whether a compaction in this process re-journaled it.
struct StateRecord(String, Option<String>, bool);

/// Reference model of one journaled `splitd` as its client sees it.
/// Handles are content hashes, so a handle derived from the model's
/// edge set names exactly the instance the server holds.
struct Model<'c, 'a> {
    ctx: &'c mut Ctx<'a>,
    session: Session,
    menu: Vec<(&'static str, Request)>,
    menu_payloads: Vec<Option<String>>,
    live: BTreeMap<String, BipartiteGraph>,
    /// The idempotency cache: key → the reply first delivered.
    replies: HashMap<String, (ReplyKind, String)>,
    /// Held solutions by (handle, randomized policy).
    held: BTreeMap<(String, bool), Held>,
    held_capacity: usize,
    compact_threshold: usize,
    tick: u64,
    records: Vec<StateRecord>,
    /// The keyed solves the process died with, the one it died on and
    /// those queued behind it, as (id, key, reply): the restart re-runs
    /// them and caches each reply under its key.
    killed: Vec<(String, String, String)>,
    ledger: Ledger,
    tags: BTreeSet<&'static str>,
    /// The held solution a failed repair just dropped.
    dropped: Option<(String, bool)>,
    /// The seed mixed into the scenario's, and where the model is, for
    /// failure details.
    sweep: u64,
    at: String,
}

impl<'c, 'a> Model<'c, 'a> {
    fn new(ctx: &'c mut Ctx<'a>, sweep: u64) -> Self {
        let menu = server_request_menu(ctx.scenario);
        Model {
            ctx,
            session: Session::with_threads(1),
            menu_payloads: vec![None; menu.len()],
            menu,
            live: BTreeMap::new(),
            replies: HashMap::new(),
            held: BTreeMap::new(),
            held_capacity: 0,
            compact_threshold: 0,
            tick: 0,
            records: Vec::new(),
            killed: Vec::new(),
            ledger: Ledger::default(),
            tags: BTreeSet::new(),
            dropped: None,
            sweep,
            at: String::new(),
        }
    }

    fn menu_payload(&mut self, i: usize) -> String {
        if self.menu_payloads[i].is_none() {
            self.menu_payloads[i] = Some(rendered(self.session.solve(&self.menu[i].1)));
        }
        self.menu_payloads[i].clone().expect("filled above")
    }

    /// A frame under `id` and `key`, rendered.
    fn frame(&self, id: String, key: Option<String>, op: Op) -> Frame {
        let s = self.ctx.scenario;
        let solve = |target, request: &Request| {
            wire::render_request_with(&id, Priority::Normal, key.as_deref(), target, request)
        };
        let line = match &op {
            Op::Solve(menu) => solve(InstanceRef::Inline, &self.menu[*menu].1),
            Op::HandleSolve(handle, randomized) => {
                let g = self.live.get(handle).unwrap_or(&s.bipartite);
                solve(InstanceRef::Handle(handle), &weak(s, g, *randomized))
            }
            Op::Upload(g) => wire::render_upload(&id, &Instance::Bipartite(g.clone())),
            Op::Mutate(handle, ins, del) => {
                wire::render_mutate(&id, handle, key.as_deref(), ins, del)
            }
            Op::Release(handle) => wire::render_release(&id, handle),
            Op::Ping => wire::render_ping(&id),
        };
        Frame { id, key, op, line }
    }

    fn admit(&mut self, id: &str) {
        self.ledger.appended += 1;
        self.ledger.admitted.push(id.to_owned());
    }

    fn reply(kind: ReplyKind, id: &str, seq: u64, replayed: bool, payload: &str) -> Reply {
        Reply::Frame(wire::reply_frame(kind, id, seq, None, replayed, payload))
    }

    /// A frame answered at ingest with a typed error.
    fn error(id: &str, seq: u64, payload: &str) -> (Submitted, Reply) {
        let reply = Self::reply(ReplyKind::Error, id, seq, false, payload);
        (Submitted::Replied, reply)
    }

    /// The cached reply under the frame's key, replayed.
    fn replay(&mut self, f: &Frame, seq: u64) -> Option<(Submitted, Reply)> {
        let (kind, payload) = self.replies.get(f.key.as_ref()?)?;
        let reply = Self::reply(*kind, &f.id, seq, true, payload);
        self.ledger.replayed += 1;
        self.tags.insert("replayed");
        Some((Submitted::Replied, reply))
    }

    /// A solve: replayed under its key, or admitted, answered by
    /// `solve`, completed and cached.
    fn solve(
        &mut self,
        f: &Frame,
        seq: u64,
        solve: impl FnOnce(&mut Self) -> String,
    ) -> (Submitted, Reply) {
        if let Some(replayed) = self.replay(f, seq) {
            return replayed;
        }
        self.admit(&f.id);
        let payload = solve(self);
        let kind = kind_of(&payload);
        self.ledger.completed += 1;
        if let Some(key) = &f.key {
            self.replies.insert(key.clone(), (kind, payload.clone()));
        }
        let reply = Self::reply(kind, &f.id, seq, false, &payload);
        (Submitted::Queued, reply)
    }

    /// A handle solve through the held-solution cache, as the worker
    /// runs it: a miss solves from scratch and adopts; a hit drains the
    /// pending deltas through repair and is dropped if the last fails.
    /// Either way the outcome must agree with a scratch solve of the
    /// model's edge set, and a repair must certify on it.
    fn held_solve(&mut self, handle: &str, randomized: bool) -> String {
        let graph = self.live[handle].clone();
        let request = weak(self.ctx.scenario, &graph, randomized);
        let scratch = self.session.solve(&request);
        let (at, key) = (self.at.clone(), (handle.to_owned(), randomized));
        let Some(mut entry) = self.held.remove(&key) else {
            let solution = match scratch {
                Ok(solution) => solution,
                Err(e) => return e.to_json_line(),
            };
            let line = solution.to_json_line();
            match HeldSolution::adopt(&self.session, &request, solution) {
                Ok(held) => self.checkin(key, held, Vec::new()),
                Err(e) => self.ctx.check("service.accept-parity", false, || {
                    format!("{at}: adopting the scratch solution of {handle} failed: {e}")
                }),
            }
            return line;
        };
        let mut result = Ok(entry.held.solution().clone());
        let (before, drained) = (*entry.held.stats(), entry.pending.len() as u64);
        for delta in std::mem::take(&mut entry.pending) {
            result = entry.held.apply(&delta);
            self.tags.insert("repair");
        }
        let stats = entry.held.stats();
        self.ledger.repairs.0 += stats.repairs - before.repairs;
        self.ledger.repairs.1 += stats.full_resolves - before.full_resolves;
        let applied = stats.mutations_applied - before.mutations_applied;
        let tracks = *entry.held.instance() == graph && applied == drained;
        self.ctx.check("service.held-tracks-model", tracks, || {
            format!("{at}: the held solution of {handle} left the model: {stats:?}")
        });
        let kinds = [&result, &scratch].map(|r| r.as_ref().err().map(ApiError::kind));
        self.ctx
            .check("service.accept-parity", kinds[0] == kinds[1], || {
                format!("{at}: {handle} ends in {kinds:?} (repair, scratch)")
            });
        let solution = match result {
            Ok(solution) => solution,
            Err(e) => {
                self.dropped = Some(key);
                return e.to_json_line();
            }
        };
        let certifies = solution.certificate.holds();
        let certifies = certifies && solution.reverify(&Instance::Bipartite(graph));
        self.ctx.check("service.repair-certifies", certifies, || {
            format!("{at}: the repaired solution of {handle} does not certify")
        });
        self.checkin(key, entry.held, entry.pending);
        solution.to_json_line()
    }

    /// Puts a held solution (back), evicting the least recently used
    /// one at capacity.
    fn checkin(&mut self, key: (String, bool), held: HeldSolution, pending: Vec<EdgeDelta>) {
        if self.held_capacity == 0 {
            return;
        }
        if self.held.len() >= self.held_capacity && !self.held.contains_key(&key) {
            let lru = self.held.iter().min_by_key(|(_, h)| h.last_used);
            let victim = lru.map(|(k, _)| k.clone()).expect("at capacity");
            self.held.remove(&victim);
            self.tags.insert("evict");
        }
        let last_used = self.tick;
        self.tick += 1;
        let entry = Held {
            held,
            pending,
            last_used,
        };
        self.held.insert(key, entry);
    }

    /// A state frame that applied: journaled, cached under its key, and
    /// followed by a compaction when one is due.
    fn applied(
        &mut self,
        f: &Frame,
        seq: u64,
        kind: ReplyKind,
        payload: String,
    ) -> (Submitted, Reply) {
        self.admit(&f.id);
        self.records
            .push(StateRecord(f.id.clone(), f.key.clone(), false));
        if let Some(key) = &f.key {
            self.replies.insert(key.clone(), (kind, payload.clone()));
        }
        self.maybe_compact();
        let reply = Self::reply(kind, &f.id, seq, false, &payload);
        (Submitted::Replied, reply)
    }

    /// The store's compaction: once the records not re-journaled by an
    /// earlier compaction reach the threshold and twice the table, the
    /// table is re-journaled as snapshot uploads, every kept keyed
    /// mutate reply after them, and the folded records complete.
    fn maybe_compact(&mut self) {
        let history = self.records.iter().filter(|r| !r.2).count();
        let threshold = self.compact_threshold.max(2 * self.live.len());
        if self.compact_threshold == 0 || history < threshold {
            return;
        }
        let kept = self
            .records
            .iter()
            .filter_map(|StateRecord(_, key, carried)| {
                let key = key.as_ref()?;
                let cached = matches!(self.replies.get(key), Some((ReplyKind::Mutated, _)));
                (!carried || cached).then(|| Some(key.clone()))
            });
        let keys: Vec<Option<String>> = self.live.keys().map(|_| None).chain(kept).collect();
        self.ledger.completed += self.records.len();
        self.records.clear();
        for key in keys {
            self.admit("snapshot");
            let carried = key.is_some();
            self.records
                .push(StateRecord("snapshot".to_owned(), key, carried));
        }
        self.tags.insert("compact");
    }

    /// A new process on the same journal: the held cache and every
    /// solve key are gone, the outstanding records replay (and may
    /// compact), and the solves the old process died with re-run.
    fn restart(&mut self, held_capacity: usize, compact_threshold: usize) {
        self.held.clear();
        self.replies
            .retain(|_, reply| reply.0 == ReplyKind::Mutated);
        let killed = std::mem::take(&mut self.killed);
        let resolves = killed.len() as u64;
        self.ledger.recovered = self.records.len() as u64 + resolves;
        self.ledger.resolves = resolves;
        self.ledger.appended = 0;
        self.ledger.replayed = 0;
        self.ledger.repairs = (0, 0);
        for record in &mut self.records {
            record.2 = false;
        }
        for (_, key, payload) in killed {
            self.ledger.completed += 1;
            self.replies.insert(key, (kind_of(&payload), payload));
        }
        (self.held_capacity, self.compact_threshold) = (held_capacity, compact_threshold);
        let completed = self.ledger.completed;
        self.maybe_compact();
        self.ledger.settled = resolves + (self.ledger.completed - completed) as u64;
    }

    /// The step that sends `f` at sequence number `seq`.
    fn step(&mut self, e: usize, seq: usize, f: &Frame) -> Step {
        self.at = format!("seed {} epoch {e} step {seq}", self.sweep);
        let (submitted, reply) = self.answer(f, seq as u64);
        Step(f.line.clone(), submitted, reply)
    }

    /// The reply to `f`, sent at sequence number `seq`.
    fn answer(&mut self, f: &Frame, seq: u64) -> (Submitted, Reply) {
        let id = f.id.as_str();
        match &f.op {
            Op::Solve(menu) => {
                self.tags.insert("solve-inline");
                self.solve(f, seq, |m| m.menu_payload(*menu))
            }
            Op::HandleSolve(handle, randomized) => {
                self.tags.insert("solve-handle");
                if !self.live.contains_key(handle) {
                    return Self::error(id, seq, &unknown(handle));
                }
                self.solve(f, seq, |m| m.held_solve(handle, *randomized))
            }
            Op::Upload(g) => {
                self.tags.insert("upload");
                let handle = handle_of(g);
                self.live.entry(handle.clone()).or_insert_with(|| g.clone());
                let instance = Instance::Bipartite(g.clone());
                let payload = wire::uploaded_payload(&handle, &instance, self.live.len());
                self.applied(f, seq, ReplyKind::Uploaded, payload)
            }
            Op::Mutate(handle, ins, del) => {
                self.tags
                    .insert(["mutate-keyless", "mutate-keyed"][usize::from(f.key.is_some())]);
                // the frame scan refuses an empty edit batch, keyed or not
                if let Err(e) = wire::scan(&f.line) {
                    return Self::error("", seq, &e.to_json_line());
                }
                if let Some(replayed) = self.replay(f, seq) {
                    return replayed;
                }
                let Some(g) = self.live.get(handle) else {
                    return Self::error(id, seq, &unknown(handle));
                };
                let delta = match EdgeDelta::new(g, ins, del) {
                    Ok(delta) => delta,
                    Err(e) => return Self::error(id, seq, &invalid("delta", e.to_string())),
                };
                let mut patched = self.live.remove(handle).expect("looked up above");
                delta.apply(&mut patched).expect("validated above");
                let (to, edges) = (handle_of(&patched), patched.edge_count());
                if self.live.contains_key(&to) {
                    self.tags.insert("merge");
                }
                self.live.entry(to.clone()).or_insert(patched);
                // held solutions move along with the delta pending, over
                // any of the same policy the target already held
                for randomized in [false, true] {
                    if let Some(mut held) = self.held.remove(&(handle.clone(), randomized)) {
                        held.pending.push(delta.clone());
                        self.held.insert((to.clone(), randomized), held);
                    }
                }
                let (ins, del) = (delta.inserts().len(), delta.deletes().len());
                let payload = wire::mutated_payload(handle, &to, ins, del, edges, self.live.len());
                self.applied(f, seq, ReplyKind::Mutated, payload)
            }
            Op::Release(handle) => {
                self.tags.insert("release");
                if self.live.remove(handle).is_none() {
                    self.tags.insert("release-gone");
                    let reason = format!("unknown instance handle \"{handle}\"");
                    return Self::error(id, seq, &invalid("handle", reason));
                }
                let held = self.held.len();
                self.held.retain(|(h, _), _| h != handle);
                if self.held.len() < held {
                    self.tags.insert("release-held");
                }
                let payload = wire::released_payload(handle, self.live.len());
                self.applied(f, seq, ReplyKind::Released, payload)
            }
            Op::Ping => {
                self.tags.insert("ping");
                let beat =
                    Reply::Heartbeat(self.live.len(), self.ledger.appended, self.ledger.replayed);
                (Submitted::Replied, beat)
            }
        }
    }

    /// A keyed solve of the burst the process dies in, sent at `seq`:
    /// admitted and never answered. The process dies on it after
    /// solving it (`runs`) or before reaching it.
    fn lost(&mut self, e: usize, seq: usize, f: &Frame, runs: bool) -> Step {
        self.at = format!("seed {} epoch {e} step {seq}", self.sweep);
        let payload = match &f.op {
            Op::Solve(menu) => self.menu_payload(*menu),
            // the worker solves through the held cache before it dies,
            // and the restart re-runs the journaled job as an inline solve
            Op::HandleSolve(handle, randomized) => {
                if runs {
                    self.held_solve(handle, *randomized);
                }
                let request = weak(self.ctx.scenario, &self.live[handle], *randomized);
                rendered(self.session.solve(&request))
            }
            _ => unreachable!("the burst holds only solves"),
        };
        self.admit(&f.id);
        let key = f.key.clone().expect("the burst is keyed");
        self.killed.push((f.id.clone(), key, payload));
        Step(f.line.clone(), Submitted::Queued, Reply::Killed)
    }

    /// A streamed epoch's burst of inline solves, as the transport must
    /// write it under the seeded faults, and the liveness probe after it.
    fn stream(&mut self, e: usize, c: &ChaosConfig, frames: &[Frame]) -> (Vec<Step>, Stream) {
        let panicked = wire::internal_panic_payload("chaos: injected worker panic");
        let mut steps = Vec::new();
        for (seq, f) in frames.iter().enumerate() {
            if c.fires(c.worker_stall, SITE_WORKER_STALL, 0, seq as u64) {
                self.tags.insert("stall");
            }
            if c.fires(c.worker_panic, SITE_WORKER_PANIC, 0, seq as u64) {
                self.tags.insert("panic");
                let (submitted, reply) = self.solve(f, seq as u64, |_| panicked.clone());
                steps.push(Step(f.line.clone(), submitted, reply));
            } else {
                steps.push(self.step(e, seq, f));
            }
        }
        let (lines_in, replies_out) = (steps.len() as u64, steps.len() as u64);
        let mut outcome = Ok(ServeSummary {
            lines_in,
            replies_out,
        });
        let mut bytes = Vec::new();
        for (index, Step(_, _, reply)) in (0..).zip(&steps) {
            let Reply::Frame(frame) = reply else {
                unreachable!("streamed solves answer with frames")
            };
            if c.fires(c.drop_connection, SITE_DROP_CONNECTION, 0, index) {
                self.tags.insert("drop");
                outcome = Err("chaos: injected connection drop");
                break;
            }
            if c.fires(c.torn_frame, SITE_TORN_FRAME, 0, index) {
                self.tags.insert("torn");
                bytes.extend_from_slice(&frame.as_bytes()[..(frame.len() / 2).max(1)]);
                outcome = Err("chaos: injected torn frame");
                break;
            }
            bytes.extend_from_slice(frame.as_bytes());
            bytes.push(b'\n');
        }
        if outcome.is_ok() {
            self.tags.insert("clean-stream");
        }
        // the probe is the first job of the second connection
        let f = self.frame("liveness".to_owned(), None, Op::Solve(0));
        let panics = c.fires(c.worker_panic, SITE_WORKER_PANIC, 1, 0);
        let probe = |m: &mut Self| if panics { panicked } else { m.menu_payload(0) };
        let (submitted, reply) = self.solve(&f, 0, probe);
        let probe = Step(f.line, submitted, reply);
        (
            steps,
            Stream {
                bytes,
                outcome,
                probe,
            },
        )
    }
}

/// The generator's state across epochs.
struct Gen {
    rng: StdRng,
    next_id: u64,
    /// Keyed frames sent so far, for verbatim retries.
    keyed: Vec<Frame>,
    /// The burst the last process died in, retried by the next epoch.
    burst: Vec<Frame>,
    /// Uploaded content that a later mutate of the handle by these
    /// edits reaches.
    ahead: Vec<(String, EdgeDelta)>,
    gone: Vec<String>,
}

impl Gen {
    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("op{}", self.next_id)
    }

    /// Sends a keyless frame doing `op` as the epoch's next step.
    fn send(&mut self, m: &mut Model<'_, '_>, e: usize, steps: &mut Vec<Step>, op: Op) {
        let f = m.frame(self.fresh_id(), None, op);
        steps.push(m.step(e, steps.len(), &f));
    }

    /// Draws one epoch and answers it with the model.
    fn epoch(&mut self, m: &mut Model<'_, '_>, e: usize) -> Epoch {
        let rng = &mut self.rng;
        // every plan streams in epoch 1 and kills at least once, in the
        // second-to-last epoch at the latest, so the last one retries
        // what a kill left; a streamed epoch never follows a kill, as
        // its faults would reach the recovered jobs
        let after_kill = !m.killed.is_empty();
        let last_chance = e + 2 == EPOCHS && !m.tags.contains("kill");
        let streamed = !after_kill && (e == 1 || e > 1 && !last_chance && rng.random_bool(0.35));
        let mut config = ServerConfig {
            workers: 1 + usize::from(streamed && rng.random_bool(0.5)),
            record_timings: false,
            held_capacity: rng.random_range(1..=3usize),
            journal_compact_threshold: [0, 3, 4][rng.random_range(0..3usize)],
            ..ServerConfig::default()
        };
        let policy = rng.random_range(0..3usize);
        let fsync = FsyncPolicy::ALL[policy];
        let kill = !streamed && e > 0 && e + 1 < EPOCHS && (last_chance || rng.random_bool(0.5));
        m.tags.insert(fsync.name());
        if e > 0 && !after_kill {
            m.tags.insert("restart");
        }
        m.restart(config.held_capacity, config.journal_compact_threshold);
        let (mut steps, mut stream, mut burst) = (Vec::new(), None, Vec::new());
        if streamed {
            let count = self.rng.random_range(4..=8usize);
            let frames: Vec<Frame> = (0..count)
                .map(|_| {
                    let (id, menu) = (self.fresh_id(), self.rng.random_range(0..m.menu.len()));
                    m.frame(id, None, Op::Solve(menu))
                })
                .collect();
            let fault_seed = std::iter::repeat_with(|| self.rng.random())
                .find(|&seed| injects(seed, count as u64))
                .expect("some fault seed fires");
            let faults = stream_faults(fault_seed);
            let (frames, out) = m.stream(e, &faults, &frames);
            (steps, stream, config.chaos) = (frames, Some(out), Some(faults));
        } else {
            // after a restart exactly the model's handles resolve: a
            // mutate deleting an absent edge is refused on its delta
            let probes = m.live.iter().map(|(h, g)| {
                let op = Op::Mutate(h.clone(), Vec::new(), vec![(0, g.right_count())]);
                m.frame("probe".to_owned(), None, op)
            });
            let mut frames: Vec<Frame> = probes.collect();
            frames.push(m.frame("ping".to_owned(), None, Op::Ping));
            frames.append(&mut self.burst);
            for f in &frames {
                steps.push(m.step(e, steps.len(), f));
            }
            for _ in 0..self.rng.random_range(6..=12usize) {
                let f = self.draw(m, false);
                steps.push(m.step(e, steps.len(), &f));
            }
            // fill the held cache to capacity with solutions of the base
            // instance under both policies, then of an edit of it, where
            // they accept: the moves below repair, and an eviction the
            // server makes too early or too late turns a repair into a
            // miss
            for randomized in [false, true, false] {
                if m.held.len() >= m.held_capacity {
                    break;
                }
                let mut g = m.ctx.scenario.bipartite.clone();
                if m.held.contains_key(&(handle_of(&g), randomized)) {
                    let _ = random_delta(&g, ChurnStyle::Rewire, 2, &mut self.rng).apply(&mut g);
                }
                let handle = handle_of(&g);
                if !m.live.contains_key(&handle) {
                    self.send(m, e, &mut steps, Op::Upload(g));
                }
                self.send(m, e, &mut steps, Op::HandleSolve(handle, randomized));
            }
            // the server must hold exactly the model's held solutions:
            // move each handle that has one by an edit and solve it under
            // both policies, which repairs exactly where one is held
            let held: BTreeSet<String> = m.held.keys().map(|(h, _)| h.clone()).collect();
            for handle in held {
                let mut g = m.live[&handle].clone();
                let delta = random_delta(&g, ChurnStyle::Rewire, 2, &mut self.rng);
                let _ = delta.apply(&mut g);
                let (ins, del) = (delta.inserts().to_vec(), delta.deletes().to_vec());
                self.send(m, e, &mut steps, Op::Mutate(handle, ins, del));
                for randomized in [false, true] {
                    self.send(m, e, &mut steps, Op::HandleSolve(handle_of(&g), randomized));
                }
            }
        }
        if kill {
            // `drive_steps` admits the whole burst before the worker can
            // reach its third job, so a kill from there on lands with
            // every later job of the burst queued
            let count = self.rng.random_range(3..=6usize);
            let at = self.rng.random_range(2..count);
            for i in 0..count {
                let (f, seq) = (self.draw(m, true), steps.len() + i);
                let step = if i < at {
                    m.step(e, seq, &f)
                } else {
                    m.lost(e, seq, &f, i == at)
                };
                burst.push(step);
                self.burst.push(f);
            }
            let (seq, recovered) = ((steps.len() + at) as u64, m.ledger.resolves);
            config.chaos = Some(kill_schedule(seq, recovered));
            // a one-frame reply buffer parks the worker on the burst's
            // second reply until the client reads, and it reads only once
            // the whole burst is admitted
            (config.reply_buffer, config.write_timeout) = (1, Duration::from_secs(120));
            m.tags
                .extend(["kill", ["kill-always", "kill-batch", "kill-never"][policy]]);
            if at + 1 < count {
                m.tags.insert("kill-queued");
            }
        }
        let records = m.records.iter().map(|r| (r.0.clone(), r.1.clone()));
        let killed = m.killed.iter().map(|k| (k.0.clone(), Some(k.1.clone())));
        m.ledger.incomplete = records.chain(killed).collect();
        m.ledger.handles = m.live.len();
        let ledger = m.ledger.clone();
        Epoch {
            config,
            fsync,
            steps,
            stream,
            burst,
            ledger,
        }
    }

    /// Draws the next frame of a sequential epoch, keeping it for
    /// retries when it is keyed; `kill` draws a keyed solve of the burst
    /// the process dies in.
    fn draw(&mut self, m: &mut Model<'_, '_>, kill: bool) -> Frame {
        let f = self.draw_frame(m, kill);
        if f.key.is_some() && !self.keyed.iter().any(|k| k.id == f.id) {
            self.keyed.push(f.clone());
        }
        f
    }

    fn draw_frame(&mut self, m: &mut Model<'_, '_>, kill: bool) -> Frame {
        let id = self.fresh_id();
        let rng = &mut self.rng;
        let live: Vec<&String> = m.live.keys().collect();
        let mut handle = live.choose(rng).map(|h| (*h).clone());
        // favour handles with a held solution, so mutates leave deltas
        // pending, and held solutions with deltas pending, so solves
        // repair
        let held: Vec<&(String, bool)> = m.held.keys().collect();
        if let Some((h, _)) = held.choose(rng).filter(|_| rng.random_bool(0.5)) {
            handle = Some(h.clone());
        }
        let pending = m.held.iter().filter(|(_, h)| !h.pending.is_empty());
        let pending: Vec<&(String, bool)> = pending.map(|(k, _)| k).collect();
        let pending = pending.choose(rng).filter(|_| rng.random_bool(0.7));
        let pending = pending.map(|(h, r)| (h.clone(), *r));
        let key = |rng: &mut StdRng, p: f64| rng.random_bool(p).then(|| format!("key-{id}"));
        if kill {
            let key = key(rng, 1.0);
            let op = match handle {
                Some(handle) if rng.random_bool(0.5) => {
                    Op::HandleSolve(handle, rng.random_bool(0.5))
                }
                _ => Op::Solve(rng.random_range(0..m.menu.len())),
            };
            return m.frame(id, key, op);
        }
        // re-solve a solution a failed repair just dropped: the server
        // must solve it from scratch, not serve the stale one
        if let Some((handle, randomized)) = m.dropped.take().filter(|_| rng.random_bool(0.8)) {
            let key = key(rng, 0.3);
            return m.frame(id, key, Op::HandleSolve(handle, randomized));
        }
        let roll = rng.random_range(0..16usize);
        let (op, key) = match (roll, handle) {
            (0, _) => (Op::Solve(rng.random_range(0..m.menu.len())), key(rng, 0.3)),
            (1..=4, Some(handle)) => {
                let (handle, randomized) = pending.unwrap_or((handle, rng.random_bool(0.5)));
                (Op::HandleSolve(handle, randomized), key(rng, 0.3))
            }
            (5, Some(handle)) => {
                let mut g = m.live[&handle].clone();
                let delta = random_delta(&g, ChurnStyle::Rewire, 2, rng);
                let _ = delta.apply(&mut g);
                self.ahead.push((handle, delta));
                m.tags.insert("upload-ahead");
                (Op::Upload(g), None)
            }
            (6..=9, Some(handle)) => {
                let planned = self.ahead.iter().position(|(h, _)| m.live.contains_key(h));
                let (handle, delta) = match planned {
                    Some(i) => self.ahead.swap_remove(i),
                    None => {
                        let style = ChurnStyle::ALL[roll % 3];
                        let delta = random_delta(&m.live[&handle], style, 2, rng);
                        (handle, delta)
                    }
                };
                let (ins, del) = (delta.inserts().to_vec(), delta.deletes().to_vec());
                (Op::Mutate(handle, ins, del), key(rng, 0.5))
            }
            (10, _) if !self.keyed.is_empty() => {
                m.tags.insert("retry");
                return self.keyed.choose(rng).expect("non-empty").clone();
            }
            (11, Some(handle)) => {
                self.gone.push(handle.clone());
                (Op::Release(handle), None)
            }
            (12, _) if !self.gone.is_empty() => {
                let handle = self.gone.choose(rng).expect("non-empty").clone();
                (Op::Release(handle), None)
            }
            (13, _) => (Op::Ping, None),
            // upload the base content, or content one edit from it
            _ => {
                let mut g = m.ctx.scenario.bipartite.clone();
                if roll % 2 == 1 {
                    let _ = random_delta(&g, ChurnStyle::Rewire, 1, rng).apply(&mut g);
                }
                (Op::Upload(g), None)
            }
        };
        m.frame(id, key, op)
    }
}

/// Draws the operation sequence of `ctx`'s scenario under `sweep` and
/// answers it with the model. Checks of the library itself — held
/// solutions against scratch solves of the model's edge sets — are
/// recorded in `ctx` as the model runs.
pub(crate) fn plan(ctx: &mut Ctx<'_>, sweep: u64) -> Plan {
    let seed = ctx.scenario.seed ^ 0x5E41_71CE ^ sweep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        next_id: 0,
        keyed: Vec::new(),
        burst: Vec::new(),
        ahead: Vec::new(),
        gone: Vec::new(),
    };
    let mut m = Model::new(ctx, sweep);
    let epochs = (0..EPOCHS).map(|e| gen.epoch(&mut m, e)).collect();
    Plan {
        epochs,
        tags: m.tags,
    }
}

/// The service group: plans the scenario's sequence and drives it.
pub(crate) fn check_service(ctx: &mut Ctx<'_>) {
    let s = ctx.scenario;
    let b = &s.bipartite;
    if b.left_count() == 0 || b.right_count() == 0 || b.edge_count() == 0 {
        return;
    }
    let sweep = std::env::var(SEED_ENV).ok().and_then(|v| v.parse().ok());
    let (sweep, family) = (sweep.unwrap_or(0), s.family.replace(['/', '#'], "-"));
    let plan = plan(ctx, sweep);
    let pid = std::process::id();
    let name = format!("splitd-service-{pid}-{family}-{}-{sweep}.journal", s.seed);
    drive(ctx, &plan, &std::env::temp_dir().join(name), sweep);
}

/// Records `name`, passing when the server's `seen` is the model's `want`.
fn expect<T: PartialEq + Debug>(
    ctx: &mut Ctx,
    name: &'static str,
    at: impl Display,
    seen: T,
    want: T,
) {
    ctx.check(name, seen == want, || {
        format!("{at}: {seen:?}, model {want:?}")
    });
}

/// Runs every epoch of `plan` through a fresh server on the journal at
/// `path`, comparing everything against the model's answers.
fn drive(ctx: &mut Ctx<'_>, plan: &Plan, path: &Path, sweep: u64) {
    let _ = std::fs::remove_file(path);
    for (e, epoch) in plan.epochs.iter().enumerate() {
        let (want, at) = (&epoch.ledger, format!("seed {sweep} epoch {e}"));
        let journal = Arc::new(Journal::open(path, epoch.fsync).expect("journal opens"));
        let recovered = journal.stats().recovered;
        expect(
            ctx,
            "service.reopen-recovers",
            &at,
            recovered,
            want.recovered,
        );
        let mut config = epoch.config.clone();
        config.journal = Some(Arc::clone(&journal));
        let server = Server::start(config);
        // recovered solves re-run in the background: wait (bounded) until
        // they are served, so their completions are journaled
        let deadline = Instant::now() + Duration::from_secs(120);
        while server.stats().served < want.resolves && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let settled = journal.stats().completed;
        expect(
            ctx,
            "service.recovered-jobs-complete",
            &at,
            settled,
            want.settled,
        );
        match &epoch.stream {
            Some(stream) => drive_stream(ctx, &at, &server, &epoch.steps, stream),
            None => drive_steps(ctx, &at, &server, &epoch.steps, &epoch.burst),
        }
        // replays, re-admissions, held-cache updates, and the table the
        // restart rebuilt
        let s = server.stats();
        let seen = (s.replayed, s.journal_appended, (s.repairs, s.full_resolves));
        let table = (
            s.handles_held as usize,
            s.journal_recovered,
            s.journal_bytes > 0,
        );
        let model = (want.replayed, want.appended, want.repairs);
        let tables = (want.handles, want.recovered, true);
        let name = "service.stats-match-model";
        expect(ctx, name, &at, (seen, table), (model, tables));
        if !epoch.burst.is_empty() {
            server.halt();
        } else {
            server.shutdown();
        }
        drop(journal);
        let bytes = std::fs::read(path).expect("journal image readable");
        check_image(ctx, &at, &bytes, epoch);
    }
    let _ = std::fs::remove_file(path);
}

/// A sequential epoch: one frame at a time, each reply awaited, then
/// the burst sent whole before its replies are read. The end of input
/// is sent last: through the one-frame reply buffer it would wait on
/// the unread replies.
fn drive_steps(ctx: &mut Ctx<'_>, at: &str, server: &Server, steps: &[Step], burst: &[Step]) {
    let (mut tx, mut rx) = server.connect().split();
    let all = steps.iter().chain(burst).enumerate();
    let all: Vec<(String, &Step)> = all.map(|(i, s)| (format!("{at} step {i}"), s)).collect();
    for (i, (at, step)) in all.iter().enumerate() {
        let submitted = tx.submit_line(&step.0);
        expect(ctx, "service.submit-outcome", at, submitted, step.1);
        if i < steps.len() {
            check_reply(ctx, at, server, step, rx.recv());
        }
    }
    for (at, step) in &all[steps.len()..] {
        check_reply(ctx, at, server, step, rx.recv());
    }
    tx.finish();
}

/// Compares the frame received for `step` with the model's reply.
fn check_reply(ctx: &mut Ctx<'_>, at: &str, server: &Server, step: &Step, frame: Option<String>) {
    let Step(line, _, reply) = step;
    let ok = match (reply, &frame) {
        (Reply::Frame(want), Some(frame)) => frame == want,
        (Reply::Heartbeat(handles, appended, replayed), Some(frame)) => {
            let beat = wire::split_reply(frame).is_some_and(|r| r.frame_type == "heartbeat");
            let fields = [
                format!("\"replayed\":{replayed},"),
                format!("\"journal_appended\":{appended},"),
                format!("\"handles_held\":{handles},"),
            ];
            beat && fields.iter().all(|f| frame.contains(f.as_str()))
        }
        (Reply::Killed, _) => {
            let killed = frame.is_none() && server.killed();
            ctx.check("service.kill-fires", killed, || {
                format!("{at}: the planned kill did not fire: {frame:?}")
            });
            return;
        }
        (_, None) => false,
    };
    ctx.check("service.reply-matches-model", ok, || {
        format!("{at}: {line}\n  expected {reply:?}\n  got {frame:?}")
    });
}

/// A streamed epoch: the burst through the byte-stream transport, then
/// a liveness probe on a second connection and a bounded drain.
fn drive_stream(ctx: &mut Ctx<'_>, at: &str, server: &Server, steps: &[Step], stream: &Stream) {
    let input: String = steps.iter().map(|step| format!("{}\n", step.0)).collect();
    let mut out = Vec::new();
    let outcome = transport::serve_stream(server, input.as_bytes(), &mut out);
    let [seen, want] = [&out, &stream.bytes].map(|b| String::from_utf8_lossy(b));
    expect(ctx, "service.stream-matches-model", at, seen, want);
    let outcome = outcome.map_err(|e| e.to_string());
    let model = stream.outcome.map_err(str::to_owned);
    expect(ctx, "service.stream-outcome", at, outcome, model);
    let (mut tx, mut rx) = server.connect().split();
    let Step(line, submitted, reply) = &stream.probe;
    let admitted = tx.submit_line(line);
    tx.finish();
    let probe = rx.recv().map(Reply::Frame);
    let seen = (admitted, probe, rx.recv(), server.drain());
    let want = (*submitted, Some(reply.clone()), None, true);
    expect(ctx, "service.pool-survives-and-drains", at, seen, want);
}

/// The journal image an epoch left behind: it scans clean, its
/// admissions, incomplete tail and completions are the model's, and
/// after a kill its torn, corrupt and foreign variants recover or are
/// refused typedly.
fn check_image(ctx: &mut Ctx<'_>, at: &str, bytes: &[u8], epoch: &Epoch) {
    let want = &epoch.ledger;
    let scanned = journal::scan(bytes);
    let truncated = scanned.as_ref().map(|s| s.truncated).ok();
    expect(ctx, "service.journal-scans-clean", at, truncated, Some(0));
    let Ok(journal::ScanOutcome { records, .. }) = scanned else {
        return;
    };
    let (mut admitted, mut completed) = (Vec::new(), Vec::new());
    for record in &records {
        match record {
            Record::Admitted(rec) => admitted.push(rec.id.clone()),
            Record::Completed { record_id } => completed.push(*record_id),
            Record::Payload { .. } => {}
        }
    }
    expect(
        ctx,
        "service.journal-admission-order",
        at,
        &admitted,
        &want.admitted,
    );
    let incomplete = journal::incomplete(&records).into_iter();
    let incomplete: Vec<_> = incomplete.map(|r| (r.id, r.idempotency_key)).collect();
    let name = "service.journal-incomplete-matches-model";
    expect(ctx, name, at, &incomplete, &want.incomplete);
    let total = completed.len();
    completed.sort_unstable();
    completed.dedup();
    let (seen, want) = ((total, completed.len()), (want.completed, want.completed));
    expect(ctx, "service.journal-completes-once", at, seen, want);
    if epoch.burst.is_empty() {
        return;
    }
    // any byte-length prefix recovers exactly the fully-written records
    let ends = records.iter().scan(journal::HEADER_LEN, |end, record| {
        *end += journal::encode_record(record).len();
        Some(*end)
    });
    let ends: Vec<usize> = ends.collect();
    let mid = (journal::HEADER_LEN + bytes.len()) / 2;
    for cut in [journal::HEADER_LEN, mid, bytes.len() - 1] {
        let want = ends.iter().filter(|&&end| end <= cut).count();
        let ok = journal::scan(&bytes[..cut]).is_ok_and(|torn| torn.records[..] == records[..want]);
        ctx.check("service.torn-prefix-recovers-full-records", ok, || {
            format!("{at}: cut at byte {cut} did not recover exactly {want} records")
        });
    }
    // a flipped byte inside a record truncates to the records before it
    let mut corrupt = bytes.to_vec();
    let hit = journal::HEADER_LEN + (corrupt.len() - journal::HEADER_LEN) / 2;
    corrupt[hit] ^= 0xff;
    let ok = journal::scan(&corrupt).is_ok_and(|out| records.starts_with(&out.records));
    ctx.check("service.corrupt-record-truncates-cleanly", ok, || {
        format!("{at}: flipping byte {hit} did not truncate to a valid record prefix")
    });
    // header damage is a typed refusal, never a guess
    let foreign = journal::scan(b"NOT-A-JOURNAL-AT-ALL");
    let typed = matches!(foreign, Err(JournalError::BadMagic(_)));
    ctx.check("service.foreign-bytes-are-typed-bad-magic", typed, || {
        format!("{at}: scan accepted a non-journal image: {foreign:?}")
    });
    let mut future = bytes.to_vec();
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let future = journal::scan(&future);
    let typed =
        matches!(future, Err(JournalError::VersionMismatch { found, .. }) if found == u32::MAX);
    ctx.check("service.version-mismatch-is-typed", typed, || {
        format!("{at}: scan accepted a future-format journal: {future:?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Group;
    use crate::scenario::{corpus, Tier};

    fn plan_of(s: &Scenario, sweep: u64) -> Plan {
        let mut ctx = Ctx::new(s, Group::Service);
        let plan = plan(&mut ctx, sweep);
        assert!(ctx.failures.is_empty(), "{:?}", ctx.failures);
        plan
    }

    /// The plan is a pure function of (scenario, seed). At the default
    /// seed and every CI seed, every plan of the quick tier streams under
    /// a fault that fires, kills the process, and repairs a held solution
    /// where the base instance accepts. Across the CI seeds the plans of
    /// one scenario exercise every frame kind, every event, every fsync
    /// policy (a kill under each), an LRU eviction and a compaction.
    #[test]
    fn plans_are_pure_and_the_ci_seeds_cover_every_axis() {
        let session = Session::with_threads(1);
        for s in corpus(Tier::Quick) {
            let b = &s.bipartite;
            if b.left_count() == 0 || b.right_count() == 0 || b.edge_count() == 0 {
                continue;
            }
            let accepts = session.solve(&weak(&s, b, false)).is_ok();
            for seed in std::iter::once(0).chain(CI_SEEDS) {
                let tags = plan_of(&s, seed).tags;
                let faulted = ["panic", "torn", "drop"].iter().any(|t| tags.contains(t));
                let name = &s.name;
                assert!(faulted, "{name} seed {seed}: no fault fires");
                assert!(tags.contains("kill"), "{name} seed {seed}: no kill");
                let repaired = tags.contains("repair");
                assert!(!accepts || repaired, "{name} seed {seed}: no repair");
            }
        }
        let scenarios = corpus(Tier::Quick);
        let s = scenarios
            .iter()
            .find(|s| s.name == "biregular/100x100d20#1");
        let s = s.expect("registered scenario");
        let mut tags = BTreeSet::new();
        for seed in CI_SEEDS {
            let plan = plan_of(s, seed);
            let again = format!("{:?}", plan_of(s, seed));
            assert!(
                format!("{plan:?}") == again,
                "seed {seed}: the plan is not pure"
            );
            tags.extend(plan.tags);
        }
        let axes = [
            "solve-inline",
            "solve-handle",
            "upload",
            "upload-ahead",
            "merge",
            "mutate-keyed",
            "mutate-keyless",
            "retry",
            "replayed",
            "release",
            "release-gone",
            "release-held",
            "ping",
            "panic",
            "stall",
            "torn",
            "drop",
            "clean-stream",
            "kill",
            "kill-queued",
            "kill-always",
            "kill-batch",
            "kill-never",
            "restart",
            "always",
            "batch",
            "never",
            "evict",
            "compact",
            "repair",
        ];
        let missing: Vec<&str> = axes.into_iter().filter(|a| !tags.contains(a)).collect();
        assert!(
            missing.is_empty(),
            "the CI seeds never exercise {missing:?}"
        );
    }
}
