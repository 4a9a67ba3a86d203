//! The `splitd` service core: ingest → queue → workers → reporting.
//!
//! A [`Server`] owns one global [`JobQueue`] and a fixed pool of
//! persistent workers, each holding its own single-threaded
//! [`Session`]. Transports (or in-process callers) open a
//! [`Connection`], which splits into a [`Submitter`] half (the ingest
//! side: classifies lines, applies admission control, assigns reporting
//! sequence numbers) and a [`FrameReceiver`] half (the reporting side: a
//! reorder buffer that releases reply frames strictly in submission
//! order, whatever order workers finish in).
//!
//! Every non-empty submitted line consumes exactly one sequence number
//! and produces exactly one reply frame — malformed lines become typed
//! `error` frames, pings become `heartbeat` frames, refused admissions
//! become `overloaded` error frames — so a client can always match
//! replies to inputs positionally as well as by id. Worker panics are
//! caught and reported as the reserved `internal-panic` error payload;
//! they never tear down the pool or the connection.

use crate::chaos::{self, ChaosConfig};
use crate::journal::{Journal, PayloadHash};
use crate::queue::{JobQueue, PushError};
use crate::store::{HeldEntry, InstanceStore, Origin};
use crate::wire::{self, ClientFrame, Envelope, Priority, ReplyKind, StatsSnapshot, Timing};
use splitting_api::{ApiError, CancelToken, HeldSolution, Request, Session};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What to do when a request arrives while the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Refuse the request with a typed `overloaded` error frame (the
    /// default): the client learns immediately and may retry after
    /// backing off.
    #[default]
    Reject,
    /// Park the ingest thread until a slot frees: backpressure
    /// propagates to the client through its pipe or socket buffer.
    Block,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Persistent worker threads (default 1 — matches the single-vCPU
    /// reference environment; results are identical at any width).
    pub workers: usize,
    /// Bound on queued jobs across all priority lanes (default 256).
    pub queue_capacity: usize,
    /// Full-queue policy (default [`Admission::Reject`]).
    pub admission: Admission,
    /// Attach `queued_ns`/`solve_ns` to reply frames (default true).
    /// Disable for byte-reproducible reply streams.
    pub record_timings: bool,
    /// Reject frames longer than this many bytes with a typed error
    /// (default 8 MiB).
    pub max_frame_bytes: usize,
    /// Bound on buffered reply frames per connection (default 1024).
    /// A consumer that falls further behind is given
    /// [`write_timeout`](Self::write_timeout) to catch up, then evicted.
    pub reply_buffer: usize,
    /// How long a delivery may wait on a full per-connection reply
    /// buffer before the connection is evicted (default 5 s). Eviction
    /// drops the slow client's connection — never the server: the
    /// worker returns to the pool immediately.
    pub write_timeout: Duration,
    /// Bound on [`Server::drain`]/[`Server::shutdown`] (default 10 s):
    /// past it, in-flight solves are cancelled at their next
    /// checkpoint so the daemon always terminates.
    pub drain_deadline: Duration,
    /// Backoff hint attached to `overloaded` rejections, milliseconds
    /// (default 25). Clients should treat it as the base of an
    /// exponential backoff with jitter.
    pub retry_after_ms: u64,
    /// Seeded fault injection (default `None` — no faults). A
    /// test/bench-only hook; see [`crate::chaos`].
    pub chaos: Option<ChaosConfig>,
    /// Write-ahead journal making admitted work durable (default `None`
    /// — no journal). When set, every admission is journaled before it
    /// is queued, completions are journaled when the reply is handed to
    /// delivery, and [`Server::start`] re-enqueues whatever the journal
    /// recovered. See [`crate::journal`].
    pub journal: Option<Arc<Journal>>,
    /// Bound on the idempotency reply cache (default 256 completed
    /// keys). Only requests carrying an `idempotency_key` occupy a
    /// slot; `0` disables the cache entirely.
    pub idempotency_capacity: usize,
    /// Bound on cached held solutions for churn repair (default 64;
    /// `0` disables holding). An entry shares the interned instance until
    /// the handle is first mutated; from then on it owns one instance
    /// copy (patched in place by each repair) plus its coloring. At
    /// capacity, adopting a fresh solution evicts the least-recently-used
    /// entry — adoption is never refused.
    pub held_capacity: usize,
    /// Compact journaled state records (upload/mutate/release) once
    /// more than this many are outstanding (default 64; `0` disables
    /// compaction): the interned-handle table is snapshotted as
    /// synthetic upload records and the superseded history is marked
    /// completed, so recovery replays the snapshot plus the tail
    /// instead of every mutation ever applied.
    pub journal_compact_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            queue_capacity: 256,
            admission: Admission::default(),
            record_timings: true,
            max_frame_bytes: 8 << 20,
            reply_buffer: 1024,
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(10),
            retry_after_ms: 25,
            chaos: None,
            journal: None,
            idempotency_capacity: 256,
            held_capacity: 64,
            journal_compact_threshold: 64,
        }
    }
}

enum Payload {
    /// A raw wire line; the worker runs the strict body parse.
    Wire(String, Box<wire::Body>),
    /// An already-typed request (the in-process fast path used by the
    /// benchmark harness to measure queue/worker machinery without
    /// codec cost).
    Parsed(Box<Request>),
}

struct Job {
    conn: u64,
    seq: u64,
    id: String,
    payload: Payload,
    enqueued: Option<Instant>,
    /// Absolute expiry and the client's original ms budget, when the
    /// request carried a `deadline_ms`.
    deadline: Option<(Instant, u64)>,
    /// Journal record id of this admission, when a journal is armed —
    /// completion is marked against it once the reply is delivered.
    journal_id: Option<u64>,
    /// The interned-instance hash the request addressed, when it came
    /// in handle form — the key the worker uses to find (or seed) the
    /// held-solution cache entry for incremental churn repair.
    handle_hash: Option<PayloadHash>,
    /// Client-supplied idempotency key; the delivered reply is cached
    /// under it so a retry replays instead of re-solving.
    idempotency_key: Option<String>,
}

enum Report {
    Frame {
        seq: u64,
        line: String,
    },
    /// Wakes a receiver parked on an empty channel once
    /// [`Submitter::finish`] has recorded the total; sent without
    /// waiting, and dropped when the buffer is full.
    Finished,
}

/// How long a blocked delivery parks between retries of a full
/// per-connection reply buffer.
const DELIVER_POLL: Duration = Duration::from_millis(1);

/// Reserved connection id for jobs re-enqueued from the journal at
/// startup. It is never registered, so deliveries to it are silently
/// dropped — recovery cares about the journal completion and the
/// idempotency cache, not about streaming a reply to a connection that
/// no longer exists. Client connection ids count up from 0 and cannot
/// collide with it.
const RECOVERY_CONN: u64 = u64::MAX;

/// A delivered reply remembered under its idempotency key.
#[derive(Clone)]
struct CachedReply {
    /// Which frame type the replay renders.
    kind: ReplyKind,
    /// The reply payload, byte-for-byte as first delivered.
    payload: String,
}

/// Bounded LRU of delivered replies keyed by client idempotency key.
/// Linear-scan recency bookkeeping — the cache is small (hundreds of
/// entries) and every touch already holds the mutex.
struct IdempotencyCache {
    capacity: usize,
    order: VecDeque<String>,
    replies: HashMap<String, CachedReply>,
}

impl IdempotencyCache {
    fn new(capacity: usize) -> Self {
        IdempotencyCache {
            capacity,
            order: VecDeque::new(),
            replies: HashMap::new(),
        }
    }

    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos).expect("position is in range");
            self.order.push_back(k);
        }
    }

    fn get(&mut self, key: &str) -> Option<CachedReply> {
        let hit = self.replies.get(key).cloned()?;
        self.touch(key);
        Some(hit)
    }

    /// Keys whose cached reply is a `mutated` frame.
    fn mutated_keys(&self) -> HashSet<String> {
        let mutated = |(key, reply): (&String, &CachedReply)| {
            matches!(reply.kind, ReplyKind::Mutated).then(|| key.clone())
        };
        self.replies.iter().filter_map(mutated).collect()
    }

    fn insert(&mut self, key: String, reply: CachedReply) {
        if self.capacity == 0 {
            return;
        }
        if self.replies.insert(key.clone(), reply).is_some() {
            self.touch(&key);
            return;
        }
        self.order.push_back(key);
        if self.order.len() > self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.replies.remove(&evicted);
            }
        }
    }
}

struct Shared {
    queue: JobQueue<Job>,
    registry: Mutex<HashMap<u64, SyncSender<Report>>>,
    served: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    replayed: AtomicU64,
    inflight: AtomicUsize,
    next_conn: AtomicU64,
    /// Set when the seeded `process_kill` fault fires (or
    /// [`Server::halt`] is called): the process is "dead" — ingest
    /// stops admitting, workers stop solving and delivering, and
    /// nothing further is journaled, exactly as a real `kill -9`
    /// behaves.
    killed: AtomicBool,
    idempotency: Mutex<IdempotencyCache>,
    /// Interned instances (`upload` frames) with their held solutions
    /// and outstanding journal state records. Requests carrying a handle
    /// resolve here at ingest and share the `Arc` — a handle solve never
    /// re-parses or copies the graph.
    store: Mutex<InstanceStore>,
    /// Instance edge lists that spelled some endpoint non-canonically
    /// (`2.0`, `2e0`); canonical encodings never count.
    parse_fallbacks: AtomicU64,
    /// Held-solution updates served by the incremental repair path.
    repairs: AtomicU64,
    /// Held-solution updates that fell back to a from-scratch solve.
    full_resolves: AtomicU64,
    /// Sum of per-repair refix fractions, in permille (for the mean).
    refix_sum_permille: AtomicU64,
    /// One slot per worker: the cancellation token of the solve it is
    /// running right now, so `drain` can abandon over-deadline work.
    active: Vec<Mutex<Option<CancelToken>>>,
    config: ServerConfig,
}

impl Shared {
    fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Simulates the process dying right now: no further admissions,
    /// deliveries, solves, or journal appends. Queued jobs are drained
    /// and dropped un-journaled-as-complete, so a restart recovers
    /// them. Clearing the registry drops every reply channel's only
    /// sender, so blocked receivers unpark and observe the "death"
    /// instead of waiting for frames that will never come.
    fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        // discard the backlog in one step; the dropped jobs' admitted
        // records stay incomplete, which is what resurrects them
        drop(self.queue.close_and_drain());
        self.registry.lock().unwrap().clear();
    }

    /// Journals completion and populates the idempotency cache for a
    /// job whose reply is about to be handed to delivery.
    ///
    /// This runs *before* [`Shared::deliver`], which gives keyed clients
    /// a real ordering guarantee: once a reply frame has been observed,
    /// a retry of the same key is answered from the cache. (A crash in
    /// the sliver between completion and delivery loses only the frame,
    /// never the answer — the client's keyed retry re-solves the same
    /// deterministic request and gets byte-identical output.)
    fn finish_job(&self, job: &Job, kind: ReplyKind, payload: String) {
        if let (Some(journal), Some(record_id)) = (&self.config.journal, job.journal_id) {
            // a failing completion append degrades durability (the job
            // would be re-run after a crash), never availability
            let _ = journal.mark_completed(record_id);
        }
        if let Some(key) = &job.idempotency_key {
            self.cache_reply(key.clone(), kind, payload);
        }
    }

    /// Remembers a delivered reply under its client idempotency key.
    fn cache_reply(&self, key: String, kind: ReplyKind, payload: String) {
        self.idempotency
            .lock()
            .unwrap()
            .insert(key, CachedReply { kind, payload });
    }

    /// Compacts the journal's state records once the store reports
    /// them due (see [`InstanceStore::compact`]). The idempotency
    /// cache's `mutated` keys are read first, under their own lock, so
    /// compaction keeps every keyed mutate reply the cache still holds.
    fn maybe_compact(&self) {
        if !self.store.lock().unwrap().compact_due() {
            return;
        }
        let cached = self.idempotency.lock().unwrap().mutated_keys();
        self.store.lock().unwrap().compact(&cached);
    }

    fn deliver(&self, conn: u64, seq: u64, line: String) {
        let mut report = Report::Frame { seq, line };
        let sender = self.registry.lock().unwrap().get(&conn).cloned();
        let Some(sender) = sender else { return };
        let deadline = Instant::now() + self.config.write_timeout;
        loop {
            match sender.try_send(report) {
                Ok(()) => return,
                // the receiver is gone; nothing to do
                Err(TrySendError::Disconnected(_)) => return,
                Err(TrySendError::Full(r)) => {
                    if Instant::now() >= deadline {
                        // slow consumer: evict the connection rather
                        // than wedging a worker — the server survives,
                        // the laggard's stream is torn down (dropping
                        // the registry entry drops the channel's only
                        // sender, so a blocked receiver unparks)
                        self.registry.lock().unwrap().remove(&conn);
                        self.evicted.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    report = r;
                    thread::sleep(DELIVER_POLL);
                }
            }
        }
    }

    fn stats(&self) -> StatsSnapshot {
        let journal = self
            .config
            .journal
            .as_ref()
            .map(|j| j.stats())
            .unwrap_or_default();
        let repairs = self.repairs.load(Ordering::Relaxed);
        let store = self.store.lock().unwrap();
        let (handles_held, mutations_applied) = (store.len() as u64, store.mutations);
        drop(store);
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            queue_depth: self.queue.depth(),
            queue_high_water: self.queue.high_water(),
            inflight: self.inflight.load(Ordering::Relaxed),
            workers: self.config.workers,
            queue_capacity: self.queue.capacity(),
            replayed: self.replayed.load(Ordering::Relaxed),
            journal_appended: journal.appended,
            journal_bytes: journal.bytes,
            journal_recovered: journal.recovered,
            parse_fallbacks: self.parse_fallbacks.load(Ordering::Relaxed),
            handles_held,
            mutations_applied,
            repairs,
            full_resolves: self.full_resolves.load(Ordering::Relaxed),
            refix_mean_permille: self.refix_sum_permille.load(Ordering::Relaxed) / repairs.max(1),
        }
    }
}

/// Solves a handle-form request through the held-solution cache. A hit
/// with pending deltas is repaired incrementally ([`HeldSolution::apply`]
/// re-fixes only the dirty constraints and re-certifies); a clean hit
/// answers from the retained, already-certified solution; a miss solves
/// from scratch and — capacity permitting — adopts the result so the
/// next mutation of this handle repairs instead of re-solving. Entries
/// are checked out of the store while in use, so two workers can never
/// repair the same held solution concurrently.
fn solve_held(
    shared: &Shared,
    session: &Session,
    token: &CancelToken,
    request: &Request,
    hash: PayloadHash,
) -> String {
    let key = (hash, wire::policy_fingerprint(request));
    let Some(mut entry) = shared.store.lock().unwrap().checkout(key) else {
        return match session.solve_with_cancel(request, token) {
            Ok(solution) => {
                let line = solution.to_json_line();
                if let Ok(held) = HeldSolution::adopt(session, request, solution) {
                    let entry = HeldEntry::new(held);
                    shared.store.lock().unwrap().checkin(key, entry);
                }
                line
            }
            Err(e) => e.to_json_line(),
        };
    };
    let before = *entry.held.stats();
    // the drain runs under the job's token, so a repair's fallback
    // re-solve stops at the job's deadline (counted from admission) and
    // at `Server::drain`'s cancel, like any other solve
    let drained = local_runtime::with_token(token, || {
        let mut repaired = None;
        for delta in std::mem::take(&mut entry.pending) {
            repaired = Some(entry.held.apply(&delta).map(|s| s.to_json_line()));
        }
        repaired
    });
    let after = *entry.held.stats();
    let add = |total: &AtomicU64, n: u64| total.fetch_add(n, Ordering::Relaxed);
    add(&shared.repairs, after.repairs - before.repairs);
    add(
        &shared.full_resolves,
        after.full_resolves - before.full_resolves,
    );
    let refix_sum = after.refix_sum() - before.refix_sum();
    add(
        &shared.refix_sum_permille,
        (refix_sum * 1000.0).round() as u64,
    );
    let Ok(repaired) = drained else {
        // cancelled part-way: the entry is dropped like a failed apply
        return ApiError::DeadlineExceeded {
            stage: "solving",
            deadline_ms: request.budget().deadline_ms.unwrap_or(0),
        }
        .to_json_line();
    };
    match repaired.unwrap_or_else(|| Ok(entry.held.solution().to_json_line())) {
        Ok(line) => {
            shared.store.lock().unwrap().checkin(key, entry);
            line
        }
        // a failed final apply leaves the entry's graph patched but its
        // retained solution certified for the PRE-delta instance; served
        // again, it would be stale. Drop it instead: the next solve of
        // this handle re-solves the live graph from scratch.
        Err(e) => e.to_json_line(),
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let session = Session::new();
    while let Some(mut job) = shared.queue.pop() {
        if shared.is_killed() {
            // the "dead" process does nothing with remaining queued
            // work: drop it on the floor (draining so every worker
            // terminates) — the journal resurrects it on restart
            continue;
        }
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        let queued_ns = job
            .enqueued
            .map(|t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        let started = shared.config.record_timings.then(Instant::now);
        let timing = |started: Option<Instant>| match (queued_ns, started) {
            (Some(queued_ns), Some(started)) => Some(Timing {
                queued_ns,
                solve_ns: started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            }),
            _ => None,
        };
        // in-queue deadline enforcement: an expired job is answered with
        // a typed error frame and never costs a solve — this worker is
        // immediately free for the next job
        if let Some((expiry, deadline_ms)) = job.deadline {
            if Instant::now() >= expiry {
                let payload = ApiError::DeadlineExceeded {
                    stage: "queued",
                    deadline_ms,
                }
                .to_json_line();
                let kind = ReplyKind::Error;
                let frame =
                    wire::reply_frame(kind, &job.id, job.seq, timing(started), false, &payload);
                shared.finish_job(&job, kind, payload);
                shared.deliver(job.conn, job.seq, frame);
                shared.served.fetch_add(1, Ordering::Relaxed);
                shared.inflight.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
        }
        // seeded fault injection (no-ops when chaos is unarmed)
        let mut inject_panic = false;
        if let Some(c) = &shared.config.chaos {
            if c.fires(c.worker_stall, chaos::SITE_WORKER_STALL, job.conn, job.seq) {
                thread::sleep(Duration::from_millis(c.stall_ms));
            }
            inject_panic = c.fires(c.worker_panic, chaos::SITE_WORKER_PANIC, job.conn, job.seq);
        }
        // every solve runs under a cancellation token: the deadline arms
        // it absolutely (counted from admission), and `Server::drain`
        // can trip it to abandon work at the next checkpoint
        let token = match job.deadline {
            Some((expiry, _)) => CancelToken::with_deadline(expiry),
            None => CancelToken::new(),
        };
        *shared.active[slot].lock().unwrap() = Some(token.clone());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("chaos: injected worker panic");
            }
            let solve = |request: &Request| {
                session
                    .solve_with_cancel(request, &token)
                    .map(|s| s.to_json_line())
                    .unwrap_or_else(|e| e.to_json_line())
            };
            match &mut job.payload {
                Payload::Wire(line, body) => {
                    let body = *std::mem::take(body);
                    let canonical = body.canonical();
                    match wire::build_request(line, body, None) {
                        Ok(request) => {
                            if !canonical {
                                shared.parse_fallbacks.fetch_add(1, Ordering::Relaxed);
                            }
                            solve(&request)
                        }
                        Err(e) => e.to_json_line(),
                    }
                }
                Payload::Parsed(request) => match job.handle_hash {
                    Some(hash) => solve_held(shared, &session, &token, request, hash),
                    None => solve(request),
                },
            }
        }));
        *shared.active[slot].lock().unwrap() = None;
        // seeded `kill -9` simulation: the process "dies" after the
        // solve but before the reply is delivered or the completion is
        // journaled — the exact window recovery must cover. The job's
        // admitted record stays incomplete, so a restart re-runs it.
        if let Some(c) = &shared.config.chaos {
            if c.fires(c.process_kill, chaos::SITE_PROCESS_KILL, job.conn, job.seq) {
                shared.kill();
                shared.inflight.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
        }
        let payload = outcome.unwrap_or_else(|cause| {
            let detail: &str = if let Some(s) = cause.downcast_ref::<&str>() {
                s
            } else if let Some(s) = cause.downcast_ref::<String>() {
                s
            } else {
                "worker panicked while solving"
            };
            wire::internal_panic_payload(detail)
        });
        let kind = if payload.starts_with("{\"event\":\"solution\"") {
            ReplyKind::Solution
        } else {
            ReplyKind::Error
        };
        let frame = wire::reply_frame(kind, &job.id, job.seq, timing(started), false, &payload);
        shared.finish_job(&job, kind, payload);
        shared.deliver(job.conn, job.seq, frame);
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The running service: global queue + persistent worker pool.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool. When the configuration carries a
    /// journal, every job the journal recovered (admitted before a
    /// crash, never completed) is re-enqueued immediately, in original
    /// admission order, on an internal connection — its reply is not
    /// streamed anywhere, but solving it journals the completion and
    /// populates the idempotency cache. `start` returns once every
    /// recovered job has been served (or a kill fired during recovery),
    /// so a reconnecting client's retry is answered `"replayed":true`
    /// from the recovered result.
    pub fn start(config: ServerConfig) -> Self {
        let workers = config.workers.max(1);
        let idempotency = IdempotencyCache::new(config.idempotency_capacity);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            registry: Mutex::new(HashMap::new()),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            idempotency: Mutex::new(idempotency),
            store: Mutex::new(InstanceStore::new(&config)),
            parse_fallbacks: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            full_resolves: AtomicU64::new(0),
            refix_sum_permille: AtomicU64::new(0),
            active: (0..workers).map(|_| Mutex::new(None)).collect(),
            config: ServerConfig { workers, ..config },
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("splitd-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();
        let server = Server {
            shared,
            workers: handles,
        };
        // serve the recovered jobs before any client frame, so a keyed
        // retry finds its recovered reply cached instead of racing a
        // second solve; a kill during recovery ends the wait
        let recovered = server.reenqueue_recovered();
        while server.shared.served.load(Ordering::SeqCst) < recovered && !server.shared.is_killed()
        {
            thread::sleep(DELIVER_POLL);
        }
        server
    }

    /// Drains the journal's recovered jobs into the queue on the
    /// reserved internal connection and returns how many it pushed.
    /// Deadlines are dropped — the admission clock they were counted
    /// from died with the old process — and the blocking push means a
    /// recovered backlog larger than the queue simply feeds the
    /// (already running) workers at their own pace.
    fn reenqueue_recovered(&self) -> u64 {
        let Some(journal) = &self.shared.config.journal else {
            return 0;
        };
        let mut seq = 0u64;
        for rec in journal.take_recovered() {
            let body = match wire::scan(&rec.line) {
                Ok((ClientFrame::Request(_), body)) => body,
                // state records were journaled at admission and never
                // marked completed, so every restart replays them here:
                // inline, in admission order, before any recovered solve
                // is pushed, rebuilding the table the old process held
                scanned => {
                    let (frame, body) =
                        scanned.map_or((None, wire::Body::default()), |(f, b)| (Some(f), b));
                    let key = rec.record.idempotency_key;
                    let origin = Origin::Replay(rec.record.record_id);
                    let mut store = self.shared.store.lock().unwrap();
                    let applied =
                        store.apply(frame.as_ref(), body, &rec.line, key.as_deref(), origin);
                    drop(store);
                    // a keyed mutate's reply goes back in the cache,
                    // byte-identical: mutation is deterministic
                    if let (Ok(payload), Some(key)) = (applied, key) {
                        self.shared.cache_reply(key, ReplyKind::Mutated, payload);
                    }
                    continue;
                }
            };
            let job = Job {
                conn: RECOVERY_CONN,
                seq,
                id: rec.record.id,
                payload: Payload::Wire(rec.line, Box::new(body)),
                enqueued: self.shared.config.record_timings.then(Instant::now),
                deadline: None,
                journal_id: Some(rec.record.record_id),
                idempotency_key: rec.record.idempotency_key,
                handle_hash: None,
            };
            seq += 1;
            if self
                .shared
                .queue
                .push_blocking(rec.record.priority, job)
                .is_err()
            {
                // queue closed (a kill during recovery): leave the
                // record incomplete for the next restart
                return seq;
            }
        }
        // a crash can leave an arbitrarily long replayed history; fold
        // it into a fresh snapshot now rather than carrying it forward
        self.shared.maybe_compact();
        seq
    }

    /// Opens a connection, returning its ingest and reporting halves.
    pub fn connect(&self) -> Connection {
        let conn = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel(self.shared.config.reply_buffer.max(1));
        // the registry entry is the channel's ONLY sender: removing it
        // (eviction, or the receiver's own teardown) disconnects the
        // channel, so a blocked `FrameReceiver::recv` always unparks
        self.shared.registry.lock().unwrap().insert(conn, tx);
        let total = Arc::new(OnceLock::new());
        Connection {
            submitter: Submitter {
                shared: Arc::clone(&self.shared),
                conn,
                next_seq: 0,
                total: Arc::clone(&total),
            },
            receiver: FrameReceiver {
                shared: Arc::clone(&self.shared),
                conn,
                rx,
                buffer: BTreeMap::new(),
                next_emit: 0,
                total,
            },
        }
    }

    /// A point-in-time service snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Closes the queue and waits — bounded by
    /// [`ServerConfig::drain_deadline`] — for every queued and in-flight
    /// job to finish. Past the deadline, in-flight solves are cancelled
    /// at their next cooperative checkpoint (each reports a typed
    /// `deadline-exceeded` reply) and given a short grace period.
    /// Returns `true` when the server fully quiesced.
    pub fn drain(&self) -> bool {
        self.shared.queue.close();
        let quiesced_within = |bound: Duration| {
            let deadline = Instant::now() + bound;
            loop {
                if self.shared.queue.depth() == 0
                    && self.shared.inflight.load(Ordering::Relaxed) == 0
                {
                    return true;
                }
                if Instant::now() >= deadline {
                    return false;
                }
                thread::sleep(DELIVER_POLL);
            }
        };
        if quiesced_within(self.shared.config.drain_deadline) {
            return true;
        }
        // over the drain deadline: abandon in-flight work cooperatively
        for slot in &self.shared.active {
            if let Some(token) = slot.lock().unwrap().as_ref() {
                token.cancel();
            }
        }
        quiesced_within(self.shared.config.write_timeout)
    }

    /// Drains (see [`drain`](Self::drain)) and joins the workers. If the
    /// drain deadline expires with a worker still wedged between
    /// checkpoints, the handles are dropped instead — the daemon's exit
    /// is bounded; it never hangs on a stuck solve.
    pub fn shutdown(self) {
        if self.drain() {
            for handle in self.workers {
                let _ = handle.join();
            }
        }
    }

    /// Whether the server has "died" — the seeded `process_kill` fault
    /// fired, or [`Server::halt`] was called. A killed server admits
    /// nothing, delivers nothing, and journals nothing further; restart
    /// it on the same journal to recover.
    pub fn killed(&self) -> bool {
        self.shared.is_killed()
    }

    /// Kills the server abruptly — the in-process analogue of `kill
    /// -9`, used by the service conformance group and crash tests.
    /// Queued and in-flight work is abandoned without replies or
    /// journal completions (their admitted records stay incomplete, so
    /// a restart on the same journal re-runs them); workers are joined
    /// so the "dead" process holds no running threads.
    pub fn halt(self) {
        self.shared.kill();
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// A client connection: ingest + reporting halves, split with
/// [`Connection::split`] so a transport can run them on separate
/// threads.
pub struct Connection {
    submitter: Submitter,
    receiver: FrameReceiver,
}

impl Connection {
    /// Splits into the ingest and reporting halves.
    pub fn split(self) -> (Submitter, FrameReceiver) {
        (self.submitter, self.receiver)
    }
}

/// Result of submitting one input line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// A request was admitted to the queue; its reply arrives later.
    Queued,
    /// An immediate reply frame was generated (heartbeat, typed parse
    /// error, or admission reject).
    Replied,
    /// The line was blank and ignored (no sequence number consumed).
    Skipped,
    /// A `shutdown` frame: the caller should stop reading input and
    /// call [`Submitter::finish`].
    Shutdown,
}

/// The ingest half of a connection.
pub struct Submitter {
    shared: Arc<Shared>,
    conn: u64,
    next_seq: u64,
    /// The admitted-line count, set by [`Submitter::finish`]; shared
    /// with the connection's [`FrameReceiver`].
    total: Arc<OnceLock<u64>>,
}

impl Submitter {
    fn send_now(&self, seq: u64, line: String) {
        // routed through the bounded delivery path: an ingest thread
        // racing a slow consumer backs off and evicts exactly like a
        // worker would, instead of wedging on its own reply buffer
        self.shared.deliver(self.conn, seq, line);
    }

    /// Answers a frame with a typed error frame under `id`.
    fn reply_error(&self, id: &str, seq: u64, error: &ApiError) -> Submitted {
        let payload = error.to_json_line();
        let frame = wire::reply_frame(ReplyKind::Error, id, seq, None, false, &payload);
        self.send_now(seq, frame);
        Submitted::Replied
    }

    fn reject(&self, id: &str, seq: u64, depth: usize) -> Submitted {
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        let error = ApiError::Overloaded {
            queue_depth: depth,
            capacity: self.shared.queue.capacity(),
            retry_after_ms: self.shared.config.retry_after_ms,
        };
        self.reply_error(id, seq, &error)
    }

    /// Idempotent retry: a key whose reply was already delivered is
    /// answered from the cache, as the frame type it was first delivered
    /// in (a request reusing a key last answered by a mutate replays the
    /// `mutated` frame: the key names the delivered reply, not the frame
    /// type of the retry) — no admission, no journal append, no second
    /// solve. Returns `false` when there is nothing to replay.
    fn replay(&self, idempotency_key: Option<&str>, id: &str, seq: u64) -> bool {
        let Some(hit) =
            idempotency_key.and_then(|key| self.shared.idempotency.lock().unwrap().get(key))
        else {
            return false;
        };
        self.shared.replayed.fetch_add(1, Ordering::Relaxed);
        let frame = wire::reply_frame(hit.kind, id, seq, None, true, &hit.payload);
        self.send_now(seq, frame);
        true
    }

    fn enqueue(&self, envelope: Envelope, seq: u64, payload: Payload) -> Submitted {
        if self.shared.is_killed() {
            // a dead process answers nothing
            return Submitted::Skipped;
        }
        if self.replay(envelope.idempotency_key.as_deref(), &envelope.id, seq) {
            return Submitted::Replied;
        }
        // write-ahead: the admission is journaled before the job can
        // reach a worker. An append failure degrades durability (this
        // job would not survive a crash), never availability. Parsed
        // requests are fingerprinted structurally so the (much more
        // expensive) canonical rendering happens only for payloads the
        // journal has not interned yet; the envelope embedded in that
        // rendering is a placeholder because recovery takes id,
        // priority, and key from the admitted record, never the line.
        let (id, priority, deadline_ms) = (&envelope.id, envelope.priority, envelope.deadline_ms);
        let key = envelope.idempotency_key.as_deref();
        let handle_hash = envelope.handle.as_deref().and_then(wire::parse_handle);
        let journal_id = self.shared.config.journal.as_ref().and_then(|journal| {
            match &payload {
                Payload::Wire(line, _) => {
                    journal.append_admitted(id, priority, deadline_ms, key, line)
                }
                Payload::Parsed(request) => {
                    // a handle is its instance's fingerprint, so a
                    // handle-form solve never rehashes the instance
                    let hash = match handle_hash {
                        Some(instance) => wire::request_fingerprint_from(instance, request),
                        None => wire::request_fingerprint(request),
                    };
                    let render = || wire::render_request("interned", Priority::Normal, request);
                    journal.append_admitted_interned(id, priority, deadline_ms, key, hash, render)
                }
            }
            .ok()
        });
        let job = Job {
            conn: self.conn,
            seq,
            id: envelope.id,
            payload,
            enqueued: self.shared.config.record_timings.then(Instant::now),
            deadline: envelope
                .deadline_ms
                .map(|ms| (Instant::now() + Duration::from_millis(ms), ms)),
            journal_id,
            idempotency_key: envelope.idempotency_key,
            handle_hash,
        };
        let refused = match self.shared.config.admission {
            Admission::Reject => match self.shared.queue.try_push(envelope.priority, job) {
                Ok(()) => None,
                Err(PushError::Full { job, depth }) => Some((job, depth)),
                Err(PushError::Closed(job)) => Some((job, self.shared.queue.depth())),
            },
            Admission::Block => match self.shared.queue.push_blocking(envelope.priority, job) {
                Ok(()) => None,
                // queue closed mid-shutdown: report as a reject
                Err(job) => Some((job, self.shared.queue.depth())),
            },
        };
        let Some((job, depth)) = refused else {
            return Submitted::Queued;
        };
        if self.shared.is_killed() {
            // the queue refused because the process "died" mid-push:
            // stay silent and leave the journal record incomplete, so
            // the restart recovers exactly this job
            return Submitted::Skipped;
        }
        // a definitive reject reaches the client, so the journal must
        // not re-run the job after a crash: mark it completed
        if let (Some(journal), Some(record_id)) = (&self.shared.config.journal, job.journal_id) {
            let _ = journal.mark_completed(record_id);
        }
        self.reject(&job.id, seq, depth)
    }

    /// Submits one raw input line, driving the full ingest path:
    /// frame scan, admission control, immediate replies for pings and
    /// malformed frames. Blank lines are skipped; every other line
    /// consumes exactly one sequence number.
    pub fn submit_line(&mut self, line: &str) -> Submitted {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.trim().is_empty() {
            return Submitted::Skipped;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if trimmed.len() > self.shared.config.max_frame_bytes {
            let error = ApiError::InvalidRequest {
                field: "frame",
                reason: format!(
                    "frame of {} bytes exceeds the {}-byte limit",
                    trimmed.len(),
                    self.shared.config.max_frame_bytes
                ),
            };
            return self.reply_error("", seq, &error);
        }
        match wire::scan(trimmed) {
            Ok((ClientFrame::Request(envelope), body)) => {
                if envelope.handle.is_some() {
                    self.enqueue_handle(envelope, seq, trimmed, body)
                } else if let Err(e) =
                    body.bound_declared_size(trimmed, self.shared.config.max_frame_bytes)
                {
                    // before admission: an oversized declaration is never
                    // journaled, so recovery cannot re-run it
                    self.reply_error(&envelope.id, seq, &e)
                } else {
                    self.enqueue(
                        envelope,
                        seq,
                        Payload::Wire(trimmed.to_owned(), Box::new(body)),
                    )
                }
            }
            Ok((
                frame @ (ClientFrame::Upload { .. }
                | ClientFrame::Release { .. }
                | ClientFrame::Mutate { .. }),
                body,
            )) => self.apply_state(seq, trimmed, frame, body),
            Ok((ClientFrame::Ping { id }, _)) => {
                let frame = wire::heartbeat_frame(&id, seq, self.shared.stats());
                self.send_now(seq, frame);
                Submitted::Replied
            }
            Ok((ClientFrame::Shutdown, _)) => {
                // the shutdown frame itself gets no reply; hand its
                // sequence number back
                self.next_seq = seq;
                Submitted::Shutdown
            }
            Err(e) => self.reply_error("", seq, &e),
        }
    }

    /// Submits one raw input line that may not be valid UTF-8. Invalid
    /// bytes become a typed `invalid-request` error frame — a client
    /// sending binary garbage gets an answer, not a dropped connection.
    pub fn submit_bytes(&mut self, bytes: &[u8]) -> Submitted {
        match std::str::from_utf8(bytes) {
            Ok(line) => self.submit_line(line),
            Err(e) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let error = ApiError::InvalidRequest {
                    field: "frame",
                    reason: format!("frame is not valid UTF-8: {e}"),
                };
                self.reply_error("", seq, &error)
            }
        }
    }

    /// Submits an already-typed request, bypassing the wire codec — the
    /// in-process fast path. Admission control, journaling, and
    /// priority scheduling apply exactly as for wire requests. This
    /// path never attaches an idempotency key; use
    /// [`wire::render_request_with`] + [`Submitter::submit_line`] for
    /// keyed submissions.
    pub fn submit_request(&mut self, id: &str, priority: Priority, request: Request) -> Submitted {
        let seq = self.next_seq;
        self.next_seq += 1;
        let deadline_ms = request.budget().deadline_ms;
        self.enqueue(
            Envelope {
                id: id.to_owned(),
                priority,
                deadline_ms,
                idempotency_key: None,
                handle: None,
            },
            seq,
            Payload::Parsed(Box::new(request)),
        )
    }

    /// Handles a state frame (upload, release, mutate) inline on the
    /// ingest thread, like pings, so a request submitted after it can
    /// never race it; the store applies and journals it. A mutate moves
    /// its instance to a new handle, so a client whose `mutated` reply
    /// was lost cannot blindly retry: a keyed mutate caches its reply
    /// (across crashes too) and a retry replays it byte for byte.
    fn apply_state(&self, seq: u64, line: &str, frame: ClientFrame, body: wire::Body) -> Submitted {
        if self.shared.is_killed() {
            return Submitted::Skipped;
        }
        let (id, key, kind) = match &frame {
            ClientFrame::Upload { id } => (id, None, ReplyKind::Uploaded),
            ClientFrame::Release { id, .. } => (id, None, ReplyKind::Released),
            ClientFrame::Mutate {
                id,
                idempotency_key: key,
                ..
            } => (id, key.as_deref(), ReplyKind::Mutated),
            _ => unreachable!("only state frames reach here"),
        };
        if self.replay(key, id, seq) {
            return Submitted::Replied;
        }
        if let Err(e) = body.bound_declared_size(line, self.shared.config.max_frame_bytes) {
            return self.reply_error(id, seq, &e);
        }
        let canonical = body.canonical();
        let origin = Origin::Live { id, line };
        let applied =
            self.shared
                .store
                .lock()
                .unwrap()
                .apply(Some(&frame), body, line, key, origin);
        let payload = match applied {
            Ok(payload) => payload,
            Err(e) => return self.reply_error(id, seq, &e),
        };
        if !canonical {
            self.shared.parse_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(key) = key {
            self.shared
                .cache_reply(key.to_owned(), ReplyKind::Mutated, payload.clone());
        }
        self.shared.maybe_compact();
        self.send_now(seq, wire::reply_frame(kind, id, seq, None, false, &payload));
        Submitted::Replied
    }

    /// Admits a handle-form request: the handle is resolved against the
    /// interned table *at ingest* and the job is queued already-typed
    /// (sharing the interned `Arc<Instance>`), so workers pay no codec
    /// or graph-build cost and multi-worker scheduling cannot reorder a
    /// solve ahead of the upload it references.
    fn enqueue_handle(
        &self,
        envelope: Envelope,
        seq: u64,
        line: &str,
        body: wire::Body,
    ) -> Submitted {
        let handle = envelope.handle.as_deref().unwrap_or_default();
        let instance = self.shared.store.lock().unwrap().resolve(handle);
        match instance.and_then(|instance| wire::build_request(line, body, Some(instance))) {
            Ok(request) => self.enqueue(envelope, seq, Payload::Parsed(Box::new(request))),
            Err(e) => self.reply_error(&envelope.id, seq, &e),
        }
    }

    /// Signals end of input: the reporting half will finish after
    /// delivering every outstanding reply. Consumes the submitter.
    /// Never blocks: the total goes into a cell the receiver reads
    /// before it parks, and the wake-up is dropped when the reply
    /// buffer is full (a full buffer wakes the receiver anyway).
    pub fn finish(self) {
        let _ = self.total.set(self.next_seq);
        let sender = self
            .shared
            .registry
            .lock()
            .unwrap()
            .get(&self.conn)
            .cloned();
        if let Some(sender) = sender {
            let _ = sender.try_send(Report::Finished);
        }
    }
}

/// The reporting half of a connection: yields reply frames **strictly in
/// submission order**, reordering worker completions as needed.
pub struct FrameReceiver {
    shared: Arc<Shared>,
    conn: u64,
    rx: Receiver<Report>,
    buffer: BTreeMap<u64, String>,
    next_emit: u64,
    total: Arc<OnceLock<u64>>,
}

/// Outcome of one non-blocking [`FrameReceiver::try_recv`] poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Polled {
    /// The next in-order reply frame.
    Frame(String),
    /// No frame is ready yet; poll again later.
    Pending,
    /// The stream is complete: the submitter finished and every admitted
    /// line's reply has been delivered (or every sender is gone).
    Finished,
}

impl FrameReceiver {
    /// Returns the next in-order reply frame, blocking until it is
    /// available. Returns `None` once the submitter has called
    /// [`Submitter::finish`] **and** every admitted line's reply has
    /// been delivered.
    pub fn recv(&mut self) -> Option<String> {
        match self.poll(true) {
            Polled::Frame(frame) => Some(frame),
            Polled::Pending | Polled::Finished => None,
        }
    }

    /// Non-blocking variant of [`recv`](Self::recv), for clients that
    /// multiplex the reply stream into their own event loop. Drains
    /// everything already reported, then returns [`Polled::Pending`]
    /// instead of parking. A polling client never blocks on the
    /// reporting channel, so workers deliver frames without paying a
    /// thread wakeup per reply — under saturation this is the cheap way
    /// to consume the stream.
    pub fn try_recv(&mut self) -> Polled {
        self.poll(false)
    }

    fn poll(&mut self, block: bool) -> Polled {
        loop {
            if let Some(frame) = self.buffer.remove(&self.next_emit) {
                self.next_emit += 1;
                return Polled::Frame(frame);
            }
            if self.total.get() == Some(&self.next_emit) {
                return Polled::Finished;
            }
            let report = if block {
                self.rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
            } else {
                self.rx.try_recv()
            };
            match report {
                Ok(Report::Frame { seq, line }) => {
                    self.buffer.insert(seq, line);
                }
                Ok(Report::Finished) => {}
                Err(mpsc::TryRecvError::Empty) => return Polled::Pending,
                // every sender gone without a Finished marker: give up
                // rather than hang
                Err(mpsc::TryRecvError::Disconnected) => return Polled::Finished,
            }
        }
    }
}

impl Iterator for FrameReceiver {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.recv()
    }
}

impl Drop for FrameReceiver {
    fn drop(&mut self) {
        self.shared.registry.lock().unwrap().remove(&self.conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::split_reply;
    use splitgraph::generators;
    use splitting_api::{Instance, Problem};

    fn quiet_config() -> ServerConfig {
        ServerConfig {
            record_timings: false,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn requests_round_trip_through_the_pool() {
        let server = Server::start(quiet_config());
        let (mut tx, rx) = server.connect().split();
        let g = generators::cycle(8).unwrap();
        for i in 0..4 {
            let req = Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            )
            .seed(i);
            assert_eq!(
                tx.submit_request(&format!("r{i}"), Priority::Normal, req),
                Submitted::Queued
            );
        }
        tx.finish();
        let frames: Vec<String> = rx.collect();
        assert_eq!(frames.len(), 4);
        for (i, frame) in frames.iter().enumerate() {
            let reply = split_reply(frame).expect(frame);
            assert_eq!(reply.id, format!("r{i}"), "ordered by submission");
            assert_eq!(reply.seq, i as u64);
            assert_eq!(reply.frame_type, "solution");
            // parity with the direct session
            let direct = Session::new()
                .solve(
                    &Request::new(
                        Problem::Mis {
                            base_degree: Some(8),
                        },
                        g.clone(),
                    )
                    .seed(i as u64),
                )
                .unwrap()
                .to_json_line();
            assert_eq!(reply.payload, Some(direct.as_str()), "byte parity");
        }
        server.shutdown();
    }

    #[test]
    fn wire_lines_and_pings_interleave_in_order() {
        let server = Server::start(quiet_config());
        let (mut tx, rx) = server.connect().split();
        let line = r#"{"v":1,"type":"request","id":"w1","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}"#;
        assert_eq!(tx.submit_line(line), Submitted::Queued);
        assert_eq!(tx.submit_line("\n"), Submitted::Skipped);
        assert_eq!(
            tx.submit_line(r#"{"v":1,"type":"ping","id":"p"}"#),
            Submitted::Replied
        );
        assert_eq!(tx.submit_line("garbage"), Submitted::Replied);
        assert_eq!(
            tx.submit_line(r#"{"v":1,"type":"shutdown"}"#),
            Submitted::Shutdown
        );
        tx.finish();
        let frames: Vec<String> = rx.collect();
        assert_eq!(frames.len(), 3);
        let kinds: Vec<_> = frames
            .iter()
            .map(|f| split_reply(f).unwrap().frame_type)
            .collect();
        assert_eq!(kinds, ["solution", "heartbeat", "error"]);
        server.shutdown();
    }

    #[test]
    fn overload_rejects_with_typed_error() {
        // a server whose queue can hold one job and whose single worker
        // is blocked by an expensive request will reject the overflow
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            record_timings: false,
            ..ServerConfig::default()
        });
        let (mut tx, mut rx) = server.connect().split();
        // each solve costs far more than a submission, so with the queue
        // bound at 1 the burst below must overflow admission
        let g = generators::cycle(4096).unwrap();
        let mut queued = 0;
        let mut rejected = 0;
        for i in 0..32 {
            let req = Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            )
            .seed(i);
            tx.submit_request(&format!("r{i}"), Priority::Normal, req);
        }
        tx.finish();
        while let Some(frame) = rx.recv() {
            let reply = split_reply(&frame).unwrap();
            match reply.frame_type.as_str() {
                "solution" => queued += 1,
                "error" => {
                    assert!(
                        reply.payload.unwrap().contains("\"kind\":\"overloaded\""),
                        "{frame}"
                    );
                    rejected += 1;
                }
                other => panic!("unexpected frame type {other}"),
            }
        }
        assert_eq!(queued + rejected, 32);
        assert!(queued >= 1, "the first job must be admitted");
        assert!(
            rejected >= 1,
            "a 32-burst into a 1-slot queue must overflow"
        );
        let stats = server.stats();
        assert_eq!(stats.rejected, rejected);
        server.shutdown();
    }

    #[test]
    fn replies_stay_in_submission_order_across_priorities() {
        // priority reorders *solving* (pinned at the queue level); the
        // reporting stream must still come back in submission order
        let server = Server::start(quiet_config());
        let (mut tx, rx) = server.connect().split();
        let g = generators::cycle(8).unwrap();
        for i in 0..3 {
            tx.submit_request(
                &format!("low{i}"),
                Priority::Low,
                Request::new(
                    Problem::Mis {
                        base_degree: Some(8),
                    },
                    g.clone(),
                )
                .seed(i),
            );
        }
        tx.submit_request(
            "high",
            Priority::High,
            Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            )
            .seed(99),
        );
        tx.finish();
        let ids: Vec<_> = rx.map(|f| split_reply(&f).unwrap().id).collect();
        assert_eq!(ids, ["low0", "low1", "low2", "high"]);
        server.shutdown();
    }

    #[test]
    fn worker_panic_becomes_internal_panic_frame() {
        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        // a multigraph instance whose endpoints are valid cannot panic;
        // force one via the parsed path with an instance the pipeline
        // chokes on is not possible either (typed errors) — so drive the
        // panic payload renderer directly and assert the frame shape,
        // then pin that a healthy server survives a poisoned job slot.
        let payload = wire::internal_panic_payload("boom");
        assert_eq!(
            payload,
            r#"{"event":"error","kind":"internal-panic","detail":"boom"}"#
        );
        tx.submit_request(
            "ok",
            Priority::Normal,
            Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                generators::cycle(6).unwrap(),
            ),
        );
        tx.finish();
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        server.shutdown();
    }

    #[test]
    fn expired_deadline_yields_typed_frame_and_the_worker_stays_usable() {
        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        let g = generators::cycle(8).unwrap();
        // a zero-millisecond budget is expired by the time any worker
        // picks the job up, so enforcement happens in-queue
        let doomed = Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            g.clone(),
        )
        .deadline_ms(0);
        tx.submit_request("doomed", Priority::Normal, doomed);
        tx.submit_request(
            "alive",
            Priority::Normal,
            Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            ),
        );
        tx.finish();
        let first = rx.recv().unwrap();
        let reply = split_reply(&first).unwrap();
        assert_eq!(reply.id, "doomed");
        assert_eq!(reply.frame_type, "error");
        let payload = reply.payload.unwrap();
        assert!(
            payload.contains("\"kind\":\"deadline-exceeded\""),
            "{first}"
        );
        assert!(payload.contains("queued"), "expired in-queue: {first}");
        // the same (sole) worker then solves the next job normally
        let second = rx.recv().unwrap();
        let reply = split_reply(&second).unwrap();
        assert_eq!(reply.id, "alive");
        assert_eq!(reply.frame_type, "solution");
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn deadline_on_the_wire_path_is_enforced_too() {
        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        let line = r#"{"v":1,"type":"request","id":"w","problem":{"name":"mis","base_degree":8},"deadline_ms":0,"instance":{"kind":"host","nodes":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}"#;
        assert_eq!(tx.submit_line(line), Submitted::Queued);
        tx.finish();
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).unwrap();
        assert_eq!(reply.frame_type, "error");
        assert!(
            reply
                .payload
                .unwrap()
                .contains("\"kind\":\"deadline-exceeded\""),
            "{frame}"
        );
        server.shutdown();
    }

    #[test]
    fn overload_rejections_carry_a_retry_hint() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            record_timings: false,
            retry_after_ms: 40,
            ..ServerConfig::default()
        });
        let (mut tx, mut rx) = server.connect().split();
        let g = generators::cycle(4096).unwrap();
        for i in 0..32 {
            let req = Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            )
            .seed(i);
            tx.submit_request(&format!("r{i}"), Priority::Normal, req);
        }
        tx.finish();
        let mut saw_hint = false;
        while let Some(frame) = rx.recv() {
            let reply = split_reply(&frame).unwrap();
            if reply.frame_type == "error" {
                assert!(
                    reply.payload.unwrap().contains("\"retry_after_ms\":40"),
                    "{frame}"
                );
                saw_hint = true;
            }
        }
        assert!(saw_hint, "a 32-burst into a 1-slot queue must overflow");
        server.shutdown();
    }

    #[test]
    fn slow_reply_consumers_are_evicted_and_the_server_survives() {
        // reply buffer of 1 and a near-zero write timeout: the second
        // completed reply cannot be buffered, so the connection must be
        // evicted — and the server must keep serving fresh connections
        let server = Server::start(ServerConfig {
            workers: 1,
            record_timings: false,
            reply_buffer: 1,
            write_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        let (mut tx, rx) = server.connect().split();
        let g = generators::cycle(8).unwrap();
        for i in 0..4 {
            let req = Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            )
            .seed(i);
            tx.submit_request(&format!("r{i}"), Priority::Normal, req);
        }
        // never read `rx` until the workers have long since moved on
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().evicted == 0 {
            assert!(Instant::now() < deadline, "eviction never happened");
            thread::sleep(Duration::from_millis(5));
        }
        tx.finish();
        // the evicted connection yields whatever was buffered before the
        // teardown, then terminates instead of hanging
        let leftovers: Vec<String> = rx.collect();
        assert!(leftovers.len() < 4, "eviction must drop some replies");
        // a fresh connection is fully served
        let (mut tx, mut rx) = server.connect().split();
        tx.submit_request(
            "fresh",
            Priority::Normal,
            Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            ),
        );
        tx.finish();
        let frame = rx.recv().unwrap();
        assert!(frame.contains("\"type\":\"solution\""), "{frame}");
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn finish_never_blocks_on_a_full_reply_buffer() {
        // more replies than the buffer holds, and `finish` called before
        // the first read: the end-of-input marker must not wait for
        // buffer space, or the client's own thread would stall until the
        // write timeout evicts it and every reply is lost
        let server = Server::start(ServerConfig {
            workers: 1,
            record_timings: false,
            reply_buffer: 2,
            write_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        });
        let (mut tx, rx) = server.connect().split();
        let g = generators::cycle(8).unwrap();
        for i in 0..6 {
            let req = Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            )
            .seed(i);
            tx.submit_request(&format!("r{i}"), Priority::Normal, req);
        }
        // two delivered replies fill the buffer; the worker now waits
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().served < 2 {
            assert!(Instant::now() < deadline, "the buffer never filled");
            thread::sleep(Duration::from_millis(1));
        }
        tx.finish();
        let frames: Vec<String> = rx.collect();
        assert_eq!(frames.len(), 6, "every reply arrives");
        assert_eq!(server.stats().evicted, 0);
        server.shutdown();
    }

    #[test]
    fn chaos_worker_panics_become_internal_panic_frames() {
        // every job panics: the pool must survive and answer each
        // admitted request with the reserved internal-panic payload
        let server = Server::start(ServerConfig {
            record_timings: false,
            chaos: Some(ChaosConfig {
                seed: 7,
                worker_panic: 1.0,
                ..ChaosConfig::default()
            }),
            ..ServerConfig::default()
        });
        let (mut tx, rx) = server.connect().split();
        let g = generators::cycle(8).unwrap();
        for i in 0..3 {
            let req = Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                g.clone(),
            )
            .seed(i);
            tx.submit_request(&format!("r{i}"), Priority::Normal, req);
        }
        tx.finish();
        let frames: Vec<String> = rx.collect();
        assert_eq!(frames.len(), 3, "one reply per admitted request");
        for frame in &frames {
            let reply = split_reply(frame).unwrap();
            assert_eq!(reply.frame_type, "error");
            assert!(
                reply
                    .payload
                    .unwrap()
                    .contains("\"kind\":\"internal-panic\""),
                "{frame}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn drain_reports_quiescence_and_shutdown_is_bounded() {
        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        tx.submit_request(
            "only",
            Priority::Normal,
            Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                generators::cycle(8).unwrap(),
            ),
        );
        tx.finish();
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        assert!(server.drain(), "an idle server drains immediately");
        server.shutdown();
    }

    fn temp_journal_path(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "splitd-server-test-{}-{tag}-{}.journal",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn an_oversized_declaration_is_answered_at_ingest_and_never_journaled() {
        use crate::journal::{FsyncPolicy, Journal};

        let path = temp_journal_path("oversized");
        let _ = std::fs::remove_file(&path);
        let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
        let server = Server::start(ServerConfig {
            journal: Some(Arc::clone(&journal)),
            max_frame_bytes: 4096,
            ..quiet_config()
        });
        let (mut tx, mut rx) = server.connect().split();
        // one node past the bound, so nothing large is built even if the
        // bound failed
        let instance = r#""instance":{"kind":"bipartite","left":4096,"right":1,"edges":[]}"#;
        for line in [
            format!(
                r#"{{"v":1,"type":"request","id":"r","problem":{{"name":"weak-splitting"}},{instance}}}"#
            ),
            format!(r#"{{"v":1,"type":"upload","id":"u",{instance}}}"#),
        ] {
            assert_eq!(tx.submit_line(&line), Submitted::Replied, "{line}");
            let reply = rx.recv().unwrap();
            assert!(
                reply.contains("\"kind\":\"invalid-request\"")
                    && reply.contains("left + right = 4097"),
                "{reply}"
            );
        }
        assert_eq!(
            tx.submit_line(r#"{"v":1,"type":"ping","id":"p"}"#),
            Submitted::Replied
        );
        assert!(rx.recv().unwrap().contains("\"type\":\"heartbeat\""));
        assert_eq!(journal.stats().appended, 0, "nothing was admitted");
        // at the bound the same request is admitted
        let line = r#"{"v":1,"type":"request","id":"ok","problem":{"name":"mis"},"instance":{"kind":"host","nodes":4096,"edges":[]}}"#;
        assert_eq!(tx.submit_line(line), Submitted::Queued);
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        assert_eq!(journal.stats().appended, 1);
        server.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn heartbeat_reports_journal_and_replay_counters() {
        use crate::journal::{FsyncPolicy, Journal};

        let path = temp_journal_path("heartbeat");
        let _ = std::fs::remove_file(&path);
        let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
        let server = Server::start(ServerConfig {
            journal: Some(Arc::clone(&journal)),
            ..quiet_config()
        });
        let (mut tx, mut rx) = server.connect().split();
        let line = wire::render_request_with(
            "h1",
            Priority::Normal,
            Some("hb-key"),
            wire::InstanceRef::Inline,
            &Request::new(
                Problem::Mis {
                    base_degree: Some(8),
                },
                generators::cycle(6).unwrap(),
            ),
        );
        assert_eq!(tx.submit_line(&line), Submitted::Queued);
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        assert_eq!(tx.submit_line(&line), Submitted::Replied, "cache hit");
        assert!(rx.recv().unwrap().contains("\"replayed\":true"));

        // the heartbeat frame carries the durability counters verbatim
        assert_eq!(
            tx.submit_line(r#"{"v":1,"type":"ping","id":"hb"}"#),
            Submitted::Replied
        );
        let beat = rx.recv().unwrap();
        for needle in [
            "\"replayed\":1",
            "\"journal_appended\":1",
            "\"journal_recovered\":0",
        ] {
            assert!(beat.contains(needle), "heartbeat lacks {needle}: {beat}");
        }
        let bytes_field = format!("\"journal_bytes\":{}", journal.stats().bytes);
        assert!(
            journal.stats().bytes > 0,
            "a journaled request leaves bytes on disk"
        );
        assert!(
            beat.contains(&bytes_field),
            "heartbeat lacks {bytes_field}: {beat}"
        );

        let stats = server.stats();
        assert_eq!(
            (
                stats.replayed,
                stats.journal_appended,
                stats.journal_recovered,
                stats.journal_bytes
            ),
            (1, 1, 0, journal.stats().bytes),
            "StatsSnapshot matches the journal's own counters"
        );
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn process_kill_recovery_replays_admitted_work_byte_identically() {
        use crate::journal::{FsyncPolicy, Journal};

        let path = temp_journal_path("kill-recover");
        let _ = std::fs::remove_file(&path);
        let request = Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            generators::cycle(8).unwrap(),
        )
        .seed(3);
        let line = wire::render_request_with(
            "job-1",
            Priority::Normal,
            Some("retry-key"),
            wire::InstanceRef::Inline,
            &request,
        );
        let direct = Session::new().solve(&request).unwrap().to_json_line();

        // pass 1: the kill site always fires, so the very first job is
        // admitted (journaled) and solved but never delivered or marked
        // complete — exactly a kill -9 between solve and reply
        let journal = Arc::new(Journal::open(&path, FsyncPolicy::Always).unwrap());
        let server = Server::start(ServerConfig {
            journal: Some(Arc::clone(&journal)),
            chaos: Some(ChaosConfig {
                seed: 1,
                process_kill: 1.0,
                ..ChaosConfig::default()
            }),
            ..quiet_config()
        });
        let (mut tx, mut rx) = server.connect().split();
        assert_eq!(tx.submit_line(&line), Submitted::Queued);
        tx.finish();
        assert!(
            rx.recv().is_none(),
            "the killed job's reply is never delivered"
        );
        assert!(server.killed(), "the kill site fired");
        server.halt();
        drop(journal);

        // pass 2: restart recovers the admitted job and re-solves it
        let journal = Arc::new(Journal::open(&path, FsyncPolicy::Always).unwrap());
        assert_eq!(journal.stats().recovered, 1, "the lost job is recovered");
        let server = Server::start(ServerConfig {
            journal: Some(Arc::clone(&journal)),
            ..quiet_config()
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while journal.stats().completed < 1 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(journal.stats().completed, 1, "the recovered job completes");
        let appended_before_retry = journal.stats().appended;

        // the reconnect retry answers from the idempotency cache: byte
        // payload identical to a clean run, flagged replayed, and no
        // fresh journal admission
        let (mut tx, mut rx) = server.connect().split();
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert!(reply.replayed, "the retry is flagged as a replay");
        assert_eq!(reply.id, "job-1");
        assert_eq!(
            reply.payload,
            Some(direct.as_str()),
            "byte parity across the crash"
        );
        tx.finish();
        assert!(rx.recv().is_none());
        assert_eq!(
            journal.stats().appended,
            appended_before_retry,
            "a replayed retry is never re-journaled"
        );
        let stats = server.stats();
        assert_eq!((stats.replayed, stats.journal_recovered), (1, 1));
        server.shutdown();
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_retry_after_restart_replays_a_recovered_job() {
        use crate::journal::{FsyncPolicy, Journal};

        let path = temp_journal_path("recover-then-retry");
        let _ = std::fs::remove_file(&path);
        let g = generators::cycle(8).unwrap();
        let lines: Vec<String> = (0..3)
            .map(|i| {
                let request = Request::new(
                    Problem::Mis {
                        base_degree: Some(8),
                    },
                    g.clone(),
                )
                .seed(i);
                let key = format!("key-{i}");
                wire::render_request_with(
                    &format!("job-{i}"),
                    Priority::Normal,
                    Some(&key),
                    wire::InstanceRef::Inline,
                    &request,
                )
            })
            .collect();
        // every job stalls, so all but the first are still queued when
        // the process dies
        let stalled = |stall_ms| {
            Some(ChaosConfig {
                seed: 1,
                worker_stall: 1.0,
                stall_ms,
                ..ChaosConfig::default()
            })
        };
        let journal = Arc::new(Journal::open(&path, FsyncPolicy::Always).unwrap());
        let server = Server::start(ServerConfig {
            workers: 1,
            journal: Some(Arc::clone(&journal)),
            chaos: stalled(200),
            ..quiet_config()
        });
        let (mut tx, _rx) = server.connect().split();
        for line in &lines {
            assert_eq!(tx.submit_line(line), Submitted::Queued);
        }
        server.halt();
        drop(journal);

        // the restart re-runs the queued jobs (each stalling again); a
        // retry sent the moment `start` returns must find its reply
        let journal = Arc::new(Journal::open(&path, FsyncPolicy::Always).unwrap());
        assert!(journal.stats().recovered >= 2, "queued jobs are recovered");
        let server = Server::start(ServerConfig {
            workers: 1,
            journal: Some(Arc::clone(&journal)),
            chaos: stalled(50),
            ..quiet_config()
        });
        let appended = server.stats().journal_appended;
        let (mut tx, mut rx) = server.connect().split();
        assert_eq!(tx.submit_line(&lines[2]), Submitted::Replied);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert!(
            reply.replayed,
            "the retry is answered from the recovered run"
        );
        assert_eq!(reply.id, "job-2");
        tx.finish();
        assert!(rx.recv().is_none());
        assert_eq!(
            server.stats().journal_appended,
            appended,
            "no second admission"
        );
        server.shutdown();
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn handle_lifecycle_upload_solve_release() {
        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        let g = generators::cycle(8).unwrap();
        let request = Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            g.clone(),
        )
        .seed(5);
        let handle = wire::render_handle(wire::instance_fingerprint(request.instance()));
        let direct = Session::new().solve(&request).unwrap().to_json_line();

        // upload answers immediately with the content-derived handle
        let upload = wire::render_upload("u1", request.instance());
        assert_eq!(tx.submit_line(&upload), Submitted::Replied);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert_eq!(reply.frame_type, "uploaded");
        assert_eq!(reply.id, "u1");
        assert!(
            reply.payload.unwrap().contains(&handle),
            "uploaded frame names the handle: {frame}"
        );
        assert!(frame.contains("\"held\":1"), "{frame}");

        // re-uploading the same content is idempotent: same handle, no
        // second table entry
        assert_eq!(tx.submit_line(&upload), Submitted::Replied);
        let again = rx.recv().unwrap();
        assert!(again.contains(&handle), "{again}");
        assert!(again.contains("\"held\":1"), "{again}");
        assert_eq!(server.stats().handles_held, 1);

        // a handle-form solve is byte-identical to the inline form
        let by_handle = wire::render_request_with(
            "h1",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&handle),
            &request,
        );
        assert_eq!(tx.submit_line(&by_handle), Submitted::Queued);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert_eq!(reply.frame_type, "solution");
        assert_eq!(reply.payload, Some(direct.as_str()), "byte parity");

        // release frees the entry and reports the new count
        let release = wire::render_release("d1", &handle);
        assert_eq!(tx.submit_line(&release), Submitted::Replied);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert_eq!(reply.frame_type, "released");
        assert!(frame.contains("\"held\":0"), "{frame}");
        assert_eq!(server.stats().handles_held, 0);

        // double release and post-release solves are typed errors
        assert_eq!(tx.submit_line(&release), Submitted::Replied);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("unknown instance handle"), "{frame}");
        assert_eq!(tx.submit_line(&by_handle), Submitted::Replied);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("upload it first"), "{frame}");

        // re-upload works and yields the same handle
        assert_eq!(tx.submit_line(&upload), Submitted::Replied);
        assert!(rx.recv().unwrap().contains(&handle));

        // the canonical renderings above never fall off the fast path,
        // and the heartbeat carries both new counters
        assert_eq!(
            tx.submit_line(r#"{"v":1,"type":"ping","id":"hb"}"#),
            Submitted::Replied
        );
        let beat = rx.recv().unwrap();
        for needle in ["\"parse_fallbacks\":0", "\"handles_held\":1"] {
            assert!(beat.contains(needle), "heartbeat lacks {needle}: {beat}");
        }
        assert_eq!(server.stats().parse_fallbacks, 0);
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn mutate_repairs_held_solution_and_counts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        // δ = r = 32 over n = 4000: regime margin so deletes cannot exit
        // the dispatch, large enough that 8 rewires stay under the refix
        // threshold (same shape as the api hold tests)
        let mut rng = StdRng::seed_from_u64(41);
        let b = generators::random_biregular(2000, 2000, 32, &mut rng).unwrap();
        let request = Request::new(Problem::weak_splitting(), b.clone())
            .deterministic()
            .seed(7);
        let handle = wire::render_handle(wire::instance_fingerprint(request.instance()));

        // upload, then a first handle-form solve: the worker adopts the
        // solution into the held cache before its reply is delivered
        let upload = wire::render_upload("u1", request.instance());
        assert_eq!(tx.submit_line(&upload), Submitted::Replied);
        rx.recv().unwrap();
        let solve1 = wire::render_request_with(
            "s1",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&handle),
            &request,
        );
        assert_eq!(tx.submit_line(&solve1), Submitted::Queued);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("\"type\":\"solution\""), "{frame}");

        // a small rewire through the wire protocol moves the handle
        let delta = random_delta(&b, ChurnStyle::Rewire, 8, &mut rng);
        let mutate = wire::render_mutate("m1", &handle, None, delta.inserts(), delta.deletes());
        assert_eq!(tx.submit_line(&mutate), Submitted::Replied);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert_eq!(reply.frame_type, "mutated");
        assert_eq!(reply.id, "m1");
        let new_handle = new_handle_of(reply.payload.unwrap());
        assert_ne!(new_handle, handle, "content hash must move");
        assert_eq!(server.stats().handles_held, 1, "moved, not duplicated");

        // the pre-mutation handle is gone
        assert_eq!(tx.submit_line(&solve1), Submitted::Replied);
        assert!(rx.recv().unwrap().contains("upload it first"));

        // solving by the new handle repairs the held solution instead of
        // re-solving, byte-identical to the direct hold → apply path
        let solve2 = wire::render_request_with(
            "s2",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&new_handle),
            &request,
        );
        assert_eq!(tx.submit_line(&solve2), Submitted::Queued);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert_eq!(reply.frame_type, "solution");
        let session = Session::new();
        let mut direct = session.hold(&request).unwrap();
        let expect = direct.apply(&delta).unwrap().to_json_line();
        assert!(
            expect.contains("weak-splitting/repair"),
            "the direct path takes the repair route: {expect}"
        );
        assert_eq!(reply.payload, Some(expect.as_str()), "byte parity");

        // churn counters surface in the heartbeat and the snapshot
        assert_eq!(
            tx.submit_line(r#"{"v":1,"type":"ping","id":"hb"}"#),
            Submitted::Replied
        );
        let beat = rx.recv().unwrap();
        for needle in [
            "\"mutations_applied\":1",
            "\"repairs\":1",
            "\"full_resolves\":0",
        ] {
            assert!(beat.contains(needle), "heartbeat lacks {needle}: {beat}");
        }
        let stats = server.stats();
        assert_eq!(stats.mutations_applied, 1);
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.full_resolves, 0);
        assert!(
            stats.refix_mean_permille > 0,
            "a repair records its refix fraction"
        );
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn mutate_error_paths_are_typed() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();

        // unknown handle
        let bogus = "0123456789abcdef0123456789abcdef";
        let line = wire::render_mutate("m1", bogus, None, &[(0, 0)], &[]);
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let frame = rx.recv().unwrap();
        assert!(
            frame.contains("\"type\":\"error\"") && frame.contains("unknown instance handle"),
            "{frame}"
        );

        // a mutate without any edit list never classifies
        let no_edits = format!(r#"{{"v":1,"type":"mutate","id":"m2","handle":"{bogus}"}}"#);
        assert_eq!(tx.submit_line(&no_edits), Submitted::Replied);
        let frame = rx.recv().unwrap();
        assert!(
            frame.contains("inserts and/or deletes"),
            "typed classify error: {frame}"
        );

        // mutating a non-bipartite instance is refused by kind
        let host = Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            generators::cycle(6).unwrap(),
        );
        let host_handle = wire::render_handle(wire::instance_fingerprint(host.instance()));
        assert_eq!(
            tx.submit_line(&wire::render_upload("u1", host.instance())),
            Submitted::Replied
        );
        rx.recv().unwrap();
        let line = wire::render_mutate("m3", &host_handle, None, &[(0, 0)], &[]);
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let frame = rx.recv().unwrap();
        assert!(
            frame.contains("mutate targets a bipartite instance"),
            "{frame}"
        );

        // a structurally invalid delta (deleting an absent edge) is a
        // typed error and leaves the handle untouched
        let mut rng = StdRng::seed_from_u64(51);
        let b = generators::random_biregular(8, 8, 3, &mut rng).unwrap();
        let absent = (0..8)
            .map(|v| (0, v))
            .find(|&(u, v)| !b.contains_edge(u, v))
            .expect("degree 3 of 8 leaves absent edges");
        let instance = Instance::Bipartite(b);
        let handle = wire::render_handle(wire::instance_fingerprint(&instance));
        assert_eq!(
            tx.submit_line(&wire::render_upload("u2", &instance)),
            Submitted::Replied
        );
        rx.recv().unwrap();
        let line = wire::render_mutate("m4", &handle, None, &[], &[absent]);
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let frame = rx.recv().unwrap();
        assert!(
            frame.contains("\"kind\":\"invalid-request\"") && frame.contains("missing edge"),
            "{frame}"
        );
        assert_eq!(
            server.stats().mutations_applied,
            0,
            "failed mutations never count"
        );
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    /// The `new_handle` a `mutated` reply frame names.
    fn new_handle_of(frame: &str) -> String {
        frame
            .split("\"new_handle\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("mutated payload names the new handle")
            .to_owned()
    }

    /// The interned table entry under `hash`, if any.
    fn interned(server: &Server, hash: PayloadHash) -> Option<Arc<Instance>> {
        let handle = wire::render_handle(hash);
        server.shared.store.lock().unwrap().resolve(&handle).ok()
    }

    #[test]
    fn mutate_patches_copy_on_write() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        let mut rng = StdRng::seed_from_u64(61);
        let b = generators::random_biregular(64, 64, 6, &mut rng).unwrap();
        let original = Instance::Bipartite(b.clone());
        let hash = wire::instance_fingerprint(&original);
        let handle = wire::render_handle(hash);
        assert_eq!(
            tx.submit_line(&wire::render_upload("u1", &original)),
            Submitted::Replied
        );
        rx.recv().unwrap();

        // an owner that shares the interned Arc (as an admitted solve
        // does) keeps the pre-patch instance; the table moves on
        let pinned = interned(&server, hash).unwrap();
        let delta = random_delta(&b, ChurnStyle::Rewire, 3, &mut rng);
        let line = wire::render_mutate("m1", &handle, None, delta.inserts(), delta.deletes());
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let new_handle = new_handle_of(&rx.recv().unwrap());
        let new_hash = wire::parse_handle(&new_handle).unwrap();
        assert_eq!(*pinned, original, "a shared instance is never patched");
        let mut patched = b.clone();
        delta.apply(&mut patched).unwrap();
        let patched = Instance::Bipartite(patched);
        assert_eq!(new_hash, wire::instance_fingerprint(&patched));
        assert!(interned(&server, hash).is_none(), "the old hash is gone");
        let entry = interned(&server, new_hash).expect("the entry moved");
        assert_eq!(*entry, patched);
        assert!(!Arc::ptr_eq(&entry, &pinned), "shared → copied");
        assert_eq!(server.stats().handles_held, 1);

        // once no other owner shares it, the entry is patched in place
        let address = Arc::as_ptr(&entry);
        drop((entry, pinned));
        let delta = random_delta(&b, ChurnStyle::Grow, 2, &mut rng);
        let line = wire::render_mutate("m2", &new_handle, None, delta.inserts(), delta.deletes());
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let newer = wire::parse_handle(&new_handle_of(&rx.recv().unwrap())).unwrap();
        let entry = interned(&server, newer).expect("the entry moved again");
        assert_eq!(Arc::as_ptr(&entry), address, "unshared → patched in place");
        assert_eq!(server.stats().mutations_applied, 2);

        // a held solution shares the uploaded instance; the first mutate
        // copies the table's entry, and the repaired solve then patches
        // the held graph at the uploaded instance's address
        let c = generators::random_biregular(600, 600, 24, &mut rng).unwrap();
        let request = Request::new(Problem::weak_splitting(), c.clone())
            .deterministic()
            .seed(3);
        let hash = wire::instance_fingerprint(request.instance());
        let handle = wire::render_handle(hash);
        let upload = wire::render_upload("u2", request.instance());
        assert_eq!(tx.submit_line(&upload), Submitted::Replied);
        rx.recv().unwrap();
        let graph_in = |instance: &Instance| match instance {
            Instance::Bipartite(b) => b as *const splitgraph::BipartiteGraph,
            _ => unreachable!("uploaded a bipartite instance"),
        };
        let uploaded = graph_in(&interned(&server, hash).unwrap());
        let solve = |id: &str, handle: &str| {
            let handle = wire::InstanceRef::Handle(handle);
            wire::render_request_with(id, Priority::Normal, None, handle, &request)
        };
        assert_eq!(tx.submit_line(&solve("s1", &handle)), Submitted::Queued);
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        let delta = random_delta(&c, ChurnStyle::Rewire, 2, &mut rng);
        let line = wire::render_mutate("m3", &handle, None, delta.inserts(), delta.deletes());
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let new_handle = new_handle_of(&rx.recv().unwrap());
        let new_hash = wire::parse_handle(&new_handle).unwrap();
        assert_eq!(tx.submit_line(&solve("s2", &new_handle)), Submitted::Queued);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("weak-splitting/repair"), "{frame}");
        let table = graph_in(&interned(&server, new_hash).unwrap());
        assert_ne!(table, uploaded, "the table's entry was copied");
        let key = (new_hash, wire::policy_fingerprint(&request));
        let held = server.shared.store.lock().unwrap().checkout(key).unwrap();
        assert!(
            std::ptr::eq(held.held.instance(), uploaded),
            "patched in place"
        );
        let mut patched = c;
        delta.apply(&mut patched).unwrap();
        assert_eq!(*held.held.instance(), patched);
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn a_cancelled_token_stops_the_held_fallback_and_drops_the_entry() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        let mut rng = StdRng::seed_from_u64(63);
        let b = generators::random_biregular(600, 600, 24, &mut rng).unwrap();
        let request = Request::new(Problem::weak_splitting(), b.clone())
            .deterministic()
            .seed(9);
        let handle = wire::render_handle(wire::instance_fingerprint(request.instance()));
        let upload = wire::render_upload("u1", request.instance());
        assert_eq!(tx.submit_line(&upload), Submitted::Replied);
        rx.recv().unwrap();
        let solve = |id: &str, handle: &str| {
            let handle = wire::InstanceRef::Handle(handle);
            wire::render_request_with(id, Priority::Normal, None, handle, &request)
        };
        assert_eq!(tx.submit_line(&solve("s1", &handle)), Submitted::Queued);
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));

        // a rewire this wide dirties far more constraints than the refix
        // threshold admits, so draining it falls back to a full re-solve
        let delta = random_delta(&b, ChurnStyle::Rewire, 40, &mut rng);
        let line = wire::render_mutate("m1", &handle, None, delta.inserts(), delta.deletes());
        assert_eq!(tx.submit_line(&line), Submitted::Replied);
        let new_handle = new_handle_of(&rx.recv().unwrap());
        let new_hash = wire::parse_handle(&new_handle).unwrap();

        // the job's token is already cancelled: the fallback stops at its
        // first checkpoint, and the entry is not checked back in
        let token = CancelToken::new();
        token.cancel();
        let job = Request::from_shared(
            Problem::weak_splitting(),
            interned(&server, new_hash).unwrap(),
        )
        .deterministic()
        .seed(9);
        let reply = solve_held(&server.shared, &Session::new(), &token, &job, new_hash);
        assert!(reply.contains("deadline-exceeded"), "{reply}");
        assert!(reply.contains("while solving"), "{reply}");
        assert!(server.shared.store.lock().unwrap().held_keys().is_empty());
        let counted = server.stats();
        assert_eq!((counted.repairs, counted.full_resolves), (0, 1));

        // the next solve of the handle is a miss: solved from scratch
        // and adopted afresh, with no repair or re-solve counted
        assert_eq!(tx.submit_line(&solve("s2", &new_handle)), Submitted::Queued);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("\"route\":\"theorem25\""), "{frame}");
        let stats = server.stats();
        assert_eq!((stats.repairs, stats.full_resolves), (0, 1));
        assert_eq!(server.shared.store.lock().unwrap().held_keys().len(), 1);
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn failed_mutate_leaves_the_entry_and_its_hash_untouched() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        let mut rng = StdRng::seed_from_u64(62);
        let b = generators::random_biregular(16, 16, 4, &mut rng).unwrap();
        let original = Instance::Bipartite(b.clone());
        let hash = wire::instance_fingerprint(&original);
        let handle = wire::render_handle(hash);
        assert_eq!(
            tx.submit_line(&wire::render_upload("u1", &original)),
            Submitted::Replied
        );
        rx.recv().unwrap();
        let address = Arc::as_ptr(&interned(&server, hash).unwrap());
        let absent = (0..16)
            .map(|v| (0, v))
            .find(|&(u, v)| !b.contains_edge(u, v))
            .unwrap();
        let present = (0, b.left_neighbors(0)[0]);
        // each batch holds valid edits next to one invalid edit: the
        // whole batch is refused, nothing of it applied
        for (inserts, deletes) in [
            (vec![absent], vec![absent]),
            (vec![absent, present], vec![]),
            (vec![absent], vec![(0, 99)]),
            (vec![], vec![present, present]),
        ] {
            let line = wire::render_mutate("m", &handle, None, &inserts, &deletes);
            assert_eq!(tx.submit_line(&line), Submitted::Replied);
            let frame = rx.recv().unwrap();
            assert!(frame.contains("\"kind\":\"invalid-request\""), "{frame}");
            let entry = interned(&server, hash).expect("the handle still resolves");
            assert_eq!(*entry, original);
            assert_eq!(Arc::as_ptr(&entry), address, "not even copied");
            assert_eq!(server.stats().handles_held, 1);
        }
        assert_eq!(server.stats().mutations_applied, 0);
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn two_mutates_drain_like_direct_hold_and_apply() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        let mut rng = StdRng::seed_from_u64(63);
        let b = generators::random_biregular(2000, 2000, 32, &mut rng).unwrap();
        let request = Request::new(Problem::weak_splitting(), b.clone())
            .deterministic()
            .seed(9);
        let handle = wire::render_handle(wire::instance_fingerprint(request.instance()));
        assert_eq!(
            tx.submit_line(&wire::render_upload("u1", request.instance())),
            Submitted::Replied
        );
        rx.recv().unwrap();
        let solve = wire::render_request_with(
            "s1",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&handle),
            &request,
        );
        assert_eq!(tx.submit_line(&solve), Submitted::Queued);
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));

        // two mutates queue two pending deltas on the held entry
        let first = random_delta(&b, ChurnStyle::Rewire, 6, &mut rng);
        let mut after_first = b.clone();
        first.apply(&mut after_first).unwrap();
        let second = random_delta(&after_first, ChurnStyle::Shrink, 4, &mut rng);
        let mut current = handle;
        for (id, delta) in [("m1", &first), ("m2", &second)] {
            let line = wire::render_mutate(id, &current, None, delta.inserts(), delta.deletes());
            assert_eq!(tx.submit_line(&line), Submitted::Replied);
            current = new_handle_of(&rx.recv().unwrap());
        }
        let solve = wire::render_request_with(
            "s2",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&current),
            &request,
        );
        assert_eq!(tx.submit_line(&solve), Submitted::Queued);
        let frame = rx.recv().unwrap();
        let reply = split_reply(&frame).expect(&frame);
        assert_eq!(reply.frame_type, "solution");

        // one solve drains both, answering with the last repair's bytes
        let mut direct = Session::new().hold(&request).unwrap();
        direct.apply(&first).unwrap();
        let expect = direct.apply(&second).unwrap().to_json_line();
        assert_eq!(reply.payload, Some(expect.as_str()), "byte parity");
        let stats = server.stats();
        assert_eq!(stats.mutations_applied, 2);
        assert_eq!(stats.repairs, direct.stats().repairs);
        assert_eq!(stats.full_resolves, direct.stats().full_resolves);
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn journal_replays_mutation_stream_across_restart() {
        use crate::journal::{FsyncPolicy, Journal};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let path = temp_journal_path("churn");
        let _ = std::fs::remove_file(&path);
        let mut rng = StdRng::seed_from_u64(71);
        let b = generators::random_biregular(64, 64, 6, &mut rng).unwrap();
        let delta = random_delta(&b, ChurnStyle::Rewire, 3, &mut rng);
        let mut patched = b.clone();
        delta.apply(&mut patched).unwrap();
        let instance = Instance::Bipartite(b);
        let handle = wire::render_handle(wire::instance_fingerprint(&instance));
        let expected =
            wire::render_handle(wire::instance_fingerprint(&Instance::Bipartite(patched)));

        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(ServerConfig {
                journal: Some(journal),
                ..quiet_config()
            });
            let (mut tx, mut rx) = server.connect().split();
            assert_eq!(
                tx.submit_line(&wire::render_upload("u1", &instance)),
                Submitted::Replied
            );
            rx.recv().unwrap();
            let mutate = wire::render_mutate("m1", &handle, None, delta.inserts(), delta.deletes());
            assert_eq!(tx.submit_line(&mutate), Submitted::Replied);
            let frame = rx.recv().unwrap();
            assert!(
                frame.contains(&expected),
                "mutated frame names the patched content hash: {frame}"
            );
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }

        // restart: upload and mutation replay from the journal in
        // admission order, rebuilding the table at the patched content
        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(ServerConfig {
                journal: Some(journal),
                ..quiet_config()
            });
            let stats = server.stats();
            assert_eq!(stats.handles_held, 1, "one instance survives recovery");
            assert_eq!(stats.mutations_applied, 1, "the replayed mutation counts");
            let (mut tx, mut rx) = server.connect().split();
            // the pre-mutation handle did not survive; the patched one did
            let stale = wire::render_mutate("m2", &handle, None, delta.inserts(), delta.deletes());
            assert_eq!(tx.submit_line(&stale), Submitted::Replied);
            assert!(rx.recv().unwrap().contains("unknown instance handle"));
            assert_eq!(
                tx.submit_line(&wire::render_release("d1", &expected)),
                Submitted::Replied
            );
            assert!(rx.recv().unwrap().contains("\"held\":0"));
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }

        // third start: the journaled release replays too
        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(ServerConfig {
                journal: Some(journal),
                ..quiet_config()
            });
            assert_eq!(server.stats().handles_held, 0, "released stays released");
            server.shutdown();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_final_repair_drops_the_held_entry_instead_of_serving_stale() {
        // δ = 6, r = 1 → Theorem 2.7; deleting constraint 0's six edges
        // exits every regime, so the drained repair must decline — and a
        // from-scratch solve of the patched instance declines identically
        let mut edges = Vec::new();
        for u in 0..4usize {
            for j in 0..6usize {
                edges.push((u, 6 * u + j));
            }
        }
        let b = splitgraph::BipartiteGraph::from_edges(4, 24, &edges).unwrap();
        let request = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(5);
        let handle = wire::render_handle(wire::instance_fingerprint(request.instance()));

        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        assert_eq!(
            tx.submit_line(&wire::render_upload("u1", request.instance())),
            Submitted::Replied
        );
        rx.recv().unwrap();
        let solve1 = wire::render_request_with(
            "s1",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&handle),
            &request,
        );
        assert_eq!(tx.submit_line(&solve1), Submitted::Queued);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("\"type\":\"solution\""), "{frame}");
        assert_eq!(
            server.shared.store.lock().unwrap().held_keys().len(),
            1,
            "adopted"
        );

        let deletes: Vec<(usize, usize)> = (0..6).map(|j| (0, j)).collect();
        let mutate = wire::render_mutate("m1", &handle, None, &[], &deletes);
        assert_eq!(tx.submit_line(&mutate), Submitted::Replied);
        let frame = rx.recv().unwrap();
        let new_handle = new_handle_of(&frame);

        // draining the pending delta exits the regime: a typed decline,
        // and the now-stale entry is dropped rather than reinserted
        let solve2 = wire::render_request_with(
            "s2",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&new_handle),
            &request,
        );
        assert_eq!(tx.submit_line(&solve2), Submitted::Queued);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("unsupported-regime"), "{frame}");
        assert_eq!(
            server.shared.store.lock().unwrap().held_keys().len(),
            0,
            "the stale entry must not survive a failed final repair"
        );

        // the retry must NOT flip error → stale accept: it re-solves the
        // patched instance from scratch and declines identically
        assert_eq!(tx.submit_line(&solve2), Submitted::Queued);
        let frame = rx.recv().unwrap();
        assert!(
            frame.contains("unsupported-regime"),
            "retry served a solution certified for the pre-mutation instance: {frame}"
        );
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn held_cache_evicts_lru_and_purges_on_release() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let server = Server::start(ServerConfig {
            held_capacity: 1,
            ..quiet_config()
        });
        let (mut tx, mut rx) = server.connect().split();
        // δ = 16 ≥ 2·log₂(128): inside the Theorem 2.5 regime, so both
        // solves accept and adopt
        let mut rng = StdRng::seed_from_u64(61);
        let a = generators::random_biregular(64, 64, 16, &mut rng).unwrap();
        let b = generators::random_biregular(64, 64, 16, &mut rng).unwrap();
        let req_a = Request::new(Problem::weak_splitting(), a)
            .deterministic()
            .seed(1);
        let req_b = Request::new(Problem::weak_splitting(), b)
            .deterministic()
            .seed(2);
        let hash_a = wire::instance_fingerprint(req_a.instance());
        let hash_b = wire::instance_fingerprint(req_b.instance());
        for (req, id) in [(&req_a, "ua"), (&req_b, "ub")] {
            assert_eq!(
                tx.submit_line(&wire::render_upload(id, req.instance())),
                Submitted::Replied
            );
            rx.recv().unwrap();
        }
        let solve_a = wire::render_request_with(
            "sa",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&wire::render_handle(hash_a)),
            &req_a,
        );
        assert_eq!(tx.submit_line(&solve_a), Submitted::Queued);
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        {
            let held = server.shared.store.lock().unwrap().held_keys();
            assert_eq!(held.len(), 1);
            assert!(held.iter().all(|(h, _)| *h == hash_a));
        }
        // at capacity, adopting B's solution evicts A (the LRU entry)
        // instead of refusing the adoption
        let solve_b = wire::render_request_with(
            "sb",
            Priority::Normal,
            None,
            wire::InstanceRef::Handle(&wire::render_handle(hash_b)),
            &req_b,
        );
        assert_eq!(tx.submit_line(&solve_b), Submitted::Queued);
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        {
            let held = server.shared.store.lock().unwrap().held_keys();
            assert_eq!(held.len(), 1, "eviction keeps the cache at capacity");
            assert!(
                held.iter().all(|(h, _)| *h == hash_b),
                "the LRU entry (A) was the victim"
            );
        }
        // release purges the held entry along with the handle
        assert_eq!(
            tx.submit_line(&wire::render_release("db", &wire::render_handle(hash_b))),
            Submitted::Replied
        );
        assert!(rx.recv().unwrap().contains("\"type\":\"released\""));
        assert_eq!(
            server.shared.store.lock().unwrap().held_keys().len(),
            0,
            "released instances must not pin held-cache capacity"
        );
        // an entry whose instance hash no longer resolves is dropped on
        // reinsert (the mutate-during-checkout orphan), never stored
        let session = Session::new();
        let orphan = session.hold(&req_b).unwrap();
        server.shared.store.lock().unwrap().checkin(
            (hash_b, wire::policy_fingerprint(&req_b)),
            HeldEntry::new(orphan),
        );
        assert_eq!(
            server.shared.store.lock().unwrap().held_keys().len(),
            0,
            "dead-hash entries are dropped at reinsert"
        );
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }

    #[test]
    fn keyed_mutate_replays_across_retry_and_restart() {
        use crate::journal::{FsyncPolicy, Journal};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let path = temp_journal_path("mutate-key");
        let _ = std::fs::remove_file(&path);
        let mut rng = StdRng::seed_from_u64(81);
        let b = generators::random_biregular(64, 64, 6, &mut rng).unwrap();
        let delta = random_delta(&b, ChurnStyle::Rewire, 3, &mut rng);
        let instance = Instance::Bipartite(b);
        let handle = wire::render_handle(wire::instance_fingerprint(&instance));
        let mutate = wire::render_mutate(
            "m1",
            &handle,
            Some("retry-m1"),
            delta.inserts(),
            delta.deletes(),
        );

        let first_payload;
        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(ServerConfig {
                journal: Some(journal),
                ..quiet_config()
            });
            let (mut tx, mut rx) = server.connect().split();
            assert_eq!(
                tx.submit_line(&wire::render_upload("u1", &instance)),
                Submitted::Replied
            );
            rx.recv().unwrap();
            assert_eq!(tx.submit_line(&mutate), Submitted::Replied);
            let frame = rx.recv().unwrap();
            let reply = split_reply(&frame).expect(&frame);
            assert_eq!(reply.frame_type, "mutated");
            assert!(!reply.replayed);
            first_payload = reply.payload.unwrap().to_owned();
            // a verbatim retry replays the cached reply: the mutation is
            // NOT applied twice and the payload is byte-identical — this
            // is how a client recovers the moved handle after losing the
            // original reply
            assert_eq!(tx.submit_line(&mutate), Submitted::Replied);
            let frame = rx.recv().unwrap();
            let reply = split_reply(&frame).expect(&frame);
            assert_eq!(reply.frame_type, "mutated");
            assert!(reply.replayed, "{frame}");
            assert_eq!(reply.payload, Some(first_payload.as_str()), "byte parity");
            assert_eq!(server.stats().mutations_applied, 1, "applied exactly once");
            assert_eq!(server.stats().replayed, 1);
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }

        // restart: the journaled keyed mutation replays into BOTH the
        // handle table and the idempotency cache, so a client that never
        // saw the reply still recovers the moved handle by retrying
        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(ServerConfig {
                journal: Some(journal),
                ..quiet_config()
            });
            let (mut tx, mut rx) = server.connect().split();
            assert_eq!(tx.submit_line(&mutate), Submitted::Replied);
            let frame = rx.recv().unwrap();
            let reply = split_reply(&frame).expect(&frame);
            assert_eq!(reply.frame_type, "mutated");
            assert!(reply.replayed, "{frame}");
            assert_eq!(
                reply.payload,
                Some(first_payload.as_str()),
                "the recovered reply matches the original bytes"
            );
            assert_eq!(
                server.stats().mutations_applied,
                1,
                "only the recovery replay applied"
            );
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_compaction_bounds_recovery_replay() {
        use crate::journal::{FsyncPolicy, Journal};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let path = temp_journal_path("compact");
        let _ = std::fs::remove_file(&path);
        let mut rng = StdRng::seed_from_u64(91);
        let mut g = generators::random_biregular(64, 64, 6, &mut rng).unwrap();
        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(ServerConfig {
                journal: Some(journal),
                journal_compact_threshold: 4,
                ..quiet_config()
            });
            let (mut tx, mut rx) = server.connect().split();
            assert_eq!(
                tx.submit_line(&wire::render_upload("u1", &Instance::Bipartite(g.clone()))),
                Submitted::Replied
            );
            rx.recv().unwrap();
            // a long churn stream: without compaction every one of these
            // state records would replay on restart
            for i in 0..12 {
                let handle = wire::render_handle(wire::instance_fingerprint(&Instance::Bipartite(
                    g.clone(),
                )));
                let delta = random_delta(&g, ChurnStyle::Rewire, 1, &mut rng);
                let line = wire::render_mutate(
                    &format!("m{i}"),
                    &handle,
                    None,
                    delta.inserts(),
                    delta.deletes(),
                );
                assert_eq!(tx.submit_line(&line), Submitted::Replied);
                assert!(rx.recv().unwrap().contains("\"type\":\"mutated\""));
                delta.apply(&mut g).unwrap();
            }
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }
        let live = wire::render_handle(wire::instance_fingerprint(&Instance::Bipartite(g.clone())));
        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let recovered = journal.stats().recovered;
            assert!(
                recovered <= 4,
                "the snapshot bounds the replay prefix; {recovered} records recovered"
            );
            let server = Server::start(ServerConfig {
                journal: Some(journal),
                journal_compact_threshold: 4,
                ..quiet_config()
            });
            assert_eq!(server.stats().handles_held, 1);
            let (mut tx, mut rx) = server.connect().split();
            // the snapshot captured the LIVE content: the post-churn
            // handle resolves after recovery
            assert_eq!(
                tx.submit_line(&wire::render_release("d1", &live)),
                Submitted::Replied
            );
            assert!(
                rx.recv().unwrap().contains("\"held\":0"),
                "the live handle survived compaction"
            );
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keyed_mutate_replays_after_compaction_and_restart() {
        use crate::journal::{FsyncPolicy, Journal};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use splitgraph::delta::{random_delta, ChurnStyle};

        let path = temp_journal_path("compact-key");
        let _ = std::fs::remove_file(&path);
        let config = |journal| ServerConfig {
            journal: Some(journal),
            journal_compact_threshold: 4,
            ..quiet_config()
        };
        let mut rng = StdRng::seed_from_u64(93);
        let mut g = generators::random_biregular(64, 64, 6, &mut rng).unwrap();
        let mut mutate_next = |key: Option<&str>, g: &mut splitgraph::BipartiteGraph| {
            let handle =
                wire::render_handle(wire::instance_fingerprint(&Instance::Bipartite(g.clone())));
            let delta = random_delta(g, ChurnStyle::Rewire, 1, &mut rng);
            delta.apply(g).unwrap();
            wire::render_mutate("m", &handle, key, delta.inserts(), delta.deletes())
        };
        let keyed;
        let first_payload;
        {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(config(journal));
            let (mut tx, mut rx) = server.connect().split();
            let upload = wire::render_upload("u1", &Instance::Bipartite(g.clone()));
            assert_eq!(tx.submit_line(&upload), Submitted::Replied);
            rx.recv().unwrap();
            keyed = mutate_next(Some("key-k"), &mut g);
            assert_eq!(tx.submit_line(&keyed), Submitted::Replied);
            let frame = rx.recv().unwrap();
            first_payload = split_reply(&frame).unwrap().payload.unwrap().to_owned();
            // enough keyless churn that compaction folds the keyed
            // mutate's own record into a snapshot
            for _ in 0..6 {
                let line = mutate_next(None, &mut g);
                assert_eq!(tx.submit_line(&line), Submitted::Replied);
                assert!(rx.recv().unwrap().contains("\"type\":\"mutated\""));
            }
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }
        // restart, twice: the keyed reply survives compaction on the
        // way in and the recovery compaction on the way out
        for _ in 0..2 {
            let journal = Arc::new(Journal::open(&path, FsyncPolicy::Never).unwrap());
            let server = Server::start(config(journal));
            let (mut tx, mut rx) = server.connect().split();
            assert_eq!(tx.submit_line(&keyed), Submitted::Replied);
            let frame = rx.recv().unwrap();
            let reply = split_reply(&frame).expect(&frame);
            assert_eq!(reply.frame_type, "mutated", "{frame}");
            assert!(reply.replayed, "{frame}");
            assert_eq!(reply.payload, Some(first_payload.as_str()), "byte parity");
            tx.finish();
            assert!(rx.recv().is_none());
            server.shutdown();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exotic_encodings_fall_back_and_are_counted() {
        let server = Server::start(quiet_config());
        let (mut tx, mut rx) = server.connect().split();
        // float-typed integral endpoints are valid under the strict
        // grammar but not canonical spellings
        let line = r#"{"v":1,"type":"request","id":"x1","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":4,"edges":[[0,1],[1,2],[2,3],[3,0.0]]}}"#;
        assert_eq!(tx.submit_line(line), Submitted::Queued);
        let frame = rx.recv().unwrap();
        assert!(frame.contains("\"type\":\"solution\""), "{frame}");
        assert_eq!(server.stats().parse_fallbacks, 1);
        tx.finish();
        assert!(rx.recv().is_none());
        server.shutdown();
    }
}
