//! Crash-safe write-ahead journal for `splitd`.
//!
//! The journal makes admitted work durable: every request that passes
//! admission control is appended as a checksummed, length-prefixed
//! *admitted* record **before** it enters the job queue, and a matching
//! *completed* record is appended once its reply has been handed to the
//! connection's delivery stream. On startup, [`Journal::open`] scans the
//! file, truncates a torn final record (the only damage a `kill -9`
//! mid-append can cause), and returns every admitted-but-not-completed
//! job in original admission order so the server can re-enqueue it —
//! a crash loses zero admitted work.
//!
//! Exactly-once semantics come for free from determinism: every solver
//! in the workspace is a pure function of `(problem, instance, seed)`
//! (pinned byte-identical by the conformance corpus), so re-solving a
//! recovered request provably reproduces the byte-identical solution.
//! The idempotency cache in `server.rs` closes the client-facing half:
//! a retried `idempotency_key` is answered from the cache, flagged
//! `"replayed":true`, instead of being solved twice.
//!
//! ## File format
//!
//! ```text
//! header:  8-byte magic "SPLTJRNL" ++ u32-LE format version (2)
//! record:  u32-LE body length ++ u64-LE FNV-1a checksum of body ++ body
//! body:    kind u8 (1 = admitted, 2 = completed, 3 = payload)
//!          ++ kind-specific fields
//! ```
//!
//! All integers are little-endian. Request payloads are *interned*:
//! a payload record stores the raw request line under a 128-bit content
//! hash, written once per distinct payload, and every admitted record
//! carries only its envelope fields plus that hash. Identical requests
//! (a retry storm, a benchmark cycling a fixed pool) therefore cost one
//! large blob and many ~60-byte admission records instead of journaling
//! kilobytes of JSON per admission. A payload record always precedes
//! the first admitted record that references it — the two are appended
//! under one lock — so any valid prefix of the file resolves; an
//! admitted record whose hash has no preceding payload is structural
//! damage and truncates the scan there.
//!
//! A record whose length prefix, checksum, or body fails to validate —
//! and everything after it — is treated as a torn tail and truncated; a
//! bad magic or version is a typed [`JournalError`] (`splitd` exits
//! with a distinct code rather than guessing at the format).

use crate::wire::Priority;
use local_runtime::splitmix64;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// File magic, first 8 bytes of every journal.
pub const MAGIC: [u8; 8] = *b"SPLTJRNL";
/// On-disk format version this build reads and writes. Version 2 came
/// with the edge-sum bipartite instance handles
/// (`wire::instance_fingerprint`): the `mutate` and `release` lines of a
/// version 1 journal cite handles this build no longer derives.
pub const FORMAT_VERSION: u32 = 2;
/// Header length in bytes (magic + version).
pub const HEADER_LEN: usize = 12;

/// Hard cap on a single record body; anything larger than the biggest
/// admissible frame plus metadata is damage, not data.
const MAX_RECORD_BYTES: usize = (64 << 20) + 4096;

/// Under [`FsyncPolicy::Batch`], `fsync` once per this many appends.
/// Admission and completion records are tens of bytes once payloads are
/// interned, so this bounds the machine-crash loss window to ~64 KiB
/// while keeping the fsync cost (~100µs on commodity storage) far off
/// the per-request path. A process crash loses nothing regardless —
/// every record reaches the kernel before the journal returns.
const BATCH_SYNC_EVERY: u32 = 1024;

const KIND_ADMITTED: u8 = 1;
const KIND_COMPLETED: u8 = 2;
const KIND_PAYLOAD: u8 = 3;

/// 128-bit content address of an interned request payload.
pub type PayloadHash = [u8; 16];

/// Domain tag for [`PayloadHasher`] over raw wire-line bytes.
pub const DOMAIN_LINE: u8 = 0;
/// Domain tag for [`PayloadHasher`] over structural request fields
/// (see `wire::request_fingerprint`).
pub const DOMAIN_REQUEST: u8 = 1;
/// Domain tag for [`PayloadHasher`] over structural instance content
/// (see `wire::instance_fingerprint`) — the basis for instance handles.
pub const DOMAIN_INSTANCE: u8 = 2;

/// Two-lane incremental hash producing a [`PayloadHash`].
///
/// Built for the admission path: two multiplies per 64-bit word, so
/// fingerprinting a request is far cheaper than rendering it. This is
/// a content address for deduplication, not a security boundary — the
/// journal trusts its writer (the in-process server), and per-record
/// integrity is the FNV checksum, not this hash. The `domain` tag
/// separates byte-hashed wire lines from structural fingerprints so
/// the two can never alias.
#[derive(Clone, Debug)]
pub struct PayloadHasher {
    acc: [u64; 4],
    lane: u8,
}

/// One distinct odd multiplier per accumulator lane (the xxhash64
/// primes — chosen for their bit structure, nothing more).
const LANE_MUL: [u64; 4] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];

impl PayloadHasher {
    /// Starts a hash stream in the given domain.
    pub fn new(domain: u8) -> PayloadHasher {
        let d = u64::from(domain);
        PayloadHasher {
            acc: [
                splitmix64(0x0053_504C_544A_524E ^ d),
                splitmix64(0x004C_4E52_4A54_4C50 ^ d),
                splitmix64(0x534A_4C52_504E_544C ^ d),
                splitmix64(0x4E54_504C_4A52_4C53 ^ d),
            ],
            lane: 0,
        }
    }

    /// Feeds one 64-bit word.
    ///
    /// Words stripe round-robin across four xor-multiply-rotate
    /// accumulators, so the multiply latency of consecutive words
    /// overlaps — hashing a large instance runs at multiplier
    /// throughput, not multiplier latency.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let lane = usize::from(self.lane & 3);
        self.lane = self.lane.wrapping_add(1);
        self.acc[lane] = (self.acc[lane] ^ w)
            .wrapping_mul(LANE_MUL[lane])
            .rotate_left(27);
    }

    /// Feeds a length-prefixed byte string (so consecutive strings
    /// never alias across their boundary).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// Finalizes the stream: both output words are avalanched folds of
    /// all four accumulators (plus the word count, so trailing zero
    /// words cannot alias an empty tail).
    pub fn finish(self) -> PayloadHash {
        let mut lo = splitmix64(0x9E37_79B9_7F4A_7C15 ^ u64::from(self.lane));
        let mut hi = splitmix64(0xC2B2_AE3D_27D4_EB4F ^ u64::from(self.lane));
        for a in self.acc {
            lo = splitmix64(lo ^ a);
            hi = splitmix64(hi ^ a.rotate_left(32));
        }
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

/// Content address of a raw wire line ([`DOMAIN_LINE`]).
pub fn line_hash(line: &str) -> PayloadHash {
    let mut h = PayloadHasher::new(DOMAIN_LINE);
    h.bytes(line.as_bytes());
    h.finish()
}

/// When the journal flushes appends to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — strongest durability, slowest.
    Always,
    /// `fsync` every few records — bounded loss window, near-`Never`
    /// throughput. The default for `splitd --journal`.
    Batch,
    /// Never `fsync`; rely on the OS flushing dirty pages. Survives a
    /// process kill (the page cache persists) but not a host crash.
    Never,
}

impl FsyncPolicy {
    /// All policies, in documentation order.
    pub const ALL: [FsyncPolicy; 3] = [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never];

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }

    /// Parses a CLI name; inverse of [`FsyncPolicy::name`].
    pub fn parse(name: &str) -> Option<FsyncPolicy> {
        FsyncPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Why a journal could not be opened or scanned.
///
/// Only structural damage to the *header* is an error: a torn or
/// corrupt record tail is expected crash damage and is silently
/// truncated to the last valid record instead (reported via
/// [`ScanOutcome::truncated`]).
#[derive(Debug)]
pub enum JournalError {
    /// The file exists but does not start with the journal magic — it
    /// is not a splitd journal (or its header itself is torn).
    BadMagic(
        /// Path or description of the offending file.
        String,
    ),
    /// The journal was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        expected: u32,
    },
    /// An underlying filesystem error.
    Io(io::Error),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic(what) => {
                write!(
                    f,
                    "corrupt journal: {what} does not start with the journal magic"
                )
            }
            JournalError::VersionMismatch { found, expected } => write!(
                f,
                "journal format version mismatch: file is v{found}, this build reads v{expected}"
            ),
            JournalError::Io(err) => write!(f, "journal i/o error: {err}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(err: io::Error) -> Self {
        JournalError::Io(err)
    }
}

/// An admitted request as recorded in (and recovered from) the journal.
///
/// Carries the envelope only; the request payload itself lives in a
/// separate interned payload record addressed by
/// [`AdmittedRecord::payload`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmittedRecord {
    /// Monotonic journal-assigned id; completion records refer to it.
    pub record_id: u64,
    /// The client-chosen request id (echoed on replies).
    pub id: String,
    /// Admission priority lane.
    pub priority: Priority,
    /// The request's `deadline_ms` budget, if any. Recovery drops it:
    /// the original admission clock died with the process.
    pub deadline_ms: Option<u64>,
    /// The client-supplied idempotency key, if any.
    pub idempotency_key: Option<String>,
    /// Content address of the interned request payload; resolves
    /// against the payload record earlier in the same journal.
    pub payload: PayloadHash,
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// An interned request payload, written once per distinct content
    /// hash, always before the first admitted record referencing it.
    Payload {
        /// Content address admitted records refer to.
        hash: PayloadHash,
        /// The raw request frame, replayed through
        /// `wire::parse_request` on recovery.
        line: String,
    },
    /// A request passed admission control.
    Admitted(AdmittedRecord),
    /// The reply for an admitted record was handed to delivery.
    Completed {
        /// The [`AdmittedRecord::record_id`] this completes.
        record_id: u64,
    },
}

/// The result of scanning a journal byte image.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Every fully-written record, in file order.
    pub records: Vec<Record>,
    /// Byte offset of the end of the last valid record (the length the
    /// file is truncated to on recovery).
    pub valid_len: usize,
    /// Bytes past `valid_len` — the torn tail a crash left behind.
    pub truncated: usize,
}

/// Point-in-time journal counters for heartbeat/stats frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Admitted records appended since this process opened the journal
    /// (interned payload records are not counted — they are storage,
    /// not admissions — but their size shows up in `bytes`).
    pub appended: u64,
    /// Completion records appended since open.
    pub completed: u64,
    /// Current journal file size in bytes.
    pub bytes: u64,
    /// Incomplete jobs recovered (re-enqueued) at open.
    pub recovered: u64,
}

/// An incomplete admitted job joined with its interned payload — what
/// [`Journal::take_recovered`] hands the server to re-enqueue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The envelope the journal recorded at admission.
    pub record: AdmittedRecord,
    /// The resolved request line, replayed through
    /// `wire::parse_request` on recovery.
    pub line: String,
}

// FNV-1a, 64-bit: dependency-free, byte-order independent, and plenty
// to catch the partial writes and zero-fill a crash can leave behind
// (this is damage detection, not an adversarial MAC).
fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over a record body; every getter fails soft (`None`) so a
/// truncated body decodes as torn, never as a panic.
struct BodyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let raw = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(raw.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let raw = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(raw.try_into().ok()?))
    }

    fn hash(&mut self) -> Option<PayloadHash> {
        let raw = self.bytes.get(self.pos..self.pos + 16)?;
        self.pos += 16;
        raw.try_into().ok()
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let raw = self.bytes.get(self.pos..self.pos + len)?;
        self.pos += len;
        String::from_utf8(raw.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_body(record: &Record) -> Vec<u8> {
    let mut body = Vec::new();
    match record {
        Record::Payload { hash, line } => {
            body.push(KIND_PAYLOAD);
            body.extend_from_slice(hash);
            put_str(&mut body, line);
        }
        Record::Admitted(rec) => {
            body.push(KIND_ADMITTED);
            put_u64(&mut body, rec.record_id);
            body.push(rec.priority.lane() as u8);
            let flags = u8::from(rec.deadline_ms.is_some())
                | (u8::from(rec.idempotency_key.is_some()) << 1);
            body.push(flags);
            if let Some(ms) = rec.deadline_ms {
                put_u64(&mut body, ms);
            }
            if let Some(key) = &rec.idempotency_key {
                put_str(&mut body, key);
            }
            put_str(&mut body, &rec.id);
            body.extend_from_slice(&rec.payload);
        }
        Record::Completed { record_id } => {
            body.push(KIND_COMPLETED);
            put_u64(&mut body, *record_id);
        }
    }
    body
}

/// Frames a record body with its length prefix and checksum — the exact
/// bytes [`Journal::open`]'s scan reverses.
pub fn encode_record(record: &Record) -> Vec<u8> {
    let body = encode_body(record);
    let mut out = Vec::with_capacity(12 + body.len());
    put_u32(&mut out, body.len() as u32);
    put_u64(&mut out, checksum(&body));
    out.extend_from_slice(&body);
    out
}

fn decode_body(body: &[u8]) -> Option<Record> {
    let mut r = BodyReader {
        bytes: body,
        pos: 0,
    };
    let record = match r.u8()? {
        KIND_PAYLOAD => Record::Payload {
            hash: r.hash()?,
            line: r.str()?,
        },
        KIND_ADMITTED => {
            let record_id = r.u64()?;
            let priority = Priority::from_lane(r.u8()?)?;
            let flags = r.u8()?;
            let deadline_ms = if flags & 1 != 0 { Some(r.u64()?) } else { None };
            let idempotency_key = if flags & 2 != 0 { Some(r.str()?) } else { None };
            let id = r.str()?;
            let payload = r.hash()?;
            Record::Admitted(AdmittedRecord {
                record_id,
                id,
                priority,
                deadline_ms,
                idempotency_key,
                payload,
            })
        }
        KIND_COMPLETED => Record::Completed {
            record_id: r.u64()?,
        },
        _ => return None,
    };
    r.done().then_some(record)
}

/// Scans a journal byte image: validates the header, decodes every
/// fully-written record, and reports where the valid prefix ends.
///
/// Record-level damage (short length prefix, checksum mismatch,
/// undecodable body, implausible length, an admitted record whose
/// payload hash has no preceding payload record) is **not** an error —
/// the scan stops at the last valid record and everything after it
/// counts as the torn tail. Only a missing/at-odds header is a typed
/// error. Because appends write a payload record before the first
/// admitted record that references it, every admitted record in a
/// scanned prefix is guaranteed to resolve.
///
/// # Errors
///
/// [`JournalError::BadMagic`] when the image is shorter than a header
/// or starts with other bytes; [`JournalError::VersionMismatch`] for a
/// foreign format version.
pub fn scan(bytes: &[u8]) -> Result<ScanOutcome, JournalError> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return Err(JournalError::BadMagic(format!(
            "{}-byte image",
            bytes.len()
        )));
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if found != FORMAT_VERSION {
        return Err(JournalError::VersionMismatch {
            found,
            expected: FORMAT_VERSION,
        });
    }
    let mut records = Vec::new();
    let mut interned: HashSet<PayloadHash> = HashSet::new();
    let mut pos = HEADER_LEN;
    while let Some(prefix) = bytes.get(pos..pos + 12) {
        let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes")) as usize;
        let want = u64::from_le_bytes(prefix[4..12].try_into().expect("8 bytes"));
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let Some(body) = bytes.get(pos + 12..pos + 12 + len) else {
            break;
        };
        if checksum(body) != want {
            break;
        }
        let Some(record) = decode_body(body) else {
            break;
        };
        match &record {
            Record::Payload { hash, .. } => {
                interned.insert(*hash);
            }
            // a dangling payload reference is damage, same as a failed
            // checksum: stop at the record before it
            Record::Admitted(rec) if !interned.contains(&rec.payload) => break,
            _ => {}
        }
        records.push(record);
        pos += 12 + len;
    }
    Ok(ScanOutcome {
        records,
        valid_len: pos,
        truncated: bytes.len() - pos,
    })
}

/// Folds a scanned record stream into the incomplete jobs a restart
/// must re-enqueue, preserving original admission order.
pub fn incomplete(records: &[Record]) -> Vec<AdmittedRecord> {
    let mut pending: Vec<AdmittedRecord> = Vec::new();
    for record in records {
        match record {
            Record::Payload { .. } => {}
            Record::Admitted(rec) => pending.push(rec.clone()),
            Record::Completed { record_id } => pending.retain(|r| r.record_id != *record_id),
        }
    }
    pending
}

struct Inner {
    file: File,
    since_sync: u32,
    next_id: u64,
    /// Payload hashes already written to this file — the intern set.
    interned: HashSet<PayloadHash>,
    /// Reusable frame buffer, so steady-state appends allocate nothing.
    buf: Vec<u8>,
}

/// The write-ahead journal behind `splitd --journal`.
///
/// Appends are serialized through an internal lock (the ingest thread
/// appends admissions, workers append completions); counters are read
/// lock-free for heartbeat frames. See the module docs for the format
/// and recovery contract.
pub struct Journal {
    path: PathBuf,
    policy: FsyncPolicy,
    /// A dup of the journal fd used only for `fsync`, so syncing never
    /// holds the append lock: a worker marking a completion is not
    /// convoyed behind the ingest thread's batch fsync (or vice
    /// versa). `fsync` flushes everything written before the call, so
    /// a record staged under the lock is covered by the sync its
    /// appender issues after unlocking.
    sync_handle: File,
    inner: Mutex<Inner>,
    appended: AtomicU64,
    completed: AtomicU64,
    bytes: AtomicU64,
    recovered_count: u64,
    recovered: Mutex<Vec<RecoveredJob>>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, recovering the
    /// tail: a torn final record is truncated, completed work is
    /// dropped, and every admitted-but-incomplete job is queued up for
    /// [`Journal::take_recovered`]. The intern set is rebuilt from the
    /// surviving payload records, so a reopened journal keeps
    /// deduplicating against everything it already stores.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadMagic`] / [`JournalError::VersionMismatch`]
    /// when the file exists but is not a compatible journal — the
    /// caller must surface these loudly (in `splitd`, a distinct exit
    /// code) rather than overwrite data it cannot read.
    /// [`JournalError::Io`] for filesystem failures.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // an existing journal is recovered, never clobbered
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = if bytes.is_empty() {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
            (Vec::new(), HEADER_LEN)
        } else {
            let outcome = scan(&bytes)?;
            if outcome.truncated > 0 {
                file.set_len(outcome.valid_len as u64)?;
                file.sync_all()?;
            }
            (outcome.records, outcome.valid_len)
        };
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let next_id = records
            .iter()
            .filter_map(|r| match r {
                Record::Payload { .. } => None,
                Record::Admitted(rec) => Some(rec.record_id),
                Record::Completed { record_id } => Some(*record_id),
            })
            .max()
            .map_or(0, |m| m + 1);
        let mut payloads: HashMap<PayloadHash, String> = HashMap::new();
        for record in &records {
            if let Record::Payload { hash, line } = record {
                payloads.insert(*hash, line.clone());
            }
        }
        let recovered: Vec<RecoveredJob> = incomplete(&records)
            .into_iter()
            .map(|record| {
                let line = payloads
                    .get(&record.payload)
                    .cloned()
                    .expect("scan admits only resolvable payload references");
                RecoveredJob { record, line }
            })
            .collect();
        Ok(Journal {
            path: path.to_path_buf(),
            policy,
            sync_handle: file.try_clone()?,
            inner: Mutex::new(Inner {
                file,
                since_sync: 0,
                next_id,
                interned: payloads.into_keys().collect(),
                buf: Vec::new(),
            }),
            appended: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            bytes: AtomicU64::new(valid_len as u64),
            recovered_count: recovered.len() as u64,
            recovered: Mutex::new(recovered),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Frames and writes the body staged in `inner.buf` (12 placeholder
    /// bytes, then the body — the same layout [`encode_record`]
    /// produces, without an allocation per append). Returns whether the
    /// policy owes an fsync for this record; the caller issues it via
    /// [`Journal::sync_after_write`] **after** releasing the lock.
    fn write_frame(&self, inner: &mut Inner) -> io::Result<bool> {
        let len = (inner.buf.len() - 12) as u32;
        let sum = checksum(&inner.buf[12..]);
        inner.buf[..4].copy_from_slice(&len.to_le_bytes());
        inner.buf[4..12].copy_from_slice(&sum.to_le_bytes());
        inner.file.write_all(&inner.buf)?;
        self.bytes
            .fetch_add(inner.buf.len() as u64, Ordering::Relaxed);
        Ok(match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch => {
                inner.since_sync += 1;
                if inner.since_sync >= BATCH_SYNC_EVERY {
                    inner.since_sync = 0;
                    true
                } else {
                    false
                }
            }
            FsyncPolicy::Never => false,
        })
    }

    /// Settles an fsync debt reported by [`Journal::write_frame`],
    /// outside the append lock. A concurrent appender may sync the same
    /// bytes again — harmless, and cheaper than convoying every writer
    /// behind one thread's fsync.
    fn sync_after_write(&self, owed: bool) -> io::Result<()> {
        if owed {
            self.sync_handle.sync_data()?;
        }
        Ok(())
    }

    /// Records an admission of a raw wire line, returning the
    /// journal-assigned record id that [`Journal::mark_completed`] must
    /// echo. The line is interned by content hash: the first admission
    /// with a given payload journals the blob, every later one only a
    /// small reference record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem write failures.
    pub fn append_admitted(
        &self,
        id: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
        idempotency_key: Option<&str>,
        line: &str,
    ) -> io::Result<u64> {
        self.append_admitted_interned(
            id,
            priority,
            deadline_ms,
            idempotency_key,
            line_hash(line),
            || line.to_string(),
        )
    }

    /// [`Journal::append_admitted`] with a caller-computed content
    /// hash and a lazy payload renderer: `render` runs only when the
    /// hash is not interned yet. This keeps the hot admission path
    /// from serializing a payload the journal already stores — the
    /// in-process server fingerprints parsed requests structurally
    /// (`wire::request_fingerprint`) instead of rendering them.
    ///
    /// The caller owns the hash contract: two payloads may share a
    /// hash only if their rendered lines are byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates filesystem write failures.
    pub fn append_admitted_interned<F: FnOnce() -> String>(
        &self,
        id: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
        idempotency_key: Option<&str>,
        payload: PayloadHash,
        render: F,
    ) -> io::Result<u64> {
        let mut owed = false;
        let record_id = {
            let inner = &mut *self.inner.lock().unwrap();
            if !inner.interned.contains(&payload) {
                let line = render();
                inner.buf.clear();
                inner.buf.resize(12, 0);
                inner.buf.push(KIND_PAYLOAD);
                inner.buf.extend_from_slice(&payload);
                put_str(&mut inner.buf, &line);
                owed |= self.write_frame(inner)?;
                inner.interned.insert(payload);
            }
            let record_id = inner.next_id;
            inner.next_id += 1;
            inner.buf.clear();
            inner.buf.resize(12, 0);
            inner.buf.push(KIND_ADMITTED);
            put_u64(&mut inner.buf, record_id);
            inner.buf.push(priority.lane() as u8);
            let flags =
                u8::from(deadline_ms.is_some()) | (u8::from(idempotency_key.is_some()) << 1);
            inner.buf.push(flags);
            if let Some(ms) = deadline_ms {
                put_u64(&mut inner.buf, ms);
            }
            if let Some(key) = idempotency_key {
                put_str(&mut inner.buf, key);
            }
            put_str(&mut inner.buf, id);
            inner.buf.extend_from_slice(&payload);
            owed |= self.write_frame(inner)?;
            record_id
        };
        self.sync_after_write(owed)?;
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(record_id)
    }

    /// Records that the reply for `record_id` was handed to delivery —
    /// the job will not be re-run after a crash.
    ///
    /// # Errors
    ///
    /// Propagates filesystem write failures.
    pub fn mark_completed(&self, record_id: u64) -> io::Result<()> {
        let owed = {
            let inner = &mut *self.inner.lock().unwrap();
            inner.buf.clear();
            inner.buf.resize(12, 0);
            inner.buf.push(KIND_COMPLETED);
            put_u64(&mut inner.buf, record_id);
            self.write_frame(inner)?
        };
        self.sync_after_write(owed)?;
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Forces buffered appends to stable storage regardless of policy.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `fsync` failure.
    pub fn sync(&self) -> io::Result<()> {
        self.inner.lock().unwrap().since_sync = 0;
        self.sync_handle.sync_data()
    }

    /// Drains the jobs recovered at open (admission order), each
    /// joined with its resolved payload line. The server calls this
    /// once at startup to re-enqueue them.
    pub fn take_recovered(&self) -> Vec<RecoveredJob> {
        std::mem::take(&mut *self.recovered.lock().unwrap())
    }

    /// Point-in-time counters for heartbeat/stats frames.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.appended.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            recovered: self.recovered_count,
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        if self.policy != FsyncPolicy::Never {
            if let Ok(inner) = self.inner.get_mut() {
                let _ = inner.file.sync_data();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static UNIQUE: AtomicU32 = AtomicU32::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("splitd-journal-{tag}-{}-{n}", std::process::id()))
    }

    fn line_for(id: &str) -> String {
        format!("{{\"v\":1,\"type\":\"request\",\"id\":\"{id}\"}}")
    }

    fn payload_record(id: &str) -> Record {
        let line = line_for(id);
        Record::Payload {
            hash: line_hash(&line),
            line,
        }
    }

    fn admitted(record_id: u64, id: &str, key: Option<&str>) -> AdmittedRecord {
        AdmittedRecord {
            record_id,
            id: id.to_string(),
            priority: Priority::Normal,
            deadline_ms: None,
            idempotency_key: key.map(str::to_string),
            payload: line_hash(&line_for(id)),
        }
    }

    fn image(records: &[Record]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for record in records {
            bytes.extend_from_slice(&encode_record(record));
        }
        bytes
    }

    #[test]
    fn records_round_trip_through_encode_and_scan() {
        let records = vec![
            payload_record("r0"),
            Record::Admitted(AdmittedRecord {
                record_id: 0,
                id: "r0".into(),
                priority: Priority::High,
                deadline_ms: Some(250),
                idempotency_key: Some("key-0".into()),
                payload: line_hash(&line_for("r0")),
            }),
            Record::Completed { record_id: 0 },
            payload_record("r1"),
            Record::Admitted(admitted(1, "r1", None)),
        ];
        let outcome = scan(&image(&records)).expect("valid image");
        assert_eq!(outcome.records, records);
        assert_eq!(outcome.truncated, 0);
    }

    #[test]
    fn hasher_separates_domains_and_boundaries() {
        assert_eq!(line_hash("payload"), line_hash("payload"));
        assert_ne!(line_hash("payload"), line_hash("payloae"));
        let mut ab_c = PayloadHasher::new(DOMAIN_LINE);
        ab_c.bytes(b"ab");
        ab_c.bytes(b"c");
        let mut a_bc = PayloadHasher::new(DOMAIN_LINE);
        a_bc.bytes(b"a");
        a_bc.bytes(b"bc");
        assert_ne!(
            ab_c.finish(),
            a_bc.finish(),
            "length prefixes keep strings apart"
        );
        let mut other_domain = PayloadHasher::new(DOMAIN_REQUEST);
        other_domain.bytes(b"payload");
        assert_ne!(
            line_hash("payload"),
            other_domain.finish(),
            "domains never alias"
        );
    }

    #[test]
    fn incomplete_preserves_admission_order() {
        let records = vec![
            payload_record("a"),
            Record::Admitted(admitted(0, "a", None)),
            payload_record("b"),
            Record::Admitted(admitted(1, "b", Some("kb"))),
            payload_record("c"),
            Record::Admitted(admitted(2, "c", None)),
            Record::Completed { record_id: 1 },
        ];
        let pending = incomplete(&records);
        assert_eq!(
            pending.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["a", "c"],
            "completed jobs drop out, order of the rest is admission order"
        );
    }

    #[test]
    fn bad_magic_and_version_mismatch_are_typed_errors() {
        assert!(matches!(
            scan(b"not a journal"),
            Err(JournalError::BadMagic(_))
        ));
        assert!(matches!(scan(&MAGIC[..6]), Err(JournalError::BadMagic(_))));
        // a version 1 journal (pre edge-sum handles) is refused too
        for version in [1, 99] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&u32::to_le_bytes(version));
            assert!(matches!(
                scan(&bytes),
                Err(JournalError::VersionMismatch {
                    found,
                    expected: FORMAT_VERSION
                }) if found == version
            ));
        }
    }

    #[test]
    fn corrupt_record_truncates_to_the_last_valid_one() {
        let records = vec![
            payload_record("a"),
            Record::Admitted(admitted(0, "a", None)),
            payload_record("b"),
            Record::Admitted(admitted(1, "b", None)),
        ];
        let mut bytes = image(&records);
        // flip one byte inside the third record's (payload "b") body
        let keep: usize = records[..2]
            .iter()
            .map(|r| encode_record(r).len())
            .sum::<usize>()
            + HEADER_LEN;
        bytes[keep + 20] ^= 0xFF;
        let outcome = scan(&bytes).expect("header is fine");
        assert_eq!(outcome.records, records[..2]);
        assert_eq!(outcome.valid_len, keep);
        assert!(outcome.truncated > 0);
    }

    #[test]
    fn dangling_payload_reference_truncates_the_scan() {
        let records = vec![
            payload_record("a"),
            Record::Admitted(admitted(0, "a", None)),
            // admitted "b" without its payload record: structural damage
            Record::Admitted(admitted(1, "b", None)),
        ];
        let outcome = scan(&image(&records)).expect("header is fine");
        assert_eq!(outcome.records, records[..2]);
        assert!(outcome.truncated > 0, "the dangling reference is torn tail");
    }

    #[test]
    fn identical_payloads_are_interned_once_even_across_reopen() {
        let path = temp_path("intern");
        {
            let journal = Journal::open(&path, FsyncPolicy::Never).expect("fresh journal");
            journal
                .append_admitted("a", Priority::Normal, None, None, "same-line")
                .unwrap();
            journal
                .append_admitted("b", Priority::Normal, None, None, "same-line")
                .unwrap();
            journal
                .append_admitted("c", Priority::Normal, None, None, "other-line")
                .unwrap();
        }
        {
            // the reopened journal rebuilds the intern set from the file
            let journal = Journal::open(&path, FsyncPolicy::Never).expect("reopen");
            for rec in journal.take_recovered() {
                journal.mark_completed(rec.record.record_id).unwrap();
            }
            journal
                .append_admitted("d", Priority::Normal, None, None, "same-line")
                .unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let outcome = scan(&bytes).expect("clean image");
        let payloads: Vec<&str> = outcome
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Payload { line, .. } => Some(line.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            payloads,
            ["same-line", "other-line"],
            "one blob per distinct payload"
        );
        let admissions = outcome
            .records
            .iter()
            .filter(|r| matches!(r, Record::Admitted(_)))
            .count();
        assert_eq!(
            admissions, 4,
            "every admission got its own reference record"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_a_torn_tail_and_recovers_incomplete_jobs() {
        let path = temp_path("torn");
        {
            let journal = Journal::open(&path, FsyncPolicy::Always).expect("fresh journal");
            let a = journal
                .append_admitted("a", Priority::Normal, None, None, "line-a")
                .unwrap();
            journal
                .append_admitted("b", Priority::High, Some(7), Some("kb"), "line-b")
                .unwrap();
            journal.mark_completed(a).unwrap();
        }
        // tear the file mid-record: append half of a third admission
        let torn = encode_record(&Record::Admitted(admitted(2, "c", None)));
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&torn[..torn.len() / 2]).unwrap();
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        let journal = Journal::open(&path, FsyncPolicy::Batch).expect("reopen");
        let recovered = journal.take_recovered();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].record.id, "b");
        assert_eq!(recovered[0].record.priority, Priority::High);
        assert_eq!(recovered[0].record.deadline_ms, Some(7));
        assert_eq!(recovered[0].record.idempotency_key.as_deref(), Some("kb"));
        assert_eq!(
            recovered[0].line, "line-b",
            "the payload reference resolves"
        );
        assert_eq!(journal.stats().recovered, 1);
        assert!(
            std::fs::metadata(&path).unwrap().len() < full_len,
            "torn tail was truncated on open"
        );
        // ids keep growing past everything the file ever mentioned
        let next = journal
            .append_admitted("d", Priority::Low, None, None, "line-d")
            .unwrap();
        assert_eq!(next, 2);
        drop(journal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_on_a_foreign_file_is_a_typed_error_not_a_panic() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"{\"this\":\"is json, not a journal\"}").unwrap();
        match Journal::open(&path, FsyncPolicy::Batch) {
            Err(JournalError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    mod torn_prefix {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // The recovery contract, stated as a property: cut a valid
            // journal at ANY byte and the scan recovers exactly the
            // records that were fully written before the cut — no
            // panic, no invented record, no lost complete record. The
            // payload space is deliberately tiny (token % 4) so most
            // admissions reference an already-interned blob, exercising
            // both blob+reference pairs and bare references.
            #[test]
            fn any_byte_prefix_recovers_exactly_the_full_records(
                (specs, cut_permille) in (
                    proptest::collection::vec(
                        // (name token, lane, key?, completed?) per record
                        (0u64..1 << 32, 0u8..3, 0u8..2, 0u8..2),
                        1..8
                    ),
                    0u32..1001
                )
            ) {
                let mut records = Vec::new();
                let mut interned: std::collections::HashSet<PayloadHash> =
                    std::collections::HashSet::new();
                for (i, (token, lane, has_key, complete)) in specs.iter().enumerate() {
                    let line = format!("{{\"p\":{}}}", token % 4);
                    let hash = line_hash(&line);
                    if interned.insert(hash) {
                        records.push(Record::Payload { hash, line });
                    }
                    records.push(Record::Admitted(AdmittedRecord {
                        record_id: i as u64,
                        id: format!("id-{token:x}"),
                        priority: Priority::from_lane(*lane).unwrap(),
                        deadline_ms: (i % 2 == 0).then_some(i as u64 * 10),
                        idempotency_key: (*has_key == 1).then(|| format!("key-{token:x}")),
                        payload: hash,
                    }));
                    if *complete == 1 {
                        records.push(Record::Completed { record_id: i as u64 });
                    }
                }
                let bytes = image(&records);
                let cut = HEADER_LEN
                    + (bytes.len() - HEADER_LEN) * cut_permille as usize / 1000;
                let outcome = scan(&bytes[..cut]).expect("header intact");
                // expected: the records whose framed bytes fit entirely
                // before the cut
                let mut expect = Vec::new();
                let mut pos = HEADER_LEN;
                for record in &records {
                    pos += encode_record(record).len();
                    if pos <= cut {
                        expect.push(record.clone());
                    } else {
                        break;
                    }
                }
                prop_assert_eq!(&outcome.records, &expect);
                prop_assert_eq!(outcome.valid_len + outcome.truncated, cut);
            }
        }
    }
}
