//! The interned-instance store: everything `splitd` keeps per uploaded
//! instance, under one lock. Each content hash maps to an entry that
//! owns the `Arc<Instance>` and its held solutions (by policy
//! fingerprint); the store also owns the held-solution LRU clock and
//! count, and the journal state records no compaction has folded yet.
//! Every lifecycle transition is one method, so a mutate moves one entry
//! and a release drops one.

use crate::journal::{Journal, PayloadHash};
use crate::server::ServerConfig;
use crate::wire::{self, ClientFrame, Priority};
use splitgraph::delta::EdgeDelta;
use splitting_api::{ApiError, HeldSolution, Instance};
use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A held solution plus the edge deltas `mutate` frames applied to its
/// instance since the last solve; the next handle solve with the same
/// policy drains them through incremental repair.
pub(crate) struct HeldEntry {
    pub(crate) held: HeldSolution,
    pub(crate) pending: Vec<EdgeDelta>,
    /// Recency stamp; the smallest is the LRU victim at capacity.
    last_used: u64,
}

impl HeldEntry {
    pub(crate) fn new(held: HeldSolution) -> Self {
        HeldEntry {
            held,
            pending: Vec::new(),
            last_used: 0,
        }
    }
}

struct Entry {
    instance: Arc<Instance>,
    /// Held solutions keyed by policy fingerprint.
    held: HashMap<PayloadHash, HeldEntry>,
}

/// A keyed mutate's `mutated` reply, carried by its state record so
/// compaction can re-journal it.
#[derive(Clone)]
struct KeyedReply {
    key: String,
    payload: String,
    /// Re-journaled by an earlier compaction, so carried on only while
    /// the idempotency cache still holds the key.
    carried: bool,
}

/// A held solution's key: instance hash and policy fingerprint.
pub(crate) type HeldKey = (PayloadHash, PayloadHash);

/// Where a transition's state record comes from.
#[derive(Clone, Copy)]
pub(crate) enum Origin<'a> {
    /// A live frame: `line` is journaled under `id` if it applies.
    Live { id: &'a str, line: &'a str },
    /// Journal replay of this record id, kept whether or not it applies.
    Replay(u64),
}

#[derive(Default)]
pub(crate) struct InstanceStore {
    entries: HashMap<PayloadHash, Entry>,
    /// Held solutions in all entries (checked-out ones excluded).
    held_count: usize,
    held_capacity: usize,
    tick: u64,
    /// Outstanding state records (upload / mutate / release, and
    /// re-journaled replies), in journal order.
    records: Vec<(u64, Option<KeyedReply>)>,
    /// `mutate` frames applied, journal replays included.
    pub(crate) mutations: u64,
    journal: Option<Arc<Journal>>,
    compact_threshold: usize,
}

fn invalid(field: &'static str, reason: String) -> ApiError {
    ApiError::InvalidRequest { field, reason }
}

impl InstanceStore {
    pub(crate) fn new(config: &ServerConfig) -> Self {
        InstanceStore {
            journal: config.journal.clone(),
            held_capacity: config.held_capacity,
            compact_threshold: config.journal_compact_threshold,
            ..Self::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Journals a live transition that applied, and keeps its record
    /// (or a replayed one) outstanding until compaction folds it. An
    /// append failure degrades durability, never availability.
    fn record(&mut self, origin: Origin<'_>, applied: bool, reply: Option<(&str, &str)>) {
        let id = match (origin, &self.journal) {
            (Origin::Replay(id), _) => Some(id),
            (Origin::Live { id, line }, Some(journal)) if applied => {
                let key = reply.map(|(key, _)| key);
                let appended = journal.append_admitted(id, Priority::Normal, None, key, line);
                appended.ok()
            }
            _ => None,
        };
        if let (Some(id), true) = (id, self.compact_threshold > 0) {
            let reply = reply.map(|(key, payload)| KeyedReply {
                key: key.to_owned(),
                payload: payload.to_owned(),
                carried: false,
            });
            self.records.push((id, reply));
        }
    }

    /// Applies a state frame and returns its reply payload: `upload`,
    /// `release`, `mutate`, or (`frame` = `None`, on replay) a keyed
    /// `mutated` reply a compaction re-journaled. A live frame is
    /// journaled when it applies; a replayed record stays outstanding
    /// until compaction folds it, whether it applies or not (a mutate
    /// that failed live fails identically on replay).
    pub(crate) fn apply(
        &mut self,
        frame: Option<&ClientFrame>,
        mut body: wire::Body,
        line: &str,
        key: Option<&str>,
        origin: Origin<'_>,
    ) -> Result<String, ApiError> {
        let outcome = match frame {
            Some(ClientFrame::Upload { .. }) => {
                wire::build_instance(line, &mut body).map(|instance| self.intern(instance))
            }
            Some(ClientFrame::Release { handle, .. }) => self.release(handle),
            Some(ClientFrame::Mutate { handle, .. }) => {
                let edits = body.edits(line);
                edits.and_then(|(inserts, deletes)| self.mutate(handle, &inserts, &deletes))
            }
            _ => wire::split_reply(line)
                .filter(|r| r.frame_type == "mutated")
                .and_then(|r| r.payload.map(str::to_owned))
                .ok_or_else(|| invalid("frame", "not a state record".to_owned())),
        };
        self.record(origin, outcome.is_ok(), key.zip(outcome.as_deref().ok()));
        outcome
    }

    /// Interns an instance under its content hash, so re-uploading the
    /// same content lands on the same entry and handle.
    fn intern(&mut self, instance: Instance) -> String {
        let hash = wire::instance_fingerprint(&instance);
        let entry = self.entries.entry(hash).or_insert_with(|| Entry {
            instance: Arc::new(instance),
            held: HashMap::new(),
        });
        let instance = Arc::clone(&entry.instance);
        wire::uploaded_payload(&wire::render_handle(hash), &instance, self.len())
    }

    /// The entry `handle` names, or the typed unknown-handle error.
    fn lookup(&self, handle: &str) -> Result<(PayloadHash, &Entry), ApiError> {
        let entry = |hash| Some((hash, self.entries.get(&hash)?));
        wire::parse_handle(handle).and_then(entry).ok_or_else(|| {
            let reason = format!("unknown instance handle \"{handle}\"; upload it first");
            invalid("handle", reason)
        })
    }

    /// The instance `handle` names, shared.
    pub(crate) fn resolve(&self, handle: &str) -> Result<Arc<Instance>, ApiError> {
        self.lookup(handle).map(|(_, e)| Arc::clone(&e.instance))
    }

    /// Validates a mutate's edits against the instance under `handle`,
    /// patches it copy-on-write, and moves the entry to the new content
    /// hash with the delta pending on each held solution. A batch that
    /// fails validation leaves the entry untouched. The new hash comes
    /// from the old one and the edits ([`wire::patched_fingerprint`]),
    /// so nothing here scans the graph.
    ///
    /// [`Arc::make_mut`] deep-copies the instance only while another
    /// owner (an admitted solve) shares it, so that owner keeps the
    /// pre-patch graph; an unshared one is patched in place in
    /// `O(edits)`. If the patched content is already interned, the entry
    /// merges into it: the interned instance stays, and the moved held
    /// solutions replace same-policy ones.
    fn mutate(
        &mut self,
        handle: &str,
        inserts: &[(usize, usize)],
        deletes: &[(usize, usize)],
    ) -> Result<String, ApiError> {
        let (hash, existing) = self.lookup(handle)?;
        let Instance::Bipartite(b) = &*existing.instance else {
            let kind = existing.instance.kind();
            let reason =
                format!("mutate targets a bipartite instance; \"{handle}\" holds a {kind}");
            return Err(invalid("handle", reason));
        };
        let delta =
            EdgeDelta::new(b, inserts, deletes).map_err(|e| invalid("delta", e.to_string()))?;
        let mut entry = self.entries.remove(&hash).expect("looked up above");
        let Instance::Bipartite(graph) = Arc::make_mut(&mut entry.instance) else {
            unreachable!("checked bipartite above");
        };
        delta.apply(graph).expect("validated against this graph");
        let edges = graph.edge_count();
        let new_hash = wire::patched_fingerprint(hash, &delta);
        debug_assert_eq!(new_hash, wire::instance_fingerprint(&entry.instance));
        self.mutations += 1;
        for held in entry.held.values_mut() {
            held.pending.push(delta.clone());
        }
        match self.entries.entry(new_hash) {
            Slot::Vacant(slot) => {
                slot.insert(entry);
            }
            Slot::Occupied(slot) => {
                let target = slot.into_mut();
                for (policy, held) in entry.held {
                    if target.held.insert(policy, held).is_some() {
                        self.held_count -= 1;
                    }
                }
            }
        }
        let (ins, del, held) = (delta.inserts().len(), delta.deletes().len(), self.len());
        let to = wire::render_handle(new_hash);
        Ok(wire::mutated_payload(handle, &to, ins, del, edges, held))
    }

    /// Drops the entry under `handle`, instance and held solutions.
    /// Solves that already resolved the handle keep their `Arc`.
    fn release(&mut self, handle: &str) -> Result<String, ApiError> {
        let Some(entry) = wire::parse_handle(handle).and_then(|hash| self.entries.remove(&hash))
        else {
            let reason = format!("unknown instance handle \"{handle}\"");
            return Err(invalid("handle", reason));
        };
        self.held_count -= entry.held.len();
        Ok(wire::released_payload(handle, self.len()))
    }

    /// Takes a held solution out, so no second worker repairs it too.
    pub(crate) fn checkout(&mut self, (hash, policy): HeldKey) -> Option<HeldEntry> {
        let held = self.entries.get_mut(&hash)?.held.remove(&policy)?;
        self.held_count -= 1;
        Some(held)
    }

    /// Puts a held solution (back). It is dropped when `hash` no longer
    /// resolves: the instance was released, or mutated while the
    /// solution was checked out, which then missed that delta. At
    /// capacity the least-recently-used solution is evicted, so adoption
    /// is never refused.
    pub(crate) fn checkin(&mut self, (hash, policy): HeldKey, mut held: HeldEntry) {
        if self.held_capacity == 0 || !self.entries.contains_key(&hash) {
            return;
        }
        held.last_used = self.tick;
        self.tick += 1;
        if self.held_count >= self.held_capacity && !self.entries[&hash].held.contains_key(&policy)
        {
            let stamps = self
                .entries
                .iter()
                .flat_map(|(h, e)| e.held.iter().map(move |(p, held)| (held.last_used, *h, *p)));
            if let Some((_, h, p)) = stamps.min() {
                self.entries.get_mut(&h).and_then(|e| e.held.remove(&p));
                self.held_count -= 1;
            }
        }
        let entry = self.entries.get_mut(&hash).expect("checked above");
        if entry.held.insert(policy, held).is_none() {
            self.held_count += 1;
        }
    }

    /// Whether compaction is due: the state records, not counting
    /// replies an earlier compaction re-journaled, number at least the
    /// threshold and at least twice the live table (so many handles and
    /// few mutations do not re-snapshot on every record).
    pub(crate) fn compact_due(&self) -> bool {
        let carried = |r: &&(u64, Option<KeyedReply>)| r.1.as_ref().is_some_and(|r| r.carried);
        let history = self.records.len() - self.records.iter().filter(carried).count();
        self.compact_threshold > 0
            && history >= self.compact_threshold
            && history >= 2 * self.entries.len()
    }

    /// Once [`compact_due`](Self::compact_due), re-journals every live
    /// instance as a synthetic `upload` (a snapshot of the table) and
    /// every kept keyed mutate reply as a `mutated` frame under its key,
    /// then marks the superseded records completed. Recovery replays the
    /// snapshot instead of every mutation ever applied, and a keyed
    /// mutate still replays its reply. A reply is kept when its mutate is
    /// among the folded records, or when its key is still in `cached`
    /// (the idempotency cache's `mutated` keys).
    ///
    /// Crash-safe at every step: every append lands before any
    /// completion, and until the completions land, replay applies both
    /// history and snapshot, which converge (upload replay is idempotent,
    /// and a replayed mutate of an already-moved hash fails silently).
    pub(crate) fn compact(&mut self, cached: &HashSet<String>) {
        let Some(journal) = self.journal.clone().filter(|_| self.compact_due()) else {
            return;
        };
        let replies = self.records.iter().filter_map(|(_, reply)| reply.clone());
        let replies: Vec<_> = replies
            .filter(|r| !r.carried || cached.contains(&r.key))
            .map(|r| {
                let kind = wire::ReplyKind::Mutated;
                let line = wire::reply_frame(kind, "snapshot", 0, None, false, &r.payload);
                (line, Some(KeyedReply { carried: true, ..r }))
            })
            .collect();
        let upload = |e: &Entry| (wire::render_upload("snapshot", &e.instance), None);
        let mut snapshot = Vec::new();
        for (line, reply) in self.entries.values().map(upload).chain(replies) {
            let key = reply.as_ref().map(|r: &KeyedReply| r.key.as_str());
            let Ok(id) = journal.append_admitted("snapshot", Priority::Normal, None, key, &line)
            else {
                // partial snapshot: keep the full history *and* what was
                // appended (harmless duplicates on replay), retry later
                return self.records.extend(snapshot);
            };
            snapshot.push((id, reply));
        }
        for (id, _) in std::mem::replace(&mut self.records, snapshot) {
            let _ = journal.mark_completed(id);
        }
    }

    /// Every `(instance hash, policy)` with a held solution.
    #[cfg(test)]
    pub(crate) fn held_keys(&self) -> Vec<(PayloadHash, PayloadHash)> {
        let entries = self.entries.iter();
        entries
            .flat_map(|(h, e)| e.held.keys().map(move |p| (*h, *p)))
            .collect()
    }
}
