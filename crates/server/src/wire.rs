//! The JSON-line wire codec: frame schemas, the frame scan and build
//! steps, the client-side request renderer, and the reply-frame
//! assemblers.
//!
//! The protocol is specified in `docs/PROTOCOL.md`; a doc-sync test
//! (`tests/protocol_doc.rs`) pins every worked example there to the real
//! output of this module, so the spec cannot drift from the code.
//!
//! Wire failures are reported through the same closed
//! [`ApiError`] taxonomy the in-process boundary uses: malformed frames
//! map to `invalid-request`, admission refusals to `overloaded`. The
//! embedded solution payload of a reply frame is byte-for-byte
//! [`Solution::to_json_line`](splitting_api::Solution::to_json_line) —
//! the server adds an envelope, never re-renders.

use crate::json::{self, Fields, Number};
use degree_split::Engine;
use local_runtime::splitmix64;
use splitgraph::delta::EdgeDelta;
use splitgraph::{BipartiteGraph, Graph, MultiGraph};
use splitting_api::render::JsonObject;
use splitting_api::{ApiError, Instance, Pipeline, Problem, Request};
use splitting_reductions::EdgeSplitEngine;
use std::sync::Arc;

/// The wire protocol version this build speaks. Every frame carries
/// `"v":1`; other versions are rejected with a typed error.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on the `id` field, in bytes.
pub const MAX_ID_BYTES: usize = 128;

/// Scheduling priority of a request. Workers always drain `high` before
/// `normal` before `low`; within one lane, requests run in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Served only when the other lanes are empty.
    Low,
}

impl Priority {
    /// Number of priority lanes.
    pub const COUNT: usize = 3;

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// The queue lane index (0 = most urgent).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// The envelope of a request frame: everything admission control needs,
/// validated before the problem or the instance is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Client-chosen request id, echoed on the reply frame.
    pub id: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Optional wall-clock budget (ms, counted from admission). The
    /// frame scan surfaces it so the queue can expire jobs without
    /// building their requests.
    pub deadline_ms: Option<u64>,
    /// Optional client-supplied idempotency key. A request whose key
    /// matches an already-completed one is answered from the reply
    /// cache, flagged `"replayed":true`, instead of being solved twice
    /// — the retry-after-reconnect contract (see `docs/PROTOCOL.md`
    /// § Durability and idempotency). Absent key = no caching.
    pub idempotency_key: Option<String>,
    /// Optional instance handle (32-hex, see [`render_handle`]). When
    /// set, the frame carries no inline `instance`; the server resolves
    /// the handle against its interned-instance table at admission.
    /// Exactly one of handle / inline instance is present — the frame
    /// scan enforces the exclusion.
    pub handle: Option<String>,
}

/// One scanned client frame, classified by `type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// A `request` frame (built by [`build_request`] — in a worker for
    /// an inline instance, at ingest for a handle).
    Request(Envelope),
    /// An `upload` frame: intern the carried instance server-side and
    /// reply with its handle (built by [`build_instance`]).
    Upload {
        /// Echoed id.
        id: String,
    },
    /// A `release` frame: drop an interned instance.
    Release {
        /// Echoed id.
        id: String,
        /// The 32-hex handle to drop (format-validated by the scan).
        handle: String,
    },
    /// A `mutate` frame: apply an edge-delta batch to an interned
    /// bipartite instance and reply with its re-derived handle (edit
    /// lists read by [`Body::edits`]).
    Mutate {
        /// Echoed id.
        id: String,
        /// The 32-hex handle of the instance to patch.
        handle: String,
        /// Optional client retry token: a mutate whose key matches an
        /// already-delivered `mutated` reply replays it from the cache
        /// instead of re-patching (the handle has already moved, so a
        /// blind retry would otherwise fail `unknown instance handle`).
        idempotency_key: Option<String>,
    },
    /// A `ping` frame; the server replies with a heartbeat.
    Ping {
        /// Echoed id ("" when the ping carried none).
        id: String,
    },
    /// A `shutdown` frame; the server drains and closes the stream.
    Shutdown,
}

fn invalid(field: &'static str, reason: impl Into<String>) -> ApiError {
    ApiError::InvalidRequest {
        field,
        reason: reason.into(),
    }
}

const REQUEST_KEYS: &[&str] = &[
    "v",
    "type",
    "id",
    "priority",
    "problem",
    "instance",
    "determinism",
    "seed",
    "force_pipeline",
    "max_rounds",
    "attempts",
    "deadline_ms",
    "idempotency_key",
    "handle",
];
const UPLOAD_KEYS: &[&str] = &["v", "type", "id", "instance"];
const RELEASE_KEYS: &[&str] = &["v", "type", "id", "handle"];
const MUTATE_KEYS: &[&str] = &[
    "v",
    "type",
    "id",
    "handle",
    "inserts",
    "deletes",
    "idempotency_key",
];
const PING_KEYS: &[&str] = &["v", "type", "id"];
const SHUTDOWN_KEYS: &[&str] = &["v", "type"];

fn check_version(f: Fields<'_>) -> Result<(), ApiError> {
    let Some(raw) = f.raw("v") else {
        return Err(invalid(
            "v",
            format!("missing protocol version; send \"v\":{PROTOCOL_VERSION}"),
        ));
    };
    match f.number("v") {
        Ok(Some(v)) if v.as_u64() == Some(PROTOCOL_VERSION) => Ok(()),
        _ => Err(invalid(
            "v",
            format!("unsupported protocol version {raw}; this server speaks v{PROTOCOL_VERSION}"),
        )),
    }
}

fn parse_id(f: Fields<'_>) -> Result<String, ApiError> {
    let id = f
        .str("id")
        .map_err(|_| invalid("id", "id must be a JSON string"))?
        .ok_or_else(|| invalid("id", "request frames must carry a client-chosen id"))?;
    if id.is_empty() {
        return Err(invalid("id", "id must be non-empty"));
    }
    if id.len() > MAX_ID_BYTES {
        return Err(invalid(
            "id",
            format!("id exceeds {MAX_ID_BYTES} bytes ({} given)", id.len()),
        ));
    }
    Ok(id)
}

fn parse_priority(f: Fields<'_>) -> Result<Priority, ApiError> {
    let Some(s) = f
        .str("priority")
        .map_err(|_| invalid("priority", "priority must be a JSON string"))?
    else {
        return Ok(Priority::Normal);
    };
    Priority::parse(&s).ok_or_else(|| {
        invalid(
            "priority",
            format!("unknown priority \"{s}\"; use high, normal, or low"),
        )
    })
}

/// Parses the `"idempotency_key"` field (shared by request and mutate
/// frames): a non-empty JSON string of at most [`MAX_ID_BYTES`] bytes.
fn parse_idempotency_key(f: Fields<'_>) -> Result<Option<String>, ApiError> {
    let Some(key) = f
        .str("idempotency_key")
        .map_err(|_| invalid("idempotency_key", "must be a JSON string"))?
    else {
        return Ok(None);
    };
    if key.is_empty() {
        return Err(invalid(
            "idempotency_key",
            "must be non-empty (omit the field for no idempotency)",
        ));
    }
    if key.len() > MAX_ID_BYTES {
        return Err(invalid(
            "idempotency_key",
            format!("exceeds {MAX_ID_BYTES} bytes ({} given)", key.len()),
        ));
    }
    Ok(Some(key))
}

/// Byte range of a key or value within a scanned frame line.
type Span = json::Span;

/// Moves a decode error's offset from the line into the text that
/// starts at `base` (the instance object, or an edit list).
fn relative(mut e: json::ParseError, base: usize) -> json::ParseError {
    e.offset -= base;
    e
}

/// What [`scan`] read beyond the envelope: field spans into the scanned
/// line, and the frame's edge lists, already decoded. A decode error is
/// kept here, not raised by the scan, so the build steps —
/// [`build_request`], [`build_instance`], [`Body::edits`] — report it
/// where a strict parse would: after `problem`, `kind`, and
/// unknown-field errors. Owned (spans, not slices), so an admitted
/// request carries it from ingest to the worker next to its line.
#[derive(Debug, Default)]
pub struct Body {
    fields: Vec<(Span, Span)>,
    /// The `problem` object's own fields, when the value is an object
    /// that repeats no key.
    problem: Option<Vec<(Span, Span)>>,
    /// The `instance` object's own fields; `Err` when the value is not
    /// an object or repeats a key.
    instance: Option<Result<Vec<(Span, Span)>, json::ParseError>>,
    /// The instance's `edges`.
    edges: Option<Result<json::EdgeList, json::ParseError>>,
    /// A mutate's `inserts`.
    inserts: Option<Result<json::EdgeList, json::ParseError>>,
    /// A mutate's `deletes`.
    deletes: Option<Result<json::EdgeList, json::ParseError>>,
}

impl Body {
    /// The frame's top-level fields.
    fn fields<'a>(&'a self, line: &'a str) -> Fields<'a> {
        Fields::new(line, &self.fields)
    }

    /// `false` when the inline instance's edge list spelled some
    /// endpoint non-canonically (`2.0`, `2e0`); the server counts those
    /// on its [`StatsSnapshot::parse_fallbacks`] gauge.
    pub fn canonical(&self) -> bool {
        !matches!(&self.edges, Some(Ok(list)) if !list.canonical)
    }

    /// The edit lists of a scanned `mutate` frame: `(inserts, deletes)`,
    /// each `[]` when the frame omitted the list.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] on a malformed list, with the byte
    /// offset into that list.
    pub fn edits(self, line: &str) -> Result<(EditList, EditList), ApiError> {
        let list = |key: &'static str, decoded: Option<Result<json::EdgeList, _>>| match decoded {
            None => Ok(Vec::new()),
            Some(Ok(list)) => Ok(list.pairs),
            Some(Err(e)) => {
                let base = Fields::new(line, &self.fields)
                    .span(key)
                    .map_or(0, |v| v.start);
                Err(invalid(
                    key,
                    format!("malformed edit list: {}", relative(e, base)),
                ))
            }
        };
        Ok((
            list("inserts", self.inserts)?,
            list("deletes", self.deletes)?,
        ))
    }
}

/// Reads one client frame — the only way a frame is read, live and on
/// journal recovery. One cursor pass splits the top-level object, the
/// `problem` object and the `instance` object into field spans, and
/// decodes in place the edge lists the protocol carries (an inline
/// instance's `edges`, a mutate's `inserts` and `deletes`); then the
/// frame is classified and its envelope validated (`v`, `type`, `id`,
/// `priority`, key-set strictness). The problem and the instance wait
/// for a build step, so a body error comes back as a typed error frame
/// under the envelope's id.
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] for anything that is not a structurally
/// valid v1 client frame.
pub fn scan(line: &str) -> Result<(ClientFrame, Body), ApiError> {
    let mut body = Body::default();
    let fields = json::Cursor::new(line)
        .object(|c, key| {
            let list = match key {
                // a problem that is not an object is skipped like any
                // value; the build step reports it
                "problem" if c.peek() == Some(b'{') => {
                    body.problem = c.nested_object(0, |_, _| Ok(false))?.ok();
                    return Ok(true);
                }
                "instance" => {
                    let edges = &mut body.edges;
                    body.instance = Some(c.nested_object(0, |c, key| {
                        if key != "edges" {
                            return Ok(false);
                        }
                        *edges = Some(c.edge_list(1)?);
                        Ok(true)
                    })?);
                    return Ok(true);
                }
                "inserts" => &mut body.inserts,
                "deletes" => &mut body.deletes,
                _ => return Ok(false),
            };
            *list = Some(c.edge_list(0)?);
            Ok(true)
        })
        .map_err(|e| invalid("frame", format!("not a JSON object: {e}")))?;
    let frame = classify_frame(Fields::new(line, &fields))?;
    body.fields = fields;
    Ok((frame, body))
}

/// Parses the `"handle"` field: a JSON string of exactly 32 lowercase
/// hex digits (the rendering of [`instance_fingerprint`]).
fn parse_handle_field(f: Fields<'_>) -> Result<Option<String>, ApiError> {
    let Some(handle) = f
        .str("handle")
        .map_err(|_| invalid("handle", "must be a JSON string"))?
    else {
        return Ok(None);
    };
    if parse_handle(&handle).is_none() {
        return Err(invalid(
            "handle",
            format!("\"{handle}\" is not a 32-digit lowercase-hex instance handle"),
        ));
    }
    Ok(Some(handle))
}

/// Parses the `"deadline_ms"` field: an unsigned integer of
/// milliseconds.
fn parse_deadline(f: Fields<'_>) -> Result<Option<u64>, ApiError> {
    let bad = || invalid("deadline_ms", "must be an unsigned integer (milliseconds)");
    f.number("deadline_ms")
        .map_err(|_| bad())?
        .map(|n| n.as_u64().ok_or_else(bad))
        .transpose()
}

/// Classifies a scanned frame and validates its envelope.
fn classify_frame(f: Fields<'_>) -> Result<ClientFrame, ApiError> {
    check_version(f)?;
    let ty = f
        .str("type")
        .map_err(|_| invalid("type", "type must be a JSON string"))?
        .ok_or_else(|| invalid("type", "missing frame type"))?;
    let allowed: &[&str] = match ty.as_str() {
        "request" => REQUEST_KEYS,
        "upload" => UPLOAD_KEYS,
        "release" => RELEASE_KEYS,
        "mutate" => MUTATE_KEYS,
        "ping" => PING_KEYS,
        "shutdown" => SHUTDOWN_KEYS,
        other => return Err(invalid(
            "type",
            format!(
                "unknown frame type \"{other}\"; use request, upload, release, mutate, ping, or shutdown"
            ),
        )),
    };
    f.only(allowed)
        .map_err(|key| invalid("frame", format!("unknown field \"{key}\" on a {ty} frame")))?;
    let has = |key: &str| f.span(key).is_some();
    match ty.as_str() {
        "request" => {
            let id = parse_id(f)?;
            let priority = parse_priority(f)?;
            let deadline_ms = parse_deadline(f)?;
            let idempotency_key = parse_idempotency_key(f)?;
            let handle = parse_handle_field(f)?;
            if !has("problem") {
                return Err(invalid("problem", "request frames must carry a problem"));
            }
            match (has("instance"), handle.is_some()) {
                (true, true) => {
                    return Err(invalid(
                        "instance",
                        "carry either an inline instance or a handle, not both",
                    ))
                }
                (false, false) => {
                    return Err(invalid(
                        "instance",
                        "request frames must carry an instance or an instance handle",
                    ))
                }
                _ => {}
            }
            Ok(ClientFrame::Request(Envelope {
                id,
                priority,
                deadline_ms,
                idempotency_key,
                handle,
            }))
        }
        "upload" => {
            let id = parse_id(f)?;
            if !has("instance") {
                return Err(invalid("instance", "upload frames must carry an instance"));
            }
            Ok(ClientFrame::Upload { id })
        }
        "release" => {
            let id = parse_id(f)?;
            let handle = parse_handle_field(f)?
                .ok_or_else(|| invalid("handle", "release frames must name the handle to drop"))?;
            Ok(ClientFrame::Release { id, handle })
        }
        "mutate" => {
            let id = parse_id(f)?;
            let handle = parse_handle_field(f)?
                .ok_or_else(|| invalid("handle", "mutate frames must name the handle to patch"))?;
            if !has("inserts") && !has("deletes") {
                return Err(invalid(
                    "frame",
                    "mutate frames must carry inserts and/or deletes",
                ));
            }
            let idempotency_key = parse_idempotency_key(f)?;
            Ok(ClientFrame::Mutate {
                id,
                handle,
                idempotency_key,
            })
        }
        "ping" => {
            let id = if has("id") {
                parse_id(f)?
            } else {
                String::new()
            };
            Ok(ClientFrame::Ping { id })
        }
        _ => Ok(ClientFrame::Shutdown),
    }
}

// ------------------------------------------------------- request parsing

/// Builds the `problem` of a scanned `request` frame. The problem object
/// gets the full strict grammar first, so a malformed byte anywhere in
/// it is reported before its fields are read, at an offset into the
/// problem text.
fn build_problem(line: &str, body: &Body) -> Result<Problem, ApiError> {
    let text = body.fields(line).raw("problem").unwrap_or_default();
    json::Cursor::new(text)
        .check()
        .map_err(|e| invalid("problem", e.to_string()))?;
    let Some(fields) = &body.problem else {
        return Err(invalid("problem", "must be a JSON object"));
    };
    let f = Fields::new(line, fields);
    let str = |key: &'static str| {
        f.str(key)
            .map_err(|t| invalid("problem", format!("{key} must be a string, got {t}")))
    };
    let number = |key: &'static str| {
        f.number(key)
            .map_err(|t| invalid("problem", format!("{key} must be a number, got {t}")))
    };
    let usize = |key: &'static str| {
        f.usize(key).map_err(|t| match t {
            "number" => invalid("problem", format!("{key} must be a non-negative integer")),
            t => invalid("problem", format!("{key} must be a number, got {t}")),
        })
    };
    let only = |allowed: &[&str]| {
        f.only(allowed)
            .map_err(|key| invalid("problem", format!("unknown field \"{key}\"")))
    };
    let name = str("name")?.ok_or_else(|| invalid("problem", "missing problem name"))?;
    match name.as_str() {
        "weak-splitting" => {
            only(&["name", "thm12_constant"])?;
            let c = number("thm12_constant")?.map_or(3.0, Number::as_f64);
            Ok(Problem::WeakSplitting { thm12_constant: c })
        }
        "weak-multicolor" => {
            only(&["name"])?;
            Ok(Problem::WeakMulticolor)
        }
        "multicolor-splitting" => {
            only(&["name", "colors", "lambda"])?;
            let colors = number("colors")?
                .and_then(Number::as_u32)
                .ok_or_else(|| invalid("problem", "colors must be an integer palette bound"))?;
            let lambda = number("lambda")?
                .ok_or_else(|| invalid("problem", "missing per-color load cap lambda"))?
                .as_f64();
            Ok(Problem::MulticolorSplitting { colors, lambda })
        }
        "uniform-splitting" => {
            only(&["name", "eps", "min_degree"])?;
            Ok(Problem::UniformSplitting {
                eps: number("eps")?.map(Number::as_f64),
                min_degree: usize("min_degree")?,
            })
        }
        "degree-splitting" => {
            only(&["name", "eps", "engine"])?;
            let eps = number("eps")?
                .ok_or_else(|| invalid("problem", "missing contract accuracy eps"))?
                .as_f64();
            let engine = match str("engine")?.as_deref() {
                None | Some("eulerian-oracle") => Engine::EulerianOracle,
                Some("walk") => Engine::Walk,
                Some(other) => {
                    return Err(invalid(
                        "problem",
                        format!("unknown engine \"{other}\"; use eulerian-oracle or walk"),
                    ))
                }
            };
            Ok(Problem::DegreeSplitting { eps, engine })
        }
        "sinkless-orientation" => {
            only(&["name"])?;
            Ok(Problem::SinklessOrientation)
        }
        "delta-coloring" => {
            only(&["name", "base_degree", "max_eps"])?;
            Ok(Problem::DeltaColoring {
                base_degree: usize("base_degree")?,
                max_eps: number("max_eps")?.map(Number::as_f64),
            })
        }
        "edge-coloring" => {
            only(&["name", "base_degree", "engine"])?;
            let engine = match str("engine")?.as_deref() {
                None | Some("eulerian") => EdgeSplitEngine::Eulerian,
                Some("walk") => EdgeSplitEngine::Walk,
                Some(other) => {
                    return Err(invalid(
                        "problem",
                        format!("unknown engine \"{other}\"; use eulerian or walk"),
                    ))
                }
            };
            Ok(Problem::EdgeColoring {
                base_degree: usize("base_degree")?,
                engine,
            })
        }
        "mis" => {
            only(&["name", "base_degree"])?;
            Ok(Problem::Mis {
                base_degree: usize("base_degree")?,
            })
        }
        other => Err(invalid("problem", format!("unknown problem \"{other}\""))),
    }
}

/// Builds the inline instance of a scanned `upload` (or inline
/// `request`) frame, taking the edge list [`scan`] decoded out of
/// `body`.
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] on the `instance` field. Byte offsets,
/// edge-list ones included, count from the instance object's first
/// byte.
pub fn build_instance(line: &str, body: &mut Body) -> Result<Instance, ApiError> {
    let base = body.fields(line).span("instance").map_or(0, |v| v.start);
    let fields = match body.instance.take() {
        Some(Ok(fields)) => fields,
        Some(Err(e)) => {
            return Err(invalid(
                "instance",
                format!("not a JSON object: {}", relative(e, base)),
            ))
        }
        None => return Err(invalid("instance", "missing instance")),
    };
    let f = Fields::new(line, &fields);
    let kind = f
        .str("kind")
        .map_err(|_| invalid("instance", "kind must be a JSON string"))?
        .ok_or_else(|| invalid("instance", "missing instance kind"))?;
    let size = |key: &'static str, missing: &'static str| {
        f.usize(key)
            .map_err(|_| invalid("instance", format!("{key} must be a non-negative integer")))?
            .ok_or_else(|| invalid("instance", missing))
    };
    let edges = body.edges.take();
    let edges = || match edges {
        Some(Ok(list)) => Ok(list.pairs),
        Some(Err(e)) => Err(invalid("instance", format!("edges: {}", relative(e, base)))),
        None => Err(invalid("instance", "missing edges array")),
    };
    let only = |allowed: &[&str]| {
        f.only(allowed).map_err(|key| {
            invalid(
                "instance",
                format!("unknown field \"{key}\" on a {kind} instance"),
            )
        })
    };
    match kind.as_str() {
        "bipartite" => {
            only(&["kind", "left", "right", "edges"])?;
            let left = size("left", "missing left (constraint count)")?;
            let right = size("right", "missing right (variable count)")?;
            let b = BipartiteGraph::from_edges(left, right, &edges()?)
                .map_err(|e| invalid("instance", e.to_string()))?;
            Ok(Instance::Bipartite(b))
        }
        "host" => {
            only(&["kind", "nodes", "edges"])?;
            let n = size("nodes", "missing node count")?;
            let g =
                Graph::from_edges(n, &edges()?).map_err(|e| invalid("instance", e.to_string()))?;
            Ok(Instance::Host(g))
        }
        "multigraph" => {
            only(&["kind", "nodes", "edges"])?;
            let n = size("nodes", "missing node count")?;
            let endpoints = edges()?;
            // from_endpoints panics on out-of-range ids; validate first so
            // malformed frames stay typed errors
            for &(a, b) in &endpoints {
                if a >= n || b >= n {
                    return Err(invalid(
                        "instance",
                        format!("edge endpoint ({a}, {b}) out of range for {n} nodes"),
                    ));
                }
            }
            Ok(Instance::Multi(MultiGraph::from_endpoints(n, endpoints)))
        }
        other => Err(invalid(
            "instance",
            format!("unknown instance kind \"{other}\"; use bipartite, host, or multigraph"),
        )),
    }
}

/// Builds the typed [`Request`] of a scanned `request` frame. A
/// handle-form frame takes `shared`, the instance its handle resolved to
/// in the server's table (structurally shared, no per-request graph
/// allocation); with `None`, the frame's inline instance is built.
/// Strict: unknown fields in the problem or instance object are typed
/// errors (typos must not silently become defaults).
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] describing the first offending field:
/// the problem, then the instance, then the policy fields.
pub fn build_request(
    line: &str,
    mut body: Body,
    shared: Option<Arc<Instance>>,
) -> Result<Request, ApiError> {
    if shared.is_none() && body.fields(line).span("handle").is_some() {
        return Err(invalid(
            "handle",
            "instance handles are resolved by the server at admission; \
             this parser needs an inline instance",
        ));
    }
    let problem = build_problem(line, &body)?;
    let mut request = match shared {
        Some(shared) => Request::from_shared(problem, shared),
        None => Request::new(problem, build_instance(line, &mut body)?),
    };
    // the policy tail: determinism, seed, pipeline override, budget
    let f = body.fields(line);
    let str = |key: &'static str| {
        f.str(key)
            .map_err(|_| invalid(key, "must be a JSON string"))
    };
    let number = |key: &'static str| {
        f.number(key)
            .map_err(|_| invalid(key, "must be a JSON number"))
    };
    match str("determinism")?.as_deref() {
        None => {}
        Some("deterministic") => request = request.deterministic(),
        Some("randomized") => request = request.randomized(),
        Some(other) => {
            return Err(invalid(
                "determinism",
                format!("unknown policy \"{other}\"; use deterministic or randomized"),
            ))
        }
    }
    if let Some(n) = number("seed")? {
        let seed = n
            .as_u64()
            .ok_or_else(|| invalid("seed", "must be an unsigned 64-bit integer"))?;
        request = request.seed(seed);
    }
    if let Some(name) = str("force_pipeline")? {
        let pipeline = [
            Pipeline::Theorem27,
            Pipeline::Theorem25,
            Pipeline::ZeroRound,
            Pipeline::Theorem12,
        ]
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| {
            invalid(
                "force_pipeline",
                format!(
                    "unknown pipeline \"{name}\"; use theorem27, theorem25, zero-round, or theorem12"
                ),
            )
        })?;
        request = request.force_pipeline(pipeline);
    }
    if let Some(n) = number("max_rounds")? {
        request = request.max_rounds(n.as_f64());
    }
    if let Some(n) = number("attempts")? {
        let attempts = n
            .as_usize()
            .ok_or_else(|| invalid("attempts", "must be a non-negative integer"))?;
        request = request.attempts(attempts);
    }
    if let Some(ms) = parse_deadline(f)? {
        request = request.deadline_ms(ms);
    }
    Ok(request)
}

/// Fully parses a `request` frame into its envelope and the typed
/// [`Request`] the in-process API solves: [`scan`], then
/// [`build_request`].
///
/// # Errors
///
/// [`ApiError::InvalidRequest`] describing the first offending field.
/// Handle-form frames are an error here: the handle table lives in the
/// server, which resolves handles at admission.
pub fn parse_request(line: &str) -> Result<(Envelope, Request), ApiError> {
    match scan(line)? {
        (ClientFrame::Request(envelope), body) => {
            let request = build_request(line, body, None)?;
            Ok((envelope, request))
        }
        (other, _) => Err(invalid(
            "type",
            format!("expected a request frame, got {other:?}"),
        )),
    }
}

// ------------------------------------------------------ request rendering

fn render_edges(out: &mut String, edges: impl Iterator<Item = (usize, usize)>) {
    out.push('[');
    let mut first = true;
    for (u, v) in edges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('[');
        out.push_str(&u.to_string());
        out.push(',');
        out.push_str(&v.to_string());
        out.push(']');
    }
    out.push(']');
}

fn render_instance(instance: &Instance) -> String {
    let mut edges_buf = String::new();
    let mut obj = JsonObject::new();
    match instance {
        Instance::Bipartite(b) => {
            render_edges(&mut edges_buf, b.edges());
            obj.string("kind", "bipartite")
                .uint("left", b.left_count() as u64)
                .uint("right", b.right_count() as u64)
                .raw("edges", &edges_buf);
        }
        Instance::Host(g) => {
            render_edges(&mut edges_buf, g.edges());
            obj.string("kind", "host")
                .uint("nodes", g.node_count() as u64)
                .raw("edges", &edges_buf);
        }
        Instance::Multi(g) => {
            render_edges(&mut edges_buf, (0..g.edge_count()).map(|e| g.endpoints(e)));
            obj.string("kind", "multigraph")
                .uint("nodes", g.node_count() as u64)
                .raw("edges", &edges_buf);
        }
    }
    obj.finish()
}

fn render_problem(problem: &Problem) -> String {
    let mut obj = JsonObject::new();
    obj.string("name", problem.name());
    match *problem {
        Problem::WeakSplitting { thm12_constant } => {
            obj.float("thm12_constant", thm12_constant);
        }
        Problem::WeakMulticolor | Problem::SinklessOrientation => {}
        Problem::MulticolorSplitting { colors, lambda } => {
            obj.uint("colors", u64::from(colors))
                .float("lambda", lambda);
        }
        Problem::UniformSplitting { eps, min_degree } => {
            if let Some(eps) = eps {
                obj.float("eps", eps);
            }
            if let Some(d) = min_degree {
                obj.uint("min_degree", d as u64);
            }
        }
        Problem::DegreeSplitting { eps, engine } => {
            obj.float("eps", eps).string(
                "engine",
                match engine {
                    Engine::EulerianOracle => "eulerian-oracle",
                    Engine::Walk => "walk",
                },
            );
        }
        Problem::DeltaColoring {
            base_degree,
            max_eps,
        } => {
            if let Some(b) = base_degree {
                obj.uint("base_degree", b as u64);
            }
            if let Some(e) = max_eps {
                obj.float("max_eps", e);
            }
        }
        Problem::EdgeColoring {
            base_degree,
            engine,
        } => {
            if let Some(b) = base_degree {
                obj.uint("base_degree", b as u64);
            }
            obj.string(
                "engine",
                match engine {
                    EdgeSplitEngine::Eulerian => "eulerian",
                    EdgeSplitEngine::Walk => "walk",
                },
            );
        }
        Problem::Mis { base_degree } => {
            if let Some(b) = base_degree {
                obj.uint("base_degree", b as u64);
            }
        }
    }
    obj.finish()
}

/// Where a rendered `request` frame's instance comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceRef<'a> {
    /// The request's own instance, serialized inline.
    Inline,
    /// An interned instance, referenced by its 32-hex handle; the
    /// server resolves it against its table at admission. The request's
    /// own instance is not serialized.
    Handle(&'a str),
}

/// Renders a [`Request`] as a canonical v1 `request` frame — the
/// client-side encoder. [`parse_request`] inverts it exactly
/// (round-trip-tested), so in-process callers can go over the wire
/// without hand-writing JSON.
pub fn render_request(id: &str, priority: Priority, request: &Request) -> String {
    render_request_with(id, priority, None, InstanceRef::Inline, request)
}

/// [`render_request`] with an optional client-supplied idempotency key
/// (rendered right after `priority`) and the instance inline or by
/// handle (the upload-once/solve-many encoder). `None` and
/// [`InstanceRef::Inline`] render exactly [`render_request`]'s frame.
pub fn render_request_with(
    id: &str,
    priority: Priority,
    idempotency_key: Option<&str>,
    instance: InstanceRef<'_>,
    request: &Request,
) -> String {
    let problem = render_problem(request.problem());
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "request")
        .string("id", id)
        .string("priority", priority.name());
    if let Some(key) = idempotency_key {
        obj.string("idempotency_key", key);
    }
    obj.raw("problem", &problem);
    match instance {
        InstanceRef::Inline => {
            obj.raw("instance", &render_instance(request.instance()));
        }
        InstanceRef::Handle(handle) => {
            obj.string("handle", handle);
        }
    }
    obj.string("determinism", request.determinism().name())
        .uint("seed", request.master_seed());
    if let Some(p) = request.pipeline_override() {
        obj.string("force_pipeline", p.name());
    }
    if let Some(r) = request.budget().max_rounds {
        obj.float("max_rounds", r);
    }
    if let Some(a) = request.budget().attempts {
        obj.uint("attempts", a as u64);
    }
    if let Some(ms) = request.budget().deadline_ms {
        obj.uint("deadline_ms", ms);
    }
    obj.finish()
}

/// Renders an `upload` frame interning `instance` server-side. The
/// reply is an `uploaded` frame carrying the handle.
pub fn render_upload(id: &str, instance: &Instance) -> String {
    let body = render_instance(instance);
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "upload")
        .string("id", id)
        .raw("instance", &body);
    obj.finish()
}

/// Renders a `release` frame dropping an interned instance.
pub fn render_release(id: &str, handle: &str) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "release")
        .string("id", id)
        .string("handle", handle);
    obj.finish()
}

/// Renders a `mutate` frame applying an edge-delta batch to an interned
/// bipartite instance, with an optional client-supplied idempotency key.
/// Empty lists are omitted (the frame must carry at least one non-empty
/// list to classify). A keyed mutate whose reply is lost can be retried
/// verbatim: the server replays the cached `mutated` frame instead of
/// failing on the already-moved handle.
pub fn render_mutate(
    id: &str,
    handle: &str,
    idempotency_key: Option<&str>,
    inserts: &[(usize, usize)],
    deletes: &[(usize, usize)],
) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "mutate")
        .string("id", id)
        .string("handle", handle);
    if let Some(key) = idempotency_key {
        obj.string("idempotency_key", key);
    }
    let mut buf = String::new();
    if !inserts.is_empty() {
        render_edges(&mut buf, inserts.iter().copied());
        obj.raw("inserts", &buf);
    }
    if !deletes.is_empty() {
        buf.clear();
        render_edges(&mut buf, deletes.iter().copied());
        obj.raw("deletes", &buf);
    }
    obj.finish()
}

/// One edit list of a `mutate` frame: `(left, right)` edge endpoints.
pub type EditList = Vec<(usize, usize)>;

/// Packs an edge (or a shape pair) into one hash word. An edge fits
/// one word in any graph that fits in memory, and the packing cannot
/// alias across edges because positions line up.
#[inline]
fn pack_edge((u, v): (usize, usize)) -> u64 {
    debug_assert!(u >> 32 == 0 && v >> 32 == 0, "node id exceeds 32 bits");
    ((u as u64) << 32) | (v as u64 & 0xFFFF_FFFF)
}

/// Keys of the two 64-bit halves of a bipartite edge's term.
const EDGE_KEY: [u64; 2] = [0x5350_4C54_4544_4745, 0xA3B1_9535_4A39_B70D];

/// A bipartite edge's term in its instance's fingerprint: two keyed
/// SplitMix64 halves of the packed edge, read as one 128-bit word.
#[inline]
fn edge_term(edge: (usize, usize)) -> u128 {
    let e = pack_edge(edge);
    let lo = splitmix64(e ^ EDGE_KEY[0]);
    let hi = splitmix64(e ^ EDGE_KEY[1]);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// 128-bit structural fingerprint of an instance's *content* — exactly
/// what [`render_request`] serializes as the `"instance"` object. Two
/// instances with equal fingerprints render byte-identical canonical
/// encodings; the hex rendering of this hash ([`render_handle`]) **is**
/// the wire-level instance handle, so re-uploading an instance is
/// idempotent by construction. Hashed in its own domain
/// ([`crate::journal::DOMAIN_INSTANCE`]) so handles can never alias
/// journal payload fingerprints.
///
/// A bipartite instance hashes as a shape term plus the wrapping
/// 128-bit sum of one term per edge, so its fingerprint depends on the
/// edge *set* only, and [`patched_fingerprint`] moves it through an edge
/// delta in `O(edits)`. Host and multigraph instances hash as one stream
/// over a kind/shape word and the packed edge list, in edge order (a
/// multigraph's edge order is significant).
pub fn instance_fingerprint(instance: &Instance) -> crate::journal::PayloadHash {
    use crate::journal;
    let mut h = journal::PayloadHasher::new(journal::DOMAIN_INSTANCE);
    match instance {
        Instance::Bipartite(b) => {
            // a tag word no host or multigraph stream starts with
            h.word(u64::MAX);
            h.word(pack_edge((b.left_count(), b.right_count())));
            let shape = u128::from_le_bytes(h.finish());
            let sum = b
                .edges()
                .fold(shape, |sum, e| sum.wrapping_add(edge_term(e)));
            return sum.to_le_bytes();
        }
        Instance::Host(g) => {
            h.word(pack_edge((1, g.node_count())));
            g.edges().for_each(|e| h.word(pack_edge(e)));
        }
        Instance::Multi(g) => {
            h.word(pack_edge((2, g.node_count())));
            (0..g.edge_count()).for_each(|e| h.word(pack_edge(g.endpoints(e))));
        }
    }
    h.finish()
}

/// The [`instance_fingerprint`] of a bipartite instance after `delta`,
/// computed from the fingerprint `hash` before it in `O(edits)`: each
/// insert adds its edge term and each delete subtracts it. Exact when
/// `delta` was validated against the instance `hash` names.
pub fn patched_fingerprint(
    hash: crate::journal::PayloadHash,
    delta: &EdgeDelta,
) -> crate::journal::PayloadHash {
    let sum = u128::from_le_bytes(hash);
    let add = |sum: u128, &e: &(usize, usize)| sum.wrapping_add(edge_term(e));
    let sub = |sum: u128, &e: &(usize, usize)| sum.wrapping_sub(edge_term(e));
    let sum = delta.inserts().iter().fold(sum, add);
    delta.deletes().iter().fold(sum, sub).to_le_bytes()
}

/// Encodes an instance fingerprint as the 32-digit lowercase-hex wire
/// handle string. [`parse_handle`] inverts it exactly.
pub fn render_handle(hash: crate::journal::PayloadHash) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(32);
    for b in hash {
        write!(s, "{b:02x}").expect("writing hex to a String cannot fail");
    }
    s
}

/// Decodes a wire handle back into the fingerprint it names. `None`
/// unless the string is exactly 32 lowercase hex digits.
pub fn parse_handle(s: &str) -> Option<crate::journal::PayloadHash> {
    let bytes = s.as_bytes();
    if bytes.len() != 32 {
        return None;
    }
    let nib = |b: u8| match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    };
    let mut hash = [0u8; 16];
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        hash[i] = nib(pair[0])? * 16 + nib(pair[1])?;
    }
    Some(hash)
}

/// 128-bit structural fingerprint of a request's *content* — exactly
/// the fields [`render_request`] serializes, minus the envelope (id,
/// priority, idempotency key). Two requests with equal fingerprints
/// render byte-identical canonical payloads, which is what lets the
/// write-ahead journal intern one payload blob for many admissions
/// without paying for a JSON rendering per admission (see
/// [`crate::journal`]). It hashes the request's [`instance_fingerprint`]
/// together with its policy (see [`request_fingerprint_from`]).
///
/// The hash is a fast non-cryptographic content address in its own
/// domain ([`crate::journal::DOMAIN_REQUEST`]); the journal trusts its
/// in-process writers, so the bar is accidental collisions, not
/// adversarial ones.
pub fn request_fingerprint(request: &Request) -> crate::journal::PayloadHash {
    request_fingerprint_from(instance_fingerprint(request.instance()), request)
}

/// [`request_fingerprint`] from the request's instance fingerprint,
/// hashed with its policy. A handle-form request's instance fingerprint
/// is its handle, so this fingerprints it in time independent of the
/// instance's size.
pub fn request_fingerprint_from(
    instance: crate::journal::PayloadHash,
    request: &Request,
) -> crate::journal::PayloadHash {
    use crate::journal;
    let mut h = journal::PayloadHasher::new(journal::DOMAIN_REQUEST);
    h.bytes(&instance);
    h.bytes(render_policy(request).as_bytes());
    h.finish()
}

/// 128-bit fingerprint of a request's *policy* — everything
/// [`request_fingerprint`] hashes except the instance. Two requests with
/// equal policy fingerprints solve identically on any given instance,
/// which is what keys the server's held-solution cache: `(instance
/// fingerprint, policy fingerprint)` identifies "the same solve" across
/// mutations that move the instance to a new content hash.
pub fn policy_fingerprint(request: &Request) -> crate::journal::PayloadHash {
    use crate::journal;
    let mut h = journal::PayloadHasher::new(journal::DOMAIN_REQUEST);
    // a fixed tag word in place of the instance keeps policy
    // fingerprints from aliasing full request fingerprints
    h.word(u64::MAX);
    h.bytes(render_policy(request).as_bytes());
    h.finish()
}

/// The request's canonical rendering with a fixed envelope and an empty
/// handle in place of the instance: the policy bytes the fingerprints
/// hash, so they agree with the renderer by construction (`-0.0` and
/// `0.0` render, and so hash, alike).
fn render_policy(request: &Request) -> String {
    render_request_with("", Priority::Normal, None, InstanceRef::Handle(""), request)
}

/// Renders a `ping` frame.
pub fn render_ping(id: &str) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION).string("type", "ping");
    if !id.is_empty() {
        obj.string("id", id);
    }
    obj.finish()
}

// -------------------------------------------------------- reply assembly

/// Per-request service timings attached to reply frames (omitted when the
/// server runs with timings disabled, e.g. for byte-reproducible streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Nanoseconds between admission and a worker picking the job up.
    pub queued_ns: u64,
    /// Nanoseconds the worker spent parsing + solving + rendering.
    pub solve_ns: u64,
}

/// What a reply frame carries. [`name`](ReplyKind::name) is both the
/// frame's `type` and the key of its embedded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// A solved request: a
    /// [`Solution::to_json_line`](splitting_api::Solution::to_json_line)
    /// payload.
    Solution,
    /// A typed error: an [`ApiError::to_json_line`] payload.
    Error,
    /// An interned instance: an [`uploaded_payload`].
    Uploaded,
    /// A dropped instance: a [`released_payload`].
    Released,
    /// A patched instance: a [`mutated_payload`].
    Mutated,
}

impl ReplyKind {
    /// The frame type, which is also the payload key.
    pub fn name(self) -> &'static str {
        match self {
            ReplyKind::Solution => "solution",
            ReplyKind::Error => "error",
            ReplyKind::Uploaded => "uploaded",
            ReplyKind::Released => "released",
            ReplyKind::Mutated => "mutated",
        }
    }
}

/// Assembles a reply frame around a rendered payload, embedded verbatim
/// as the last field so clients can slice it out byte-exactly (see
/// [`split_reply`]). `timing` is attached when the reply was queued and
/// solved; `replayed` marks a reply served from the idempotency cache,
/// which carries no timing because nothing was queued or solved.
pub fn reply_frame(
    kind: ReplyKind,
    id: &str,
    seq: u64,
    timing: Option<Timing>,
    replayed: bool,
    payload: &str,
) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", kind.name())
        .string("id", id)
        .uint("seq", seq);
    if let Some(t) = timing {
        obj.uint("queued_ns", t.queued_ns)
            .uint("solve_ns", t.solve_ns);
    }
    if replayed {
        obj.bool("replayed", true);
    }
    obj.raw(kind.name(), payload);
    obj.finish()
}

/// Renders the payload of an `uploaded` reply: the handle, the interned
/// instance's shape (so the client can sanity-check what the server
/// holds), and the table size after interning.
pub fn uploaded_payload(handle: &str, instance: &Instance, held: usize) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "uploaded").string("handle", handle);
    match instance {
        Instance::Bipartite(b) => {
            obj.string("kind", "bipartite")
                .uint("left", b.left_count() as u64)
                .uint("right", b.right_count() as u64)
                .uint("edges", b.edges().count() as u64);
        }
        Instance::Host(g) => {
            obj.string("kind", "host")
                .uint("nodes", g.node_count() as u64)
                .uint("edges", g.edge_count() as u64);
        }
        Instance::Multi(g) => {
            obj.string("kind", "multigraph")
                .uint("nodes", g.node_count() as u64)
                .uint("edges", g.edge_count() as u64);
        }
    }
    obj.uint("held", held as u64);
    obj.finish()
}

/// Renders the payload of a `released` reply: the dropped handle and
/// the table size after the drop.
pub fn released_payload(handle: &str, held: usize) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "released")
        .string("handle", handle)
        .uint("held", held as u64);
    obj.finish()
}

/// Renders the payload of a `mutated` reply: the patched handle moves
/// from `handle` to `new_handle` (handles are content hashes; the new
/// one comes from [`patched_fingerprint`]), with the edit counts applied,
/// the patched instance's edge count, and the table size.
pub fn mutated_payload(
    handle: &str,
    new_handle: &str,
    inserted: usize,
    deleted: usize,
    edges: usize,
    held: usize,
) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "mutated")
        .string("handle", handle)
        .string("new_handle", new_handle)
        .uint("inserted", inserted as u64)
        .uint("deleted", deleted as u64)
        .uint("edges", edges as u64)
        .uint("held", held as u64);
    obj.finish()
}

/// A point-in-time service snapshot, reported on heartbeat frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests solved (or typed-failed) and reported.
    pub served: u64,
    /// Requests refused admission.
    pub rejected: u64,
    /// Connections evicted for consuming replies too slowly.
    pub evicted: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Deepest the queue has been since startup.
    pub queue_high_water: usize,
    /// Jobs being solved right now.
    pub inflight: usize,
    /// Persistent worker count.
    pub workers: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Requests answered from the idempotency cache instead of solved.
    pub replayed: u64,
    /// Admissions appended to the journal since startup (0 when the
    /// server runs without `--journal`).
    pub journal_appended: u64,
    /// Current journal file size in bytes (0 without a journal).
    pub journal_bytes: u64,
    /// Incomplete jobs recovered from the journal at startup.
    pub journal_recovered: u64,
    /// Instance edge lists that used a non-canonical endpoint spelling
    /// (`2.0`, `2e0`). Canonical encodings never count, so a non-zero
    /// value means a client is sending exotic (but valid) edge
    /// spellings — the bench smoke job fails on it.
    pub parse_fallbacks: u64,
    /// Instances currently interned in the upload-handle table.
    pub handles_held: u64,
    /// Edge-delta batches applied to interned instances (`mutate`
    /// frames that succeeded).
    pub mutations_applied: u64,
    /// Held-solution updates served by the incremental repair path.
    pub repairs: u64,
    /// Held-solution updates that fell back to a from-scratch solve.
    pub full_resolves: u64,
    /// Mean fraction of constraints re-examined per repair, in
    /// permille (‰, 0–1000; integral so heartbeat frames stay
    /// byte-stable).
    pub refix_mean_permille: u64,
}

/// Assembles a `heartbeat` reply frame.
pub fn heartbeat_frame(id: &str, seq: u64, stats: StatsSnapshot) -> String {
    let mut obj = JsonObject::new();
    obj.uint("v", PROTOCOL_VERSION)
        .string("type", "heartbeat")
        .string("id", id)
        .uint("seq", seq)
        .uint("served", stats.served)
        .uint("rejected", stats.rejected)
        .uint("evicted", stats.evicted)
        .uint("queue_depth", stats.queue_depth as u64)
        .uint("queue_high_water", stats.queue_high_water as u64)
        .uint("inflight", stats.inflight as u64)
        .uint("workers", stats.workers as u64)
        .uint("queue_capacity", stats.queue_capacity as u64)
        .uint("replayed", stats.replayed)
        .uint("journal_appended", stats.journal_appended)
        .uint("journal_bytes", stats.journal_bytes)
        .uint("journal_recovered", stats.journal_recovered)
        .uint("parse_fallbacks", stats.parse_fallbacks)
        .uint("handles_held", stats.handles_held)
        .uint("mutations_applied", stats.mutations_applied)
        .uint("repairs", stats.repairs)
        .uint("full_resolves", stats.full_resolves)
        .uint("refix_mean_permille", stats.refix_mean_permille);
    obj.finish()
}

/// Renders the reserved wire-level panic report (see `docs/PROTOCOL.md`):
/// not part of the [`ApiError`] taxonomy because it certifies a server
/// bug, not a request failure.
pub fn internal_panic_payload(detail: &str) -> String {
    let mut obj = JsonObject::new();
    obj.string("event", "error")
        .string("kind", "internal-panic")
        .string("detail", detail);
    obj.finish()
}

/// A reply frame split back into its parts — the client-side decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply<'a> {
    /// `"solution"`, `"error"`, or `"heartbeat"`.
    pub frame_type: String,
    /// The echoed request id.
    pub id: String,
    /// Per-connection reporting sequence number.
    pub seq: u64,
    /// Optional service timings (absent when the server disables them).
    pub timing: Option<Timing>,
    /// `true` when the frame was served from the idempotency cache
    /// instead of a fresh solve.
    pub replayed: bool,
    /// The **byte-exact slice** of the embedded `solution`/`error`
    /// object; `None` for heartbeats. This is how the conformance
    /// harness asserts that server output equals direct `Session::solve`
    /// rendering byte for byte.
    pub payload: Option<&'a str>,
}

/// Splits a reply frame into its envelope and embedded payload slice.
/// Returns `None` when `frame` is not a well-formed v1 reply frame.
pub fn split_reply(frame: &str) -> Option<Reply<'_>> {
    let spans = json::Cursor::new(frame).object(|_, _| Ok(false)).ok()?;
    let f = Fields::new(frame, &spans);
    let u64_of = |key: &str| f.number(key).ok().flatten()?.as_u64();
    if u64_of("v")? != PROTOCOL_VERSION {
        return None;
    }
    let frame_type = f.str("type").ok()??;
    let id = f.str("id").ok()??;
    let seq = u64_of("seq")?;
    let timing = match (u64_of("queued_ns"), u64_of("solve_ns")) {
        (Some(queued_ns), Some(solve_ns)) => Some(Timing {
            queued_ns,
            solve_ns,
        }),
        _ => None,
    };
    // heartbeats reuse `replayed` as a counter (total cache hits served),
    // so the boolean reading applies only to solution/error frames
    let replayed = frame_type != "heartbeat" && f.bool("replayed").ok()?.unwrap_or(false);
    let payload = match frame_type.as_str() {
        "solution" | "error" | "uploaded" | "released" | "mutated" => {
            Some(&frame[f.span(&frame_type)?])
        }
        "heartbeat" => None,
        _ => return None,
    };
    Some(Reply {
        frame_type,
        id,
        seq,
        timing,
        replayed,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use splitgraph::generators;

    /// Classifies a frame, discarding its body.
    fn classify(line: &str) -> Result<ClientFrame, ApiError> {
        scan(line).map(|(frame, _)| frame)
    }

    /// Scans `raw` as the instance of an upload frame and builds it,
    /// reporting whether its edge list was spelled canonically.
    fn build_upload(raw: &str) -> (Result<Instance, ApiError>, bool) {
        let line = format!(r#"{{"v":1,"type":"upload","id":"u","instance":{raw}}}"#);
        let (_, mut body) = scan(&line).unwrap();
        let canonical = body.canonical();
        (build_instance(&line, &mut body), canonical)
    }

    #[test]
    fn envelope_scan_classifies_frames() {
        let line = r#"{"v":1,"type":"request","id":"r1","priority":"high","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#;
        assert_eq!(
            classify(line).unwrap(),
            ClientFrame::Request(Envelope {
                id: "r1".into(),
                priority: Priority::High,
                deadline_ms: None,
                idempotency_key: None,
                handle: None,
            })
        );
        assert_eq!(
            classify(r#"{"v":1,"type":"ping"}"#).unwrap(),
            ClientFrame::Ping { id: String::new() }
        );
        assert_eq!(
            classify(r#"{"v":1,"type":"shutdown"}"#).unwrap(),
            ClientFrame::Shutdown
        );
    }

    #[test]
    fn envelope_scan_rejects_bad_frames() {
        for (line, field) in [
            ("not json", "frame"),
            ("[1,2]", "frame"),
            (r#"{"type":"request"}"#, "v"),
            (r#"{"v":2,"type":"request"}"#, "v"),
            (r#"{"v":1}"#, "type"),
            (r#"{"v":1,"type":"nope"}"#, "type"),
            (r#"{"v":1,"type":"request"}"#, "id"),
            (r#"{"v":1,"type":"request","id":""}"#, "id"),
            (r#"{"v":1,"type":"request","id":"x","bogus":1}"#, "frame"),
            (
                r#"{"v":1,"type":"request","id":"x","priority":"urgent"}"#,
                "priority",
            ),
            (r#"{"v":1,"type":"request","id":"x"}"#, "problem"),
            (
                r#"{"v":1,"type":"request","id":"x","deadline_ms":"soon"}"#,
                "deadline_ms",
            ),
            (
                r#"{"v":1,"type":"request","id":"x","deadline_ms":-5}"#,
                "deadline_ms",
            ),
            (
                r#"{"v":1,"type":"request","id":"x","idempotency_key":7}"#,
                "idempotency_key",
            ),
            (
                r#"{"v":1,"type":"request","id":"x","idempotency_key":""}"#,
                "idempotency_key",
            ),
            (r#"{"v":1,"type":"shutdown","id":"x"}"#, "frame"),
        ] {
            match classify(line) {
                Err(ApiError::InvalidRequest { field: f, .. }) => {
                    assert_eq!(f, field, "line {line}")
                }
                other => panic!("{line}: expected invalid-request on {field}, got {other:?}"),
            }
        }
    }

    fn roundtrip(request: Request) {
        let line = render_request("rt", Priority::Low, &request);
        let (envelope, parsed) = parse_request(&line).expect(&line);
        assert_eq!(envelope.id, "rt");
        assert_eq!(envelope.priority, Priority::Low);
        assert_eq!(&parsed, &request, "wire round-trip changed the request");
    }

    #[test]
    fn every_problem_variant_roundtrips() {
        let mut rng = StdRng::seed_from_u64(9);
        let b = generators::random_biregular(8, 8, 4, &mut rng).unwrap();
        let g = generators::cycle(6).unwrap();
        let m = MultiGraph::from_endpoints(3, vec![(0, 1), (0, 1), (1, 2)]);
        roundtrip(Request::new(Problem::weak_splitting(), b.clone()).seed(7));
        roundtrip(
            Request::new(
                Problem::WeakSplitting {
                    thm12_constant: 1.5,
                },
                b.clone(),
            )
            .deterministic()
            .force_pipeline(Pipeline::Theorem25)
            .max_rounds(1e6)
            .attempts(3)
            .deadline_ms(30_000),
        );
        roundtrip(Request::new(Problem::WeakMulticolor, b.clone()));
        roundtrip(Request::new(
            Problem::MulticolorSplitting {
                colors: 6,
                lambda: 0.6,
            },
            b.clone(),
        ));
        roundtrip(Request::new(
            Problem::UniformSplitting {
                eps: Some(0.25),
                min_degree: Some(4),
            },
            g.clone(),
        ));
        roundtrip(Request::new(
            Problem::UniformSplitting {
                eps: None,
                min_degree: None,
            },
            g.clone(),
        ));
        roundtrip(Request::new(
            Problem::DegreeSplitting {
                eps: 0.25,
                engine: Engine::Walk,
            },
            m.clone(),
        ));
        roundtrip(Request::new(Problem::SinklessOrientation, g.clone()));
        roundtrip(Request::new(
            Problem::DeltaColoring {
                base_degree: Some(8),
                max_eps: Some(0.2),
            },
            g.clone(),
        ));
        roundtrip(Request::new(
            Problem::EdgeColoring {
                base_degree: None,
                engine: EdgeSplitEngine::Walk,
            },
            g.clone(),
        ));
        roundtrip(Request::new(Problem::Mis { base_degree: None }, g).seed(u64::MAX));
    }

    // The contract `request_fingerprint` must keep for journal payload
    // interning: fingerprints agree exactly when the canonical
    // renderings agree. Every variant pair here differs in one field
    // the renderer serializes, so a fingerprint that skipped any field
    // would collide two distinct payloads and fail this test.
    #[test]
    fn fingerprint_equality_tracks_canonical_rendering() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = generators::random_biregular(8, 8, 4, &mut rng).unwrap();
        let b2 = generators::random_biregular(8, 8, 4, &mut rng).unwrap();
        let g = generators::cycle(6).unwrap();
        let m = MultiGraph::from_endpoints(3, vec![(0, 1), (0, 1), (1, 2)]);
        let mis = |instance: Instance| Request::new(Problem::Mis { base_degree: None }, instance);
        let variants: Vec<Request> = vec![
            Request::new(Problem::weak_splitting(), b.clone()),
            Request::new(Problem::weak_splitting(), b2.clone()),
            Request::new(Problem::weak_splitting(), b.clone()).seed(7),
            Request::new(
                Problem::WeakSplitting {
                    thm12_constant: 1.5,
                },
                b.clone(),
            ),
            Request::new(Problem::WeakMulticolor, b.clone()),
            Request::new(
                Problem::MulticolorSplitting {
                    colors: 6,
                    lambda: 0.6,
                },
                b.clone(),
            ),
            Request::new(
                Problem::MulticolorSplitting {
                    colors: 7,
                    lambda: 0.6,
                },
                b.clone(),
            ),
            Request::new(
                Problem::UniformSplitting {
                    eps: None,
                    min_degree: None,
                },
                g.clone(),
            ),
            Request::new(
                Problem::UniformSplitting {
                    eps: Some(0.25),
                    min_degree: None,
                },
                g.clone(),
            ),
            Request::new(
                Problem::UniformSplitting {
                    eps: None,
                    min_degree: Some(4),
                },
                g.clone(),
            ),
            Request::new(
                Problem::DegreeSplitting {
                    eps: 0.25,
                    engine: Engine::Walk,
                },
                m.clone(),
            ),
            Request::new(
                Problem::DegreeSplitting {
                    eps: 0.25,
                    engine: Engine::EulerianOracle,
                },
                m.clone(),
            ),
            Request::new(
                Problem::EdgeColoring {
                    base_degree: Some(4),
                    engine: EdgeSplitEngine::Walk,
                },
                g.clone(),
            ),
            Request::new(
                Problem::EdgeColoring {
                    base_degree: Some(4),
                    engine: EdgeSplitEngine::Eulerian,
                },
                g.clone(),
            ),
            Request::new(
                Problem::DeltaColoring {
                    base_degree: None,
                    max_eps: Some(0.2),
                },
                g.clone(),
            ),
            mis(Instance::from(g.clone())),
            mis(Instance::from(g.clone())).deterministic(),
            mis(Instance::from(g.clone())).force_pipeline(Pipeline::Theorem25),
            mis(Instance::from(g.clone())).max_rounds(1e6),
            mis(Instance::from(g.clone())).max_rounds(0.0),
            mis(Instance::from(g.clone())).max_rounds(-0.0),
            mis(Instance::from(g.clone())).attempts(3),
            mis(Instance::from(g.clone())).deadline_ms(30_000),
        ];
        for (i, a) in variants.iter().enumerate() {
            let line_a = render_request("interned", Priority::Normal, a);
            for (j, bq) in variants.iter().enumerate() {
                let line_b = render_request("interned", Priority::Normal, bq);
                assert_eq!(
                    request_fingerprint(a) == request_fingerprint(bq),
                    line_a == line_b,
                    "fingerprint/render disagreement between variants {i} and {j}"
                );
            }
        }
    }

    #[test]
    fn idempotency_keys_ride_the_envelope_not_the_request() {
        let g = generators::cycle(6).unwrap();
        let request = Request::new(Problem::Mis { base_degree: None }, g).seed(3);
        let keyed = render_request_with(
            "k1",
            Priority::Normal,
            Some("retry-abc"),
            InstanceRef::Inline,
            &request,
        );
        assert!(
            keyed.contains(r#""idempotency_key":"retry-abc""#),
            "{keyed}"
        );
        let (envelope, parsed) = parse_request(&keyed).unwrap();
        assert_eq!(envelope.idempotency_key.as_deref(), Some("retry-abc"));
        // the key is transport metadata: the solved Request is identical
        // to the keyless rendering's, so the solve (and its bytes)
        // cannot depend on it
        let plain = render_request("k1", Priority::Normal, &request);
        let (plain_env, plain_parsed) = parse_request(&plain).unwrap();
        assert_eq!(plain_env.idempotency_key, None);
        assert_eq!(parsed, plain_parsed);
    }

    #[test]
    fn mutate_frames_carry_an_optional_idempotency_key() {
        let handle = "0123456789abcdef0123456789abcdef";
        let keyed = render_mutate("m1", handle, Some("retry-m"), &[(0, 1)], &[]);
        assert!(keyed.contains(r#""idempotency_key":"retry-m""#), "{keyed}");
        match classify(&keyed).unwrap() {
            ClientFrame::Mutate {
                id,
                handle: h,
                idempotency_key,
            } => {
                assert_eq!(id, "m1");
                assert_eq!(h, handle);
                assert_eq!(idempotency_key.as_deref(), Some("retry-m"));
            }
            other => panic!("expected a mutate frame, got {other:?}"),
        }
        // keyless renderings scan to a None key
        let plain = render_mutate("m1", handle, None, &[(0, 1)], &[]);
        match classify(&plain).unwrap() {
            ClientFrame::Mutate {
                idempotency_key, ..
            } => assert_eq!(idempotency_key, None),
            other => panic!("expected a mutate frame, got {other:?}"),
        }
        // malformed keys are typed errors, same rules as request keys
        let empty = format!(
            r#"{{"v":1,"type":"mutate","id":"m","handle":"{handle}","idempotency_key":"","inserts":[[0,1]]}}"#
        );
        assert_eq!(classify(&empty).unwrap_err().kind(), "invalid-request");
        let non_string = format!(
            r#"{{"v":1,"type":"mutate","id":"m","handle":"{handle}","idempotency_key":7,"inserts":[[0,1]]}}"#
        );
        assert_eq!(classify(&non_string).unwrap_err().kind(), "invalid-request");
    }

    #[test]
    fn envelope_scan_surfaces_the_deadline_budget() {
        let line = r#"{"v":1,"type":"request","id":"d1","deadline_ms":250,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#;
        match classify(line).unwrap() {
            ClientFrame::Request(envelope) => assert_eq!(envelope.deadline_ms, Some(250)),
            other => panic!("expected a request frame, got {other:?}"),
        }
        let (_, request) = parse_request(line).unwrap();
        assert_eq!(request.budget().deadline_ms, Some(250));
    }

    #[test]
    fn unknown_problem_and_instance_fields_are_typed_errors() {
        let bad_problem = r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis","basedegree":4},"instance":{"kind":"host","nodes":1,"edges":[]}}"#;
        assert_eq!(
            parse_request(bad_problem).unwrap_err().kind(),
            "invalid-request"
        );
        let bad_instance = r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[],"n":1}}"#;
        assert_eq!(
            parse_request(bad_instance).unwrap_err().kind(),
            "invalid-request"
        );
        let bad_edge = r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"multigraph","nodes":2,"edges":[[0,5]]}}"#;
        let err = parse_request(bad_edge).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn reply_frames_embed_payload_last() {
        let frame = reply_frame(
            ReplyKind::Solution,
            "r9",
            4,
            None,
            false,
            r#"{"event":"solution","x":1}"#,
        );
        assert_eq!(
            frame,
            r#"{"v":1,"type":"solution","id":"r9","seq":4,"solution":{"event":"solution","x":1}}"#
        );
        let timed = reply_frame(
            ReplyKind::Error,
            "r9",
            5,
            Some(Timing {
                queued_ns: 10,
                solve_ns: 20,
            }),
            false,
            r#"{"event":"error"}"#,
        );
        assert_eq!(
            timed,
            r#"{"v":1,"type":"error","id":"r9","seq":5,"queued_ns":10,"solve_ns":20,"error":{"event":"error"}}"#
        );
    }

    #[test]
    fn replayed_frames_keep_the_payload_last_and_flag_before_it() {
        let payload = r#"{"event":"solution","x":1}"#;
        let frame = reply_frame(ReplyKind::Solution, "r9", 4, None, true, payload);
        assert_eq!(
            frame,
            r#"{"v":1,"type":"solution","id":"r9","seq":4,"replayed":true,"solution":{"event":"solution","x":1}}"#
        );
        let reply = split_reply(&frame).unwrap();
        assert!(reply.replayed);
        assert_eq!(reply.payload, Some(payload));
        // fresh frames parse as not-replayed
        assert!(
            !split_reply(&reply_frame(
                ReplyKind::Solution,
                "r9",
                4,
                None,
                false,
                payload
            ))
            .unwrap()
            .replayed
        );
    }

    #[test]
    fn split_reply_recovers_envelope_and_exact_payload() {
        let payload = r#"{"event":"solution","rounds":0}"#;
        let frame = reply_frame(
            ReplyKind::Solution,
            "abc",
            17,
            Some(Timing {
                queued_ns: 3,
                solve_ns: 9,
            }),
            false,
            payload,
        );
        let reply = split_reply(&frame).unwrap();
        assert_eq!(reply.frame_type, "solution");
        assert_eq!(reply.id, "abc");
        assert_eq!(reply.seq, 17);
        assert_eq!(
            reply.timing,
            Some(Timing {
                queued_ns: 3,
                solve_ns: 9
            })
        );
        assert_eq!(reply.payload, Some(payload));

        let hb = heartbeat_frame("", 0, StatsSnapshot::default());
        let reply = split_reply(&hb).unwrap();
        assert_eq!(reply.frame_type, "heartbeat");
        assert_eq!(reply.payload, None);

        assert!(split_reply("not json").is_none());
        assert!(
            split_reply(r#"{"v":2,"type":"solution","id":"x","seq":0,"solution":{}}"#).is_none()
        );
    }

    #[test]
    fn handles_roundtrip_through_render_and_parse() {
        let g = generators::cycle(6).unwrap();
        let hash = instance_fingerprint(&Instance::from(g));
        let handle = render_handle(hash);
        assert_eq!(handle.len(), 32);
        assert!(handle
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
        assert_eq!(parse_handle(&handle), Some(hash));
        // rejects: wrong length, uppercase, non-hex
        assert_eq!(parse_handle(&handle[1..]), None);
        assert_eq!(parse_handle(&handle.to_uppercase()), None);
        assert_eq!(parse_handle(&format!("{}g", &handle[..31])), None);
    }

    #[test]
    fn instance_fingerprints_separate_structure_and_domain() {
        let g = generators::cycle(6).unwrap();
        let g2 = generators::cycle(7).unwrap();
        let a = instance_fingerprint(&Instance::from(g.clone()));
        assert_eq!(a, instance_fingerprint(&Instance::from(g.clone())));
        assert_ne!(a, instance_fingerprint(&Instance::from(g2)));
        // the instance domain must not collide with the request domain
        // over the same underlying graph content
        let request = Request::new(Problem::Mis { base_degree: None }, g);
        assert_ne!(a, request_fingerprint(&request));
        // bipartite handles separate shapes, and the packed edges of a
        // 1×n star do not alias a host graph listing the same pairs
        let star = BipartiteGraph::from_edges(1, 3, &[(0, 1), (0, 2)]).unwrap();
        let wider = BipartiteGraph::from_edges(1, 4, &[(0, 1), (0, 2)]).unwrap();
        let path = Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let star = instance_fingerprint(&Instance::from(star));
        assert_ne!(star, instance_fingerprint(&Instance::from(wider)));
        assert_ne!(star, instance_fingerprint(&Instance::from(path)));
    }

    #[test]
    fn handle_requests_scan_and_render_consistently() {
        let g = generators::cycle(6).unwrap();
        let request = Request::new(Problem::Mis { base_degree: None }, g).seed(3);
        let handle = render_handle(instance_fingerprint(request.instance()));
        let line = render_request_with(
            "h1",
            Priority::Normal,
            None,
            InstanceRef::Handle(&handle),
            &request,
        );
        match classify(&line).unwrap() {
            ClientFrame::Request(envelope) => {
                assert_eq!(envelope.id, "h1");
                assert_eq!(envelope.handle.as_deref(), Some(handle.as_str()));
            }
            other => panic!("expected a request frame, got {other:?}"),
        }
        // the inline-only parser refuses handle frames with a typed error
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
        assert!(err.to_string().contains("handle"), "{err}");
        // building against the resolved instance reconstructs the request
        let shared = Arc::new(request.instance().clone());
        let (_, body) = scan(&line).unwrap();
        assert_eq!(build_request(&line, body, Some(shared)).unwrap(), request);
    }

    #[test]
    fn upload_and_release_frames_classify_and_reject() {
        let g = generators::cycle(6).unwrap();
        let instance = Instance::from(g);
        let upload = render_upload("u1", &instance);
        assert_eq!(
            classify(&upload).unwrap(),
            ClientFrame::Upload { id: "u1".into() }
        );
        let handle = render_handle(instance_fingerprint(&instance));
        let release = render_release("u2", &handle);
        assert_eq!(
            classify(&release).unwrap(),
            ClientFrame::Release {
                id: "u2".into(),
                handle: handle.clone(),
            }
        );
        for (line, field) in [
            // a request may not carry both an inline instance and a handle
            (
                format!(
                    r#"{{"v":1,"type":"request","id":"x","problem":{{"name":"mis"}},"handle":"{handle}","instance":{{"kind":"host","nodes":1,"edges":[]}}}}"#
                ),
                "instance",
            ),
            // ... and must carry at least one of them
            (
                r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"}}"#.to_owned(),
                "instance",
            ),
            // malformed handle strings are typed errors, not lookups
            (
                r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"nope"}"#
                    .to_owned(),
                "handle",
            ),
            (r#"{"v":1,"type":"upload","id":"x"}"#.to_owned(), "instance"),
            (r#"{"v":1,"type":"release","id":"x"}"#.to_owned(), "handle"),
            (
                r#"{"v":1,"type":"release","id":"x","handle":"XYZ"}"#.to_owned(),
                "handle",
            ),
            (
                format!(r#"{{"v":1,"type":"upload","id":"x","handle":"{handle}"}}"#),
                "frame",
            ),
        ] {
            match classify(&line) {
                Err(ApiError::InvalidRequest { field: f, .. }) => {
                    assert_eq!(f, field, "line {line}")
                }
                other => panic!("{line}: expected invalid-request on {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn uploaded_and_released_frames_keep_the_payload_last() {
        let g = generators::cycle(6).unwrap();
        let instance = Instance::from(g);
        let handle = render_handle(instance_fingerprint(&instance));
        let payload = uploaded_payload(&handle, &instance, 1);
        assert!(
            payload.starts_with(r#"{"event":"uploaded","handle":""#),
            "{payload}"
        );
        assert!(payload.ends_with(r#","held":1}"#), "{payload}");
        let frame = reply_frame(ReplyKind::Uploaded, "u1", 3, None, false, &payload);
        assert!(
            frame.ends_with(&format!(r#","uploaded":{payload}}}"#)),
            "{frame}"
        );
        let reply = split_reply(&frame).unwrap();
        assert_eq!(reply.frame_type, "uploaded");
        assert_eq!(reply.id, "u1");
        assert_eq!(reply.seq, 3);
        assert_eq!(reply.payload, Some(payload.as_str()));

        let payload = released_payload(&handle, 0);
        assert_eq!(
            payload,
            format!(r#"{{"event":"released","handle":"{handle}","held":0}}"#)
        );
        let frame = reply_frame(ReplyKind::Released, "u2", 4, None, false, &payload);
        let reply = split_reply(&frame).unwrap();
        assert_eq!(reply.frame_type, "released");
        assert_eq!(reply.payload, Some(payload.as_str()));
    }

    // Satellite bugfix pin: edge errors deep inside an instance object
    // must report offsets relative to the whole instance text, not the
    // inner edges slice the parser happens to re-scan.
    #[test]
    fn edge_errors_report_offsets_into_the_instance_text() {
        let raw = r#"{"kind":"host","nodes":4,"edges":[[0,1],[1,x]]}"#;
        let err = build_upload(raw).0.unwrap_err();
        let expected = raw.find('x').unwrap();
        assert!(
            err.to_string().contains(&format!("at byte {expected}")),
            "expected offset {expected} in: {err}"
        );
        // canonical encodings are flagged canonical; exotic-but-valid
        // ones are flagged but still parse
        let (built, canonical) = build_upload(r#"{"kind":"host","nodes":4,"edges":[[0,1],[1,2]]}"#);
        assert!(built.is_ok() && canonical);
        let (built, canonical) =
            build_upload(r#"{"kind":"host","nodes":4,"edges":[[0,1],[1,2.0]]}"#);
        assert!(built.is_ok() && !canonical);
    }
}

/// The O(edits) handle update against a full rehash. CI runs this
/// module with `PROPTEST_CASES=2048`.
#[cfg(test)]
mod fingerprint_props {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};
    use splitgraph::delta::{random_delta, ChurnStyle};
    use splitgraph::generators;

    fn fingerprint(b: &BipartiteGraph) -> crate::journal::PayloadHash {
        instance_fingerprint(&Instance::Bipartite(b.clone()))
    }

    proptest! {
        // Chains `patched_fingerprint` through a random delta sequence:
        // after every step it equals a full rehash of the patched graph,
        // applying the batch one edit at a time in a shuffled order lands
        // on the same handle, and walking the inverses back returns the
        // original handle.
        #[test]
        fn patched_fingerprint_tracks_a_full_rehash(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (left, degree) = (rng.random_range(2usize..16), rng.random_range(1usize..8));
            // right sides that divide the stubs, at most half dense (the
            // generator's swap repair crawls near a complete graph)
            let stubs = left * degree;
            let rights: Vec<usize> = (2 * degree..=stubs).filter(|r| stubs % r == 0).collect();
            let right = rights[rng.random_range(0..rights.len())];
            let Ok(mut b) = generators::random_biregular(left, right, degree, &mut rng) else {
                return;
            };
            let style = ChurnStyle::ALL[rng.random_range(0usize..3)];
            let (original, graph) = (fingerprint(&b), b.clone());
            let mut hash = original;
            let mut walk = Vec::new();
            for _ in 0..rng.random_range(1..8) {
                let edits = rng.random_range(1usize..6);
                let delta = random_delta(&b, style, edits, &mut rng);
                let mut singles: Vec<EdgeDelta> = delta
                    .inserts()
                    .iter()
                    .map(|&e| EdgeDelta::new(&b, &[e], &[]).unwrap())
                    .chain(delta.deletes().iter().map(|&e| EdgeDelta::new(&b, &[], &[e]).unwrap()))
                    .collect();
                singles.shuffle(&mut rng);
                let one_by_one = singles.iter().fold(hash, patched_fingerprint);
                delta.apply(&mut b).unwrap();
                hash = patched_fingerprint(hash, &delta);
                prop_assert_eq!(hash, fingerprint(&b), "{:?} step diverged", style);
                prop_assert_eq!(one_by_one, hash, "edit order moved the handle");
                walk.push(delta);
            }
            for delta in walk.iter().rev() {
                let inverse = delta.inverse();
                inverse.apply(&mut b).unwrap();
                hash = patched_fingerprint(hash, &inverse);
            }
            prop_assert_eq!(&b, &graph);
            prop_assert_eq!(hash, original, "the walk back did not return the handle");
        }
    }
}
