//! Malformed-ingest coverage: a fuzz-style table of hostile input lines
//! asserting that every one of them comes back as a typed `ApiError`
//! frame — no panics, no hung or dropped connections, and no collateral
//! damage to well-formed requests sharing the server.

use splitting_server::wire::split_reply;
use splitting_server::{transport, Server, ServerConfig};
use std::sync::Arc;

const GOOD_REQUEST: &str = r#"{"v":1,"type":"request","id":"good","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":3,"edges":[[0,1],[1,2],[2,0]]}}"#;

fn quiet_server() -> Server {
    Server::start(ServerConfig {
        record_timings: false,
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    })
}

/// A request frame whose instance carries `edges` verbatim.
fn with_edges(edges: &str) -> String {
    format!(
        r#"{{"v":1,"type":"request","id":"x","problem":{{"name":"mis"}},"instance":{{"kind":"host","nodes":3,"edges":{edges}}}}}"#
    )
}

/// Idempotency key whose (error) reply is cached before the table runs,
/// so the cache-hit row below replays it.
const CACHED_KEY: &str = "cached-key";

/// A keyed request that fails in the worker; its error reply is cached
/// under [`CACHED_KEY`].
const CACHED_KEY_REQUEST: &str = r#"{"v":1,"type":"request","id":"seed-key","idempotency_key":"cached-key","problem":{"name":"graph-coloring"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#;

/// Every hostile line, the reason it is hostile, and the exact reply
/// frame it must produce (with timings off). All but the cache-hit row
/// are `invalid-request` error frames; the cache-hit row replays the
/// error cached under [`CACHED_KEY`]. Sequence numbers count from 1
/// because a good request leads the stream.
fn hostile_lines() -> Vec<(&'static str, String, &'static str)> {
    let mut table: Vec<(&'static str, String, &'static str)> = vec![
        ("not JSON at all", "hello there".into(), r#"{"v":1,"type":"error","id":"","seq":1,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 0: expected '{', found 'h'"}}"#),
        ("top-level array", "[1,2,3]".into(), r#"{"v":1,"type":"error","id":"","seq":2,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 0: expected '{', found '['"}}"#),
        ("top-level string", "\"frame\"".into(), r#"{"v":1,"type":"error","id":"","seq":3,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 0: expected '{', found '\"'"}}"#),
        ("top-level number", "17".into(), r#"{"v":1,"type":"error","id":"","seq":4,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 0: expected '{', found '1'"}}"#),
        ("unbalanced braces", "{\"v\":1".into(), r#"{"v":1,"type":"error","id":"","seq":5,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 6: expected ',' or '}', found end of input"}}"#),
        ("trailing garbage", "{\"v\":1,\"type\":\"ping\"} extra".into(), r#"{"v":1,"type":"error","id":"","seq":6,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 22: trailing characters after the object"}}"#),
        ("duplicate keys", r#"{"v":1,"v":1,"type":"ping"}"#.into(), r#"{"v":1,"type":"error","id":"","seq":7,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 10: duplicate key \"v\""}}"#),
        ("missing version", r#"{"type":"ping"}"#.into(), r#"{"v":1,"type":"error","id":"","seq":8,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: v: missing protocol version; send \"v\":1"}}"#),
        ("future version", r#"{"v":99,"type":"ping"}"#.into(), r#"{"v":1,"type":"error","id":"","seq":9,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: v: unsupported protocol version 99; this server speaks v1"}}"#),
        ("string version", r#"{"v":"1","type":"ping"}"#.into(), r#"{"v":1,"type":"error","id":"","seq":10,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: v: unsupported protocol version \"1\"; this server speaks v1"}}"#),
        ("missing type", r#"{"v":1}"#.into(), r#"{"v":1,"type":"error","id":"","seq":11,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: type: missing frame type"}}"#),
        ("unknown type", r#"{"v":1,"type":"solve"}"#.into(), r#"{"v":1,"type":"error","id":"","seq":12,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: type: unknown frame type \"solve\"; use request, upload, release, mutate, ping, or shutdown"}}"#),
        (
            "unknown top-level field",
            r#"{"v":1,"type":"ping","turbo":true}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":13,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: unknown field \"turbo\" on a ping frame"}}"#,
        ),
        (
            "numeric id",
            r#"{"v":1,"type":"request","id":7,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":14,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: id: id must be a JSON string"}}"#,
        ),
        (
            "oversized id",
            format!(
                r#"{{"v":1,"type":"request","id":"{}","problem":{{"name":"mis"}},"instance":{{"kind":"host","nodes":1,"edges":[]}}}}"#,
                "x".repeat(200)
            ),
            r#"{"v":1,"type":"error","id":"","seq":15,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: id: id exceeds 128 bytes (200 given)"}}"#,
        ),
        (
            "unknown priority",
            r#"{"v":1,"type":"request","id":"x","priority":"urgent","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":16,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: priority: unknown priority \"urgent\"; use high, normal, or low"}}"#,
        ),
        (
            "missing problem",
            r#"{"v":1,"type":"request","id":"x","instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":17,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: request frames must carry a problem"}}"#,
        ),
        (
            "unknown problem name",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"graph-coloring"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":18,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: unknown problem \"graph-coloring\""}}"#,
        ),
        (
            "unknown problem field (typo)",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis","basedegree":4},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":19,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: unknown field \"basedegree\""}}"#,
        ),
        (
            "unknown instance kind",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"hypergraph","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":20,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: unknown instance kind \"hypergraph\"; use bipartite, host, or multigraph"}}"#,
        ),
        (
            "unknown instance field",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[],"weights":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":21,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: unknown field \"weights\" on a host instance"}}"#,
        ),
        (
            "edge with one endpoint",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":2,"edges":[[0]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":22,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 36: expected ',', found ']'"}}"#,
        ),
        (
            "edge with three endpoints",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":3,"edges":[[0,1,2]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":23,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 38: expected ']', found ','"}}"#,
        ),
        (
            "edge endpoint out of range",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"multigraph","nodes":2,"edges":[[0,9]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":24,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edge endpoint (0, 9) out of range for 2 nodes"}}"#,
        ),
        ("empty edge endpoint", with_edges("[[0,,1]]"), r#"{"v":1,"type":"error","id":"x","seq":25,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 37: malformed number"}}"#),
        ("leading-zero endpoint", with_edges("[[01,2]]"), r#"{"v":1,"type":"error","id":"x","seq":26,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 36: expected ',', found '1'"}}"#),
        ("negative endpoint", with_edges("[[-1,2]]"), r#"{"v":1,"type":"error","id":"x","seq":27,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 37: edge endpoints must be non-negative integers"}}"#),
        ("fractional endpoint", with_edges("[[0,1.5]]"), r#"{"v":1,"type":"error","id":"x","seq":28,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 40: edge endpoints must be non-negative integers"}}"#),
        ("endpoint overflowing f64", with_edges("[[1e400,1]]"), r#"{"v":1,"type":"error","id":"x","seq":29,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 40: number out of range"}}"#),
        (
            "endpoint one past u64::MAX",
            with_edges("[[18446744073709551616,0]]"),
            r#"{"v":1,"type":"error","id":"x","seq":30,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 55: edge endpoints must be non-negative integers"}}"#,
        ),
        ("edges that are an object", with_edges(r#"{"0":1}"#), r#"{"v":1,"type":"error","id":"x","seq":31,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 33: expected '[', found '{'"}}"#),
        (
            "malformed edges placed before an unknown kind",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"edges":[[0,,1]],"kind":"hypergraph","nodes":3}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":32,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: unknown instance kind \"hypergraph\"; use bipartite, host, or multigraph"}}"#,
        ),
        (
            "malformed edges placed before the kind",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"edges":[[0,,1]],"kind":"host","nodes":3}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":33,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 13: malformed number"}}"#,
        ),
        (
            "malformed edges under an unknown problem",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"graph-coloring"},"instance":{"kind":"host","nodes":3,"edges":[[0,,1]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":34,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: unknown problem \"graph-coloring\""}}"#,
        ),
        (
            "malformed edges beside a negative seed",
            r#"{"v":1,"type":"request","id":"x","seed":-1,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":3,"edges":[[0,,1]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":35,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 37: malformed number"}}"#,
        ),
        (
            "malformed edges followed by a structural error",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":3,"edges":[[0,,1]]},}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":36,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 112: expected '\"', found '}'"}}"#,
        ),
        (
            "instance that is a string",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":"host"}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":37,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: not a JSON object: JSON parse error at byte 0: expected '{', found '\"'"}}"#,
        ),
        (
            "duplicate key inside the instance",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","edges":[[0,,1]],"nodes":3,"edges":[[0,1]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":38,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: not a JSON object: JSON parse error at byte 49: duplicate key \"edges\""}}"#,
        ),
        (
            "negative node count",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":-4,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":39,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: nodes must be a non-negative integer"}}"#,
        ),
        (
            "negative seed",
            r#"{"v":1,"type":"request","id":"x","seed":-1,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":40,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: seed: must be an unsigned 64-bit integer"}}"#,
        ),
        (
            "NaN literal",
            r#"{"v":1,"type":"request","id":"x","max_rounds":NaN,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":41,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: max_rounds: must be a JSON number"}}"#,
        ),
        (
            "unknown pipeline",
            r#"{"v":1,"type":"request","id":"x","force_pipeline":"theorem99","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":42,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: force_pipeline: unknown pipeline \"theorem99\"; use theorem27, theorem25, zero-round, or theorem12"}}"#,
        ),
        (
            "unknown determinism policy",
            r#"{"v":1,"type":"request","id":"x","determinism":"maybe","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":43,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: determinism: unknown policy \"maybe\"; use deterministic or randomized"}}"#,
        ),
        (
            "raw control character in string",
            "{\"v\":1,\"type\":\"request\",\"id\":\"a\x01b\",\"problem\":{\"name\":\"mis\"},\"instance\":{\"kind\":\"host\",\"nodes\":1,\"edges\":[]}}".into(),
            r#"{"v":1,"type":"error","id":"","seq":44,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: id: id must be a JSON string"}}"#,
        ),
        (
            "lone surrogate escape",
            r#"{"v":1,"type":"request","id":"\ud800","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":45,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: id: id must be a JSON string"}}"#,
        ),
        (
            "deeply nested instance value",
            format!(
                r#"{{"v":1,"type":"request","id":"x","problem":{{"name":"mis"}},"instance":{{"kind":"host","nodes":{}1{},"edges":[]}}}}"#,
                "[".repeat(100),
                "]".repeat(100)
            ),
            r#"{"v":1,"type":"error","id":"","seq":46,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 156: nesting deeper than 64"}}"#,
        ),
        (
            "oversized frame",
            format!(
                r#"{{"v":1,"type":"request","id":"big","problem":{{"name":"mis"}},"instance":{{"kind":"host","nodes":1,"edges":[],"pad":"{}"}}}}"#,
                "y".repeat(8000)
            ),
            r#"{"v":1,"type":"error","id":"","seq":47,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: frame of 8117 bytes exceeds the 4096-byte limit"}}"#,
        ),
        (
            // the offset indexes into the instance text, not the edges
            "malformed edge deep in a long array",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":9,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":48,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 79: malformed number"}}"#,
        ),
        (
            "request with both inline instance and handle",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"00000000000000000000000000000000","instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":49,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: carry either an inline instance or a handle, not both"}}"#,
        ),
        (
            "request with neither instance nor handle",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"}}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":50,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: request frames must carry an instance or an instance handle"}}"#,
        ),
        (
            "malformed handle string",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"BEEF"}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":51,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: handle: \"BEEF\" is not a 32-digit lowercase-hex instance handle"}}"#,
        ),
        (
            "handle nobody uploaded",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"00000000000000000000000000000000"}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":52,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: handle: unknown instance handle \"00000000000000000000000000000000\"; upload it first"}}"#,
        ),
        (
            "upload without an instance",
            r#"{"v":1,"type":"upload","id":"x"}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":53,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: upload frames must carry an instance"}}"#,
        ),
        (
            "upload with a malformed instance",
            r#"{"v":1,"type":"upload","id":"x","instance":{"kind":"host","nodes":2,"edges":[[0,5]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":54,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: node index 5 out of range for graph with 2 nodes"}}"#,
        ),
        (
            "upload with a malformed edge",
            r#"{"v":1,"type":"upload","id":"u","instance":{"kind":"bipartite","left":2,"right":2,"edges":[[0,1],[1,-1]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"u","seq":55,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: edges: JSON parse error at byte 59: edge endpoints must be non-negative integers"}}"#,
        ),
        (
            "keyed mutate with malformed inserts (cache miss)",
            r#"{"v":1,"type":"mutate","id":"m","handle":"00000000000000000000000000000000","idempotency_key":"fresh-key","inserts":[[0,1],[2]]}"#.into(),
            r#"{"v":1,"type":"error","id":"m","seq":56,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: inserts: malformed edit list: JSON parse error at byte 9: expected ',', found ']'"}}"#,
        ),
        (
            "keyed mutate with malformed inserts (cache hit)",
            format!(
                r#"{{"v":1,"type":"mutate","id":"m","handle":"00000000000000000000000000000000","idempotency_key":"{CACHED_KEY}","inserts":[[0,1],[2]]}}"#
            ),
            r#"{"v":1,"type":"error","id":"m","seq":57,"replayed":true,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: unknown problem \"graph-coloring\""}}"#,
        ),
        (
            "mutate with malformed deletes after valid inserts",
            r#"{"v":1,"type":"mutate","id":"m","handle":"00000000000000000000000000000000","inserts":[[0,1]],"deletes":[[1, 2.5]]}"#.into(),
            r#"{"v":1,"type":"error","id":"m","seq":58,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: deletes: malformed edit list: JSON parse error at byte 8: edge endpoints must be non-negative integers"}}"#,
        ),
        (
            "release without a handle",
            r#"{"v":1,"type":"release","id":"x"}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":59,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: handle: release frames must name the handle to drop"}}"#,
        ),
        (
            "release of a handle nobody holds",
            r#"{"v":1,"type":"release","id":"x","handle":"00000000000000000000000000000000"}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":60,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: handle: unknown instance handle \"00000000000000000000000000000000\""}}"#,
        ),
    ];
    // the good request chopped at ever-earlier byte offsets, including
    // mid-string, mid-number, and mid-escape cuts
    for (n, expected) in [
        (
            140,
            r#"{"v":1,"type":"error","id":"","seq":61,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 140: expected ',' or '}', found end of input"}}"#,
        ),
        (
            100,
            r#"{"v":1,"type":"error","id":"","seq":62,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 100: unterminated string"}}"#,
        ),
        (
            60,
            r#"{"v":1,"type":"error","id":"","seq":63,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 60: expected '\"', found end of input"}}"#,
        ),
        (
            30,
            r#"{"v":1,"type":"error","id":"","seq":64,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 30: unterminated string"}}"#,
        ),
        (
            10,
            r#"{"v":1,"type":"error","id":"","seq":65,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 10: unterminated string"}}"#,
        ),
        (
            3,
            r#"{"v":1,"type":"error","id":"","seq":66,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 3: unterminated string"}}"#,
        ),
        (
            1,
            r#"{"v":1,"type":"error","id":"","seq":67,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: not a JSON object: JSON parse error at byte 1: expected '\"', found end of input"}}"#,
        ),
    ] {
        table.push((
            "truncated request",
            GOOD_REQUEST.chars().take(n).collect(),
            expected,
        ));
    }
    table.extend(problem_object_rows());
    table.extend(escaped_key_rows());
    table.push((
        "instance that is a 65-deep array",
        format!(
            r#"{{"v":1,"type":"request","id":"x","problem":{{"name":"mis"}},"instance":{}1{}}}"#,
            "[".repeat(65),
            "]".repeat(65)
        ),
        r#"{"v":1,"type":"error","id":"x","seq":75,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: not a JSON object: JSON parse error at byte 0: expected '{', found '['"}}"#,
    ));
    table.extend(oversized_declaration_rows());
    table
}

/// An inline instance may declare at most `max_frame_bytes` nodes (4096
/// here), so a short frame cannot make the server allocate for a huge
/// declared graph. Each row declares one node past the bound, so none
/// would allocate much even if it were built.
fn oversized_declaration_rows() -> Vec<(&'static str, String, &'static str)> {
    vec![
        (
            "bipartite request declaring too many nodes",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"weak-splitting"},"instance":{"kind":"bipartite","left":4000,"right":97,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":76,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: declares left + right = 4097, more than the 4096 nodes max_frame_bytes allows"}}"#,
        ),
        (
            "host request declaring too many nodes",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":4097,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":77,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: declares nodes = 4097, more than the 4096 nodes max_frame_bytes allows"}}"#,
        ),
        (
            "multigraph request declaring too many nodes",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"degree-splitting"},"instance":{"kind":"multigraph","nodes":4097,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":78,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: declares nodes = 4097, more than the 4096 nodes max_frame_bytes allows"}}"#,
        ),
        (
            "upload declaring too many nodes",
            r#"{"v":1,"type":"upload","id":"u","instance":{"kind":"bipartite","left":1,"right":4096,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"u","seq":79,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: declares left + right = 4097, more than the 4096 nodes max_frame_bytes allows"}}"#,
        ),
    ]
}

/// The `problem` object's own errors: its type, a wrong-typed field, a
/// repeated key (offset into the problem text), and a fractional
/// palette bound.
fn problem_object_rows() -> Vec<(&'static str, String, &'static str)> {
    vec![
        (
            "problem that is a string",
            r#"{"v":1,"type":"request","id":"x","problem":"mis","instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":68,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: must be a JSON object"}}"#,
        ),
        (
            "problem field of the wrong type",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"weak-splitting","thm12_constant":"3"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":69,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: thm12_constant must be a number, got string"}}"#,
        ),
        (
            "duplicate key inside the problem",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis","name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":70,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: JSON parse error at byte 20: duplicate key \"name\""}}"#,
        ),
        (
            "fractional palette bound",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"multicolor-splitting","colors":2.5,"lambda":0.5},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":71,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: colors must be an integer palette bound"}}"#,
        ),
    ]
}

/// One key rule for every object: keys match byte for byte, escapes
/// unresolved, so an escaped spelling of a protocol key is a different
/// key — unknown on the frame, and missing where the instance or the
/// problem requires it.
fn escaped_key_rows() -> Vec<(&'static str, String, &'static str)> {
    vec![
        (
            "escaped frame key",
            r#"{"v":1,"type":"request","\u0069d":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"","seq":72,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: frame: unknown field \"\\u0069d\" on a request frame"}}"#,
        ),
        (
            "escaped instance key",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"k\u0069nd":"host","nodes":1,"edges":[]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":73,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: instance: missing instance kind"}}"#,
        ),
        (
            "escaped problem key",
            r#"{"v":1,"type":"request","id":"x","problem":{"n\u0061me":"weak-multicolor"},"instance":{"kind":"bipartite","left":1,"right":1,"edges":[[0,0]]}}"#.into(),
            r#"{"v":1,"type":"error","id":"x","seq":74,"error":{"event":"error","kind":"invalid-request","detail":"invalid request: problem: missing problem name"}}"#,
        ),
    ]
}

#[test]
fn every_hostile_line_gets_a_typed_error_frame() {
    let server = quiet_server();
    // seed the idempotency cache on a first connection, and wait for
    // its reply, so the cache-hit row finds the key
    let mut seeded = Vec::new();
    transport::serve_stream(
        &server,
        format!("{CACHED_KEY_REQUEST}\n").as_bytes(),
        &mut seeded,
    )
    .unwrap();
    let table = hostile_lines();
    // interleave: valid request, all hostile lines, valid request — the
    // connection must survive everything in between
    let mut input = String::new();
    input.push_str(GOOD_REQUEST);
    input.push('\n');
    for (_, line, _) in &table {
        input.push_str(line);
        input.push('\n');
    }
    input.push_str(GOOD_REQUEST);
    input.push('\n');

    let mut out = Vec::new();
    let summary = transport::serve_stream(&server, input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), table.len() + 2, "one reply per line\n{text}");
    assert_eq!(summary.replies_out as usize, frames.len());

    let first = split_reply(frames[0]).expect(frames[0]);
    assert_eq!(first.frame_type, "solution", "leading good request solves");
    let last = split_reply(frames.last().unwrap()).unwrap();
    assert_eq!(
        last.frame_type,
        "solution",
        "the connection survives every hostile line: {}",
        frames.last().unwrap()
    );
    assert_eq!(last.id, "good");

    for (frame, (what, line, expected)) in frames[1..frames.len() - 1].iter().zip(&table) {
        assert_eq!(frame, expected, "{what}: {line}");
        let reply =
            split_reply(frame).unwrap_or_else(|| panic!("{what}: reply frame malformed: {frame}"));
        assert_eq!(reply.frame_type, "error", "{what}: {line} -> {frame}");
        let payload = reply.payload.unwrap();
        assert!(
            payload.contains(r#""event":"error""#)
                && payload.contains(r#""kind":"invalid-request""#),
            "{what}: expected a typed invalid-request payload, got {payload}"
        );
    }
    server.shutdown();
}

#[test]
fn invalid_utf8_gets_a_typed_error_not_a_dropped_connection() {
    let server = quiet_server();
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
    input.extend_from_slice(GOOD_REQUEST.as_bytes());
    input.push(b'\n');
    let mut out = Vec::new();
    transport::serve_stream(&server, &input[..], &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), 2, "{text}");
    let first = split_reply(frames[0]).unwrap();
    assert_eq!(first.frame_type, "error");
    assert!(first.payload.unwrap().contains("not valid UTF-8"));
    let second = split_reply(frames[1]).unwrap();
    assert_eq!(second.frame_type, "solution");
    server.shutdown();
}

#[test]
fn hostile_client_does_not_disturb_other_connections() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    let server = Arc::new(quiet_server());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let server = Arc::clone(&server);
                let stream = stream.unwrap();
                thread::spawn(move || {
                    let reader = BufReader::new(&stream);
                    let _ = transport::serve_stream(&server, reader, &stream);
                });
            }
        });
    }

    // the hostile client holds its connection open mid-garbage while the
    // polite client completes a full request/solution exchange
    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile.write_all(&[0xff, 0xfe, b'\n']).unwrap();
    hostile.write_all(b"{\"v\":1,\"type\":\"requ\n").unwrap();
    hostile.flush().unwrap();

    let polite = TcpStream::connect(addr).unwrap();
    (&polite).write_all(GOOD_REQUEST.as_bytes()).unwrap();
    (&polite).write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&polite).read_line(&mut reply).unwrap();
    let parsed = split_reply(reply.trim_end()).expect(&reply);
    assert_eq!(parsed.frame_type, "solution");
    assert_eq!(parsed.id, "good");

    // the hostile client still gets its two typed error frames back
    let mut hostile_replies = BufReader::new(&hostile).lines();
    for _ in 0..2 {
        let frame = hostile_replies.next().unwrap().unwrap();
        let parsed = split_reply(&frame).expect(&frame);
        assert_eq!(parsed.frame_type, "error");
    }
}

use splitting_server::json::{Number, ParseError, MAX_DEPTH};

#[path = "support/json_tree.rs"]
mod json_tree;

/// Fuzzing of the frame scan's in-place edge-list decoder against the
/// strict `Json` tree parser: whatever bytes arrive as an edge list, the
/// decoder must accept exactly what the tree reads as an array of
/// two-element arrays of non-negative integers, with the same pairs,
/// and flag exactly the non-canonical spellings.
mod edge_decoder_matches_the_tree_parser {
    use super::json_tree::{self, Json};
    use proptest::prelude::*;
    use splitting_server::json;

    /// The reference: a full tree, read back into pairs.
    fn tree(input: &str) -> Option<Vec<(usize, usize)>> {
        let endpoint = |v: &Json| v.as_number()?.as_usize();
        json_tree::parse(input)
            .ok()?
            .as_array()?
            .iter()
            .map(|pair| match pair.as_array()? {
                [u, v] => Some((endpoint(u)?, endpoint(v)?)),
                _ => None,
            })
            .collect()
    }

    /// The decoder, on the list where a frame carries it.
    fn decoded(input: &str) -> Option<json::EdgeList> {
        let line = format!("{{\"edges\":{input}}}");
        let mut list = None;
        json::Cursor::new(&line)
            .object(|c, _| {
                list = Some(c.edge_list(0)?);
                Ok(true)
            })
            .ok()?;
        list?.ok()
    }

    fn assert_agreement(input: &str) {
        let reference = tree(input);
        let list = decoded(input);
        assert_eq!(
            list.as_ref().map(|l| &l.pairs),
            reference.as_ref(),
            "decoder and tree disagree on {input:?}"
        );
        if let Some(list) = list {
            // an accepted list holds sign, fraction, and exponent bytes
            // only inside endpoints, so these mark a non-canonical one
            let spelled = input
                .bytes()
                .any(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'));
            assert_eq!(list.canonical, !spelled, "canonical flag on {input:?}");
        }
    }

    /// Every character class an edge encoding (or near-miss) can use:
    /// digits, structure, whitespace, sign/float/exponent spellings, and
    /// one outright illegal byte.
    const ALPHABET: &[u8] = b"0123456789,[] -+.eEx";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // byte soup over the edge-list alphabet: mostly invalid inputs,
        // exercising every error branch of the decoder
        #[test]
        fn random_soup_agrees(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..64)
        ) {
            let input: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
            assert_agreement(&input);
        }

        // structurally valid edge lists with random whitespace, then a
        // single-character substitution and deletion — near-valid inputs
        // probe the boundary between canonical digits, other spellings,
        // and errors
        #[test]
        fn perturbed_edge_lists_agree(
            (pairs, gaps, mutate, at, replacement) in (
                proptest::collection::vec((0u64..1u64 << 40, 0u64..1u64 << 40), 0..24),
                proptest::collection::vec(0usize..3, 1..16),
                0usize..2,
                0usize..4096,
                0usize..ALPHABET.len(),
            )
        ) {
            let mut encoded = String::from("[");
            for (i, (u, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    encoded.push(',');
                }
                let pad = " ".repeat(gaps[i % gaps.len()]);
                encoded.push_str(&format!("{pad}[{u},{pad}{v}]"));
            }
            encoded.push(']');
            assert_agreement(&encoded);
            if mutate == 1 {
                let at = at % encoded.len();
                let mut mutated: String = encoded
                    .char_indices()
                    .map(|(i, c)| if i == at { ALPHABET[replacement] as char } else { c })
                    .collect();
                assert_agreement(&mutated);
                // and a deletion at the same spot
                mutated.remove(at);
                assert_agreement(&mutated);
            }
        }
    }
}

/// The frame walk judges a value's structure by where it sits, not by
/// which key it sits under: `instance` (scanned as an object),
/// `problem` (scanned as an object when it is one) and an unknown key
/// (skipped) must reject the same values, with the same reason at the
/// same offset into the value, and accept the same values.
mod walk_is_key_independent {
    use proptest::prelude::*;
    use splitting_api::ApiError;
    use splitting_server::wire;

    /// Innermost values: well-formed scalars and containers, a repeated
    /// key, an `edges` list an instance decodes, and malformed text.
    const LEAVES: &[&str] = &[
        "1",
        "\"s\"",
        "[]",
        "{}",
        "[1,2]",
        "{\"edges\":[[0,1]]}",
        "{\"edges\":[[0,,1]]}",
        "{\"a\":1,\"a\":2}",
        "tru",
        "[1,]",
        "{\"k\" 1}",
        "\"open",
    ];

    /// `(reason, offset into the value)` when the frame walk rejects the
    /// line, `None` when it accepts it (whatever comes after).
    fn walk_verdict(key: &str, value: &str) -> Option<(String, usize)> {
        let head = format!(r#"{{"v":1,"type":"request","id":"x","{key}":"#);
        let line = format!("{head}{value}}}");
        let Err(ApiError::InvalidRequest {
            field: "frame",
            reason,
        }) = wire::scan(&line)
        else {
            return None;
        };
        let rest = reason.strip_prefix("not a JSON object: JSON parse error at byte ")?;
        let (at, why) = rest.split_once(": ")?;
        let at: usize = at.parse().expect("a byte offset");
        Some((why.to_string(), at.saturating_sub(head.len())))
    }

    proptest! {
        #[test]
        fn instance_problem_and_unknown_keys_agree(
            (depth, wrappers, leaf, siblings) in
                (0usize..72, 0u64..u64::MAX, 0usize..LEAVES.len(), 0u64..u64::MAX)
        ) {
            // nest the leaf in `depth` arrays or objects (bits of
            // `wrappers`), some with a sibling before the nested value
            let (mut open, mut close) = (String::new(), String::new());
            for level in 0..depth {
                let sibling = (siblings >> (level % 64)) & 1 == 1;
                if (wrappers >> (level % 64)) & 1 == 0 {
                    open.push_str(if sibling { "[0," } else { "[" });
                    close.insert(0, ']');
                } else {
                    open.push_str(if sibling { "{\"s\":0,\"k\":" } else { "{\"k\":" });
                    close.insert(0, '}');
                }
            }
            let value = format!("{open}{}{close}", LEAVES[leaf]);
            let unknown = walk_verdict("pad", &value);
            prop_assert_eq!(walk_verdict("instance", &value), unknown.clone());
            prop_assert_eq!(walk_verdict("problem", &value), unknown);
        }
    }

    #[test]
    fn the_depth_cap_does_not_depend_on_the_key() {
        for depth in [63, 64, 65, 66] {
            let value = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            let unknown = walk_verdict("pad", &value);
            assert_eq!(unknown.is_some(), depth > 65, "depth {depth}");
            assert_eq!(walk_verdict("instance", &value), unknown, "depth {depth}");
            assert_eq!(walk_verdict("problem", &value), unknown, "depth {depth}");
        }
    }
}
