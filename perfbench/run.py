#!/usr/bin/env python3
"""End-to-end benchmark of the `splitd` daemon, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload {wire,thm25,churn} --seed N \
        --seconds S --trace {0,1}

The script builds `splitd` and the in-process probe (`perfbench/probe`)
from source with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), makes the workload's inputs
from `--seed`, and drives one `splitd --workers 1` process over its stdio
wire protocol as a closed loop: one client, one outstanding frame, the
next frame sent when the previous reply has been read. An operation is
timed from the first byte written to the last reply byte read.

Workloads (all weak splitting, the paper's central problem):

* `wire`  -- inline `request` frames of 45-140 KB in three randomized
  regimes (Theorem 2.7, zero-round, Theorem 1.2); one operation is one
  frame of each. The wire ingest path (frame scan, instance parse, CSR
  build) carries a large share of each request.
* `thm25` -- deterministic solves forced onto the Theorem 2.5 pipeline;
  one operation is one solve on each of its branches: Lemma 2.2 directly
  (n = 3000, delta = 24) and Degree-Rank Reduction I first (n = 720,
  delta = 560).
* `churn` -- `splitd --journal`: one uploaded instance (n = 8000,
  m = 112000) solved by handle, then `mutate` batches (six rewired edges
  each), each followed by a solve of the new handle, which the server
  answers by incremental repair of the held solution. One operation is
  the mutate plus the repaired solve. The batches walk sixteen steps out
  from the uploaded instance and back, over and over. The journal
  interns a solve's full instance (1.3 MB) once per distinct instance,
  so after the first walk no operation writes a full instance: this
  workload measures repair and steady-state journal records, not
  instance interning. A walk that never returned wrote about 2.5 GB per
  30 s run, which made the run's speed hinge on the disk's writeback.

Every reply is checked: a `solution` whose certificate holds, of the
instance's length, on the workload's expected routes; `mutated` replies
must echo the model's edit and edge counts. The probe then replays the
run's solves through the library and must reproduce `splitd`'s payload
bytes, and this script checks the colorings the probe returns against its
own copy of each graph (every constraint must see both colors).

With `--trace 0` the result holds the end-to-end metrics:

* `op_cpu_ref_ms` -- the CPU time `splitd` spends on one operation,
  stated for a reference host: after every operation the probe runs one
  pass of a fixed kernel that uses none of the repository's code
  (`probe calibrate`), and the metric is the median over the run of
  (splitd CPU time of the operation / CPU time of the pass that followed
  it) x 1 ms, that is, milliseconds on a host where one pass takes 1 ms.
  On an idle host `splitd`'s CPU time per operation is within about 10%
  of the median latency on every workload, so this is the latency a
  client waits for, less the time the host's other tenants take. It is
  measured this way because the host's speed drifts: on a shared 2-vCPU
  virtual machine the median latency of the same code moved by 1.6x
  within an hour, and CPU time with it, while the ratio to the
  interleaved pass moved far less. Time `splitd` spends waiting (on the
  journal's disk, for instance) is not CPU time and does not count. The
  median and 90th-percentile latency, splitd's raw CPU time per
  operation and the pass time are logged on standard error.
* `setup_s` -- the median over fifteen set-ups of starting `splitd` and
  bringing it to the measured state (one request of each shape
  answered; for `churn`, the instance uploaded and solved).

With `--trace 1` the same run reports per-layer metrics instead: server
stage times from the reply envelopes (`queued_ns`, `solve_ns`), counters
from a `heartbeat` frame, round ledgers from the payloads, and the
probe's median span times around the library call into each layer, on
this workload's inputs. `wire.parse_us` times all of `parse_request`,
which includes the instance's CSR build; `splitgraph.csr_build_us` times
that bulk build on its own. `splitgraph.delta_apply_us` and
`api.repair_us` read 0 on `wire` and `thm25`, which send no mutate.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import fcntl
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
F_SETPIPE_SZ = 1031  # Linux fcntl: resize a pipe buffer
SETUP_REPS = 15
CALIBRATION_WARMUP = 50
REF_PASS_MS = 1.0  # op_cpu_ref_ms is stated for a host where one reference pass takes this
SHUTDOWN = b'{"v":1,"type":"shutdown"}\n'
PING = b'{"v":1,"type":"ping","id":"hb"}\n'


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build

def build():
    """Builds splitd and the probe; returns their paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "server"))):
        raise BenchError("run from the repository root (crates/server not found)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "splitting-server", "--bin", "splitd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for cmd in commands:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return target, os.path.join(release, "splitd"), os.path.join(release, "perfbench-probe")


# --------------------------------------------------------------- inputs

def biregular(rng, left, right, d):
    """Random bipartite graph, every constraint of degree d and every
    variable of degree left*d/right (configuration model, repeated
    variables swapped away)."""
    r = left * d // right
    assert r * right == left * d
    stubs = [v for v in range(right) for _ in range(r)]
    rng.shuffle(stubs)
    groups = [stubs[u * d:(u + 1) * d] for u in range(left)]
    for u, g in enumerate(groups):
        seen = set()
        for i in range(d):
            while g[i] in seen:
                w, j = rng.randrange(left), rng.randrange(d)
                a, b = g[i], groups[w][j]
                if w != u and b not in seen and a not in groups[w]:
                    g[i], groups[w][j] = b, a
            seen.add(g[i])
    return [(u, v) for u, g in enumerate(groups) for v in sorted(g)]


def left_regular(rng, left, right, d):
    """Random bipartite graph, every constraint of degree d."""
    return [(u, v) for u in range(left) for v in sorted(rng.sample(range(right), d))]


class Instance:
    def __init__(self, left, right, edges):
        self.left, self.right, self.edges = left, right, edges
        self.json = '{"kind":"bipartite","left":%d,"right":%d,"edges":[%s]}' % (
            left, right, ",".join("[%d,%d]" % e for e in edges))


def request_frame(rid, body, det, seed, pipeline):
    force = ',"force_pipeline":"%s"' % pipeline if pipeline else ""
    return ('{"v":1,"type":"request","id":"%s","priority":"normal",'
            '"problem":{"name":"weak-splitting","thm12_constant":3},%s,'
            '"determinism":"%s","seed":%d%s}\n'
            % (rid, body, "deterministic" if det else "randomized", seed, force)).encode()


def pairs_text(pairs):
    return " ".join("%d %d" % p for p in pairs)


def weak_splitting_holds(inst, bits):
    """Independent check: every constraint sees both colors."""
    if len(bits) != inst.right:
        return False
    seen = [0] * inst.left
    for u, v in inst.edges:
        seen[u] |= 1 << (bits[v] == "1")
    return all(s == 3 for s in seen)


# ---------------------------------------------------------------- splitd

class Splitd:
    """One splitd process spoken to over stdio, one frame at a time."""

    def __init__(self, exe, extra):
        self.proc = subprocess.Popen([exe, "--workers", "1", *extra],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        # a whole frame fits the pipe, so one write hands it over instead
        # of ping-ponging 64 KiB chunks between client and server
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                fcntl.fcntl(pipe.fileno(), F_SETPIPE_SZ, 1 << 20)
            except OSError:
                pass

    def call(self, frame):
        start = time.perf_counter()
        self.proc.stdin.write(frame)
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if not reply:
            raise BenchError("splitd closed its output")
        return reply, elapsed

    def heartbeat(self):
        reply, _ = self.call(PING)
        return json.loads(reply)

    def close(self):
        try:
            self.proc.stdin.write(SHUTDOWN)
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


class CpuClock:
    """CPU time a process's threads have run (Linux schedstat). The
    kernel brings a thread's figure up to date when it stops running, so
    read it while the process waits for its next input. Threads the
    process starts after this opens are not counted; splitd starts none
    once it has answered a request."""

    def __init__(self, pid):
        task = "/proc/%d/task" % pid
        self.fds = [os.open(os.path.join(task, tid, "schedstat"), os.O_RDONLY)
                    for tid in os.listdir(task)]

    def seconds(self):
        return sum(int(os.pread(fd, 64, 0).split()[0]) for fd in self.fds) / 1e9

    def close(self):
        for fd in self.fds:
            os.close(fd)


class Calibrator:
    """The probe's reference kernel (`probe calibrate`), one pass per call."""

    def __init__(self, exe):
        self.proc = subprocess.Popen([exe, "calibrate"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def pass_seconds(self):
        """Runs one pass; returns its CPU time."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the reference kernel stopped")
        return int(line) / 1e9

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def payload_of(reply):
    """The embedded payload object, byte-exact (always the last field)."""
    frame = json.loads(reply)
    key = b'"%s":' % frame["type"].encode()
    return frame, reply[reply.index(key) + len(key):reply.rstrip(b"\n").rindex(b"}")].decode()


# ------------------------------------------------------------- workloads

class Run:
    """Bookkeeping shared by every workload."""

    def __init__(self):
        self.latencies = []    # seconds per operation
        self.cpu = []          # splitd CPU seconds per operation
        self.passes = []       # reference pass CPU seconds, one after each operation
        self.stages = []       # (rtt, queued_ns, solve_ns) per solve frame
        self.rounds = []       # (measured, charged) per solution
        self.routes = {}
        self.failed = 0        # failed replies
        self.errors = []
        self.script = []       # probe script lines
        self.checks = {}       # script line number -> Instance to check the coloring on

    def solution(self, reply, rtt, inst, routes):
        """Checks a solve reply; returns (payload, whether it checked out)."""
        frame, payload = payload_of(reply)
        if frame["type"] != "solution":
            self.failed += 1
            self.errors.append(payload)
            return payload, False
        sol = frame["solution"]
        cert = sol["certificate"]
        ok = (cert["holds"] is True and cert["violations"] == 0
              and sol["output"]["len"] == inst.right and sol["route"] in routes)
        if not ok:
            self.errors.append("bad solution: " + payload)
        self.routes[sol["route"]] = self.routes.get(sol["route"], 0) + 1
        self.rounds.append((sol["rounds"]["measured"], sol["rounds"]["charged"]))
        if "queued_ns" in frame:
            self.stages.append((rtt, frame["queued_ns"], frame["solve_ns"]))
        return payload, ok

    def line(self, *fields):
        self.script.append("\t".join(str(f) for f in fields))
        return len(self.script)


class Stream:
    """`wire` and `thm25`: inline request frames cycling over a pool of
    instances, shapes interleaved. The first pass over the pool is
    replayed by the probe and its colorings checked here."""

    def __init__(self, rng, seed, shapes):
        # shapes: (generator, left, right, d, det, pipeline, routes, copies)
        self.pool = []
        for gen, left, right, d, det, pipeline, routes, copies in shapes:
            for _ in range(copies):
                inst = Instance(left, right, gen(rng, left, right, d))
                self.pool.append((inst, det, pipeline, routes))
        n = self.shapes = len(shapes)
        per = len(self.pool) // n
        self.pool = [self.pool[s * per + i] for i in range(per) for s in range(n)]
        self.seed = seed
        self.next = 0

    def warm(self, server, run):
        """One request of each shape."""
        for inst, det, pipeline, routes in self.pool[:self.shapes]:
            reply, rtt = server.call(request_frame("warm", "\"instance\":" + inst.json, det,
                                                   self.seed, pipeline))
            if not run.solution(reply, rtt, inst, routes)[1]:
                raise BenchError("warm-up request failed: " + reply.decode()[:300])

    def op(self, server, run):
        """One request of each shape, back to back."""
        total = 0.0
        for _ in range(self.shapes):
            i = self.next
            self.next += 1
            k = i % len(self.pool)
            inst, det, pipeline, routes = self.pool[k]
            seed = self.seed * 100003 + i
            frame = request_frame("r%d" % i, "\"instance\":" + inst.json, det, seed, pipeline)
            reply, rtt = server.call(frame)
            payload, _ = run.solution(reply, rtt, inst, routes)
            if i < len(self.pool):
                run.line("I", inst.left, inst.right, pairs_text(inst.edges))
                n = run.line("S", k, "det" if det else "rand", seed, pipeline or "-", 1, payload)
                run.checks[n] = inst
            total += rtt
        return total

    def finish(self, server, run):
        pass


class Churn:
    """`churn`: mutate + repaired solve on one uploaded, journaled instance."""

    LEFT = RIGHT = 4000
    DEGREE = 28
    MOVES = 6
    WALK = 16

    def __init__(self, rng, seed):
        self.rng = rng
        self.seed = seed
        self.base = Instance(self.LEFT, self.RIGHT,
                             biregular(rng, self.LEFT, self.RIGHT, self.DEGREE))
        self.reset()
        out = []
        for _ in range(self.WALK):
            out.append(self.rewire())
            self.apply(*out[-1])
        self.walk = out + [(deletes, inserts) for inserts, deletes in reversed(out)]

    def reset(self):
        """Edge model back at the uploaded instance."""
        self.edges = list(self.base.edges)
        self.index = {e: i for i, e in enumerate(self.edges)}

    def warm(self, server, run):
        """Upload and first (held) solve; resets the edge model."""
        self.reset()
        self.op_count = 0
        reply, _ = server.call(b'{"v":1,"type":"upload","id":"up","instance":%s}\n'
                               % self.base.json.encode())
        frame = json.loads(reply)
        if frame["type"] != "uploaded":
            raise BenchError("upload failed: " + reply.decode()[:300])
        self.handle = frame["uploaded"]["handle"]
        reply, rtt = server.call(self.solve_frame("h0"))
        payload, ok = run.solution(reply, rtt, self.base, ("theorem25",))
        if not ok:
            raise BenchError("first solve failed: " + payload[:300])
        run.script = []
        run.checks = {}
        run.line("I", self.LEFT, self.RIGHT, pairs_text(self.base.edges))
        run.checks[run.line("H", 0, "det", self.seed, "-", 1, payload)] = self.base

    def solve_frame(self, rid):
        return request_frame(rid, '"handle":"%s"' % self.handle, True, self.seed, None)

    def rewire(self):
        """Edits moving MOVES edges each to a variable their constraint
        misses; constraint degrees stay fixed, so the Theorem 2.5 regime
        holds."""
        deletes, inserts = [], []
        taken = set()
        while len(deletes) < self.MOVES:
            u, v = self.edges[self.rng.randrange(len(self.edges))]
            w = self.rng.randrange(self.RIGHT)
            if (u, v) in taken or (u, w) in self.index or (u, w) in taken:
                continue
            taken.update([(u, v), (u, w)])
            deletes.append((u, v))
            inserts.append((u, w))
        return sorted(inserts), sorted(deletes)

    def apply(self, inserts, deletes):
        for e in deletes:
            i = self.index.pop(e)
            last = self.edges.pop()
            if i < len(self.edges):
                self.edges[i] = last
                self.index[last] = i
        for e in inserts:
            self.index[e] = len(self.edges)
            self.edges.append(e)

    def op(self, server, run):
        i = self.op_count
        self.op_count += 1
        inserts, deletes = self.walk[i % len(self.walk)]
        self.apply(inserts, deletes)
        frame = (b'{"v":1,"type":"mutate","id":"m%d","handle":"%s","inserts":[%s],"deletes":[%s]}\n'
                 % (i, self.handle.encode(),
                    ",".join("[%d,%d]" % e for e in inserts).encode(),
                    ",".join("[%d,%d]" % e for e in deletes).encode()))
        reply, rtt_mutate = server.call(frame)
        frame = json.loads(reply)
        if frame["type"] != "mutated":
            raise BenchError("mutate failed: " + reply.decode()[:300])
        m = frame["mutated"]
        if (m["inserted"], m["deleted"], m["edges"]) != (self.MOVES, self.MOVES, len(self.edges)):
            run.errors.append("mutated reply disagrees with the model: " + reply.decode())
        self.handle = m["new_handle"]
        reply, rtt_solve = server.call(self.solve_frame("s%d" % i))
        payload, _ = run.solution(reply, rtt_solve, self.base,
                                  ("weak-splitting/repair", "theorem25"))
        run.line("M", pairs_text(inserts), pairs_text(deletes), 0, payload)
        return rtt_mutate + rtt_solve

    def finish(self, server, run):
        # the final coloring is checked against the model's patched graph
        if self.op_count == 0:
            return
        fields = run.script[-1].split("\t")
        fields[3] = "1"
        run.script[-1] = "\t".join(fields)
        run.checks[len(run.script)] = Instance(self.LEFT, self.RIGHT, sorted(self.edges))
        run.line("E", self.handle)


def make_workload(name, seed):
    rng = random.Random("%s:%d" % (name, seed))
    if name == "wire":
        return Stream(rng, seed, [
            (biregular, 200, 1200, 24, False, None, ("theorem27",), 6),
            (biregular, 600, 600, 24, False, None, ("zero-round",), 6),
            (biregular, 400, 1800, 18, False, None, ("theorem12",), 6),
        ])
    if name == "thm25":
        return Stream(rng, seed, [
            (biregular, 1500, 1500, 24, True, "theorem25", ("theorem25",), 12),
            (left_regular, 80, 640, 560, True, "theorem25", ("theorem25",), 12),
        ])
    if name == "churn":
        return Churn(rng, seed)
    raise BenchError("unknown workload %r (wire, thm25, churn)" % name)


# ------------------------------------------------------------------ run

def quantile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def probe(exe, work, run, mode):
    path = os.path.join(work, "script.tsv")
    with open(path, "w") as f:
        f.write("\n".join(run.script) + "\n")
    out = subprocess.run([exe, mode, path], stdout=subprocess.PIPE, text=True, timeout=150)
    return out.returncode, out.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target, splitd, probe_exe = build()
    workload = make_workload(args.workload, args.seed)
    work = os.path.join(target, "perfbench", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    extra = []
    if args.workload == "churn":
        extra = ["--journal", os.path.join(work, "churn.wal")]

    run = Run()
    server = calibrator = clock = None
    try:
        setups = []
        for rep in range(SETUP_REPS):
            if server:
                server.close()
            if os.path.exists(os.path.join(work, "churn.wal")):
                os.remove(os.path.join(work, "churn.wal"))
            start = time.perf_counter()
            server = Splitd(splitd, extra)
            server.heartbeat()
            workload.warm(server, run)
            setups.append(time.perf_counter() - start)
        run.stages, run.rounds, run.routes = [], [], {}
        calibrator = Calibrator(probe_exe)
        for _ in range(CALIBRATION_WARMUP):
            calibrator.pass_seconds()
        failed_ops = 0
        before = server.heartbeat()
        clock = CpuClock(server.proc.pid)
        cpu = clock.seconds()
        start = time.perf_counter()
        deadline = start + args.seconds
        while time.perf_counter() < deadline:
            failed = run.failed
            run.latencies.append(workload.op(server, run))
            failed_ops += run.failed > failed
            # the pass runs first, so splitd's threads are back to waiting
            # and their CPU figures are up to date when read
            run.passes.append(calibrator.pass_seconds())
            now = clock.seconds()
            run.cpu.append(now - cpu)
            cpu = now
        elapsed = time.perf_counter() - start
        after = server.heartbeat()
        workload.finish(server, run)
    finally:
        if clock:
            clock.close()
        if server:
            server.close()
        if calibrator:
            calibrator.close()

    ops = len(run.latencies)
    code, lines = probe(probe_exe, work, run, "verify")
    correct = code == 0 and not run.errors
    colorings = 0
    for line in lines:
        tag, *rest = line.split("\t")
        if tag == "C":
            inst = run.checks.get(int(rest[0]))
            if inst is None or not weak_splitting_holds(inst, rest[1]):
                correct = False
                run.errors.append("coloring of script line %s fails the check" % rest[0])
            colorings += 1
        elif tag == "MISMATCH":
            run.errors.append("probe: " + line)
    if colorings != len(run.checks):
        correct = False
        run.errors.append("probe returned %d of %d colorings" % (colorings, len(run.checks)))
    for e in run.errors[:5]:
        log(e[:400])
    ms = [t * 1e3 for t in run.latencies]
    ref_ms = statistics.median(c / p for c, p in zip(run.cpu, run.passes)) * REF_PASS_MS
    log("%s seed %d: %d ops in %.2f s, routes %s; latency p50 %.3f ms, p90 %.3f ms; "
        "splitd cpu/op %.3f ms; reference pass %.1f us; cpu/op at reference %.4f ms"
        % (args.workload, args.seed, ops, elapsed, run.routes, quantile(ms, 0.5),
           quantile(ms, 0.9), statistics.median(run.cpu) * 1e3,
           statistics.median(run.passes) * 1e6, ref_ms))

    if args.trace == 0:
        metrics = {
            "op_cpu_ref_ms": (ref_ms, "ms"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        code, lines = probe(probe_exe, work, run, "spans")
        if code != 0 or not lines:
            raise BenchError("probe spans failed")
        spans = json.loads(lines[-1])
        us = lambda xs: statistics.median(xs) / 1e3
        repairs = after["repairs"] - before["repairs"]
        resolves = after["full_resolves"] - before["full_resolves"]
        metrics = {
            "server.queue_wait_us": (us([q for _, q, _ in run.stages]), "us"),
            "server.worker_us": (us([s for _, _, s in run.stages]), "us"),
            "server.ingest_deliver_us": (
                statistics.median([r * 1e6 - (q + s) / 1e3 for r, q, s in run.stages]), "us"),
            "server.journal_records_per_op": (
                (after["journal_appended"] - before["journal_appended"]) / ops, "1/op"),
            "server.journal_bytes_per_op": (
                max(0, after["journal_bytes"] - before["journal_bytes"]) / ops, "B/op"),
            "server.parse_fallbacks": (after["parse_fallbacks"], "count"),
            "api.repair_share": (repairs / (repairs + resolves) if repairs + resolves else 0.0,
                                 "ratio"),
            "api.refix_permille": (after["refix_mean_permille"], "permille"),
            "core.rounds_measured": (statistics.mean(r for r, _ in run.rounds), "rounds"),
            "core.rounds_charged": (statistics.mean(c for _, c in run.rounds), "rounds"),
            "server.cpu_per_op_us": (statistics.median(run.cpu) * 1e6, "us"),
            "host.reference_pass_us": (statistics.median(run.passes) * 1e6, "us"),
        }
        for name in ("wire.parse_us", "splitgraph.csr_build_us", "api.solve_us",
                     "api.certify_us", "api.render_us", "splitgraph.delta_apply_us",
                     "api.repair_us"):
            metrics[name] = (spans.get(name, 0.0), "us")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": ops,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(2)
