#!/usr/bin/env python3
"""End-to-end benchmark of nbtisim.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `nbtisim` CLI and the benchmark's
helper from source into .bench_build/ (first run only), makes the
workload's inputs from the seed, sets up, then runs jobs for S seconds the
way users run them: `nbtisim` child processes with --threads = CPU count,
driven by this one process. Every output is checked; the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untimed CLI job, then replays the same work in-process through the
helper, which records spans around each call into a module's public
functions; it reports the per-layer metrics (self time per layer and work
counters). See README.md for the workloads and the metric map.
"""

import argparse
import atexit
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
NBTISIM = os.path.join(BUILD, "nbtisim", "src", "tools", "nbtisim")
HELPER = os.path.join(BUILD, "perfbench_helper")

WORKLOADS = ("signoff-dag100k", "campaign-grid")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
LIFETIME_SAMPLES = 20
CHILD_TIMEOUT_S = 150

ANALYSES = inputs.GRID_ANALYSES
PER_LAYER = (
    ["netlist.parse_s", "netlist.levelize_s", "netlist.gates",
     "sim.signal_stats_s",
     "sta.engine_build_s", "sta.analyze_s", "sta.analyze_calls",
     "aging.analyzer_build_s", "aging.stress_build_s", "aging.stress_builds",
     "aging.contexts", "aging.distinct_duties", "aging.stress_build_share",
     "aging.failure_s",
     "nbti.dvth_eval_s", "nbti.device_evals",
     "variation.lifetime_s", "variation.samples"]
    + [f"analysis.{a}_s" for a in ANALYSES]
    + ["analysis.context_build_s", "analysis.contexts_built",
       "analysis.context_hit_ratio",
       "campaign.expand_s", "campaign.tasks", "campaign.store_append_s",
       "campaign.rows_written", "campaign.summarize_s", "campaign.resume_s",
       "query.view_load_s", "query.parse_s", "query.run_s", "query.format_s",
       "query.rows_parsed", "query.rows_matched", "query.index_entries",
       "query.prune_ratio",
       "trace.overhead_frac"])


LIVE = []  # every child process started; any still running is stopped at exit


@atexit.register
def _stop_children():
    for p in LIVE:
        if p.returncode is None and p.poll() is None:
            p.kill()
            p.wait()


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def threads():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------- build

def build():
    """Configure (once) and build nbtisim + helper; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(ROOT, ".bench_build", "build.log")
    with open(logfile, "a") as lf:
        steps = []
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(threads()),
                      "--target", "nbtisim_cli", "perfbench_helper"])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                                cwd=ROOT, timeout=850).returncode
            if rc != 0:
                lf.flush()
                with open(logfile) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log(f"build failed: {' '.join(cmd)}")
                sys.exit(1)


# ---------------------------------------------------------------- processes

class Child:
    """Result of one child process: exit code, output, wall time, peak RSS."""

    def __init__(self, rc, out, err, wall_s, rss_mb):
        self.rc, self.out, self.err = rc, out, err
        self.wall_s, self.rss_mb = wall_s, rss_mb


def run_child(argv, tag):
    """Runs argv to completion, timing it and reading its own peak RSS."""
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL, cwd=ROOT)
        LIVE.append(p)
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err_text = f.read()
    return Child(p.returncode, text, err_text, wall, ru.ru_maxrss / 1024.0)


class Ops:
    """Attempted / failed operation counts and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems

    def child(self, c, what, extra=()):
        problems = [] if c.rc == 0 else [
            f"{what}: exit {c.rc}: {c.err.strip()[-300:]}"]
        if not problems:
            problems = list(extra(c) if callable(extra) else extra)
        return self.record(problems)


def quantile(values, q):
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(setup, jobs, elapsed, rss, ops):
    """The end-to-end metrics of one run; `rss` holds each job's peak RSS."""
    log(f"{len(jobs)} jobs, {len(setup)} set-ups")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s": (statistics.median(jobs), "s"),
        "job_p99_s": (quantile(jobs, 0.99), "s"),
        "jobs_per_s": (len(jobs) / elapsed, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "success_rate": (1.0 - ops.failed / max(1, ops.attempted), "ratio"),
    }


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def file_bytes(paths):
    out = []
    for p in paths:
        with open(p, "rb") as f:
            out.append(f.read())
    return out


def store_files(store_dir):
    return sorted(os.path.join(store_dir, f) for f in os.listdir(store_dir)
                  if f.endswith(".jsonl") and ".index." not in f)


# ------------------------------------------------------------------- spans

def self_times(spans):
    """Self time per span: duration minus the union of its children."""
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = []
    for i, (name, start, end, _) in enumerate(spans):
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in sorted((max(start, spans[c][1]), min(end, spans[c][2]))
                           for c in children.get(i, [])):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((name, end - start, end - start - covered))
    return out


def layer_times(traces):
    """Per replay: {span name: (summed duration, summed self time)}."""
    result = []
    for t in traces:
        acc = {}
        for name, dur, self_t in self_times(t["spans"]):
            d, s = acc.get(name, (0.0, 0.0))
            acc[name] = (d + dur, s + self_t)
        result.append(acc)
    return result


def per_layer(traces, extra):
    """Per-layer metrics: median over replays of each layer's self time,
    counters from the first replay, zero for layers the workload skips."""
    times = layer_times(traces)
    m = {name: statistics.median(t.get(name[:-2], (0.0, 0.0))[1]
                                 for t in times) if name.endswith("_s")
         else 0.0 for name in PER_LAYER}
    # Descriptor build: first gate_dvth per policy minus its cached repeat
    # (signoff), or the helper's probe-priced estimate (campaign-grid).
    # Its share is of the job's wall time when the replay drives the job
    # from one thread, and of the busy time of the task spans when the
    # tasks run on the pool.
    counters = traces[0]["counters"]
    if "aging.stress_build_s" in counters:
        stress = [t["counters"]["aging.stress_build_s"] for t in traces]
        basis = [sum(v[0] for k, v in lt.items() if k.startswith("analysis."))
                 for lt in times]
    else:
        stress = [t.get("aging.gate_dvth_first", (0, 0))[1] -
                  t.get("nbti.dvth_eval", (0, 0))[1] for t in times]
        basis = [sum(v[0] for k, v in t.items() if k.endswith(".job"))
                 for t in times]
    m["aging.stress_build_s"] = statistics.median(stress)
    if m["aging.stress_build_s"] > 0:
        m["aging.stress_build_share"] = statistics.median(
            s / b for s, b in zip(stress, basis))
    for name in PER_LAYER:
        if name in counters and name != "aging.stress_build_s":
            m[name] = counters[name]
    if counters.get("analysis.context_requests"):
        m["analysis.context_hit_ratio"] = 1.0 - (
            counters["analysis.contexts_built"] /
            counters["analysis.context_requests"])
    if counters.get("query.index_entries"):
        m["query.prune_ratio"] = 1.0 - (counters["query.rows_parsed"] /
                                        counters["query.index_entries"])
    m.update(extra)
    units = {name: ("s" if name.endswith("_s") else
                    "ratio" if name.endswith(("_share", "_ratio", "_frac"))
                    else "count") for name in PER_LAYER}
    return {name: (m[name], units[name]) for name in PER_LAYER}


def run_trace(argv, tag, ops):
    out = os.path.join(WORK, f"{tag}.trace.json")
    c = run_child(argv + [out], tag)
    if not ops.child(c, f"helper {argv[1]}"):
        return None
    with open(out) as f:
        return json.load(f)


# ------------------------------------------------------- signoff-dag100k

def signoff(seed, seconds, trace):
    ops = Ops()
    n = str(threads())
    bench = os.path.join(WORK, "circuit.bench")
    spec = inputs.signoff_circuit_spec(seed)

    setup, circuit = [], None
    for i in range(SETUP_REPEATS if not trace else 1):
        c = run_child([NBTISIM, "generate", spec, "--out", bench], f"gen{i}")
        data = file_bytes([bench])[0] if c.rc == 0 else b""
        ops.child(c, "generate", [] if circuit in (None, data) else
                  ["generate: circuit differs between set-ups"])
        circuit = data
        setup.append(c.wall_s)

    def chain(k):
        """One signoff: nbtisim aging, failure, lifetime on the circuit."""
        jobs = [("aging", [], checks.check_aging),
                ("failure", [], checks.check_failure),
                ("lifetime", ["--samples", str(LIFETIME_SAMPLES)],
                 checks.check_lifetime)]
        texts, wall, rss = {}, 0.0, 0.0
        for verb, args, check in jobs:
            c = run_child([NBTISIM, verb, bench, "--threads", n, *args],
                          f"{verb}{k}")
            ops.child(c, verb, lambda c: check(c.out))
            texts[verb] = c.out
            wall += c.wall_s
            rss = max(rss, c.rss_mb)
        return texts, wall, rss

    t0 = time.perf_counter()
    first, walls, rss = None, [], []
    while not walls or (not trace and time.perf_counter() - t0 < seconds):
        texts, wall, peak = chain(len(walls))
        if first is None:
            first = texts
        elif texts != first:
            ops.record(["signoff: job output differs between repeats"])
        walls.append(wall)
        rss.append(peak)
    measured = time.perf_counter() - t0
    dig = checks.digest([checks.printed_numbers(first[v])
                         for v in ("aging", "failure", "lifetime")])

    if not trace:
        return ops, end_to_end(setup, walls, measured, rss, ops), dig
    traces = []
    t0 = time.perf_counter()
    while not traces or time.perf_counter() - t0 < seconds - walls[0]:
        t = run_trace([HELPER, "trace-signoff", bench, n,
                       str(LIFETIME_SAMPLES)], f"trace{len(traces)}", ops)
        if t is None:
            break
        ops.record(checks.check_signoff_replay(
            t["results"], first["aging"], first["failure"], first["lifetime"]))
        traces.append(t)
    if not traces:
        return ops, None, dig
    replay = statistics.median(layer_times([t])[0]["signoff.job"][0]
                               for t in traces)
    return ops, per_layer(traces, {
        "trace.overhead_frac": replay / walls[0] - 1.0}), dig


# ------------------------------------------------------------ campaign-grid

class Server:
    """`nbtisim campaign serve` over stdio, driven by one closed-loop client."""

    def __init__(self, spec_path, store, n):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [NBTISIM, "campaign", "serve", spec_path, "--out", store,
             "--threads", n],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, cwd=ROOT)
        LIVE.append(self.p)

    def ask(self, line):
        """One request and its reply; "" once the server has gone."""
        try:
            self.p.stdin.write(line.encode() + b"\n")
            self.p.stdin.flush()
        except OSError:
            return ""
        return self.p.stdout.readline().decode().rstrip("\n")

    def close(self):
        """Ends the session; returns (exit code, peak RSS in MB)."""
        try:
            self.p.stdin.close()
        except OSError:
            pass
        timer = threading.Timer(CHILD_TIMEOUT_S, self.p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.p.stdout.close()
        return self.p.returncode, ru.ru_maxrss / 1024.0


def check_reply(reply, want):
    try:
        got = json.loads(reply)
    except ValueError:
        return [f"serve: unparsable reply {reply[:200]!r}"]
    if not got.get("ok"):
        return [f"serve: error reply {reply[:200]}"]
    for key in ("columns", "rows", "matched"):
        if got.get(key) != want[key]:
            return [f"serve: {key} differs from the rescan"]
    return []


def campaign_grid(seed, seconds, trace):
    ops = Ops()
    n = str(threads())
    circuits = os.path.join(WORK, "circuits")
    os.makedirs(circuits)
    rel = os.path.relpath(circuits, ROOT)
    spec = inputs.campaign_spec(seed, rel, int(n))
    spec_path = os.path.join(WORK, "grid.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f, indent=1)
    tasks = len(spec["netlists"]) * len(spec["conditions"]) * len(
        spec["analyses"])

    # The results store the job queries: campaign rows in the real schema,
    # the query pool, and the benchmark's own rescan answers to it.
    rows = inputs.store_rows(seed)
    rows_path = os.path.join(WORK, "rows.jsonl")
    with open(rows_path, "w") as f:
        for r in rows:
            f.write(inputs.dumps_line(r) + "\n")
    pool = [inputs.dumps_line(q) for q in inputs.query_pool(seed, rows)]
    reference = inputs.Reference(rows)
    expected = [reference.reply(json.loads(q)) for q in pool]
    history_dir = os.path.join(WORK, "history")
    history = os.path.join(history_dir, "history.results.jsonl")
    count_q = '{"agg":{"op":"count"}}'

    setup, history_bytes = [], None
    for i in range(SETUP_REPEATS if not trace else 1):
        wall = 0.0
        for g in inputs.GRID_CIRCUITS:
            c = run_child([NBTISIM, "generate", g, "--out", os.path.join(
                circuits, inputs.generated_bench_name(g))], f"gen{i}")
            ops.child(c, "generate")
            wall += c.wall_s
        fresh_dir(history_dir)
        c = run_child([HELPER, "write-store", history, "16", rows_path],
                      f"write{i}")
        data = file_bytes(store_files(history_dir)) if c.rc == 0 else []
        ops.child(c, "write-store", [] if len(data) == 16 and
                  history_bytes in (None, data) else
                  ["write-store: store differs between set-ups"])
        history_bytes = data
        server = Server(spec_path, history, n)
        first = server.ask(count_q)
        wall += c.wall_s + time.perf_counter() - server.t0
        ops.record(check_reply(first, {"columns": ["count"],
                                       "rows": [[len(rows)]],
                                       "matched": len(rows)}))
        ops.record([] if server.close()[0] == 0 else ["serve: bad exit"])
        setup.append(wall)

    verified = [None] * len(pool)
    latencies = []

    def session(k):
        """Closed loop over the query pool in `campaign serve`: the next
        request goes out only after the reply to the previous one."""
        server = Server(spec_path, history, n)
        for i, q in enumerate(pool):
            s = time.perf_counter()
            reply = server.ask(q)
            latencies.append(time.perf_counter() - s)
            if not reply:
                ops.record(["serve: no reply (server exited)"])
                break
            if reply == verified[i]:
                ops.record([])
                continue
            problems = check_reply(reply, expected[i])
            if not problems and verified[i] is not None:
                problems = ["serve: reply differs between repeats"]
            ops.record(problems)
            if not problems:
                verified[i] = reply
        rc, rss = server.close()
        ops.record([] if rc == 0 else [f"serve: exit {rc}"])
        return time.perf_counter() - server.t0, rss

    def job(k):
        """campaign run on a fresh sharded store, summarize, then one serve
        session over the results store."""
        store_dir = fresh_dir(os.path.join(WORK, "store"))
        store = os.path.join(store_dir, "grid.results.jsonl")
        ran = run_child([NBTISIM, "campaign", "run", spec_path, "--out", store,
                         "--threads", n], f"run{k}")

        def check_run(c):
            want = f"{tasks} tasks (0 skipped, {tasks} executed, 0 stale)"
            if want not in c.out:
                return [f"campaign run: expected '{want}'"]
            rows = [json.loads(line)
                    for data in file_bytes(store_files(store_dir))
                    for line in data.splitlines() if line.strip()]
            problems = [] if len(rows) == tasks and len(
                {r["hash"] for r in rows}) == tasks else [
                f"campaign run: {len(rows)} rows for {tasks} tasks"]
            for r in rows:
                problems += checks.check_campaign_row(r)
            return problems

        ops.child(ran, "campaign run", check_run)
        summ = run_child([NBTISIM, "campaign", "summarize", spec_path,
                          "--out", store, "--threads", n], f"sum{k}")
        ops.child(summ, "campaign summarize", lambda c: [] if len(
            checks.md_rows(c.out)) == tasks + 1 else [
            "campaign summarize: wrong row count"])
        stored = file_bytes(store_files(store_dir))
        serve_s, serve_rss = session(k)
        return (ran.wall_s + summ.wall_s + serve_s,
                max(ran.rss_mb, summ.rss_mb, serve_rss), stored, summ.out)

    t0 = time.perf_counter()
    walls, rss, first = [], [], None
    while not walls or (not trace and time.perf_counter() - t0 < seconds):
        wall, peak, stored, summary = job(len(walls))
        if first is None:
            first = (stored, summary)
        elif (stored, summary) != first:
            ops.record(["campaign: store or summary differs between repeats"])
        walls.append(wall)
        rss.append(peak)
    measured = time.perf_counter() - t0
    log(f"serve: {len(latencies)} requests, p50 "
        f"{1e3 * quantile(latencies, 0.5):.3f} ms, p99 "
        f"{1e3 * quantile(latencies, 0.99):.3f} ms")
    dig = checks.digest(first[0] + [first[1]] + history_bytes +
                        [v or "" for v in verified])

    if not trace:
        return ops, end_to_end(setup, walls, measured, rss, ops), dig
    queries_path = os.path.join(WORK, "queries.jsonl")
    with open(queries_path, "w") as f:
        f.write("\n".join(pool) + "\n")
    traces = []
    t0 = time.perf_counter()
    while not traces or time.perf_counter() - t0 < seconds - walls[0]:
        store_dir = fresh_dir(os.path.join(WORK, "replay"))
        summary_path = os.path.join(WORK, "replay.md")
        replies_path = os.path.join(WORK, "replay.jsonl")
        k = len(traces)
        t = run_trace([HELPER, "trace-campaign", spec_path,
                       os.path.join(store_dir, "grid.results.jsonl"), n,
                       summary_path], f"trace{k}", ops)
        q = run_trace([HELPER, "trace-query", history, queries_path, n,
                       replies_path], f"query{k}", ops)
        if t is None or q is None:
            break
        with open(summary_path) as f:
            replay_summary = f.read()
        with open(replies_path) as f:
            replayed = f.read().splitlines()
        ops.record([] if file_bytes(store_files(store_dir)) == first[0] and
                   replay_summary == first[1] and
                   t["results"]["resume_executed"] == 0 and
                   replayed == verified else
                   ["replay: store, summary, resume or replies differ from "
                    "the CLI"])
        traces.append({"spans": t["spans"] + [
            [name, s, e, p + len(t["spans"]) if p >= 0 else p]
            for name, s, e, p in q["spans"]],
            "counters": {**t["counters"], **q["counters"]}})
    if not traces:
        return ops, None, dig
    replay = statistics.median(
        sum(v[0] for k, v in lt.items()
            if k in ("campaign.job", "campaign.summarize", "query.job"))
        for lt in layer_times(traces))
    return ops, per_layer(traces, {
        "trace.overhead_frac": replay / walls[0] - 1.0}), dig


# ----------------------------------------------------------------------- main

RUNNERS = {"signoff-dag100k": signoff, "campaign-grid": campaign_grid}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    fresh_dir(WORK)
    ops, metrics, dig = RUNNERS[args.workload](args.seed, args.seconds,
                                               bool(args.trace))
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f)
    if args.seed == DEFAULT_SEED and pinned.get(args.workload) != dig:
        ops.record([f"digest {dig} differs from the pinned "
                    f"{pinned.get(args.workload)}"])
    for p in ops.problems[:20]:
        log(f"FAILED: {p}")
    log(f"{args.workload} seed {args.seed}: digest {dig}; "
        f"{ops.failed}/{ops.attempted} operations failed "
        f"(error_rate {ops.failed / max(1, ops.attempted):.4g})")
    if metrics is None:
        metrics = {}
    for name, (value, unit) in metrics.items():
        log(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ops.failed == 0 and bool(metrics),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
