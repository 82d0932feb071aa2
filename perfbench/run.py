#!/usr/bin/env python3
"""The failatom benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload audit|production|service \
        --seed N --seconds S --trace 0|1

It builds bin/failatom.exe and the traced-run program perfbench/tracer
into .bench_build (dune profile `perfbench`), then drives the
user-visible `failatom` commands as child processes from this one
process and checks every output against perfbench/expected.json.

--trace 0 measures the end-to-end metrics with nothing traced.
--trace 1 makes the separate traced run instead: perfbench/tracer calls
each layer's public functions inside spans, and the per-layer metrics
are the spans' self times plus counters the program keeps.  The spans
are also written as a Chrome trace (.bench_build/perfbench/).

The human-readable table goes to stdout; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Progress and build
output go to stderr.  See perfbench/RATIONALE.md for why each workload and
metric exists.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ".bench_build"
FAILATOM = f"{BUILD}/default/bin/failatom.exe"
TRACER = f"{BUILD}/default/perfbench/tracer/tracer.exe"
OUT_DIR = Path(BUILD) / "perfbench"

# audit: the sequential Table-1 apps except RegExp, plus Synthetic; the
# concurrent apps run their schedule sweep (--schedules 4).
AUDIT_SEQ = ["adaptorChain", "stdQ", "xml2Ctcp", "xml2Cviasc1", "xml2Cviasc2",
             "xml2xml1", "CircularList", "Dynarray", "HashedMap", "HashedSet",
             "LLMap", "LinkedBuffer", "LinkedList", "RBMap", "RBTree", "Synthetic"]
AUDIT_CONC = ["StripedMap", "BoundedBuffer", "WorkQueue"]
SCHEDULES = 4
AUDIT = AUDIT_SEQ + AUDIT_CONC
# A run makes round(seconds / AUDIT_PASS_S) whole passes over AUDIT, so
# every run has the same sample count: six at --seconds 30, about 40 s on
# a 2-core container.  With six, the ten samples beyond verdict_s.tail are
# the two slowest programs' (xml2xml1 and xml2Cviasc2), and the tail lies
# inside xml2Cviasc2's samples; with four it lay next to the border
# between two programs' samples and moved with both.
AUDIT_PASS_S = 5

PROD_APPS = ["CircularList", "Dynarray", "LinkedList", "RBMap", "RBTree", "HashedMap"]
PROD_TIMES = 100
# Per mille: every call to a wrapped method is perturbed, as in the canary
# runs of README.md, doc/production.md and CI, so a canary op takes the
# rollback path on every wrapped call.
PERTURB_RATE = 1000
PROD_PASS_S = 1.5

# service: each pass submits every audit program to a fresh daemon (an
# empty result cache) once cold, then SERVICE_WARM times more as cache hits.
SERVICE_WARM = 1
# Wall time of one pass on a 2-core container; it sets how many whole
# passes fill --seconds.
SERVICE_PASS_S = 8.5

# Set-up is repeated and its median reported; the millisecond set-ups are
# repeated more often.
SETUP_REPS = {"audit": 25, "production": 5, "service": 15}
OP_TIMEOUT_S = 60

# Machine speed.  The 2-core containers this benchmark was tuned on share
# their caches with other tenants, whose load slows the interpreter by up
# to 1.6x, in phases from seconds to about a minute: as long as a run.  So
# every time is scaled by (REF_NOMINAL_S / r) ** REF_ELASTICITY, where r is
# the CPU time of a fixed reference task, timed on the op's CPU just before
# and just after it (see Speed).  The reference runs no repository code, so
# no change to the program can move it.  Under interference the reference
# slows more than the interpreter does; the elasticity is the measured
# ratio of their log slowdowns.  Raw times are printed beside the scaled
# ones.  See perfbench/RATIONALE.md.
REF_ITERS = 30000
REF_NOMINAL_S = 0.006
REF_ELASTICITY = 0.75
WORKLOADS = ["audit", "production", "service"]

# The traced run gives every per-layer metric on every workload: the
# workload's own layers are driven over its whole program set, the other
# layers over these small sets.
LIGHT_AUDIT = ["LinkedList", "Synthetic", "WorkQueue"]
LIGHT_PROD = ["LinkedList"]
# The traced run fails when cli.unattributed_s is more than this share of
# the untraced op wall: the bound of the timing metrics in BENCHMARK.json.
ACCOUNT_BOUND = 0.25

EXPECTED = json.loads((HERE / "expected.json").read_text())


class Fatal(Exception):
    """The benchmark cannot run at all: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def program_args(name):
    return ["app:" + name] + (["--schedules", str(SCHEDULES)] if name in AUDIT_CONC else [])


def program_spec(name):
    """The tracer's NAME[@N] spelling of program_args."""
    return name + (f"@{SCHEDULES}" if name in AUDIT_CONC else "")


# ---------------------------------------------------------------- build

def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "perfbench",
           "--build-dir", BUILD, "--cache=disabled",
           "./bin/failatom.exe", "./perfbench/tracer/tracer.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Fatal(f"build failed: {e}")
    if r.returncode != 0:
        raise Fatal(f"build failed with exit code {r.returncode}")


# ---------------------------------------------------------------- child processes

class Proc:
    def __init__(self, rc, out, err, wall, rss_mb, killed):
        self.rc, self.out, self.err = rc, out, err
        self.wall, self.rss_mb, self.killed = wall, rss_mb, killed


_seq = iter(range(1 << 62))


def run_proc(args, work, timeout=OP_TIMEOUT_S):
    """Runs one child to completion: wall time, exit code, output and
    peak RSS (from the child's own rusage)."""
    n = next(_seq)
    out_path, err_path = work / f"{n}.out", work / f"{n}.err"
    with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        killed = threading.Event()

        def kill():
            killed.set()
            p.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        out, err = fo.read().decode(errors="replace"), fe.read().decode(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Proc(p.returncode, out, err, wall, ru.ru_maxrss / 1024, killed.is_set())


VERDICT_LINE = re.compile(r"^  (\S+)\s+(pure|conditional) non-atomic$")


def parse_detect(out):
    """injections, transparent and non-atomic verdicts of a `detect` or
    `submit` printout."""
    fields, verdicts = {}, {}
    for line in out.splitlines():
        m = VERDICT_LINE.match(line)
        if m:
            verdicts[m.group(1)] = m.group(2)
        elif ":" in line and not line.startswith(" "):
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    return fields, verdicts


def verdict_problem(name, verdicts):
    exp = EXPECTED["detect"][name]
    if "probe" in exp:
        if verdicts.get(exp["probe"]) != "pure":
            return f"{name}: probe {exp['probe']} not pure non-atomic"
        return None
    pure = sorted(m for m, v in verdicts.items() if v == "pure")
    cond = sorted(m for m, v in verdicts.items() if v == "conditional")
    if pure != sorted(exp["pure"]) or cond != sorted(exp["conditional"]):
        return f"{name}: verdicts differ (pure {pure}, conditional {cond})"
    return None


def check_detect(name, p):
    """None when a detect/submit child gave the expected answer, else why
    not.  Returns (problem, injections)."""
    if p.killed:
        return f"{name}: timed out", 0
    if p.rc != 1:
        return f"{name}: exit code {p.rc}: {p.err.strip()[-300:]}", 0
    fields, verdicts = parse_detect(p.out)
    if fields.get("transparent") != "true":
        return f"{name}: transparent is {fields.get('transparent')}", 0
    try:
        injections = int(fields["injections"])
    except (KeyError, ValueError):
        return f"{name}: no injections line", 0
    return verdict_problem(name, verdicts), injections


def reference():
    """CPU time (s) of a fixed piece of interpreter-like work: dict and
    small object churn in this Python process."""
    t0 = time.thread_time()
    d = {}
    for i in range(REF_ITERS):
        k = i % 977
        d[k] = d.get(k, 0) + i
        _ = [i, k, (i,)]
    return time.thread_time() - t0


def speed_factor(ref_s):
    """Multiply a time measured while the reference took `ref_s` by this
    (divide a rate by it)."""
    return (REF_NOMINAL_S / ref_s) ** REF_ELASTICITY


class Speed:
    """Scales the ops of a run that runs one child at a time."""

    def __init__(self):
        self.last = reference()
        self.factors = []

    def scale(self, wall):
        """`wall` of the op that just ended, scaled by the reference timed
        before it and the one timed now."""
        after = reference()
        f = speed_factor((self.last + after) / 2)
        self.last = after
        self.factors.append(f)
        return wall * f


class Tally:
    """Ops attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)
            log("FAILED: " + problem)
        return problem is None


# ---------------------------------------------------------------- daemon

def start_daemon(sock_path, timeout=20):
    """Starts `failatom serve` and waits until the socket sends its
    greeting.  Returns (process, seconds until it answered)."""
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    t0 = time.perf_counter()
    proc = subprocess.Popen([FAILATOM, "serve", "--socket", sock_path],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    while True:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(timeout)
                s.connect(sock_path)
                if s.makefile("rb").readline():
                    return proc, time.perf_counter() - t0
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        if proc.poll() is not None or time.perf_counter() - t0 > timeout:
            stop_daemon(proc)
            raise Fatal("failatom serve did not answer on its socket")
        time.sleep(0.002)


def daemon_hwm_mb(proc):
    with open(f"/proc/{proc.pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise Fatal("no VmHWM for the daemon")


def stop_daemon(proc):
    """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------- workloads

def metric(value, unit, n=None, note="", raw=None):
    """One metric; `raw` is its value before speed scaling."""
    return {"value": value, "unit": unit, "n": n, "note": note, "raw": raw}


def latency_metrics(samples, scale, unit, label):
    """p50 and tail of `samples`, (program, scaled time, raw time) triples.
    The p50 is the median of the programs' own medians."""
    def p50(i):
        return stats.median_of_medians((s[0], s[i]) for s in samples) * scale

    def tail(i):
        t = stats.tail([s[i] for s in samples])
        if t is None:
            raise Fatal(f"{label}: {len(samples)} samples are too few for a tail percentile")
        return t[0], t[1] * scale

    n = len(samples)
    p, value = tail(1)
    beyond = n - (n * p + 99) // 100
    return {
        "latency_ms.p50": metric(p50(1), unit, n, f"{label}.p50", p50(2)),
        "latency_ms.tail": metric(value, unit, n, f"{label}.tail = p{p} ({beyond} beyond)",
                                  tail(2)[1]),
    }


def audit(seed, seconds, work, tally):
    rng = random.Random(seed)
    speed = Speed()
    # set-up: confirm that every benchmark program is bundled
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS["audit"]):
        p = run_proc([FAILATOM, "apps"], work)
        setups.append(speed.scale(p.wall))
        raw_setups.append(p.wall)
        bundled = {line.split()[0] for line in p.out.splitlines()[1:] if line.strip()}
        if p.rc != 0 or not set(AUDIT) <= bundled:
            raise Fatal("failatom apps does not list every benchmark program")
    passes = max(2, round(seconds / AUDIT_PASS_S))
    ops, conc, raw_conc, rss = [], [], [], 0.0
    injections = 0
    for _ in range(passes):
        for name in rng.sample(AUDIT, len(AUDIT)):
            p = run_proc([FAILATOM, "detect"] + program_args(name), work)
            wall = speed.scale(p.wall)
            problem, n = check_detect(name, p)
            if tally.record(problem):
                ops.append((name, wall, p.wall))
                if name in AUDIT_CONC:
                    conc.append(wall)
                    raw_conc.append(p.wall)
                injections += n
                rss = max(rss, p.rss_mb)
    m = {"setup_s": metric(statistics.median(setups), "s", len(setups), "setup_s (failatom apps)",
                           statistics.median(raw_setups))}
    m.update(latency_metrics(ops, 1000, "ms", "verdict_s"))
    m["secondary_ms"] = metric(statistics.mean(conc) * 1000, "ms", len(conc),
                               "mean verdict_s of the schedule-sweep programs",
                               statistics.mean(raw_conc) * 1000)
    m["rate_per_s"] = metric(injections / sum(o[1] for o in ops), "1/s", len(ops),
                             "points_per_s", injections / sum(o[2] for o in ops))
    m["peak_rss_mb"] = metric(rss, "MB", len(ops), "peak RSS of one detect process")
    return m, speed.factors


def emit_plans(plan_dir, work, apps=PROD_APPS, speed=None):
    """Production set-up: one `detect --emit-plan` per app.  Returns the
    summed wall time of the emissions, raw and scaled by `speed`."""
    plan_dir.mkdir(parents=True, exist_ok=True)
    raw = scaled = 0.0
    for name in apps:
        p = run_proc([FAILATOM, "detect", "app:" + name, "--emit-plan",
                      str(plan_dir / f"{name}.plan")], work)
        problem, _ = check_detect(name, p)
        if problem:
            raise Fatal("plan emission: " + problem)
        raw += p.wall
        scaled += speed.scale(p.wall) if speed else p.wall
    return raw, scaled


SCORE_HITS = re.compile(r"mask hit rate: (\d+)/(\d+)")
SCORE_PERTURB = re.compile(
    r"perturbations: (\d+) fired, (\d+) validated, (\d+) interfered, (\d+) failed")


def production_cmd(name, plan_dir, perturb_seed=None):
    args = [FAILATOM, "run", "app:" + name, "--mode", "production",
            "--plan", str(plan_dir / f"{name}.plan"), "--times", str(PROD_TIMES)]
    if perturb_seed is not None:
        args += ["--perturb-rate", str(PERTURB_RATE), "--perturb-seed", str(perturb_seed)]
    return args


def check_production(name, p, canary):
    """(problem, wrapped calls) of one `run --mode production` child."""
    if p.killed:
        return f"{name}: timed out", 0
    if p.rc != 0:
        return f"{name}: exit code {p.rc}", 0
    expected = (HERE / "expected" / "production" / f"{name}.out").read_text()
    if p.out != expected:
        return f"{name}: production output differs from the expected output", 0
    hits, perturb = SCORE_HITS.search(p.err), SCORE_PERTURB.search(p.err)
    if not hits or not perturb:
        return f"{name}: no resilience scorecard", 0
    fired, validated, interfered, failed = map(int, perturb.groups())
    if fired != validated + interfered + failed or failed:
        return f"{name}: canary scorecard {perturb.group(0)}", 0
    if not canary and fired:
        return f"{name}: a quiet run fired the canary", 0
    return None, int(hits.group(2))


def production(seed, seconds, work, tally):
    rng = random.Random(seed)
    speed = Speed()
    setups, raw_setups = [], []
    for rep in range(SETUP_REPS["production"]):
        raw, scaled = emit_plans(work / f"plans{rep}", work, speed=speed)
        raw_setups.append(raw)
        setups.append(scaled)
    plan_dir = work / f"plans{SETUP_REPS['production'] - 1}"
    passes = max(4, round(seconds / PROD_PASS_S))
    # per-execution wall times, scaled and raw, of quiet and canary ops
    times = {False: [], True: []}
    rss, calls, total, raw_total = 0.0, 0, 0.0, 0.0
    for _ in range(passes):
        # quiet and canary ops alternate, each over every app once
        for q, c in zip(rng.sample(PROD_APPS, len(PROD_APPS)),
                        rng.sample(PROD_APPS, len(PROD_APPS))):
            for name, perturb_seed in ((q, None), (c, rng.randrange(1, 1 << 30))):
                p = run_proc(production_cmd(name, plan_dir, perturb_seed), work)
                wall = speed.scale(p.wall)
                is_canary = perturb_seed is not None
                problem, n = check_production(name, p, is_canary)
                if tally.record(problem):
                    times[is_canary].append((name, wall / PROD_TIMES, p.wall / PROD_TIMES))
                    calls += n
                    total += wall
                    raw_total += p.wall
                    rss = max(rss, p.rss_mb)
    quiet, canary = times[False], times[True]
    ops = len(quiet) + len(canary)
    m = {"setup_s": metric(statistics.median(setups), "s", len(setups),
                           "setup_s (detect --emit-plan x6)", statistics.median(raw_setups))}
    m.update(latency_metrics(quiet, 1000, "ms", "exec_us (in ms)"))
    canary_p50 = latency_metrics(canary, 1000, "ms", "canary_exec_us (in ms)")["latency_ms.p50"]
    m["secondary_ms"] = dict(canary_p50, note="canary_exec_us.p50 (in ms)")
    m["rate_per_s"] = metric(calls / total, "1/s", ops, "wrapped calls per second",
                             calls / raw_total)
    m["peak_rss_mb"] = metric(rss, "MB", ops, "peak RSS of one run process")
    return m, speed.factors


def submit_cmd(sock, name):
    return [FAILATOM, "submit"] + program_args(name) + ["--socket", sock]


def check_submit(name, p, cold):
    problem, _ = check_detect(name, p)
    if problem:
        return problem
    cached = "(cached)" in p.err
    if cached == cold:
        return f"{name}: {'cold' if cold else 'warm'} job {'was' if cached else 'was not'} served from the cache"
    return None


def service(seed, seconds, work, tally):
    rng = random.Random(seed)
    sock = str(work / "s.sock")
    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS["service"]):
        daemon, answered = start_daemon(sock)
        # idle, so nothing is lost without the graceful drain
        daemon.kill()
        daemon.wait()
        setups.append(speed.scale(answered))
        raw_setups.append(answered)
    passes = max(2, round(seconds / SERVICE_PASS_S))
    lat = {True: [], False: []}  # cold?: (program, scaled, raw) job times
    hwms = []
    for _ in range(passes):
        # A fresh daemon, so every program's first job is cold.  One job at
        # a time, in seeded order; a program's cache hits are sent only
        # after its cold job.
        pending = [(name, cold) for name in AUDIT for cold in [True] + [False] * SERVICE_WARM]
        pending = rng.sample(pending, len(pending))
        done_cold = set()
        daemon, _ = start_daemon(sock)
        try:
            while pending:
                i = next(i for i, (name, cold) in enumerate(pending)
                         if cold or name in done_cold)
                name, cold = pending.pop(i)
                p = run_proc(submit_cmd(sock, name), work)
                wall = speed.scale(p.wall)
                if tally.record(check_submit(name, p, cold)):
                    lat[cold].append((name, wall, p.wall))
                done_cold.add(name)
            hwms.append(daemon_hwm_mb(daemon))
        finally:
            stop_daemon(daemon)
    cold, warm = lat[True], lat[False]
    jobs = cold + warm
    m = {"setup_s": metric(statistics.median(setups), "s", len(setups),
                           "setup_s (serve until the socket answers)",
                           statistics.median(raw_setups))}
    m.update(latency_metrics(cold, 1000, "ms", "job_s (in ms)"))
    m["secondary_ms"] = dict(latency_metrics(warm, 1000, "ms", "")["latency_ms.p50"],
                             note="warm_ms.p50")
    m["rate_per_s"] = metric(len(jobs) / sum(j[1] for j in jobs), "1/s", len(jobs),
                             "jobs_per_s", len(jobs) / sum(j[2] for j in jobs))
    m["peak_rss_mb"] = metric(max(hwms), "MB", len(hwms),
                              "server_rss_mb (highest daemon VmHWM of the passes)")
    return m, speed.factors


# ---------------------------------------------------------------- traced run

def run_tracer(args, work):
    p = run_proc([TRACER] + args, work, timeout=150)
    if p.rc != 0:
        raise Fatal(f"tracer {args[0]} failed: {p.err.strip()[-500:]}")
    data = json.loads(p.out)
    spans = [dict(zip(("id", "parent", "op", "name", "start", "end"), s))
             for s in data["spans"]]
    return spans, data["ops"], data["counters"]


class Trace:
    """Spans of the traced run, from several tracer processes, kept apart
    by a per-process op-id offset."""

    def __init__(self):
        self.spans, self.ops = [], []

    def add(self, spans, ops):
        base = len(self.ops) and max(o["op"] for o in self.ops)
        idbase = len(self.spans) and max(s["id"] for s in self.spans)
        for s in spans:
            self.spans.append(dict(s, op=s["op"] + base, id=s["id"] + idbase,
                                   parent=s["parent"] and s["parent"] + idbase))
        added = [dict(o, op=o["op"] + base) for o in ops]
        self.ops.extend(added)
        return added

    def of_ops(self, ops):
        ids = {o["op"] for o in ops}
        return [s for s in self.spans if s["op"] in ids]

    def op_span(self, op):
        return next(s for s in self.spans if s["op"] == op["op"] and s["name"] == "op")

    def chrome(self):
        """Chrome trace-event JSON (viewable in Perfetto): one track per op."""
        events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": s["op"],
                   "ts": s["start"] / 1000, "dur": (s["end"] - s["start"]) / 1000,
                   "args": {"id": s["id"], "parent": s["parent"], "op": s["op"]}}
                  for s in self.spans]
        names = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": o["op"],
                  "args": {"name": f"{o['kind']} {o['program']}"}} for o in self.ops]
        return {"traceEvents": names + events, "displayTimeUnit": "ms"}


def dur(s):
    return s["end"] - s["start"]


def account(trace, traced_ops, cli_walls, tally):
    """trace.overhead and cli.unattributed_s for one group of ops:
    `cli_walls[i]` is the untraced wall time (s) of the command that
    traced op i re-drives.  The layers' self times plus the unattributed
    remainder must account for the untraced op wall: the remainder may be
    at most ACCOUNT_BOUND of it, or a layer went missing from the trace."""
    traced = sum(dur(trace.op_span(o)) for o in traced_ops) / 1e9
    layers = {k: v / 1e9 for k, v in stats.layer_self(trace.of_ops(traced_ops)).items()}
    wall = sum(cli_walls)
    unattributed = stats.unattributed(wall, layers)
    tally.record(None if stats.accounted(wall, layers, ACCOUNT_BOUND) else
                 f"cli.unattributed_s is {unattributed:.3f} s of an untraced op wall of "
                 f"{wall:.3f} s, more than {ACCOUNT_BOUND} of it")
    return traced / wall, unattributed, unattributed / wall


# Each program's untraced command runs right before its traced re-drive,
# so both see the same load on the machine.

def trace_audit(programs, work, trace, tally):
    logdir = work / "logs"
    logdir.mkdir()
    ops, cli_walls, counters = [], [], {}
    for name in programs:
        p = run_proc([FAILATOM, "detect"] + program_args(name) +
                     ["--log", str(logdir / f"{name}.cli.log")], work)
        tally.record(check_detect(name, p)[0])
        cli_walls.append(p.wall)
        spans, traced, c = run_tracer(["audit", str(logdir), program_spec(name)], work)
        ops += trace.add(spans, traced)
        for k, v in c.items():
            counters[k] = counters.get(k, 0) + v
    for name, o in zip(programs, ops):
        same = ((logdir / f"{name}.log").read_bytes() ==
                (logdir / f"{name}.cli.log").read_bytes())
        verdicts = {m: "pure" for m in o["pure"]} | {m: "conditional" for m in o["conditional"]}
        tally.record(verdict_problem(name, verdicts) if same
                     else f"{name}: traced run log differs from detect --log")
    return ops, cli_walls, counters


def trace_production(apps, work, trace, tally, seed):
    plan_dir = work / "plans"
    emit_plans(plan_dir, work, apps=apps)
    ops, cli_walls = [], []
    for name in apps:
        for perturb_seed in (None, seed):
            p = run_proc(production_cmd(name, plan_dir, perturb_seed), work)
            tally.record(check_production(name, p, perturb_seed is not None)[0])
            cli_walls.append(p.wall)
        spans, traced, _ = run_tracer(["production", str(plan_dir), str(PROD_TIMES),
                                       str(PERTURB_RATE), str(seed), name], work)
        ops += trace.add(spans, traced)
    by = {(o["kind"], o["program"]): o for o in ops}
    for name in apps:
        expected = (HERE / "expected" / "production" / f"{name}.out").read_text()
        quiet, plain, canary = (by[(k, name)] for k in ("production", "plain", "canary"))
        problem = None
        if quiet["output"] != expected or canary["output"] != expected:
            problem = f"{name}: traced production output differs from the expected output"
        elif quiet["hits"] == 0 and quiet["output"] != plain["output"]:
            problem = f"{name}: armed output differs from plain output with no rollback"
        elif (canary["fired"] != canary["validated"] + canary["interfered"] + canary["failed"]
              or canary["failed"]):
            problem = f"{name}: traced canary scorecard does not add up"
        tally.record(problem)
    traced = [by[(k, n)] for n in apps for k in ("production", "canary")]
    return ops, traced, cli_walls


def trace_service(programs, work, trace, tally):
    # untraced cold jobs on one fresh daemon, traced ones on another
    cli_sock, traced_sock = str(work / "c.sock"), str(work / "t.sock")
    ops, cli_walls = [], []
    cli_daemon, _ = start_daemon(cli_sock)
    try:
        traced_daemon, _ = start_daemon(traced_sock)
        try:
            for name in programs:
                p = run_proc(submit_cmd(cli_sock, name), work)
                tally.record(check_submit(name, p, True))
                cli_walls.append(p.wall)
                # the daemon's running totals, so the last job's are kept
                spans, traced, counters = run_tracer(
                    ["service", traced_sock, program_spec(name) + ":source"], work)
                ops += trace.add(spans, traced)
        finally:
            stop_daemon(traced_daemon)
    finally:
        stop_daemon(cli_daemon)
    for o in ops:
        name = o["program"].split("@")[0].split(":")[0]
        verdicts = {m: v.split()[0] for m, v in o["non_atomic"]}
        problem = verdict_problem(name, verdicts)
        if o["cached"] != (o["kind"] == "warm"):
            problem = f"{name}: traced {o['kind']} job cached={o['cached']}"
        tally.record(problem)
    return ops, counters, cli_walls


def traced_run(workload, seed, work, tally):
    trace = Trace()
    audit_ops, audit_cli, counters = trace_audit(
        AUDIT if workload == "audit" else LIGHT_AUDIT, work, trace, tally)
    prod_ops, prod_traced, prod_cli = trace_production(
        PROD_APPS if workload == "production" else LIGHT_PROD, work, trace, tally, seed)
    svc_ops, svc_counters, svc_cli = trace_service(
        AUDIT if workload == "service" else LIGHT_AUDIT, work, trace, tally)

    m = {}
    a_spans = trace.of_ops(audit_ops)
    a_self = stats.layer_self(a_spans)

    def self_s(*names):
        return sum(a_self.get(n, 0) for n in names) / 1e9

    def named(spans, name):
        return [s for s in spans if s["name"] == name]

    for key, names in [("parse.s", ["parse"]), ("compile.image.s", ["compile.image"]),
                       ("exnflow.s", ["exnflow"]), ("analyzer.s", ["analyzer"]),
                       ("profile.s", ["profile"]), ("weave.s", ["weave"]),
                       ("census.s", ["census"]), ("inject.s", ["inject.run", "inject.probe"]),
                       ("prune.build.s", ["prune.build"]), ("prune.synth.s", ["prune.synth"]),
                       ("sched.baseline.s", ["sched.baseline"]), ("classify.s", ["classify"])]:
        m[key] = metric(self_s(*names), "s")
    runs = named(a_spans, "inject.run")
    m["inject.runs"] = metric(len(runs), "count")
    m["inject.run_us.p50"] = metric(statistics.median([dur(s) for s in runs]) / 1e3, "us", len(runs))
    seq_ops = [o for o in audit_ops if o["schedules"] == 1]
    seq_spans = trace.of_ops(seq_ops)
    m["instr.ratio"] = metric(sum(map(dur, named(seq_spans, "census"))) /
                              sum(map(dur, named(seq_spans, "profile"))), "ratio", len(seq_ops))
    m["prune.executed_ratio"] = metric(len(named(seq_spans, "inject.run")) /
                                       sum(o["injections"] for o in seq_ops), "ratio",
                                       len(seq_ops))
    m["sched.schedules"] = metric(len(named(a_spans, "sched.schedule")), "count")
    m["vm.steps"] = metric(counters["vm.steps"], "count")
    m["detect.snapshots_taken"] = metric(counters["detect.snapshots_taken"], "count")
    m["detect.canonicalize.s"] = metric(counters["detect.canonicalize_ns"] / 1e9, "s")
    m["compile.instantiate.s"] = metric(counters["compile.instantiate_ns"] / 1e9, "s")
    m["heap.barrier_hits"] = metric(counters["heap.barrier_hits"], "count")

    p_spans = trace.of_ops(prod_ops)
    quiet = [o for o in prod_ops if o["kind"] == "production"]
    canary = [o for o in prod_ops if o["kind"] == "canary"]
    q_spans = trace.of_ops(quiet)

    def mean_us(spans):
        return sum(map(dur, spans)) / len(spans) / 1e3

    m["plan.s"] = metric(sum(map(dur, named(p_spans, "plan"))) / 1e9, "s")
    m["arm.us"] = metric(mean_us(named(q_spans, "arm")), "us")
    m["exec.us"] = metric(mean_us(named(q_spans, "exec")), "us")
    m["plain.us"] = metric(mean_us(named(p_spans, "plain.exec")), "us")
    m["wrap.overhead"] = metric(m["exec.us"]["value"] / m["plain.us"]["value"], "ratio")
    calls, hits = sum(o["calls"] for o in quiet), sum(o["hits"] for o in quiet)
    m["mask.calls"] = metric(calls, "count")
    m["mask.hits"] = metric(hits, "count")
    m["wrap_ns.per_call"] = metric(sum(o["wrap_ns"] for o in quiet) / calls, "ns")
    m["rollback_ns.per_hit"] = metric(sum(o["rollback_ns"] for o in quiet) / max(hits, 1), "ns")
    for k in ("fired", "validated", "interfered", "failed", "retries"):
        m["canary." + k] = metric(sum(o[k] for o in canary), "count")

    cold = [o for o in svc_ops if o["kind"] == "cold"]
    s_spans = trace.of_ops(svc_ops)
    m["campaign.wall_s"] = metric(sum(o["wall_s"] for o in cold), "s", len(cold))
    m["campaign.executed"] = metric(sum(o["executed"] for o in cold), "count")
    m["campaign.synthesized"] = metric(sum(o["synthesized"] for o in cold), "count")
    m["rpc.submit_ms"] = metric(statistics.median([dur(s) for s in named(s_spans, "rpc.submit")]) / 1e6,
                                "ms", len(svc_ops))
    queue = named(s_spans, "server.queue")
    m["queue.wait_ms"] = metric(statistics.median([dur(s) for s in queue]) / 1e6, "ms", len(queue))
    m["rpc.overhead_ms"] = metric(
        statistics.median([dur(trace.op_span(o)) / 1e6 - o["wall_s"] * 1e3 for o in cold]), "ms",
        len(cold))
    m["cache.hit_ratio"] = metric(sum(o["cached"] for o in svc_ops) / len(svc_ops), "ratio",
                                  len(svc_ops))
    m["server.rejected"] = metric(svc_counters["server.jobs_rejected"], "count")

    traced_ops, cli = {"audit": (audit_ops, audit_cli), "production": (prod_traced, prod_cli),
                       "service": (cold, svc_cli)}[workload]
    overhead, unattributed, share = account(trace, traced_ops, cli, tally)
    m["trace.overhead"] = metric(overhead, "ratio", len(traced_ops),
                                 "traced op wall / untraced op wall")
    m["cli.unattributed_s"] = metric(unattributed, "s", len(traced_ops),
                                     f"untraced op wall - layer self times "
                                     f"({share:+.3f} of the untraced op wall)")

    out = OUT_DIR / f"trace_{workload}_seed{seed}.json"
    out.write_text(json.dumps(trace.chrome()))
    log(f"trace written to {out}")
    return m


# ---------------------------------------------------------------- main

def run_workload(workload, seed, seconds, trace):
    work = OUT_DIR / f"work{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    # one child at a time, on the CPU the reference runs on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        if trace:
            metrics = traced_run(workload, seed, work, tally)
        else:
            metrics, factors = {"audit": audit, "production": production,
                                "service": service}[workload](seed, seconds, work, tally)
            metrics["speed_factor"] = metric(statistics.median(factors), "ratio", len(factors),
                                             "median time scale factor")
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
    return metrics, tally


def report(workload, seed, metrics, tally):
    print(f"== {workload} (seed {seed})")
    print(f"  {'metric':24} {'value':>14} {'unit':6} {'raw':>14} {'samples':8} meaning")
    for name, m in metrics.items():
        n = "" if m["n"] is None else f"n={m['n']}"
        raw = f"{'':>14}" if m["raw"] is None else f"{m['raw']:>14.6g}"
        print(f"  {name:24} {m['value']:>14.6g} {m['unit']:6} {raw} {n:8} {m['note']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_ratio':24} {ratio:>16.6g} {'':6} n={tally.attempted}")
    for p in tally.problems:
        print(f"  failure: {p}")
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items() if k != "speed_factor"}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so the daemon is stopped on the way
    # out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.chdir(ROOT)
    try:
        if not (ROOT / "dune-project").exists() or not (ROOT / "bin").is_dir():
            raise Fatal("not a failatom source tree: no dune-project or bin/")
        build()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        metrics, tally = run_workload(args.workload, args.seed, args.seconds, args.trace)
        final = report(args.workload, args.seed, metrics, tally)
    except Fatal as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
