"""Seeded benchmark for loveline.

Run from the repository root::

    python3 bench/run.py --workload wide-5k --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn. The run generates a corpus
from the seed (``bench/corpus.py``), checks the program's outputs, then
measures for ``--seconds`` as a closed loop with one client: one request at
a time, at most one child process, no threads. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
in-process run. Metric names, units and directions come from
``BENCHMARK.json``. The last line of stdout is one JSON object; a fuller
record goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from corpus import WORKLOADS, generate  # noqa: E402
from reference import ROUND_CHECKSUM, work  # noqa: E402
from spans import Tracer, patch, restore, self_times, write  # noqa: E402

# Turns each operation gets per round. The scheduler always runs the
# operation furthest behind its weight, so every kind is spread over the
# whole run. Counts, not shares of time, because a median needs samples:
# time shares gave a cheap child dozens and a costly one three.
WEIGHTS = {"setup": 3, "eval": 3, "export": 3, "query": 4, "explain": 4}
# An in-process turn runs passes until it has lasted this long, so that a
# cheap pass, such as the explain sample's, still collects many samples.
TURN_S = 0.5
EXPLAIN_SAMPLE = 100
# Tick-oracle sample: at most this many of the shortest-window queries and
# ticks, within a cost budget in events x (ticks + 40), since each oracle
# call first checks every endpoint of the timeline against the grid.
ORACLE_MAX_QUERIES = 20
ORACLE_MAX_TICKS = 400
ORACLE_BUDGET = 4_000_000
# Host-speed reference (``bench/reference.py``). On a shared host the same
# code runs up to 2x slower for seconds or minutes. So every timed child is
# followed by a reference child, and every block of ``REF_BLOCK`` in-process
# calls by an in-process reference, and each time is divided by the mean of
# the references just before and just after it. Times are reported in
# seconds of a host on which the reference takes its nominal time, about its
# median on a 2-core VM.
REF_CHILD_ROUNDS = 40
REF_CHILD_NOMINAL_S = 0.3
REF_PASS_ROUNDS = 2
REF_PASS_NOMINAL_S = 0.012
REF_BLOCK = 100

SETUP_PROBE = """\
import sys
from time import perf_counter
t0 = perf_counter()
import loveline
with open(sys.argv[1], encoding="utf-8") as handle:
    result = loveline.parse_document(handle.read())
elapsed = perf_counter() - t0
if result.timeline is None:
    sys.exit(1)
print(repr(elapsed))
"""

# Runs ``python -m loveline`` unchanged, then reports the child's own peak
# RSS. ``os.wait4`` cannot give it: posix_spawn starts the child on the
# parent's memory (vfork), and exec folds that memory's high-water mark into
# the child's rusage, so wait4 would report max(parent peak, child peak).
# VmHWM belongs to the fresh address space exec gave the child.
EVAL_PROBE = """\
import runpy, sys
try:
    runpy.run_module("loveline", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                print("bench-peak-rss-kb", line.split()[1], file=sys.stderr)
"""
PEAK_MARK = b"bench-peak-rss-kb "

SIGNALS = ("semantics.condition_i_signal", "semantics.condition_ii_components",
           "semantics.inhibition_mask", "semantics.acquaintance_onset")
INTERVAL_OPS = ("union", "intersect", "difference", "clip_from")
LAYERS = ("cli", "parser", "model", "semantics", "intervals", "ontology")


class Failures:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 100:
                self.reasons.append(reason)
        return ok


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn(argv: list[str], name: str) -> tuple[int, float, bytes, bytes]:
    """Run one child to completion: (exit code, wall s, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    stdout, stderr = OUT / f"{name}.stdout", OUT / f"{name}.stderr"
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    _, status = os.waitpid(pid, 0)
    wall = perf_counter() - t0
    return (os.waitstatus_to_exitcode(status), wall, stdout.read_bytes(),
            stderr.read_bytes())


def peak_rss_mb(stderr: bytes) -> float | None:
    """The peak RSS an ``EVAL_PROBE`` child reported, in MB."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(PEAK_MARK):
            return int(line[len(PEAK_MARK):]) / 1024
    return None


class Reference:
    """Host-speed reference for one kind of timing, child or in-process.

    ``scale()`` times the reference once more and returns the factor that
    turns the time measured since the last reference into seconds at
    nominal host speed: nominal / mean(reference before, reference after).
    ``begin()`` times it without scaling anything, to start a series.
    """

    def __init__(self, measure, nominal: float) -> None:
        self.measure, self.nominal = measure, nominal
        self.times: list[float] = []

    def begin(self) -> None:
        self.times.append(self.measure())

    def scale(self) -> float:
        self.times.append(self.measure())
        return 2 * self.nominal / (self.times[-2] + self.times[-1])


def timed_pass(items: list, call, check, ref: Reference) -> list[float]:
    """Time ``call(item)`` for each item in order; returns scaled times.

    Each result is checked right after it is timed, so none pile up in
    memory. The cyclic collector is off, as in ``timeit``: it would charge
    pauses for the whole heap to whichever call triggers them. The reference
    runs before the first item and after every ``REF_BLOCK`` items, and each
    block's times are scaled by the references on either side of it, so a
    slow stretch of the host within a pass is scaled where it falls.
    """
    times: list[float] = []
    gc.disable()
    try:
        ref.begin()
        for start in range(0, len(items), REF_BLOCK):
            for item in items[start:start + REF_BLOCK]:
                t0 = perf_counter()
                result = call(item)
                times.append(perf_counter() - t0)
                check(item, result)
            scale = ref.scale()
            for k in range(start, len(times)):
                times[k] *= scale
    finally:
        gc.enable()
    return times


class Workload:
    """One generated corpus, its reference results and its measurements."""

    def __init__(self, name: str, seed: int, lv) -> None:
        self.name, self.seed, self.lv = name, seed, lv
        self.text, self.props = generate(WORKLOADS[name], seed, name)
        self.path = OUT / f"{name}.love"
        self.path.write_text(self.text, encoding="utf-8")
        self.fail = Failures()
        self.md5: dict[str, set[str]] = {"eval": set(), "export": set()}
        self.stage_of: dict[int, str] = {}
        self.shares: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        parsed = lv.parse_document(self.text)
        if not self.fail.check(parsed.timeline is not None,
                               f"corpus does not parse: {parsed.diagnostics[:3]}"):
            raise SystemExit(f"bench: generated {name} corpus is invalid")
        self.timeline = tl = parsed.timeline
        self.statements = parsed.statements
        default = tl.config.threshold_default
        self.queries = [
            (q.subject, q.object, q.interval,
             default if q.threshold is None else q.threshold)
            for q in tl.queries
        ]
        self.reference = [lv.evaluate(*q, tl) for q in self.queries]
        self.graph = graph = lv.project_timeline(tl)
        self.export_bytes = lv.export_graph(graph).encode()
        self.fail.check(not lv.validate(graph.individuals, graph.relations),
                        "projected graph does not validate")
        rng = random.Random(f"explain:{name}:{seed}")
        self.explain_sample = sorted(rng.sample(
            range(len(self.queries)), min(EXPLAIN_SAMPLE, len(self.queries))))
        self.oracle = self.check_oracle()

    # -- correctness ---------------------------------------------------

    def check_oracle(self) -> dict:
        """evaluate vs tick_oracle on a seeded sample of short windows."""
        lv, tl = self.lv, self.timeline
        lcm = math.lcm(*self.props["denominators"])
        granularity = lv.Instant(1, lcm)
        rng = random.Random(f"oracle:{self.name}:{self.seed}")
        ticks_of = [int(q[2].measure * lcm) for q in self.queries]
        order = sorted(range(len(self.queries)),
                       key=lambda i: (ticks_of[i], rng.random()))
        chosen, ticks, cost = [], 0, 0
        for i in order[: 2 * ORACLE_MAX_QUERIES]:
            step = self.props["events"] * (ticks_of[i] + 40)
            if chosen and (cost + step > ORACLE_BUDGET
                           or ticks + ticks_of[i] > ORACLE_MAX_TICKS):
                continue
            chosen.append(i)
            ticks, cost = ticks + ticks_of[i], cost + step
            if len(chosen) == ORACLE_MAX_QUERIES:
                break
        for i in chosen:
            slow = lv.tick_oracle(*self.queries[i], tl, granularity)
            fast = self.reference[i]
            self.fail.check(
                (slow.holds, slow.s, slow.c, slow.love_events)
                == (fast.holds, fast.s, fast.c, fast.love_events),
                f"tick oracle disagrees on query {i + 1}")
        return {"queries": len(chosen), "ticks": ticks,
                "granularity": f"1/{lcm}"}

    def expected_rows(self) -> list[dict]:
        fmt = self.lv.format_rational
        return [
            {"subject": q[0], "object": q[1], "interval": str(q[2]),
             "threshold": fmt(q[3]), "holds": v.holds, "s": fmt(v.s),
             "c": fmt(v.c), "love_events": [str(iv) for iv in v.love_events]}
            for q, v in zip(self.queries, self.reference)
        ]

    def check_eval_output(self, data: bytes) -> None:
        digest = hashlib.md5(data).hexdigest()
        if not self.md5["eval"]:
            try:
                rows = json.loads(data)
            except ValueError:
                rows = None
            self.fail.check(rows == self.expected_rows(),
                            "eval --format json disagrees with evaluate")
        self.md5["eval"].add(digest)
        self.fail.check(len(self.md5["eval"]) == 1,
                        "eval output differs between repetitions")

    def check_export_output(self, data: bytes) -> None:
        self.md5["export"].add(hashlib.md5(data).hexdigest())
        self.fail.check(data == self.export_bytes,
                        "export-bfo output differs from export_graph")

    def check_explain(self, i: int, trace) -> str:
        stage = trace.first_failure or "holds"
        self.fail.check((trace.first_failure is None) == self.reference[i].holds,
                        f"explain stage contradicts verdict on query {i + 1}")
        return stage

    # -- operations ----------------------------------------------------

    def run_reference_child(self) -> float:
        code, wall, data, _ = spawn(
            [str(BENCH / "reference.py"), str(REF_CHILD_ROUNDS)], "reference")
        self.fail.check(
            code == 0 and data.strip() == str(
                REF_CHILD_ROUNDS * ROUND_CHECKSUM).encode(),
            f"reference child exited {code} or printed {data[:40]!r}")
        return wall

    def run_reference_pass(self) -> float:
        t0 = perf_counter()
        check = work(REF_PASS_ROUNDS)
        elapsed = perf_counter() - t0
        self.fail.check(check == REF_PASS_ROUNDS * ROUND_CHECKSUM,
                        f"reference pass gave checksum {check}")
        return elapsed

    def run_eval_child(self) -> tuple[float, float | None]:
        code, wall, data, err = spawn(
            ["-c", EVAL_PROBE, "eval", "--format", "json", str(self.path)],
            "eval")
        if self.fail.check(code == 0, f"eval exited {code}"):
            self.check_eval_output(data)
        rss = peak_rss_mb(err)
        self.fail.check(rss is not None, "eval child reported no peak RSS")
        return wall, rss

    def run_export_child(self) -> float:
        code, wall, data, _ = spawn(
            ["-m", "loveline", "export-bfo", str(self.path)], "export")
        if self.fail.check(code == 0, f"export-bfo exited {code}"):
            self.check_export_output(data)
        return wall

    def run_setup_child(self) -> float | None:
        code, _, data, _ = spawn(["-c", SETUP_PROBE, str(self.path)], "setup")
        if not self.fail.check(code == 0, f"setup probe exited {code}"):
            return None
        return float(data)

    def fresh_timeline(self):
        """A new ``Timeline`` object holding the parsed records.

        Each timed pass gets one, so state the program keeps on a timeline
        or keyed by it (a pair cache, an index) does not carry over from an
        earlier pass. Only the data fields are passed on; a field added for
        a cache starts at its default. The records are frozen and shared:
        parsing again would give equal ones, at the cost of a full parse.
        """
        tl = self.timeline
        return self.lv.model.Timeline(
            agents=tl.agents, acquaintances=tl.acquaintances,
            sensations=tl.sensations, judgments=tl.judgments,
            inhibitions=tl.inhibitions, queries=tl.queries, config=tl.config)

    def query_pass(self, ref: Reference) -> list[float]:
        """Evaluate every query once, in file order, on a fresh timeline;
        returns each query's scaled time in seconds.

        A query then repeats an earlier pair only where the corpus repeats
        it, as for a library user who loads a file and asks each query once.
        """
        evaluate, tl = self.lv.semantics.evaluate, self.fresh_timeline()
        # Warm the interpreter on the reference timeline, not the fresh one.
        evaluate(*self.queries[0], self.timeline)

        def check(i: int, verdict) -> None:
            self.fail.check(verdict == self.reference[i],
                            f"evaluate changed on query {i + 1}")

        return timed_pass(list(range(len(self.queries))),
                          lambda i: evaluate(*self.queries[i], tl), check, ref)

    def explain_pass(self, ref: Reference) -> list[float]:
        """Explain the sample once, in file order, on a fresh timeline;
        returns each query's scaled time in seconds."""
        explain, tl = self.lv.semantics.explain, self.fresh_timeline()
        explain(*self.queries[self.explain_sample[0]], self.timeline)

        def check(i: int, trace) -> None:
            self.stage_of[i] = self.check_explain(i, trace)

        return timed_pass(self.explain_sample,
                          lambda i: explain(*self.queries[i], tl), check, ref)

    # -- the two kinds of run -------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """End-to-end metrics, tracing off.

        Every time is scaled to nominal host speed by the reference timed
        right before and right after it (see ``Reference``). A child's time
        is scaled by the reference child's, an in-process call's by the
        in-process references around its block. Each metric is a median:
        over samples for set-up and the children; for queries, each query's
        median over passes first, then the percentile over queries.
        """
        child_ref = Reference(self.run_reference_child, REF_CHILD_NOMINAL_S)
        child_ref.begin()
        pass_ref = Reference(self.run_reference_pass, REF_PASS_NOMINAL_S)
        samples = {"setup": [], "eval": [], "rss": [], "export": []}
        raw = {"setup": [], "eval": [], "export": []}
        query_times: list[list[float]] = [[] for _ in self.queries]
        explain_times: list[list[float]] = [[] for _ in self.explain_sample]

        def child(kind: str, elapsed: float | None) -> None:
            scale = child_ref.scale()
            if elapsed is not None:
                raw[kind].append(elapsed)
                samples[kind].append(elapsed * scale)

        def eval_():
            wall, rss = self.run_eval_child()
            child("eval", wall)
            if rss is not None:
                samples["rss"].append(rss)

        passes = {"query": 0, "explain": 0}

        def turn(kind: str, one_pass, per_query: list[list[float]]):
            def run_passes():
                start = perf_counter()
                while True:
                    for mine, t in zip(per_query, one_pass(pass_ref)):
                        mine.append(t)
                    passes[kind] += 1
                    if perf_counter() - start >= TURN_S:
                        return
            return run_passes

        ops = {
            "setup": lambda: child("setup", self.run_setup_child()),
            "eval": eval_,
            "export": lambda: child("export", self.run_export_child()),
            "query": turn("query", self.query_pass, query_times),
            "explain": turn("explain", self.explain_pass, explain_times),
        }
        # At least three turns of each.
        runs = schedule(ops, seconds, dict.fromkeys(ops, 3))
        runs.update({f"{kind}_passes": n for kind, n in passes.items()})
        runs["reference_children"] = len(child_ref.times)
        runs["reference_passes"] = len(pass_ref.times)
        self.raw = {
            "reference_child_s": median(child_ref.times),
            "reference_pass_s": median(pass_ref.times),
            **{f"{kind}_s": median(v) for kind, v in raw.items()},
        }
        query = [median(v) for v in query_times]
        explain = [median(v) for v in explain_times]
        ms = 1000.0
        return {
            "setup_s": (median(samples["setup"]), len(samples["setup"])),
            "eval_s": (median(samples["eval"]), len(samples["eval"])),
            "export_bfo_s": (median(samples["export"]),
                             len(samples["export"])),
            "query_p50_ms": (median(query) * ms,
                             passes["query"] * len(query)),
            "query_p99_ms": (percentile(query, 0.99) * ms,
                             passes["query"] * len(query)),
            "explain_p50_ms": (median(explain) * ms,
                               passes["explain"] * len(explain)),
            "eval_rss_mb": (median(samples["rss"]), len(samples["rss"])),
        }, runs

    def sequence(self, tracer: Tracer | None = None) -> dict:
        """One in-process pass over every layer; returns what it saw.

        The eval step runs first, so the first ``evaluate`` calls a traced
        pass records are the ones ``loveline eval`` makes.
        """
        lv = self.lv
        begin = len(tracer) if tracer else 0
        out = io.StringIO()
        with redirect_stdout(out):
            code = lv.cli.main(["eval", "--format", "json", str(self.path)])
        seen = {"eval_spans": (begin, len(tracer) if tracer else 0)}
        data = out.getvalue().encode()
        if self.fail.check(code == 0, f"in-process eval returned {code}"):
            self.check_eval_output(data)
        out = io.StringIO()
        with redirect_stdout(out):
            code = lv.cli.main(["export-bfo", str(self.path)])
        export = out.getvalue().encode()
        if self.fail.check(code == 0, f"in-process export-bfo returned {code}"):
            self.check_export_output(export)
        seen["output_bytes"] = len(data) + len(export)
        explain, tl = lv.semantics.explain, self.fresh_timeline()
        for i in self.explain_sample:
            self.stage_of[i] = self.check_explain(
                i, explain(*self.queries[i], tl))
        lv.parser.serialize_document(self.statements)
        self.fail.check(
            not lv.ontology.validate(self.graph.individuals,
                                     self.graph.relations),
            "projected graph does not validate")
        return seen

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Per-layer metrics from alternating untraced and traced passes."""
        plain, traced, per_pass = [], [], []
        deadline, lap = perf_counter() + seconds, 0.0
        # An untimed first pass pays one-off costs (cold memory, the first
        # full collection) that would otherwise fall on the first untraced
        # pass and make the overhead read negative.
        self.sequence()
        # Start another pair of passes only if it should end in time.
        while not per_pass or perf_counter() + lap < deadline:
            lap_start = perf_counter()
            gc.collect()
            t0 = perf_counter()
            self.sequence()
            plain.append(perf_counter() - t0)
            tracer, hooks = Tracer(), {}
            undo = install(self.lv, tracer, hooks)
            try:
                gc.collect()
                t0 = perf_counter()
                seen = self.sequence(tracer)
                traced.append(perf_counter() - t0)
            finally:
                restore(undo)
            per_pass.append(layer_metrics(tracer, hooks, seen))
            lap = perf_counter() - lap_start
        metrics = {name: (median([m[name] for _, m in per_pass]),
                          len(per_pass))
                   for name in per_pass[0][1]}
        self.shares = {layer: median([sh[layer] for sh, _ in per_pass])
                       for layer in LAYERS}
        write(tracer, OUT / f"spans_{self.name}.json")
        # Best-of-n: the fastest pass is the one the shared host slowed least.
        metrics["trace.overhead_s"] = (min(traced) - min(plain), len(traced))
        metrics["trace.untraced_pass_s"] = (min(plain), len(plain))
        return metrics, {"untraced": len(plain), "traced": len(traced)}


def install(lv, tracer: Tracer, hooks: dict) -> list[tuple]:
    """Wrap each layer's public functions; returns what restore() needs."""

    hooks.update(pairs=[], love=0, members=0, relations=0, statements=0,
                 records=0, lines=0)

    def on_evaluate(args, verdict):
        hooks["pairs"].append((args[0], args[1]))
        hooks["love"] += len(verdict.love_events.intervals)

    def on_interval(args, result):
        hooks["members"] += len(result.intervals)

    def on_parse(args, result):
        hooks["statements"] = len(result.statements)
        hooks["lines"] += args[0].count("\n")

    def on_validate(args, result):
        tl = args[0]
        hooks["records"] = (len(tl.agents) + len(tl.acquaintances)
                            + len(tl.sensations) + len(tl.judgments)
                            + len(tl.inhibitions) + len(tl.queries))

    def on_project(args, graph):
        hooks["relations"] = len(graph.relations)

    targets = [
        ("cli.main", lv.cli.main, None),
        ("parser.parse_document", lv.parser.parse_document, on_parse),
        ("parser.serialize_document", lv.parser.serialize_document, None),
        ("model.validate_timeline", lv.model.validate_timeline, on_validate),
        ("semantics.evaluate", lv.semantics.evaluate, on_evaluate),
        ("semantics.explain", lv.semantics.explain, None),
        ("semantics.condition_i_signal", lv.semantics.condition_i_signal, None),
        ("semantics.condition_ii_components",
         lv.semantics.condition_ii_components, None),
        ("semantics.inhibition_mask", lv.semantics.inhibition_mask, None),
        ("semantics.acquaintance_onset", lv.semantics.acquaintance_onset, None),
        ("ontology.project_timeline", lv.ontology.project_timeline, on_project),
        ("ontology.validate", lv.ontology.validate, None),
        ("ontology.export_graph", lv.ontology.export_graph, None),
    ]
    undo = []
    for name, fn, hook in targets:
        undo += patch(fn, tracer.wrap(name, fn, hook), "loveline")
    cls = lv.intervals.IntervalSet
    for op in INTERVAL_OPS:
        fn = vars(cls)[op]
        setattr(cls, op, tracer.wrap(f"intervals.{op}", fn, on_interval))
        undo.append((cls, op, fn))
    return undo


def eval_step_shares(tracer: Tracer, selfs: list[int], lo: int, hi: int
                     ) -> dict[str, float]:
    """Each layer's self time as a share of the traced ``eval`` step."""
    step = tracer.ends[lo] - tracer.starts[lo]
    shares = dict.fromkeys(LAYERS, 0.0)
    for i in range(lo, hi):
        shares[tracer.names[i].split(".")[0]] += selfs[i] / step
    return shares


def layer_metrics(tracer: Tracer, hooks: dict, seen: dict
                  ) -> tuple[dict, dict]:
    """Aggregate one traced sequence into the per-layer metrics."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(tracer.names):
        self_s[name] = self_s.get(name, 0) + selfs[i] / 1e9
        total_s[name] = (total_s.get(name, 0)
                         + (tracer.ends[i] - tracer.starts[i]) / 1e9)
        calls[name] = calls.get(name, 0) + 1
    lo, hi = seen["eval_spans"]
    eval_names = tracer.names[lo:hi]
    evaluations = eval_names.count("semantics.evaluate")
    pairs = hooks["pairs"][:evaluations]
    first_seen = len(set(pairs))
    s = self_s.get
    shares = eval_step_shares(tracer, selfs, lo, hi)
    return shares, {
        "semantics.evaluate_self_s": s("semantics.evaluate", 0),
        "semantics.evaluate_calls": calls.get("semantics.evaluate", 0),
        "semantics.condition_i_signal_s": s("semantics.condition_i_signal", 0),
        "semantics.condition_ii_components_s":
            s("semantics.condition_ii_components", 0),
        "semantics.inhibition_mask_s": s("semantics.inhibition_mask", 0),
        "semantics.acquaintance_onset_s": s("semantics.acquaintance_onset", 0),
        "semantics.explain_self_s": s("semantics.explain", 0),
        "semantics.signal_calls_per_query":
            sum(eval_names.count(n) for n in SIGNALS) / max(evaluations, 1),
        "semantics.pair_reuse_ratio":
            (len(pairs) - first_seen) / max(len(pairs), 1),
        "semantics.love_event_intervals": hooks["love"],
        "intervals.union_s": s("intervals.union", 0),
        "intervals.union_calls": calls.get("intervals.union", 0),
        "intervals.intersect_s": s("intervals.intersect", 0),
        "intervals.difference_s": s("intervals.difference", 0),
        "intervals.clip_from_s": s("intervals.clip_from", 0),
        "intervals.calls": sum(calls.get(f"intervals.{op}", 0)
                               for op in INTERVAL_OPS),
        "intervals.members_out": hooks["members"],
        "parser.parse_document_self_s": s("parser.parse_document", 0),
        "parser.lines_per_s":
            hooks["lines"] / total_s.get("parser.parse_document", math.inf),
        "parser.statements": hooks["statements"],
        "parser.serialize_document_s": s("parser.serialize_document", 0),
        "model.validate_timeline_s": s("model.validate_timeline", 0),
        "model.records": hooks["records"],
        "ontology.project_timeline_s": s("ontology.project_timeline", 0),
        "ontology.validate_s": s("ontology.validate", 0),
        "ontology.export_graph_s": s("ontology.export_graph", 0),
        "ontology.relations": hooks["relations"],
        "cli.main_self_s": s("cli.main", 0),
        "cli.output_bytes": seen["output_bytes"],
        "trace.spans": len(tracer),
    }


def schedule(ops: dict, seconds: float, minimum: dict) -> dict:
    """Run ops one at a time until ``seconds`` pass and minimums are met."""
    runs = dict.fromkeys(ops, 0)
    deadline = perf_counter() + seconds
    while True:
        late = perf_counter() >= deadline
        due = [op for op in ops if runs[op] < minimum[op]]
        if late and not due:
            return runs
        op = min(due if late else ops, key=lambda o: runs[o] / WEIGHTS[o])
        ops[op]()
        runs[op] += 1


def check_names(metrics: dict, declared: list[dict]) -> None:
    """Fail loudly when the metrics computed and BENCHMARK.json disagree."""
    names = {m["name"] for m in declared}
    extra, missing = set(metrics) - names, names - set(metrics)
    if extra or missing:
        raise SystemExit(f"bench: metrics not in BENCHMARK.json: "
                         f"{sorted(extra)}; never computed: {sorted(missing)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, lv) -> dict:
    t0 = perf_counter()
    work = Workload(name, seed, lv)
    prepare_s = perf_counter() - t0
    if trace:
        computed, runs = work.traced(seconds)
        declared = spec["per_layer"]
    else:
        computed, runs = work.measure(seconds)
        declared = spec["end_to_end"]
    check_names(computed, declared)
    fail = work.fail
    holds = sum(v.holds for v in work.reference)
    nonempty = sum(bool(v.love_events) for v in work.reference)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "corpus": work.props,
        "verdicts": {
            "holds_share": holds / len(work.reference),
            "love_events_nonempty_share": nonempty / len(work.reference),
            "explain_first_failure": dict(sorted(
                Counter(work.stage_of.values()).items())),
        },
        "oracle": work.oracle,
        "prepare_s": prepare_s,
        "md5": {k: sorted(v) for k, v in work.md5.items()},
        "runs": runs,
        "eval_step_self_share": work.shares,
        "unscaled_medians_s": work.raw,
        "attempted": fail.attempted,
        "failed": fail.failed,
        "failed_ops_ratio": fail.failed / fail.attempted,
        "failures": fail.reasons,
        "metrics": {
            m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"],
                        "samples": computed[m["name"]][1]}
            for m in declared
        },
    }
    out = OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    return record


def report(r: dict) -> None:
    c, v = r["corpus"], r["verdicts"]
    kinds = ", ".join(f"{k} {n}" for k, n in c["events_by_kind"].items())
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"python {r['python']}  nproc {r['nproc']}  commit {r['commit']}")
    print(f"corpus: {c['lines']} lines, {c['events']} events ({kinds}), "
          f"{c['agents']} agents, {c['ordered_pairs_with_events']} ordered "
          f"pairs with events, {c['queries']} queries over "
          f"{c['queried_pairs']} pairs (pair reuse {c['pair_reuse_ratio']:.3f}), "
          f"{c['extent_parts_per_episode']['mean']:.2f} extent parts per "
          f"episode, denominators {c['denominators']}")
    print(f"verdicts: holds {v['holds_share']:.1%}, non-empty love events "
          f"{v['love_events_nonempty_share']:.1%}, explain first failure "
          f"{v['explain_first_failure']}")
    o = r["oracle"]
    print(f"oracle: {o['queries']} queries, {o['ticks']} ticks at "
          f"granularity {o['granularity']}; generate, parse, check and "
          f"oracle took {r['prepare_s']:.2f} s")
    for kind, digests in r["md5"].items():
        print(f"md5 {kind}: {' '.join(digests) or '(not run)'}")
    for name, m in r["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:<12s} "
              f"(n={m['samples']})")
    if r["unscaled_medians_s"]:
        print("unscaled medians: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in r["unscaled_medians_s"].items()))
    if r["eval_step_self_share"]:
        print("self time share of the traced eval step: " + ", ".join(
            f"{k} {v:.1%}" for k, v in r["eval_step_self_share"].items()))
    print("operations run: " + ", ".join(f"{k} {n}"
                                        for k, n in r["runs"].items()))
    print(f"failed_ops_ratio {r['failed_ops_ratio']:.6g} "
          f"({r['failed']} of {r['attempted']})")
    for reason in r["failures"][:10]:
        print(f"failure: {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "loveline" / "__init__.py").is_file():
        print(f"bench: no loveline sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import loveline
    import loveline.cli  # noqa: F401  (submodules the traced run patches)

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                            spec, loveline) for name in names]
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for name, m in r["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    # The in-process timings run here, so fix string hashing as the children
    # have it: set and dict layouts, and with them the speed of the same
    # code, would otherwise differ from run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
