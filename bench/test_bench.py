"""Tests of the benchmark itself. Run: python3 -m pytest bench"""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from corpus import WORKLOADS, Shape, generate
from spans import Tracer, patch, restore, self_times

sys.path.insert(0, str(run.SRC))
import loveline  # noqa: E402
import loveline.cli  # noqa: E402,F401

TINY = Shape(
    agents=6, active_pairs=6, sensations_per_pair=3, direct_per_pair=1,
    inhibitions=2,
    queries=12, queried_pairs=6, cold_pairs=1, horizon=40,
    denominators=(1, 3, 10), parts=(1, 3), part_len=(1, 5), window=(1, 10),
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_bytes_depend_only_on_seed(name):
    shape = WORKLOADS[name]
    first, props = generate(shape, 1, name)
    assert generate(shape, 1, name)[0] == first
    assert generate(shape, 2, name)[0] != first
    assert props["queries"] == shape.queries
    assert props["queried_pairs"] == shape.queried_pairs


def test_tiny_corpus_is_valid_loveline():
    text, props = generate(TINY, 7, "tiny")
    result = loveline.parse_document(text)
    assert result.ok, result.diagnostics
    assert len(result.timeline.queries) == props["queries"] == 12
    assert props["pair_reuse_ratio"] == 0.5


def test_self_time_on_hand_built_tree():
    # root [0,100) has children a [10,30) and b [20,50), which overlap;
    # a has child g [12,15). Covered parts count once.
    starts = [0, 10, 12, 20]
    ends = [100, 30, 15, 50]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [60, 17, 3, 30]


def test_tracer_nests_spans_and_patch_restores_every_binding():
    tracer = Tracer()
    original = loveline.semantics.evaluate
    undo = patch(original, tracer.wrap("semantics.evaluate", original),
                 "loveline")
    try:
        assert loveline.cli.evaluate is loveline.semantics.evaluate
        assert loveline.evaluate is not original
        inner = tracer.wrap("inner", lambda: None)
        tracer.wrap("outer", inner)()
    finally:
        restore(undo)
    assert loveline.cli.evaluate is original
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]


def test_metric_names_match_benchmark_json(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    work = run.Workload("tiny", 3, loveline)
    end_to_end, _ = work.measure(0)
    per_layer, _ = work.traced(0)
    assert work.fail.failed == 0, work.fail.reasons
    fresh = work.fresh_timeline()
    assert fresh is not work.timeline and fresh == work.timeline
    for computed, declared in ((end_to_end, spec["end_to_end"]),
                               (per_layer, spec["per_layer"])):
        names = [m["name"] for m in declared]
        assert sorted(computed) == sorted(names)
        for name in names:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    # Five signal calls per query; four when the pair never met, because
    # condition (ii) then returns before building the inhibition mask.
    met = {(a.subject, a.object) for a in work.timeline.acquaintances}
    calls = [5 if q[:2] in met else 4 for q in work.queries]
    assert per_layer["semantics.signal_calls_per_query"][0] == (
        sum(calls) / len(calls))
    assert per_layer["semantics.pair_reuse_ratio"][0] == 0.5
    written = json.loads((run.OUT / "spans_tiny.json").read_text())
    assert len(written["spans"]) == per_layer["trace.spans"][0]


def test_timed_pass_scales_each_block_by_the_references_around_it(
        monkeypatch):
    monkeypatch.setattr(run, "REF_BLOCK", 2)
    ticks = iter(range(100))  # every call takes one tick of this clock
    monkeypatch.setattr(run, "perf_counter", lambda: next(ticks))
    refs = iter([1.0, 3.0, 2.0])  # before the pass, after each block
    ref = run.Reference(lambda: next(refs), nominal=2.0)
    checked = []
    times = run.timed_pass(["a", "b", "c"], str.upper,
                           lambda item, out: checked.append((item, out)), ref)
    # Block [a, b] lies between references 1 and 3, block [c] between 3
    # and 2: scales 2 / mean(1, 3) and 2 / mean(3, 2).
    assert times == [1.0, 1.0, 0.8]
    assert checked == [("a", "A"), ("b", "B"), ("c", "C")]
    assert ref.times == [1.0, 3.0, 2.0]
    assert gc.isenabled()


def test_eval_probe_reports_the_childs_own_peak_rss(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    ballast = b"x" * (96 << 20)  # lifts this process's peak RSS by 96 MB
    code, _, out, err = run.spawn(["-c", run.EVAL_PROBE, "--help"], "probe")
    del ballast
    assert code == 0 and b"export-bfo" in out
    with open("/proc/self/status", encoding="ascii") as status:
        parent_kb = next(int(line.split()[1]) for line in status
                         if line.startswith("VmHWM:"))
    assert run.peak_rss_mb(err) < min(64, parent_kb / 1024 - 64)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
