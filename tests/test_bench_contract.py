"""The benchmark's contract with the package.

``bench/run.py`` reads the package by name: ``Trace.first_failure`` in its
explain check, and the signal functions and interval-set operations that
its traced run wraps. A rename in ``src/loveline`` that the benchmark still
reads would only show when the benchmark is run, so this test runs one
traced pass of ``bench/run.py`` on a tiny corpus.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402

import loveline  # noqa: E402
import loveline.cli  # noqa: E402,F401

# The same shape as ``TINY`` in bench/test_bench.py.
TINY = corpus.Shape(
    agents=6, active_pairs=6, sensations_per_pair=3, direct_per_pair=1,
    inhibitions=2,
    queries=12, queried_pairs=6, cold_pairs=1, horizon=40,
    denominators=(1, 3, 10), parts=(1, 3), part_len=(1, 5), window=(1, 10),
)


def test_traced_benchmark_pass_runs_clean(monkeypatch, tmp_path):
    monkeypatch.setitem(corpus.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    work = run.Workload("tiny", 3, loveline)
    work.traced(0)
    assert work.fail.failed == 0, work.fail.reasons
