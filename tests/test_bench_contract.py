"""The benchmark's contract with the package.

``bench/run.py`` reads the package by name: ``Trace.first_failure`` in its
explain check, and the signal functions and interval-set operations that
its traced run wraps. A rename in ``src/loveline`` that the benchmark still
reads would only show when the benchmark is run, so this test runs one
traced pass of ``bench/run.py`` on a tiny corpus. The benchmark checks
only a small sample of queries against the tick oracle, so the oracle
cross-checks every query of two smaller corpora of the benchmark's shapes.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402

import loveline  # noqa: E402
import loveline.cli  # noqa: E402

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


# The benchmark's two shapes, shrunk so every query's tick grid stays small.
SHRUNK = {
    "wide-5k": dataclasses.replace(
        corpus.WORKLOADS["wide-5k"], agents=20, active_pairs=220,
        queries=200, queried_pairs=120, cold_pairs=12, inhibitions=30,
    ),
    "dense-hot": dataclasses.replace(corpus.WORKLOADS["dense-hot"], queries=40),
}


@pytest.mark.parametrize("name, granularity", [
    ("wide-5k", "1/4"), ("dense-hot", "1/60"),
])
def test_oracle_agrees_on_every_query_of_a_benchmark_shape(
    name, granularity, capsys, tmp_path
):
    text, properties = corpus.generate(SHRUNK[name], 7, name)
    assert properties["queries"] == SHRUNK[name].queries
    path = tmp_path / f"{name}.love"
    path.write_text(text, encoding="utf-8")
    code = loveline.cli.main(["oracle", str(path), "--granularity", granularity])
    assert (code, capsys.readouterr().out) == (0, "")
