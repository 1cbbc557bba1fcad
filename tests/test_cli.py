"""Command-line behaviour: output formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loveline import (
    GranularityError,
    format_rational,
    Interval,
    IntervalSet,
    Verdict,
    evaluate,
    export_graph,
    parse_document,
    project_timeline,
    tick_oracle,
)
from loveline.cli import main

from conftest import FIXTURE_DIR


def run_main(*argv: str, capsys) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURE_DIR / name)


class TestEval:
    def test_timeline_a_text(self, capsys):
        code, out, err = run_main("eval", fx("timeline_a.love"), capsys=capsys)
        assert code == 0
        assert out == "loves(sally,john) over [0,10) T=1: FAILS s=4 c=6\n"
        assert err == ""

    def test_timeline_b_fails_with_zero_sum(self, capsys):
        code, out, _ = run_main("eval", fx("timeline_b.love"), capsys=capsys)
        assert code == 0
        assert out == "loves(sally,john) over [0,10) T=1: FAILS s=0 c=10\n"

    def test_timeline_c_holds(self, capsys):
        code, out, _ = run_main("eval", fx("timeline_c.love"), capsys=capsys)
        assert code == 0
        assert out == "loves(sally,john) over [0,10) T=1: HOLDS s=10 c=0\n"

    def test_mixed_corpus(self, capsys):
        code, out, _ = run_main("eval", fx("mixed.love"), capsys=capsys)
        assert code == 0
        assert out.splitlines() == [
            "loves(ada,ben) over [0,12) T=1/3: HOLDS s=5 c=7",
            "loves(ada,cyn) over [0,12) T=2: FAILS s=4 c=8",
            "loves(cyn,ada) over [0,10) T=1/3: HOLDS s=3 c=7",
            "loves(ben,ada) over [0,10) T=1/3: FAILS s=0 c=10",
        ]

    def test_json_format(self, capsys):
        code, out, _ = run_main(
            "eval", fx("timeline_a.love"), "--format", "json", capsys=capsys
        )
        assert code == 0
        assert json.loads(out) == [
            {
                "subject": "sally",
                "object": "john",
                "interval": "[0,10)",
                "threshold": "1",
                "holds": False,
                "s": "4",
                "c": "6",
                "love_events": ["[3,7)"],
            }
        ]

    def test_json_and_text_agree(self, capsys):
        code, text_out, _ = run_main("eval", fx("mixed.love"), capsys=capsys)
        assert code == 0
        code, json_out, _ = run_main(
            "eval", fx("mixed.love"), "--format", "json", capsys=capsys
        )
        assert code == 0
        lines = text_out.splitlines()
        for line, obj in zip(lines, json.loads(json_out), strict=True):
            word = "HOLDS" if obj["holds"] else "FAILS"
            assert line == (
                f"loves({obj['subject']},{obj['object']}) over "
                f"{obj['interval']} T={obj['threshold']}: {word} "
                f"s={obj['s']} c={obj['c']}"
            )

    def test_diagnostics_fail_eval(self, capsys):
        code, out, err = run_main("eval", fx("bad.love"), capsys=capsys)
        assert code == 1
        assert out == ""
        assert "E_DUP_ID" in err

    def test_missing_file(self, capsys):
        code, out, err = run_main("eval", "no_such.love", capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("loveline: cannot read no_such.love")


class TestCheck:
    def test_clean_file(self, capsys):
        code, out, err = run_main("check", fx("timeline_a.love"), capsys=capsys)
        assert (code, out, err) == (0, "", "")

    def test_bad_file_lists_every_diagnostic(self, capsys):
        code, out, err = run_main("check", fx("bad.love"), capsys=capsys)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 7
        assert lines[0] == (
            f"{fx('bad.love')}:3:1: E_DUP_ID: duplicate id 'ada' "
            "(already declared as agent)"
        )


    def test_non_utf8_file_is_a_read_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.love"
        path.write_bytes(b"# loveline v1\nagent a\n\xff\xfe\n")
        code, out, err = run_main("check", str(path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == (f"loveline: cannot read {path}: "
                       "not UTF-8 (byte 0xff at offset 22)\n")

    def test_leading_byte_order_mark_is_ignored(self, capsys, tmp_path):
        path = tmp_path / "bom.love"
        path.write_bytes(b"\xef\xbb\xbfagent a\nagent b\n")
        assert run_main("check", str(path), capsys=capsys) == (0, "", "")

    def test_byte_order_mark_does_not_hide_the_header(self, capsys, tmp_path):
        path = tmp_path / "bom.love"
        path.write_bytes(b"\xef\xbb\xbf# loveline v2\nagent a\n")
        code, out, err = run_main("check", str(path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == (f"{path}:1:12: E_SYNTAX: unsupported format version "
                       "'v2' (expected '# loveline v1')\n")

    def test_non_utf8_offset_counts_the_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.love"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        code, out, err = run_main("check", str(path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == (f"loveline: cannot read {path}: "
                       "not UTF-8 (byte 0xff at offset 5)\n")

    def test_overlong_numeric_literal_is_a_syntax_diagnostic(
        self, capsys, tmp_path
    ):
        path = tmp_path / "long.love"
        path.write_text(
            "# loveline v1\nagent a\nagent b\n"
            f"acquaintance a b at {'1' * 5000}\n",
            encoding="utf-8",
        )
        code, out, err = run_main("check", str(path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}:4:21: E_SYNTAX: rational of 5000 ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "header, expected",
        [("# loveline v2\n", 1), ("# loveline v1\n", 0), ("", 0)],
    )
    def test_header_version(self, capsys, tmp_path, header, expected):
        path = tmp_path / "header.love"
        path.write_text(f"{header}agent a\n", encoding="utf-8")
        code, out, err = run_main("check", str(path), capsys=capsys)
        assert (code, out) == (expected, "")
        assert err == ("" if expected == 0 else (
            f"{path}:1:12: E_SYNTAX: unsupported format version 'v2' "
            "(expected '# loveline v1')\n"
        ))

    def test_long_undeclared_target_is_quoted_briefly(self, capsys, tmp_path):
        path = tmp_path / "long.love"
        path.write_text(
            f"agent a\njudgment j agent=a target={'t' * 3000} extent=[0,1)\n",
            encoding="utf-8",
        )
        code, out, err = run_main("check", str(path), capsys=capsys)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line == (
            f"{path}:2:1: E_UNKNOWN_REF: judgment 'j' target "
            f"'{'t' * 30}...' (3000 characters) is neither an agent nor a "
            "sensation episode"
        )


class TestExplain:
    def test_mixed_query_1(self, capsys):
        code, out, _ = run_main(
            "explain", fx("mixed.love"), "--query", "1", capsys=capsys
        )
        assert code == 0
        assert out == (
            "loves(ada,ben) over [0,12) T=1/3: HOLDS s=5 c=7\n"
            "condition (i):          [1,4)+[6,9)\n"
            "condition (ii) derived: [2,4)+[6,9)\n"
            "condition (ii) direct:  [11,12)\n"
            "acquaintance onset:     1\n"
            "inhibition mask:        [4,6)\n"
            "love events:            [2,4)+[6,9)\n"
            "first failure:          (none)\n"
        )

    def test_no_acquaintance_failure(self, capsys):
        code, out, _ = run_main(
            "explain", fx("timeline_b.love"), "--query", "1", capsys=capsys
        )
        assert code == 0
        assert "acquaintance onset:     (none)" in out
        assert "first failure:          no acquaintance" in out

    def test_query_index_out_of_range(self, capsys):
        code, out, err = run_main(
            "explain", fx("timeline_a.love"), "--query", "5", capsys=capsys
        )
        assert code == 1
        assert out == ""
        assert "out of range" in err

    def test_out_of_range_is_one_stderr_line_and_no_stdout(self, capsys):
        code, out, err = run_main(
            "explain", fx("timeline_a.love"), "--query", "99", capsys=capsys
        )
        assert (code, out) == (1, "")
        assert err == (
            "loveline: query index 99 out of range (file has 1 queries)\n"
        )


class TestExportBfo:
    def test_matches_library_export(self, capsys):
        code, out, err = run_main(
            "export-bfo", fx("timeline_a.love"), capsys=capsys
        )
        assert code == 0
        source = (FIXTURE_DIR / "timeline_a.love").read_text(encoding="utf-8")
        graph = project_timeline(parse_document(source).timeline)
        assert out == export_graph(graph)
        assert 'individual sally Agent "sally"' in out
        assert "ice:j1 is_about john" in out


class TestOracle:
    def test_agrees_on_fixtures(self, capsys):
        for name in ("timeline_a.love", "timeline_b.love", "timeline_c.love",
                     "mixed.love"):
            code, out, err = run_main(
                "oracle", fx(name), "--granularity", "1", capsys=capsys
            )
            assert (code, out, err) == (0, "", "")

    def test_fractional_granularity(self, capsys):
        code, out, err = run_main(
            "oracle", fx("timeline_a.love"), "--granularity", "1/2",
            capsys=capsys,
        )
        assert (code, out, err) == (0, "", "")

    def test_granularity_that_does_not_divide(self, capsys):
        code, out, err = run_main(
            "oracle", fx("timeline_a.love"), "--granularity", "2",
            capsys=capsys,
        )
        assert code == 1
        assert "E_GRANULARITY" in err

    def test_granularity_over_the_tick_cap_fails_at_once(self, capsys):
        code, out, err = run_main(
            "oracle", fx("timeline_a.love"), "--granularity", "1/1000000000",
            capsys=capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith("loveline: E_GRANULARITY: ")
        assert "above the cap" in err

    def test_mismatch_is_reported_on_stdout(self, capsys, monkeypatch):
        # A deliberately wrong oracle: the evaluator says FAILS s=4 c=6.
        monkeypatch.setattr(
            "loveline.cli.tick_oracle",
            lambda *args: Verdict(True, 5, 5, 1, IntervalSet()),
        )
        code, out, err = run_main(
            "oracle", fx("timeline_a.love"), "--granularity", "1",
            capsys=capsys,
        )
        assert (code, err) == (1, "")
        assert out == (
            "mismatch loves(sally,john) over [0,10) T=1: FAILS s=4 c=6 "
            "!= oracle HOLDS s=5 c=5\n"
        )

    def test_love_events_alone_are_a_mismatch(self, capsys, monkeypatch):
        # The oracle agrees on s and c but puts the love events at [4,8)
        # instead of [3,7): the verdicts differ, so the run fails.
        def oracle(*args):
            return dataclasses.replace(
                evaluate(*args[:5]),
                love_events=IntervalSet((Interval(Fraction(4), Fraction(8)),)),
            )

        monkeypatch.setattr("loveline.cli.tick_oracle", oracle)
        code, out, err = run_main(
            "oracle", fx("timeline_a.love"), "--granularity", "1",
            capsys=capsys,
        )
        assert (code, err) == (1, "")
        assert out == (
            "mismatch loves(sally,john) over [0,10) T=1: FAILS s=4 c=6 "
            "!= oracle FAILS s=4 c=6\n"
        )

    def test_failure_after_a_mismatch_prints_nothing_on_stdout(
        self, capsys, monkeypatch
    ):
        # Query 1 mismatches; query 2 then fails, so the run writes no
        # mismatch line, only the failure.
        calls = []

        def oracle(*args):
            calls.append(args)
            if len(calls) == 1:
                return Verdict(True, 5, 5, 1, IntervalSet())
            raise GranularityError("granularity 1 does not divide endpoint 1/2")

        monkeypatch.setattr("loveline.cli.tick_oracle", oracle)
        code, out, err = run_main(
            "oracle", fx("mixed.love"), "--granularity", "1", capsys=capsys,
        )
        assert (code, out, len(calls)) == (1, "", 2)
        assert err == (
            "loveline: E_GRANULARITY: granularity 1 does not divide "
            "endpoint 1/2\n"
        )

    def test_thousands_of_events_at_the_lcm_granularity(
        self, capsys, monkeypatch, tmp_path
    ):
        # Each query reads the timeline's records twice, once to check the
        # granularity and once to pick the pair's own, rather than once per
        # tick, so a timeline of a few thousand events checks in seconds.
        text, denominators = oracle_corpus(random.Random(2026))
        assert 1000 <= text.count("\n") <= 5000
        path = tmp_path / "big.love"
        path.write_text(text, encoding="utf-8")
        reads: list[int] = []  # records read from the timeline, per query

        class Counted(tuple):
            def __iter__(self):
                for record in tuple.__iter__(self):
                    reads[-1] += 1
                    yield record

        def counting_oracle(*asked):
            *leading, timeline, granularity = asked
            reads.append(0)
            counted = dataclasses.replace(
                timeline,
                **{name: Counted(getattr(timeline, name)) for name in RECORDS},
            )
            return tick_oracle(*leading, counted, granularity)

        monkeypatch.setattr("loveline.cli.tick_oracle", counting_oracle)
        tick = f"1/{math.lcm(*denominators)}"
        code, out, err = run_main(
            "oracle", str(path), "--granularity", tick, capsys=capsys
        )
        assert (code, out, err) == (0, "", "")
        timeline = parse_document(text).timeline
        size = sum(len(getattr(timeline, name)) for name in RECORDS)
        assert len(reads) == len(timeline.queries) == 40
        assert max(reads) <= 2 * size


RECORDS = ("acquaintances", "sensations", "judgments", "inhibitions", "queries")


def oracle_corpus(rng: random.Random) -> tuple[str, tuple[int, ...]]:
    """About 4,300 events over 600 pairs and 40 queries of up to 6,000
    ticks, on grids of 1, 1/3, 1/4 and 1/5 up to 100."""
    denominators = (1, 3, 4, 5)
    agents = [f"a{i}" for i in range(30)]
    pairs = rng.sample([(s, p) for s in agents for p in agents if s != p], 600)

    def span(length: int) -> str:
        d = rng.choice(denominators)
        start = rng.randint(0, (100 - length) * d)
        end = start + rng.randint(d, length * d)
        ends = (format_rational(Fraction(point, d)) for point in (start, end))
        return "[{},{})".format(*ends)

    lines = [f"agent {a}" for a in agents]
    for k, (s, p) in enumerate(pairs):
        lines.append(f"acquaintance {s} {p} at {rng.randint(0, 60)}")
        for m in range(3):
            valence = rng.choice(["positive", "positive", "negative"])
            intensity = rng.choice(["1/4", "1/2", "3/4", "1"])
            lines.append(
                f"sensation s{k}_{m} bearer={s} correlate={p} valence={valence}"
                f" intensity={intensity} extent={span(20)}+{span(20)}"
            )
            target = rng.choice([f"s{k}_{m}", p])
            lines.append(f"judgment j{k}_{m} agent={s} target={target}"
                         f" extent={span(30)}")
        if k % 5 == 0:
            toward = rng.choice(["", f" toward={p}"])
            lines.append(f"inhibition h{k} agent={s}{toward} extent={span(5)}")
    lines.append("set min_intensity 1/2")
    for s, p in rng.choices(pairs, k=40):
        window = span(rng.randint(20, 100))
        lines.append(f"query loves {s} {p} interval={window} threshold=1/2")
    return "".join(line + "\n" for line in lines), denominators


def too_long_result(tmp_path) -> str:
    """Query 2's ``s`` has a 6,001-digit denominator; query 1 prints fine."""
    a, b = 10**3000 + 1, 10**3000 + 3
    path = tmp_path / "digits.love"
    path.write_text(
        "agent a\nagent b\nacquaintance a b at 0\n"
        "sensation s1 bearer=a correlate=b valence=positive "
        f"extent=[0,1/{a})+[2,{2 * b + 1}/{b})\n"
        "judgment j1 agent=a target=b extent=[0,10)\n"
        "query loves a b interval=[5,6)\n"
        "query loves a b interval=[0,10)\n",
        encoding="utf-8",
    )
    return str(path)


class TestDigitLimit:
    MESSAGE = (f"loveline: query 2: a result has more than "
               f"{sys.get_int_max_str_digits()} digits, too many to print\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_eval_names_the_query_and_prints_nothing(
        self, fmt, capsys, tmp_path
    ):
        path = too_long_result(tmp_path)
        code, out, err = run_main("eval", path, "--format", fmt, capsys=capsys)
        assert (code, out, err) == (1, "", self.MESSAGE)

    def test_explain_names_the_query_and_prints_nothing(self, capsys, tmp_path):
        path = too_long_result(tmp_path)
        code, out, err = run_main("explain", path, "--query", "2", capsys=capsys)
        assert (code, out, err) == (1, "", self.MESSAGE)
        code, out, err = run_main("explain", path, "--query", "1", capsys=capsys)
        assert (code, err) == (0, "")
        assert out.startswith("loves(a,b) over [5,6) T=1: FAILS s=0 c=1\n")

    def test_oracle_tick_count_over_the_limit(self, capsys, tmp_path):
        # 10**8000 ticks: over the cap, and too long for the cap's message.
        path = tmp_path / "wide.love"
        path.write_text(f"agent a\nagent b\nquery loves a b "
                        f"interval=[0,{10**4000})\n", encoding="utf-8")
        code, out, err = run_main("oracle", str(path), "--granularity",
                                  f"1/{10**4000}", capsys=capsys)
        assert (code, out) == (1, "")
        assert err == self.MESSAGE.replace("query 2", "query 1")


# Lines of a small valid document, for the fuzzer to shuffle and break.
DOCUMENT_LINES = (
    "# loveline v1",
    "agent a",
    "agent b",
    "acquaintance a b at 1/2",
    "sensation s bearer=a correlate=b valence=positive intensity=.5 "
    "extent=[0,5)+[6,9)",
    "judgment j agent=a target=s extent=[1,4)",
    "judgment k agent=a target=b extent=[7,8)",
    "inhibition i agent=a toward=b extent=[2,3)",
    "set threshold 1/3",
    "set min_intensity 1",
    "query loves a b interval=[0,10)",
    "query loves b a interval=[3,4) threshold=2",
)


def _joined(lines: list[str]) -> bytes:
    return "\n".join(lines).encode("utf-8", "surrogatepass")


file_bytes = st.one_of(
    st.binary(max_size=300),
    st.lists(st.sampled_from(DOCUMENT_LINES), unique=True).map(_joined),
    st.lists(
        st.one_of(st.sampled_from(DOCUMENT_LINES), st.text(max_size=30)),
        max_size=14,
    ).map(_joined),
)


@settings(max_examples=150, deadline=None)
@given(data=file_bytes)
def test_any_file_bytes_end_in_an_exit_code(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.love"
    path.write_bytes(data)
    for argv in (["eval", str(path)], ["explain", str(path), "--query", "1"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--bogus"])
        assert exc.value.code == 2

    def test_bad_format_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", fx("timeline_a.love"), "--format", "xml"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_malformed_granularity(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", fx("timeline_a.love"), "--granularity", "fast"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["\u0661", "1/\uff12", "\u0966.5"])
    def test_non_ascii_digit_granularity(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", fx("timeline_a.love"), "--granularity", value])
        assert exc.value.code == 2
        assert "malformed rational" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "-1/2"])
    @pytest.mark.parametrize("queries", [True, False])
    def test_non_positive_granularity(self, value, queries, tmp_path, capsys):
        # Rejected before the file is read, whether or not it has queries.
        path = tmp_path / "no_queries.love"
        path.write_text("agent sally\nagent john\n", encoding="utf-8")
        target = fx("timeline_a.love") if queries else str(path)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", target, f"--granularity={value}"])
        assert exc.value.code == 2
        assert "granularity R must be positive" in capsys.readouterr().err

    def test_negative_fraction_is_read_as_a_value_after_equals(self, capsys):
        # argparse takes a separate "-1/2" for a flag, not for R's value,
        # and words that error itself; after "=" it is R. Both exit 2.
        with pytest.raises(SystemExit) as exc:
            main(["oracle", fx("timeline_a.love"), "--granularity=-1/2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --granularity: granularity R must be positive\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["oracle", fx("timeline_a.love"), "--granularity", "-1/2"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self, capsys):
        result = subprocess.run(
            [sys.executable, "-m", "loveline", "eval", fx("timeline_a.love")],
            capture_output=True,
            encoding="utf-8",
        )
        assert result.returncode == 0
        code, out, _ = run_main("eval", fx("timeline_a.love"), capsys=capsys)
        assert result.stdout == out

    def test_bytes_do_not_depend_on_the_hash_seed(self):
        # In-process runs share one PYTHONHASHSEED; set or dict order that
        # leaked into the output would show only across processes.
        src = str(FIXTURE_DIR.parent.parent / "src")
        runs = [("check", fx("bad.love"))]
        for path in sorted(FIXTURE_DIR.glob("*.love")):
            if parse_document(path.read_text(encoding="utf-8")).ok:
                runs.append(("eval", "--format", "json", str(path)))
                runs.append(("export-bfo", str(path)))

        def outputs(seed: str) -> list:
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            results = [
                subprocess.run(
                    [sys.executable, "-m", "loveline", *argv],
                    capture_output=True, env=env,
                )
                for argv in runs
            ]
            return [(r.returncode, r.stdout, r.stderr) for r in results]

        first = outputs("0")
        assert [code for code, _, _ in first] == [1] + [0] * 8
        assert outputs("1") == first
