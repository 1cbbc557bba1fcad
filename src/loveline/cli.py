"""Command-line interface.

Subcommands: ``check`` (parse and validate), ``eval`` (run every query,
text or JSON), ``explain`` (signal trace for one query), ``export-bfo``
(ontology graph in canonical text form), and ``oracle`` (cross-check the
evaluator against the brute-force tick oracle).

Exit codes: 0 success; 1 verdict-level failure (diagnostics present,
unreadable file, a result too long to print, oracle mismatch); 2 usage
error. Query results go to stdout, diagnostics and errors to stderr.
Output is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Sequence, TextIO, TypeVar

from .diagnostics import LovelineError
from .intervals import format_rational
from .model import QuerySpec, Timeline
from .parser import DslSyntaxError, parse_document, parse_rational
from .ontology import export_graph, project_timeline
from .semantics import Trace, Verdict, evaluate, explain, tick_oracle

_T = TypeVar("_T")


class _Unprintable(Exception):
    """A query whose exact result has too many digits to print."""


def _guarded(n: int, step: Callable[[], _T]) -> _T:
    """Run query ``n``'s ``step``, raising :class:`_Unprintable` when it
    hits Python's int/str conversion limit (sys.get_int_max_str_digits):
    an exact ``s``, ``c`` or oracle tick count can have more digits than
    any literal in the input."""
    try:
        return step()
    except ValueError:
        raise _Unprintable(
            f"query {n}: a result has more than "
            f"{sys.get_int_max_str_digits()} digits, too many to print"
        ) from None


def _granularity(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except DslSyntaxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("granularity R must be positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loveline",
        description="Evaluate loves(S,P) queries over declarative timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a timeline file")
    check.add_argument("file")

    ev = sub.add_parser("eval", help="evaluate every query in a timeline file")
    ev.add_argument("file")
    ev.add_argument("--format", choices=("text", "json"), default="text")

    ex = sub.add_parser("explain", help="print the signal trace for one query")
    ex.add_argument("file")
    ex.add_argument("--query", type=int, required=True, metavar="N",
                    help="1-based query index")

    bfo = sub.add_parser("export-bfo", help="project the timeline to an "
                         "ontology graph and print it")
    bfo.add_argument("file")

    orc = sub.add_parser("oracle", help="cross-check evaluate against the "
                         "tick oracle for every query")
    orc.add_argument("file")
    orc.add_argument("--granularity", type=_granularity, required=True,
                     metavar="R", help="tick width (rational)")

    return parser


def _load(path: str, err: TextIO) -> Timeline | None:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8-sig")
    except OSError as exc:
        print(f"loveline: cannot read {path}: {exc.strerror}", file=err)
        return None
    except UnicodeDecodeError as exc:
        # exc.object leaves out a leading byte-order mark; count it back in.
        offset = len(data) - len(exc.object) + exc.start
        byte = exc.object[exc.start]
        print(f"loveline: cannot read {path}: not UTF-8 (byte 0x{byte:02x} "
              f"at offset {offset})", file=err)
        return None
    result = parse_document(text)
    if result.diagnostics:
        for diag in result.diagnostics:
            print(diag.render(path), file=err)
        return None
    return result.timeline


def _threshold_of(query: QuerySpec, timeline: Timeline) -> Fraction:
    if query.threshold is not None:
        return query.threshold
    return timeline.config.threshold_default


def _query_line(query: QuerySpec, verdict: Verdict) -> str:
    word = "HOLDS" if verdict.holds else "FAILS"
    return (
        f"loves({query.subject},{query.object}) over {query.interval} "
        f"T={format_rational(verdict.threshold)}: {word} "
        f"s={format_rational(verdict.s)} c={format_rational(verdict.c)}"
    )


def _query_record(query: QuerySpec, verdict: Verdict) -> dict:
    return {
        "subject": query.subject,
        "object": query.object,
        "interval": str(query.interval),
        "threshold": format_rational(verdict.threshold),
        "holds": verdict.holds,
        "s": format_rational(verdict.s),
        "c": format_rational(verdict.c),
        "love_events": [str(iv) for iv in verdict.love_events],
    }


def _cmd_eval(timeline: Timeline, fmt: str, out: TextIO) -> int:
    render = _query_line if fmt == "text" else _query_record
    results = []
    for n, query in enumerate(timeline.queries, start=1):
        threshold = _threshold_of(query, timeline)
        verdict = evaluate(
            query.subject, query.object, query.interval, threshold, timeline
        )
        results.append(_guarded(n, lambda: render(query, verdict)))
    # Rendered in full before any is written, so a failure prints nothing.
    if fmt == "text":
        out.write("".join(line + "\n" for line in results))
    else:
        print(json.dumps(results, indent=2), file=out)
    return 0


def _format_set(s) -> str:
    return str(s) or "(empty)"


def _cmd_explain(
    timeline: Timeline, index: int, out: TextIO, err: TextIO
) -> int:
    if not 1 <= index <= len(timeline.queries):
        print(
            f"loveline: query index {index} out of range "
            f"(file has {len(timeline.queries)} queries)",
            file=err,
        )
        return 1
    query = timeline.queries[index - 1]
    threshold = _threshold_of(query, timeline)
    trace = explain(
        query.subject, query.object, query.interval, threshold, timeline
    )
    out.write(_guarded(index, lambda: _trace_text(query, trace)))
    return 0


def _trace_text(query: QuerySpec, trace: Trace) -> str:
    signals = trace.signals
    onset = (
        "(none)"
        if signals.acquaintance_onset is None
        else format_rational(signals.acquaintance_onset)
    )
    lines = (
        _query_line(query, trace.verdict),
        f"condition (i):          {_format_set(signals.condition_i)}",
        f"condition (ii) derived: {_format_set(signals.condition_ii_derived)}",
        f"condition (ii) direct:  {_format_set(signals.condition_ii_direct)}",
        f"acquaintance onset:     {onset}",
        f"inhibition mask:        {_format_set(signals.inhibition_mask)}",
        f"love events:            {_format_set(trace.verdict.love_events)}",
        f"first failure:          {trace.first_failure or '(none)'}",
    )
    return "".join(line + "\n" for line in lines)


def _cmd_export(timeline: Timeline, out: TextIO) -> int:
    out.write(export_graph(project_timeline(timeline)))
    return 0


def _cmd_oracle(
    timeline: Timeline, granularity: Fraction, out: TextIO, err: TextIO
) -> int:
    status = 0
    for n, query in enumerate(timeline.queries, start=1):
        threshold = _threshold_of(query, timeline)
        fast = evaluate(
            query.subject, query.object, query.interval, threshold, timeline
        )
        try:
            slow = _guarded(n, lambda: tick_oracle(
                query.subject, query.object, query.interval, threshold,
                timeline, granularity,
            ))
        except LovelineError as exc:
            print(f"loveline: {exc.code}: {exc}", file=err)
            return 1
        if (fast.holds, fast.s, fast.c) != (slow.holds, slow.s, slow.c):
            status = 1
            print(
                f"mismatch {_query_line(query, fast)} "
                f"!= oracle {'HOLDS' if slow.holds else 'FAILS'} "
                f"s={format_rational(slow.s)} c={format_rational(slow.c)}",
                file=out,
            )
    return status


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out, err = sys.stdout, sys.stderr
    timeline = _load(args.file, err)
    if timeline is None:
        return 1
    try:
        if args.command == "check":
            return 0
        if args.command == "eval":
            return _cmd_eval(timeline, args.format, out)
        if args.command == "explain":
            return _cmd_explain(timeline, args.query, out, err)
        if args.command == "export-bfo":
            return _cmd_export(timeline, out)
        if args.command == "oracle":
            return _cmd_oracle(timeline, args.granularity, out, err)
    except _Unprintable as exc:
        print(f"loveline: {exc}", file=err)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")
