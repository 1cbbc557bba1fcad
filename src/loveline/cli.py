"""Command-line interface.

Subcommands: ``check`` (parse and validate), ``eval`` (run every query,
text or JSON), ``explain`` (signal trace for one query), ``export-bfo``
(ontology graph in canonical text form), and ``oracle`` (cross-check the
evaluator against the brute-force tick oracle).

Exit codes: 0 success; 1 verdict-level failure (diagnostics present,
unreadable file, a result too long to print, query index out of range,
oracle mismatch or ``E_GRANULARITY``); 2 usage error. Query results go to
stdout, diagnostics and errors to stderr, and :func:`main` is the only
writer of either (argparse's usage errors aside). Output is
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
import sys
from argparse import ArgumentParser, ArgumentTypeError, Namespace
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

from .diagnostics import LovelineError
from .intervals import format_rational
from .model import QuerySpec, Timeline
from .parser import DslSyntaxError, parse_document, parse_rational
from .ontology import export_graph, project_timeline
from .semantics import Trace, Verdict, evaluate, explain, tick_oracle

_T = TypeVar("_T")


class _Failure(Exception):
    """Exit 1 with this one line on stderr and nothing on stdout."""


def _guarded(n: int, step: Callable[[], _T]) -> _T:
    """Run query ``n``'s ``step``, raising :class:`_Failure` when it
    raises a :class:`LovelineError` (the oracle's ``E_GRANULARITY``) or
    hits Python's int/str conversion limit (sys.get_int_max_str_digits):
    an exact ``s``, ``c`` or oracle tick count can have more digits than
    any literal in the input."""
    try:
        return step()
    except LovelineError as exc:
        raise _Failure(f"{exc.code}: {exc}") from None
    except ValueError:
        raise _Failure(
            f"query {n}: a result has more than "
            f"{sys.get_int_max_str_digits()} digits, too many to print"
        ) from None


def _granularity(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except DslSyntaxError as exc:
        raise ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise ArgumentTypeError("granularity R must be positive")
    return value


def _build_parser() -> ArgumentParser:
    """Each subcommand binds ``run(timeline, args) -> (status, stdout)``."""
    parser = ArgumentParser(
        prog="loveline",
        description="Evaluate loves(S,P) queries over declarative timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a timeline file")
    check.add_argument("file")
    check.set_defaults(run=lambda timeline, args: (0, ""))

    ev = sub.add_parser("eval", help="evaluate every query in a timeline file")
    ev.add_argument("file")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.set_defaults(run=_cmd_eval)

    ex = sub.add_parser("explain", help="print the signal trace for one query")
    ex.add_argument("file")
    ex.add_argument("--query", type=int, required=True, metavar="N",
                    help="1-based query index")
    ex.set_defaults(run=_cmd_explain)

    bfo = sub.add_parser("export-bfo", help="project the timeline to an "
                         "ontology graph and print it")
    bfo.add_argument("file")
    bfo.set_defaults(run=lambda timeline, args: (
        0, export_graph(project_timeline(timeline))))

    orc = sub.add_parser("oracle", help="cross-check evaluate against the "
                         "tick oracle for every query")
    orc.add_argument("file")
    orc.add_argument("--granularity", type=_granularity, required=True,
                     metavar="R", help="tick width (rational)")
    orc.set_defaults(run=_cmd_oracle)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _Failure(
            f"cannot read {path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start})"
        ) from None


def _asked(query: QuerySpec, timeline: Timeline) -> tuple:
    """The leading arguments of ``evaluate``, ``explain`` and ``tick_oracle``;
    a query without its own threshold takes the file's default."""
    threshold = query.threshold
    if threshold is None:
        threshold = timeline.config.threshold_default
    return query.subject, query.object, query.interval, threshold, timeline


def _outcome(verdict: Verdict) -> str:
    word = "HOLDS" if verdict.holds else "FAILS"
    return f"{word} s={format_rational(verdict.s)} c={format_rational(verdict.c)}"


def _query_line(query: QuerySpec, verdict: Verdict) -> str:
    return (
        f"loves({query.subject},{query.object}) over {query.interval} "
        f"T={format_rational(verdict.threshold)}: {_outcome(verdict)}"
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


def _cmd_eval(timeline: Timeline, args: Namespace) -> tuple[int, str]:
    render = _query_line if args.format == "text" else _query_record
    results = []
    for n, query in enumerate(timeline.queries, start=1):
        verdict = evaluate(*_asked(query, timeline))
        results.append(_guarded(n, lambda: render(query, verdict)))
    if args.format == "text":
        return 0, "".join(line + "\n" for line in results)
    return 0, json.dumps(results, indent=2) + "\n"


def _format_set(s) -> str:
    return str(s) or "(empty)"


def _cmd_explain(timeline: Timeline, args: Namespace) -> tuple[int, str]:
    if not 1 <= args.query <= len(timeline.queries):
        raise _Failure(
            f"query index {args.query} out of range "
            f"(file has {len(timeline.queries)} queries)"
        )
    query = timeline.queries[args.query - 1]
    trace = explain(*_asked(query, timeline))
    return 0, _guarded(args.query, lambda: _trace_text(query, trace))


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


def _cmd_oracle(timeline: Timeline, args: Namespace) -> tuple[int, str]:
    mismatches = []
    for n, query in enumerate(timeline.queries, start=1):
        asked = _asked(query, timeline)
        fast = evaluate(*asked)
        slow = _guarded(n, lambda: tick_oracle(*asked, args.granularity))
        if fast != slow:
            mismatches.append(
                f"mismatch {_query_line(query, fast)} "
                f"!= oracle {_outcome(slow)}\n"
            )
    return (1 if mismatches else 0), "".join(mismatches)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # The streams are looked up per call, so a caller's redirect holds.
    try:
        result = parse_document(_read(args.file))
        if result.diagnostics:
            for diag in result.diagnostics:
                print(diag.render(args.file), file=sys.stderr)
            return 1
        status, text = args.run(result.timeline, args)
    except _Failure as exc:
        print(f"loveline: {exc}", file=sys.stderr)
        return 1
    # Rendered in full before any is written, so a failure prints nothing.
    sys.stdout.write(text)
    return status
