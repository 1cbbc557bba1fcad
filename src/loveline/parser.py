"""Parser and canonical serializer for the "loveline v1" file format.

One statement per line; ``#`` starts a comment; blank lines are ignored;
whitespace between tokens is free. The statements:

    agent ID
    acquaintance ID ID at RAT
    sensation ID bearer=ID correlate=ID valence=(positive|negative)
              [intensity=RAT] extent=SET
    judgment ID agent=ID target=ID extent=SET
    inhibition ID agent=ID [toward=ID] extent=SET
    set (threshold|min_intensity) RAT
    query loves ID ID interval=IVL [threshold=RAT]

with ``IVL := "[" RAT "," RAT ")"`` and ``SET := IVL { "+" IVL }``.
Rationals are integers, fractions like ``3/4``, or exact decimals.

Parsing is two-pass: statements are collected first, then identifier
references are resolved, so declarations need not precede uses. All
diagnostics for a document are collected in one run rather than stopping
at the first. :func:`serialize_document` emits the canonical form, which
reparses to an identical statement sequence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, Union

from .diagnostics import (
    Diagnostic,
    E_DUP_ID,
    E_EMPTY_INTERVAL,
    E_SYNTAX,
    EmptyIntervalError,
    LovelineError,
)
from .intervals import Interval, IntervalSet, format_interval_set, format_rational
from .model import (
    AcquaintanceRecord,
    Config,
    InhibitionEpisode,
    QuerySpec,
    SensationEpisode,
    Timeline,
    Valence,
    ValueJudgment,
    validate_timeline,
)

HEADER = "# loveline v1"


class DslSyntaxError(LovelineError):
    code = E_SYNTAX


# Tokens longer than this are quoted by a prefix and their length, so one
# over-long token cannot make a diagnostic thousands of characters long.
_QUOTE_LIMIT = 40


def _quoted(token: str) -> str:
    """``token`` in single quotes, shortened when over :data:`_QUOTE_LIMIT`."""
    if len(token) <= _QUOTE_LIMIT:
        return f"'{token}'"
    return f"'{token[:_QUOTE_LIMIT - 10]}...' ({len(token)} characters)"


_RATIONAL_RE = re.compile(r"[+-]?(?:\d+/\d+|\d+\.\d*|\.\d+|\d+)\Z")


def parse_rational(token: str) -> Fraction:
    """Parse an integer, fraction, or decimal token to an exact value.

    Raises :class:`DslSyntaxError` on malformed tokens, a zero
    denominator, or more digits than Python converts to an integer.
    Decimals convert exactly, never through binary floats.
    """
    if not _RATIONAL_RE.match(token):
        raise DslSyntaxError(f"malformed rational {_quoted(token)}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise DslSyntaxError(f"zero denominator in {_quoted(token)}") from None
    except ValueError:
        # Python's int/str conversion limit (sys.get_int_max_str_digits).
        raise DslSyntaxError(
            f"rational of {len(token)} characters has too many digits"
        ) from None


@dataclass(frozen=True)
class AgentDecl:
    name: str


@dataclass(frozen=True)
class SetDirective:
    key: str
    value: Fraction


Statement = Union[
    AgentDecl,
    AcquaintanceRecord,
    SensationEpisode,
    ValueJudgment,
    InhibitionEpisode,
    SetDirective,
    QuerySpec,
]


@dataclass(frozen=True)
class ParseResult:
    """Outcome of :func:`parse_document`.

    ``timeline`` is populated only when ``diagnostics`` is empty;
    ``statements`` always holds every line that parsed, in source order.
    """

    statements: tuple[Statement, ...]
    timeline: Timeline | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _Token(NamedTuple):
    kind: str
    text: str
    column: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<number>[+-]?(?:\d+/\d+|\d+\.\d*|\.\d+|\d+))"
    r"|(?P<ident>[a-z][a-z0-9_]*)"
    r"|(?P<punct>[=\[,)+])"
)


class _StatementError(Exception):
    def __init__(self, message: str, column: int, code: str = E_SYNTAX):
        super().__init__(message)
        self.message = message
        self.column = column
        self.code = code


def _tokenize(line: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line):
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise _StatementError(f"unexpected character {line[pos]!r}", pos + 1)
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos + 1))
        pos = match.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self, expected: str) -> _Token:
        if self.at_end():
            last = self._tokens[-1]
            raise _StatementError(
                f"expected {expected} at end of statement",
                last.column + len(last.text),
            )
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def ident(self, literal: str | None = None) -> _Token:
        expected = f"'{literal}'" if literal else "an identifier"
        token = self._next(expected)
        if token.kind != "ident" or (literal is not None and token.text != literal):
            raise _StatementError(
                f"expected {expected}, found {_quoted(token.text)}", token.column
            )
        return token

    def number(self) -> _Token:
        token = self._next("a rational")
        if token.kind != "number":
            raise _StatementError(
                f"expected a rational, found {_quoted(token.text)}", token.column
            )
        return token

    def punct(self, char: str) -> _Token:
        token = self._next(f"'{char}'")
        if token.kind != "punct" or token.text != char:
            raise _StatementError(
                f"expected '{char}', found {_quoted(token.text)}", token.column
            )
        return token

    def peek_punct(self, char: str) -> bool:
        if self.at_end():
            return False
        token = self._tokens[self._pos]
        return token.kind == "punct" and token.text == char


def _rational(cur: _Cursor) -> Fraction:
    token = cur.number()
    try:
        return parse_rational(token.text)
    except DslSyntaxError as exc:
        raise _StatementError(str(exc), token.column) from None


def _interval(cur: _Cursor) -> Interval:
    opening = cur.punct("[")
    start = _rational(cur)
    cur.punct(",")
    end = _rational(cur)
    cur.punct(")")
    try:
        return Interval(start, end)
    except EmptyIntervalError as exc:
        raise _StatementError(str(exc), opening.column, E_EMPTY_INTERVAL) from None


def _extent(cur: _Cursor) -> IntervalSet:
    intervals = [_interval(cur)]
    while cur.peek_punct("+"):
        cur.punct("+")
        intervals.append(_interval(cur))
    return IntervalSet(tuple(intervals))


def _ident_value(cur: _Cursor) -> str:
    return cur.ident().text


def _valence_value(cur: _Cursor) -> Valence:
    token = cur.ident()
    if token.text == "positive":
        return Valence.POSITIVE
    if token.text == "negative":
        return Valence.NEGATIVE
    raise _StatementError(
        f"expected 'positive' or 'negative', found {_quoted(token.text)}", token.column
    )


def _fields(
    cur: _Cursor,
    head: _Token,
    spec: dict[str, Callable[[_Cursor], object]],
    required: Sequence[str],
) -> dict[str, object]:
    seen: dict[str, object] = {}
    while not cur.at_end():
        key = cur.ident()
        if key.text not in spec:
            raise _StatementError(f"unknown field {_quoted(key.text)}", key.column)
        if key.text in seen:
            raise _StatementError(f"duplicate field {_quoted(key.text)}", key.column)
        cur.punct("=")
        seen[key.text] = spec[key.text](cur)
    for name in required:
        if name not in seen:
            raise _StatementError(f"missing field '{name}'", head.column)
    return seen


def _parse_agent(cur: _Cursor, head: _Token) -> AgentDecl:
    return AgentDecl(cur.ident().text)


def _parse_acquaintance(cur: _Cursor, head: _Token) -> AcquaintanceRecord:
    subject = cur.ident().text
    object_ = cur.ident().text
    cur.ident("at")
    return AcquaintanceRecord(subject, object_, _rational(cur))


def _parse_sensation(cur: _Cursor, head: _Token) -> SensationEpisode:
    ep_id = cur.ident().text
    fields = _fields(
        cur,
        head,
        {
            "bearer": _ident_value,
            "correlate": _ident_value,
            "valence": _valence_value,
            "intensity": _rational,
            "extent": _extent,
        },
        required=("bearer", "correlate", "valence", "extent"),
    )
    return SensationEpisode(
        id=ep_id,
        bearer=fields["bearer"],
        correlate=fields["correlate"],
        valence=fields["valence"],
        extent=fields["extent"],
        intensity=fields.get("intensity", Fraction(1)),
    )


def _parse_judgment(cur: _Cursor, head: _Token) -> ValueJudgment:
    j_id = cur.ident().text
    fields = _fields(
        cur,
        head,
        {"agent": _ident_value, "target": _ident_value, "extent": _extent},
        required=("agent", "target", "extent"),
    )
    return ValueJudgment(
        id=j_id,
        agent=fields["agent"],
        target=fields["target"],
        extent=fields["extent"],
    )


def _parse_inhibition(cur: _Cursor, head: _Token) -> InhibitionEpisode:
    i_id = cur.ident().text
    fields = _fields(
        cur,
        head,
        {"agent": _ident_value, "toward": _ident_value, "extent": _extent},
        required=("agent", "extent"),
    )
    return InhibitionEpisode(
        id=i_id,
        agent=fields["agent"],
        toward=fields.get("toward"),
        extent=fields["extent"],
    )


def _parse_set(cur: _Cursor, head: _Token) -> SetDirective:
    key = cur.ident()
    if key.text not in ("threshold", "min_intensity"):
        raise _StatementError(
            "expected 'threshold' or 'min_intensity', "
            f"found {_quoted(key.text)}",
            key.column,
        )
    return SetDirective(key.text, _rational(cur))


def _parse_query(cur: _Cursor, head: _Token) -> QuerySpec:
    cur.ident("loves")
    subject = cur.ident().text
    object_ = cur.ident().text
    fields = _fields(
        cur,
        head,
        {"interval": _interval, "threshold": _rational},
        required=("interval",),
    )
    return QuerySpec(
        subject=subject,
        object=object_,
        interval=fields["interval"],
        threshold=fields.get("threshold"),
    )


_PARSERS: dict[str, Callable[[_Cursor, _Token], Statement]] = {
    "agent": _parse_agent,
    "acquaintance": _parse_acquaintance,
    "sensation": _parse_sensation,
    "judgment": _parse_judgment,
    "inhibition": _parse_inhibition,
    "set": _parse_set,
    "query": _parse_query,
}


def _parse_line(line: str) -> Statement | None:
    tokens = _tokenize(line.split("#", 1)[0])
    if not tokens:
        return None
    head = tokens[0]
    if head.kind != "ident" or head.text not in _PARSERS:
        raise _StatementError(f"unknown directive {_quoted(head.text)}", head.column)
    cur = _Cursor(tokens)
    cur.ident(head.text)
    statement = _PARSERS[head.text](cur, head)
    if not cur.at_end():
        stray = cur.peek()
        raise _StatementError(
            f"unexpected trailing {_quoted(stray.text)}", stray.column
        )
    return statement


def _id_of(statement: Statement) -> str | None:
    if isinstance(statement, AgentDecl):
        return statement.name
    if isinstance(statement, (SensationEpisode, ValueJudgment, InhibitionEpisode)):
        return statement.id
    return None


_KIND_NAMES = {
    AgentDecl: "agent",
    SensationEpisode: "sensation",
    ValueJudgment: "judgment",
    InhibitionEpisode: "inhibition",
}


def _build_timeline(
    parsed: list[tuple[Statement, int, int]],
) -> tuple[Timeline, dict[str, tuple[int, int]], list[Diagnostic]]:
    diags: list[Diagnostic] = []
    positions: dict[str, tuple[int, int]] = {}
    declared: dict[str, str] = {}
    agents: list[str] = []
    acquaintances: list[AcquaintanceRecord] = []
    sensations: list[SensationEpisode] = []
    judgments: list[ValueJudgment] = []
    inhibitions: list[InhibitionEpisode] = []
    queries: list[QuerySpec] = []
    config_values: dict[str, Fraction] = {}

    for statement, line, column in parsed:
        record_id = _id_of(statement)
        if record_id is not None:
            # Ids share one namespace so judgment targets resolve without
            # ambiguity; the first declaration wins, later ones error.
            if record_id in declared:
                diags.append(
                    Diagnostic(
                        E_DUP_ID,
                        f"duplicate id {_quoted(record_id)} (already declared as "
                        f"{declared[record_id]})",
                        line=line,
                        column=column,
                        record=record_id,
                    )
                )
                continue
            declared[record_id] = _KIND_NAMES[type(statement)]
            positions[record_id] = (line, column)
        if isinstance(statement, AgentDecl):
            agents.append(statement.name)
        elif isinstance(statement, AcquaintanceRecord):
            positions[f"acquaintance[{len(acquaintances)}]"] = (line, column)
            acquaintances.append(statement)
        elif isinstance(statement, SensationEpisode):
            sensations.append(statement)
        elif isinstance(statement, ValueJudgment):
            judgments.append(statement)
        elif isinstance(statement, InhibitionEpisode):
            inhibitions.append(statement)
        elif isinstance(statement, QuerySpec):
            positions[f"query[{len(queries)}]"] = (line, column)
            queries.append(statement)
        elif isinstance(statement, SetDirective):
            # Document-wide, last writer wins.
            config_values[statement.key] = statement.value
            handle = (
                "config.threshold_default"
                if statement.key == "threshold"
                else "config.min_intensity"
            )
            positions[handle] = (line, column)

    config = Config(
        threshold_default=config_values.get("threshold", Fraction(1)),
        min_intensity=config_values.get("min_intensity", Fraction(0)),
    )
    timeline = Timeline(
        agents=tuple(agents),
        acquaintances=tuple(acquaintances),
        sensations=tuple(sensations),
        judgments=tuple(judgments),
        inhibitions=tuple(inhibitions),
        queries=tuple(queries),
        config=config,
    )
    return timeline, positions, diags


def parse_document(text: str) -> ParseResult:
    """Parse source text, collecting every diagnostic in one run."""
    diags: list[Diagnostic] = []
    statements: list[Statement] = []
    parsed: list[tuple[Statement, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        try:
            statement = _parse_line(raw)
        except _StatementError as exc:
            diags.append(
                Diagnostic(exc.code, exc.message, line=line_no, column=exc.column)
            )
            continue
        if statement is None:
            continue
        statements.append(statement)
        parsed.append((statement, line_no, 1))

    timeline, positions, dup_diags = _build_timeline(parsed)
    diags.extend(dup_diags)
    for diag in validate_timeline(timeline):
        where = positions.get(diag.record or "")
        diags.append(
            Diagnostic(
                diag.code,
                diag.message,
                line=where[0] if where else None,
                column=where[1] if where else None,
                record=diag.record,
            )
        )

    diags.sort(key=lambda d: (d.line or 0, d.column or 0, d.code, d.message))
    return ParseResult(
        statements=tuple(statements),
        timeline=timeline if not diags else None,
        diagnostics=tuple(diags),
    )


def _serialize_statement(statement: Statement) -> str:
    if isinstance(statement, AgentDecl):
        return f"agent {statement.name}"
    if isinstance(statement, AcquaintanceRecord):
        return (
            f"acquaintance {statement.subject} {statement.object} "
            f"at {format_rational(statement.at)}"
        )
    if isinstance(statement, SensationEpisode):
        intensity = (
            ""
            if statement.intensity == 1
            else f" intensity={format_rational(statement.intensity)}"
        )
        return (
            f"sensation {statement.id} bearer={statement.bearer} "
            f"correlate={statement.correlate} valence={statement.valence.value}"
            f"{intensity} extent={format_interval_set(statement.extent)}"
        )
    if isinstance(statement, ValueJudgment):
        return (
            f"judgment {statement.id} agent={statement.agent} "
            f"target={statement.target} extent={format_interval_set(statement.extent)}"
        )
    if isinstance(statement, InhibitionEpisode):
        toward = "" if statement.toward is None else f" toward={statement.toward}"
        return (
            f"inhibition {statement.id} agent={statement.agent}{toward} "
            f"extent={format_interval_set(statement.extent)}"
        )
    if isinstance(statement, SetDirective):
        return f"set {statement.key} {format_rational(statement.value)}"
    if isinstance(statement, QuerySpec):
        threshold = (
            ""
            if statement.threshold is None
            else f" threshold={format_rational(statement.threshold)}"
        )
        return (
            f"query loves {statement.subject} {statement.object} "
            f"interval={statement.interval}{threshold}"
        )
    raise TypeError(f"not a statement: {statement!r}")


def serialize_document(statements: Sequence[Statement]) -> str:
    """Emit canonical source: header, then one line per statement, LF."""
    lines = [HEADER]
    lines.extend(_serialize_statement(s) for s in statements)
    return "".join(line + "\n" for line in lines)
