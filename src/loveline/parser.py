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
Rationals are integers, fractions like ``3/4``, or exact decimals. The
header ``# loveline v1`` is optional; a first non-blank line naming any
other version is an error.

:data:`_GRAMMAR` is the single source of the statement shapes: for each
head word it gives the record class, the positional part and the
``key=value`` fields in canonical order with their defaults. Reading a
statement, building the timeline and writing canonical text all walk it.

Parsing is two-pass: statements are collected first, then identifier
references are resolved, so declarations need not precede uses. All
diagnostics for a document are collected in one run rather than stopping
at the first. :func:`serialize_document` emits the canonical form, which
reparses to an identical statement sequence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .diagnostics import (
    Diagnostic,
    E_EMPTY_INTERVAL,
    E_SYNTAX,
    EmptyIntervalError,
    LovelineError,
    _quoted,
)
from .intervals import Interval, IntervalSet, format_rational
from .model import (
    AcquaintanceRecord,
    Config,
    InhibitionEpisode,
    QuerySpec,
    SensationEpisode,
    Timeline,
    Valence,
    ValueJudgment,
    _duplicate_id,
    validate_timeline,
)

HEADER = "# loveline v1"

_HEADER_RE = re.compile(r"[ \t]*#[ \t]*loveline[ \t]+v([0-9]+)[ \t]*\Z")


class DslSyntaxError(LovelineError):
    code = E_SYNTAX


# ASCII digits only: ``\d`` would also match other scripts' digits.
_NUMBER = r"[+-]?(?:[0-9]+/[0-9]+|[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)"
_RATIONAL_RE = re.compile(_NUMBER + r"\Z")


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
    rf"|(?P<number>{_NUMBER})"
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


_EXPECTED = {"ident": "an identifier", "number": "a rational"}


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def take(self, kind: str, text: str | None = None) -> _Token:
        """Consume the next token, which must be of ``kind`` and, if given,
        spell ``text``."""
        if self._pos < len(self._tokens):
            token = self._tokens[self._pos]
            if token.kind == kind and (text is None or token.text == text):
                self._pos += 1
                return token
            found, column = f", found {_quoted(token.text)}", token.column
        else:
            last = self._tokens[-1]
            found, column = " at end of statement", last.column + len(last.text)
        # Worded only on failure: take runs once per token.
        expected = _EXPECTED[kind] if text is None else f"'{text}'"
        raise _StatementError(f"expected {expected}{found}", column)

    def peek_punct(self, char: str) -> bool:
        if self.at_end():
            return False
        token = self._tokens[self._pos]
        return token.kind == "punct" and token.text == char


def _rational(cur: _Cursor) -> Fraction:
    token = cur.take("number")
    try:
        return parse_rational(token.text)
    except DslSyntaxError as exc:
        raise _StatementError(str(exc), token.column) from None


def _interval(cur: _Cursor) -> Interval:
    opening = cur.take("punct", "[")
    start = _rational(cur)
    cur.take("punct", ",")
    end = _rational(cur)
    cur.take("punct", ")")
    try:
        return Interval(start, end)
    except EmptyIntervalError as exc:
        raise _StatementError(str(exc), opening.column, E_EMPTY_INTERVAL) from None


def _extent(cur: _Cursor) -> IntervalSet:
    intervals = [_interval(cur)]
    while cur.peek_punct("+"):
        cur.take("punct", "+")
        intervals.append(_interval(cur))
    return IntervalSet(tuple(intervals))


def _one_of(cur: _Cursor, options: Iterable[str]) -> str:
    token = cur.take("ident")
    if token.text not in options:
        expected = " or ".join(f"'{option}'" for option in options)
        raise _StatementError(
            f"expected {expected}, found {_quoted(token.text)}", token.column
        )
    return token.text


class _Kind(NamedTuple):
    """How a value is read from a statement and written back."""

    read: Callable[[_Cursor], object]
    write: Callable[[object], str]


# ``set`` keys and the Config fields they set.
_CONFIG_FIELDS = {"threshold": "threshold_default", "min_intensity": "min_intensity"}
_VALENCES = tuple(valence.value for valence in Valence)

_IDENT = _Kind(lambda cur: cur.take("ident").text, str)
_RATIONAL = _Kind(_rational, format_rational)
_INTERVAL = _Kind(_interval, str)
_EXTENT = _Kind(_extent, str)
_VALENCE = _Kind(
    lambda cur: Valence(_one_of(cur, _VALENCES)), lambda valence: valence.value
)
_SET_KEY = _Kind(lambda cur: _one_of(cur, _CONFIG_FIELDS), str)

_REQUIRED = object()


class _Field(NamedTuple):
    name: str
    kind: _Kind
    default: object = _REQUIRED


class _Shape(NamedTuple):
    record: type
    positional: tuple[str | _Field, ...]  # a bare string is a literal keyword
    fields: dict[str, _Field]  # key=value fields, in canonical order


def _shape(record: type, positional: tuple, *fields: _Field) -> _Shape:
    return _Shape(record, positional, {field.name: field for field in fields})


_ID = _Field("id", _IDENT)

_GRAMMAR: dict[str, _Shape] = {
    "agent": _shape(AgentDecl, (_Field("name", _IDENT),)),
    "acquaintance": _shape(
        AcquaintanceRecord,
        (_Field("subject", _IDENT), _Field("object", _IDENT),
         "at", _Field("at", _RATIONAL)),
    ),
    "sensation": _shape(
        SensationEpisode,
        (_ID,),
        _Field("bearer", _IDENT),
        _Field("correlate", _IDENT),
        _Field("valence", _VALENCE),
        _Field("intensity", _RATIONAL, Fraction(1)),
        _Field("extent", _EXTENT),
    ),
    "judgment": _shape(
        ValueJudgment,
        (_ID,),
        _Field("agent", _IDENT),
        _Field("target", _IDENT),
        _Field("extent", _EXTENT),
    ),
    "inhibition": _shape(
        InhibitionEpisode,
        (_ID,),
        _Field("agent", _IDENT),
        _Field("toward", _IDENT, None),
        _Field("extent", _EXTENT),
    ),
    "set": _shape(SetDirective, (_Field("key", _SET_KEY), _Field("value", _RATIONAL))),
    "query": _shape(
        QuerySpec,
        ("loves", _Field("subject", _IDENT), _Field("object", _IDENT)),
        _Field("interval", _INTERVAL),
        _Field("threshold", _RATIONAL, None),
    ),
}

_HEADS = {shape.record: head for head, shape in _GRAMMAR.items()}


def _parse_statement(line: str) -> Statement | None:
    """Read one line's statement; ``None`` for a blank or comment line."""
    tokens = _tokenize(line.split("#", 1)[0])
    if not tokens:
        return None
    head = tokens[0]
    shape = _GRAMMAR.get(head.text)
    if shape is None:
        raise _StatementError(f"unknown directive {_quoted(head.text)}", head.column)
    cur = _Cursor(tokens)
    cur.take("ident", head.text)
    values: dict[str, object] = {}
    for part in shape.positional:
        if isinstance(part, str):
            cur.take("ident", part)
        else:
            values[part.name] = part.kind.read(cur)
    # Only a statement with fields reads key=value pairs; in any other a
    # stray token is trailing, not an unknown field.
    if shape.fields:
        given: dict[str, object] = {}
        while not cur.at_end():
            key = cur.take("ident")
            field = shape.fields.get(key.text)
            if field is None or key.text in given:
                problem = "unknown" if field is None else "duplicate"
                raise _StatementError(
                    f"{problem} field {_quoted(key.text)}", key.column
                )
            cur.take("punct", "=")
            given[key.text] = field.kind.read(cur)
        for name, field in shape.fields.items():
            value = given.get(name, field.default)
            if value is _REQUIRED:
                raise _StatementError(f"missing field '{name}'", head.column)
            values[name] = value
    if not cur.at_end():
        stray = cur.peek()
        raise _StatementError(
            f"unexpected trailing {_quoted(stray.text)}", stray.column
        )
    return shape.record(**values)


def _build_timeline(
    parsed: list[tuple[Statement, int, int]],
) -> tuple[Timeline, dict[str, tuple[int, int]], list[Diagnostic]]:
    diags: list[Diagnostic] = []
    positions: dict[str, tuple[int, int]] = {}
    declared: dict[str, str] = {}
    records: dict[str, list] = {head: [] for head in _GRAMMAR}
    config: dict[str, Fraction] = {}

    for statement, line, column in parsed:
        head = _HEADS[type(statement)]
        if head == "set":
            # Document-wide, last writer wins.
            name = _CONFIG_FIELDS[statement.key]
            config[name] = statement.value
            positions[f"config.{name}"] = (line, column)
            continue
        kept = records[head]
        if head in ("acquaintance", "query"):
            positions[f"{head}[{len(kept)}]"] = (line, column)
        else:
            # Ids share one namespace so judgment targets resolve without
            # ambiguity; the first declaration wins, later ones error.
            record_id = statement.name if head == "agent" else statement.id
            if record_id in declared:
                diags.append(_duplicate_id(
                    record_id, declared[record_id], line=line, column=column
                ))
                continue
            declared[record_id] = head
            positions[record_id] = (line, column)
        kept.append(statement)

    timeline = Timeline(
        agents=tuple(decl.name for decl in records["agent"]),
        acquaintances=tuple(records["acquaintance"]),
        sensations=tuple(records["sensation"]),
        judgments=tuple(records["judgment"]),
        inhibitions=tuple(records["inhibition"]),
        queries=tuple(records["query"]),
        config=Config(**config),
    )
    return timeline, positions, diags


def parse_document(text: str) -> ParseResult:
    """Parse source text, collecting every diagnostic in one run."""
    diags: list[Diagnostic] = []
    parsed: list[tuple[Statement, int, int]] = []
    seeking_header = True
    # Lines end at LF only (str.splitlines also ends them at U+2028, U+0085,
    # form feed and more); one CR before the LF is dropped.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        if seeking_header and raw.strip(" \t"):
            # Only the first non-blank line can be the header, and it is
            # optional: any other first line is read as usual.
            seeking_header = False
            header = _HEADER_RE.match(raw)
            if header is not None and header[1] != "1":
                diags.append(
                    Diagnostic(
                        E_SYNTAX,
                        f"unsupported format version {_quoted('v' + header[1])} "
                        f"(expected '{HEADER}')",
                        line=line_no,
                        column=header.start(1),
                    )
                )
        try:
            statement = _parse_statement(raw)
        except _StatementError as exc:
            diags.append(
                Diagnostic(exc.code, exc.message, line=line_no, column=exc.column)
            )
            continue
        if statement is not None:
            parsed.append((statement, line_no, 1))

    timeline, positions, dup_diags = _build_timeline(parsed)
    diags.extend(dup_diags)
    for diag in validate_timeline(timeline):
        line, column = positions.get(diag.record or "", (None, None))
        diags.append(replace(diag, line=line, column=column))

    diags.sort(key=lambda d: (d.line or 0, d.column or 0, d.code, d.message))
    return ParseResult(
        statements=tuple(statement for statement, _, _ in parsed),
        timeline=timeline if not diags else None,
        diagnostics=tuple(diags),
    )


def _serialize_statement(statement: Statement) -> str:
    head = _HEADS.get(type(statement))
    if head is None:
        raise TypeError(f"not a statement: {statement!r}")
    shape = _GRAMMAR[head]
    words = [head]
    for part in shape.positional:
        if isinstance(part, str):
            words.append(part)
        else:
            words.append(part.kind.write(getattr(statement, part.name)))
    for name, field in shape.fields.items():
        value = getattr(statement, name)
        if field.default is _REQUIRED or value != field.default:
            words.append(f"{name}={field.kind.write(value)}")
    return " ".join(words)


def serialize_document(statements: Sequence[Statement]) -> str:
    """Emit canonical source: header, then one line per statement, LF."""
    lines = [HEADER]
    lines.extend(_serialize_statement(s) for s in statements)
    return "".join(line + "\n" for line in lines)
