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
other version is an error. One leading byte-order mark (U+FEFF) is
dropped, so it neither breaks the first statement nor hides the header.

:data:`_GRAMMAR` is the single source of the statement shapes: for each
head word it gives the record class, the positional part and the
``key=value`` fields in canonical order with their defaults. Reading a
statement, building the timeline and writing canonical text all walk it;
the writer words every value with ``str`` (``3/4``, ``[0,1)+[2,3)``).

Each line is read one of two ways, with the same result:

* a well-formed line with its fields in canonical order takes the fast
  path when it starts with its head word and has blanks only between
  words (none around ``=`` or inside an extent): one regex per head word,
  compiled from :data:`_GRAMMAR`, matches the whole line;
* every other line (fields out of order, other spacing, or any defect)
  takes the token-by-token reader, :func:`_parse_statement`;
* diagnostics come only from that reader: a line the fast path cannot
  match or convert is handed to it unchanged;
* the fast path delimits a number by its characters alone; both readers
  check each distinct number text against the one rational grammar and
  convert it once per document, keeping only successes
  (:func:`_rational_of`);
* both readers build an interval through :class:`Interval`, whose one
  emptiness check is in integers, and keep an extent whose parts are
  already in order with gaps between them as read (:func:`_extent_of`).

One loop reads each line and files its statement into the timeline;
:func:`validate_timeline` resolves identifier references after the last
line, so declarations need not precede uses. All diagnostics for a
document are collected in one run rather than stopping at the first.
:func:`serialize_document` emits the canonical form, which reparses to an
identical statement sequence.
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
from .intervals import Interval, IntervalSet
from .model import (
    IDENTIFIER,
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
    return _to_fraction(token)


def _to_fraction(text: str) -> Fraction:
    """Convert a ``_NUMBER`` match exactly: ``Fraction`` reads integers,
    fractions and decimals of ASCII digits as written."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DslSyntaxError(f"zero denominator in {_quoted(text)}") from None
    except ValueError:
        # Python's int/str conversion limit (sys.get_int_max_str_digits).
        raise DslSyntaxError(
            f"rational of {len(text)} characters has too many digits"
        ) from None


def _rational_of(text: str, memo: dict) -> Fraction:
    """``parse_rational(text)``, checked and converted once per document.

    ``memo`` is the document's own dict of converted texts, which
    :func:`parse_document` creates and drops. Only successes are kept, so
    a defective text fails, and is diagnosed, at every line it is on.
    """
    value = memo.get(text)
    if value is None:
        value = memo[text] = parse_rational(text)
    return value


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
    # A number run into letters, like ``1e3``, is one malformed rational.
    rf"|(?P<number>{_NUMBER})(?P<run_on>[a-z_][a-z0-9_./]*)?"
    rf"|(?P<ident>{IDENTIFIER})"
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
        if kind == "run_on":
            raise _StatementError(
                f"malformed rational {_quoted(match.group())}", pos + 1
            )
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos + 1))
        pos = match.end()
    return tokens


_EXPECTED = {"ident": "an identifier", "number": "a rational"}


class _Cursor:
    def __init__(self, tokens: list[_Token], memo: dict):
        self._tokens = tokens
        self._pos = 0
        self.memo = memo

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
        return _rational_of(token.text, cur.memo)
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


def _extent_of(parts: tuple[Interval, ...]) -> IntervalSet:
    """The extent ``parts`` make. One part, or parts each ending before the
    next starts (compared in integers), are kept as read; the rest merge."""
    for i in range(1, len(parts)):
        an, ad = parts[i - 1].end.as_integer_ratio()
        bn, bd = parts[i].start.as_integer_ratio()
        if an * bd >= bn * ad:
            return IntervalSet(parts)
    return IntervalSet._normalized(parts)


def _extent(cur: _Cursor) -> IntervalSet:
    intervals = [_interval(cur)]
    while cur.peek_punct("+"):
        cur.take("punct", "+")
        intervals.append(_interval(cur))
    return _extent_of(tuple(intervals))


def _one_of(cur: _Cursor, options: Iterable[str]) -> str:
    token = cur.take("ident")
    if token.text not in options:
        expected = " or ".join(f"'{option}'" for option in options)
        raise _StatementError(
            f"expected {expected}, found {_quoted(token.text)}", token.column
        )
    return token.text


def _load_interval(inner: str, memo: dict) -> Interval:
    """Read ``a,b``, an interval without its brackets."""
    start, end = inner.split(",")
    return Interval(_rational_of(start, memo), _rational_of(end, memo))


class _Kind(NamedTuple):
    """How a value is read from a statement; ``str`` writes every value back.

    ``pattern`` is the regex the fast path matches the value's text with,
    and ``load`` turns that text and the document's memo (see
    :func:`_rational_of`) into the value (``None`` keeps the text).
    """

    read: Callable[[_Cursor], object]
    pattern: str
    load: Callable[[str, dict], object] | None = None


# ``set`` keys and the Config fields they set.
_CONFIG_FIELDS = {"threshold": "threshold_default", "min_intensity": "min_intensity"}
_VALENCES = {valence.value: valence for valence in Valence}
# The fast path delimits a number by its characters alone; _rational_of
# checks each distinct text against the rational grammar once.
_NUMERAL = r"[-+0-9./]+"
# The fast path reads intervals written without inner whitespace.
_SPAN = rf"\[{_NUMERAL},{_NUMERAL}\)"

_IDENT = _Kind(lambda cur: cur.take("ident").text, IDENTIFIER)
_RATIONAL = _Kind(_rational, _NUMERAL, _rational_of)
_INTERVAL = _Kind(
    _interval, _SPAN, lambda text, memo: _load_interval(text[1:-1], memo)
)
_EXTENT = _Kind(
    _extent,
    rf"{_SPAN}(?:\+{_SPAN})*",
    lambda text, memo: _extent_of(
        tuple([_load_interval(span, memo) for span in text[1:-1].split(")+[")])
    ),
)
_VALENCE = _Kind(
    lambda cur: _VALENCES[_one_of(cur, _VALENCES)],
    "|".join(_VALENCES),
    lambda text, memo: _VALENCES[text],
)
_SET_KEY = _Kind(lambda cur: _one_of(cur, _CONFIG_FIELDS), "|".join(_CONFIG_FIELDS))

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


class _Fast(NamedTuple):
    """One head word's fast path: a regex for the whole well-formed line,
    and ``(group, load, default)`` for each field whose text is converted."""

    regex: re.Pattern[str]
    record: type
    loads: tuple[tuple[str, Callable[[str], object], object], ...]


def _fast(head: str, shape: _Shape) -> _Fast:
    """Compile ``shape`` into one regex: the head, the positional part, the
    fields in canonical order (optional ones optional), then a comment."""
    pattern = [re.escape(head)]
    loads = []
    for part in shape.positional:
        if isinstance(part, str):
            pattern.append(rf"[ \t]+{re.escape(part)}")
        else:
            pattern.append(rf"[ \t]+(?P<{part.name}>{part.kind.pattern})")
            loads.append(part)
    for name, field in shape.fields.items():
        item = rf"[ \t]+{name}=(?P<{name}>{field.kind.pattern})"
        pattern.append(item if field.default is _REQUIRED else f"(?:{item})?")
        loads.append(field)
    pattern.append(r"[ \t]*(?:#|\Z)")
    # An absent optional field's group is None, which must be its default
    # unless its kind converts text.
    assert all(f.kind.load or f.default in (_REQUIRED, None) for f in loads)
    return _Fast(
        re.compile("".join(pattern)),
        shape.record,
        tuple((f.name, f.kind.load, f.default) for f in loads if f.kind.load),
    )


_FAST = {head: _fast(head, shape) for head, shape in _GRAMMAR.items()}


def _fast_statement(line: str, memo: dict) -> Statement | None:
    """Read a well-formed line whose fields are in canonical order, or
    return ``None`` so that :func:`_parse_statement` reads it instead."""
    fast = _FAST.get(line.partition(" ")[0])
    if fast is None:
        return None
    match = fast.regex.match(line)
    if match is None:
        return None
    values = match.groupdict()
    try:
        for name, load, default in fast.loads:
            text = values[name]
            values[name] = default if text is None else load(text, memo)
    except (DslSyntaxError, EmptyIntervalError):
        return None
    return fast.record(**values)


def _parse_statement(line: str, memo: dict) -> Statement | None:
    """Read one line's statement; ``None`` for a blank or comment line."""
    tokens = _tokenize(line.split("#", 1)[0])
    if not tokens:
        return None
    head = tokens[0]
    shape = _GRAMMAR.get(head.text)
    if shape is None:
        raise _StatementError(f"unknown directive {_quoted(head.text)}", head.column)
    cur = _Cursor(tokens, memo)
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


def parse_document(text: str) -> ParseResult:
    """Parse source text, collecting every diagnostic in one run."""
    diags: list[Diagnostic] = []
    statements: list[Statement] = []
    # The line of each handle the validator can name.
    lines: dict[str, int] = {}
    # The lines of the records without an id, whose handles are worded only
    # when the validator has something to say.
    unnamed: dict[str, list[int]] = {"acquaintance": [], "query": []}
    declared: dict[str, str] = {}
    records: dict[str, list] = {head: [] for head in _GRAMMAR}
    config: dict[str, Fraction] = {}
    # Each distinct rational text, converted once for this document.
    memo: dict[str, Fraction] = {}
    # Lines end at LF only (str.splitlines also ends them at U+2028, U+0085,
    # form feed and more); one CR before the LF is dropped.
    rows = text.removeprefix("\ufeff").split("\n")
    for line_no, raw in enumerate(rows, start=1):
        raw = raw.removesuffix("\r")
        if raw.strip(" \t"):
            # Only the first non-blank line can be the header, and it is
            # optional: any other first line is read as usual.
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
            break
    for line_no, raw in enumerate(rows, start=1):
        raw = raw.removesuffix("\r")
        statement = _fast_statement(raw, memo)
        if statement is None:
            try:
                statement = _parse_statement(raw, memo)
            except _StatementError as exc:
                diags.append(
                    Diagnostic(exc.code, exc.message, line=line_no, column=exc.column)
                )
                continue
            if statement is None:
                continue
        statements.append(statement)
        head = _HEADS[type(statement)]
        if head == "set":
            # Document-wide, last writer wins.
            name = _CONFIG_FIELDS[statement.key]
            config[name] = statement.value
            lines[f"config.{name}"] = line_no
            continue
        kept = records[head]
        if head in unnamed:
            unnamed[head].append(line_no)
        else:
            # Ids share one namespace so judgment targets resolve without
            # ambiguity; the first declaration wins, later ones error.
            record_id = statement.name if head == "agent" else statement.id
            if record_id in declared:
                diags.append(_duplicate_id(
                    record_id, declared[record_id], line=line_no, column=1
                ))
                continue
            declared[record_id] = head
            lines[record_id] = line_no
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
    found = validate_timeline(timeline)
    if found:
        for head, numbers in unnamed.items():
            lines.update((f"{head}[{i}]", n) for i, n in enumerate(numbers))
    for diag in found:
        line = lines.get(diag.record or "")
        diags.append(replace(diag, line=line, column=None if line is None else 1))

    diags.sort(key=lambda d: (d.line or 0, d.column or 0, d.code, d.message))
    return ParseResult(
        statements=tuple(statements),
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
            words.append(str(getattr(statement, part.name)))
    for name, field in shape.fields.items():
        value = getattr(statement, name)
        if field.default is _REQUIRED or value != field.default:
            words.append(f"{name}={str(value)}")
    return " ".join(words)


def serialize_document(statements: Sequence[Statement]) -> str:
    """Emit canonical source: header, then one line per statement, LF."""
    lines = [HEADER]
    lines.extend(_serialize_statement(s) for s in statements)
    return "".join(line + "\n" for line in lines)
