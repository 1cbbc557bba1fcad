"""Parsing, diagnostics, and canonical serialization round-trips."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loveline import (
    AgentDecl,
    Interval,
    IntervalSet,
    QuerySpec,
    SetDirective,
    Valence,
    parse_document,
    parse_rational,
    serialize_document,
)
from loveline import parser
from loveline.parser import HEADER, DslSyntaxError

from conftest import FIXTURE_DIR, build_timeline_a
from test_bench_contract import SHRUNK, corpus

F = Fraction


def parse_path(name: str):
    return parse_document((FIXTURE_DIR / name).read_text(encoding="utf-8"))


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("3/4") == F(3, 4)

    def test_decimal_is_exact(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("2.") == F(2)
        assert parse_rational(".5") == F(1, 2)
        # 6,000 digits in all, but each side of the point stays under
        # Python's int/str limit of 4,300.
        assert parse_rational("1" * 3000 + "." + "5" * 3000) == (
            int("1" * 3000) + F(int("5" * 3000), 10**3000)
        )

    def test_integers_and_signs(self):
        assert parse_rational("-2") == F(-2)
        assert parse_rational("+7") == F(7)
        assert parse_rational("-2/3") == F(-2, 3)
        assert parse_rational("-0") == F(0)
        assert parse_rational("+3/04") == F(3, 4)
        assert parse_rational("007") == F(7)
        assert parse_rational("0/5") == F(0)

    @pytest.mark.parametrize(
        "token", ["", "abc", "1.2.3", "--2", "1e3", "2/-3", "/3", "3/", "1 /2"]
    )
    def test_malformed(self, token):
        with pytest.raises(DslSyntaxError):
            parse_rational(token)

    def test_zero_denominator(self):
        with pytest.raises(DslSyntaxError):
            parse_rational("1/0")

    # Arabic-Indic three, fullwidth five, Devanagari one: Unicode decimal
    # digits that Fraction would convert, but the format's digits are ASCII.
    @pytest.mark.parametrize("token", ["\u0663", "1/\uff15", "0.\u0967",
                                       "\u0967.5", "\uff15/2"])
    def test_non_ascii_digits_are_malformed(self, token):
        with pytest.raises(DslSyntaxError, match="malformed rational"):
            parse_rational(token)

    @pytest.mark.parametrize("token", ["1" * 5000, "1/" + "3" * 5000,
                                       "0." + "5" * 5000])
    def test_too_many_digits(self, token):
        with pytest.raises(DslSyntaxError, match="too many digits"):
            parse_rational(token)


class TestParseDocument:
    def test_canonical_fixture(self):
        result = parse_path("timeline_a.love")
        assert result.ok
        assert len(result.statements) == 6
        tl = result.timeline
        built = build_timeline_a()
        assert tl.agents == built.agents
        assert tl.acquaintances == built.acquaintances
        assert tl.sensations == built.sensations
        assert tl.judgments == built.judgments
        assert tl.queries == (
            QuerySpec("sally", "john", Interval(F(0), F(10))),
        )
        assert tl.config.threshold_default == 1

    def test_whitespace_insensitive(self):
        text = (
            "agent   sally\n"
            "agent john\n"
            "acquaintance sally   john at   0\n"
            "sensation s1 bearer = sally correlate =john valence= positive "
            "extent = [ 2 , 8 )\n"
            "judgment j1 agent=sally target=s1 extent=[3,5) + [4,7)\n"
        )
        result = parse_document(text)
        assert result.ok
        assert result.timeline.sensations[0].extent == IntervalSet(
            (Interval(F(2), F(8)),)
        )
        assert result.timeline.judgments[0].extent == IntervalSet(
            (Interval(F(3), F(7)),)
        )

    def test_fields_accepted_in_any_order(self):
        text = (
            "agent a\nagent b\n"
            "sensation s extent=[0,1) valence=positive correlate=b bearer=a "
            "intensity=1/2\n"
        )
        result = parse_document(text)
        assert result.ok
        ep = result.timeline.sensations[0]
        assert (ep.bearer, ep.correlate, ep.intensity) == ("a", "b", F(1, 2))

    def test_declaration_order_is_free(self):
        text = (
            "judgment j agent=a target=s extent=[1,2)\n"
            "sensation s bearer=a correlate=b valence=positive extent=[0,3)\n"
            "agent a\nagent b\n"
        )
        assert parse_document(text).ok

    def test_comments_and_blank_lines(self):
        text = "# loveline v1\n\n   \nagent a  # trailing comment\n#only comment\n"
        result = parse_document(text)
        assert result.ok
        assert result.statements == (AgentDecl("a"),)

    def test_crlf_accepted(self):
        result = parse_document("agent a\r\nagent b\r\n")
        assert result.ok
        assert result.timeline.agents == ("a", "b")

    def test_set_directives_last_writer_wins(self):
        text = (
            "agent a\nagent b\n"
            "set threshold 2\nset min_intensity 1/4\nset threshold 1/3\n"
        )
        result = parse_document(text)
        assert result.ok
        assert result.timeline.config.threshold_default == F(1, 3)
        assert result.timeline.config.min_intensity == F(1, 4)

    def test_inhibition_toward_optional(self):
        text = (
            "agent a\nagent b\n"
            "inhibition i1 agent=a extent=[0,1)\n"
            "inhibition i2 agent=a toward=b extent=[1,2)\n"
        )
        result = parse_document(text)
        assert result.ok
        assert result.timeline.inhibitions[0].toward is None
        assert result.timeline.inhibitions[1].toward == "b"

    def test_query_threshold_optional(self):
        text = (
            "agent a\nagent b\n"
            "query loves a b interval=[0,5)\n"
            "query loves a b interval=[0,5) threshold=3/2\n"
        )
        result = parse_document(text)
        assert result.ok
        assert result.timeline.queries[0].threshold is None
        assert result.timeline.queries[1].threshold == F(3, 2)

    def test_negative_endpoints(self):
        text = "agent a\nagent b\nquery loves a b interval=[-3,-1)\n"
        result = parse_document(text)
        assert result.ok
        assert result.timeline.queries[0].interval == Interval(F(-3), F(-1))


class TestLineSplitting:
    # Line breaks that str.splitlines honours but the format does not.
    OTHER_BREAKS = ["\u2028", "\u2029", "\x85", "\x0c", "\x0b", "\x1c",
                    "\r"]

    @pytest.mark.parametrize("brk", OTHER_BREAKS)
    def test_only_lf_ends_a_comment(self, brk):
        result = parse_document(f"agent a # note{brk}agent b\nagent c\n")
        assert result.ok
        assert result.timeline.agents == ("a", "c")

    @pytest.mark.parametrize("brk", OTHER_BREAKS)
    def test_other_breaks_keep_later_line_numbers(self, brk):
        result = parse_document(f"agent a\nagent b{brk}agent c\nagent a\n")
        assert [(d.code, d.line, d.column) for d in result.diagnostics] == [
            ("E_SYNTAX", 2, 8), ("E_DUP_ID", 3, 1)]

    def test_crlf_and_lf_give_the_same_statements_and_lines(self):
        text = "agent a\nagent b\nagent a\nagent B\n"
        lf, crlf = parse_document(text), parse_document(
            text.replace("\n", "\r\n"))
        assert lf.statements == crlf.statements
        assert lf.diagnostics == crlf.diagnostics
        assert [(d.line, d.column) for d in crlf.diagnostics] == [(3, 1), (4, 7)]

    def test_only_one_trailing_cr_is_dropped(self):
        result = parse_document("agent a\r\r\n")
        assert [(d.line, d.column) for d in result.diagnostics] == [(1, 8)]

    def test_header_is_read_from_the_same_lines(self):
        # One line, not a blank line and a header: U+2028 is a stray
        # character at the start of line 1.
        [diag] = parse_document("\u2028# loveline v2\nagent a\n").diagnostics
        assert (diag.line, diag.column) == (1, 1)
        assert diag.message == "unexpected character '\\u2028'"
        [diag] = parse_document("\r\n# loveline v2\r\n").diagnostics
        assert (diag.code, diag.line, diag.column) == ("E_SYNTAX", 2, 12)


def single_code(text: str) -> tuple[str, int]:
    result = parse_document(text)
    assert not result.ok
    assert result.timeline is None
    assert len(result.diagnostics) == 1
    diag = result.diagnostics[0]
    return diag.code, diag.line


class TestHeader:
    @pytest.mark.parametrize(
        "text",
        [
            "# loveline v1\nagent a\n",
            "agent a\n",
            " \n\t\n  # loveline v1\nagent a\n",
            "# loveline v2 draft\nagent a\n",
            "agent a\n# loveline v2\n",
            # Only the first non-blank line is the header, even if a comment.
            "# note\n# loveline v2\nagent a\n",
        ],
    )
    def test_v1_other_comments_and_no_header_are_accepted(self, text):
        result = parse_document(text)
        assert result.ok
        assert result.statements == (AgentDecl("a"),)

    def test_other_version_is_a_syntax_error(self):
        result = parse_document("\n# loveline v2\nagent a\n")
        assert [d.render("f.love") for d in result.diagnostics] == [
            "f.love:2:12: E_SYNTAX: unsupported format version 'v2' "
            "(expected '# loveline v1')"
        ]
        assert result.timeline is None
        assert result.statements == (AgentDecl("a"),)

    def test_long_version_is_quoted_briefly(self):
        [diag] = parse_document(f"#loveline v{'2' * 3000}\n").diagnostics
        assert (diag.code, diag.line, diag.column) == ("E_SYNTAX", 1, 11)
        assert len(diag.message) < 120


class TestByteOrderMark:
    @pytest.mark.parametrize("name", ["timeline_a.love", "mixed.love"])
    def test_one_leading_mark_is_dropped(self, name):
        text = (FIXTURE_DIR / name).read_text(encoding="utf-8")
        plain, marked = parse_document(text), parse_document("\ufeff" + text)
        assert marked.diagnostics == ()
        assert repr(marked.statements) == repr(plain.statements)

    def test_mark_does_not_hide_the_header(self):
        [diag] = parse_document("\ufeff# loveline v2\nagent a\n").diagnostics
        assert diag.render("f.love") == (
            "f.love:1:12: E_SYNTAX: unsupported format version 'v2' "
            "(expected '# loveline v1')"
        )

    def test_a_second_mark_is_an_unexpected_character(self):
        [diag] = parse_document("\ufeff\ufeffagent a\n").diagnostics
        assert (diag.code, diag.line, diag.column) == ("E_SYNTAX", 1, 1)
        assert diag.message == "unexpected character '\\ufeff'"


class TestConversionPerDocument:
    """Each distinct rational text is converted once per document, on the
    fast path and the token reader alike; failures are not kept."""

    TEXT = (
        "agent a\n"
        "agent b\n"
        "acquaintance a b at 0\n"
        "sensation s1 bearer=a correlate=b valence=positive intensity=1/2 "
        "extent=[0,1/2)+[1,2)\n"
        "sensation s2 bearer=a correlate=b valence=positive intensity=1/2 "
        "extent=[0,1/2)\n"
        # Spaced out, so the token reader reads it.
        "judgment j1 agent=a target=s1 extent=[ 0 , 2 )\n"
        "query loves a b interval=[0,2) threshold=1/2\n"
    )

    @staticmethod
    def counted(monkeypatch) -> list[str]:
        calls: list[str] = []
        convert = parser.parse_rational

        def counting(text: str) -> Fraction:
            calls.append(text)
            return convert(text)

        monkeypatch.setattr(parser, "parse_rational", counting)
        return calls

    def test_once_per_distinct_text(self, monkeypatch):
        calls = self.counted(monkeypatch)
        result = parse_document(self.TEXT)
        assert result.diagnostics == ()
        assert sorted(calls) == ["0", "1", "1/2", "2"]
        assert result.timeline == parse_document(self.TEXT).timeline

    def test_a_second_document_starts_afresh(self, monkeypatch):
        calls = self.counted(monkeypatch)
        parse_document(self.TEXT)
        parse_document(self.TEXT)
        assert sorted(calls) == sorted(["0", "1", "1/2", "2"] * 2)

    def test_repeated_defects_are_diagnosed_at_every_line(self, monkeypatch):
        calls = self.counted(monkeypatch)
        result = parse_document(
            "agent a\n"
            "agent b\n"
            "judgment j1 agent=a target=b extent=[1/0,2)\n"
            "judgment j2 agent=a target=b extent=[1/0,2)\n"
            "judgment j3 agent=a target=b extent=[2,1)\n"
            "judgment j4 agent=a target=b extent=[2,1)\n"
        )
        assert [d.render("f.love") for d in result.diagnostics] == [
            "f.love:3:38: E_SYNTAX: zero denominator in '1/0'",
            "f.love:4:38: E_SYNTAX: zero denominator in '1/0'",
            "f.love:5:37: E_EMPTY_INTERVAL: interval [2,1) has no positive measure",
            "f.love:6:37: E_EMPTY_INTERVAL: interval [2,1) has no positive measure",
        ]
        # '1/0' fails on both readers of both lines; '2' and '1' convert once.
        assert sorted(calls) == ["1", "1/0", "1/0", "1/0", "1/0", "2"]


class TestDiagnostics:
    def test_overlong_literal_reports_its_line(self):
        text = f"agent a\nagent b\nacquaintance a b at {'1' * 5000}\n"
        result = parse_document(text)
        assert result.timeline is None
        [diag] = result.diagnostics
        assert (diag.code, diag.line, diag.column) == ("E_SYNTAX", 3, 21)

    def test_long_tokens_are_quoted_briefly(self):
        long_id, zeros = "x" * 3000, "0" * 3000
        sources = {
            "expected ')', found": "agent a\nagent b\nsensation s bearer=a "
            f"correlate=b valence=positive extent=[1,1+1/1{zeros})\n",
            "unknown directive": f"{long_id} 1\n",
            "unexpected trailing": f"agent a {long_id}\n",
            "unknown field": "agent a\nagent b\njudgment j agent=a target=b "
            f"extent=[0,1) {long_id}=1\n",
            "zero denominator": f"set threshold 1/{zeros}\n",
            "duplicate id": f"agent {long_id}\nagent {long_id}\n",
        }
        for start, source in sources.items():
            [diag] = parse_document(source).diagnostics
            assert diag.message.startswith(start)
            assert len(diag.message) < 120
            assert "characters)" in diag.message
        with pytest.raises(DslSyntaxError) as exc:
            parse_rational(long_id)
        assert str(exc.value) == (
            f"malformed rational '{'x' * 30}...' (3000 characters)"
        )

    def test_short_tokens_are_quoted_whole(self):
        [diag] = parse_document(f"{'w' * 40} 1\n").diagnostics
        assert diag.message == f"unknown directive '{'w' * 40}'"
        with pytest.raises(DslSyntaxError, match=r"^zero denominator in '1/0'$"):
            parse_rational("1/0")

    def test_self_correlate_line(self):
        code, line = single_code(
            "agent sally\n"
            "sensation s1 bearer=sally correlate=sally valence=positive "
            "extent=[0,1)\n"
        )
        assert (code, line) == ("E_SELF_CORRELATE", 2)

    def test_empty_query_interval(self):
        code, line = single_code(
            "agent sally\nagent john\nquery loves sally john interval=[5,5)\n"
        )
        assert (code, line) == ("E_EMPTY_INTERVAL", 3)

    def test_unknown_directive(self):
        code, _ = single_code("wibble 12\n")
        assert code == "E_SYNTAX"

    def test_unexpected_character(self):
        result = parse_document("agent Sally\n")
        assert [d.code for d in result.diagnostics] == ["E_SYNTAX"]
        assert result.diagnostics[0].column == 7

    @pytest.mark.parametrize("line", [
        "acquaintance a b at \u0663",
        "query loves a b interval=[\u0660,\uff15)",
        "sensation s bearer=a correlate=b intensity=0.\u0665 extent=[0,1)",
    ])
    def test_non_ascii_digits_are_unexpected_characters(self, line):
        result = parse_document(f"agent a\nagent b\n{line}\n")
        assert [(d.code, d.line) for d in result.diagnostics] == [
            ("E_SYNTAX", 3)]
        assert "unexpected character" in result.diagnostics[0].message

    @pytest.mark.parametrize("line, column, token", [
        ("sensation s bearer=a correlate=b valence=positive intensity=1e3 "
         "extent=[0,1)", 61, "1e3"),
        ("acquaintance a b at 3x", 21, "3x"),
        ("query loves a b interval=[0,1e2)", 29, "1e2"),
    ])
    def test_number_run_into_letters_is_one_malformed_rational(
        self, line, column, token
    ):
        result = parse_document(f"agent a\nagent b\n{line}\n")
        assert [d.render("f") for d in result.diagnostics] == [
            f"f:3:{column}: E_SYNTAX: malformed rational '{token}'"]

    def test_non_ascii_header_version_is_a_comment(self):
        assert parse_document("# loveline v\u0662\nagent a\n").ok

    def test_missing_field(self):
        code, _ = single_code("sensation s1 bearer=a correlate=b extent=[0,1)\n")
        assert code == "E_SYNTAX"

    def test_unknown_field(self):
        code, _ = single_code(
            "agent a\nagent b\n"
            "judgment j agent=a target=b extent=[0,1) flavor=sweet\n"
        )
        assert code == "E_SYNTAX"

    def test_duplicate_field(self):
        code, _ = single_code(
            "agent a\nagent b\n"
            "judgment j agent=a agent=a target=b extent=[0,1)\n"
        )
        assert code == "E_SYNTAX"

    def test_trailing_tokens(self):
        code, _ = single_code("agent a extra\n")
        assert code == "E_SYNTAX"

    def test_bad_valence(self):
        code, _ = single_code(
            "agent a\nagent b\n"
            "sensation s bearer=a correlate=b valence=lukewarm extent=[0,1)\n"
        )
        assert code == "E_SYNTAX"

    def test_query_requires_loves_keyword(self):
        code, _ = single_code("agent a\nagent b\nquery hates a b interval=[0,1)\n")
        assert code == "E_SYNTAX"

    def test_duplicate_id_reports_second_line(self):
        result = parse_document("agent a\nagent a\n")
        assert [d.code for d in result.diagnostics] == ["E_DUP_ID"]
        assert result.diagnostics[0].line == 2

    def test_set_threshold_nonpositive_maps_to_its_line(self):
        result = parse_document("agent a\nset threshold 0\n")
        assert [(d.code, d.line) for d in result.diagnostics] == [
            ("E_THRESHOLD_NONPOSITIVE", 2)
        ]

    def test_validator_diagnostics_land_on_their_records_line(self):
        result = parse_document(
            "agent a\n"
            "agent b\n"
            "acquaintance a b at 0\n"
            "acquaintance a z at 0\n"
            "query loves a b interval=[0,x)\n"
            "query loves a z interval=[0,1)\n"
            "set min_intensity 1/2\n"
            "set min_intensity 2\n"
            "inhibition i agent=a toward=z extent=[0,1)\n"
            "sensation s bearer=a correlate=b valence=positive intensity=2 "
            "extent=[0,1)\n"
            "sensation s bearer=a correlate=b valence=positive extent=[0,1)\n"
        )
        # Only parsed queries count, so line 6 holds query[0]; a repeated
        # set is placed at its last writer.
        assert [(d.code, d.line, d.column, d.record)
                for d in result.diagnostics] == [
            ("E_UNKNOWN_REF", 4, 1, "acquaintance[1]"),
            ("E_SYNTAX", 5, 29, None),
            ("E_UNKNOWN_REF", 6, 1, "query[0]"),
            ("E_INTENSITY_RANGE", 8, 1, "config.min_intensity"),
            ("E_UNKNOWN_REF", 9, 1, "i"),
            ("E_INTENSITY_RANGE", 10, 1, "s"),
            ("E_DUP_ID", 11, 1, "s"),
        ]

    def test_bad_fixture_collects_all(self):
        result = parse_path("bad.love")
        assert [(d.line, d.code) for d in result.diagnostics] == [
            (3, "E_DUP_ID"),
            (4, "E_SELF_CORRELATE"),
            (5, "E_EMPTY_INTERVAL"),
            (6, "E_UNKNOWN_REF"),
            (7, "E_SYNTAX"),
            (8, "E_THRESHOLD_NONPOSITIVE"),
            (9, "E_EMPTY_INTERVAL"),
        ]

    def test_diagnostic_render(self):
        result = parse_document("wibble\n")
        line = result.diagnostics[0].render("f.love")
        assert line == "f.love:1:1: E_SYNTAX: unknown directive 'wibble'"


MIXED_CANONICAL = """\
# loveline v1
agent ada
agent ben
agent cyn
set threshold 1/3
set min_intensity 1/2
acquaintance ada ben at 1
acquaintance ada cyn at 0
acquaintance cyn ada at 2
sensation warm bearer=ada correlate=ben valence=positive intensity=3/4 extent=[1,9)
sensation dull bearer=ada correlate=ben valence=positive intensity=1/4 extent=[9,12)
sensation sour bearer=ada correlate=ben valence=negative extent=[2,5)
sensation glow bearer=ada correlate=cyn valence=positive extent=[0,4)+[6,10)
sensation spark bearer=cyn correlate=ada valence=positive extent=[2,8)
judgment jwarm agent=ada target=warm extent=[2,10)
judgment jben agent=ada target=ben extent=[11,12)
judgment jglow agent=ada target=glow extent=[1,7)
judgment jspark agent=cyn target=spark extent=[0,6)
inhibition pause agent=ada toward=ben extent=[4,6)
inhibition lull agent=cyn extent=[3,4)
query loves ada ben interval=[0,12)
query loves ada cyn interval=[0,12) threshold=2
query loves cyn ada interval=[0,10)
query loves ben ada interval=[0,10)
"""


class TestSerialize:
    def test_mixed_fixture_canonical_bytes(self):
        # Pins the field order, omitted defaults and number forms exactly;
        # a round trip alone would not, since fields parse in any order.
        result = parse_path("mixed.love")
        assert serialize_document(result.statements) == MIXED_CANONICAL

    def test_canonical_fixture_is_a_fixpoint(self):
        text = (FIXTURE_DIR / "timeline_a.love").read_text(encoding="utf-8")
        result = parse_document(text)
        assert serialize_document(result.statements) == text

    def test_serialize_parse_identity_on_fixtures(self):
        for name in ("timeline_a.love", "timeline_b.love", "timeline_c.love",
                     "mixed.love"):
            result = parse_path(name)
            assert result.ok
            text = serialize_document(result.statements)
            again = parse_document(text)
            assert again.ok
            assert again.statements == result.statements
            assert serialize_document(again.statements) == text

    def test_canonicalizes_decimals_and_default_intensity(self):
        text = (
            "agent a\nagent b\n"
            "sensation s bearer=a correlate=b valence=positive intensity=0.75 "
            "extent=[0.5,2)\n"
            "sensation t bearer=a correlate=b valence=negative intensity=1 "
            "extent=[4,5)\n"
        )
        result = parse_document(text)
        out = serialize_document(result.statements)
        assert (
            "sensation s bearer=a correlate=b valence=positive intensity=3/4 "
            "extent=[1/2,2)\n"
        ) in out
        # Default intensity is omitted on output.
        assert (
            "sensation t bearer=a correlate=b valence=negative extent=[4,5)\n"
        ) in out

    def test_extents_normalize_on_load(self):
        text = (
            "agent a\nagent b\n"
            "judgment j agent=a target=b extent=[3,5)+[0,1)+[1,2)\n"
        )
        result = parse_document(text)
        out = serialize_document(result.statements)
        assert "judgment j agent=a target=b extent=[0,2)+[3,5)\n" in out

    def test_header_and_statement_shapes(self):
        stmts = (
            AgentDecl("a"),
            SetDirective("threshold", F(1, 2)),
        )
        assert serialize_document(stmts) == (
            HEADER + "\nagent a\nset threshold 1/2\n"
        )

    def test_non_statement_is_a_type_error(self):
        with pytest.raises(TypeError, match="^not a statement"):
            serialize_document([object()])


# Grammar-built statements as token lists, with ``key=value`` fields in any
# order and optional fields sometimes left out.
_idents = st.sampled_from(["a", "b", "s", "j", "at", "loves", "agent"])
_rationals = st.sampled_from(
    ["0", "1", "2", "-1", "1/2", "3/4", "0.75", ".5", "2.", "+7", "1/0"]
)
_interval_tokens = st.tuples(
    st.sampled_from(["0", "-1", "1/2", ".5", "0.75"]),
    st.sampled_from(["1", "2.", "3/4", "+7", "1/0"]),
).map(lambda ends: ["[", ends[0], ",", ends[1], ")"])
_extent_tokens = st.lists(_interval_tokens, min_size=1, max_size=3).map(
    lambda parts: [t for i, part in enumerate(parts) for t in ["+"] * (i > 0) + part]
)


def _field(name: str, values) -> st.SearchStrategy:
    return values.map(lambda v: [name, "="] + (v if isinstance(v, list) else [v]))


def _with_fields(head: list, required: list, optional: list) -> st.SearchStrategy:
    maybe = [st.none() | field for field in optional]
    return st.tuples(st.tuples(*head), *required, *maybe).flatmap(
        lambda drawn: st.permutations([f for f in drawn[1:] if f]).map(
            lambda fields: list(drawn[0]) + [t for f in fields for t in f]
        )
    )


_statement_tokens = st.one_of(
    _idents.map(lambda name: ["agent", name]),
    st.tuples(_idents, _idents, _rationals).map(
        lambda t: ["acquaintance", t[0], t[1], "at", t[2]]
    ),
    _with_fields(
        [st.just("sensation"), _idents],
        [_field("bearer", _idents), _field("correlate", _idents),
         _field("valence", st.sampled_from(["positive", "negative"])),
         _field("extent", _extent_tokens)],
        [_field("intensity", _rationals)],
    ),
    _with_fields(
        [st.just("judgment"), _idents],
        [_field("agent", _idents), _field("target", _idents),
         _field("extent", _extent_tokens)],
        [],
    ),
    _with_fields(
        [st.just("inhibition"), _idents],
        [_field("agent", _idents), _field("extent", _extent_tokens)],
        [_field("toward", _idents)],
    ),
    st.tuples(st.sampled_from(["threshold", "min_intensity"]), _rationals).map(
        lambda t: ["set", *t]
    ),
    _with_fields(
        [st.just("query"), st.just("loves"), _idents, _idents],
        [_field("interval", _interval_tokens)],
        [_field("threshold", _rationals)],
    ),
)
_stray_tokens = st.sampled_from(
    ["agent", "query", "set", "at", "loves", "extent", "target", "=", "[", ",",
     ")", "+", "(", "#", "\n", "1", "-1/2", "0.5", "Z", "x" * 50, "# loveline v2"]
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(_statement_tokens, max_size=8),
    edits=st.lists(
        st.tuples(st.sampled_from(["delete", "insert", "swap"]),
                  st.integers(0, 200), st.integers(0, 200), _stray_tokens),
        max_size=4,
    ),
)
def test_grammar_mutated_text_parses_and_round_trips(lines, edits):
    tokens = [t for line in lines for t in line + ["\n"]]
    for op, i, j, stray in edits:
        if op == "insert":
            tokens.insert(i % (len(tokens) + 1), stray)
        elif tokens and op == "delete":
            del tokens[i % len(tokens)]
        elif tokens:
            i, j = i % len(tokens), j % len(tokens)
            tokens[i], tokens[j] = tokens[j], tokens[i]
    result = parse_document(" ".join(tokens))
    again = parse_document(serialize_document(result.statements))
    assert again.statements == result.statements


# The fast path against the token-by-token reader. Lines are built from the
# grammar table in canonical field order or shuffled, then respaced, run
# together, commented and mutated; every value list includes text that
# only the reader may turn into a diagnostic.
_LIMIT = "1" + "0" * 4300  # one digit over Python's default int/str limit
_diff_rationals = st.sampled_from(
    ["0", "3", "+3", "-1/2", "1.", ".5", "0.75", "3/4", "-0"] * 3
    + ["0/0", "1/0", "1/2.5", _LIMIT, "1/" + _LIMIT, _LIMIT + ".5"]
).map(lambda token: [token])
_diff_spans = st.one_of(
    st.tuples(st.sampled_from(["-1/2", "0", ".5", "1."]),
              st.sampled_from(["3", "+3", "7.5", "10/3"])).map(
        lambda ends: [[ends[0]], [ends[1]]]
    ),
    st.tuples(_diff_rationals, _diff_rationals),
).map(lambda ends: ["[", *ends[0], ",", *ends[1], ")"])
_VALUE_TOKENS = {
    parser._IDENT: st.sampled_from(["a", "b", "s1", "a55", "at", "agent"]).map(
        lambda token: [token]
    ),
    parser._RATIONAL: _diff_rationals,
    parser._INTERVAL: _diff_spans,
    parser._EXTENT: st.lists(_diff_spans, min_size=1, max_size=3).map(
        lambda spans: [t for i, span in enumerate(spans)
                       for t in ["+"] * (i > 0) + span]
    ),
    parser._VALENCE: st.sampled_from(["positive", "negative", "positives"]).map(
        lambda token: [token]
    ),
    parser._SET_KEY: st.sampled_from(["threshold", "min_intensity"]).map(
        lambda token: [token]
    ),
}


@st.composite
def _grammar_line(draw) -> list[str]:
    head, shape = draw(st.sampled_from(sorted(parser._GRAMMAR.items())))
    tokens = [head]
    for part in shape.positional:
        tokens += [part] if isinstance(part, str) else draw(_VALUE_TOKENS[part.kind])
    fields = [
        [name, "=", *draw(_VALUE_TOKENS[field.kind])]
        for name, field in shape.fields.items()
        if field.default is parser._REQUIRED or draw(st.booleans())
    ]
    if draw(st.booleans()):
        fields = draw(st.permutations(fields))
    return tokens + [t for field in fields for t in field]


_TIGHT_AFTER = {"=", "[", ",", "+"}
_TIGHT_BEFORE = {"=", ",", ")", "+"}


@st.composite
def _diff_line(draw) -> str:
    tokens = draw(_grammar_line())
    edits = st.lists(st.tuples(
        st.sampled_from(["delete", "insert", "swap"]),
        st.integers(0, 30), st.integers(0, 30), _stray_tokens,
    ), min_size=1, max_size=2)
    for op, i, j, stray in draw(st.just([]) | edits):
        if op == "insert":
            tokens.insert(i % (len(tokens) + 1), stray)
        elif tokens and op == "delete":
            del tokens[i % len(tokens)]
        elif tokens:
            i, j = i % len(tokens), j % len(tokens)
            tokens[i], tokens[j] = tokens[j], tokens[i]
    if not tokens:
        return ""
    # Canonical spacing, then a few gaps widened, tabbed or closed up, so
    # that words run together ("agentab", "a55correlate=").
    gaps = [
        "" if left in _TIGHT_AFTER or right in _TIGHT_BEFORE else " "
        for left, right in zip(tokens, tokens[1:])
    ]
    for i, gap in draw(st.lists(st.tuples(
        st.integers(0, 30), st.sampled_from(["", " ", "  ", "\t", " \t "])
    ), max_size=3)):
        if gaps:
            gaps[i % len(gaps)] = gap
    text = tokens[0] + "".join(g + t for g, t in zip(gaps, tokens[1:]))
    lead = draw(st.sampled_from(["", "", "", " ", "\t"]))
    comment = draw(st.sampled_from(["", "", "", " # note", "#x=[1,2)", "\t# \r", " #"]))
    return lead + text + comment


def _slow_only_parse(text: str):
    with mock.patch.object(parser, "_fast_statement", lambda line, memo: None):
        return parse_document(text)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_diff_line(), max_size=6))
def test_fast_path_agrees_with_the_token_reader(lines):
    text = "\n".join(lines)
    for line in text.split("\n"):
        fast = parser._fast_statement(line, {})
        if fast is not None:
            assert repr(fast) == repr(parser._parse_statement(line, {}))
    fast_doc, slow_doc = parse_document(text), _slow_only_parse(text)
    assert repr(fast_doc.statements) == repr(slow_doc.statements)
    assert fast_doc.diagnostics == slow_doc.diagnostics
    assert fast_doc.timeline == slow_doc.timeline


@pytest.mark.parametrize("line", [
    "agent a",
    "agent a # note",
    "acquaintance a b at +3",
    "acquaintance a b at 1.",
    "sensation s1 bearer=a correlate=b valence=positive intensity=.5 "
    "extent=[-1/2,3)+[4,5)",
    "sensation s1 bearer=a correlate=b valence=negative extent=[0,1)\t#c",
    "judgment j1 agent=a target=s1 extent=[0.75,1)",
    "inhibition h1 agent=a toward=b extent=[1,2)",
    "inhibition h1 agent=a extent=[1,2)",
    "set threshold 1/2",
    "set min_intensity 0",
    "query loves a b interval=[0,10) threshold=1/3",
    "query loves a b interval=[0,10)",
    # Extents out of order, overlapping or abutting merge; one already
    # normalized is kept as read.
    "judgment j1 agent=a target=s1 extent=[4,5)+[0,1)",
    "judgment j1 agent=a target=s1 extent=[0,2)+[1,3)",
    "judgment j1 agent=a target=s1 extent=[0,1/2)+[2/4,1)",
    "judgment j1 agent=a target=s1 extent=[0,1)+[1.5,2)+[7/2,4)",
])
def test_canonical_lines_take_the_fast_path(line):
    fast = parser._fast_statement(line, {})
    assert fast is not None
    assert repr(fast) == repr(parser._parse_statement(line, {}))


@pytest.mark.parametrize("line", [
    "agentab",
    "sensation s1 bearer=a55correlate=b valence=positive extent=[0,1)",
    "sensation s1 correlate=b bearer=a valence=positive extent=[0,1)",
    "judgment j1 agent=a target=s1 extent=[ 0,1)",
    "judgment j1 agent = a target=s1 extent=[0,1)",
    "acquaintance a b at 1/0",
    "acquaintance a b at 0/0",
    pytest.param("acquaintance a b at " + _LIMIT, id="over-digit-limit"),
    pytest.param("judgment j1 agent=a target=s1 extent=[0,1/" + _LIMIT + ")",
                 id="denominator-over-digit-limit"),
    "judgment j1 agent=a target=s1 extent=[2,1)",
    "  agent a",
    "agent\ta",
    # The fast path delimits numbers by their characters alone; a text
    # outside the rational grammar is left to the token reader.
    "acquaintance a b at 1/2/3",
    "acquaintance a b at --1",
    "acquaintance a b at 1..2",
    "acquaintance a b at .",
    "acquaintance a b at 1/",
    "acquaintance a b at /2",
    "judgment j1 agent=a target=s1 extent=[1e3,2)",
    "judgment j1 agent=a target=s1 extent=[+-1,2)",
])
def test_other_lines_fall_back_to_the_token_reader(line):
    assert parser._fast_statement(line, {}) is None


def test_every_serialized_statement_takes_the_fast_path():
    for path in sorted(FIXTURE_DIR.glob("*.love")):
        statements = parse_path(path.name).statements
        lines = serialize_document(statements).splitlines()[1:]
        assert [repr(parser._fast_statement(line, {})) for line in lines] == [
            repr(statement) for statement in statements
        ]


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 4), st.sampled_from([1, 2, 3])),
    min_size=1, max_size=4,
))
def test_extents_are_kept_as_read_only_when_already_normalized(parts):
    members = tuple(
        Interval(F(start, den), F(start + length, den))
        for start, length, den in parts
    )
    extent = parser._extent_of(members)
    merged = IntervalSet(members).intervals
    assert extent.intervals == merged
    # Parts each ending before the next starts are the normalized form.
    if merged == members:
        assert extent.intervals is members


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_a_benchmark_corpus_reads_the_same_on_both_readers(name):
    # Every line of the benchmark's corpora takes the fast path; the token
    # reader alone must give the same document.
    text, _ = corpus.generate(SHRUNK[name], 7, name)
    rows = [row for row in text.split("\n") if row and row[0] != "#"]
    assert all(parser._fast_statement(row, {}) is not None for row in rows)
    fast, slow = parse_document(text), _slow_only_parse(text)
    assert fast.diagnostics == slow.diagnostics == ()
    assert len(fast.statements) == len(rows)
    assert repr(fast.statements) == repr(slow.statements)
    assert fast.timeline == slow.timeline


# 2**61 - 1, a prime: ends on its grid cross-multiply to 122-bit integers.
_P = 2**61 - 1


class TestIntegerChecks:
    """Emptiness and intensity range are decided in integers; every
    expected diagnostic below is the one the Fraction comparisons gave."""

    @staticmethod
    def both(text: str) -> list[str]:
        fast, slow = parse_document(text), _slow_only_parse(text)
        assert fast.diagnostics == slow.diagnostics
        assert repr(fast.statements) == repr(slow.statements)
        return [d.render() for d in fast.diagnostics]

    def test_equal_ends_written_two_ways(self):
        assert self.both(
            "agent a\nagent b\n"
            "judgment j1 agent=a target=b extent=[1/2,2/4)\n"
            "judgment j2 agent=a target=b extent=[0,1)+[0.5,1/2)\n"
            "query loves a b interval=[0.5,1/2)\n"
            "judgment j3 agent=a target=b extent=[ 1/2 , 2/4 )\n"
        ) == [
            "3:37: E_EMPTY_INTERVAL: interval [1/2,1/2) has no positive measure",
            "4:43: E_EMPTY_INTERVAL: interval [1/2,1/2) has no positive measure",
            "5:26: E_EMPTY_INTERVAL: interval [1/2,1/2) has no positive measure",
            "6:37: E_EMPTY_INTERVAL: interval [1/2,1/2) has no positive measure",
        ]

    def test_ends_on_a_fine_grid(self):
        half = 2**60  # half/_P lies just above 1/2
        assert self.both(
            "agent a\nagent b\n"
            f"judgment j1 agent=a target=b extent=[1/{_P},2/{_P})\n"
            f"judgment j2 agent=a target=b extent=[2/{_P},1/{_P})\n"
            f"judgment j3 agent=a target=b extent=[{half}/{_P},1/2)\n"
            f"judgment j4 agent=a target=b extent=[1/2,{half}/{_P})\n"
            f"judgment j5 agent=a target=b extent=[{_P}/{_P},1)\n"
        ) == [
            "4:37: E_EMPTY_INTERVAL: interval "
            f"[2/{_P},1/{_P}) has no positive measure",
            "5:37: E_EMPTY_INTERVAL: interval "
            f"[{half}/{_P},1/2) has no positive measure",
            "7:37: E_EMPTY_INTERVAL: interval [1,1) has no positive measure",
        ]

    def test_intensity_bounds(self):
        values = ["0", "1", "1/1", "-0", "101/100", "-1/100"]
        assert self.both(
            "agent a\nagent b\n"
            + "".join(
                f"sensation s{i} bearer=a correlate=b valence=positive "
                f"intensity={value} extent=[0,1)\n"
                for i, value in enumerate(values)
            )
            + "set min_intensity 101/100\n"
        ) == [
            "7:1: E_INTENSITY_RANGE: sensation 's4' intensity 101/100 "
            "outside [0, 1]",
            "8:1: E_INTENSITY_RANGE: sensation 's5' intensity -1/100 "
            "outside [0, 1]",
            "9:1: E_INTENSITY_RANGE: min_intensity 101/100 outside [0, 1]",
        ]
