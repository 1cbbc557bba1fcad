"""Timeline records and structural validation."""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import pytest

from loveline import (
    AcquaintanceRecord,
    Config,
    InhibitionEpisode,
    Interval,
    IntervalSet,
    QuerySpec,
    SensationEpisode,
    Timeline,
    Valence,
    ValueJudgment,
    parse_document,
    project_timeline,
    validate,
    validate_timeline,
)

F = Fraction


def ext(a: int, b: int) -> IntervalSet:
    return IntervalSet((Interval(F(a), F(b)),))


def codes(diags) -> list[str]:
    return sorted(d.code for d in diags)


class TestRecords:
    def test_defaults(self):
        ep = SensationEpisode(
            id="s", bearer="a", correlate="b",
            valence=Valence.POSITIVE, extent=ext(0, 1),
        )
        assert ep.intensity == 1
        cfg = Config()
        assert cfg.threshold_default == 1
        assert cfg.min_intensity == 0
        tl = Timeline()
        assert tl.agents == () and tl.queries == ()

    def test_records_are_immutable(self, timeline_a):
        with pytest.raises(dataclasses.FrozenInstanceError):
            timeline_a.sensations[0].intensity = F(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            timeline_a.config = Config()


class TestValidateTimeline:
    def test_canonical_fixture_is_clean(self, timeline_a):
        assert validate_timeline(timeline_a) == []

    def test_parsed_fixtures_are_clean(self, timeline_b, timeline_c):
        assert validate_timeline(timeline_b) == []
        assert validate_timeline(timeline_c) == []

    def test_duplicate_ids_across_kinds(self):
        tl = Timeline(
            agents=("a", "b"),
            sensations=(
                SensationEpisode("x", "a", "b", Valence.POSITIVE, ext(0, 1)),
            ),
            judgments=(ValueJudgment("x", "a", "b", ext(0, 1)),),
        )
        diags = validate_timeline(tl)
        assert codes(diags) == ["E_DUP_ID"]
        assert diags[0].record == "x"

    def test_duplicate_agent_name(self):
        tl = Timeline(agents=("a", "a", "b"))
        assert codes(validate_timeline(tl)) == ["E_DUP_ID"]

    def test_projection_of_a_clean_timeline_validates(self):
        # 'act:j1' is the id project_timeline mints for judgment j1, so an
        # agent of that name would collide with it in the graph.
        tl = Timeline(
            agents=("act:j1", "b"),
            judgments=(ValueJudgment("j1", "b", "act:j1", ext(0, 1)),),
        )
        diags = validate_timeline(tl)
        assert [(d.code, d.record, d.message) for d in diags] == [(
            "E_SYNTAX", "act:j1",
            "agent id 'act:j1' does not match [a-z][a-z0-9_]*",
        )]
        assert codes(validate(*project_timeline(tl))) == (
            ["E_DUP_ID"] + ["E_RANGE"] * 2
        )
        clean = dataclasses.replace(tl, agents=("act_j1", "b"), judgments=(
            ValueJudgment("j1", "b", "act_j1", ext(0, 1)),))
        assert validate_timeline(clean) == []
        assert validate(*project_timeline(clean)) == []

    @pytest.mark.parametrize("bad", ["A", "1a", "_a", "a-b", "a b", "", "é",
                                     "a\n", "x" * 50 + "!"])
    def test_every_declared_id_is_an_identifier(self, bad):
        tl = Timeline(
            agents=(bad, "b"),
            sensations=(
                SensationEpisode(bad + ":s", "b", bad, Valence.POSITIVE,
                                 ext(0, 1)),
            ),
            judgments=(ValueJudgment(bad + ":j", "b", bad, ext(0, 1)),),
            inhibitions=(InhibitionEpisode(bad + ":i", "b", bad, ext(0, 1)),),
        )
        diags = validate_timeline(tl)
        # A malformed id is still declared, so its references resolve.
        assert codes(diags) == ["E_SYNTAX"] * 4
        assert [d.record for d in diags] == [
            bad, bad + ":s", bad + ":j", bad + ":i"]
        assert [d.message.split()[0] for d in diags] == [
            "agent", "sensation", "judgment", "inhibition"]
        for diag in diags:
            assert len(diag.message) < 200

    @pytest.mark.parametrize("name", ["a", "a_1", "z9", "A", "1a", "_a", "a-b",
                                      "é", "a:b"])
    def test_parser_reads_exactly_the_ids_validation_accepts(self, name):
        clean = validate_timeline(Timeline(agents=(name,))) == []
        assert parse_document(f"agent {name}\n").ok == clean

    def test_unknown_references(self):
        tl = Timeline(
            agents=("a",),
            acquaintances=(AcquaintanceRecord("a", "ghost", F(0)),),
            sensations=(
                SensationEpisode("s", "a", "ghost", Valence.POSITIVE, ext(0, 1)),
            ),
            judgments=(ValueJudgment("j", "ghost", "nothing", ext(0, 1)),),
            inhibitions=(InhibitionEpisode("i", "a", "ghost", ext(0, 1)),),
            queries=(QuerySpec("ghost", "a", Interval(F(0), F(1))),),
        )
        diags = validate_timeline(tl)
        assert codes(diags) == ["E_UNKNOWN_REF"] * 6
        assert {d.record for d in diags} == {
            "acquaintance[0]", "s", "j", "i", "query[0]",
        }

    def test_long_ids_are_quoted_briefly(self):
        a, ghost, empty = "a" * 3000, "g" * 3000, IntervalSet(())
        tl = Timeline(
            agents=(a, a),
            acquaintances=(AcquaintanceRecord(a, a, F(0)),),
            sensations=(
                SensationEpisode("s" * 3000, a, a, Valence.POSITIVE, empty, F(2)),
            ),
            judgments=(ValueJudgment("j" * 3000, ghost, ghost, empty),),
            inhibitions=(InhibitionEpisode("i" * 3000, a, ghost, empty),),
            queries=(QuerySpec(ghost, a, Interval(F(0), F(1))),),
        )
        diags = validate_timeline(tl)
        assert codes(diags) == (
            ["E_DUP_ID"] + ["E_EMPTY_INTERVAL"] * 3 + ["E_INTENSITY_RANGE"]
            + ["E_SELF_CORRELATE"] * 2 + ["E_UNKNOWN_REF"] * 4
        )
        for diag in diags:
            assert len(diag.message) < 200
            assert "(3000 characters)" in diag.message
        # The handle keeps the whole id: the parser maps positions by it.
        assert [d.record for d in diags if d.code == "E_DUP_ID"] == [a]

    def test_short_ids_are_quoted_whole(self):
        tl = Timeline(
            agents=("a",), judgments=(ValueJudgment("j", "a", "x", ext(0, 1)),)
        )
        assert [d.message for d in validate_timeline(tl)] == [
            "judgment 'j' target 'x' is neither an agent nor a sensation episode"
        ]

    def test_non_printable_characters_are_escaped(self):
        # Written as repr writes them, so each diagnostic is one line.
        tl = Timeline(agents=("a\nb", "c\x00\u2028"))
        assert [d.render() for d in validate_timeline(tl)] == [
            r"E_SYNTAX: agent id 'a\nb' does not match [a-z][a-z0-9_]*",
            r"E_SYNTAX: agent id 'c\x00\u2028' does not match [a-z][a-z0-9_]*",
        ]
        [diag] = validate_timeline(Timeline(agents=("\t" * 50,)))
        assert diag.message.startswith(
            "agent id '" + r"\t" * 30 + "...' (50 characters) "
        )

    def test_judgment_target_may_be_agent_or_sensation(self):
        tl = Timeline(
            agents=("a", "b"),
            sensations=(
                SensationEpisode("s", "a", "b", Valence.POSITIVE, ext(0, 1)),
            ),
            judgments=(
                ValueJudgment("j1", "a", "s", ext(0, 1)),
                ValueJudgment("j2", "a", "b", ext(0, 1)),
            ),
        )
        assert validate_timeline(tl) == []

    def test_self_correlate_sensation(self):
        tl = Timeline(
            agents=("a",),
            sensations=(
                SensationEpisode("s", "a", "a", Valence.POSITIVE, ext(0, 1)),
            ),
        )
        assert codes(validate_timeline(tl)) == ["E_SELF_CORRELATE"]

    def test_self_acquaintance(self):
        tl = Timeline(
            agents=("a",),
            acquaintances=(AcquaintanceRecord("a", "a", F(0)),),
        )
        assert codes(validate_timeline(tl)) == ["E_SELF_CORRELATE"]

    def test_intensity_range(self):
        def with_intensity(value: Fraction) -> Timeline:
            return Timeline(
                agents=("a", "b"),
                sensations=(
                    SensationEpisode(
                        "s", "a", "b", Valence.POSITIVE, ext(0, 1), value
                    ),
                ),
            )

        assert codes(validate_timeline(with_intensity(F(7, 2)))) == [
            "E_INTENSITY_RANGE"
        ]
        assert codes(validate_timeline(with_intensity(F(-1, 2)))) == [
            "E_INTENSITY_RANGE"
        ]
        assert validate_timeline(with_intensity(F(0))) == []
        assert validate_timeline(with_intensity(F(1))) == []
        # Past Python's int/str limit the value is named by the limit, so
        # validation reports the range error instead of raising.
        diags = validate_timeline(with_intensity(F(10**5000)))
        assert [d.message for d in diags] == [
            f"sensation 's' intensity <more than {sys.get_int_max_str_digits()} "
            "digits> outside [0, 1]"
        ]

    def test_empty_extents(self):
        tl = Timeline(
            agents=("a", "b"),
            sensations=(
                SensationEpisode("s", "a", "b", Valence.POSITIVE, IntervalSet()),
            ),
            judgments=(ValueJudgment("j", "a", "b", IntervalSet()),),
            inhibitions=(InhibitionEpisode("i", "a", None, IntervalSet()),),
        )
        assert codes(validate_timeline(tl)) == ["E_EMPTY_INTERVAL"] * 3

    def test_duplicate_with_empty_extent_reports_both(self):
        tl = Timeline(
            agents=("a", "b"),
            judgments=(
                ValueJudgment("j", "a", "b", ext(0, 1)),
                ValueJudgment("j", "a", "b", IntervalSet()),
            ),
        )
        diags = validate_timeline(tl)
        assert codes(diags) == ["E_DUP_ID", "E_EMPTY_INTERVAL"]
        assert {d.record for d in diags} == {"j"}

    def test_nonpositive_thresholds(self):
        tl = Timeline(
            agents=("a", "b"),
            queries=(QuerySpec("a", "b", Interval(F(0), F(1)), F(0)),),
            config=Config(threshold_default=F(-1)),
        )
        diags = validate_timeline(tl)
        assert codes(diags) == ["E_THRESHOLD_NONPOSITIVE"] * 2
        assert {d.record for d in diags} == {"query[0]", "config.threshold_default"}

    def test_min_intensity_range(self):
        tl = Timeline(config=Config(min_intensity=F(3, 2)))
        diags = validate_timeline(tl)
        assert codes(diags) == ["E_INTENSITY_RANGE"]
        assert diags[0].record == "config.min_intensity"

    def test_collects_everything_in_one_pass(self):
        tl = Timeline(
            agents=("a", "a"),
            sensations=(
                SensationEpisode("s", "a", "a", Valence.POSITIVE, ext(0, 1), F(2)),
            ),
            judgments=(ValueJudgment("j", "ghost", "nothing", ext(0, 1)),),
        )
        assert codes(validate_timeline(tl)) == [
            "E_DUP_ID",
            "E_INTENSITY_RANGE",
            "E_SELF_CORRELATE",
            "E_UNKNOWN_REF",
            "E_UNKNOWN_REF",
        ]
