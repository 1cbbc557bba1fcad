"""Predicate semantics: signals, verdicts, traces, and the tick oracle."""

from __future__ import annotations

import dataclasses
import math
import random
import types
from fractions import Fraction

import pytest

from loveline import (
    AcquaintanceRecord,
    GranularityError,
    InhibitionEpisode,
    Interval,
    IntervalSet,
    PairSignals,
    SensationEpisode,
    ThresholdError,
    Timeline,
    Trace,
    Valence,
    ValueJudgment,
    acquaintance_onset,
    condition_i_signal,
    condition_ii_components,
    evaluate,
    explain,
    inhibition_mask,
    love_state_at,
    tick_oracle,
)
from loveline import intervals, semantics
from loveline.model import Config
from loveline.parser import parse_document
from loveline.semantics import MAX_ORACLE_TICKS

from conftest import FIXTURE_DIR, WINDOW, build_timeline_a
from helpers import THRESHOLDS, random_query, random_timeline

F = Fraction

# A floor above timeline A's only sensation (intensity 9/10).
STRICT = Config(min_intensity=F(19, 20))


def iset(*pairs: tuple) -> IntervalSet:
    return IntervalSet(tuple(Interval(F(a), F(b)) for a, b in pairs))


def condition_ii_signal(subject: str, object_: str, tl: Timeline) -> IntervalSet:
    """Condition (ii) as a whole: the union of its two components."""
    derived, direct = condition_ii_components(subject, object_, tl)
    return derived.union(direct)


def with_inhibition(timeline: Timeline, episode: InhibitionEpisode) -> Timeline:
    return dataclasses.replace(
        timeline, inhibitions=timeline.inhibitions + (episode,)
    )


def with_judgment(timeline: Timeline, judgment: ValueJudgment) -> Timeline:
    return dataclasses.replace(
        timeline, judgments=timeline.judgments + (judgment,)
    )


class TestConditionI:
    def test_single_qualifying_episode(self, timeline_a):
        assert condition_i_signal("sally", "john", timeline_a) == iset((2, 8))

    def test_intensity_floor_excludes(self, timeline_a):
        strict = dataclasses.replace(timeline_a, config=STRICT)
        assert condition_i_signal("sally", "john", strict) == IntervalSet()

    def test_overlapping_episodes_merge(self):
        tl = Timeline(
            agents=("a", "b"),
            sensations=(
                SensationEpisode("s1", "a", "b", Valence.POSITIVE, iset((2, 5))),
                SensationEpisode("s2", "a", "b", Valence.POSITIVE, iset((4, 8))),
            ),
        )
        assert condition_i_signal("a", "b", tl) == iset((2, 8))

    def test_filters_valence_bearer_correlate(self, timeline_a):
        tl = dataclasses.replace(
            timeline_a,
            sensations=timeline_a.sensations
            + (
                SensationEpisode("neg", "sally", "john", Valence.NEGATIVE,
                                 iset((0, 10))),
                SensationEpisode("rev", "john", "sally", Valence.POSITIVE,
                                 iset((0, 10))),
            ),
        )
        assert condition_i_signal("sally", "john", tl) == iset((2, 8))


class TestAcquaintanceOnset:
    def test_canonical(self, timeline_a, timeline_b):
        assert acquaintance_onset("sally", "john", timeline_a) == 0
        assert acquaintance_onset("sally", "john", timeline_b) is None

    def test_earliest_record_wins(self, timeline_a):
        tl = dataclasses.replace(
            timeline_a,
            acquaintances=(
                AcquaintanceRecord("sally", "john", F(5)),
                AcquaintanceRecord("sally", "john", F(3)),
            ),
        )
        assert acquaintance_onset("sally", "john", tl) == 3

    def test_directional(self, timeline_a):
        assert acquaintance_onset("john", "sally", timeline_a) is None


class TestConditionII:
    def test_derived_judgment_overlap(self, timeline_a):
        assert condition_ii_signal("sally", "john", timeline_a) == iset((3, 7))

    def test_empty_without_acquaintance(self, timeline_b):
        assert condition_ii_signal("sally", "john", timeline_b) == IntervalSet()

    def test_direct_judgment_added(self, timeline_a):
        tl = with_judgment(
            timeline_a, ValueJudgment("j2", "sally", "john", iset((8, 9)))
        )
        assert condition_ii_signal("sally", "john", tl) == iset((3, 7), (8, 9))

    def test_components_split_direct_and_derived(self, timeline_a):
        tl = with_judgment(
            timeline_a, ValueJudgment("j2", "sally", "john", iset((8, 9)))
        )
        derived, direct = condition_ii_components("sally", "john", tl)
        assert derived == iset((3, 7))
        assert direct == iset((8, 9))

    def test_onset_clips_judgments(self, timeline_a):
        tl = dataclasses.replace(
            timeline_a,
            acquaintances=(AcquaintanceRecord("sally", "john", F(5)),),
        )
        assert condition_ii_signal("sally", "john", tl) == iset((5, 7))

    def test_judging_anothers_sensation_contributes_nothing(self, timeline_a):
        tl = dataclasses.replace(
            timeline_a,
            judgments=(ValueJudgment("j1", "john", "s1", iset((3, 7))),),
            acquaintances=timeline_a.acquaintances
            + (AcquaintanceRecord("john", "sally", F(0)),),
        )
        assert condition_ii_signal("john", "sally", tl) == IntervalSet()

    def test_low_intensity_sensation_still_supports_derived_judgment(
        self, timeline_a
    ):
        # The intensity floor filters condition (i) only; a judged sensation
        # supports condition (ii) regardless of its strength.
        strict = dataclasses.replace(timeline_a, config=STRICT)
        assert condition_ii_signal("sally", "john", strict) == iset((3, 7))


class TestInhibitionMask:
    def test_empty_without_episodes(self, timeline_a):
        assert inhibition_mask("sally", "john", timeline_a) == IntervalSet()

    def test_targeted_mask_splits_condition_ii(self, timeline_a):
        tl = with_inhibition(
            timeline_a, InhibitionEpisode("i1", "sally", "john", iset((4, 6)))
        )
        assert inhibition_mask("sally", "john", tl) == iset((4, 6))
        assert condition_ii_signal("sally", "john", tl) == iset((3, 4), (6, 7))

    def test_untargeted_mask_applies_to_every_counterpart(self, timeline_a):
        tl = with_inhibition(
            timeline_a, InhibitionEpisode("i1", "sally", None, iset((4, 6)))
        )
        assert inhibition_mask("sally", "john", tl) == iset((4, 6))
        assert inhibition_mask("sally", "anyone", tl) == iset((4, 6))
        assert condition_ii_signal("sally", "john", tl) == iset((3, 4), (6, 7))

    def test_mask_only_applies_to_its_agent(self, timeline_a):
        tl = with_inhibition(
            timeline_a, InhibitionEpisode("i1", "john", None, iset((4, 6)))
        )
        assert inhibition_mask("sally", "john", tl) == IntervalSet()

    def test_mask_blocks_condition_i_too(self, timeline_a):
        tl = with_inhibition(
            timeline_a, InhibitionEpisode("i1", "sally", "john", iset((4, 6)))
        )
        assert condition_i_signal("sally", "john", tl) == iset((2, 4), (6, 8))


def count_comparisons(monkeypatch) -> dict[str, int]:
    """Count every Fraction comparison from here on in
    ``counted["comparisons"]``, so a bound on it holds on any host."""
    counted = {"comparisons": 0}

    def counting(name):
        compare = getattr(Fraction, name)

        def counted_compare(a, b):
            counted["comparisons"] += 1
            return compare(a, b)

        return counted_compare

    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting(name))
    return counted


def love_events(interval: Interval, tl: Timeline) -> IntervalSet:
    """sally's love events toward john within ``interval``."""
    return evaluate("sally", "john", interval, F(1), tl).love_events


class TestLoveEventSet:
    def test_canonical(self, timeline_a, timeline_b, timeline_c):
        assert love_events(WINDOW, timeline_a) == iset((3, 7))
        assert love_events(WINDOW, timeline_b) == IntervalSet()
        assert love_events(WINDOW, timeline_c) == iset((0, 10))

    def test_window_restricts(self, timeline_a):
        assert love_events(Interval(F(4), F(5)), timeline_a) == iset((4, 5))


class TestEvaluate:
    def test_fails_at_default_threshold(self, timeline_a):
        v = evaluate("sally", "john", WINDOW, F(1), timeline_a)
        assert (v.holds, v.s, v.c) == (False, 4, 6)
        assert v.love_events == iset((3, 7))

    def test_holds_at_half(self, timeline_a):
        v = evaluate("sally", "john", WINDOW, F(1, 2), timeline_a)
        assert (v.holds, v.s, v.c) == (True, 4, 6)

    def test_boundary_threshold_is_strict(self, timeline_a):
        # s/c = 2/3 exactly; T = 2/3 must fail, one atom less must hold.
        assert not evaluate("sally", "john", WINDOW, F(2, 3), timeline_a).holds
        assert evaluate(
            "sally", "john", WINDOW, F(2, 3) - F(1, 10**9), timeline_a
        ).holds

    def test_full_coverage_beats_any_threshold(self, timeline_c):
        v = evaluate("sally", "john", WINDOW, F(10**6), timeline_c)
        assert (v.holds, v.s, v.c) == (True, 10, 0)

    def test_zero_sum_never_holds(self, timeline_b):
        v = evaluate("sally", "john", WINDOW, F(1, 10**6), timeline_b)
        assert (v.holds, v.s) == (False, 0)

    def test_threshold_must_be_positive(self, timeline_a):
        with pytest.raises(ThresholdError):
            evaluate("sally", "john", WINDOW, F(0), timeline_a)
        with pytest.raises(ThresholdError):
            evaluate("sally", "john", WINDOW, F(-1), timeline_a)

    def test_unprintable_threshold_is_named_by_the_limit(self, timeline_a):
        with pytest.raises(ThresholdError, match=r"^threshold <more than \d+ "
                           r"digits> must be positive$"):
            evaluate("sally", "john", WINDOW, -F(10**5000), timeline_a)

    def test_conservation(self, timeline_a, timeline_b, timeline_c):
        for tl in (timeline_a, timeline_b, timeline_c):
            v = evaluate("sally", "john", WINDOW, F(1), tl)
            assert v.s + v.c == WINDOW.measure
            assert v.love_events.measure() == v.s

    def test_one_hot_pair_stays_linear(self, monkeypatch):
        # n sensations [4k,4k+2) cut by n untargeted inhibitions
        # [4k+1,4k+3), one direct judgment and one query over [0,4n).
        # Every Fraction comparison made by a cold evaluation is counted,
        # so the bound holds on any host: doubling n may roughly double
        # the count, where a quadratic step would quadruple it.
        counted = count_comparisons(monkeypatch)

        def comparisons(n: int) -> int:
            lines = ["agent a", "agent b", "acquaintance a b at 0"]
            lines += [f"sensation s{k} bearer=a correlate=b valence=positive "
                      f"extent=[{4 * k},{4 * k + 2})" for k in range(n)]
            lines += [f"inhibition i{k} agent=a extent=[{4 * k + 1},{4 * k + 3})"
                      for k in range(n)]
            lines += [f"judgment j agent=a target=b extent=[0,{4 * n})",
                      f"query loves a b interval=[0,{4 * n})"]
            result = parse_document("".join(line + "\n" for line in lines))
            assert result.ok
            counted["comparisons"] = 0
            v = evaluate("a", "b", result.timeline.queries[0].interval, F(1),
                         result.timeline)
            assert (v.s, v.c) == (n, 3 * n)
            return counted["comparisons"]

        assert comparisons(2_000) <= 2.2 * comparisons(1_000)

    def test_cold_pair_records_reuse_what_they_can(self, monkeypatch):
        # Many small pairs, shaped like the wide benchmark corpus: two
        # sensations of one or two parts, a judgment of each sensation
        # (condition (ii) derived) and an inhibition on every other pair,
        # with one query per pair and a repeat on every third. Every
        # Fraction comparison and Interval construction of one cold
        # evaluation is counted, so the bounds hold on any host. Sharing
        # the members an operation leaves whole, and the operands it would
        # only copy, takes about 31 comparisons and 1.6 new intervals per
        # pair here; copying them took about 48 and 5.7.
        rng = random.Random(7)
        lines, pairs = [], 300
        for k in range(pairs):
            s, o = f"s{k}", f"o{k}"
            lines += [f"agent {s}", f"agent {o}",
                      f"acquaintance {s} {o} at {rng.randint(0, 20)}"]
            for e in range(2):
                start = rng.randint(0, 70)
                spans = [(start, start + rng.randint(5, 25))]
                if rng.random() < 0.5:
                    gap = spans[0][1] + rng.randint(1, 5)
                    spans.append((gap, gap + rng.randint(1, 10)))
                extent = "+".join(f"[{a},{b})" for a, b in spans)
                lines.append(f"sensation e{k}_{e} bearer={s} correlate={o} "
                             f"valence=positive extent={extent}")
                begin = rng.randint(0, 90)
                lines.append(f"judgment j{k}_{e} agent={s} target=e{k}_{e} "
                             f"extent=[{begin},{begin + rng.randint(5, 30)})")
            if k % 2:
                at = rng.randint(0, 95)
                lines.append(f"inhibition h{k} agent={s} toward={o} "
                             f"extent=[{at},{at + rng.randint(1, 3)})")
            for _ in range(1 if k % 3 else 2):
                lo = rng.randint(0, 80)
                lines.append(f"query loves {s} {o} "
                             f"interval=[{lo},{lo + rng.randint(1, 20)})")
        result = parse_document("".join(line + "\n" for line in lines))
        assert result.ok
        timeline = result.timeline

        counted = count_comparisons(monkeypatch)
        counted["intervals"] = 0
        post_init = Interval.__post_init__

        def counted_post_init(self):
            counted["intervals"] += 1
            post_init(self)

        monkeypatch.setattr(Interval, "__post_init__", counted_post_init)
        held = sum(
            evaluate(q.subject, q.object, q.interval, F(1, 2), timeline).holds
            for q in timeline.queries
        )
        assert 0 < held < len(timeline.queries)
        assert counted["comparisons"] <= 40 * pairs
        assert counted["intervals"] <= 3 * pairs


# Extents lie on these grids and windows on the others, so evaluate must
# rescale the pair record's integers to a finer unit (k > 1) for most
# windows, and the record's scale L is itself a mix of denominators.
EXTENT_GRIDS = (3, 7, 10, 12)
WINDOW_GRIDS = (2, 5, 8, 9)
# A Mersenne prime: no tick grid of a window on it is within reach.
HUGE_GRID = 2**61 - 1


def grid_extent(rng: random.Random) -> IntervalSet:
    parts = []
    for _ in range(rng.randint(1, 2)):
        d = rng.choice(EXTENT_GRIDS)
        a = rng.randint(0, 3 * d - 1)
        parts.append(Interval(F(a, d), F(rng.randint(a + 1, 3 * d), d)))
    return IntervalSet(tuple(parts))


def mixed_grid_timeline(rng: random.Random) -> Timeline:
    """One pair, ``a`` toward ``b``, with every record inside [0, 3) on
    a grid of :data:`EXTENT_GRIDS`: sensations on both sides of the
    intensity floor, derived and direct judgments, maybe a mask."""
    sensations = tuple(
        SensationEpisode(f"s{k}", "a", "b", Valence.POSITIVE,
                         grid_extent(rng), rng.choice((F(1, 4), F(1))))
        for k in range(rng.randint(1, 3))
    )
    judgments = tuple(
        ValueJudgment(f"j{k}", "a", target, grid_extent(rng))
        for k, target in enumerate([ep.id for ep in sensations] + ["b"])
        if rng.random() < 0.7
    )
    inhibitions = tuple(
        InhibitionEpisode("h", "a", rng.choice((None, "b")), grid_extent(rng))
        for _ in range(rng.randint(0, 1))
    )
    d = rng.choice(EXTENT_GRIDS)
    return Timeline(
        agents=("a", "b"),
        acquaintances=(AcquaintanceRecord("a", "b", F(rng.randint(0, d), d)),),
        sensations=sensations,
        judgments=judgments,
        inhibitions=inhibitions,
        config=Config(min_intensity=F(1, 2)),
    )


def grid_window(rng: random.Random, start_grid: int, end_grid: int) -> Interval:
    a = F(rng.randint(0, 3 * start_grid - 1), start_grid)
    lowest = a.numerator * end_grid // a.denominator + 1
    return Interval(a, F(rng.randint(lowest, 3 * end_grid), end_grid))


def endpoint_lcm(timeline: Timeline, window: Interval) -> int:
    points = [window.start, window.end]
    points += [rec.at for rec in timeline.acquaintances]
    for record in (*timeline.sensations, *timeline.judgments,
                   *timeline.inhibitions):
        points += [x for iv in record.extent for x in (iv.start, iv.end)]
    return math.lcm(*(x.denominator for x in points))


class TestIntegerDecision:
    """evaluate decides in integer units of the pair record's scale and
    the window's denominators; these windows need both."""

    def test_mixed_grids_match_the_tick_oracle(self):
        rng = random.Random(2207)
        rescaled = outcomes = 0
        for _ in range(40):
            tl = mixed_grid_timeline(rng)
            for _ in range(3):
                window = grid_window(rng, rng.choice(WINDOW_GRIDS),
                                     rng.choice(WINDOW_GRIDS))
                threshold = rng.choice(THRESHOLDS)
                fast = evaluate("a", "b", window, threshold, tl)
                slow = tick_oracle("a", "b", window, threshold, tl,
                                   F(1, endpoint_lcm(tl, window)))
                assert fast == slow
                love = explain("a", "b", window, threshold, tl).signals.love
                scale = love._scaled[0]
                rescaled += math.lcm(scale, window.start.denominator,
                                     window.end.denominator) > scale
                outcomes |= 1 << fast.holds
        assert rescaled >= 100 and outcomes == 3

    def test_huge_denominators_match_intersect(self):
        rng = random.Random(2208)
        outcomes = 0
        for _ in range(60):
            tl = mixed_grid_timeline(rng)
            for grids in ((HUGE_GRID, HUGE_GRID), (HUGE_GRID, 7),
                          (3, HUGE_GRID)):
                window = grid_window(rng, *grids)
                threshold = rng.choice(THRESHOLDS)
                verdict = evaluate("a", "b", window, threshold, tl)
                record = explain("a", "b", window, threshold, tl).signals
                events = record.love.intersect(IntervalSet((window,)))
                s = events.measure()
                c = window.measure - s
                assert verdict.love_events == events
                assert (verdict.s, verdict.c) == (s, c)
                assert verdict.holds == (c == 0 or threshold < s / c)
                outcomes |= 1 << verdict.holds
        assert outcomes == 3

    def test_a_huge_scale_costs_no_comparisons(self, monkeypatch):
        # 300 love events, each with ends on its own odd prime denominator,
        # so the record's scale is their product, of 836 digits.
        # After the cold record build, a query compares no Fractions: its
        # threshold's sign is its numerator's and its clipped edge intervals
        # are built unchecked; bisecting the members as Fractions took about
        # 21 comparisons a query.
        primes = [p for p in range(3, 2_000)
                  if all(p % q for q in range(2, math.isqrt(p) + 1))][:300]
        lines = ["agent a", "agent b", "acquaintance a b at 0",
                 "judgment j agent=a target=b extent=[0,300)"]
        lines += [f"sensation s{k} bearer=a correlate=b valence=positive "
                  f"extent=[{k * p + 1}/{p},{k * p + (p + 1) // 2}/{p})"
                  for k, p in enumerate(primes)]
        result = parse_document("".join(line + "\n" for line in lines))
        assert result.ok
        tl = result.timeline
        record = explain("a", "b", Interval(F(0), F(1)), F(1), tl).signals
        assert len(record.love.intervals) == 300
        assert len(str(record.love._scaled[0])) == 836

        rng = random.Random(2209)
        counted = count_comparisons(monkeypatch)
        outcomes = 0
        for _ in range(200):
            window = grid_window(rng, rng.choice((1, 5, 97, HUGE_GRID)),
                                 rng.choice((1, 9, 101, HUGE_GRID)))
            window = Interval(window.start * 100, window.end * 100)
            threshold = rng.choice(THRESHOLDS)
            counted["comparisons"] = 0
            verdict = evaluate("a", "b", window, threshold, tl)
            assert counted["comparisons"] == 0
            events = record.love.intersect(IntervalSet((window,)))
            s = events.measure()
            c = window.measure - s
            assert verdict == semantics.Verdict(
                c == 0 or threshold < s / c, s, c, threshold, events)
            outcomes |= 1 << verdict.holds
        assert outcomes == 3

    def test_a_warm_evaluate_rebuilds_no_edges(self, monkeypatch):
        # The pair record's love set works out its integer edges on its
        # first cut and keeps them: a warm query calls lcm only for m. A
        # replaced timeline builds new records, so it pays the cold build.
        tl = build_timeline_a()
        calls = {"lcm": 0}

        def counted_lcm(*args):
            calls["lcm"] += 1
            return math.lcm(*args)

        monkeypatch.setattr(intervals, "lcm", counted_lcm)
        love = explain("sally", "john", WINDOW, F(1), tl).signals.love
        assert calls["lcm"] == 2
        for window in (WINDOW, Interval(F(1, 3), F(22, 7)),
                       Interval(F(5, 3), F(16, 7))):
            calls["lcm"] = 0
            evaluate("sally", "john", window, F(1, 3), tl)
            assert calls["lcm"] == 1
        calls["lcm"] = 0
        fresh = dataclasses.replace(tl)
        assert evaluate("sally", "john", WINDOW, F(1), fresh) == \
            evaluate("sally", "john", WINDOW, F(1), tl)
        assert calls["lcm"] == 3
        fresh_love = explain("sally", "john", WINDOW, F(1), fresh).signals.love
        assert fresh_love == love and fresh_love is not love


class TestLoveStateAt:
    def test_inside_event(self, timeline_a):
        assert love_state_at(
            "sally", "john", F(5), WINDOW, F(1, 2), timeline_a
        ) == (True, True)

    def test_outside_event_inside_process(self, timeline_a):
        assert love_state_at(
            "sally", "john", F(1), WINDOW, F(1, 2), timeline_a
        ) == (False, True)

    def test_never_without_acquaintance(self, timeline_b):
        for t in (F(0), F(3), F(5), F(99, 10)):
            assert love_state_at(
                "sally", "john", t, WINDOW, F(1, 2), timeline_b
            ) == (False, False)


class TestExplain:
    def test_no_acquaintance(self, timeline_b):
        trace = explain("sally", "john", WINDOW, F(1), timeline_b)
        assert trace.first_failure == "no acquaintance"
        assert trace.signals.acquaintance_onset is None

    def test_ratio_below_threshold(self, timeline_a):
        trace = explain("sally", "john", WINDOW, F(1), timeline_a)
        assert trace.first_failure == "ratio below threshold"

    def test_none_when_holding(self, timeline_c):
        trace = explain("sally", "john", WINDOW, F(1), timeline_c)
        assert trace.first_failure is None

    def test_condition_i_empty_within_window(self, timeline_a):
        trace = explain("sally", "john", Interval(F(8), F(10)), F(1), timeline_a)
        assert trace.first_failure == "condition (i) empty"

    def test_condition_ii_empty_within_window(self, timeline_a):
        trace = explain("sally", "john", Interval(F(7), F(8)), F(1), timeline_a)
        assert trace.first_failure == "condition (ii) empty"

    def test_mask_covers_a_direct_judgment(self):
        # Verdicts cannot show an unmasked direct part: condition (i) is
        # masked too and love is their intersection. Only the trace can.
        tl = parse_document(
            "agent a\nagent b\nacquaintance a b at 0\n"
            "sensation s bearer=a correlate=b valence=positive extent=[0,10)\n"
            "judgment j agent=a target=b extent=[4,6)\n"
            "inhibition i agent=a toward=b extent=[3,7)\n"
        ).timeline
        trace = explain("a", "b", WINDOW, F(1), tl)
        assert trace.signals.condition_ii_direct == IntervalSet()
        assert trace.first_failure == "condition (ii) empty"

    def test_conditions_that_meet_the_window_apart(self):
        # Both conditions meet the window but never overlap, so the window
        # holds no love events and the ratio is the first stage to fail.
        tl = parse_document(
            "agent a\nagent b\nacquaintance a b at 0\n"
            "sensation s bearer=a correlate=b valence=positive extent=[0,2)\n"
            "judgment j agent=a target=b extent=[5,6)\n"
        ).timeline
        trace = explain("a", "b", Interval(F(0), F(7)), F(1), tl)
        assert trace.verdict.s == 0 and trace.verdict.c == 7
        assert trace.first_failure == "ratio below threshold"

    def test_a_warm_explain_compares_no_fractions(self, monkeypatch):
        # Stages are read off the verdict or found by the window cut, which
        # bisects integers: once each set's edges are kept, no Fraction is
        # compared on any stage.
        tl = parse_document(
            "agent a\nagent b\nagent c\nacquaintance a b at 0\n"
            "acquaintance a c at 0\n"
            "sensation s bearer=a correlate=b valence=positive extent=[0,2)\n"
            "judgment j agent=a target=b extent=[5,6)+[8,9)\n"
            "inhibition i agent=a toward=b extent=[8,10)\n"
            "sensation t bearer=a correlate=c valence=positive extent=[0,10)\n"
            "judgment k agent=a target=c extent=[1/3,6)\n"
            "query loves a b interval=[3,5)\n"
            "query loves a b interval=[0,4)\n"
            "query loves a b interval=[0,7)\n"
            "query loves a c interval=[0,10) threshold=1\n"
            "query loves a c interval=[1/7,10) threshold=2\n"
            "query loves b a interval=[0,10)\n"
        ).timeline

        def stages() -> list[str | None]:
            return [explain(q.subject, q.object, q.interval,
                            q.threshold or F(1), tl).first_failure
                    for q in tl.queries]

        assert stages() == [
            "condition (i) empty", "condition (ii) empty",
            "ratio below threshold", None, "ratio below threshold",
            "no acquaintance"]
        counted = count_comparisons(monkeypatch)
        stages()
        assert counted["comparisons"] == 0

    def test_signals_reproduce_love_events(self, timeline_a):
        tl = with_inhibition(
            with_judgment(
                timeline_a, ValueJudgment("j2", "sally", "john", iset((8, 9)))
            ),
            InhibitionEpisode("i1", "sally", "john", iset((4, 6))),
        )
        trace = explain("sally", "john", WINDOW, F(1), tl)
        verdict = evaluate("sally", "john", WINDOW, F(1), tl)
        signals = trace.signals
        rebuilt = signals.condition_i.intersect(
            signals.condition_ii_derived.union(signals.condition_ii_direct)
        ).intersect(IntervalSet((WINDOW,)))
        assert rebuilt == verdict.love_events

    def test_trace_carries_full_signals(self, timeline_a):
        trace = explain("sally", "john", Interval(F(0), F(3)), F(1), timeline_a)
        assert trace.signals.condition_i == iset((2, 8))
        assert trace.signals.condition_ii_derived == iset((3, 7))
        assert trace.signals.inhibition_mask == IntervalSet()

    def test_trace_holds_the_cached_pair_record(self, timeline_a):
        trace = explain("sally", "john", Interval(F(0), F(3)), F(1), timeline_a)
        assert [f.name for f in dataclasses.fields(Trace)] == [
            "signals", "first_failure", "verdict"]
        assert isinstance(trace.signals, PairSignals)
        # The love base is unwindowed; the verdict keeps the window's part.
        assert trace.signals.love == iset((3, 7))
        assert trace.verdict.love_events == IntervalSet()


class TestPairCache:
    def test_strict_copy_and_default_in_either_order(self):
        def strict_copy(tl: Timeline) -> Timeline:
            return dataclasses.replace(tl, config=STRICT)

        fresh_default = evaluate("sally", "john", WINDOW, F(1, 2),
                                 build_timeline_a())
        fresh_strict = evaluate("sally", "john", WINDOW, F(1, 2),
                                strict_copy(build_timeline_a()))
        assert fresh_default.s == 4 and fresh_strict.s == 0
        for strict_first in (False, True):
            default = build_timeline_a()
            strict = strict_copy(default)
            order = (strict, default) if strict_first else (default, strict)
            for tl in order * 2:
                v = evaluate("sally", "john", WINDOW, F(1, 2), tl)
                t = explain("sally", "john", WINDOW, F(1, 2), tl)
                expected = fresh_strict if tl is strict else fresh_default
                assert v == expected
                assert t.verdict == expected

    def test_evaluated_timeline_still_equals_its_twin(self):
        used, twin = build_timeline_a(), build_timeline_a()
        evaluate("sally", "john", WINDOW, F(1), used)
        assert used == twin
        assert hash(used) == hash(twin)
        assert repr(used) == repr(twin)

    def test_the_index_is_not_a_dataclass_field(self):
        assert [f.name for f in dataclasses.fields(Timeline)] == [
            "agents", "acquaintances", "sensations", "judgments",
            "inhibitions", "queries", "config",
        ]

    def test_asdict_of_an_evaluated_timeline_equals_a_fresh_one(self):
        seen = 0
        for path in sorted(FIXTURE_DIR.glob("*.love")):
            text = path.read_text(encoding="utf-8")
            used = parse_document(text).timeline
            if used is None or not used.queries:
                continue
            for q in used.queries:
                threshold = (used.config.threshold_default
                             if q.threshold is None else q.threshold)
                evaluate(q.subject, q.object, q.interval, threshold, used)
                seen += 1
            assert getattr(used, "_pair_index", None) is not None
            fresh = parse_document(text).timeline
            assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
            assert dataclasses.astuple(used) == dataclasses.astuple(fresh)
        assert seen >= 7

    def test_replace_starts_with_an_empty_cache(self, timeline_a):
        assert evaluate("sally", "john", WINDOW, F(1), timeline_a).s == 4
        moved = dataclasses.replace(timeline_a, acquaintances=(
            AcquaintanceRecord("sally", "john", F(5)),))
        assert getattr(moved, "_pair_index", None) is None
        assert evaluate("sally", "john", WINDOW, F(1), moved).s == 2
        assert acquaintance_onset("sally", "john", moved) == 5
        gone = dataclasses.replace(timeline_a, acquaintances=())
        assert evaluate("sally", "john", WINDOW, F(1), gone).s == 0

    def test_a_warm_query_does_no_merge(self, timeline_a, monkeypatch):
        # Once the pair record exists, a window is answered by bisection over
        # its love set: neither evaluate nor explain re-sorts a member list.
        # A second sensation overlapping s1 makes the cold build merge.
        timeline_a = dataclasses.replace(timeline_a, sensations=(
            *timeline_a.sensations,
            SensationEpisode("s2", "sally", "john", Valence.POSITIVE,
                             iset((6, 9))),
        ))
        merges = []
        merge = intervals._merge

        def counting_merge(members):
            merges.append(members)
            return merge(members)

        monkeypatch.setattr(intervals, "_merge", counting_merge)
        assert evaluate("sally", "john", WINDOW, F(1), timeline_a).s == 4
        assert merges
        merges.clear()
        window = Interval(F(4), F(9))
        verdict = evaluate("sally", "john", window, F(1), timeline_a)
        trace = explain("sally", "john", window, F(1), timeline_a)
        assert merges == []
        assert verdict.love_events == iset((4, 7))
        assert trace.verdict == verdict and trace.first_failure is None
        assert trace.signals.condition_i == iset((2, 9))

    def test_explain_stage_agrees_with_evaluate_on_every_fixture_query(self):
        seen = 0
        for path in sorted(FIXTURE_DIR.glob("*.love")):
            tl = parse_document(path.read_text(encoding="utf-8")).timeline
            if tl is None:
                continue
            for q in tl.queries:
                threshold = (tl.config.threshold_default
                             if q.threshold is None else q.threshold)
                trace = explain(q.subject, q.object, q.interval, threshold, tl)
                verdict = evaluate(q.subject, q.object, q.interval,
                                   threshold, tl)
                assert (trace.first_failure is None) == verdict.holds
                assert trace.verdict == verdict
                seen += 1
        assert seen >= 7

    def test_every_signal_is_read_from_one_record_per_pair(self):
        seen = 0
        for path in sorted(FIXTURE_DIR.glob("*.love")):
            tl = parse_document(path.read_text(encoding="utf-8")).timeline
            if tl is None:
                continue
            for q in tl.queries:
                threshold = (tl.config.threshold_default
                             if q.threshold is None else q.threshold)
                trace = explain(q.subject, q.object, q.interval, threshold, tl)
                record = tl._pair_index.signals[q.subject, q.object]
                derived, direct = condition_ii_components(
                    q.subject, q.object, tl)
                assert trace.signals is record
                assert record.condition_ii_derived is derived
                assert record.condition_ii_direct is direct
                assert (condition_i_signal(q.subject, q.object, tl)
                        is record.condition_i)
                assert (inhibition_mask(q.subject, q.object, tl)
                        is record.inhibition_mask)
                assert (acquaintance_onset(q.subject, q.object, tl)
                        is record.acquaintance_onset)
                seen += 1
            assert set(tl._pair_index.signals) == {
                (q.subject, q.object) for q in tl.queries}
        assert seen >= 7


class TestTickOracle:
    def test_matches_evaluate_on_canonical(self, timeline_a):
        fast = evaluate("sally", "john", WINDOW, F(1), timeline_a)
        slow = tick_oracle("sally", "john", WINDOW, F(1), timeline_a, F(1))
        assert (fast.holds, fast.s, fast.c) == (slow.holds, slow.s, slow.c)
        assert fast.love_events == slow.love_events

    def test_refinement_stability(self, timeline_a):
        coarse = tick_oracle("sally", "john", WINDOW, F(1), timeline_a, F(1))
        fine = tick_oracle("sally", "john", WINDOW, F(1), timeline_a, F(1, 2))
        assert (coarse.holds, coarse.s, coarse.c) == (fine.holds, fine.s, fine.c)

    def test_full_coverage(self, timeline_c):
        v = tick_oracle("sally", "john", WINDOW, F(1), timeline_c, F(1))
        assert (v.holds, v.s, v.c) == (True, 10, 0)

    def test_granularity_must_divide_endpoints(self, timeline_a):
        with pytest.raises(GranularityError):
            tick_oracle("sally", "john", WINDOW, F(1), timeline_a, F(2))

    def test_granularity_must_divide_acquaintance_at(self, timeline_a):
        tl = dataclasses.replace(
            timeline_a,
            acquaintances=(AcquaintanceRecord("sally", "john", F(1, 2)),),
        )
        with pytest.raises(GranularityError):
            tick_oracle("sally", "john", WINDOW, F(1), tl, F(1))
        v = tick_oracle("sally", "john", WINDOW, F(1), tl, F(1, 2))
        assert v.s == 4

    def test_the_timeline_is_checked_once_per_granularity(
        self, timeline_a, monkeypatch
    ):
        calls: list[Timeline] = []
        endpoints = semantics._timeline_endpoints

        def counting(timeline: Timeline) -> list[Fraction]:
            calls.append(timeline)
            return endpoints(timeline)

        monkeypatch.setattr(semantics, "_timeline_endpoints", counting)
        tl = dataclasses.replace(timeline_a)
        windows = [Interval(F(a), F(a + n)) for a in range(5) for n in (1, 5)]
        for window in windows:
            for granularity in (F(1), F(1, 2)):
                tick_oracle("sally", "john", window, F(1), tl, granularity)
        assert len(calls) == 2 and all(seen is tl for seen in calls)
        # A window off the grid still fails at every call.
        for _ in range(2):
            with pytest.raises(GranularityError, match="endpoint 1/3"):
                tick_oracle("sally", "john", Interval(F(1, 3), F(1)), F(1),
                            tl, F(1))
        assert len(calls) == 2
        # A timeline made by dataclasses.replace is checked afresh.
        again = dataclasses.replace(tl)
        tick_oracle("sally", "john", WINDOW, F(1), again, F(1))
        assert len(calls) == 3 and calls[-1] is again

    def test_the_first_off_grid_endpoint_is_named(self, timeline_a):
        # The window's ends first, then the timeline's endpoints in its
        # order: acquaintances, sensations, judgments, inhibitions, queries.
        # Messages are the parent's, word for word.
        tl = dataclasses.replace(
            timeline_a,
            acquaintances=(AcquaintanceRecord("sally", "john", F(1, 3)),),
            judgments=(dataclasses.replace(
                timeline_a.judgments[0], extent=iset((F(1, 5), 7))
            ),),
        )
        cases = [
            (WINDOW, F(1), "granularity 1 does not divide endpoint 1/3"),
            # Again: the second call reads the kept result.
            (WINDOW, F(1), "granularity 1 does not divide endpoint 1/3"),
            (Interval(F(1, 7), F(10)), F(1),
             "granularity 1 does not divide endpoint 1/7"),
            (WINDOW, F(1, 3), "granularity 1/3 does not divide endpoint 1/5"),
            (Interval(F(0), F(9, 2)), F(1, 3),
             "granularity 1/3 does not divide endpoint 9/2"),
        ]
        for window, granularity, message in cases:
            with pytest.raises(GranularityError) as info:
                tick_oracle("sally", "john", window, F(1), tl, granularity)
            assert str(info.value) == message
        v = tick_oracle("sally", "john", WINDOW, F(1), tl, F(1, 15))
        assert v == evaluate("sally", "john", WINDOW, F(1), tl)

    def test_granularity_must_be_positive(self, timeline_a):
        with pytest.raises(GranularityError):
            tick_oracle("sally", "john", WINDOW, F(1), timeline_a, F(0))

    def test_threshold_checked_like_evaluate(self, timeline_a):
        with pytest.raises(ThresholdError):
            tick_oracle("sally", "john", WINDOW, F(0), timeline_a, F(1))

    def test_tick_count_over_the_cap_is_rejected_before_the_loop(
        self, timeline_a
    ):
        # Ten ticks per unit beyond the cap, and 10**13 ticks: both must
        # fail at once, without visiting a single tick.
        just_over = F(1, MAX_ORACLE_TICKS // 10 + 1)
        for granularity in (just_over, F(1, 10**12)):
            with pytest.raises(GranularityError, match="above the cap"):
                tick_oracle("sally", "john", WINDOW, F(1), timeline_a,
                            granularity)


# Names on the routes of evaluate and explain: the pair index, the cached
# pair signals, the signal functions and the interval-set algebra they are
# built from.
PRODUCTION_NAMES = frozenset({
    "_index_of", "_PairIndex", "_pair_index", "_merge", "_signals_of",
    "PairSignals", "signals", "inhibit", "evaluate",
    "_cut", "_scaled", "lcm", "bisect_left", "bisect_right",
    "condition_i_signal", "condition_ii_components", "inhibition_mask",
    "acquaintance_onset",
    "union", "intersect", "difference", "clip_from", "within",
    "_normalized", "_unchecked",
})


def test_tick_oracle_names_nothing_on_the_production_route():
    # The oracle is an independent cross-check only while it computes the
    # verdict without any of evaluate's code.
    pending = [semantics.tick_oracle.__code__, semantics._tick_in.__code__,
               semantics._timeline_endpoints.__code__]
    named: set[str] = set()
    while pending:
        code = pending.pop()
        named.update(code.co_names)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    assert {"cond_i_at", "cond_ii_at", "masked"} <= {
        c.co_name for c in semantics.tick_oracle.__code__.co_consts
        if isinstance(c, types.CodeType)
    }
    assert not named & PRODUCTION_NAMES


def shift_timeline(timeline: Timeline, delta: Fraction) -> Timeline:
    def shift_set(s: IntervalSet) -> IntervalSet:
        return IntervalSet(
            tuple(Interval(iv.start + delta, iv.end + delta) for iv in s)
        )

    return Timeline(
        agents=timeline.agents,
        acquaintances=tuple(
            AcquaintanceRecord(r.subject, r.object, r.at + delta)
            for r in timeline.acquaintances
        ),
        sensations=tuple(
            dataclasses.replace(ep, extent=shift_set(ep.extent))
            for ep in timeline.sensations
        ),
        judgments=tuple(
            dataclasses.replace(j, extent=shift_set(j.extent))
            for j in timeline.judgments
        ),
        inhibitions=tuple(
            dataclasses.replace(i, extent=shift_set(i.extent))
            for i in timeline.inhibitions
        ),
        config=timeline.config,
    )


class TestTimeTranslationInvariance:
    def test_canonical_shift(self, timeline_a):
        base = evaluate("sally", "john", WINDOW, F(1, 2), timeline_a)
        for delta in (F(7, 3), F(-11, 2), F(100)):
            shifted = evaluate(
                "sally",
                "john",
                Interval(WINDOW.start + delta, WINDOW.end + delta),
                F(1, 2),
                shift_timeline(timeline_a, delta),
            )
            assert (base.holds, base.s, base.c) == (
                shifted.holds, shifted.s, shifted.c,
            )

    def test_randomized_shifts(self):
        rng = random.Random(1416)
        for _ in range(50):
            tl = random_timeline(rng)
            subject, object_, window, threshold = random_query(rng, tl)
            delta = F(rng.randint(-1000, 1000), rng.choice((1, 2, 3, 7)))
            base = evaluate(subject, object_, window, threshold, tl)
            shifted = evaluate(
                subject,
                object_,
                Interval(window.start + delta, window.end + delta),
                threshold,
                shift_timeline(tl, delta),
            )
            assert (base.holds, base.s, base.c) == (
                shifted.holds, shifted.s, shifted.c,
            )


class TestMeasureZeroExclusion:
    def test_abutting_signals_never_count(self):
        # Signals touch only at the shared endpoint 3: a zero-measure meet.
        tl = Timeline(
            agents=("a", "b"),
            acquaintances=(AcquaintanceRecord("a", "b", F(0)),),
            sensations=(
                SensationEpisode("s", "a", "b", Valence.POSITIVE, iset((2, 3))),
            ),
            judgments=(ValueJudgment("j", "a", "b", iset((3, 4))),),
        )
        for threshold in (F(1, 10**6), F(1), F(10**6)):
            v = evaluate("a", "b", Interval(F(0), F(5)), threshold, tl)
            assert (v.holds, v.s) == (False, 0)
            assert v.love_events == IntervalSet()
