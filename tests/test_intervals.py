"""Interval and interval-set algebra: pinned cases and pointwise laws."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loveline import (
    EmptyIntervalError,
    Interval,
    IntervalSet,
    Valence,
    format_rational,
)

from helpers import (
    count_comparisons,
    count_fraction_comparisons,
    member,
    sample_points,
)

F = Fraction

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=8)
widths = st.fractions(min_value=F(1, 8), max_value=10, max_denominator=8)
# Coprime grids, the last one 1/(2**61 - 1): each endpoint picks its own,
# so members rarely share a denominator and every comparison
# cross-multiplies, some of them in integers past 64 bits.
GRIDS = (7, 97, 2**61 - 1)
# Closer than a float can tell apart near 1.
TINY = F(1, 2**61 - 1)
nudges = st.integers(-2, 2).map(lambda k: k * TINY)
grid_fracs = st.sampled_from(GRIDS).flatmap(
    lambda g: st.integers(-20 * g, 20 * g).map(lambda k: F(k, g)))
grid_widths = st.sampled_from(GRIDS).flatmap(
    lambda g: st.integers(1, 10 * g).map(lambda k: F(k, g)))


@st.composite
def interval_sets(draw, max_size: int = 5, points=fracs,
                  lengths=widths) -> IntervalSet:
    intervals = []
    for _ in range(draw(st.integers(0, max_size))):
        a = draw(points)
        intervals.append(Interval(a, a + draw(lengths)))
    return IntervalSet(tuple(intervals))


# Endpoints from both of the above, negative ones included.
mixed_fracs = st.one_of(fracs, grid_fracs)
mixed_sets = interval_sets(points=mixed_fracs,
                           lengths=st.one_of(widths, grid_widths))


@st.composite
def set_pairs(draw) -> tuple[IntervalSet, IntervalSet]:
    """Two sets from :data:`mixed_sets`, or a set and its members with
    each end moved by at most ``2 * TINY``, in either order, so that ends
    of the two sets meet or just miss each other."""
    a = draw(mixed_sets)
    if not a or draw(st.booleans()):
        return a, draw(mixed_sets)
    moved = ((iv.start + draw(nudges), iv.end + draw(nudges)) for iv in a)
    b = IntervalSet(tuple(Interval(lo, hi) for lo, hi in moved if lo < hi))
    return (a, b) if draw(st.booleans()) else (b, a)


def cut_points(s: IntervalSet):
    """Points to clip ``s`` at: any rational, an int, or a member's start
    or end as a new Fraction (an int when it is whole), or moved by at
    most ``2 * TINY``."""
    options = [mixed_fracs, st.integers(-25, 25)]
    ends = [x for iv in s for x in (iv.start, iv.end)]
    if ends:
        options.append(st.sampled_from(ends).map(
            lambda x: int(x) if x.denominator == 1
            else F(x.numerator, x.denominator)))
        options.append(st.builds(lambda x, d: x + d,
                                 st.sampled_from(ends), nudges))
    return st.one_of(options)


@st.composite
def windows(draw) -> Interval:
    a = draw(fracs)
    return Interval(a, a + draw(widths))


@st.composite
def sets_and_windows(draw) -> tuple[IntervalSet, Interval]:
    """A set of up to 40 members, so bisection goes several levels deep,
    and a window whose ends are mostly the set's own endpoints, so windows
    that start at a member's end or end at a member's start come up often.
    Distinct sorted points paired off are already disjoint and
    non-adjacent."""
    points = sorted(draw(st.sets(fracs, max_size=80)))
    s = IntervalSet(tuple(
        Interval(a, b) for a, b in zip(points[::2], points[1::2])))
    ends = set(points).union(
        draw(st.lists(fracs, min_size=2, max_size=2, unique=True)))
    a, b = draw(st.lists(st.sampled_from(sorted(ends)),
                         min_size=2, max_size=2, unique=True))
    return s, Interval(min(a, b), max(a, b))


@st.composite
def sets_and_off_grid_windows(draw) -> tuple[IntervalSet, Interval]:
    """A set as in :func:`sets_and_windows` and a window whose ends lie on
    a grid of 1/7, 1/97 or 1/(2**61 - 1). The set's denominators are at
    most 8, so the last two grids never divide its scale: the cut rescales
    its edges (k > 1) and takes the ceiling of the window's end."""
    s, _ = draw(sets_and_windows())
    grid = draw(st.sampled_from((7, 97, 2**61 - 1)))
    a, b = draw(st.lists(st.integers(-21 * grid, 21 * grid),
                         min_size=2, max_size=2, unique=True))
    return s, Interval(F(min(a, b), grid), F(max(a, b), grid))


def iset(*pairs: tuple) -> IntervalSet:
    return IntervalSet(tuple(Interval(F(a), F(b)) for a, b in pairs))


def complement(window: Interval, cover: IntervalSet) -> IntervalSet:
    return IntervalSet((window,)).difference(cover)


def assert_normalized(s: IntervalSet) -> None:
    parts = list(s)
    for iv in parts:
        assert iv.start < iv.end
    for prev, nxt in zip(parts, parts[1:]):
        assert prev.end < nxt.start, "members must be disjoint and non-adjacent"


class TestInterval:
    def test_coerces_endpoints_to_exact_rationals(self):
        iv = Interval(1, F(5, 2))
        assert iv.start == F(1) and isinstance(iv.start, Fraction)
        assert iv.end == F(5, 2)

    def test_measure(self):
        assert Interval(F(1, 2), F(3, 4)).measure == F(1, 4)
        assert Interval(0, 10).measure == 10

    def test_membership_is_half_open(self):
        iv = Interval(2, 8)
        assert F(2) in iv
        assert F(8) not in iv
        assert F(79, 10) in iv

    def test_rejects_empty_and_reversed(self):
        with pytest.raises(EmptyIntervalError):
            Interval(5, 5)
        with pytest.raises(EmptyIntervalError):
            Interval(6, 5)

    def test_rejects_empty_with_an_unprintable_endpoint(self):
        # 5,001 digits: past Python's int/str limit, the message names the
        # limit instead of failing to print the start.
        with pytest.raises(EmptyIntervalError, match=r"^interval \[<more than"):
            Interval(F(10**5000), 1)

    def test_str(self):
        assert str(Interval(0, 10)) == "[0,10)"
        assert str(Interval(F(1, 2), F(3, 4))) == "[1/2,3/4)"


class TestNormalize:
    def test_overlap_merge(self):
        assert IntervalSet((Interval(0, 2), Interval(1, 3))) == iset((0, 3))

    def test_adjacency_merge(self):
        assert IntervalSet((Interval(0, 1), Interval(1, 2))) == iset((0, 2))

    def test_empty(self):
        assert IntervalSet(()) == IntervalSet()

    def test_idempotent_on_construction(self):
        s = IntervalSet((Interval(4, 6), Interval(0, 2), Interval(2, 3)))
        assert s == iset((0, 3), (4, 6))
        assert IntervalSet(tuple(s)) == s

    @given(interval_sets())
    def test_always_normalized(self, s: IntervalSet):
        assert_normalized(s)

    def test_any_iterable_of_members(self):
        members = [Interval(4, 6), Interval(0, 2), Interval(2, 3)]
        expected = iset((0, 3), (4, 6))
        for given_members in (members, tuple(members), iter(members),
                              (iv for iv in members)):
            s = IntervalSet(given_members)
            assert s == expected
            assert type(s.intervals) is tuple

    def test_one_or_no_member(self):
        only = Interval(1, 2)
        for given_members in ([only], (only,), iter([only])):
            assert IntervalSet(given_members).intervals == (only,)
        for given_members in ([], (), iter([])):
            assert IntervalSet(given_members).intervals == ()

    def test_equal_starts_merge_whatever_their_order(self):
        short, long = Interval(0, 1), Interval(0, 3)
        assert IntervalSet((short, long)) == IntervalSet((long, short)) \
            == iset((0, 3))
        assert IntervalSet((long, Interval(3, 4), short)) == iset((0, 4))


class TestUnion:
    def test_disjoint(self):
        assert iset((0, 2)).union(iset((3, 4))) == iset((0, 2), (3, 4))

    def test_identity_element(self):
        assert iset((0, 5)).union(IntervalSet()) == iset((0, 5))

    def test_bridging_merge(self):
        assert iset((0, 2), (4, 6)).union(iset((1, 5))) == iset((0, 6))

    @given(set_pairs())
    def test_pointwise(self, pair: tuple[IntervalSet, IntervalSet]):
        a, b = pair
        u = a.union(b)
        assert_normalized(u)
        for t in sample_points(a, b, u):
            assert member(t, u) == (member(t, a) or member(t, b))

    def test_many_operands(self):
        assert iset((0, 1)).union(iset((4, 5)), iset((1, 2)), iset((3, 4))) == (
            iset((0, 2), (3, 5)))

    @given(interval_sets(), st.lists(interval_sets(), max_size=4))
    def test_many_operands_pointwise(self, a: IntervalSet, others: list):
        u = a.union(*others)
        assert_normalized(u)
        for t in sample_points(a, *others, u):
            assert member(t, u) == any(member(t, s) for s in (a, *others))
        folded = a
        for s in others:
            folded = folded.union(s)
        assert u == folded
        # At most one operand with members: the result is that operand.
        filled = [s for s in (a, *others) if s]
        if len(filled) < 2:
            assert u is (filled[0] if filled else a)


class TestIntersect:
    def test_overlap(self):
        assert iset((0, 4)).intersect(iset((2, 6))) == iset((2, 4))

    def test_absorbing_element(self):
        assert iset((0, 4)).intersect(IntervalSet()) == IntervalSet()

    def test_split(self):
        assert iset((0, 2), (3, 6)).intersect(iset((1, 4))) == iset((1, 2), (3, 4))

    @given(set_pairs())
    def test_pointwise(self, pair: tuple[IntervalSet, IntervalSet]):
        a, b = pair
        m = a.intersect(b)
        assert_normalized(m)
        for t in sample_points(a, b, m):
            assert member(t, m) == (member(t, a) and member(t, b))


class TestDifference:
    def test_carves_hole(self):
        assert iset((0, 10)).difference(iset((3, 7))) == iset((0, 3), (7, 10))

    @given(set_pairs())
    def test_pointwise(self, pair: tuple[IntervalSet, IntervalSet]):
        a, b = pair
        d = a.difference(b)
        assert_normalized(d)
        for t in sample_points(a, b, d):
            assert member(t, d) == (member(t, a) and not member(t, b))

    @settings(deadline=None)
    @given(sets_and_windows(), sets_and_windows())
    def test_equals_a_brute_force_classification(self, a_case, b_case):
        # Up to 40 members each: every elementary segment between two
        # consecutive endpoints is in the difference exactly when its
        # midpoint is in ``a`` and not in ``b``.
        (a, _), (b, _) = a_case, b_case
        ends = sorted({t for iv in (*a, *b) for t in (iv.start, iv.end)})
        kept = tuple(
            Interval(lo, hi) for lo, hi in zip(ends, ends[1:])
            if member((lo + hi) / 2, a) and not member((lo + hi) / 2, b)
        )
        assert a.difference(b) == IntervalSet(kept)

    def test_alternating_sets_take_one_pass(self, monkeypatch):
        # [4k,4k+2) minus [4k+1,4k+3), with every endpoint comparison
        # counted: one pass makes a few per member, while a scan of
        # ``other`` restarted for every member of ``self`` makes about
        # n*n/2 (two million here).
        n = 2_000
        a = iset(*((4 * k, 4 * k + 2) for k in range(n)))
        b = iset(*((4 * k + 1, 4 * k + 3) for k in range(n)))
        counted = count_comparisons(monkeypatch)
        d = a.difference(b)
        assert d.intervals == tuple(Interval(4 * k, 4 * k + 1) for k in range(n))
        assert 0 < counted["comparisons"] <= 20 * n


class TestIntegerComparisons:
    @given(set_pairs(), st.data())
    def test_no_fraction_is_compared(self, pair, data):
        # Endpoints are compared by intervals._lt and _le, left as they
        # are, so the three operations compare no Fraction at all.
        a, b = pair
        cut = data.draw(cut_points(a))
        with pytest.MonkeyPatch.context() as patched:
            counted = count_fraction_comparisons(patched)
            a.intersect(b)
            a.difference(b)
            a.clip_from(cut)
            assert counted["comparisons"] == 0


class TestComplementWithin:
    """A window minus a cover, the way evaluation measures ``c``."""

    def test_middle(self):
        assert complement(Interval(0, 10), iset((3, 7))) == iset((0, 3), (7, 10))

    def test_empty_cover(self):
        assert complement(Interval(0, 10), IntervalSet()) == iset((0, 10))

    def test_full_cover(self):
        assert complement(Interval(0, 10), iset((0, 10))) == IntervalSet()

    @given(windows(), interval_sets())
    def test_partition(self, window: Interval, a: IntervalSet):
        inside = a.intersect(IntervalSet((window,)))
        outside = complement(window, a)
        assert inside.measure() + outside.measure() == window.measure
        assert inside.union(outside) == IntervalSet((window,))
        assert inside.intersect(outside) == IntervalSet()


class TestOperandReuse:
    """Sets and members are frozen, so a result that equals an operand or
    keeps a member whole shares it instead of copying it."""

    def test_empty_operands_give_the_other_operand(self):
        s = iset((0, 2), (3, 5))
        assert s.difference(IntervalSet()) is s
        assert s.union(IntervalSet()) is s
        assert IntervalSet().union(s) is s
        empty, other_empty = IntervalSet(), IntervalSet()
        assert empty.union(other_empty, s, IntervalSet()) is s
        assert s.union() is s
        assert empty.union(other_empty, IntervalSet()) is empty
        assert empty.union() is empty

    @pytest.mark.parametrize("t", [F(-1), F(0), 0])
    def test_clip_from_at_or_before_the_first_start(self, t):
        s = iset((0, 2), (3, 5))
        assert s.clip_from(t) is s

    def test_clip_from_inside_keeps_later_members(self):
        s = iset((0, 2), (3, 5), (6, 7))
        clipped = s.clip_from(F(1))
        assert clipped == iset((1, 2), (3, 5), (6, 7))
        assert all(a is b for a, b in zip(clipped.intervals[1:],
                                          s.intervals[1:]))
        assert s.clip_from(F(3)).intervals[0] is s.intervals[1]
        assert s.clip_from(F(7)) == IntervalSet()

    def test_intersect_keeps_a_member_inside_the_other(self):
        inner, outer = iset((2, 3), (5, 6)), iset((0, 10))
        for result in (inner.intersect(outer), outer.intersect(inner)):
            assert result == inner
            assert all(a is b for a, b in zip(result, inner))
        # Inside with a shared end, or equal: still an input member.
        a, b = iset((1, 4)), iset((0, 4))
        assert a.intersect(b).intervals[0] is a.intervals[0]
        assert b.intersect(a).intervals[0] is a.intervals[0]
        twin = iset((1, 4))
        assert a.intersect(twin).intervals[0] in (a.intervals[0],
                                                 twin.intervals[0])
        # A member the other cuts is new; one left whole is shared.
        a, b = iset((0, 4), (6, 7)), iset((2, 8))
        cut = a.intersect(b)
        assert cut == iset((2, 4), (6, 7))
        assert cut.intervals[1] is a.intervals[1]

    def test_difference_keeps_members_no_cut_reaches(self):
        s = iset((0, 2), (3, 5), (6, 8))
        d = s.difference(iset((4, F(9, 2)), (9, 10)))
        assert d == iset((0, 2), (3, 4), (F(9, 2), 5), (6, 8))
        assert d.intervals[0] is s.intervals[0]
        assert d.intervals[-1] is s.intervals[-1]
        # A cut that only touches a member's end leaves it whole.
        touched = s.difference(iset((2, 3)))
        assert touched == s
        assert all(a is b for a, b in zip(touched, s))

    @given(interval_sets(), interval_sets())
    def test_kept_members_are_shared(self, a: IntervalSet, b: IntervalSet):
        # A result member equal to an input member is an input member.
        members = (*a, *b)
        for result in (a.intersect(b), a.difference(b)):
            for iv in result:
                if iv in members:
                    assert any(iv is m for m in members)


class TestWithin:
    """Bisection for a window against the linear reading."""

    S = iset((0, 2), (4, 6), (8, 10))

    @pytest.mark.parametrize("window, inside", [
        (Interval(2, 4), IntervalSet()),  # a gap, abutting members both sides
        (Interval(F(9, 2), 5), iset((F(9, 2), 5))),  # inside one member
        (Interval(-1, 11), S),  # covers every member
        (Interval(-1, 0), IntervalSet()),  # abuts the first member's start
        (Interval(10, 12), IntervalSet()),  # abuts the last member's end
        (Interval(1, 9), iset((1, 2), (4, 6), (8, 9))),  # clips both edges
    ])
    def test_pinned(self, window: Interval, inside: IntervalSet):
        assert self.S.within(window) == inside

    def test_empty_set(self):
        assert IntervalSet().within(Interval(0, 1)) == IntervalSet()
        assert F(0) not in IntervalSet()

    def test_membership_is_half_open(self):
        assert [t in self.S for t in (-1, 0, 1, 2, 3, 4, 6, 8, F(19, 2), 10)] \
            == [False, True, True, False, False, True, False, True, True, False]

    @settings(deadline=None)
    @given(sets_and_windows())
    def test_within_is_intersect_with_the_window(self, case):
        s, window = case
        inside = s.within(window)
        assert_normalized(inside)
        assert inside == IntervalSet((window,)).intersect(s)

    @settings(deadline=None)
    @given(sets_and_off_grid_windows())
    def test_cut_on_a_finer_grid(self, case):
        s, window = case
        inside, n, c, m = s._cut(window)
        assert_normalized(inside)
        assert inside == s.within(window)
        assert inside == IntervalSet((window,)).intersect(s)
        assert F(n, m) == inside.measure()
        assert F(n + c, m) == window.measure

    def test_cached_edges_are_not_part_of_the_value(self):
        cut = iset((F(1, 2), 3), (4, F(13, 3)))
        fresh = IntervalSet(cut.intervals)
        assert cut.within(Interval(F(1, 3), F(22, 7))) == iset((F(1, 2), 3))
        assert cut._scaled == (6, (3, 18, 24, 26))
        assert not hasattr(fresh, "_scaled")
        assert cut == fresh and hash(cut) == hash(fresh)
        assert repr(cut) == repr(fresh)
        assert not hasattr(dataclasses.replace(cut), "_scaled")


class TestMeasure:
    def test_pinned(self):
        assert iset((0, 3), (7, 10)).measure() == 6
        assert IntervalSet().measure() == 0
        assert iset((F(1, 2), F(3, 4))).measure() == F(1, 4)

    @given(interval_sets())
    def test_nonnegative_and_exact(self, a: IntervalSet):
        total = a.measure()
        assert isinstance(total, Fraction)
        assert total >= 0
        assert total == sum((iv.end - iv.start for iv in a), F(0))


class TestAlgebraicLaws:
    @given(interval_sets(), interval_sets())
    def test_additivity(self, a: IntervalSet, b: IntervalSet):
        assert a.union(b).measure() + a.intersect(b).measure() == (
            a.measure() + b.measure()
        )

    @given(interval_sets())
    def test_idempotence(self, a: IntervalSet):
        assert a.union(a) == a
        assert a.intersect(a) == a

    @given(interval_sets(), interval_sets())
    def test_commutativity(self, a: IntervalSet, b: IntervalSet):
        assert a.union(b) == b.union(a)
        assert a.intersect(b) == b.intersect(a)

    @given(interval_sets(), interval_sets(), interval_sets())
    def test_associativity(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    @given(mixed_sets, st.data())
    def test_clip_from_pointwise(self, a: IntervalSet, data):
        cut = data.draw(cut_points(a))
        clipped = a.clip_from(cut)
        assert_normalized(clipped)
        for t in (*sample_points(a, clipped), cut):
            assert member(t, clipped) == (member(t, a) and t >= cut)


class TestUnitTickAgreement:
    def test_integer_ticks(self):
        # Brute-force per-tick membership over integer grids agrees with
        # the set operations.
        a = iset((0, 2), (5, 9))
        b = iset((1, 6))
        for tick in range(-1, 11):
            t = F(tick)
            assert member(t, a.union(b)) == (member(t, a) or member(t, b))
            assert member(t, a.intersect(b)) == (member(t, a) and member(t, b))
            assert member(t, complement(Interval(0, 10), a)) == (
                0 <= tick < 10 and not member(t, a)
            )


class TestFormatting:
    def test_format_rational(self):
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(4)) == "4"
        assert format_rational(F(8, 2)) == "4"
        assert format_rational(F(-5, 3)) == "-5/3"
        # str's wording, pinned on every Python the project supports.
        assert format_rational(-4) == str(-4) == "-4"
        assert format_rational(F(-8, 6)) == str(F(-8, 6)) == "-4/3"
        assert str(Valence.POSITIVE) == "positive"
        assert str(Valence.NEGATIVE) == "negative"

    def test_format_interval_set(self):
        assert str(iset((0, 2), (4, 6))) == "[0,2)+[4,6)"
        assert str(IntervalSet()) == ""
        assert str(iset((0, 2))) == "[0,2)"
