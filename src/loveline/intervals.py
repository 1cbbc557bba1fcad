"""Exact rational time arithmetic and half-open interval mereology.

Time points are :class:`fractions.Fraction` values (arbitrary precision,
stored in lowest terms), intervals are half-open ``[start, end)`` with
strictly positive measure, and interval sets are normalized disjoint,
non-adjacent, ascending unions. All operations are pure and exact; no
floating point is involved anywhere.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator, Union

from .diagnostics import EmptyIntervalError

# A time point or duration. Fraction already guarantees the invariants we
# need: positive denominator and lowest-terms storage.
Instant = Fraction
Rational = Union[int, Fraction]


def format_rational(value: Rational) -> str:
    """``str(value)``: ``num/den`` in lowest terms, or ``num`` when integral.
    Past Python's int/str limit this raises; see :func:`message_rational`."""
    return str(value)


def message_rational(value: Rational) -> str:
    """``value`` as every message words it: ``str(value)``, or
    ``<more than N digits>`` past the limit, so no message raises."""
    try:
        return str(value)
    except ValueError:
        return f"<more than {sys.get_int_max_str_digits()} digits>"


def _lt(a: Rational, b: Rational) -> bool:
    """``a < b`` for two endpoints, each an ``int`` or a ``Fraction``,
    cross-multiplied in integers (denominators are positive): comparing
    Fractions runs the ``numbers.Rational`` instance check, which costs
    more than the products."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return an * bd < bn * ad


def _le(a: Rational, b: Rational) -> bool:
    """``a <= b``, in integers as :func:`_lt`."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return an * bd <= bn * ad


@dataclass(frozen=True)
class Interval:
    """Half-open span ``[start, end)`` with ``start < end``."""

    start: Fraction
    end: Fraction

    def __post_init__(self) -> None:
        # Wrap ints and Fraction subclasses; a Fraction is kept as given.
        if type(self.start) is not Fraction:
            object.__setattr__(self, "start", Fraction(self.start))
        if type(self.end) is not Fraction:
            object.__setattr__(self, "end", Fraction(self.end))
        # The one emptiness rule, for both readers and for code: start < end,
        # cross-multiplied in integers (denominators are positive), since a
        # Fraction comparison costs about as much as the rest of the build.
        sn, sd = self.start.as_integer_ratio()
        en, ed = self.end.as_integer_ratio()
        if sn * ed >= en * sd:
            raise EmptyIntervalError(
                f"interval [{message_rational(self.start)},"
                f"{message_rational(self.end)}) has no positive measure"
            )

    @classmethod
    def _unchecked(cls, start: Fraction, end: Fraction) -> "Interval":
        # For Fraction ends already known to satisfy start < end, such as a
        # member clipped at a window edge that lies inside it: without the
        # type tests and the check, the build costs about a quarter less.
        result = object.__new__(cls)
        object.__setattr__(result, "start", start)
        object.__setattr__(result, "end", end)
        return result

    @property
    def measure(self) -> Fraction:
        return self.end - self.start

    def __contains__(self, t: Rational) -> bool:
        return self.start <= t < self.end

    def __str__(self) -> str:
        # str(x), not f"{x}": Fraction.__format__ is slow from Python 3.12.
        return f"[{str(self.start)},{str(self.end)})"


@dataclass(frozen=True)
class IntervalSet:
    """Normalized union of half-open intervals.

    Construction merges overlapping and abutting members, so the stored
    tuple is always sorted ascending with ``end_k < start_{k+1}``. Equality
    and hashing therefore coincide with point-set equality. Operations
    whose result is already normalized (``within``, ``intersect``,
    ``difference``, ``clip_from``) skip the merge. ``within`` is a set's
    one window lookup: it bisects integer edges that a set works out on its
    first cut and keeps in an attribute, not a field, so equality, hashing,
    ``repr`` and ``dataclasses.replace`` skip them.

    Sets and members are frozen, so results share them: ``union`` of any
    number of sets with at most one that has members, ``difference`` by an
    empty set and ``clip_from`` at or before the first start return an
    operand itself, and a member that ``intersect`` or ``difference``
    leaves whole is the input member, not a copy.

    ``intersect``, ``difference``, ``clip_from`` and the merge compare
    endpoints by :func:`_lt` and :func:`_le`, in integers and with no
    scale kept; only the merge's sort, in a union of several sets,
    compares Fractions.
    """

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _merge(self.intervals))

    @classmethod
    def _normalized(cls, intervals: tuple[Interval, ...]) -> "IntervalSet":
        # For members already sorted, disjoint and non-adjacent, such as a
        # slice of a normalized set: the merge would return them unchanged.
        result = object.__new__(cls)
        object.__setattr__(result, "intervals", intervals)
        return result

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __contains__(self, t: Rational) -> bool:
        return any(t in iv for iv in self.intervals)

    def __str__(self) -> str:
        """Render as ``[a,b)+[c,d)``; empty sets render as an empty string."""
        return "+".join(str(iv) for iv in self.intervals)

    def measure(self) -> Fraction:
        """Total length: the sum of ``end - start`` over all members."""
        return sum((iv.end - iv.start for iv in self.intervals), Fraction(0))

    def within(self, window: Interval) -> "IntervalSet":
        """Points of ``self`` inside ``window``, by :meth:`_cut`."""
        return self._cut(window)[0]

    def _cut(self, window: Interval) -> tuple["IntervalSet", int, int, int]:
        """``(inside, s, c, m)``: the points of ``self`` inside ``window``,
        their measure ``s`` and the rest of the window's ``c``, both counted
        in units of ``1/m``. No Fraction is compared: the members are found
        by bisecting the set's integer edges, worked out on its first cut."""
        scaled = getattr(self, "_scaled", None)
        if scaled is None:
            # L, the lcm of the endpoint denominators, and the edges
            # s0·L, e0·L, s1·L, …, strictly ascending because the members
            # are disjoint and not adjacent.
            points = [x for iv in self.intervals for x in (iv.start, iv.end)]
            scale = lcm(*(x.denominator for x in points))
            scaled = (scale, tuple(x.numerator * (scale // x.denominator)
                                   for x in points))
            object.__setattr__(self, "_scaled", scaled)
        scale, edges = scaled
        # Every measure below is an integer count of 1/m: m is a multiple of
        # the set's scale and of both window denominators, and one unit of
        # the set's scale is k of them.
        a, b = window.start, window.end
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        m = lcm(scale, ad, bd)
        k = m // scale
        ws = an * (m // ad)
        we = bn * (m // bd)
        # Edges i:j (both even, so each pair is one member) are the members
        # ending after the window starts, up to the first one starting at or
        # after it ends. An edge exceeds ws/k exactly when it exceeds its
        # floor, and reaches we/k exactly when it reaches its ceiling.
        i = bisect_right(edges, ws // k) & ~1
        j = (bisect_left(edges, -(-we // k), i) + 1) & ~1
        members = self.intervals[i // 2:j // 2]
        s = 0
        if members:
            s = k * (sum(edges[i + 1:j:2]) - sum(edges[i:j:2]))
            first, last = edges[i] * k, edges[j - 1] * k
            if first < ws or last > we:
                # A clipped member keeps a positive measure: it ends after ws
                # and starts before we, so its Interval is built unchecked.
                clipped = list(members)
                if first < ws:
                    s -= ws - first
                    clipped[0] = Interval._unchecked(a, clipped[0].end)
                if last > we:
                    s -= last - we
                    clipped[-1] = Interval._unchecked(clipped[-1].start, b)
                members = tuple(clipped)
        return IntervalSet._normalized(members), s, we - ws - s, m

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        """Every point of ``self`` and ``others``, merged once. When at most
        one operand has members, that operand itself is the result, or
        ``self`` when none has."""
        filled = [s for s in (self, *others) if s.intervals]
        if len(filled) < 2:
            return filled[0] if filled else self
        return IntervalSet(tuple(iv for s in filled for iv in s.intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Common points, in one pass over each: each step passes the
        member that ends first and keeps its overlap with the other."""
        out: list[Interval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            if _le(x.end, y.end):
                i += 1
            else:
                x, y = y, x
                j += 1
            # x ends first, so it lies inside y when it starts no earlier,
            # and y lies inside x when it starts later and they end together.
            if _le(y.start, x.start):
                out.append(x)
            elif _lt(y.start, x.end):
                out.append(y if _le(y.end, x.end) else Interval(y.start, x.end))
        return IntervalSet._normalized(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Points of ``self`` not in ``other``, in one pass over each: the
        cursor into ``other`` only moves forward."""
        cuts = other.intervals
        if not cuts:
            return self
        out: list[Interval] = []
        j = 0
        for iv in self.intervals:
            cursor = iv.start
            while j < len(cuts) and _lt(cuts[j].start, iv.end):
                cut = cuts[j]
                if _lt(cursor, cut.start):
                    out.append(Interval(cursor, cut.start))
                if _lt(cursor, cut.end):
                    if _le(iv.end, cut.end):
                        break  # this cut may also cover the next member
                    cursor = cut.end
                j += 1
            else:
                # The rest of the member; all of it when no cut reached it.
                out.append(iv if cursor is iv.start else Interval(cursor, iv.end))
        return IntervalSet._normalized(tuple(out))

    def clip_from(self, t: Rational) -> "IntervalSet":
        """Points of ``self`` at or after ``t``."""
        members = self.intervals
        if not members or _le(t, members[0].start):
            return self
        # bisect_right on the ends, in integers: the first member ending
        # after t.
        lo, hi = 0, len(members)
        while lo < hi:
            mid = (lo + hi) // 2
            if _lt(t, members[mid].end):
                hi = mid
            else:
                lo = mid + 1
        out = members[lo:]
        if out and _lt(out[0].start, t):
            out = (Interval(t, out[0].end), *out[1:])
        return IntervalSet._normalized(out)


_START = attrgetter("start")


def _merge(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    if type(intervals) is not tuple:
        intervals = tuple(intervals)
    if len(intervals) < 2:
        return intervals
    # Equal starts need no end order: the later member extends or is absorbed.
    ordered = sorted(intervals, key=_START)
    out = [ordered[0]]
    for iv in ordered[1:]:
        # "start <= last.end" merges overlaps and abutting neighbours alike.
        if _le(iv.start, out[-1].end):
            if _lt(out[-1].end, iv.end):
                out[-1] = Interval(out[-1].start, iv.end)
        else:
            out.append(iv)
    return tuple(out)
