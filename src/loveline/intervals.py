"""Exact rational time arithmetic and half-open interval mereology.

Time points are :class:`fractions.Fraction` values (arbitrary precision,
stored in lowest terms), intervals are half-open ``[start, end)`` with
strictly positive measure, and interval sets are normalized disjoint,
non-adjacent, ascending unions. All operations are pure and exact; no
floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .diagnostics import EmptyIntervalError

# A time point or duration. Fraction already guarantees the invariants we
# need: positive denominator and lowest-terms storage.
Instant = Fraction
Rational = Union[int, Fraction]


def format_rational(value: Rational) -> str:
    """Render ``value`` as ``num/den``, or bare ``num`` when integral."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
        if self.start >= self.end:
            raise EmptyIntervalError(
                f"interval [{format_rational(self.start)},"
                f"{format_rational(self.end)}) has no positive measure"
            )

    @property
    def measure(self) -> Fraction:
        return self.end - self.start

    def __contains__(self, t: Rational) -> bool:
        return self.start <= t < self.end

    def __str__(self) -> str:
        return f"[{format_rational(self.start)},{format_rational(self.end)})"


@dataclass(frozen=True)
class IntervalSet:
    """Normalized union of half-open intervals.

    Construction merges overlapping and abutting members, so the stored
    tuple is always sorted ascending with ``end_k < start_{k+1}``. Equality
    and hashing therefore coincide with point-set equality.
    """

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _merge(self.intervals))

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

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i].start, b[j].start)
            hi = min(a[i].end, b[j].end)
            if lo < hi:
                out.append(Interval(lo, hi))
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Points of ``self`` not in ``other``."""
        out: list[Interval] = []
        for iv in self.intervals:
            cursor = iv.start
            for cut in other.intervals:
                if cut.end <= cursor:
                    continue
                if cut.start >= iv.end:
                    break
                if cut.start > cursor:
                    out.append(Interval(cursor, cut.start))
                cursor = max(cursor, cut.end)
                if cursor >= iv.end:
                    break
            if cursor < iv.end:
                out.append(Interval(cursor, iv.end))
        return IntervalSet(tuple(out))

    def clip_from(self, t: Rational) -> "IntervalSet":
        """Points of ``self`` at or after ``t``."""
        out: list[Interval] = []
        for iv in self.intervals:
            if iv.end <= t:
                continue
            out.append(iv if iv.start >= t else Interval(Fraction(t), iv.end))
        return IntervalSet(tuple(out))


def _merge(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    out: list[Interval] = []
    for iv in ordered:
        # "start <= last.end" merges overlaps and abutting neighbours alike.
        if out and iv.start <= out[-1].end:
            if iv.end > out[-1].end:
                out[-1] = Interval(out[-1].start, iv.end)
        else:
            out.append(iv)
    return tuple(out)
