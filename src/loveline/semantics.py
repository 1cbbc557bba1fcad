"""Love-predicate evaluation over declarative timelines.

The predicate ``loves(S, P)`` is decided over a query interval ``i`` by
measuring how much of ``i`` is covered by love events. A love event is an
instant where two condition signals coincide:

* condition (i): S bears a positive sensation causally correlated with P,
  at or above the configured intensity floor;
* condition (ii): S judges valuable either such a sensation while it is
  live (a derived judgment of P) or P directly, and S has already become
  acquainted with P.

Inhibition episodes mask both signals while active. With ``s`` the measure
of love events inside ``i`` and ``c`` the measure of the remainder, the
predicate holds exactly when ``T < s/c``, or trivially when the remainder
is empty but love events are not. All arithmetic is exact.

:func:`evaluate` is the production route. :func:`tick_oracle` recomputes
the same verdict by brute-force quantification over discrete ticks and
exists so tests can cross-check the two routes; the two implementations
are deliberately kept independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .diagnostics import GranularityError, ThresholdError
from .intervals import Interval, IntervalSet, _le, _lt, message_rational
from .model import SensationEpisode, Timeline, Valence


@dataclass(frozen=True)
class Verdict:
    """Outcome of one predicate evaluation.

    Invariants: ``s + c`` equals the query interval's measure exactly;
    ``love_events`` is contained in the query interval and measures ``s``.
    """

    holds: bool
    s: Fraction
    c: Fraction
    threshold: Fraction
    love_events: IntervalSet


class PairSignals(NamedTuple):
    """Every signal of one pair over all time, computed once.

    ``condition_i`` and the two ``condition_ii`` parts are unrestricted by
    the query window (the parts are already acquaintance-clipped and
    inhibition-masked), so intersecting ``condition_i`` with the union of
    the parts and the window reproduces ``verdict.love_events``.

    :func:`evaluate` and :func:`explain` cut the query window from these
    sets with :meth:`IntervalSet._cut`, which keeps a set's integer edges
    on it after its first cut; :func:`tick_oracle` reads none of this.
    """

    condition_i: IntervalSet
    condition_ii_derived: IntervalSet
    condition_ii_direct: IntervalSet
    acquaintance_onset: Fraction | None
    inhibition_mask: IntervalSet
    # condition (i) ∩ (derived ∪ direct): the love events before windowing.
    love: IntervalSet


@dataclass(frozen=True)
class Trace:
    """The signals behind one verdict, for explanations: ``signals`` is the
    pair's cached :class:`PairSignals` record itself."""

    signals: PairSignals
    first_failure: str | None
    verdict: Verdict


class _PairIndex:
    """A timeline's records grouped by the pair or agent they concern.

    Built in one pass on first use and kept on the timeline (see
    :func:`_index_of`), so every signal below reads only its own pair's
    records. ``signals`` caches each pair's :class:`PairSignals`, keyed by
    ``(subject, object)``.
    """

    __slots__ = ("sensations", "judgments", "inhibit", "onset", "signals")

    def __init__(self, timeline: Timeline) -> None:
        # Positive sensations by (bearer, correlate).
        self.sensations: dict[tuple[str, str], list[SensationEpisode]] = {}
        # Judgment extents by (agent, target).
        self.judgments: dict[tuple[str, str], list[IntervalSet]] = {}
        # Inhibition extents by (agent, toward); toward is None when untargeted.
        self.inhibit: dict[tuple[str, str | None], list[IntervalSet]] = {}
        # Earliest acquaintance by (subject, object).
        self.onset: dict[tuple[str, str], Fraction] = {}
        self.signals: dict[tuple[str, str], PairSignals] = {}
        for ep in timeline.sensations:
            if ep.valence is Valence.POSITIVE:
                pair = (ep.bearer, ep.correlate)
                self.sensations.setdefault(pair, []).append(ep)
        for j in timeline.judgments:
            self.judgments.setdefault((j.agent, j.target), []).append(j.extent)
        for inh in timeline.inhibitions:
            pair = (inh.agent, inh.toward)
            self.inhibit.setdefault(pair, []).append(inh.extent)
        for rec in timeline.acquaintances:
            pair = (rec.subject, rec.object)
            if pair not in self.onset or _lt(rec.at, self.onset[pair]):
                self.onset[pair] = rec.at


def _index_of(timeline: Timeline) -> _PairIndex:
    # An immutable timeline's index stays valid. It is an attribute, not a
    # field, so equality, hashing, repr and every dataclasses helper skip it.
    index = getattr(timeline, "_pair_index", None)
    if index is None:
        index = _PairIndex(timeline)
        object.__setattr__(timeline, "_pair_index", index)
    return index


# Every union in a pair record starts from this one empty set: a fresh one
# per union added 5% to a cold evaluation of all wide-5k queries.
_EMPTY = IntervalSet()


def _signals_of(subject: str, object_: str, timeline: Timeline) -> PairSignals:
    """One pair's signals, built from the index on first use and cached;
    the public functions below say what each one means."""
    index, pair = _index_of(timeline), (subject, object_)
    signals = index.signals.get(pair)
    if signals is not None:
        return signals
    mask = _EMPTY.union(*index.inhibit.get((subject, None), ()),
                        *index.inhibit.get(pair, ()))
    floor = timeline.config.min_intensity
    episodes = index.sensations.get(pair, ())
    cond_i = _EMPTY.union(*(ep.extent for ep in episodes
                            if _le(floor, ep.intensity))).difference(mask)
    onset = index.onset.get(pair)
    if onset is None:
        derived = direct = love = _EMPTY
    else:
        derived = _EMPTY.union(*(
            extent.intersect(ep.extent)
            for ep in episodes
            for extent in index.judgments.get((subject, ep.id), ())
        )).clip_from(onset).difference(mask)
        direct = _EMPTY.union(*index.judgments.get(pair, ()))
        direct = direct.clip_from(onset).difference(mask)
        love = cond_i.intersect(derived.union(direct))
    signals = PairSignals(cond_i, derived, direct, onset, mask, love)
    index.signals[pair] = signals
    return signals


def inhibition_mask(subject: str, object_: str, timeline: Timeline) -> IntervalSet:
    """Instants where ``subject``'s inhibitory control blocks both signals.

    An episode applies when its agent is ``subject`` and it is either
    untargeted or aimed at ``object_``.
    """
    return _signals_of(subject, object_, timeline).inhibition_mask


def condition_i_signal(
    subject: str, object_: str, timeline: Timeline
) -> IntervalSet:
    """Instants where condition (i) holds: qualifying positive sensation.

    Qualifying episodes have bearer ``subject``, correlate ``object_``,
    positive valence, and intensity at or above the timeline's
    ``config.min_intensity``. The inhibition mask is subtracted.
    """
    return _signals_of(subject, object_, timeline).condition_i


def acquaintance_onset(
    subject: str, object_: str, timeline: Timeline
) -> Fraction | None:
    """Earliest instant at which ``subject`` met ``object_``, if ever."""
    return _signals_of(subject, object_, timeline).acquaintance_onset


def condition_ii_components(
    subject: str, object_: str, timeline: Timeline
) -> tuple[IntervalSet, IntervalSet]:
    """The two parts of condition (ii): (derived, direct).

    Derived: for each positive sensation of ``subject`` correlated with
    ``object_`` and each judgment by ``subject`` of that episode, the
    overlap of judgment and sensation extents. The overlap requirement
    keeps the judged sensation live while judged, which is what lets the
    judgment reach ``object_`` through the sensation's correlate.
    Direct: extents of judgments by ``subject`` whose target is
    ``object_`` itself.

    Both parts come back clipped to the acquaintance onset and minus the
    inhibition mask; without acquaintance both are empty.
    """
    signals = _signals_of(subject, object_, timeline)
    return signals.condition_ii_derived, signals.condition_ii_direct


def _check_threshold(threshold: Fraction) -> None:
    # A Fraction's sign is its numerator's: an int comparison, where
    # comparing the Fraction runs an ABC instance check that is slow
    # whenever other work has pushed it out of the CPU caches.
    if (threshold.numerator if type(threshold) is Fraction
            else threshold) <= 0:
        raise ThresholdError(
            f"threshold {message_rational(threshold)} must be positive"
        )


def evaluate(
    subject: str,
    object_: str,
    interval: Interval,
    threshold: Fraction,
    timeline: Timeline,
) -> Verdict:
    """Decide ``loves(subject, object_)`` over ``interval`` at ``threshold``.

    Raises :class:`ThresholdError` when ``threshold`` is not positive.
    Nonpositive query intervals cannot be represented: :class:`Interval`
    construction already rejects them.
    """
    _check_threshold(threshold)
    if type(threshold) is not Fraction:
        threshold = Fraction(threshold)
    record = _signals_of(subject, object_, timeline)
    events, s, c, m = record.love._cut(interval)
    # s + c is the window's positive measure, so c = 0 implies s > 0: love
    # events fill the window. Otherwise T < s/c, with c > 0, is T·c < s,
    # which fails when s = 0.
    tn, td = threshold.as_integer_ratio()
    return Verdict(
        holds=c == 0 or tn * c < td * s,
        s=Fraction(s, m),
        c=Fraction(c, m),
        threshold=threshold,
        love_events=events,
    )


def love_state_at(
    subject: str,
    object_: str,
    t: Fraction,
    interval: Interval,
    threshold: Fraction,
    timeline: Timeline,
) -> tuple[bool, bool]:
    """Momentary states at instant ``t``, derivative of the interval verdict.

    Returns ``(in_love_event, within_loving_process)``. The process state
    is exactly the interval verdict; the event state is membership of ``t``
    in the love-event set. ``t`` is expected to lie within ``interval``.
    """
    verdict = evaluate(subject, object_, interval, threshold, timeline)
    return (Fraction(t) in verdict.love_events, verdict.holds)


def explain(
    subject: str,
    object_: str,
    interval: Interval,
    threshold: Fraction,
    timeline: Timeline,
) -> Trace:
    """Expose the signals behind a verdict and name the first failing stage.

    ``first_failure`` is judged within the query window, earliest stage
    first: no acquaintance, then an empty condition (i), then an empty
    condition (ii), then a ratio at or below the threshold; ``None`` when
    the predicate holds. The verdict is :func:`evaluate`'s, and it alone
    decides the stage when the window holds love events.
    """
    verdict = evaluate(subject, object_, interval, threshold, timeline)
    signals = _signals_of(subject, object_, timeline)
    # love = condition (i) ∩ (derived ∪ direct), so love events in the
    # window (s > 0) lie in both conditions there: only the ratio can fail.
    # With s = 0 the verdict fails, since c = 0 would need s > 0.
    if signals.acquaintance_onset is None:
        failure = "no acquaintance"
    elif verdict.s:
        failure = None if verdict.holds else "ratio below threshold"
    elif not signals.condition_i.within(interval):
        failure = "condition (i) empty"
    elif not (signals.condition_ii_derived.within(interval)
              or signals.condition_ii_direct.within(interval)):
        failure = "condition (ii) empty"
    else:
        failure = "ratio below threshold"
    return Trace(signals, failure, verdict)


# Most ticks :func:`tick_oracle` walks for one query: each tick scans the
# pair's records, so a finer grid would run for hours rather than fail.
MAX_ORACLE_TICKS = 1_000_000


def _timeline_endpoints(timeline: Timeline) -> list[Fraction]:
    """Every endpoint of the timeline's records, in the timeline's order."""
    points: list[Fraction] = []
    for rec in timeline.acquaintances:
        points.append(rec.at)
    for ep in timeline.sensations:
        for iv in ep.extent:
            points.extend((iv.start, iv.end))
    for j in timeline.judgments:
        for iv in j.extent:
            points.extend((iv.start, iv.end))
    for inh in timeline.inhibitions:
        for iv in inh.extent:
            points.extend((iv.start, iv.end))
    for q in timeline.queries:
        points.extend((q.interval.start, q.interval.end))
    return points


def _tick_in(t: Fraction, extent: IntervalSet) -> bool:
    # Raw endpoint comparison, bypassing the interval-set algebra on
    # purpose: the oracle must not share the production code path.
    return any(iv.start <= t < iv.end for iv in extent)


def tick_oracle(
    subject: str,
    object_: str,
    interval: Interval,
    threshold: Fraction,
    timeline: Timeline,
    granularity: Fraction,
) -> Verdict:
    """Brute-force re-evaluation on a grid of ``granularity``-wide ticks.

    Every endpoint in the timeline and the query interval must be an exact
    multiple of ``granularity`` (else :class:`GranularityError`), so each
    tick is uniformly inside or outside every extent and per-tick
    quantification is exact. More than :data:`MAX_ORACLE_TICKS` ticks in
    the query interval also raise :class:`GranularityError`, before any
    tick is visited. Must agree with :func:`evaluate` under those
    preconditions.
    """
    _check_threshold(threshold)
    granularity = Fraction(granularity)
    if granularity <= 0:
        raise GranularityError(
            f"granularity {message_rational(granularity)} must be positive"
        )
    # a/b divided by p/q is whole iff b*p divides a*q: integer arithmetic,
    # with no Fraction built per endpoint.
    p, q = granularity.numerator, granularity.denominator

    def off_grid(points: Iterable[Fraction]) -> Fraction | None:
        return next(
            (x for x in points if (x.numerator * q) % (x.denominator * p)), None
        )

    # The window's ends first, on every call. The rest of the timeline is
    # checked once per granularity: its first off-grid endpoint, or None, is
    # kept in an attribute only the oracle reads, which a timeline made by
    # dataclasses.replace does not have.
    point = off_grid((interval.start, interval.end))
    if point is None:
        checked = getattr(timeline, "_oracle_off_grid", None)
        if checked is None:
            checked = {}
            object.__setattr__(timeline, "_oracle_off_grid", checked)
        if granularity not in checked:
            checked[granularity] = off_grid(_timeline_endpoints(timeline))
        point = checked[granularity]
    if point is not None:
        raise GranularityError(
            f"granularity {message_rational(granularity)} does not divide "
            f"endpoint {message_rational(point)}"
        )
    floor = timeline.config.min_intensity

    # Once per query, before any tick: only the pair's own records can
    # decide a tick, so the tick loop never scans the rest of the timeline.
    felt = [
        ep for ep in timeline.sensations
        if ep.bearer == subject
        and ep.correlate == object_
        and ep.valence is Valence.POSITIVE
    ]
    strong = [ep for ep in felt if ep.intensity >= floor]
    valued = [
        j for j in timeline.judgments
        if j.agent == subject
        and (j.target == object_ or any(ep.id == j.target for ep in felt))
    ]
    masks = [
        inh for inh in timeline.inhibitions
        if inh.agent == subject and inh.toward in (None, object_)
    ]
    onset: Fraction | None = None
    for rec in timeline.acquaintances:
        if rec.subject == subject and rec.object == object_:
            if onset is None or rec.at < onset:
                onset = rec.at

    def masked(t: Fraction) -> bool:
        return any(_tick_in(t, inh.extent) for inh in masks)

    def cond_i_at(t: Fraction) -> bool:
        return any(_tick_in(t, ep.extent) for ep in strong)

    def cond_ii_at(t: Fraction) -> bool:
        if onset is None or t < onset:
            return False
        for j in valued:
            if not _tick_in(t, j.extent):
                continue
            if j.target == object_:
                return True
            for ep in felt:
                if ep.id == j.target and _tick_in(t, ep.extent):
                    return True
        return False

    tick_count = (interval.end - interval.start) / granularity
    assert tick_count.denominator == 1
    if tick_count > MAX_ORACLE_TICKS:
        raise GranularityError(
            f"granularity {message_rational(granularity)} over "
            f"[{message_rational(interval.start)},{message_rational(interval.end)}) "
            f"is above the cap of {MAX_ORACLE_TICKS} ticks"
        )

    qualifying = 0
    runs: list[Interval] = []
    run_start: Fraction | None = None
    for k in range(int(tick_count)):
        t = interval.start + k * granularity
        hit = cond_i_at(t) and cond_ii_at(t) and not masked(t)
        if hit:
            qualifying += 1
            if run_start is None:
                run_start = t
        elif run_start is not None:
            runs.append(Interval(run_start, t))
            run_start = None
    if run_start is not None:
        runs.append(Interval(run_start, interval.end))

    s = qualifying * granularity
    c = (interval.end - interval.start) - s
    return Verdict(
        # Decided here, not by evaluate's integer test, so a fault in either
        # ratio test shows as a disagreement.
        holds=c == 0 or threshold < s / c,
        s=s,
        c=c,
        threshold=Fraction(threshold),
        love_events=IntervalSet(tuple(runs)),
    )
