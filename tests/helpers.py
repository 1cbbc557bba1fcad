"""Shared generators and independent pointwise checkers.

The checkers here deliberately avoid the interval-set algebra: membership
is decided by raw endpoint comparison so that set operations are verified
against an implementation-free reading of "which points are covered".
"""

from __future__ import annotations

import random
from fractions import Fraction

from loveline import (
    AcquaintanceRecord,
    Config,
    InhibitionEpisode,
    Interval,
    IntervalSet,
    SensationEpisode,
    Timeline,
    Valence,
    ValueJudgment,
)
from loveline import intervals, semantics

THRESHOLDS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))

# One line per acceptance criterion; rendered by pytest_terminal_summary.
ACCEPTANCE_REPORT: list[str] = []
INTENSITIES = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)


def member(t: Fraction, s: IntervalSet) -> bool:
    return any(iv.start <= t < iv.end for iv in s)


def sample_points(*sets: IntervalSet) -> list[Fraction]:
    """Endpoints, midpoints between consecutive endpoints, and outliers.

    Piecewise-constant membership can only change at endpoints, so these
    points decide equality of any boolean combination of the inputs.
    """
    points: set[Fraction] = set()
    for s in sets:
        for iv in s:
            points.add(iv.start)
            points.add(iv.end)
    ordered = sorted(points)
    for a, b in zip(ordered, ordered[1:]):
        points.add((a + b) / 2)
    if ordered:
        points.add(ordered[0] - 1)
        points.add(ordered[-1] + 1)
    return sorted(points)


def _counting(counted: dict[str, int], compare):
    def counted_compare(a, b):
        counted["comparisons"] += 1
        return compare(a, b)

    return counted_compare


def count_fraction_comparisons(monkeypatch) -> dict[str, int]:
    """Count every Fraction comparison from here on in
    ``counted["comparisons"]``, so a bound on it holds on any host."""
    counted = {"comparisons": 0}
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name,
                            _counting(counted, getattr(Fraction, name)))
    return counted


def count_comparisons(monkeypatch) -> dict[str, int]:
    """Count every endpoint comparison from here on in
    ``counted["comparisons"]``: each Fraction comparison and each call of
    the integer comparisons ``intervals._lt`` and ``_le``, wherever they
    are imported."""
    counted = count_fraction_comparisons(monkeypatch)
    for name in ("_lt", "_le"):
        helper = _counting(counted, getattr(intervals, name))
        for module in (intervals, semantics):
            monkeypatch.setattr(module, name, helper)
    return counted


def random_interval_set(
    rng: random.Random,
    max_intervals: int = 4,
    lo: int = 0,
    hi: int = 40,
    denominators: tuple[int, ...] = (1, 2, 4),
) -> IntervalSet:
    intervals = []
    for _ in range(rng.randint(0, max_intervals)):
        den = rng.choice(denominators)
        a = rng.randint(lo * den, hi * den - 1)
        b = rng.randint(a + 1, hi * den)
        intervals.append(Interval(Fraction(a, den), Fraction(b, den)))
    return IntervalSet(tuple(intervals))


def random_extent(rng: random.Random, max_parts: int = 3) -> IntervalSet:
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        a = rng.randint(0, 99)
        b = rng.randint(a + 1, 100)
        parts.append(Interval(Fraction(a), Fraction(b)))
    return IntervalSet(tuple(parts))


# Prefixes an ontology projection might mint ids with, were it to share the
# timeline's namespace (act_<judgment>, ..., inhib_<agent>).
PROJECTION_PREFIXES = ("act_", "disp_", "ice_", "inhib_")


def random_timeline(
    rng: random.Random, prefixed_agents: bool = False
) -> Timeline:
    """Valid timeline: ≤8 agents, ≤30 episodes, integer endpoints in [0,100].

    With ``prefixed_agents``, up to four more agents are named like
    ``act_jd3`` or ``inhib_ag1``: a projection prefix on the id of a
    judgment or an agent this generator may create.
    """
    agents = tuple(f"ag{i}" for i in range(rng.randint(2, 8)))
    if prefixed_agents:
        agents += tuple(dict.fromkeys(
            f"{rng.choice(PROJECTION_PREFIXES)}{rng.choice(('jd', 'ag'))}"
            f"{rng.randint(0, 7)}"
            for _ in range(rng.randint(1, 4))
        ))

    acquaintances = []
    for subject in agents:
        for object_ in agents:
            if subject != object_ and rng.random() < 0.4:
                acquaintances.append(
                    AcquaintanceRecord(
                        subject, object_, Fraction(rng.randint(0, 100))
                    )
                )
                if rng.random() < 0.1:
                    acquaintances.append(
                        AcquaintanceRecord(
                            subject, object_, Fraction(rng.randint(0, 100))
                        )
                    )

    sensations = []
    for k in range(rng.randint(0, 12)):
        bearer = rng.choice(agents)
        correlate = rng.choice([a for a in agents if a != bearer])
        sensations.append(
            SensationEpisode(
                id=f"sn{k}",
                bearer=bearer,
                correlate=correlate,
                valence=Valence.POSITIVE
                if rng.random() < 0.8
                else Valence.NEGATIVE,
                extent=random_extent(rng),
                intensity=rng.choice(INTENSITIES),
            )
        )

    judgments = []
    for k in range(rng.randint(0, 12)):
        if sensations and rng.random() < 0.6:
            episode = rng.choice(sensations)
            # Bias toward the bearer so derived judgments actually fire.
            agent = episode.bearer if rng.random() < 0.7 else rng.choice(agents)
            target = episode.id
        else:
            agent = rng.choice(agents)
            target = rng.choice([a for a in agents if a != agent])
        judgments.append(
            ValueJudgment(id=f"jd{k}", agent=agent, target=target,
                          extent=random_extent(rng))
        )

    inhibitions = []
    for k in range(rng.randint(0, 6)):
        agent = rng.choice(agents)
        toward = rng.choice([None] + [a for a in agents if a != agent])
        inhibitions.append(
            InhibitionEpisode(id=f"in{k}", agent=agent, toward=toward,
                              extent=random_extent(rng))
        )

    return Timeline(
        agents=agents,
        acquaintances=tuple(acquaintances),
        sensations=tuple(sensations),
        judgments=tuple(judgments),
        inhibitions=tuple(inhibitions),
        config=Config(
            threshold_default=Fraction(1),
            min_intensity=rng.choice((Fraction(0), Fraction(1, 2))),
        ),
    )


def random_query(
    rng: random.Random, timeline: Timeline
) -> tuple[str, str, Interval, Fraction]:
    subject = rng.choice(timeline.agents)
    object_ = rng.choice([a for a in timeline.agents if a != subject])
    a = rng.randint(0, 99)
    b = rng.randint(a + 1, 100)
    return subject, object_, Interval(Fraction(a), Fraction(b)), rng.choice(THRESHOLDS)


def biased_query(
    rng: random.Random, timeline: Timeline
) -> tuple[str, str, Interval, Fraction]:
    """Like random_query, but steered toward pairs with actual episodes.

    Uniform pairs almost never produce love events on sparse timelines, so
    equivalence checks would mostly compare empty signals. Picking the pair
    from an existing positive sensation keeps the decision boundary busy.
    """
    positive = [
        ep for ep in timeline.sensations if ep.valence is Valence.POSITIVE
    ]
    if positive and rng.random() < 0.7:
        episode = rng.choice(positive)
        subject, object_ = episode.bearer, episode.correlate
    else:
        subject = rng.choice(timeline.agents)
        object_ = rng.choice([a for a in timeline.agents if a != subject])
    if rng.random() < 0.5:
        window = Interval(Fraction(0), Fraction(100))
    else:
        a = rng.randint(0, 99)
        b = rng.randint(a + 1, 100)
        window = Interval(Fraction(a), Fraction(b))
    return subject, object_, window, rng.choice(THRESHOLDS)


def enlarge_extents(rng: random.Random, timeline: Timeline) -> Timeline:
    """Grow some sensation/judgment extents; signals become supersets."""
    sensations = tuple(
        ep
        if rng.random() < 0.5
        else SensationEpisode(
            id=ep.id,
            bearer=ep.bearer,
            correlate=ep.correlate,
            valence=ep.valence,
            extent=ep.extent.union(random_extent(rng)),
            intensity=ep.intensity,
        )
        for ep in timeline.sensations
    )
    judgments = tuple(
        j
        if rng.random() < 0.5
        else ValueJudgment(
            id=j.id,
            agent=j.agent,
            target=j.target,
            extent=j.extent.union(random_extent(rng)),
        )
        for j in timeline.judgments
    )
    return Timeline(
        agents=timeline.agents,
        acquaintances=timeline.acquaintances,
        sensations=sensations,
        judgments=judgments,
        inhibitions=timeline.inhibitions,
        queries=timeline.queries,
        config=timeline.config,
    )
