"""Seeded generator of loveline v1 corpora for the benchmark.

The generator writes ``.love`` text itself and never imports ``loveline``,
so the program under test only ever sees generated input. A corpus is a
pure function of its :class:`Shape` and seed: the same seed gives the
same bytes.

Every count that drives evaluation cost (events per pair, judgments per
subject, queries per pair class) is fixed by the shape; the seed only moves
extents, intensities, windows and thresholds. That keeps the cost of one
workload nearly the same from seed to seed, which the benchmark's bounds
rely on.

Verdicts are kept mixed on purpose: acquaintances go only to pairs that
have sensations, and inhibitions are sparse and short, so a fair share of
queries holds and every ``explain`` failure stage occurs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Shape:
    """Sizes and ranges one workload's corpora are drawn from.

    Times are drawn on grids of ``1/d`` for ``d`` in ``denominators``; each
    episode picks one ``d``. Episodes with ``d == 10`` are written as exact
    decimals, the rest as ``n/d`` fractions, so the tokenizer sees both.
    """

    agents: int
    active_pairs: int  # ordered pairs that get acquaintance and episodes
    sensations_per_pair: int
    direct_per_pair: int  # judgments aimed at the object itself
    inhibitions: int  # total over the corpus, kept sparse
    queries: int
    queried_pairs: int  # distinct ordered pairs among the queries
    cold_pairs: int  # of those, pairs without acquaintance or episodes
    horizon: int
    denominators: tuple[int, ...]
    parts: tuple[int, int]  # extent parts per sensation, inclusive range
    part_len: tuple[int, int]  # sensation part length, in whole units
    window: tuple[int, int]  # query window length, in whole units


WORKLOADS: dict[str, Shape] = {
    # Many pairs, few events each: every query rescans the whole timeline,
    # and 40% of queries repeat a pair, so a pair index pays off modestly.
    "wide-5k": Shape(
        agents=60,
        active_pairs=1100,
        sensations_per_pair=2,
        direct_per_pair=0,
        inhibitions=150,
        queries=1000,
        queried_pairs=600,
        cold_pairs=60,
        horizon=100,
        denominators=(1, 2, 4),
        parts=(1, 2),
        part_len=(5, 25),
        window=(1, 20),
    ),
    # Four hot pairs with many multi-part episodes: nearly every query
    # repeats a pair, and the interval algebra dominates.
    "dense-hot": Shape(
        agents=8,
        active_pairs=4,
        sensations_per_pair=6,
        direct_per_pair=3,
        inhibitions=12,
        queries=1000,
        queried_pairs=4,
        cold_pairs=0,
        horizon=320,
        denominators=(1, 3, 4, 10),
        parts=(2, 4),
        part_len=(2, 5),
        window=(1, 30),
    ),
}

THRESHOLDS = (None, None, "1/3", "1/2", "2")
INTENSITIES = ("1/4", "1/2", "3/4", "0.9", None)


def _rat(units: int, d: int) -> str:
    """Write ``units/d`` as the corpus spells it."""
    q = Fraction(units, d)
    if q.denominator == 1:
        return str(q.numerator)
    if d == 10:
        return f"{units // 10}.{units % 10}"
    return f"{q.numerator}/{q.denominator}"


def _extent(parts: list[tuple[int, int]], d: int) -> str:
    return "+".join(f"[{_rat(a, d)},{_rat(b, d)})" for a, b in parts)


class _Corpus:
    """Accumulates statement lines and the properties reported for them."""

    def __init__(self, rng: random.Random, shape: Shape):
        self.rng = rng
        self.shape = shape
        self.lines: list[str] = []
        self.events = {"acquaintance": 0, "sensation": 0, "judgment": 0,
                       "inhibition": 0}
        self.parts_hist: dict[int, int] = {}
        self.dens_used: set[int] = set()
        self.sensations = 0
        self.judgments = 0

    def den(self) -> int:
        d = self.rng.choice(self.shape.denominators)
        self.dens_used.add(d)
        return d

    def count(self, kind: str, parts: int) -> None:
        self.events[kind] += 1
        if kind != "acquaintance":
            self.parts_hist[parts] = self.parts_hist.get(parts, 0) + 1

    def multipart(self, d: int, slot: int, slots: int
                  ) -> tuple[list[tuple[int, int]], int, int]:
        """Disjoint ascending parts inside the horizon, in ``1/d`` units.

        The part count cycles through ``shape.parts`` with ``slot``, and the
        extent starts inside stratum ``slot`` of ``slots`` equal strata of
        the horizon; where the extent fits its stratum it stays inside it.
        Overlap, and with it evaluation cost, then varies little from seed
        to seed.
        """
        shape, rng = self.shape, self.rng
        k = shape.parts[0] + slot % (shape.parts[1] - shape.parts[0] + 1)
        lengths = [rng.randint(shape.part_len[0] * d, shape.part_len[1] * d)
                   for _ in range(k)]
        gaps = [rng.randint(1, shape.part_len[1] * d) for _ in range(k - 1)]
        span = sum(lengths) + sum(gaps)
        end = shape.horizon * d
        lo = min(end * slot // slots, end - span)
        hi = max(lo, min(end * (slot + 1) // slots, end) - span)
        start = rng.randint(lo, hi)
        parts, cursor = [], start
        for i, length in enumerate(lengths):
            parts.append((cursor, cursor + length))
            cursor += length + (gaps[i] if i < len(gaps) else 0)
        return parts, start, cursor

    def pair_block(self, s: str, p: str) -> None:
        shape, rng = self.shape, self.rng
        d = self.den()
        at = rng.randint(0, shape.horizon * d // 20)
        self.lines.append(f"acquaintance {s} {p} at {_rat(at, d)}")
        self.count("acquaintance", 1)
        n = shape.sensations_per_pair
        for k in range(n):
            self.sensations += 1
            sid = f"s{self.sensations}"
            d = self.den()
            parts, lo, hi = self.multipart(d, k, n)
            valence = "negative" if k % 10 == 9 else "positive"
            intensity = INTENSITIES[k % len(INTENSITIES)]
            inten = "" if intensity is None else f" intensity={intensity}"
            self.lines.append(
                f"sensation {sid} bearer={s} correlate={p} valence={valence}"
                f"{inten} extent={_extent(parts, d)}"
            )
            self.count("sensation", len(parts))
            # A judgment overlapping the sensation, on its own grid.
            jd = self.den()
            a = Fraction(lo, d) - Fraction(rng.randint(0, 2 * jd), jd)
            b = Fraction(hi, d) + Fraction(rng.randint(-2 * jd, 2 * jd), jd)
            a = max(0, math.floor(a * jd))
            b = min(shape.horizon * jd, math.ceil(b * jd))
            if b <= a:
                b = a + 1
            self.judgment(s, sid, [(a, b)], jd)
        for k in range(shape.direct_per_pair):
            d = self.den()
            parts, _, _ = self.multipart(d, k, shape.direct_per_pair)
            self.judgment(s, p, parts, d)

    def judgment(self, agent: str, target: str, parts, d: int) -> None:
        self.judgments += 1
        self.lines.append(
            f"judgment j{self.judgments} agent={agent} target={target} "
            f"extent={_extent(parts, d)}"
        )
        self.count("judgment", len(parts))


def _query_pairs(rng: random.Random, shape: Shape, hot: list, cold: list):
    """Query pair sequence with exactly ``queried_pairs`` first visits."""
    fresh = rng.sample(hot, shape.queried_pairs - shape.cold_pairs)
    fresh += rng.sample(cold, shape.cold_pairs)
    rng.shuffle(fresh)
    repeats = shape.queries - len(fresh)
    kinds = ["new"] * (len(fresh) - 1) + ["again"] * repeats
    rng.shuffle(kinds)
    kinds.insert(0, "new")
    # Repeats cycle through the pairs seen so far in shuffled rounds, so
    # each hot pair gets about the same number of queries on every seed.
    seen: list[tuple[str, str]] = []
    round_: list[tuple[str, str]] = []
    out = []
    for kind in kinds:
        if kind == "new":
            seen.append(fresh[len(seen)])
            out.append(seen[-1])
            continue
        if not round_:
            round_ = seen[:]
            rng.shuffle(round_)
        out.append(round_.pop())
    return out


def generate(shape: Shape, seed: int, name: str = "corpus") -> tuple[str, dict]:
    """Return ``(text, properties)`` for one corpus of ``shape``."""
    rng = random.Random(f"{name}:{seed}")
    agents = [f"a{i}" for i in range(shape.agents)]
    if shape.active_pairs <= shape.agents // 2:
        # Disjoint subjects, so each subject's judgment list is the same size.
        hot = []
        for i in range(shape.active_pairs):
            base = 2 * (i // 2)
            hot.append((agents[base], agents[base + 1]) if i % 2 == 0
                       else (agents[base + 1], agents[base]))
    else:
        every = [(s, p) for s in agents for p in agents if s != p]
        hot = rng.sample(every, shape.active_pairs)
    hot_set = set(hot)
    cold = [(s, p) for s in agents for p in agents
            if s != p and (s, p) not in hot_set]

    b = _Corpus(rng, shape)
    b.lines.append("# loveline v1")
    b.lines.extend(f"agent {a}" for a in agents)
    b.lines.append("set threshold 1")
    b.lines.append("set min_intensity 1/2")
    for s, p in hot:
        b.pair_block(s, p)
    for i in range(shape.inhibitions):
        s, p = hot[i % len(hot)]
        d = b.den()
        start = rng.randint(0, (shape.horizon - 2) * d)
        length = rng.randint(1, 2 * d)
        toward = "" if i % 4 == 3 else f" toward={p}"
        b.lines.append(f"inhibition h{i + 1} agent={s}{toward} "
                       f"extent={_extent([(start, start + length)], d)}")
        b.count("inhibition", 1)

    pairs = _query_pairs(rng, shape, hot, cold)
    for s, p in pairs:
        d = b.den()
        length = rng.randint(shape.window[0] * d, shape.window[1] * d)
        start = rng.randint(0, shape.horizon * d - length)
        threshold = rng.choice(THRESHOLDS)
        th = "" if threshold is None else f" threshold={threshold}"
        b.lines.append(f"query loves {s} {p} interval="
                       f"[{_rat(start, d)},{_rat(start + length, d)}){th}")
    text = "".join(line + "\n" for line in b.lines)

    episodes = sum(b.parts_hist.values())
    properties = {
        "lines": len(b.lines),
        "events": sum(b.events.values()),
        "events_by_kind": dict(b.events),
        "agents": shape.agents,
        "ordered_pairs_with_events": len(hot),
        "queries": len(pairs),
        "queried_pairs": len(set(pairs)),
        "pair_reuse_ratio": (len(pairs) - len(set(pairs))) / len(pairs),
        "extent_parts_per_episode": {
            "mean": sum(k * v for k, v in b.parts_hist.items()) / episodes,
            "histogram": {str(k): v for k, v in sorted(b.parts_hist.items())},
        },
        "denominators": sorted(b.dens_used),
        "bytes": len(text.encode()),
    }
    return text, properties
