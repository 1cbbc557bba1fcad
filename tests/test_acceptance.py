"""End-to-end acceptance gate.

Each test checks one release criterion over randomized or pinned inputs
and records a single PASS/FAIL line; conftest prints the collected lines
in an "acceptance criteria" section at the end of the run. Every check
is exact: no float tolerances anywhere.
"""

from __future__ import annotations

import dataclasses
import random
import subprocess
import sys
import time
from fractions import Fraction

from loveline import (
    AcquaintanceRecord,
    AgentDecl,
    BfoClass,
    Individual,
    Interval,
    IntervalSet,
    QuerySpec,
    RelationAssertion,
    RelationKind,
    SensationEpisode,
    SetDirective,
    Timeline,
    Valence,
    ValueJudgment,
    evaluate,
    explain,
    export_graph,
    parse_document,
    project_timeline,
    serialize_document,
    tick_oracle,
    validate,
)
from loveline.diagnostics import E_RANGE

from conftest import (
    FIXTURE_DIR,
    WINDOW,
    build_timeline_a,
    build_timeline_b,
    build_timeline_c,
)
from helpers import (
    ACCEPTANCE_REPORT,
    INTENSITIES,
    THRESHOLDS,
    biased_query,
    enlarge_extents,
    random_interval_set,
    random_query,
    random_timeline,
)

EVAL_FIXTURES = ("timeline_a.love", "timeline_b.love", "timeline_c.love",
                 "mixed.love")


def _record(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_REPORT.append(line)
    print(line)
    assert ok, line


def _default_threshold(query, timeline: Timeline) -> Fraction:
    if query.threshold is not None:
        return query.threshold
    return timeline.config.threshold_default


def test_oracle_equivalence_on_randomized_timelines():
    rng = random.Random(101)
    mismatches = []
    start = time.perf_counter()
    for case in range(3000):
        timeline = random_timeline(rng)
        subject, object_, window, threshold = biased_query(rng, timeline)
        fast = evaluate(subject, object_, window, threshold, timeline)
        slow = tick_oracle(
            subject, object_, window, threshold, timeline, Fraction(1)
        )
        if fast != slow:
            mismatches.append(
                (case, subject, object_, str(window), str(threshold))
            )
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    _record(
        "evaluate agrees with the unit-tick oracle on 3000 random timelines",
        ok,
        f"{elapsed:.2f}s, mismatches={mismatches[:3]}"
        if mismatches
        else f"{elapsed:.2f}s",
    )


def test_interval_algebra_laws_on_randomized_pairs():
    rng = random.Random(202)
    window = Interval(Fraction(0), Fraction(40))
    window_set = IntervalSet((window,))
    failures = []
    for case in range(10_000):
        x = random_interval_set(rng)
        y = random_interval_set(rng)
        z = random_interval_set(rng)
        union = x.union(y)
        intersection = x.intersect(y)
        if union.measure() + intersection.measure() != x.measure() + y.measure():
            failures.append((case, "additivity"))
        inside = x.intersect(window_set)
        outside = window_set.difference(x)
        if inside.measure() + outside.measure() != window.measure:
            failures.append((case, "partition measure"))
        if inside.union(outside) != window_set:
            failures.append((case, "partition cover"))
        if inside.intersect(outside):
            failures.append((case, "partition overlap"))
        if x.union(x) != x or x.intersect(x) != x:
            failures.append((case, "idempotence"))
        if union != y.union(x) or intersection != y.intersect(x):
            failures.append((case, "commutativity"))
        if union.union(z) != x.union(y.union(z)):
            failures.append((case, "union associativity"))
        if intersection.intersect(z) != x.intersect(y.intersect(z)):
            failures.append((case, "intersection associativity"))
        if failures:
            break
    _record(
        "interval-set algebra laws hold exactly on 10000 random pairs",
        not failures,
        f"first failure {failures[:1]}" if failures else "",
    )


def test_conservation_of_measure_on_every_evaluation():
    rng = random.Random(303)
    failures = []
    checked = 0
    for case in range(1000):
        timeline = random_timeline(rng)
        subject, object_, window, threshold = biased_query(rng, timeline)
        verdict = evaluate(subject, object_, window, threshold, timeline)
        checked += 1
        if verdict.s + verdict.c != window.measure:
            failures.append(("random", case))
        if verdict.love_events.measure() != verdict.s:
            failures.append(("random events", case))
    for name in EVAL_FIXTURES:
        text = (FIXTURE_DIR / name).read_text(encoding="utf-8")
        result = parse_document(text)
        assert result.timeline is not None
        for query in result.timeline.queries:
            verdict = evaluate(
                query.subject,
                query.object,
                query.interval,
                _default_threshold(query, result.timeline),
                result.timeline,
            )
            checked += 1
            if verdict.s + verdict.c != query.interval.measure:
                failures.append((name, str(query.interval)))
    _record(
        "s + c equals the queried measure on every evaluation",
        not failures,
        f"{checked} evaluations"
        if not failures
        else f"failed at {failures[:3]}",
    )


def _oracle_stage(subject: str, object_: str, window: Interval,
                  threshold: Fraction, timeline: Timeline) -> str | None:
    """explain's first failing stage, worked out by the tick oracle alone."""
    if not any(rec.subject == subject and rec.object == object_
               for rec in timeline.acquaintances):
        return "no acquaintance"
    whole = IntervalSet((window,))

    def oracle(tl: Timeline):
        return tick_oracle(subject, object_, window, threshold, tl,
                           Fraction(1))

    # A direct judgment over the whole window, acquainted from its start,
    # makes condition (ii) hold wherever the mask is off: love events are
    # then exactly condition (i) in the window.
    judged = dataclasses.replace(
        timeline,
        acquaintances=(*timeline.acquaintances,
                       AcquaintanceRecord(subject, object_, window.start)),
        judgments=(*timeline.judgments,
                   ValueJudgment("probe_j", subject, object_, whole)),
    )
    if not oracle(judged).s:
        return "condition (i) empty"
    # Likewise a strong sensation over the window, which no judgment names:
    # love events are then exactly condition (ii) in the window.
    felt = dataclasses.replace(
        timeline,
        sensations=(*timeline.sensations,
                    SensationEpisode("probe_s", subject, object_,
                                     Valence.POSITIVE, whole, Fraction(1))),
    )
    if not oracle(felt).s:
        return "condition (ii) empty"
    return None if oracle(timeline).holds else "ratio below threshold"


def test_explain_stages_agree_with_the_tick_oracle():
    rng = random.Random(1111)
    mismatches = []
    seen: dict[str | None, int] = {}
    for case in range(1000):
        timeline = random_timeline(rng)
        subject, object_, window, threshold = biased_query(rng, timeline)
        stage = explain(subject, object_, window, threshold,
                        timeline).first_failure
        expected = _oracle_stage(subject, object_, window, threshold, timeline)
        seen[expected] = seen.get(expected, 0) + 1
        if stage != expected:
            mismatches.append((case, stage, expected))
    stages = {None, "no acquaintance", "condition (i) empty",
              "condition (ii) empty", "ratio below threshold"}
    _record(
        "explain names the stage the tick oracle finds first, on 1000 "
        "random queries",
        not mismatches and set(seen) == stages,
        f"mismatches={mismatches[:3]}, stages={seen}"
        if mismatches or set(seen) != stages
        else ", ".join(f"{stage}: {n}" for stage, n in seen.items()),
    )


def test_lost_acquaintance_blocks_love_and_restoring_it_flips_the_verdict():
    without = build_timeline_b()
    blocked = all(
        not evaluate("sally", "john", WINDOW, t, without).holds
        for t in (Fraction(1, 100), Fraction(1), Fraction(100))
    )
    restored = evaluate(
        "sally", "john", WINDOW, Fraction(1, 2), build_timeline_a()
    ).holds
    _record(
        "no acquaintance blocks every threshold; restoring it flips the verdict",
        blocked and restored,
    )


def test_abutting_extents_share_no_events():
    abutting_derived = Timeline(
        agents=("sally", "john"),
        acquaintances=(AcquaintanceRecord("sally", "john", Fraction(0)),),
        sensations=(
            SensationEpisode(
                id="s1",
                bearer="sally",
                correlate="john",
                valence=Valence.POSITIVE,
                extent=IntervalSet((Interval(Fraction(2), Fraction(3)),)),
            ),
        ),
        judgments=(
            ValueJudgment(
                id="j1",
                agent="sally",
                target="s1",
                extent=IntervalSet((Interval(Fraction(3), Fraction(4)),)),
            ),
        ),
    )
    abutting_direct = Timeline(
        agents=abutting_derived.agents,
        acquaintances=abutting_derived.acquaintances,
        sensations=abutting_derived.sensations,
        judgments=(
            ValueJudgment(
                id="j1",
                agent="sally",
                target="john",
                extent=IntervalSet((Interval(Fraction(3), Fraction(4)),)),
            ),
        ),
    )
    ok = True
    for timeline in (abutting_derived, abutting_direct):
        for t in (Fraction(1, 10**6), Fraction(1), Fraction(10**6)):
            verdict = evaluate("sally", "john", WINDOW, t, timeline)
            ok = ok and verdict.s == 0 and not verdict.holds
    _record(
        "abutting extents [2,3) and [3,4) yield s=0 and never hold",
        ok,
    )


def test_full_coverage_holds_at_any_threshold():
    verdict = evaluate(
        "sally", "john", WINDOW, Fraction(10**6), build_timeline_c()
    )
    _record(
        "a fully covered window holds even at threshold 10^6",
        verdict.holds and verdict.c == 0 and verdict.s == WINDOW.measure,
    )


def test_default_threshold_means_strict_majority():
    rng = random.Random(707)
    failures = 0
    for _ in range(1000):
        timeline = random_timeline(rng)
        subject, object_, window, _ = biased_query(rng, timeline)
        verdict = evaluate(subject, object_, window, Fraction(1), timeline)
        if verdict.holds != (2 * verdict.s > window.measure):
            failures += 1
    _record(
        "at threshold 1, holds iff love events cover a strict majority",
        failures == 0,
        f"failures={failures}" if failures else "1000 cases",
    )


def test_threshold_antitonicity_and_event_monotonicity():
    rng = random.Random(808)
    antitone_failures = 0
    for _ in range(1000):
        timeline = random_timeline(rng)
        subject, object_, window, _ = biased_query(rng, timeline)
        t1 = Fraction(rng.randint(1, 16), rng.randint(1, 16))
        t2 = Fraction(rng.randint(1, 16), rng.randint(1, 16))
        low, high = min(t1, t2), max(t1, t2)
        if low == high:
            high = low + Fraction(1, 16)
        at_high = evaluate(subject, object_, window, high, timeline)
        at_low = evaluate(subject, object_, window, low, timeline)
        if at_high.holds and not at_low.holds:
            antitone_failures += 1
        if (at_high.s, at_high.c) != (at_low.s, at_low.c):
            antitone_failures += 1
    monotone_failures = 0
    for _ in range(1000):
        timeline = random_timeline(rng)
        subject, object_, window, threshold = biased_query(rng, timeline)
        grown = enlarge_extents(rng, timeline)
        before = evaluate(subject, object_, window, threshold, timeline)
        after = evaluate(subject, object_, window, threshold, grown)
        if before.love_events.difference(after.love_events):
            monotone_failures += 1
        if after.s < before.s:
            monotone_failures += 1
        if before.holds and not after.holds:
            monotone_failures += 1
    _record(
        "raising the threshold never flips to holds; growing extents never "
        "shrinks events",
        antitone_failures == 0 and monotone_failures == 0,
        f"antitone={antitone_failures} monotone={monotone_failures}"
        if antitone_failures or monotone_failures
        else "1000 cases each",
    )


def _retarget_quality_inherence(graph):
    """Point one sensation quality's inheres_in at another Quality."""
    qualities = [
        ind.id for ind in graph.individuals if ind.cls is BfoClass.QUALITY
    ]
    victim = next(
        rel
        for rel in graph.relations
        if rel.kind is RelationKind.INHERES_IN and rel.subject in set(qualities)
    )
    other = next((q for q in qualities if q != victim.subject), None)
    individuals = list(graph.individuals)
    if other is None:
        other = "q_extra"
        individuals.append(Individual(other, BfoClass.QUALITY, "extra quality"))
    relations = [
        RelationAssertion(rel.kind, rel.subject, other)
        if rel is victim
        else rel
        for rel in graph.relations
    ]
    return individuals, relations


def test_ontology_projection_round_trip_and_mutation():
    rng = random.Random(909)
    clean_failures = 0
    mutations = 0
    mutation_failures = 0

    def check_mutation(timeline: Timeline) -> None:
        nonlocal mutations, mutation_failures
        graph = project_timeline(timeline)
        individuals, relations = _retarget_quality_inherence(graph)
        diags = validate(individuals, relations)
        mutations += 1
        if len(diags) != 1 or diags[0].code != E_RANGE:
            mutation_failures += 1

    for _ in range(200):
        # Some agents are named like the ids the projection mints.
        timeline = random_timeline(rng, prefixed_agents=True)
        graph = project_timeline(timeline)
        if validate(graph.individuals, graph.relations):
            clean_failures += 1
        if timeline.sensations:
            check_mutation(timeline)
    check_mutation(build_timeline_a())
    _record(
        "200 random projections validate cleanly; retargeting a quality's "
        "bearer to a quality yields exactly one range violation",
        clean_failures == 0 and mutation_failures == 0,
        f"mutations={mutations}",
    )


def _random_statements(rng: random.Random) -> list:
    timeline = random_timeline(rng)
    statements: list = [AgentDecl(name) for name in timeline.agents]
    statements += list(timeline.acquaintances)
    statements += list(timeline.sensations)
    statements += list(timeline.judgments)
    statements += list(timeline.inhibitions)
    if rng.random() < 0.5:
        statements.append(SetDirective("threshold", rng.choice(THRESHOLDS)))
    if rng.random() < 0.5:
        statements.append(
            SetDirective("min_intensity", rng.choice(INTENSITIES))
        )
    for _ in range(rng.randint(0, 3)):
        subject, object_, window, threshold = random_query(rng, timeline)
        statements.append(
            QuerySpec(
                subject,
                object_,
                window,
                threshold if rng.random() < 0.5 else None,
            )
        )
    rng.shuffle(statements)
    return statements


# 6,001 digits: each side of the point parses, but the value has more
# digits than Python prints, so a message must not print it.
LONG_DECIMAL = "1" * 3000 + "." + "5" * 3000


def _bad_line(rng: random.Random, k: int) -> str:
    templates = (
        f"wibble{k} whatever",
        f"agent Loud{k}",
        f"set temperature {k}",
        f"query loves qa{k} qb{k} interval=[5,5)",
        f"judgment zz{k} agent=nob{k} target=non{k} extent=[0,1)",
        f"sensation yy{k} bearer=me{k} correlate=me{k} valence=positive "
        f"extent=[1,2)",
        f"acquaintance ax{k} ay{k} at",
        f"inhibition ww{k} agent=gone{k} extent=[0,1) extent=[0,1)",
        f"sensation vv{k} bearer=vb{k} correlate=vc{k} valence=positive "
        f"intensity={LONG_DECIMAL} extent=[0,1)",
        f"judgment uu{k} agent=ub{k} target=uc{k} extent=[{LONG_DECIMAL},1)",
    )
    return rng.choice(templates)


def test_parser_round_trip_and_seeded_errors():
    rng = random.Random(1010)
    round_trip_failures = 0
    for _ in range(500):
        statements = _random_statements(rng)
        text = serialize_document(statements)
        result = parse_document(text)
        if not result.ok or list(result.statements) != statements:
            round_trip_failures += 1
        elif serialize_document(result.statements) != text:
            round_trip_failures += 1
    seeding_failures = 0
    for _ in range(100):
        statements = _random_statements(rng)
        lines = serialize_document(statements).splitlines()
        k = rng.randint(1, 5)
        for j in range(k):
            position = rng.randint(1, len(lines))
            lines.insert(position, _bad_line(rng, j))
        result = parse_document("\n".join(lines) + "\n")
        if result.ok or len(result.diagnostics) < k:
            seeding_failures += 1
    _record(
        "serialize/parse round-trips 500 documents; k seeded defects raise "
        "at least k diagnostics",
        round_trip_failures == 0 and seeding_failures == 0,
        f"round_trip={round_trip_failures} seeding={seeding_failures}"
        if round_trip_failures or seeding_failures
        else "",
    )


def test_cli_eval_output_is_byte_deterministic():
    differences = []
    for name in EVAL_FIXTURES + ("bad.love",):
        path = str(FIXTURE_DIR / name)
        for fmt in ("text", "json"):
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "loveline", "eval",
                     "--format", fmt, path],
                    capture_output=True,
                )
                for _ in range(3)
            ]
            outputs = {
                (r.returncode, r.stdout, r.stderr) for r in runs
            }
            if len(outputs) != 1:
                differences.append((name, fmt))
    _record(
        "eval output is byte-identical across three runs per fixture",
        not differences,
        f"diverged: {differences}" if differences else "",
    )
