"""Declarative timeline model: agents, events, queries, configuration.

A :class:`Timeline` is an immutable value describing what happened when:
which agents exist, when they became acquainted, episodes of sensation with
a named causal correlate, value judgments (of a sensation episode or of an
agent directly), and inhibition episodes that mask the signals. Structural
integrity is checked by :func:`validate_timeline`, which reports problems
as diagnostics instead of raising, so that documents with several defects
surface all of them at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .diagnostics import (
    Diagnostic,
    E_DUP_ID,
    E_EMPTY_INTERVAL,
    E_INTENSITY_RANGE,
    E_SELF_CORRELATE,
    E_SYNTAX,
    E_THRESHOLD_NONPOSITIVE,
    E_UNKNOWN_REF,
    _quoted,
)
from .intervals import Interval, IntervalSet, message_rational


# The one identifier rule: agent names and record ids. The parser reads
# only these, and validate_timeline holds timelines built in code to it.
IDENTIFIER = r"[a-z][a-z0-9_]*"
_IDENTIFIER_RE = re.compile(IDENTIFIER)


class Valence(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AcquaintanceRecord:
    """Subject became directly acquainted with object at instant ``at``.

    Acquaintance persists from ``at`` onward; it never expires.
    """

    subject: str
    object: str
    at: Fraction


@dataclass(frozen=True)
class SensationEpisode:
    """A sensation borne by ``bearer``, causally correlated with ``correlate``."""

    id: str
    bearer: str
    correlate: str
    valence: Valence
    extent: IntervalSet
    intensity: Fraction = Fraction(1)


@dataclass(frozen=True)
class ValueJudgment:
    """``agent`` judges ``target`` valuable throughout ``extent``.

    ``target`` is either a sensation episode id or an agent id.
    """

    id: str
    agent: str
    target: str
    extent: IntervalSet


@dataclass(frozen=True)
class InhibitionEpisode:
    """``agent`` exercises inhibitory control during ``extent``.

    ``toward`` narrows the mask to one counterpart; absent, it masks all.
    """

    id: str
    agent: str
    toward: str | None
    extent: IntervalSet


@dataclass(frozen=True)
class QuerySpec:
    """One ``loves`` question: subject, object, window, optional threshold."""

    subject: str
    object: str
    interval: Interval
    threshold: Fraction | None = None


@dataclass(frozen=True)
class Config:
    """Document-wide knobs left open by the predicate definition."""

    threshold_default: Fraction = Fraction(1)
    min_intensity: Fraction = Fraction(0)


@dataclass(frozen=True)
class Timeline:
    agents: tuple[str, ...] = ()
    acquaintances: tuple[AcquaintanceRecord, ...] = ()
    sensations: tuple[SensationEpisode, ...] = ()
    judgments: tuple[ValueJudgment, ...] = ()
    inhibitions: tuple[InhibitionEpisode, ...] = ()
    queries: tuple[QuerySpec, ...] = ()
    config: Config = field(default_factory=Config)


def _duplicate_id(record_id: str, first: str, **where) -> Diagnostic:
    """E_DUP_ID for ``record_id``; ``where`` is the repeat's line and column."""
    return Diagnostic(
        E_DUP_ID,
        f"duplicate id {_quoted(record_id)} (already declared as {first})",
        record=record_id,
        **where,
    )


def validate_timeline(timeline: Timeline) -> list[Diagnostic]:
    """Check referential integrity and value invariants.

    Returns an empty list iff every declared id and agent name is an
    identifier (:data:`IDENTIFIER`), every reference resolves, all ids are
    unique, and all field invariants hold. Diagnostics carry the
    offending record's id (or a ``kind[index]`` handle for records without
    one) so callers can map them back to source positions.
    """
    diags: list[Diagnostic] = []
    declared: dict[str, str] = {}

    def declare(record_id: str, kind: str) -> None:
        if _IDENTIFIER_RE.fullmatch(record_id) is None:
            diags.append(Diagnostic(
                E_SYNTAX,
                f"{kind} id {_quoted(record_id)} does not match {IDENTIFIER}",
                record=record_id,
            ))
        if record_id in declared:
            diags.append(_duplicate_id(record_id, declared[record_id]))
        else:
            declared[record_id] = kind

    for name in timeline.agents:
        declare(name, "agent")
    agents = set(timeline.agents)
    sensation_ids = {ep.id for ep in timeline.sensations}
    for kind, episodes in (
        ("sensation", timeline.sensations),
        ("judgment", timeline.judgments),
        ("inhibition", timeline.inhibitions),
    ):
        for record in episodes:
            declare(record.id, kind)
            if not record.extent:
                diags.append(
                    Diagnostic(
                        E_EMPTY_INTERVAL,
                        f"{kind} {_quoted(record.id)} has an empty extent",
                        record=record.id,
                    )
                )

    def check_agent(name: str, record: str, role: str) -> None:
        if name not in agents:
            diags.append(
                Diagnostic(
                    E_UNKNOWN_REF,
                    f"{role} {_quoted(name)} is not a declared agent",
                    record=record,
                )
            )

    for i, rec in enumerate(timeline.acquaintances):
        handle = f"acquaintance[{i}]"
        check_agent(rec.subject, handle, "subject")
        check_agent(rec.object, handle, "object")
        if rec.subject == rec.object:
            diags.append(
                Diagnostic(
                    E_SELF_CORRELATE,
                    f"acquaintance of {_quoted(rec.subject)} with itself",
                    record=handle,
                )
            )

    for ep in timeline.sensations:
        check_agent(ep.bearer, ep.id, "bearer")
        check_agent(ep.correlate, ep.id, "correlate")
        if ep.bearer == ep.correlate:
            diags.append(
                Diagnostic(
                    E_SELF_CORRELATE,
                    f"sensation {_quoted(ep.id)} has bearer equal to correlate",
                    record=ep.id,
                )
            )
        if not 0 <= ep.intensity <= 1:
            diags.append(
                Diagnostic(
                    E_INTENSITY_RANGE,
                    f"sensation {_quoted(ep.id)} intensity "
                    f"{message_rational(ep.intensity)} outside [0, 1]",
                    record=ep.id,
                )
            )

    for j in timeline.judgments:
        check_agent(j.agent, j.id, "agent")
        if j.target not in agents and j.target not in sensation_ids:
            diags.append(
                Diagnostic(
                    E_UNKNOWN_REF,
                    f"judgment {_quoted(j.id)} target {_quoted(j.target)} is "
                    f"neither an agent nor a sensation episode",
                    record=j.id,
                )
            )

    for inh in timeline.inhibitions:
        check_agent(inh.agent, inh.id, "agent")
        if inh.toward is not None:
            check_agent(inh.toward, inh.id, "toward")

    for i, q in enumerate(timeline.queries):
        handle = f"query[{i}]"
        check_agent(q.subject, handle, "subject")
        check_agent(q.object, handle, "object")
        if q.threshold is not None and q.threshold <= 0:
            diags.append(
                Diagnostic(
                    E_THRESHOLD_NONPOSITIVE,
                    f"query threshold {message_rational(q.threshold)} "
                    f"must be positive",
                    record=handle,
                )
            )

    if timeline.config.threshold_default <= 0:
        diags.append(
            Diagnostic(
                E_THRESHOLD_NONPOSITIVE,
                f"default threshold "
                f"{message_rational(timeline.config.threshold_default)} "
                f"must be positive",
                record="config.threshold_default",
            )
        )
    if not 0 <= timeline.config.min_intensity <= 1:
        diags.append(
            Diagnostic(
                E_INTENSITY_RANGE,
                f"min_intensity "
                f"{message_rational(timeline.config.min_intensity)} "
                f"outside [0, 1]",
                record="config.min_intensity",
            )
        )

    return diags
