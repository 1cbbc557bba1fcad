"""Temporal evaluation of a two-agent love predicate.

Timelines of mental events (sensations, value judgments, acquaintance,
inhibition) are written in the line-oriented "loveline v1" format or
built programmatically; queries ask whether ``loves(S, P)`` holds over an
interval, decided exactly in rational arithmetic by comparing the measure
of love events against its complement. The package also types timelines
against a small upper-ontology schema and exports the resulting graph.
"""

from .diagnostics import (
    Diagnostic,
    EmptyIntervalError,
    GranularityError,
    LovelineError,
    ThresholdError,
)
from .intervals import (
    Instant,
    Interval,
    IntervalSet,
    format_rational,
)
from .model import (
    AcquaintanceRecord,
    Config,
    InhibitionEpisode,
    QuerySpec,
    SensationEpisode,
    Timeline,
    Valence,
    ValueJudgment,
    validate_timeline,
)
from .ontology import (
    BfoClass,
    Individual,
    OntologyGraph,
    RelationAssertion,
    RelationKind,
    check_subclass,
    export_graph,
    project_timeline,
    validate,
)
from .parser import (
    AgentDecl,
    ParseResult,
    SetDirective,
    parse_document,
    parse_rational,
    serialize_document,
)
from .semantics import (
    PairSignals,
    Trace,
    Verdict,
    acquaintance_onset,
    condition_i_signal,
    condition_ii_components,
    evaluate,
    explain,
    inhibition_mask,
    love_state_at,
    tick_oracle,
)

__all__ = [
    "AcquaintanceRecord",
    "AgentDecl",
    "BfoClass",
    "Config",
    "Diagnostic",
    "EmptyIntervalError",
    "GranularityError",
    "Individual",
    "InhibitionEpisode",
    "Instant",
    "Interval",
    "IntervalSet",
    "LovelineError",
    "OntologyGraph",
    "PairSignals",
    "ParseResult",
    "QuerySpec",
    "RelationAssertion",
    "RelationKind",
    "SensationEpisode",
    "SetDirective",
    "ThresholdError",
    "Timeline",
    "Trace",
    "Valence",
    "ValueJudgment",
    "Verdict",
    "acquaintance_onset",
    "check_subclass",
    "condition_i_signal",
    "condition_ii_components",
    "evaluate",
    "explain",
    "export_graph",
    "format_rational",
    "inhibition_mask",
    "love_state_at",
    "parse_document",
    "parse_rational",
    "project_timeline",
    "serialize_document",
    "tick_oracle",
    "validate",
    "validate_timeline",
]

__version__ = "0.1.0"
