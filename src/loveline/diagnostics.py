"""Shared diagnostic records, stable error codes, and error types."""

from __future__ import annotations

from dataclasses import dataclass

# Stable codes shared by the parser and the timeline validator.
E_SYNTAX = "E_SYNTAX"
E_DUP_ID = "E_DUP_ID"
E_UNKNOWN_REF = "E_UNKNOWN_REF"
E_EMPTY_INTERVAL = "E_EMPTY_INTERVAL"
E_INTENSITY_RANGE = "E_INTENSITY_RANGE"
E_THRESHOLD_NONPOSITIVE = "E_THRESHOLD_NONPOSITIVE"
E_SELF_CORRELATE = "E_SELF_CORRELATE"
E_GRANULARITY = "E_GRANULARITY"

# Codes used by the ontology graph validator.
E_DOMAIN = "E_DOMAIN"
E_RANGE = "E_RANGE"
E_ABOUTNESS = "E_ABOUTNESS"

# Tokens and ids longer than this are quoted by a prefix and their length,
# so one over-long name cannot make a diagnostic thousands of characters long.
_QUOTE_LIMIT = 40


def _quoted(token: str) -> str:
    """``token`` in single quotes, shortened when over :data:`_QUOTE_LIMIT`,
    with each non-printable character written as ``repr`` writes it."""
    short = len(token) <= _QUOTE_LIMIT
    shown = token if short else token[:_QUOTE_LIMIT - 10]
    shown = "".join(c if c.isprintable() else repr(c)[1:-1] for c in shown)
    return f"'{shown}'" if short else f"'{shown}...' ({len(token)} characters)"


@dataclass(frozen=True)
class Diagnostic:
    """A single validation or parse problem.

    ``line``/``column`` are 1-based positions into the source text when the
    diagnostic originates from a file; ``record`` is a stable handle for the
    offending record (its id, or a synthetic ``kind[index]`` handle for
    records without one).
    """

    code: str
    message: str
    line: int | None = None
    column: int | None = None
    record: str | None = None

    def render(self, path: str | None = None) -> str:
        parts = []
        if path is not None:
            parts.append(path)
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        prefix = ":".join(parts)
        body = f"{self.code}: {self.message}"
        return f"{prefix}: {body}" if prefix else body


class LovelineError(Exception):
    """Base error; ``code`` matches the diagnostic code vocabulary."""

    code = "E_ERROR"


class EmptyIntervalError(LovelineError):
    code = E_EMPTY_INTERVAL


class ThresholdError(LovelineError):
    code = E_THRESHOLD_NONPOSITIVE


class GranularityError(LovelineError):
    code = E_GRANULARITY
