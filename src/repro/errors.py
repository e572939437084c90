"""Exception hierarchy for the EasyView reproduction, plus :class:`Span`,
the character-range type shared by formula errors and lint diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, order=True)
class Span:
    """A half-open ``[start, end)`` character range into a source text.

    Formula tokens, formula AST nodes, :class:`FormulaError`, and every
    :class:`repro.lint.Diagnostic` locate themselves with the same type, so
    an IDE can turn any of them into a squiggle without translation.
    """

    start: int = 0
    end: int = 0

    def __len__(self) -> int:
        return max(0, self.end - self.start)

    def slice(self, source: str) -> str:
        """The spanned text."""
        return source[self.start:self.end]

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end}

    @classmethod
    def point(cls, position: int) -> "Span":
        """A single-character span at ``position``."""
        return cls(position, position + 1)


class EasyViewError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(EasyViewError):
    """A profile payload does not conform to its declared format."""


class OversizedError(FormatError):
    """A payload would inflate past its decompression budget."""


class ConversionError(EasyViewError):
    """A converter could not map a foreign profile into EasyView's model."""


class SchemaError(EasyViewError):
    """A profile violates the EasyView data model (bad ids, metrics, ...)."""


class AnalysisError(EasyViewError):
    """An analysis was asked to do something unsupported or inconsistent."""


class FormulaError(AnalysisError):
    """A derived-metric formula failed to lex, parse, or evaluate.

    Always carries the :class:`Span` of the offending token or
    subexpression (when one is known), so editors can underline the exact
    characters instead of echoing the whole formula.
    """

    def __init__(self, message: str, span: Optional[Span] = None) -> None:
        super().__init__(message)
        self.span = span


class ProtocolError(EasyViewError):
    """A Profile View Protocol message was malformed or out of order."""


class StoreError(EasyViewError):
    """The profile store hit a structural problem: corrupt segment,
    unknown query field, manifest referencing a missing file."""


class QueryError(StoreError):
    """A store query string failed to parse or referenced unknown keys."""
