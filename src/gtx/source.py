"""Source positions and diagnostics shared by the parsers and validators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Half-open column range inside one line of a source file (1-based)."""

    file: str
    line: int
    col: int
    end_col: int

    def caret(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(Exception):
    """Malformed textual input; always carries the offending span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span.caret()}: {message}")
        self.message = message
        self.span = span


class UsageError(ValueError):
    """A command or call asked for something its inputs cannot give: an
    unknown rule, a missing start graph, or a bound out of range."""


@dataclass(frozen=True)
class Violation:
    """A semantic problem found by a validator.

    Violations are data, not exceptions: validators return all of them so a
    caller can report the complete picture in one pass.  ``span`` is filled
    in when the element came from a source file.
    """

    message: str
    span: SourceSpan | None = None
