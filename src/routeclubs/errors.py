"""Shared exception types."""

from __future__ import annotations


class PreconditionError(RuntimeError):
    """An operation was called in a state its contract rules out."""


class IncompleteMatrixError(PreconditionError):
    """A required joint action is missing from a payoff matrix."""

    def __init__(self, action_label: str):
        super().__init__(f"payoff matrix has no entry for joint action {action_label!r}")
        self.action_label = action_label


class FormatError(ValueError):
    """An input file violates its on-disk schema."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MatrixFormatError(FormatError):
    """A payoff-matrix file violates the matrix schema."""
