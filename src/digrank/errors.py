"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: InputError and ParseError mean the
input itself was unusable (exit 1), DomainError means the input was well
formed but the requested operation does not apply to it (exit 2), and
CapacityError / ResourceLimitError mean the instance is too large for an
exact algorithm (exit 3).
"""

from __future__ import annotations


class DigrankError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DigrankError):
    """Malformed or out-of-range input (bad vertex ids, bad arguments).

    Example: a graph with loops passed to the bounds chain.
    """


class ParseError(InputError):
    """Text input that does not follow one of the file formats."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(DigrankError):
    """Structurally sound input outside an operation's domain.

    Example: an automaton that is not bideterministic passed to the star
    height pipeline.
    """


class CapacityError(DigrankError):
    """Instance exceeds a size limit of an exact algorithm."""


class ResourceLimitError(CapacityError):
    """A run-time cap (memo size, enumeration cap) was exceeded.

    ``partial`` carries whatever progress measure the aborted operation
    had reached, e.g. the number of sets enumerated so far.
    """

    def __init__(self, message: str, partial: int | None = None):
        self.partial = partial
        super().__init__(message)
