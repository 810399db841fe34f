"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` alongside the human
message, and its class the CLI's ``exit_code`` (hypothesis/input
violations exit 2, resource limits 3, internal consistency failures 4).
"""

from __future__ import annotations


class CharvarError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    exit_code = 2

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class InvalidInputError(CharvarError):
    """Invalid input: a malformed descriptor or config, or data that break an axiom."""


class HypothesisError(CharvarError):
    """A mathematical hypothesis of the counting theorem fails for the input."""


class ResourceLimitError(CharvarError):
    """A configured enumeration bound or budget was exceeded."""

    exit_code = 3


class InternalConsistencyError(CharvarError):
    """The engine derived something impossible (e.g. a non-polynomial count).

    This indicates a bug or an inconsistent override, never a mere bad input.
    """

    exit_code = 4
