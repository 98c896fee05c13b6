"""Exception types shared across the package.

Everything mathematical raises one of these; plain ``ValueError`` is
reserved for programmer errors (wrong shapes, bad arguments).
"""

from __future__ import annotations


class ChevalleyChowError(Exception):
    """Base class for all package errors."""


class GroupTooLarge(ChevalleyChowError):
    """Group enumeration exceeded the configured cap."""


class DegreeTooLarge(ChevalleyChowError):
    """A graded computation was requested beyond the degree budget."""


class InvalidCartan(ChevalleyChowError):
    """The pairing of simple roots and coroots is not a finite-type Cartan matrix."""


class NonIntegralStructureConstant(ChevalleyChowError):
    """Internal consistency failure: a Schubert structure constant came out
    non-integral or negative."""


class ModeUnsupported(ChevalleyChowError):
    """A computation mode was requested outside its supported hypotheses."""


class DescriptorSyntaxError(ChevalleyChowError):
    """Descriptor input is not syntactically valid JSON.

    Carries the 1-based ``line`` and ``col`` of the first offending byte.
    """

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class SchemaError(ChevalleyChowError):
    """Descriptor input is valid JSON but violates the document schema.

    Carries the ``path`` of the offending node (``group.gluing.v`` style)
    and a human-readable ``reason``.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
