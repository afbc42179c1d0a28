"""Shared exception types.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors in test code.
"""

from __future__ import annotations


class HyperrigError(Exception):
    """Base class for all package errors."""


class MalformedInputError(HyperrigError):
    """Input data violates a structural invariant (bad file, bad presentation)."""


class DomainError(HyperrigError):
    """A value names what its structure lacks (an unknown class, an atom
    outside its class), or a truncation level is below 1."""


class SymbolicOnlyError(HyperrigError):
    """An explicit finite basis was requested but the relevant fiber is
    infinite; only a symbolic verdict is available."""


class BudgetExceededError(HyperrigError):
    """A configured resource budget (basis size) would be exceeded."""


class WitnessRefusedError(HyperrigError):
    """A counterexample was requested for an instance that has none."""


class InternalInconsistencyError(HyperrigError):
    """Two independently computed routes disagree, or a check fails that
    only the toolkit's own values can fail (operands over different
    parents, a copy or function outside what the chain built).  This is a
    defect in the toolkit, never a property of the input."""
