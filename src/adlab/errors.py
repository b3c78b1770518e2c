"""Typed errors shared across the package."""


class AdlabError(Exception):
    """Base class for all package errors."""


class AmbientMismatchError(AdlabError):
    """Operands live in different ambient groups."""


class CoordinateOverflowError(AdlabError):
    """A lattice coordinate left the signed 64-bit range."""


class SizeCapExceededError(AdlabError):
    """A set-valued result would exceed the requested size cap."""

    def __init__(self, message: str, cap: int | None = None, stage: str | None = None):
        super().__init__(message)
        self.cap = cap
        self.stage = stage


class BudgetExceededError(AdlabError):
    """A search or enumeration ran out of its state budget."""

    def __init__(self, message: str, budget: int | None = None, states: int | None = None):
        super().__init__(message)
        self.budget = budget
        self.states = states


class PreconditionError(AdlabError):
    """A documented precondition of an operation does not hold."""


class VerificationFailedError(AdlabError):
    """A certificate, witness, partition or randomized construction failed
    its deterministic re-verification."""


class TrialsExhaustedError(AdlabError):
    """A randomized procedure used up all its trials without success."""
