"""Exception hierarchy shared by all fairclus modules."""


class FairclusError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FairclusError):
    """Input file or stream could not be parsed in the declared format."""


class ValidationError(FairclusError):
    """Structured input violates a documented invariant (metric axiom, color range, ...)."""


class InfeasibleError(FairclusError):
    """No solution satisfies the requested constraints.

    Carries an optional diagnosis (list of human-readable reasons).
    """

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = list(diagnosis) if diagnosis else []


class BudgetExceededError(FairclusError):
    """An enumeration or time budget was exhausted before completion."""


class ContractViolationError(FairclusError):
    """A pluggable backend returned a solution violating its declared contract."""


class PipelineError(FairclusError):
    """An internal pipeline invariant failed; names the stage that broke."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
