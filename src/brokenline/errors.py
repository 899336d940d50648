"""Exception types shared across the library."""


class BrokenLineError(Exception):
    """Base class for all domain errors raised by this package."""


class NonMinimalPeriod(BrokenLineError):
    """A word was expected to be primitive (not a proper power) and is not."""


class NoDifference(BrokenLineError):
    """Two periodic streams agreed for longer than Farey neighbors allow."""


class HypothesisViolated(BrokenLineError):
    """A broken-line parameter choice breaks one of the hinge inequalities."""


class NotCoprime(BrokenLineError):
    """Two integers that must be coprime are not."""


class MalformedCuttingSequence(BrokenLineError):
    """A word fed to the contraction step has a 1 with no 0 in front of it."""


class UnlinkViolation(BrokenLineError):
    """A preimage interval crossed the partition interval on the circle."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"interval pair {index} is linked")


class NotPeriodic(BrokenLineError):
    """The angle is not purely periodic under doubling (even denominator)."""


class NotBrokenLineKneading(BrokenLineError):
    """A kneading sequence does not come from any broken line."""


class BracketingFailed(BrokenLineError):
    """A broken-line angle fell outside its predicted junction-ray bracket."""


class PreconditionUnmet(BrokenLineError):
    """An input does not satisfy a documented precondition."""


class BudgetExceeded(BrokenLineError):
    """An answer would take more work than the caller allows, such as an
    angle whose period passes the command line's cap."""


class InvariantViolated(BrokenLineError):
    """An internal consistency check failed: a bug, not bad input.

    ``stage`` names the function whose check failed; ``spec`` is the
    broken-line parameter choice it was working on, when there is one.
    """

    def __init__(self, stage: str, message: str, spec=None):
        self.stage = stage
        self.spec = spec
        super().__init__(f"{stage}: {message}")
