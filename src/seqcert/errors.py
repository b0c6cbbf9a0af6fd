"""Exception hierarchy for seqcert."""

from __future__ import annotations


class SeqcertError(Exception):
    """Base class for all seqcert errors."""


class NoCertifiedValue(SeqcertError):
    """Neither a finite value with its bound nor a certified +inf: a proper
    convex f maps into (-inf, +inf] (Rockafellar, Convex Analysis, Sec. 4).
    The walk's value answer returns and keeps it; evaluate raises it."""


class NonConvergentPairing(NoCertifiedValue):
    """The dual pairing series is not certified absolutely convergent."""


class NoMajorant(NoCertifiedValue):
    """No summable tail majorant can be derived for a series."""


class DomainViolation(NoCertifiedValue):
    """A point lies outside the domain of a function (e.g. a negative
    coordinate fed to a square-root term)."""


class NegativeScale(SeqcertError):
    """Convex expressions only admit nonnegative scaling factors."""


class NonConvexBehavior(SeqcertError):
    """Difference quotients violated convex monotonicity beyond the noise
    floor; the input is either non-convex or buggy.  No package road scans
    quotients any more: only the tests' reference quotient scan raises it."""


class DomainLimited(SeqcertError):
    """No side of a directional derivative is evaluable: every step to
    either side of the base point leaves the domain."""


class PartialNotDifferentiable(SeqcertError):
    """A reduced-problem partial derivative does not exist."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"partial derivative {index} does not exist")


class Unbounded(SeqcertError):
    """Iterates of the reduced minimizer diverged beyond the safety bound."""


class MaxSweeps(SeqcertError):
    """The reduced minimizer hit its sweep limit before converging."""


class InfeasiblePoint(SeqcertError):
    """The candidate point violates the constraint system."""


class ScenarioError(SeqcertError):
    """A scenario file failed to parse or validate."""


class ShapeError(ValueError):
    """A JSON document off the shape its decoder reads.

    ``path`` lists the keys and indices from the document's root down to
    the offending value: each decoder the error leaves through puts its own
    key in front."""

    def __init__(self, reason: str, *path):
        super().__init__(reason)
        self.reason = reason
        self.path = list(path)

    @property
    def where(self) -> str:
        return "/".join(map(str, self.path)) or "<root>"

    def __str__(self) -> str:
        return f"at {self.where}: {self.reason}"
