"""Exception hierarchy shared across the package.

Every error raised by chansim derives from :class:`ChanSimError`, so callers
(and the CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class ChanSimError(Exception):
    """Base class for all chansim errors."""


class DimensionMismatch(ChanSimError):
    pass


class NotFinite(ChanSimError):
    """An input holds a NaN or an infinite entry."""


class _IndexedError(ChanSimError):
    """``index`` identifies the offending element (0-based) when the check
    ran over a sequence, else it is None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NotHermitian(_IndexedError):
    """A matrix that should be Hermitian is not."""


class NotPsd(_IndexedError):
    """A matrix that should be positive semidefinite is not."""


class SumNotIdentity(ChanSimError):
    pass


class TraceNotOne(ChanSimError):
    pass


class EnumerationCapExceeded(ChanSimError):
    pass


class NegativeWeight(ChanSimError):
    pass


class NonRealResult(ChanSimError):
    pass


class MassDriftExceeded(ChanSimError):
    """Total probability mass drifted too far from 1 to renormalize."""


class UnbalancedInstance(ChanSimError):
    pass


class ZeroSupplyNode(ChanSimError):
    pass


class TransportInfeasible(ChanSimError):
    """Raised by consumers when a transport instance that is guaranteed
    feasible in exact arithmetic fails numerically.

    ``violator`` carries the Hall certificate for diagnosis.
    """

    def __init__(self, message: str, violator=None):
        super().__init__(message)
        self.violator = violator


class LengthMismatch(ChanSimError):
    pass


class NotMajorized(ChanSimError):
    pass


class NotDoublyStochastic(ChanSimError):
    pass


class BadRange(ChanSimError):
    pass


class BadDelta(ChanSimError):
    pass


class NumericalBreakdown(ChanSimError):
    pass


class LpInfeasible(ChanSimError):
    """The polytope asymmetry LP did not reach an optimum, or reached no
    positive one (a degenerate body)."""


class WeightSumNotOne(ChanSimError):
    pass


class NotPartitionOfUnity(ChanSimError):
    pass


class PreconditionViolated(ChanSimError):
    pass


class EmptyInput(ChanSimError):
    pass


class NotFullDimensional(ChanSimError):
    pass


class InvalidCertificate(ChanSimError):
    pass
