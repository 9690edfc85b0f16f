"""Exception hierarchy with machine-readable codes (mirrored in CLI JSON output)."""

from __future__ import annotations


class AptError(Exception):
    """Base class for domain errors raised by this library."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def as_report(self) -> dict:
        report = {"code": self.code, "message": str(self)}
        if self.details:
            report["details"] = self.details
        return report


class InvalidInput(AptError):
    code = "bad-input"


class ImproperCone(AptError):
    code = "improper-cone"


class MissingFace(AptError):
    code = "missing-face"


class BadIntersection(AptError):
    code = "bad-intersection"


class NotSeparable(AptError):
    code = "not-separable"


class NotOneDimensional(AptError):
    code = "not-one-dimensional"


class UnsupportedDecoration(AptError):
    code = "unsupported-decoration"


class UnsupportedShape(AptError):
    code = "unsupported-shape"


class PointNotInSet(AptError):
    code = "point-not-in-set"


class NotGammaOpen(AptError):
    code = "not-gamma-open"


class EmptyInterior(AptError):
    code = "empty-interior"


class IncompleteFan(AptError):
    code = "incomplete-fan"


class EmptyInput(AptError):
    code = "empty-input"


class NotAdjacent(AptError):
    code = "not-adjacent"


class NotInDualCone(AptError):
    code = "not-in-dual-cone"


class ComputationTooLarge(AptError):
    """An exact computation grew past a fixed size cap of the library."""

    code = "too-large"


class InternalCheckFailed(AptError):
    """A self-check of the library failed: a fault of the library, not of the input."""

    code = "internal-check-failed"
