"""Exception hierarchy and the number tests shared by all modules."""

import math
import numbers


def is_number(value, kind=numbers.Real):
    """Whether ``value`` is a ``kind`` number other than a bool.

    JSON ``true`` and ``false`` load as Python bools, which count as
    integers; a setting given either is not a number.
    """
    return isinstance(value, kind) and not isinstance(value, bool)


def is_finite(value):
    """Whether the number ``value`` is neither NaN nor infinite, nor a
    whole number too large for a float (Python's json reads all three)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class GraspEqError(Exception):
    """Base class for all library errors."""


class InvalidNormal(GraspEqError):
    """A surface normal is not a finite unit vector."""


class EmptyObject(GraspEqError):
    """An object point cloud is empty."""


class EmptyHand(GraspEqError):
    """A hand surface sample set is empty."""


class InvalidBinCount(GraspEqError):
    """Force binning needs from 3 to force_codec.MAX_BINS bins."""


class InvalidSpread(GraspEqError):
    """Force binning log-center and log-spread must be finite, the spread
    positive, and the top bin's center a finite float."""


class InvalidForce(GraspEqError):
    """Force values must be finite and non-negative."""


class InvalidTemperature(GraspEqError):
    """Soft-argmax temperature must be positive."""


class ShapeError(GraspEqError):
    """Array arguments have mismatched shapes."""


class InvalidShape(GraspEqError):
    """Synthetic shape parameters are invalid."""


class StyleInfeasible(GraspEqError):
    """Contact style cannot be realized on this object."""


class SolverError(GraspEqError):
    """Iterative solver failed to converge.

    Carries the best iterate found so far in ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
