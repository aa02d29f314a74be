"""Exception hierarchy shared by all modules."""


class GraspEqError(Exception):
    """Base class for all library errors."""


class InvalidNormal(GraspEqError):
    """A surface normal is not a finite unit vector."""


class EmptyObject(GraspEqError):
    """An object point cloud is empty."""


class EmptyHand(GraspEqError):
    """A hand surface sample set is empty."""


class InvalidBinCount(GraspEqError):
    """Force binning needs at least 3 bins."""


class InvalidSpread(GraspEqError):
    """Force binning log-spread must be positive."""


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
