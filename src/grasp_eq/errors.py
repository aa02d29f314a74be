"""The solvers' Stop record, their one error class and shared number tests.

The library refuses in one of two ways.  Invalid input raises ValueError,
its message naming what is wrong; a stability or force-existence QP that
cannot certify its answer raises SolverError, which carries that answer.
"""

import math
import numbers
from typing import NamedTuple


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


def whole_number(value, name, low, high=math.inf):
    """``value`` as an int, if it is a number other than a bool with no
    fractional part (so 3.0 is 3) and lies in [low, high]; else raise
    ValueError naming ``name``.  The package's one integer test: every
    count, seed, budget and label goes through it."""
    if not (is_number(value) and (isinstance(value, numbers.Integral)
                                  or is_finite(value) and value % 1 == 0)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    if value > high:
        raise ValueError(f"{name} must be at most {high}, got {value!r}")
    return int(value)


class Stop(NamedTuple):
    """Why a solver stopped, and the work it did: a tuple, so that the
    record each QP returns costs little to build.

    A QP's ``reason`` is 'gap' (the duality gap fell below the tolerance),
    'cap' (the budget ran out) or 'nonfinite' (the objective overflowed or
    turned nan); it counts outer active-set ``iterations`` and inner
    least-squares steps as ``evaluations``, and ``final`` is the returned
    iterate's duality gap (inf if no iterate was finite).  A descent
    stage's is 'tol' (a drop below ``convergence_tol``, or a zero loss),
    'backtrack' (no trial kept the loss from rising) or 'cap'; it counts
    accepted steps as ``iterations`` and objective evaluations, the start
    included, and ``final`` is the last accepted drop (nan if none).
    """

    reason: str
    iterations: int
    evaluations: int
    final: float

    def __str__(self):
        return (f"{self.reason} after {self.iterations} iterations, "
                f"{self.evaluations} evaluations, final {self.final:.3e}")

    def as_json(self, final_name):
        """A strict-JSON object; ``final`` is named ``final_name``, and is
        null when not finite."""
        return {"reason": self.reason, "iterations": self.iterations,
                "evaluations": self.evaluations,
                final_name: self.final if math.isfinite(self.final) else None}


class SolverError(Exception):
    """Iterative solver failed to converge.

    Carries the best iterate found so far, with its Stop, in ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
