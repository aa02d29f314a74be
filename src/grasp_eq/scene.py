"""Geometric scene model: point-cloud objects, tangent frames, contact maps.

An object is a sampled surface (points + outward unit normals) with a center
of mass, a mass, and a ball-approximated moment of inertia.  Contact maps are
three per-point channels on the object surface: contact likelihood in [0, 1],
hand part label in 0..16 (0 = no contact), and normal force in Newtons.
The proximity conventions are each written once, here:
``contact_likelihood``, ``nearest_surface`` (the nearest surface sample and
the signed distance (q - p_k) . n_k to it, negative inside) and
``CertifiedNearestSite`` (each object point's nearest hand sample), which
across a descent scans only the points a carried distance bound cannot
certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .hand import N_PARTS, _cross

GRAVITY = (0.0, 0.0, -9.81)

# The contact convention, written only here: likelihood min(c0 / d, 1) with
# c0 = CONTACT_RADIUS and d the distance to the nearest hand sample; a point
# is "in contact" when likelihood >= CONTACT_THRESHOLD, i.e. d <= 4 mm.
CONTACT_RADIUS = 0.002
CONTACT_THRESHOLD = 0.5

_UNIT_TOL = 1e-6
_FLOAT_MAX = np.finfo(float).max
# coordinates no larger than this keep the squared distance between two
# points, such as a surface point and the com, a finite sum
_COORD_MAX = float(np.sqrt(_FLOAT_MAX)) / 4
_MASS_MIN = 1.0 / _COORD_MAX  # keeps 1/mass, a column scale, in that bound


def _as_float_array(value, shape_tail, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and shape_tail == (3,):
        if arr.shape != (3,):
            raise ValueError(f"{name} must have shape (3,), got {arr.shape}")
    elif arr.ndim != 2 or arr.shape[1:] != shape_tail:
        raise ValueError(f"{name} must have shape (n, {shape_tail[0]}), got {arr.shape}")
    # NaN fails this test too
    if not np.all(np.abs(arr) <= _COORD_MAX):
        raise ValueError(f"{name} must be finite, with no coordinate larger "
                         f"than {_COORD_MAX:.3g} in size")
    return arr


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def check_unit_normals(normals):
    """Raise ValueError unless every row is a finite unit vector."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    # no unit vector has a component larger than 1 in size, and a much
    # larger one would overflow the length below; NaN fails this test too
    if not np.all(np.abs(normals) <= 1.0 + _UNIT_TOL):
        raise ValueError("normals must be finite, with no component "
                         f"larger than 1 + {_UNIT_TOL} in size")
    norms = np.linalg.norm(normals, axis=-1)
    bad = np.abs(norms - 1.0) > _UNIT_TOL
    if np.any(bad):
        raise ValueError(f"{int(bad.sum())} normals deviate from unit length by more than {_UNIT_TOL}")
    return normals


def check_forces(force):
    """Raise ValueError unless the (n,) ``force`` array is finite,
    non-negative and small enough that the squares of its entries sum to a
    finite number, as the stability energy needs."""
    if not np.all(np.isfinite(force)) or force.min(initial=0.0) < 0:
        raise ValueError("forces must be finite and non-negative")
    if force.max(initial=0.0) > np.sqrt(_FLOAT_MAX / max(force.size, 1)):
        raise ValueError("forces must be small enough that their squares "
                         "sum to a finite number")


def compute_inertia(points, com, mass):
    """Ball-approximated moment of inertia: 0.4 * mass * max ||p - com||^2."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValueError("cannot compute inertia of an empty point set")
    if not mass >= _MASS_MIN:  # NaN fails this test too
        raise ValueError(f"mass must be at least {_MASS_MIN:.3g}, the "
                         f"reciprocal of the coordinate bound, got {mass!r}")
    com = np.asarray(com, dtype=float)
    max_sq = float(np.max(np.sum((points - com) ** 2, axis=1)))
    return 0.4 * float(mass) * max_sq


@dataclass(frozen=True, eq=False)
class ObjectModel:
    """Rigid body as a sampled surface.

    ``inertia`` is computed from the points, com and mass, never passed in.
    Instances are immutable and safe to share.
    """

    points: np.ndarray
    normals: np.ndarray
    com: np.ndarray
    mass: float
    inertia: float

    def __init__(self, points, normals, com=None, mass=1.0):
        if np.size(points) == 0:
            raise ValueError("object needs at least one surface point")
        points = np.atleast_2d(_as_float_array(points, (3,), "points"))
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        if normals.shape != points.shape:
            raise ValueError("points and normals must have matching shapes")
        check_unit_normals(normals)
        if com is None:
            com = points.mean(axis=0)
        com = _as_float_array(com, (3,), "com")
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "normals", _freeze(normals))
        object.__setattr__(self, "com", _freeze(com))
        object.__setattr__(self, "mass", float(mass))
        object.__setattr__(self, "inertia", compute_inertia(points, com, mass))

    @property
    def n_points(self):
        return self.points.shape[0]

    @cached_property
    def kdtree(self):
        return cKDTree(self.points)


@dataclass(frozen=True, eq=False)
class ContactState:
    """Per-point contact channels: likelihood, hand part label, normal force."""

    likelihood: np.ndarray
    part_label: np.ndarray
    force: np.ndarray

    def __init__(self, likelihood, part_label, force):
        likelihood = np.asarray(likelihood, dtype=float)
        part_label = np.asarray(part_label, dtype=int)
        force = np.asarray(force, dtype=float)
        if not (likelihood.shape == part_label.shape == force.shape) or likelihood.ndim != 1:
            raise ValueError("contact channels must be parallel 1-d arrays")
        if not np.all(np.isfinite(likelihood)) or likelihood.min(initial=0.0) < 0 or likelihood.max(initial=0.0) > 1:
            raise ValueError("likelihood must lie in [0, 1]")
        if part_label.min(initial=0) < 0 or part_label.max(initial=0) > N_PARTS:
            raise ValueError(f"part labels must lie in 0..{N_PARTS}")
        check_forces(force)
        if np.any((force > 0) & (likelihood == 0)):
            raise ValueError("positive force requires positive likelihood")
        if np.any((part_label > 0) & (likelihood == 0)):
            raise ValueError("a labelled point requires positive likelihood")
        object.__setattr__(self, "likelihood", _freeze(likelihood))
        object.__setattr__(self, "part_label", _freeze(part_label))
        object.__setattr__(self, "force", _freeze(force))

    @property
    def n_points(self):
        return self.likelihood.shape[0]

    @property
    def contact_mask(self):
        """Points carrying force; these participate in clustering."""
        return self.force > 0


def tangent_bases(normals):
    """Stacked (b, t) tangent frames for an (n, 3) array of unit normals.

    Pivot rule: take the coordinate axis least aligned with n, project it
    onto the tangent plane and normalize; the second tangent is n x b, which
    makes (b, t, n) right-handed (b x t == n).
    """
    return _pivot_tangents(check_unit_normals(normals))


def _pivot_tangents(normals):
    """tangent_bases without validation, for callers that checked the normals."""
    rows = np.arange(normals.shape[0])
    axis = np.argmin(np.abs(normals), axis=1)
    # e - (e . n) n with e the pivot axis
    b = -normals[rows, axis][:, None] * normals
    b[rows, axis] += 1.0
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return b, _cross(normals, b)


def contact_likelihood(d):
    """Contact likelihood min(CONTACT_RADIUS / d, 1) at hand distances d.

    Written CONTACT_RADIUS / max(d, CONTACT_RADIUS): exactly 1 up to the
    radius, with no division by zero, and NaN where d is NaN."""
    return CONTACT_RADIUS / np.maximum(d, CONTACT_RADIUS)


# Relative slack of CertifiedNearestSite's test and of the bounds it
# carries: far above the rounding of the distances compared (a few ulps),
# far below any gap between two sites that decides a nearest site.
_CERTIFY_MARGIN = 1e-9


class CertifiedNearestSite:
    """Distance from each point to its nearest site, and that site's index,
    at a descent's trial site sets, reusing the answer at the last accepted
    set.

    A full scan, a fresh object's first query, is a dense cdist + argmin
    over squared distances, faster against the 80 hand samples than a
    kd-tree built per call.  Ties go to the lowest site index, and only the
    winners take a square root, so the distances equal cdist's euclidean
    ones bit for bit; squared distances that differ only below the square
    root's rounding are no tie, and the strictly nearer site wins.

    Each point keeps its nearest site (its owner) and a lower bound on its
    distance to every other site; a scan sets the bound to the second
    smallest distance.  A query at moved sites recomputes each point's
    distance to its old owner and lowers the bound by the largest site
    displacement since the accepted set (the triangle inequality, as in
    Hamerly's k-means bounds).  A point whose owner distance stays below the
    lowered bound, less _CERTIFY_MARGIN for rounding, keeps its owner: the
    owner is strictly nearest, so a full scan's argmin and its tie rule
    could pick no other.  Only the other rows are scanned.  The owner
    distance is sqrt((dx*dx + dy*dy) + dz*dz), the sum cdist forms, so
    every answer equals a full scan's bit for bit; it is
    formed on ``columns``, a (3, n) copy of the points, one contiguous
    pass per coordinate.

    A query is ``bracket(sites)``, the owner distances and bounds, then
    ``scan()``, which finishes it; calling the object does both.  Between
    the two, each point's nearest distance lies in [min(dist, lower), dist]
    (before a first accepted query, dist is inf and lower 0), so a caller
    can bound what the scan would return and drop the query unscanned.
    ``accept()`` makes the last scanned query's sites the reference of
    later queries; a query that is not accepted leaves no trace.
    ``queried`` and ``rescanned`` count the rows bracketed and the rows
    scanned.
    """

    def __init__(self, points):
        self.points = points
        self.columns = np.ascontiguousarray(points.T)
        self.queried = self.rescanned = 0
        self._accepted = self._last = self._pending = None

    def __call__(self, sites):
        """(distance, index) of each point's nearest site, as a full scan."""
        self.bracket(sites)
        return self.scan()

    def bracket(self, sites):
        """Start a query at ``sites``: returns (dist, rows, lower), each
        point's distance to its accepted owner, the rows that distance does
        not certify (an index array, every row before the first accepted
        query), and the (n,) lowered bounds on the distance to every other
        site.  ``scan()`` overwrites ``dist`` and ``lower`` at ``rows``."""
        sites = np.array(sites, dtype=float)
        n = self.points.shape[0]
        if self._accepted is None:
            dist, lower = np.full(n, np.inf), np.zeros(n)
            owner = np.empty(n, dtype=np.intp)
            rows = np.arange(n)
        else:
            ref_sites, owner, ref_lower = self._accepted
            step = sites - ref_sites
            shift = math.sqrt(np.einsum("ij,ij->i", step, step).max())
            sq = self.columns - sites.T.take(owner, axis=1)
            sq *= sq
            dist = sq[0] + sq[1]
            dist += sq[2]
            np.sqrt(dist, out=dist)
            lower = ref_lower - (1.0 + _CERTIFY_MARGIN) * shift
            rows = (~(dist < lower)).nonzero()[0]
        self.queried += n
        self._pending = (sites, dist, owner, lower, rows)
        return dist, rows, lower

    def scan(self):
        """Finish the bracketed query: (distance, index) as a full scan."""
        sites, dist, owner, lower, rows = self._pending
        self._pending = None
        d_sq = cdist(self.points.take(rows, axis=0), sites, "sqeuclidean")
        idx = d_sq.argmin(axis=1)
        # each scanned row's smallest entry, then its second smallest, read
        # at flat positions; argmin is far faster than min along a row
        flat = d_sq.reshape(-1)
        starts = np.arange(0, flat.size, d_sq.shape[1])
        dist[rows] = np.sqrt(flat.take(starts + idx))
        owner = owner.copy()
        owner[rows] = idx
        flat[starts + idx] = np.inf
        lower[rows] = np.sqrt(flat.take(starts + d_sq.argmin(axis=1)))
        self.rescanned += idx.size
        self._last = (sites, owner, lower)
        return dist, owner

    def accept(self):
        """Reuse the last query's answer from now on.  Its bounds are
        scaled down by _CERTIFY_MARGIN here, once for every later query."""
        if self._last is not None:
            sites, owner, lower = self._last
            self._accepted = (sites, owner, (1.0 - _CERTIFY_MARGIN) * lower)


def nearest_surface(obj: ObjectModel, queries):
    """Nearest surface sample p_k of each (m, 3) query q, through the cached
    kd-tree: returns (distance, k, signed distance (q - p_k) . n_k), the
    one signed distance, negative inside and as fine as the sampling."""
    d, idx = obj.kdtree.query(queries)
    sd = np.einsum("ij,ij->i", queries - obj.points.take(idx, axis=0),
                   obj.normals.take(idx, axis=0))
    return d, idx, sd


def contact_map_from_hand(obj: ObjectModel, hand_points, hand_parts):
    """Contact likelihood and part labels induced by a posed hand surface.

    likelihood[i] = min(c0 / d_i, 1) with d_i the distance from object point
    i to its nearest hand sample.  The part label is the nearest sample's
    part (the lowest-indexed of a tie) when the likelihood clears the
    contact threshold, 0 otherwise.  The force channel is left at zero.
    """
    hand_points = np.atleast_2d(np.asarray(hand_points, dtype=float))
    hand_parts = np.atleast_1d(np.asarray(hand_parts, dtype=int))
    if hand_points.shape[0] == 0:
        raise ValueError("hand surface sample set is empty")
    if hand_points.shape[0] != hand_parts.shape[0]:
        raise ValueError("hand points and part labels must be parallel")
    d, idx = CertifiedNearestSite(obj.points)(hand_points)
    likelihood = contact_likelihood(d)
    labels = np.where(likelihood >= CONTACT_THRESHOLD, hand_parts[idx], 0)
    return ContactState(likelihood=likelihood, part_label=labels,
                        force=np.zeros(obj.n_points))
