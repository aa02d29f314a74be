"""Geometric scene model: point-cloud objects, tangent frames, contact maps.

An object is a sampled surface (points + outward unit normals) with a center
of mass, a mass, and a ball-approximated moment of inertia.  Contact maps are
three per-point channels on the object surface: contact likelihood in [0, 1],
hand part label in 0..16 (0 = no contact), and normal force in Newtons.
The proximity conventions (contact likelihood, signed distance, nearest hand
sample, nearest surface sample) are each written once, here.  The nearest
hand sample has one kernel, ``nearest_site``'s cdist + argmin;
``CertifiedNearestSite`` answers a descent's repeated queries with it,
scanning only the points whose nearest sample a distance bound carried from
the last accepted query cannot certify, and brackets each point's nearest
distance before that scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import EmptyHand, EmptyObject, InvalidNormal
from .hand import N_PARTS, _cross

GRAVITY = (0.0, 0.0, -9.81)

# The contact convention, written only here: likelihood min(c0 / d, 1) with
# c0 = CONTACT_RADIUS and d the distance to the nearest hand sample; a point
# is "in contact" when likelihood >= CONTACT_THRESHOLD, i.e. d <= 4 mm.
CONTACT_RADIUS = 0.002
CONTACT_THRESHOLD = 0.5

_UNIT_TOL = 1e-6
_FLOAT_MAX = np.finfo(float).max


def _as_float_array(value, shape_tail, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and shape_tail == (3,):
        if arr.shape != (3,):
            raise ValueError(f"{name} must have shape (3,), got {arr.shape}")
    elif arr.ndim != 2 or arr.shape[1:] != shape_tail:
        raise ValueError(f"{name} must have shape (n, {shape_tail[0]}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def check_unit_normals(normals):
    """Raise InvalidNormal unless every row is a finite unit vector."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    # no unit vector has a component larger than 1 in size, and a much
    # larger one would overflow the length below; NaN fails this test too
    if not np.all(np.abs(normals) <= 1.0 + _UNIT_TOL):
        raise InvalidNormal("normals must be finite, with no component "
                            f"larger than 1 + {_UNIT_TOL} in size")
    norms = np.linalg.norm(normals, axis=-1)
    bad = np.abs(norms - 1.0) > _UNIT_TOL
    if np.any(bad):
        raise InvalidNormal(f"{int(bad.sum())} normals deviate from unit length by more than {_UNIT_TOL}")
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
        raise EmptyObject("cannot compute inertia of an empty point set")
    if mass <= 0:
        raise ValueError("mass must be positive")
    com = np.asarray(com, dtype=float)
    max_sq = float(np.max(np.sum((points - com) ** 2, axis=1)))
    return 0.4 * float(mass) * max_sq


@dataclass(frozen=True, eq=False)
class ObjectModel:
    """Rigid body as a sampled surface.

    ``inertia`` is always recomputed from the points; any caller-supplied
    value is ignored.  Instances are immutable and safe to share.
    """

    points: np.ndarray
    normals: np.ndarray
    com: np.ndarray
    mass: float = 1.0
    inertia: float = 0.0

    def __init__(self, points, normals, com=None, mass=1.0):
        points = _as_float_array(points, (3,), "points")
        points = np.atleast_2d(points)
        if points.shape[0] < 1:
            raise EmptyObject("object needs at least one surface point")
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        if normals.shape != points.shape:
            raise ValueError("points and normals must have matching shapes")
        check_unit_normals(normals)
        if com is None:
            com = points.mean(axis=0)
        com = _as_float_array(com, (3,), "com")
        if not mass > 0:
            raise ValueError("mass must be positive")
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


def _scan(points, sites):
    """nearest_site's kernel: squared distances and each row's argmin."""
    d_sq = cdist(points, sites, "sqeuclidean")
    return d_sq, np.argmin(d_sq, axis=1)


def nearest_site(points, sites):
    """Distance from each point to its nearest site, and that site's index.

    A dense cdist + argmin (ties go to the lowest site index): against the
    80 hand samples or a few dozen patch points it is faster than building
    a kd-tree over the sites on every call.  The argmin runs over squared
    distances and only the winners take a square root, so the distances
    equal cdist's euclidean ones bit for bit; two sites whose squared
    distances differ only below the rounding of the square root are not a
    tie, and the strictly nearer one wins.  Over a descent's trial site
    sets, ``CertifiedNearestSite`` gives the same answers and sends only
    the rows it cannot certify through this scan.
    """
    d_sq, idx = _scan(points, sites)
    return np.sqrt(d_sq[np.arange(idx.size), idx]), idx


# Relative slack of CertifiedNearestSite's test and of the bounds it
# carries: far above the rounding of the distances compared (a few ulps),
# far below any gap between two sites that decides a nearest site.
_CERTIFY_MARGIN = 1e-9


class CertifiedNearestSite:
    """nearest_site(points, sites) at a descent's trial site sets, reusing
    the answer at the last accepted set.

    Each point keeps its nearest site (its owner) and a lower bound on its
    distance to every other site; a scan sets the bound to the second
    smallest distance.  A query at moved sites recomputes each point's
    distance to its old owner and lowers the bound by the largest site
    displacement since the accepted set (the triangle inequality, as in
    Hamerly's k-means bounds).  A point whose owner distance stays below the
    lowered bound, less _CERTIFY_MARGIN for rounding, keeps its owner: the
    owner is strictly nearest, so nearest_site's argmin and its tie rule
    could pick no other.  Only the other rows go through nearest_site's
    scan.  The owner distance is sqrt((dx*dx + dy*dy) + dz*dz), the sum
    cdist forms, so every answer equals nearest_site's bit for bit; it is
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
        """(distance, index) of each point's nearest site, as nearest_site."""
        self.bracket(sites)
        return self.scan()

    def bracket(self, sites):
        """Start a query at ``sites``: returns (dist, rows, lower), each
        point's distance to its accepted owner, the rows that distance does
        not certify (an index array, or a slice of every row before the
        first accepted query), and the (n,) lowered bounds on the distance
        to every other site.  ``scan()`` overwrites ``dist`` and ``lower``
        at ``rows``."""
        sites = np.array(sites, dtype=float)
        n = self.points.shape[0]
        if self._accepted is None:
            dist, lower = np.full(n, np.inf), np.zeros(n)
            owner = np.empty(n, dtype=np.intp)
            rows = slice(None)
        else:
            ref_sites, owner, ref_lower = self._accepted
            step = sites - ref_sites
            shift = np.sqrt(np.max(np.einsum("ij,ij->i", step, step)))
            sq = self.columns - sites.T.take(owner, axis=1)
            sq *= sq
            dist = sq[0] + sq[1]
            dist += sq[2]
            np.sqrt(dist, out=dist)
            lower = ref_lower - (1.0 + _CERTIFY_MARGIN) * shift
            rows = np.flatnonzero(~(dist < lower))
        self.queried += n
        self._pending = (sites, dist, owner, lower, rows)
        return dist, rows, lower

    def scan(self):
        """Finish the bracketed query: (distance, index) as nearest_site."""
        sites, dist, owner, lower, rows = self._pending
        self._pending = None
        d_sq, idx = _scan(self.points[rows], sites)
        scanned = np.arange(idx.size)
        dist[rows] = np.sqrt(d_sq[scanned, idx])
        owner = owner.copy()
        owner[rows] = idx
        d_sq[scanned, idx] = np.inf
        # the second smallest; argmin is far faster than min along a row
        lower[rows] = np.sqrt(d_sq[scanned, np.argmin(d_sq, axis=1)])
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
    kd-tree: returns (distance, k, signed distance (q - p_k) . n_k)."""
    d, idx = obj.kdtree.query(queries)
    sd = np.einsum("ij,ij->i", queries - obj.points[idx], obj.normals[idx])
    return d, idx, sd


def signed_distance(obj: ObjectModel, query):
    """Signed distance to the sampled surface: (q - p_k) . n_k, negative inside.

    p_k is the nearest surface sample; accuracy is limited by the sampling
    density.  Accepts a single query point or an (m, 3) batch.
    """
    query = np.asarray(query, dtype=float)
    _, _, sd = nearest_surface(obj, np.atleast_2d(query))
    return float(sd[0]) if query.ndim == 1 else sd


def contact_map_from_hand(obj: ObjectModel, hand_points, hand_parts):
    """Contact likelihood and part labels induced by a posed hand surface.

    likelihood[i] = min(c0 / d_i, 1) with d_i the distance from object point
    i to its nearest hand sample.  The part label is the nearest sample's
    part when the likelihood clears the contact threshold, 0 otherwise.  The
    force channel is left at zero.
    """
    hand_points = np.atleast_2d(np.asarray(hand_points, dtype=float))
    hand_parts = np.atleast_1d(np.asarray(hand_parts, dtype=int))
    if hand_points.shape[0] == 0:
        raise EmptyHand("hand surface sample set is empty")
    if hand_points.shape[0] != hand_parts.shape[0]:
        raise ValueError("hand points and part labels must be parallel")
    d, idx = nearest_site(obj.points, hand_points)
    likelihood = contact_likelihood(d)
    labels = np.where(likelihood >= CONTACT_THRESHOLD, hand_parts[idx], 0)
    return ContactState(likelihood=likelihood, part_label=labels,
                        force=np.zeros(obj.n_points))
