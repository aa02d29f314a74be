"""Geometric scene model: point-cloud objects, tangent frames, contact maps.

An object is a sampled surface (points + outward unit normals) with a center
of mass, a mass, and a ball-approximated moment of inertia.  Contact maps are
three per-point channels on the object surface: contact likelihood in [0, 1],
hand part label in 0..16 (0 = no contact), and normal force in Newtons.
The proximity conventions (contact likelihood, signed distance, nearest hand
sample, nearest surface sample) are each written once, here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import EmptyHand, EmptyObject, InvalidNormal

GRAVITY = (0.0, 0.0, -9.81)

# Contact likelihood is min(c0 / d, 1) with d the distance to the nearest
# hand sample.  A point counts as "in contact" when likelihood >= threshold,
# i.e. d <= c0 / threshold = 4 mm.
CONTACT_RADIUS = 0.002
CONTACT_THRESHOLD = 0.5

N_HAND_PARTS = 16

_UNIT_TOL = 1e-6


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


def check_unit_normals(normals, tol=_UNIT_TOL):
    """Raise InvalidNormal unless every row is a finite unit vector."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    if not np.all(np.isfinite(normals)):
        raise InvalidNormal("normals contain non-finite values")
    norms = np.linalg.norm(normals, axis=-1)
    bad = np.abs(norms - 1.0) > tol
    if np.any(bad):
        raise InvalidNormal(f"{int(bad.sum())} normals deviate from unit length by more than {tol}")
    return normals


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
        if part_label.min(initial=0) < 0 or part_label.max(initial=0) > N_HAND_PARTS:
            raise ValueError(f"part labels must lie in 0..{N_HAND_PARTS}")
        if not np.all(np.isfinite(force)) or force.min(initial=0.0) < 0:
            raise ValueError("forces must be finite and non-negative")
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


@dataclass(frozen=True, eq=False)
class TangentBasis:
    """Right-handed orthonormal frame (b, t, n) with n the surface normal."""

    b: np.ndarray
    t: np.ndarray
    n: np.ndarray


def build_tangent_basis(n):
    """Deterministic tangent frame for a unit normal (see tangent_bases)."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or not np.all(np.isfinite(n)):
        raise InvalidNormal("normal must be a finite 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > _UNIT_TOL:
        raise InvalidNormal("normal must have unit length")
    b, t = tangent_bases(n[None])
    return TangentBasis(b=_freeze(b[0]), t=_freeze(t[0]), n=_freeze(n.copy()))


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
    # t = n x b, written out over the rolled components
    i, j = [1, 2, 0], [2, 0, 1]
    return b, normals[:, i] * b[:, j] - normals[:, j] * b[:, i]


def contact_likelihood(d, c0=CONTACT_RADIUS):
    """Contact likelihood min(c0 / d, 1) of distances d to the nearest hand sample."""
    with np.errstate(divide="ignore"):
        return np.where(d <= c0, 1.0, c0 / d)


def nearest_site(points, sites):
    """Distance from each point to its nearest site, and that site's index.

    A dense cdist + argmin (ties go to the lowest site index): against the
    80 hand samples or a few dozen patch points it is faster than building
    a kd-tree over the sites on every call.
    """
    d_mat = cdist(points, sites)
    idx = np.argmin(d_mat, axis=1)
    return d_mat[np.arange(idx.size), idx], idx


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


def contact_map_from_hand(obj: ObjectModel, hand_points, hand_parts,
                          c0=CONTACT_RADIUS, threshold=CONTACT_THRESHOLD):
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
    likelihood = contact_likelihood(d, c0)
    labels = np.where(likelihood >= threshold, hand_parts[idx], 0)
    return ContactState(likelihood=likelihood, part_label=labels,
                        force=np.zeros(obj.n_points))
