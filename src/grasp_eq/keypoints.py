"""Stability-optimal contact keypoint selection.

Contact points are clustered per hand part (single linkage) in one
neighbour pass over all force-carrying points, dropping the pairs across
parts; one cluster per part is chosen by conditional stability energy, and
the final keypoint combination is the part subset with the least stability
energy over all C(|H|, n_kp) candidates.  Both choices take the earliest
candidate whose energy is within QP_TOL of the least.  Both are exact
searches that assemble one system per search and solve the stability QP
only for the candidates that can decide the answer.  Each candidate's
energy is bounded from below by its per-row interval bound and by the
weak-duality bound from every solved candidate's optimal acceleration.
The search solves best first, by least bound, and skips a candidate once
its bound shows that it can neither tie the least energy ahead of the
current answer nor lower the least energy past it.  Keypoint targets sit
one finger radius outside the contact centers along the cluster normals.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .equilibrium import (DEFAULT_MU, QP_TOL, assemble, energy_lower_bounds,
                          stability_energy)
from .errors import SolverError, is_finite, is_number
from .scene import _COORD_MAX, GRAVITY, ContactState, ObjectModel

DEFAULT_CLUSTER_RADIUS = 0.01
# Targets sit this far outside the contact centers along the normal: a part
# center lies on its bone, one finger radius behind the skin that touches.
# The package's only radius (see README "Conventions").
DEFAULT_KEYPOINT_OFFSET = 0.005
DEFAULT_N_KEYPOINTS = 3
# Keypoint targets are bounded 1e4 times tighter than scene coordinates.
# Stages II and III pull the hand toward targets it cannot reach, and their
# steps turn it by a rotation vector that grows with the targets' distance:
# targets about 1.5e153 from the object already give a rotation vector
# whose squared norm passes the float range.
_TARGET_MAX = _COORD_MAX * 1e-4

_log = logging.getLogger("grasp_eq")


@dataclass(frozen=True, eq=False)
class PartCluster:
    """A connected patch of contact points on one hand part.

    ``center`` is the force-weighted mean position, ``force`` the summed
    normal force, and ``normal`` the force-weighted mean normal
    (renormalized; falls back to the strongest member's normal when the
    average degenerates).
    """

    part: int
    indices: np.ndarray
    center: np.ndarray
    force: float
    normal: np.ndarray


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Selected hand parts with aggregated contacts and offset targets."""

    parts: tuple
    centers: np.ndarray
    forces: np.ndarray
    normals: np.ndarray
    targets: np.ndarray
    energy: float


def check_keypoint_settings(cluster_radius=DEFAULT_CLUSTER_RADIUS,
                            n_kp=DEFAULT_N_KEYPOINTS,
                            target_offset=DEFAULT_KEYPOINT_OFFSET):
    """The checks cluster_contacts, select_keypoints and make_targets make
    on their settings, so that a caller can refuse them before any work:
    raises ValueError naming the setting, else returns n_kp as an int."""
    if not (is_number(cluster_radius) and is_finite(cluster_radius)
            and cluster_radius > 0):
        raise ValueError(f"cluster_radius must be a finite number > 0, "
                         f"got {cluster_radius!r}")
    # NaN and the infinities fail these tests too
    if not (is_number(n_kp) and n_kp % 1 == 0 and n_kp >= 1):
        raise ValueError(f"n_kp must be an integer of at least 1, got {n_kp!r}")
    if not (is_number(target_offset) and 0 <= target_offset <= _TARGET_MAX):
        raise ValueError(f"keypoint offset must be a number from 0 to "
                         f"{_TARGET_MAX:.3g}, got {target_offset!r}")
    return int(n_kp)


def _components(count, pairs):
    """Connected components of the graph on ``count`` points with edges
    ``pairs`` (an (m, 2) index array): each point's label is the smallest
    index in its component.

    Min-label propagation with pointer jumping (Shiloach & Vishkin 1982):
    each round lowers both ends of every edge to the smaller of their
    labels, then replaces every label by its own label, until a round
    changes nothing.  Labels only fall and never leave a component, and at
    the fixed point every edge joins equal labels, each the label of its
    own point, so that label is the component's smallest index.
    """
    label = np.arange(count)
    heads, tails = pairs[:, 0], pairs[:, 1]
    while True:
        low = np.minimum(label[heads], label[tails])
        lowered = label.copy()
        np.minimum.at(lowered, heads, low)
        np.minimum.at(lowered, tails, low)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return label
        label = lowered


def cluster_contacts(obj: ObjectModel, contacts: ContactState,
                     radius: float = DEFAULT_CLUSTER_RADIUS):
    """Single-linkage clustering of force-carrying points within each part.

    Two points of one part join the same cluster when a chain of that
    part's points, with steps of length <= radius, connects them.  One
    neighbour pass over all force-carrying points finds the close pairs,
    and pairs across parts are dropped.  Returns {part id: [PartCluster,
    ...]} with parts ascending and clusters ordered by their smallest
    point index.
    """
    check_keypoint_settings(cluster_radius=radius)
    idx = np.flatnonzero(contacts.contact_mask)
    if not idx.size:
        return {}
    labels = contacts.part_label[idx]
    pairs = cKDTree(obj.points[idx]).query_pairs(radius, output_type="ndarray")
    pairs = pairs[labels[pairs[:, 0]] == labels[pairs[:, 1]]]
    component = _components(len(idx), pairs)
    # a stable sort keeps each component's points ascending, and a
    # component's label is its smallest point index, so the runs come
    # ordered by their smallest point index
    order = component.argsort(kind="stable")
    members, labels, component = (a.take(order) for a in
                                  (idx, labels, component))
    bounds = [0, *((component[1:] != component[:-1]).nonzero()[0]
                   + 1).tolist(), len(idx)]
    forces = contacts.force.take(members)
    weighted_points = forces[:, None] * obj.points.take(members, axis=0)
    weighted_normals = forces[:, None] * obj.normals.take(members, axis=0)
    out = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        f = forces[lo:hi]
        total = float(f.sum())
        center = weighted_points[lo:hi].sum(axis=0) / total
        avg = weighted_normals[lo:hi].sum(axis=0)
        # np.linalg.norm's own arithmetic
        norm = math.sqrt(avg.dot(avg))
        if norm > 1e-9:
            normal = avg / norm
        else:
            normal = obj.normals[members[lo + int(f.argmax())]]
        part = int(labels[lo])
        out.setdefault(part, []).append(
            PartCluster(part, members[lo:hi], center, total, normal))
    return dict(sorted(out.items()))


def _assemble_clusters(cluster_list, obj, mu, gravity):
    """One system over the clusters, each treated as a point contact."""
    return assemble(obj, np.array([c.center for c in cluster_list]),
                    np.array([c.normal for c in cluster_list]),
                    np.array([c.force for c in cluster_list]),
                    mu=mu, gravity=gravity)


def _candidate_bounds(sys, candidates):
    """energy_lower_bounds of each candidate's sub-system, in one pass.

    Candidate j's force column is the system's forces on the columns in
    row j of ``candidates`` and zero elsewhere.
    """
    forces = np.zeros((sys.n_contacts, len(candidates)))
    forces[candidates, np.arange(len(candidates))[:, None]] = (
        sys.forces.take(candidates))
    return energy_lower_bounds(sys, forces)


def _dual_bounds(sys, candidates, y):
    """Weak-duality lower bound on each candidate's stability energy.

    For any direction y and any friction choice x in the box,
    ||A x + c|| >= y.(A x + c) / |y| >= beta / |y| with
    beta = y.c - sum_j |A_j^T y|, so the energy is at least
    max(beta, 0)^2 / |y|^2.  At a candidate's own optimal acceleration the
    bound is that candidate's energy.  beta is summed from per-column
    terms of ``sys``: y.(N F) - |y.(B mu F)| - |y.(T mu F)| over the
    candidate's columns, plus y.g6.  y = 0 bounds nothing.
    """
    # np.linalg.norm's own arithmetic
    norm = math.sqrt(y.dot(y))
    if norm == 0.0:
        return np.zeros(len(candidates))
    y = y / norm
    scaled = sys.mu * sys.forces
    terms = ((y @ sys.n_mat) * sys.forces - np.abs(y @ sys.b_mat) * scaled
             - np.abs(y @ sys.t_mat) * scaled)
    beta = terms.take(candidates).sum(axis=1) + y @ sys.gravity6
    return np.maximum(beta, 0.0) ** 2


def _least_energy(sys, candidates):
    """Least-energy candidate, ties to the earliest: (index, energy).

    Row j of the (K, k) ``candidates`` lists the columns of ``sys`` that
    make candidate j.  The answer is the earliest candidate whose energy
    is within QP_TOL, the solver's certified gap, of the least energy.  The
    search returns it, bit for bit, solving only the candidates that can
    decide it.

    Every candidate carries a lower bound on its energy: first its
    interval bound, then, after each solve, the larger of that and the
    weak-duality bound from the solved candidate's optimal acceleration
    (``_dual_bounds``, tight at its own candidate).  Each bound is lowered
    by QP_TOL / 4, which absorbs its rounding (near 1e-13), so it is never
    above the energy the solver returns.

    Let U be the least energy solved so far and ``best`` the earliest
    solved candidate with energy <= U + QP_TOL.  An unsolved candidate can
    change the answer only if it comes before ``best`` with a bound
    <= U + QP_TOL, or if its bound + QP_TOL is below ``best``'s energy (it
    could lower U past ``best``).  The least-bound such candidate is solved
    until none is left.  Both tests add QP_TOL and compare as the rule
    does; rounding is monotone, so a bound that fails a test fails it for
    every energy above it.
    """
    candidates = np.asarray(candidates)
    count = len(candidates)
    lower = _candidate_bounds(sys, candidates) - QP_TOL / 4
    energies = np.full(count, np.inf)
    solved = np.zeros(count, dtype=bool)
    least, best, best_energy = np.inf, count, np.inf
    # each pass solves one more candidate or stops
    for solves in range(1, count + 1):
        deciding = lower + QP_TOL < best_energy
        deciding[:best] |= lower[:best] <= least + QP_TOL
        deciding[solved] = False
        pending = deciding.nonzero()[0]
        if not pending.size:
            break
        j = int(pending[lower.take(pending).argmin()])
        try:
            res = stability_energy(sys.take(candidates[j]))
        except SolverError as err:
            # non-converged energy is still a valid upper bound for
            # comparisons, and its acceleration a valid direction
            res = err.result
        energies[j], solved[j] = res.energy, True
        if solves < count:
            np.maximum(lower, _dual_bounds(sys, candidates, res.accel)
                       - QP_TOL / 4, out=lower)
        least = energies.min()
        best = int((solved & (energies <= least + QP_TOL)).argmax())
        best_energy = energies[best]
    _log.debug("stability search: %d candidates, %d solved, %d skipped, "
               "best energy %.3e", count, solved.sum(), count - solved.sum(),
               best_energy)
    return best, best_energy


def select_clusters(clusters, obj: ObjectModel, mu: float = DEFAULT_MU,
                    gravity=GRAVITY):
    """Pick one representative cluster per part by conditional energy.

    Each part starts with its highest-force cluster; parts are then visited
    in ascending id, re-selecting the cluster that minimizes the stability
    energy of {candidate} united with the other parts' current
    representatives, in one pass.  The pick is the earliest cluster whose
    energy is within QP_TOL, the solver's certified gap, of the least.  One
    system is assembled over every cluster, and a candidate's QP is solved
    only when its bounds leave it able to decide the pick (see
    ``_least_energy``), so the pick is the one solving every candidate
    gives.
    """
    if not clusters:
        raise ValueError("no part has any contact cluster")
    parts = sorted(clusters)
    # reps and candidates are indices into flat, the columns of the system
    flat, start, reps = [], {}, {}
    for p in parts:
        start[p] = len(flat)
        reps[p] = len(flat) + max(range(len(clusters[p])),
                                  key=lambda j: clusters[p][j].force)
        flat.extend(clusters[p])
    contested = [p for p in parts if len(clusters[p]) > 1]
    sys = _assemble_clusters(flat, obj, mu, gravity) if contested else None
    for p in contested:
        others = [reps[q] for q in parts if q != p]
        best, _ = _least_energy(sys, [[start[p] + j] + others
                                      for j in range(len(clusters[p]))])
        reps[p] = start[p] + best
    return {p: flat[reps[p]] for p in parts}


def select_keypoints(representatives, obj: ObjectModel, mu: float = DEFAULT_MU,
                     gravity=GRAVITY, n_kp: int = DEFAULT_N_KEYPOINTS) -> KeypointSet:
    """Exact search for the part subset with least stability energy.

    Searches every C(|H|, min(n_kp, |H|)) combination, so with |H| <= n_kp
    all parts are kept.  One system is assembled over all representatives,
    and a combination's QP is solved only when its bounds leave it able to
    decide the result (see ``_least_energy``), so the result is the one
    solving every combination gives: the lexicographically smallest
    part-id tuple whose energy is within QP_TOL, the solver's certified
    gap, of the least.
    """
    n_kp = check_keypoint_settings(n_kp=n_kp)
    if not representatives:
        raise ValueError("no representative clusters to select from")
    parts = sorted(representatives)
    combos = list(itertools.combinations(range(len(parts)),
                                         min(n_kp, len(parts))))
    sys = _assemble_clusters([representatives[p] for p in parts], obj, mu,
                             gravity)
    best, best_energy = _least_energy(sys, combos)
    chosen = [parts[i] for i in combos[best]]
    reps = [representatives[p] for p in chosen]
    centers = np.array([c.center for c in reps])
    normals = np.array([c.normal for c in reps])
    forces = np.array([c.force for c in reps])
    return KeypointSet(parts=tuple(int(p) for p in chosen), centers=centers,
                       forces=forces, normals=normals, targets=centers.copy(),
                       energy=float(best_energy))


def make_targets(keypoints: KeypointSet,
                 r: float = DEFAULT_KEYPOINT_OFFSET) -> KeypointSet:
    """Offset targets along the cluster normals: q_i = p_i + r n_i, each
    coordinate within _TARGET_MAX in size, so that stages II and III stay
    finite.  Centers already past that bound are the scene's fault, not
    the offset's, and are refused as such."""
    check_keypoint_settings(target_offset=r)
    if not np.all(np.abs(keypoints.centers) <= _TARGET_MAX):
        raise ValueError(f"a keypoint contact center lies past {_TARGET_MAX:.3g}"
                         " in size: the scene is too large for any offset")
    targets = keypoints.centers + r * keypoints.normals
    if not np.all(np.abs(targets) <= _TARGET_MAX):
        raise ValueError(f"keypoint offset {r!r} puts a target coordinate "
                         f"past {_TARGET_MAX:.3g} in size")
    return replace(keypoints, targets=targets)


def find_keypoints(obj: ObjectModel, contacts: ContactState,
                   mu: float = DEFAULT_MU, gravity=GRAVITY,
                   cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
                   n_kp: int = DEFAULT_N_KEYPOINTS,
                   target_offset: float = DEFAULT_KEYPOINT_OFFSET) -> KeypointSet:
    """Keypoints of a contact state with their offset targets: clustering,
    per-part representatives, exact subset search, target offset."""
    clusters = cluster_contacts(obj, contacts, radius=cluster_radius)
    reps = select_clusters(clusters, obj, mu=mu, gravity=gravity)
    kps = select_keypoints(reps, obj, mu=mu, gravity=gravity, n_kp=n_kp)
    return make_targets(kps, r=target_offset)
