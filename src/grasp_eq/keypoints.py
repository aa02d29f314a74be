"""Stability-optimal contact keypoint selection.

Contact points are clustered per hand part (single linkage) in one
neighbour pass over all force-carrying points, dropping the pairs across
parts; one cluster per part is chosen by conditional stability energy, and
the final keypoint combination is the part subset with the least stability
energy over all C(|H|, n_kp) candidates.  Both choices are exact searches
that assemble one system per search and solve the stability QP only for
candidates whose per-row interval bound can still beat the incumbent; they
return what solving every candidate would.  Keypoint targets sit one finger
radius outside the contact centers along the cluster normals.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .equilibrium import (DEFAULT_MU, QP_TOL, assemble, energy_lower_bounds,
                          stability_energy)
from .errors import SolverError, is_number
from .scene import GRAVITY, ContactState, ObjectModel

DEFAULT_CLUSTER_RADIUS = 0.01
# Targets sit this far outside the contact centers along the normal: a part
# center lies on its bone, one finger radius behind the skin that touches.
# The package's only radius (see README "Conventions").
DEFAULT_KEYPOINT_OFFSET = 0.005
DEFAULT_N_KEYPOINTS = 3

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


def _make_cluster(part, indices, obj, forces):
    indices = np.sort(np.asarray(indices, dtype=int))
    f = forces[indices]
    total = float(f.sum())
    center = (f[:, None] * obj.points[indices]).sum(axis=0) / total
    avg = (f[:, None] * obj.normals[indices]).sum(axis=0)
    norm = np.linalg.norm(avg)
    if norm > 1e-9:
        normal = avg / norm
    else:
        normal = obj.normals[indices[int(np.argmax(f))]]
    return PartCluster(part=int(part), indices=indices, center=center,
                       force=total, normal=normal)


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
    if not (is_number(radius) and np.isfinite(radius) and radius > 0):
        raise ValueError(f"cluster_radius must be a finite number > 0, "
                         f"got {radius!r}")
    idx = np.flatnonzero(contacts.contact_mask)
    labels = contacts.part_label[idx]
    pairs = cKDTree(obj.points[idx]).query_pairs(radius, output_type="ndarray")
    pairs = pairs[labels[pairs[:, 0]] == labels[pairs[:, 1]]]
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(len(idx), len(idx)))
    # components are numbered in the order a scan of the ascending idx
    # first reaches them, so by their smallest point index
    count, component = connected_components(graph, directed=False)
    out = {int(part): [] for part in np.unique(labels)}
    for lab in range(count):
        members = idx[component == lab]
        part = contacts.part_label[members[0]]
        out[int(part)].append(_make_cluster(part, members, obj,
                                            contacts.force))
    return out


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
    members = np.zeros((sys.n_contacts, len(candidates)))
    members[candidates, np.arange(len(candidates))[:, None]] = 1.0
    return energy_lower_bounds(sys, sys.forces[:, None] * members)


def _least_energy(sys, candidates):
    """Least-energy candidate, ties to the earliest: (index, energy).

    Row j of the (K, k) ``candidates`` lists the columns of ``sys`` that
    make candidate j.  Candidates are visited in order, and one replaces
    the incumbent only when its energy is lower by more than QP_TOL, the
    solver's certified gap.  A candidate whose interval bound is at least
    the incumbent's energy minus QP_TOL / 2 is not solved: its energy is
    at least the bound (up to rounding near 1e-13, which the other half of
    QP_TOL absorbs), so it could not replace the incumbent, and the result
    is the one solving every candidate gives.
    """
    candidates = np.asarray(candidates)
    bounds = _candidate_bounds(sys, candidates)
    best, best_energy, solved = None, np.inf, 0
    for j, cols in enumerate(candidates):
        if bounds[j] >= best_energy - QP_TOL / 2:
            continue
        solved += 1
        try:
            energy = stability_energy(sys.take(cols)).energy
        except SolverError as err:
            # non-converged energy is still a valid upper bound for comparisons
            energy = err.result.energy
        if energy < best_energy - QP_TOL:
            best, best_energy = j, energy
    _log.debug("stability search: %d candidates, %d solved, %d skipped, "
               "best energy %.3e", len(candidates), solved,
               len(candidates) - solved, best_energy)
    return best, best_energy


def select_clusters(clusters, obj: ObjectModel, mu: float = DEFAULT_MU,
                    gravity=GRAVITY):
    """Pick one representative cluster per part by conditional energy.

    Each part starts with its highest-force cluster; parts are then visited
    in ascending id, re-selecting the cluster that minimizes the stability
    energy of {candidate} united with the other parts' current
    representatives, in one pass.  A candidate replaces the incumbent only
    when its energy is lower by more than QP_TOL, the solver's certified
    gap, so ties go to the earliest cluster.  One system is assembled over
    every cluster, and a candidate's QP is solved only when its interval
    bound can still beat the incumbent, so the pick is the one solving
    every candidate gives.
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
    and a combination's QP is solved only when its interval bound can
    still beat the incumbent, so the result is the one solving every
    combination gives.  Ties break toward the lexicographically smallest
    part-id tuple: combinations are visited in that order and only
    improvements by more than QP_TOL, the solver's certified gap, replace
    the incumbent.
    """
    if not (is_number(n_kp) and n_kp % 1 == 0 and n_kp >= 1):
        raise ValueError(f"n_kp must be an integer of at least 1, got {n_kp!r}")
    n_kp = int(n_kp)
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
    """Offset targets along the cluster normals: q_i = p_i + r n_i."""
    if not (is_number(r) and np.isfinite(r) and r >= 0):
        raise ValueError(f"keypoint offset must be a finite number >= 0, "
                         f"got {r!r}")
    return replace(keypoints, targets=keypoints.centers + r * keypoints.normals)


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
