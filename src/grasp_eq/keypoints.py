"""Stability-optimal contact keypoint selection.

Contact points are clustered per hand part (single linkage), one cluster per
part is chosen by conditional stability energy, and the final keypoint
combination is the part subset with the least stability energy over all
C(|H|, n_kp) candidates.  Keypoint targets sit one finger radius outside the
contact centers along the cluster normals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .equilibrium import QP_TOL, assemble, stability_energy
from .errors import SolverError
from .scene import GRAVITY, ContactState, ObjectModel

DEFAULT_CLUSTER_RADIUS = 0.01
DEFAULT_KEYPOINT_OFFSET = 0.005
DEFAULT_N_KEYPOINTS = 3


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

    Two points join the same cluster when a chain of steps of length
    <= radius connects them.  Returns {part id: [PartCluster, ...]} with
    clusters ordered by their smallest point index.
    """
    if radius <= 0:
        raise ValueError("cluster radius must be positive")
    out = {}
    mask = contacts.contact_mask
    for part in np.unique(contacts.part_label[mask]):
        idx = np.flatnonzero(mask & (contacts.part_label == part))
        pts = obj.points[idx]
        if len(idx) == 1:
            labels = np.zeros(1, dtype=int)
        else:
            pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
            graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                               shape=(len(idx), len(idx)))
            _, labels = connected_components(graph, directed=False)
        clusters = []
        for lab in np.unique(labels):
            clusters.append(_make_cluster(part, idx[labels == lab], obj,
                                          contacts.force))
        clusters.sort(key=lambda c: int(c.indices[0]))
        out[int(part)] = clusters
    return out


def _cluster_energy(cluster_list, obj, mu, gravity):
    """Stability energy of a set of clusters treated as point contacts."""
    points = np.array([c.center for c in cluster_list])
    normals = np.array([c.normal for c in cluster_list])
    forces = np.array([c.force for c in cluster_list])
    sys = assemble(obj, points, normals, forces, mu=mu, gravity=gravity)
    try:
        return stability_energy(sys).energy
    except SolverError as err:
        # non-converged energy is still a valid upper bound for comparisons
        return err.result.energy


def select_clusters(clusters, obj: ObjectModel, mu: float = 1.0,
                    gravity=GRAVITY):
    """Pick one representative cluster per part by conditional energy.

    Each part starts with its highest-force cluster; parts are then visited
    in ascending id, re-selecting the cluster that minimizes the stability
    energy of {candidate} united with the other parts' current
    representatives, in one pass.  A candidate replaces the
    incumbent only when its energy is lower by more than QP_TOL, the
    solver's certified gap, so ties go to the earliest cluster.
    """
    if not clusters:
        raise ValueError("no part has any contact cluster")
    parts = sorted(clusters)
    reps = {p: max(clusters[p], key=lambda c: c.force) for p in parts}
    for p in parts:
        if len(clusters[p]) == 1:
            continue
        others = [reps[q] for q in parts if q != p]
        best, best_energy = None, np.inf
        for cand in clusters[p]:
            energy = _cluster_energy([cand] + others, obj, mu, gravity)
            if energy < best_energy - QP_TOL:
                best, best_energy = cand, energy
        reps[p] = best
    return reps


def select_keypoints(representatives, obj: ObjectModel, mu: float = 1.0,
                     gravity=GRAVITY, n_kp: int = DEFAULT_N_KEYPOINTS) -> KeypointSet:
    """Exhaustive search for the part subset with least stability energy.

    Evaluates every C(|H|, n_kp) combination; with |H| <= n_kp all parts are
    kept.  Ties break toward the lexicographically smallest part-id tuple:
    combinations are enumerated in that order and only improvements by more
    than QP_TOL, the solver's certified gap, replace the incumbent.
    """
    if not representatives:
        raise ValueError("no representative clusters to select from")
    parts = sorted(representatives)
    if len(parts) <= n_kp:
        chosen = tuple(parts)
        best_energy = _cluster_energy([representatives[p] for p in chosen],
                                      obj, mu, gravity)
    else:
        chosen, best_energy = None, np.inf
        for combo in itertools.combinations(parts, n_kp):
            energy = _cluster_energy([representatives[p] for p in combo],
                                     obj, mu, gravity)
            if energy < best_energy - QP_TOL:
                chosen, best_energy = combo, energy
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
    return replace(keypoints, targets=keypoints.centers + r * keypoints.normals)
