"""Shared test fixtures and independent oracles.

The grid-search oracles here re-derive energies straight from the assembled
matrices so they share no code path with the active-set solvers they check.
"""

import numpy as np
import pytest

from grasp_eq.scene import ObjectModel


def sphere_object(radius=0.05, count=256, seed=0, mass=1.0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return ObjectModel(points=radius * v, normals=v, com=np.zeros(3), mass=mass)


@pytest.fixture
def small_sphere():
    return sphere_object()


def random_contacts(rng, obj, n, force_scale=6.0):
    """Random radial contacts on a sphere-like object."""
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radius = float(np.linalg.norm(obj.points[0] - obj.com))
    points = obj.com + radius * dirs
    forces = rng.uniform(0.0, force_scale, size=n)
    return points, dirs, forces


def energy_matrices(sys):
    """(M, c) with energy(x) = ||M x + c||^2 over x = [gamma; delta]."""
    scaled = sys.mu * sys.forces
    mat = np.hstack([sys.b_mat * scaled, sys.t_mat * scaled])
    const = sys.n_mat @ sys.forces + sys.gravity6
    return mat, const


def grid_energy_coordinate(sys, step=0.02, sweeps=200):
    """Exhaustive per-coordinate grid search, swept to a fixpoint.

    Each pass minimizes every coordinate in turn over the full grid
    {-1, -1+step, ..., 1} while the others stay fixed; for the convex
    energy this descends monotonically to a coordinate-wise grid optimum,
    a valid upper bound on the true minimum.
    """
    mat, const = energy_matrices(sys)
    k = mat.shape[1]
    grid = np.linspace(-1.0, 1.0, int(round(2.0 / step)) + 1)
    x = np.zeros(k)
    resid = const.copy()
    best = float(resid @ resid)
    for _ in range(sweeps):
        improved = False
        for i in range(k):
            base = resid - mat[:, i] * x[i]
            cand = base[:, None] + np.outer(mat[:, i], grid)
            vals = np.einsum("ij,ij->j", cand, cand)
            j = int(np.argmin(vals))
            if vals[j] < best - 1e-15:
                best = float(vals[j])
                x[i] = grid[j]
                resid = base + mat[:, i] * grid[j]
                improved = True
        if not improved:
            break
    return best, x


def grid_energy_exhaustive(sys, step=0.02):
    """Full Cartesian grid enumeration; tractable for one contact (2 dims)."""
    mat, const = energy_matrices(sys)
    k = mat.shape[1]
    grid = np.linspace(-1.0, 1.0, int(round(2.0 / step)) + 1)
    axes = np.meshgrid(*([grid] * k), indexing="ij")
    pts = np.stack([a.ravel() for a in axes])
    resid = mat @ pts + const[:, None]
    vals = np.einsum("ij,ij->j", resid, resid)
    j = int(np.argmin(vals))
    return float(vals[j]), pts[:, j]


def grid_energy_zoomed(sys, step=0.02, levels=3):
    """Exhaustive enumeration refined around the incumbent.

    At each level the grid shrinks by 50x around the best point, driving
    quadratic interpolation error below the comparison tolerances.  Only
    used for single-contact systems.
    """
    mat, const = energy_matrices(sys)
    k = mat.shape[1]
    lo = np.full(k, -1.0)
    hi = np.full(k, 1.0)
    best_val, best_x = grid_energy_exhaustive(sys, step)
    width = step
    for _ in range(levels):
        width /= 50.0
        axes = [np.linspace(max(-1.0, best_x[i] - 55 * width),
                            min(1.0, best_x[i] + 55 * width), 111)
                for i in range(k)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([a.ravel() for a in mesh])
        resid = mat @ pts + const[:, None]
        vals = np.einsum("ij,ij->j", resid, resid)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_x = pts[:, j]
    return best_val, best_x
