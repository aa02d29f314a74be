"""Discrete contact-force representation.

Normal force magnitudes are one-hot encoded over s bins.  Bin 1 is reserved
for zero force; the positive range is covered by s - 2 bins uniform in log
space over [mu_log - 3 sigma_log, mu_log + 3 sigma_log], with the last bin
open to infinity.  Decoding is a temperature-scaled soft-argmax over the bin
centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidBinCount, InvalidForce, InvalidSpread,
                     InvalidTemperature, ShapeError)
from .scene import nearest_site

DEFAULT_TEMPERATURE = 0.02

# Most bins a binning may have; the paper uses 3-10.  The edges and centers
# are allocated only after this check.
MAX_BINS = 10_000

# Softmax weights below this fraction of the dominant weight are flushed to
# zero so that decode(encode(0)) returns exactly 0.0 (the zero bin's center
# is 0; residual exp(-1/t) leakage from other bins would otherwise survive).
_WEIGHT_FLOOR = 1e-18


@dataclass(frozen=True, eq=False)
class ForceBinning:
    """Log-space force binning.

    ``edges`` has s + 1 entries: edges[0] = 0, edges[s] = inf, and for
    1 <= i <= s - 1,  edges[i] = exp(mu_log + (6 (i - 1) / (s - 2) - 3) sigma_log).
    ``centers`` holds the decode value of each bin: 0 for the zero bin,
    the log-space midpoint of the interior bins, and one further geometric
    half-step past the last finite edge for the open top bin.
    """

    s: int
    mu_log: float
    sigma_log: float
    edges: np.ndarray
    centers: np.ndarray


def build_binning(s: int, mu_log: float = 0.0, sigma_log: float = 1.0) -> ForceBinning:
    """Construct the binning; 3 <= s <= MAX_BINS and sigma_log > 0."""
    if int(s) != s or s < 3:
        raise InvalidBinCount(f"need an integer count of at least 3 bins, got {s!r}")
    if s > MAX_BINS:
        raise InvalidBinCount(f"need at most {MAX_BINS} bins, got {s!r}")
    s = int(s)
    if not sigma_log > 0:
        raise InvalidSpread(f"sigma_log must be positive, got {sigma_log}")
    mu_log = float(mu_log)
    sigma_log = float(sigma_log)
    # log-edges of the finite interior boundaries, uniformly spaced
    i = np.arange(1, s)
    log_edges = mu_log + (6.0 * (i - 1) / (s - 2) - 3.0) * sigma_log
    edges = np.concatenate(([0.0], np.exp(log_edges), [np.inf]))
    half = 3.0 * sigma_log / (s - 2)
    log_centers = np.empty(s - 1)
    log_centers[:-1] = 0.5 * (log_edges[:-1] + log_edges[1:])
    log_centers[-1] = log_edges[-1] + half
    centers = np.concatenate(([0.0], np.exp(log_centers)))
    edges.flags.writeable = False
    centers.flags.writeable = False
    return ForceBinning(s=s, mu_log=mu_log, sigma_log=sigma_log,
                        edges=edges, centers=centers)


def bin_index(force: float, binning: ForceBinning) -> int:
    """0-based index of the bin containing ``force`` (edges[i] <= F < edges[i+1])."""
    if not np.isfinite(force) or force < 0:
        raise InvalidForce(f"force must be finite and non-negative, got {force}")
    idx = int(np.searchsorted(binning.edges, force, side="right")) - 1
    return min(idx, binning.s - 1)


def encode(force: float, binning: ForceBinning) -> np.ndarray:
    """One-hot vector with a 1 at the bin containing ``force``."""
    v = np.zeros(binning.s)
    v[bin_index(force, binning)] = 1.0
    return v


def decode(v, binning: ForceBinning, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """Soft-argmax of bin scores back to a scalar force.

    Accepts arbitrary real scores, not only one-hot vectors.  Invariant under
    adding a constant to all entries.  For one-hot input the result equals
    that bin's center exactly.
    """
    if not temperature > 0:
        raise InvalidTemperature(f"temperature must be positive, got {temperature}")
    v = np.asarray(v, dtype=float)
    if v.shape != (binning.s,):
        raise ShapeError(f"expected {binning.s} scores, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidForce("scores must be finite")
    z = v / temperature
    w = np.exp(z - z.max())
    w[w < _WEIGHT_FLOOR] = 0.0
    return float(np.dot(binning.centers, w) / w.sum())


def spread_force(label_points, obj, contact_mask):
    """Spread point-contact force labels uniformly over their affinity sets.

    ``label_points`` is a sequence of (position, normal_force) pairs.  The
    affinity set of label j is the set of masked object points whose nearest
    label point is j; each member receives N_j / |A_j|.  Labels with an empty
    affinity set contribute nothing and are tallied in the returned warning
    count.

    Returns (per-point force array, warning count).
    """
    contact_mask = np.asarray(contact_mask, dtype=bool)
    if contact_mask.shape != (obj.n_points,):
        raise ShapeError("contact_mask must be one flag per object point")
    forces = np.zeros(obj.n_points)
    label_points = list(label_points)
    if not label_points:
        return forces, 0
    centers = np.asarray([p for p, _ in label_points], dtype=float)
    amounts = np.asarray([f for _, f in label_points], dtype=float)
    if np.any(amounts < 0) or not np.all(np.isfinite(amounts)):
        raise InvalidForce("label forces must be finite and non-negative")
    valid = np.flatnonzero(contact_mask)
    warnings = len(label_points)
    if valid.size == 0:
        return forces, warnings
    _, owner = nearest_site(obj.points[valid], centers)
    counts = np.bincount(owner, minlength=len(label_points))
    warnings = int(np.sum(counts == 0))
    share = np.zeros(len(label_points))
    nonempty = counts > 0
    share[nonempty] = amounts[nonempty] / counts[nonempty]
    forces[valid] = share[owner]
    return forces, warnings
