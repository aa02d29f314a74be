"""Synthetic scenes and contact states for end-to-end runs without assets.

Scenes are seeded surface samplings of primitive shapes with exact analytic
normals.  Contact generation places coherent patches on the surface,
assigns them to hand parts, and initializes patch forces by solving the
force-existence problem so the produced states are physically consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import DEFAULT_MU, solve_force_existence
from .errors import whole_number
from .force_codec import spread_force
from .hand import N_PARTS, PALM_PART, segment_part_id
from .scene import (_COORD_MAX, GRAVITY, ContactState, ObjectModel,
                    contact_map_from_hand)

SHAPES = ("sphere", "box", "cylinder", "plate")
STYLES = ("tripod", "pinch", "wrap", "random")

DEFAULT_SAMPLE_COUNT = 2048
# A scene's sample count is the row count of its largest arrays: one full
# contact scan is a (count, 80) float64 matrix of squared distances to the
# hand samples, 640 MB at this cap, so a count past it is refused before
# anything is sampled rather than failing in the allocation
MIN_SAMPLE_COUNT, MAX_SAMPLE_COUNT = 16, 1_000_000
PATCH_RADIUS = 0.012  # m, a generated patch's reach from its seed point

# hand part ids of the distal segments, thumb to pinky; generated patches
# sit on these and the palm
_TIPS = tuple(segment_part_id(f, 2) for f in range(5))
_THUMB_TIP, _INDEX_TIP, _MIDDLE_TIP = _TIPS[:3]


@dataclass(frozen=True)
class SyntheticScene:
    """Primitive shape spec: sphere (r,), box/plate (lx, ly, lz), cylinder (r, h)."""

    shape: str
    dimensions: tuple
    sample_count: int = DEFAULT_SAMPLE_COUNT
    seed: int = 0


def _check_dims(spec: SyntheticScene, count):
    """The spec's dimensions, ``count`` of them, and its sample count."""
    dims = tuple(float(d) for d in spec.dimensions)
    if spec.shape not in SHAPES:
        raise ValueError(f"unknown shape {spec.shape!r}, expected one of {SHAPES}")
    if len(dims) != count:
        raise ValueError(f"{spec.shape} expects {count} dimensions, got {len(dims)}")
    # a point's coordinates are at most a dimension in size; NaN fails too
    if not all(0 < d <= _COORD_MAX for d in dims):
        raise ValueError(f"{spec.shape} dimensions must be positive and "
                         f"finite, at most {_COORD_MAX:.3g}, got {dims}")
    return dims, whole_number(spec.sample_count, "sample_count",
                              MIN_SAMPLE_COUNT, MAX_SAMPLE_COUNT)


def _sample_sphere(rng, radius, count):
    v = rng.normal(size=(count, 3))
    normals = v / np.linalg.norm(v, axis=1, keepdims=True)
    return radius * normals, normals


def _sample_box(rng, dims, count):
    lx, ly, lz = dims
    half = np.array([lx, ly, lz]) / 2.0
    areas = np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    uv = rng.uniform(-1.0, 1.0, size=(count, 2))
    points = np.empty((count, 3))
    normals = np.zeros((count, 3))
    for face in range(6):
        axis, sign = divmod(face, 2)
        sign = 1.0 if sign == 0 else -1.0
        m = faces == face
        others = [i for i in range(3) if i != axis]
        points[m, axis] = sign * half[axis]
        points[np.ix_(m, others)] = uv[m] * half[others]
        normals[m, axis] = sign
    return points, normals


def _sample_cylinder(rng, radius, height, count):
    side_area = 2.0 * np.pi * radius * height
    cap_area = np.pi * radius ** 2
    areas = np.array([side_area, cap_area, cap_area])
    region = rng.choice(3, size=count, p=areas / areas.sum())
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    u = rng.uniform(size=count)
    points = np.empty((count, 3))
    normals = np.zeros((count, 3))
    side = region == 0
    points[side, 0] = radius * np.cos(theta[side])
    points[side, 1] = radius * np.sin(theta[side])
    points[side, 2] = (u[side] - 0.5) * height
    normals[side, 0] = np.cos(theta[side])
    normals[side, 1] = np.sin(theta[side])
    for reg, zsign in ((1, 1.0), (2, -1.0)):
        m = region == reg
        rr = radius * np.sqrt(u[m])
        points[m, 0] = rr * np.cos(theta[m])
        points[m, 1] = rr * np.sin(theta[m])
        points[m, 2] = zsign * height / 2.0
        normals[m, 2] = zsign
    return points, normals


def generate_scene(spec: SyntheticScene) -> ObjectModel:
    """Seeded quasi-uniform surface sampling with analytic normals, mass 1 kg."""
    rng = np.random.default_rng(whole_number(spec.seed, "seed", 0))
    if spec.shape == "sphere":
        (radius,), count = _check_dims(spec, 1)
        points, normals = _sample_sphere(rng, radius, count)
    elif spec.shape in ("box", "plate"):
        dims, count = _check_dims(spec, 3)
        points, normals = _sample_box(rng, dims, count)
    else:
        (radius, height), count = _check_dims(spec, 2)
        points, normals = _sample_cylinder(rng, radius, height, count)
    return ObjectModel(points=points, normals=normals, com=np.zeros(3), mass=1.0)


def _direction(azimuth_deg, elevation_deg):
    az = np.deg2rad(azimuth_deg)
    el = np.deg2rad(elevation_deg)
    return np.array([np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)])


def _style_directions(obj, style, rng, n_patches):
    if style == "tripod":
        return [(_direction(180.0, -10.0), _THUMB_TIP),
                (_direction(25.0, -10.0), _INDEX_TIP),
                (_direction(-25.0, -10.0), _MIDDLE_TIP)]
    if style == "pinch":
        # oppose across the thinnest extent of the object
        extents = obj.points.max(axis=0) - obj.points.min(axis=0)
        axis = np.zeros(3)
        axis[int(np.argmin(extents))] = 1.0
        return [(axis, _THUMB_TIP), (-axis, _INDEX_TIP)]
    if style == "wrap":
        dirs = [(_direction(0.0, 80.0), PALM_PART)]
        for az, part in zip((180.0, 75.0, 25.0, -25.0, -75.0), _TIPS):
            dirs.append((_direction(az, -25.0), part))
        return dirs
    if style == "random":
        count = (int(rng.integers(3, 7)) if n_patches is None else
                 whole_number(n_patches, "n_patches", 1, N_PARTS - PALM_PART))
        parts = rng.choice(np.arange(PALM_PART + 1, N_PARTS + 1), size=count,
                           replace=False)
        dirs = []
        for part in parts:
            v = rng.normal(size=3)
            dirs.append((v / np.linalg.norm(v), int(part)))
        return dirs
    raise ValueError(f"unknown contact style {style!r}, expected one of {STYLES}")


def generate_contacts(obj: ObjectModel, style: str, seed: int = 0,
                      mu: float = DEFAULT_MU, gravity=GRAVITY,
                      n_patches: int = None) -> ContactState:
    """Patch-based contact state with physically consistent forces.

    Each patch grows to PATCH_RADIUS around the support point of a style
    direction, restricted to points whose normals stay within 60 degrees
    of the seed normal (keeps patches on one face of thin objects).  Patch
    forces solve the force-existence problem at the patch centers and are
    spread uniformly over each patch's affinity set.  The random style
    places ``n_patches`` patches on distinct non-palm parts, 1 to 15 of
    them, or a count drawn from 3 to 6 when it is None.
    """
    rng = np.random.default_rng(whole_number(seed, "seed", 0))
    bounding = float(np.linalg.norm(obj.points - obj.com, axis=1).max())
    if PATCH_RADIUS > bounding:
        raise ValueError(
            f"patch radius {PATCH_RADIUS} exceeds object bounding radius {bounding:.4f}")
    directions = _style_directions(obj, style, rng, n_patches)
    labels = np.zeros(obj.n_points, dtype=int)
    # pinch patches sit slightly off-center toward an edge so fingers can
    # reach around; the offset stays small enough that face friction can
    # still cancel the gravity moment at the force cap
    anchor = obj.com
    if style == "pinch":
        extents = obj.points.max(axis=0) - obj.points.min(axis=0)
        wide = int(np.argmax(extents))
        shift = np.zeros(3)
        shift[wide] = min(0.02, 0.3 * extents[wide])
        anchor = obj.com + shift
    rel = obj.points - anchor
    centroids = []
    normals = []
    for direction, part in directions:
        # seed where the direction ray exits the surface: advance along the
        # direction while penalizing sideways drift, so flat faces do not
        # snap to corners and opposing patches stay aligned with the anchor
        along = rel @ direction
        perp = np.linalg.norm(rel - along[:, None] * direction, axis=1)
        support = int(np.argmax(along - perp))
        seed_point = obj.points[support]
        seed_normal = obj.normals[support]
        near = np.linalg.norm(obj.points - seed_point, axis=1) <= PATCH_RADIUS
        coherent = obj.normals @ seed_normal >= 0.5
        members = near & coherent & (labels == 0)
        if not np.any(members):
            continue
        labels[members] = part
        centroids.append(obj.points[members].mean(axis=0))
        avg = obj.normals[members].mean(axis=0)
        normals.append(avg / np.linalg.norm(avg))
    if not centroids:
        raise ValueError(f"style {style!r} produced no contact patches")
    mask = labels > 0
    solved = solve_force_existence(obj, np.array(centroids), np.array(normals),
                                   mu=mu, gravity=gravity)
    force, _ = spread_force(list(zip(centroids, solved.forces)), obj, mask)
    # the likelihood channel carries the same reciprocal-distance halo a real
    # hand would produce, with the patch points standing in for the touching
    # hand surface; patch members saturate at 1
    halo = contact_map_from_hand(obj, obj.points[mask],
                                 labels[mask]).likelihood
    likelihood = np.where(mask, 1.0, halo)
    return ContactState(likelihood=likelihood, part_label=labels, force=force)
