"""Finite-difference validation of the analytic gradients.

Backs the ``gradcheck`` CLI verb.  Checks the stability-loss subgradient
w.r.t. the force map and the stage-III pose-loss gradients against central
finite differences through one routine, which skips each probe whose
forward and backward slopes disagree: it may straddle a hinge kink, a
nearest-neighbor switch or any other place the losses are not
differentiable.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from . import hand
from .equilibrium import assemble, loss_gradient, stability_loss_masked
from .optimizer import TERMS, pose_terms
from .scene import GRAVITY, ObjectModel
from .synth import (SyntheticScene, check_seed, generate_contacts,
                    generate_scene)

REL_TOL = 1e-3  # run_gradcheck's bound on analytic vs. FD relative error
FORCE_SCALE = 4.0  # random contact forces and force maps lie in [0, FORCE_SCALE]
LOSS_FD_STEP = 1e-7  # central-difference step on the force map
POSE_FD_STEP = 1e-6  # central-difference step along a pose direction
POSE_FD_DIRECTIONS = 4  # random directions per pose check


def random_contact_system(rng):
    """Desk-scale random contact set, 1 to 3 contacts, on a random sphere."""
    radius = float(rng.uniform(0.03, 0.08))
    n = int(rng.integers(1, 4))
    shell = rng.normal(size=(max(n, 8), 3))
    shell /= np.linalg.norm(shell, axis=1, keepdims=True)
    obj = ObjectModel(points=radius * shell, normals=shell, com=np.zeros(3))
    normals = shell[:n]
    points = radius * normals
    forces = rng.uniform(0.0, FORCE_SCALE, size=n)
    return obj, points, normals, forces


def _fd_check(fun, x, directions, analytic, h):
    """Central-difference check of ``analytic`` along each direction.

    ``fun`` maps x to a value or an array of values, ``analytic`` holds
    their gradients (one row per value) and ``directions`` one unit
    direction per row.  A probe x ± h·d whose forward and backward slopes
    differ, for any value, by more than REL_TOL / 10 of the larger
    (floored at 1e-8) may hold a kink or a jump, which puts the central
    difference off by half that difference; it is left unchecked.  The
    test reads only values of ``fun``, so a wrong gradient cannot leave a
    probe unchecked.  Returns (whether any probe was checked, the largest
    relative error over the checked ones).
    """
    center = np.atleast_1d(fun(x))
    analytic = np.atleast_2d(analytic)
    errors = []
    for d in directions:
        forward = (np.atleast_1d(fun(x + h * d)) - center) / h
        backward = (center - np.atleast_1d(fun(x - h * d))) / h
        larger = np.maximum(np.maximum(np.abs(forward), np.abs(backward)), 1e-8)
        if np.any(np.abs(forward - backward) > REL_TOL / 10 * larger):
            continue
        fd = (forward + backward) / 2
        slope = analytic @ d
        scale = np.maximum(np.maximum(np.abs(slope), np.abs(fd)), 1e-8)
        errors.append(float(np.max(np.abs(slope - fd) / scale)))
    return bool(errors), max(errors, default=0.0)


def check_loss_gradient(rng):
    """One randomized check; returns (checked, max relative error)."""
    obj, points, normals, forces = random_contact_system(rng)
    sys = assemble(obj, points, normals, forces, mu=1.0, gravity=GRAVITY)
    force_map = rng.uniform(0.0, FORCE_SCALE, size=len(forces))
    likelihood = rng.uniform(0.1, 1.0, size=len(forces))
    return _fd_check(lambda f: stability_loss_masked(sys, f, likelihood),
                     force_map, np.eye(len(forces)),
                     loss_gradient(sys, force_map, likelihood), LOSS_FD_STEP)


def _random_pose(rng, obj_radius):
    angles = np.empty(hand.N_ANGLES)
    for f in range(5):
        angles[4 * f] = rng.uniform(-0.4, 0.4)
        angles[4 * f + 1:4 * f + 4] = rng.uniform(-0.2, 1.6, size=3)
    return hand.HandPose(
        rotation=rng.uniform(-1.0, 1.0, size=3),
        translation=rng.uniform(-1.5, 1.5, size=3) * obj_radius,
        angles=angles,
        scale=float(rng.uniform(0.8, 1.2)))


def check_pose_gradients(rng, obj, contacts):
    """Directional FD check of every stage-III loss term at a random pose.

    A pose at which a term reads 0, as the penetration term does wherever
    no hand sample is inside the object, is left unchecked, so every
    checked pose checks every term's gradient.  Returns (checked, max
    relative error over all terms and directions).
    """
    pose = _random_pose(rng, float(np.linalg.norm(obj.points, axis=1).max()))
    tips = tuple(hand.segment_part_id(f, 2) for f in range(3))
    kps_like = SimpleNamespace(parts=tips, targets=obj.points[:3] * 1.2)

    def terms(vec):
        return pose_terms(vec, kps_like, obj, contacts.likelihood,
                          (1.0,) * len(TERMS))

    vec = pose.as_vector()
    directions = rng.normal(size=(POSE_FD_DIRECTIONS, hand.N_PARAMS))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    values, derivatives = terms(vec)
    if not all(values):
        return False, 0.0
    return _fd_check(lambda v: terms(v)[0], vec, directions,
                     derivatives()[0], POSE_FD_STEP)


def _summary(check, count):
    """How many calls of ``check`` checked, stopping at ``count`` of them
    or after 20 * count calls, and the largest error among them."""
    tries = (check() for _ in range(20 * count))
    errors = [err for _, err in islice(filter(itemgetter(0), tries), count)]
    return {"checked": len(errors), "max_rel_err": max([0.0, *errors])}


def run_gradcheck(count=20, seed=0):
    """CLI entry: run both gradient families and summarize."""
    if not count >= 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    spec = SyntheticScene(shape="sphere", dimensions=(0.05,), sample_count=512,
                          seed=seed)
    obj = generate_scene(spec)
    contacts = generate_contacts(obj, "tripod", seed=seed)
    loss = _summary(lambda: check_loss_gradient(rng), count)
    pose = _summary(lambda: check_pose_gradients(rng, obj, contacts), count)
    passed = all(family["checked"] == count and family["max_rel_err"] <= REL_TOL
                 for family in (loss, pose))
    return {"loss_gradient": loss, "pose_gradients": pose,
            "tolerance": REL_TOL, "passed": passed}
