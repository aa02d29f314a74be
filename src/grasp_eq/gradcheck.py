"""Finite-difference validation of the analytic gradients.

Backs the ``gradcheck`` CLI verb.  Checks the stability-loss subgradient
w.r.t. the force map and the stage-III pose-loss gradients against central
finite differences, skipping samples that sit too close to hinge kinks or
nearest-neighbor switches (where the losses are not differentiable).
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from . import hand
from .equilibrium import _interval_bounds, assemble, loss_gradient, stability_loss_masked
from .optimizer import TERMS, pose_terms
from .scene import (CONTACT_RADIUS, GRAVITY, CertifiedNearestSite, ObjectModel,
                    contact_likelihood, nearest_surface)
from .synth import SyntheticScene, generate_contacts, generate_scene

REL_TOL = 1e-3  # run_gradcheck's bound on analytic vs. FD relative error
FORCE_SCALE = 4.0  # random contact forces and force maps lie in [0, FORCE_SCALE]
LOSS_FD_STEP = 1e-7  # central-difference step on the force map
LOSS_KINK_MARGIN = 1e-4  # skip systems with an interval bound this close to 0
POSE_FD_STEP = 1e-6  # central-difference step along a pose direction
POSE_FD_SAFETY = 4.0  # factor on a probe's motion bound in pose_fd_safe
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


def _fd_gradient(fun, x, h):
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return grad


def check_loss_gradient(rng):
    """One randomized check; returns (checked, max relative error)."""
    obj, points, normals, forces = random_contact_system(rng)
    sys = assemble(obj, points, normals, forces, mu=1.0, gravity=GRAVITY)
    force_map = rng.uniform(0.0, FORCE_SCALE, size=len(forces))
    likelihood = rng.uniform(0.1, 1.0, size=len(forces))
    lower, upper, _ = _interval_bounds(sys, force_map * likelihood)
    if min(np.abs(lower).min(), np.abs(upper).min()) < LOSS_KINK_MARGIN:
        return False, 0.0
    analytic = loss_gradient(sys, force_map, likelihood)
    fd = _fd_gradient(lambda f: stability_loss_masked(sys, f, likelihood),
                      force_map, LOSS_FD_STEP)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return True, float(np.max(np.abs(analytic - fd) / scale))


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


def pose_fd_safe(pose, obj, target_likelihood):
    """True when no stage-III loss kink can be crossed by a central FD probe.

    A probe of size POSE_FD_STEP in pose space moves any hand sample by at
    most that step times the kinematic chain radius, and POSE_FD_SAFETY
    widens that bound.  Each non-smooth boundary is checked against it: the
    likelihood clamp at d = c0 (the CONTACT_RADIUS), the sign of the contact
    residual (scaled by the local slope c0/d^2), ties in the nearest-sample
    and nearest-surface-point assignments, the penetration hinge, and the
    joint-limit box.
    """
    geometry = hand.forward_kinematics(pose)
    chain = float(np.linalg.norm(geometry.samples - geometry.joints[0],
                                 axis=1).max()) + 1.0
    move = POSE_FD_SAFETY * POSE_FD_STEP * chain
    c0 = CONTACT_RADIUS
    # nearest and second-nearest sample distance (a scan's bound) per point
    query = CertifiedNearestSite(obj.points)
    second = query.bracket(geometry.samples)[2]
    d, _ = query.scan()
    if np.any(np.abs(d - c0) <= move):
        return False
    resid = contact_likelihood(d) - target_likelihood
    slope = c0 / np.maximum(d, c0) ** 2
    if np.any(np.abs(resid) <= slope * move):
        return False
    # nearest-sample ties only matter where the slope is non-negligible
    if np.any((second - d <= 2 * move) & (slope * move > 1e-14)):
        return False
    _, _, sd = nearest_surface(obj, geometry.samples)  # the hinge's kink: 0
    if np.any(np.abs(sd) <= move):
        return False
    pair_d, _ = obj.kdtree.query(geometry.samples, k=2)
    if np.any((pair_d[:, 1] - pair_d[:, 0] <= 2 * move) & (sd < 5e-3)):
        return False
    lo, hi = hand.parameter_bounds()
    vec = pose.as_vector()
    finite = np.isfinite(lo)
    slack = np.minimum(vec[finite] - lo[finite], hi[finite] - vec[finite])
    return bool(np.all(slack > POSE_FD_SAFETY * POSE_FD_STEP))


def check_pose_gradients(rng, obj, contacts):
    """Directional FD check of every stage-III loss term at a random pose.

    Returns (checked, max relative error over all terms and directions).
    """
    pose = _random_pose(rng, float(np.linalg.norm(obj.points, axis=1).max()))
    if not pose_fd_safe(pose, obj, contacts.likelihood):
        return False, 0.0
    kps_like = SimpleNamespace(parts=(4, 7, 10), targets=obj.points[:3] * 1.2)

    def terms(vec):
        return pose_terms(vec, kps_like, obj, contacts.likelihood,
                          (1.0,) * len(TERMS))

    vec = pose.as_vector()
    grads = np.array(terms(vec)[1]()[0])
    worst = 0.0
    h = POSE_FD_STEP
    for _ in range(POSE_FD_DIRECTIONS):
        direction = rng.normal(size=hand.N_PARAMS)
        direction /= np.linalg.norm(direction)
        up = np.array(terms(vec + h * direction)[0])
        dn = np.array(terms(vec - h * direction)[0])
        fd = (up - dn) / (2 * h)
        analytic = grads @ direction
        for a, f in zip(analytic, fd):
            if abs(a) < 1e-10 and abs(f) < 1e-10:
                continue
            worst = max(worst, abs(a - f) / max(abs(a), abs(f), 1e-8))
    return True, worst


def _summary(check, count):
    """How many calls of ``check`` checked, stopping at ``count`` of them
    or after 20 * count calls, and the largest error among them."""
    tries = (check() for _ in range(20 * count))
    errors = [err for _, err in islice(filter(itemgetter(0), tries), count)]
    return {"checked": len(errors), "max_rel_err": max([0.0, *errors])}


def run_gradcheck(count=20, seed=0):
    """CLI entry: run both gradient families and summarize."""
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
