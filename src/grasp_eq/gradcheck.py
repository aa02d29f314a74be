"""Finite-difference validation of the analytic gradients.

Backs the ``gradcheck`` CLI verb.  Checks the stability-loss subgradient
w.r.t. the force map and the stage-III pose-loss gradients against central
finite differences, skipping samples that sit too close to hinge kinks or
nearest-neighbor switches (where the losses are not differentiable).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from . import hand
from .equilibrium import _interval_bounds, assemble, loss_gradient, stability_loss_masked
from .optimizer import contact_loss, kp_loss, penetration_loss, reg_loss
from .scene import (CONTACT_RADIUS, GRAVITY, ObjectModel, contact_likelihood,
                    nearest_site, nearest_surface)
from .synth import SyntheticScene, generate_contacts, generate_scene


def random_contact_system(rng, n_contacts=None, radius=None, force_scale=4.0):
    """Desk-scale random contact set on a random sphere."""
    radius = radius if radius is not None else float(rng.uniform(0.03, 0.08))
    n = int(n_contacts) if n_contacts is not None else int(rng.integers(1, 4))
    shell = rng.normal(size=(max(n, 8), 3))
    shell /= np.linalg.norm(shell, axis=1, keepdims=True)
    obj = ObjectModel(points=radius * shell, normals=shell, com=np.zeros(3))
    normals = shell[:n]
    points = radius * normals
    forces = rng.uniform(0.0, force_scale, size=n)
    return obj, points, normals, forces


def _fd_gradient(fun, x, h):
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return grad


def check_loss_gradient(rng, margin=1e-4, h=1e-7, rel_tol=1e-3):
    """One randomized check; returns (checked, max relative error)."""
    obj, points, normals, forces = random_contact_system(rng)
    sys = assemble(obj, points, normals, forces, mu=1.0, gravity=GRAVITY)
    force_map = rng.uniform(0.0, 4.0, size=len(forces))
    likelihood = rng.uniform(0.1, 1.0, size=len(forces))
    lower, upper, _ = _interval_bounds(sys, force_map * likelihood)
    if min(np.abs(lower).min(), np.abs(upper).min()) < margin:
        return False, 0.0
    analytic = loss_gradient(sys, force_map, likelihood)
    fd = _fd_gradient(lambda f: stability_loss_masked(sys, f, likelihood),
                      force_map, h)
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


def pose_fd_safe(pose, obj, target_likelihood, c0=CONTACT_RADIUS, h=1e-6,
                 safety=4.0):
    """True when no stage-III loss kink can be crossed by a central FD probe.

    A probe of size ``h`` in pose space moves any hand sample by at most
    ``h`` times the kinematic chain radius.  Each non-smooth boundary is
    checked against that motion bound: the likelihood clamp at d = c0, the
    sign of the contact residual (scaled by the local slope c0/d^2), ties
    in the nearest-sample and nearest-surface-point assignments, the
    penetration hinge, and the joint-limit box.
    """
    geometry = hand.forward_kinematics(pose)
    chain = float(np.linalg.norm(geometry.samples - geometry.joints[0],
                                 axis=1).max()) + 1.0
    move = safety * h * chain
    d, _ = nearest_site(obj.points, geometry.samples)
    if np.any(np.abs(d - c0) <= move):
        return False
    resid = contact_likelihood(d, c0) - target_likelihood
    slope = c0 / np.maximum(d, c0) ** 2
    if np.any(np.abs(resid) <= slope * move):
        return False
    # nearest-sample ties only matter where the slope is non-negligible
    second = np.partition(cdist(obj.points, geometry.samples), 1, axis=1)[:, 1]
    if np.any((second - d <= 2 * move) & (slope * move > 1e-14)):
        return False
    _, _, sd = nearest_surface(obj, geometry.samples)
    hinge = -sd - geometry.sample_radii
    if np.any(np.abs(hinge) <= move):
        return False
    pair_d, _ = obj.kdtree.query(geometry.samples, k=2)
    if np.any((pair_d[:, 1] - pair_d[:, 0] <= 2 * move) & (hinge > -5e-3)):
        return False
    lo, hi = hand.parameter_bounds()
    vec = pose.as_vector()
    finite = np.isfinite(lo)
    slack = np.minimum(vec[finite] - lo[finite], hi[finite] - vec[finite])
    return bool(np.all(slack > safety * h))


def check_pose_gradients(rng, obj, contacts, h=1e-6, rel_tol=1e-3,
                         directions=4):
    """Directional FD check of every stage-III loss term at a random pose.

    Returns (checked, max relative error over all terms and directions).
    """
    pose = _random_pose(rng, float(np.linalg.norm(obj.points, axis=1).max()))
    if not pose_fd_safe(pose, obj, contacts.likelihood, h=h):
        return False, 0.0
    parts = (4, 7, 10)
    targets = obj.points[:3] * 1.2
    kps_like = _KpStub(parts=parts, targets=targets)

    def losses(vec):
        p = hand.HandPose.from_vector(vec)
        geometry, jac = hand.fk_with_jacobians(p)
        values, grads = [], []
        for val, grad in (kp_loss(geometry, jac, kps_like),
                          contact_loss(geometry, jac, obj, contacts.likelihood),
                          penetration_loss(geometry, jac, obj),
                          reg_loss(vec)):
            values.append(val)
            grads.append(grad)
        return np.array(values), np.array(grads)

    vec = pose.as_vector()
    _, grads = losses(vec)
    worst = 0.0
    for _ in range(directions):
        direction = rng.normal(size=hand.N_PARAMS)
        direction /= np.linalg.norm(direction)
        up, _ = losses(vec + h * direction)
        dn, _ = losses(vec - h * direction)
        fd = (up - dn) / (2 * h)
        analytic = grads @ direction
        for a, f in zip(analytic, fd):
            if abs(a) < 1e-10 and abs(f) < 1e-10:
                continue
            worst = max(worst, abs(a - f) / max(abs(a), abs(f), 1e-8))
    return True, worst


class _KpStub:
    def __init__(self, parts, targets):
        self.parts = parts
        self.targets = np.asarray(targets, dtype=float)


def run_gradcheck(count=20, seed=0, rel_tol=1e-3):
    """CLI entry: run both gradient families and summarize."""
    rng = np.random.default_rng(seed)
    spec = SyntheticScene(shape="sphere", dimensions=(0.05,), sample_count=512,
                          seed=seed)
    obj = generate_scene(spec)
    contacts = generate_contacts(obj, "tripod", seed=seed)
    loss_checked = pose_checked = 0
    loss_worst = pose_worst = 0.0
    attempts = 0
    while loss_checked < count and attempts < 20 * count:
        attempts += 1
        ok, err = check_loss_gradient(rng)
        if ok:
            loss_checked += 1
            loss_worst = max(loss_worst, err)
    attempts = 0
    while pose_checked < count and attempts < 20 * count:
        attempts += 1
        ok, err = check_pose_gradients(rng, obj, contacts)
        if ok:
            pose_checked += 1
            pose_worst = max(pose_worst, err)
    passed = (loss_checked == count and pose_checked == count
              and loss_worst <= rel_tol and pose_worst <= rel_tol)
    return {
        "loss_gradient": {"checked": loss_checked, "max_rel_err": loss_worst},
        "pose_gradients": {"checked": pose_checked, "max_rel_err": pose_worst},
        "tolerance": rel_tol,
        "passed": bool(passed),
    }
