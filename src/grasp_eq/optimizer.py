"""Keypoint-guided hand pose optimization.

Three stages: (I) closed-form rigid registration of rest-pose part centers
onto the keypoint targets, (II) first-order fitting of joint angles plus the
global transform to the targets, (III) full optimization adding contact-map,
penetration, and regularization terms.  All gradients flow analytically
through the kinematic chain; descent is projected, per-parameter adaptive,
and backtracking, so the objective never increases over accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.transform import Rotation

from . import hand
from .equilibrium import solve_force_existence
from .keypoints import KeypointSet
from .scene import (CONTACT_RADIUS, CONTACT_THRESHOLD, GRAVITY, ContactState,
                    ObjectModel, contact_likelihood, nearest_site,
                    nearest_surface)

EVAL_FORCE_MAX = 20.0


@dataclass(frozen=True)
class OptimizationConfig:
    """Weights and iteration budget for stages II and III.

    The keypoint weight outranks the contact term by design: keypoints carry
    the stability analysis, and with synthetic contact targets a weaker
    anchor lets stray contact-map pressure pull fingers off curved objects.
    """

    w_kp: float = 10.0
    w_c: float = 0.5
    w_pene: float = 10.0
    w_reg: float = 0.01
    step_size: float = 0.01
    max_iters_stage2: int = 200
    max_iters_stage3: int = 300
    convergence_tol: float = 1e-12
    seed: int = 0
    snapshot_interval: int = 50

    def __post_init__(self):
        if min(self.w_kp, self.w_c, self.w_pene, self.w_reg) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.step_size <= 0:
            raise ValueError("step size must be positive")
        if self.max_iters_stage2 < 1 or self.max_iters_stage3 < 1:
            raise ValueError("iteration budgets must be at least 1")


@dataclass(frozen=True)
class TraceRecord:
    stage: int
    iteration: int
    total: float
    kp: float
    contact: float
    penetration: float
    reg: float


@dataclass
class OptimizationTrace:
    """Per-iteration loss records plus periodic pose snapshots."""

    snapshot_interval: int = 50
    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def append(self, stage, iteration, total, terms, pose_vec=None):
        """Record one accepted step; every ``snapshot_interval``-th iteration
        also keeps the pose built from ``pose_vec``."""
        self.records.append(TraceRecord(stage=stage, iteration=iteration,
                                        total=total, kp=terms[0],
                                        contact=terms[1], penetration=terms[2],
                                        reg=terms[3]))
        if pose_vec is not None and iteration % self.snapshot_interval == 0:
            self.snapshots.append((stage, iteration,
                                   hand.HandPose.from_vector(pose_vec)))

    def stage_records(self, stage):
        return [r for r in self.records if r.stage == stage]


@dataclass(frozen=True, eq=False)
class RegistrationResult:
    rotation: np.ndarray
    translation: np.ndarray
    residual: float
    degenerate: bool


@dataclass(frozen=True, eq=False)
class GraspReport:
    """Force-existence check of a posed hand on an object."""

    residual: float
    contact_count: int
    max_penetration: float
    contact_indices: np.ndarray
    contact_forces: np.ndarray


def register_global(part_centers, targets) -> RegistrationResult:
    """Least-squares rigid alignment of part centers onto targets.

    Orthogonal Procrustes via SVD with det(R) = +1 enforced.  Fewer than
    three correspondences fall back to centroid translation.  Collinear
    sources leave a rotation about the line unconstrained; the returned
    rotation is then post-composed to have the smallest rotation angle, and
    the result is flagged degenerate.
    """
    src = np.atleast_2d(np.asarray(part_centers, dtype=float))
    dst = np.atleast_2d(np.asarray(targets, dtype=float))
    if src.shape != dst.shape:
        raise ValueError("part centers and targets must have matching shapes")
    k = src.shape[0]
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    if k < 3:
        t = c_dst - c_src
        res = float(np.sum((dst - (src + t)) ** 2))
        return RegistrationResult(rotation=np.eye(3), translation=t,
                                  residual=res, degenerate=True)
    a = src - c_src
    b = dst - c_dst
    h = a.T @ b
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    sa = np.linalg.svd(a, compute_uv=False)
    degenerate = bool(sa[1] <= 1e-9 * max(sa[0], 1e-12))
    if degenerate and sa[0] > 0:
        # rotations about the source line keep the residual; pick the one
        # closest to the identity (max trace of R @ Rot(axis, phi))
        _, _, vt_src = np.linalg.svd(a)
        axis = vt_src[0]
        ca = float(np.trace(r) - axis @ r @ axis)
        sb = float(np.trace(r @ hand._skew(axis)))
        phi = math.atan2(sb, ca)
        r = r @ Rotation.from_rotvec(phi * axis).as_matrix()
    t = c_dst - r @ c_src
    res = float(np.sum((dst - (src @ r.T + t)) ** 2))
    return RegistrationResult(rotation=r, translation=t, residual=res,
                              degenerate=degenerate)


def registration_to_pose(reg: RegistrationResult,
                         reference: hand.HandPose | None = None) -> hand.HandPose:
    """Hand pose applying a rigid registration to a reference articulation."""
    if reference is None:
        reference = hand.neutral_grasp_pose()
    rotvec = Rotation.from_matrix(reg.rotation).as_rotvec()
    return hand.HandPose(rotation=rotvec, translation=reg.translation,
                         angles=reference.angles, scale=reference.scale)


# ---------------------------------------------------------------------------
# loss terms (value + gradient w.r.t. the 27-dim pose vector)


def kp_loss(geometry, joint_jac, keypoints: KeypointSet):
    """Sum of squared distances from selected part centers to targets."""
    parts = np.asarray(keypoints.parts, dtype=int)
    centers = geometry.part_centers[parts - 1]
    diff = centers - keypoints.targets
    value = float(np.sum(diff * diff))
    if joint_jac is None:
        return value, None
    jac = hand.center_jacobians(joint_jac, parts)
    grad = 2.0 * np.einsum("kd,kdp->p", diff, jac)
    return value, grad


def contact_loss(geometry, joint_jac, obj: ObjectModel, target_likelihood,
                 c0=CONTACT_RADIUS):
    """Mean absolute difference between induced and target contact maps."""
    n = obj.n_points
    d, nearest = nearest_site(obj.points, geometry.samples)
    likelihood = contact_likelihood(d, c0)
    resid = likelihood - target_likelihood
    value = float(np.mean(np.abs(resid)))
    if joint_jac is None:
        return value, None
    active = (d > c0) & (resid != 0)
    grad = np.zeros(hand.N_PARAMS)
    if np.any(active):
        idx = np.flatnonzero(active)
        coef = np.sign(resid[idx]) * (-c0 / d[idx] ** 2) / n
        unit = (geometry.samples[nearest[idx]] - obj.points[idx]) / d[idx, None]
        pull = np.zeros((hand.N_SAMPLES, 3))
        np.add.at(pull, nearest[idx], coef[:, None] * unit)
        sample_jac = hand.sample_jacobians(joint_jac)
        grad = np.einsum("sd,sdp->p", pull, sample_jac)
    return value, grad


def penetration_loss(geometry, joint_jac, obj: ObjectModel):
    """Hinge on bone samples sunk deeper than their capsule radius."""
    _, idx, sd = nearest_surface(obj, geometry.samples)
    arg = -sd - geometry.sample_radii
    active = arg > 0
    value = float(arg[active].sum())
    if joint_jac is None:
        return value, None
    grad = np.zeros(hand.N_PARAMS)
    if np.any(active):
        pull = np.zeros((hand.N_SAMPLES, 3))
        pull[active] = -obj.normals[idx[active]]
        sample_jac = hand.sample_jacobians(joint_jac)
        grad = np.einsum("sd,sdp->p", pull, sample_jac)
    return value, grad


def reg_loss(pose_vec, joint_jac=None):
    """Pose regularizer: ||angles||^2 + (scale - 1)^2."""
    angles = pose_vec[6:26]
    ds = pose_vec[26] - 1.0
    value = float(angles @ angles + ds * ds)
    grad = np.zeros(hand.N_PARAMS)
    grad[6:26] = 2.0 * angles
    grad[26] = 2.0 * ds
    return value, grad


# ---------------------------------------------------------------------------
# descent core


def _descend(fun, x0, lo, hi, max_iters, step_size, tol, on_accept):
    """Projected descent with per-parameter adaptive steps and backtracking.

    ``fun(x) -> (value, grad, terms)``.  A step is accepted only if it does
    not increase the objective, so the recorded sequence is non-increasing.
    Non-finite trial values are treated as rejections.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, terms = fun(x)
    accum = np.zeros_like(x)
    on_accept(0, f, terms, x)
    for it in range(1, max_iters + 1):
        accum += g * g
        direction = g / np.sqrt(accum + 1e-12)
        step = step_size
        accepted = False
        for _ in range(40):
            x_new = np.clip(x - step * direction, lo, hi)
            f_new, g_new, terms_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        drop = f - f_new
        x, f, g, terms = x_new, f_new, g_new, terms_new
        on_accept(it, f, terms, x)
        if drop < tol:
            break
    return x, f


def fit_keypoints(pose0: hand.HandPose, keypoints: KeypointSet,
                  config: OptimizationConfig,
                  trace: OptimizationTrace | None = None) -> hand.HandPose:
    """Stage II: descend the keypoint loss over joint angles + global pose.

    The shape scale stays fixed.  Returns the best pose found; the loss
    never exceeds its value at ``pose0``.
    """
    lo, hi = hand.parameter_bounds(lock_scale=pose0.scale)

    def fun(vec):
        geometry, jac = hand.fk_with_jacobians(hand.HandPose.from_vector(vec))
        value, grad = kp_loss(geometry, jac, keypoints)
        return value, grad, (value, 0.0, 0.0, 0.0)

    def on_accept(it, f, terms, vec):
        if trace is not None:
            trace.append(2, it, f, terms, vec)

    x, _ = _descend(fun, pose0.as_vector(), lo, hi, config.max_iters_stage2,
                    config.step_size, config.convergence_tol, on_accept)
    return hand.HandPose.from_vector(x)


def optimize_grasp(pose1: hand.HandPose, obj: ObjectModel,
                   contact_target: ContactState,
                   keypoints: KeypointSet | None,
                   config: OptimizationConfig,
                   trace: OptimizationTrace | None = None,
                   c0: float = CONTACT_RADIUS):
    """Stage III: weighted sum of keypoint, contact, penetration, and
    regularization terms over all pose parameters including the shape scale.

    Returns (pose, trace)."""
    if trace is None:
        trace = OptimizationTrace(snapshot_interval=config.snapshot_interval)
    lo, hi = hand.parameter_bounds()
    target_likelihood = contact_target.likelihood

    def fun(vec):
        pose = hand.HandPose.from_vector(vec)
        geometry, jac = hand.fk_with_jacobians(pose)
        l_kp, g_kp = (0.0, np.zeros(hand.N_PARAMS))
        if keypoints is not None and config.w_kp > 0:
            l_kp, g_kp = kp_loss(geometry, jac, keypoints)
        l_c, g_c = (0.0, np.zeros(hand.N_PARAMS))
        if config.w_c > 0:
            l_c, g_c = contact_loss(geometry, jac, obj, target_likelihood, c0)
        l_p, g_p = (0.0, np.zeros(hand.N_PARAMS))
        if config.w_pene > 0:
            l_p, g_p = penetration_loss(geometry, jac, obj)
        l_r, g_r = reg_loss(vec)
        total = (config.w_kp * l_kp + config.w_c * l_c
                 + config.w_pene * l_p + config.w_reg * l_r)
        grad = (config.w_kp * g_kp + config.w_c * g_c
                + config.w_pene * g_p + config.w_reg * g_r)
        return total, grad, (l_kp, l_c, l_p, l_r)

    def on_accept(it, f, terms, vec):
        trace.append(3, it, f, terms, vec)

    x, _ = _descend(fun, pose1.as_vector(), lo, hi, config.max_iters_stage3,
                    config.step_size, config.convergence_tol, on_accept)
    return hand.HandPose.from_vector(x), trace


def evaluate_grasp(pose: hand.HandPose, obj: ObjectModel, mu: float = 1.0,
                   gravity=GRAVITY, f_max: float = EVAL_FORCE_MAX,
                   c0: float = CONTACT_RADIUS,
                   threshold: float = CONTACT_THRESHOLD) -> GraspReport:
    """Force-existence check of the posed hand.

    Hand samples within the contact distance (c0 / threshold) claim their
    nearest object point as a contact with the object's surface normal; the
    residual is the minimum of ||accel||^2 over admissible forces in
    [0, f_max] and friction in the linearized cone.  Penetration depth is
    max(0, -signed distance) over the hand surface samples, the proxies that
    contact maps measure to; the capsule radii only pad the penetration-loss
    hinge.
    """
    geometry = hand.forward_kinematics(pose)
    d, idx, sd = nearest_surface(obj, geometry.samples)
    touching = d <= c0 / threshold
    contact_idx = np.unique(idx[touching])
    result = solve_force_existence(obj, obj.points[contact_idx],
                                   obj.normals[contact_idx], mu=mu,
                                   gravity=gravity, f_max=f_max)
    return GraspReport(residual=result.energy,
                       contact_count=int(contact_idx.size),
                       max_penetration=float(np.maximum(-sd, 0.0).max(initial=0.0)),
                       contact_indices=contact_idx,
                       contact_forces=result.forces)


# ---------------------------------------------------------------------------
# pipeline driver


@dataclass(frozen=True, eq=False)
class PipelineResult:
    keypoints: KeypointSet | None
    registration: RegistrationResult | None
    pose_stage1: hand.HandPose
    pose_stage2: hand.HandPose
    pose_stage3: hand.HandPose
    trace: OptimizationTrace
    report_before: GraspReport
    report_after: GraspReport


def run_pipeline(obj: ObjectModel, contacts: ContactState,
                 config: OptimizationConfig, mu: float = 1.0, gravity=GRAVITY,
                 cluster_radius: float = None, n_kp: int = None,
                 target_offset: float = None,
                 use_keypoints: bool = True) -> PipelineResult:
    """Full synthesis pass: keypoints, two-stage init, stage-III refinement.

    With ``use_keypoints`` off, stages I and II are skipped and stage III
    runs from the rest pose with w_kp = 0 (ablation baseline).
    """
    from .keypoints import (DEFAULT_CLUSTER_RADIUS, DEFAULT_KEYPOINT_OFFSET,
                            DEFAULT_N_KEYPOINTS, cluster_contacts,
                            make_targets, select_clusters, select_keypoints)

    cluster_radius = DEFAULT_CLUSTER_RADIUS if cluster_radius is None else cluster_radius
    n_kp = DEFAULT_N_KEYPOINTS if n_kp is None else n_kp
    target_offset = DEFAULT_KEYPOINT_OFFSET if target_offset is None else target_offset

    trace = OptimizationTrace(snapshot_interval=config.snapshot_interval)
    if use_keypoints:
        clusters = cluster_contacts(obj, contacts, radius=cluster_radius)
        reps = select_clusters(clusters, obj, mu=mu, gravity=gravity)
        kps = select_keypoints(reps, obj, mu=mu, gravity=gravity, n_kp=n_kp)
        kps = make_targets(kps, r=target_offset)
        reference = hand.neutral_grasp_pose()
        ref_geometry = hand.forward_kinematics(reference)
        ref_centers = ref_geometry.part_centers[np.asarray(kps.parts) - 1]
        reg = register_global(ref_centers, kps.targets)
        pose1 = registration_to_pose(reg, reference)
        pose2 = fit_keypoints(pose1, kps, config, trace=trace)
        pose3, trace = optimize_grasp(pose2, obj, contacts, kps, config,
                                      trace=trace)
    else:
        kps, reg = None, None
        pose1 = pose2 = hand.neutral_grasp_pose()
        cfg = replace(config, w_kp=0.0)
        pose3, trace = optimize_grasp(pose1, obj, contacts, None, cfg,
                                      trace=trace)
    return PipelineResult(
        keypoints=kps, registration=reg, pose_stage1=pose1, pose_stage2=pose2,
        pose_stage3=pose3, trace=trace,
        report_before=evaluate_grasp(pose1, obj, mu=mu, gravity=gravity),
        report_after=evaluate_grasp(pose3, obj, mu=mu, gravity=gravity))
