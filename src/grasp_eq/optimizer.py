"""Keypoint-guided hand pose optimization.

Three stages: (I) closed-form rigid registration of rest-pose part centers
onto the keypoint targets, (II) Levenberg-Marquardt fitting of joint angles
plus the global transform to the targets, on the keypoint residuals and
their exact jacobian, (III) full optimization adding contact-map,
penetration, and regularization terms.  All gradients flow analytically
through the kinematic chain.  Stages II and III run one accept/stop loop,
``_descend``, over the 27-dim pose vector kept inside
``hand.parameter_bounds()``; each stage only supplies its trial points.
Stage II's are damped Gauss-Newton steps; stage III's are projected,
per-parameter adaptive, and backtracking, carrying the step length from one
line search to the next, capped by ``step_size``.  A step is accepted only
if it does not raise the objective, and each stage records why it stopped
in ``OptimizationTrace.stops``.  Each trial point is evaluated by value
only: the joint jacobian and the gradients are built from that evaluation's
kinematics and nearest-neighbour results, and only at an accepted point,
where a stage draws its next trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation

from . import hand
from .equilibrium import DEFAULT_MU, solve_force_existence
from .keypoints import (DEFAULT_CLUSTER_RADIUS, DEFAULT_KEYPOINT_OFFSET,
                        DEFAULT_N_KEYPOINTS, KeypointSet, find_keypoints)
from .scene import (CONTACT_RADIUS, CONTACT_THRESHOLD, GRAVITY, ContactState,
                    ObjectModel, contact_likelihood, nearest_site,
                    nearest_surface)


@dataclass(frozen=True)
class OptimizationConfig:
    """Weights and iteration budget for stages II and III; ``step_size``
    caps stage III's line search (stage II takes Gauss-Newton steps).

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
    """Per-iteration loss records and each stage's StopReport keyed by
    stage number."""

    records: list = field(default_factory=list)
    stops: dict = field(default_factory=dict)

    def append(self, stage, iteration, total, terms):
        """Record one accepted step."""
        self.records.append(TraceRecord(stage=stage, iteration=iteration,
                                        total=total, kp=terms[0],
                                        contact=terms[1], penetration=terms[2],
                                        reg=terms[3]))

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
# loss terms: each returns its value and grad(joint_jac), which differentiates
# it w.r.t. the 27-dim pose vector from the value pass's intermediates


def kp_residuals(geometry, keypoints: KeypointSet):
    """Selected part centers minus their targets, shape (k, 3)."""
    parts = np.asarray(keypoints.parts, dtype=int)
    return geometry.part_centers[parts - 1] - keypoints.targets


def kp_loss(geometry, keypoints: KeypointSet):
    """Sum of squared distances from selected part centers to targets."""
    diff = kp_residuals(geometry, keypoints)

    def grad(joint_jac):
        jac = hand.center_jacobians(joint_jac, keypoints.parts)
        return 2.0 * np.einsum("kd,kdp->p", diff, jac)

    return float(np.sum(diff * diff)), grad


def contact_loss(geometry, obj: ObjectModel, target_likelihood):
    """Mean absolute difference between induced and target contact maps.

    ``grad`` takes ``sample_jac``, ``hand.sample_jacobians(joint_jac)``,
    when the caller already holds it."""
    d, nearest = nearest_site(obj.points, geometry.samples)
    resid = contact_likelihood(d) - target_likelihood

    def grad(joint_jac, sample_jac=None):
        active = (d > CONTACT_RADIUS) & (resid != 0)
        if not np.any(active):
            return np.zeros(hand.N_PARAMS)
        idx = np.flatnonzero(active)
        coef = (np.sign(resid[idx]) * (-CONTACT_RADIUS / d[idx] ** 2)
                / obj.n_points)
        unit = (geometry.samples[nearest[idx]] - obj.points[idx]) / d[idx, None]
        weights = coef[:, None] * unit
        pull = np.stack([np.bincount(nearest[idx], weights[:, k],
                                     hand.N_SAMPLES) for k in range(3)],
                        axis=1)
        if sample_jac is None:
            sample_jac = hand.sample_jacobians(joint_jac)
        return np.einsum("sd,sdp->p", pull, sample_jac)

    return float(np.mean(np.abs(resid))), grad


def penetration_loss(geometry, obj: ObjectModel):
    """Hinge on bone samples sunk deeper than their capsule radius.

    ``grad`` takes ``sample_jac`` as ``contact_loss``'s does."""
    _, idx, sd = nearest_surface(obj, geometry.samples)
    arg = -sd - geometry.sample_radii
    active = arg > 0

    def grad(joint_jac, sample_jac=None):
        if not np.any(active):
            return np.zeros(hand.N_PARAMS)
        pull = np.zeros((hand.N_SAMPLES, 3))
        pull[active] = -obj.normals[idx[active]]
        if sample_jac is None:
            sample_jac = hand.sample_jacobians(joint_jac)
        return np.einsum("sd,sdp->p", pull, sample_jac)

    return float(arg[active].sum()), grad


def reg_loss(pose_vec):
    """Pose regularizer: ||angles||^2 + (scale - 1)^2."""
    angles = pose_vec[6:26]
    ds = pose_vec[26] - 1.0
    value = float(angles @ angles + ds * ds)
    grad = np.zeros(hand.N_PARAMS)
    grad[6:26] = 2.0 * angles
    grad[26] = 2.0 * ds
    return value, grad


def pose_terms(vec, keypoints, obj, target_likelihood, weights):
    """The four pose-objective terms at ``vec`` from one kinematics pass.

    Returns (values, gradients): the keypoint, contact, penetration and
    regularization values, in that order, and a function that builds the
    joint jacobian once and returns the four (27,) gradients in the same
    order.  A term whose weight in ``weights`` is zero, or the keypoint term
    without keypoints, is not evaluated and reads 0 with a zero gradient.
    """
    geometry, jacobian = hand.fk_with_jacobians(vec)
    w_kp, w_c, w_pene, w_reg = weights
    kp = (kp_loss(geometry, keypoints)
          if keypoints is not None and w_kp > 0 else None)
    contact = (contact_loss(geometry, obj, target_likelihood)
               if w_c > 0 else None)
    pene = penetration_loss(geometry, obj) if w_pene > 0 else None
    reg = reg_loss(vec) if w_reg > 0 else None

    def gradients():
        jac = jacobian()
        sample_jac = (None if contact is None and pene is None
                      else hand.sample_jacobians(jac))
        zero = np.zeros(hand.N_PARAMS)
        return (zero if kp is None else kp[1](jac),
                zero if contact is None else contact[1](jac, sample_jac),
                zero if pene is None else pene[1](jac, sample_jac),
                zero if reg is None else reg[1])

    values = tuple(0.0 if term is None else term[0]
                   for term in (kp, contact, pene, reg))
    return values, gradients


# ---------------------------------------------------------------------------
# descent core


@dataclass(frozen=True)
class StopReport:
    """How one stage's descent ended.

    ``reason`` is 'tol' (the last drop fell below ``convergence_tol``, or
    the loss reached 0), 'backtrack' (no trial step kept the loss from
    rising) or 'cap' (the iteration budget ran out).  ``iterations`` counts
    accepted steps, ``evaluations`` objective evaluations including the
    start, and ``last_drop`` is the last accepted decrease (nan if none).
    """

    reason: str
    iterations: int
    evaluations: int
    last_drop: float


def _descend(fun, x0, lo, hi, max_iters, tol, trials, on_accept):
    """The accept/stop loop that stages II and III share.

    ``fun(x) -> (value, state)``; ``trials(x, state)`` yields one
    iteration's trial points, and the first finite one that does not raise
    the value is accepted, so the recorded sequence is non-increasing.
    ``on_accept(iteration, value, state)`` sees the start and every accepted
    step.  Stops on 'tol' (value 0, or a drop below ``tol``), 'backtrack'
    (the trials ran out) or 'cap' (``max_iters`` accepted steps).  Returns
    (x, StopReport).
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, state = fun(x)
    evals, done, drop, reason = 1, 0, math.nan, "cap"
    on_accept(0, f, state)
    while done < max_iters:
        if f == 0.0:
            reason = "tol"
            break
        for x_new in trials(x, state):
            f_new, state_new = fun(x_new)
            evals += 1
            if np.isfinite(f_new) and f_new <= f:
                break
        else:
            reason = "backtrack"
            break
        done, drop = done + 1, f - f_new
        x, f, state = x_new, f_new, state_new
        on_accept(done, f, state)
        if drop < tol:
            reason = "tol"
            break
    return x, StopReport(reason, done, evals, drop)


# Levenberg-Marquardt damping, as a multiple of the largest diagonal entry
# of J^T J: the first trial step uses _LM_DAMPING_START, each accepted step
# divides it by _LM_DAMPING_FACTOR and each rejected one multiplies it by
# that, and past _LM_DAMPING_MAX the steps are too short to matter.
_LM_DAMPING_START = 1e-3
_LM_DAMPING_FACTOR = 10.0
_LM_DAMPING_MAX = 1e12


def fit_keypoints(pose0: hand.HandPose, keypoints: KeypointSet,
                  config: OptimizationConfig,
                  trace: OptimizationTrace | None = None) -> hand.HandPose:
    """Stage II: Levenberg-Marquardt on the keypoint residuals over joint
    angles + global pose; the shape scale stays fixed.

    Each trial solves (J^T J + lam I) dx = -J^T r over the free parameters,
    r being part centers minus targets and J its exact jacobian, and clips
    the step to the joint limits.  Of the many poses that fit three
    keypoints, unscaled damping (not Moré's column scaling) favours moving
    the global transform over articulation, which leaves stage III less to
    push into the object.  lam falls after an accepted step and rises after
    a rejected one, and runaway damping stops the stage as 'backtrack' (see
    StopReport).  Returns the best pose found.
    """
    lo, hi = hand.parameter_bounds(lock_scale=pose0.scale)
    free = lo < hi
    eye = np.eye(free.sum())
    damping = None

    def residuals(vec):
        geometry, jacobian = hand.fk_with_jacobians(vec)
        r = kp_residuals(geometry, keypoints).ravel()

        def residual_jacobian():
            jac = hand.center_jacobians(jacobian(), keypoints.parts)
            return jac.reshape(r.size, -1)[:, free]

        return float(r @ r), (r, residual_jacobian)

    def trials(x, state):
        # every call but the first follows an accepted step
        nonlocal damping
        damping = (_LM_DAMPING_START if damping is None
                   else damping / _LM_DAMPING_FACTOR)
        r, residual_jacobian = state
        jac = residual_jacobian()
        normal = jac.T @ jac
        diag_max, rhs = normal.diagonal().max(), -(jac.T @ r)
        while damping <= _LM_DAMPING_MAX:
            lam = damping * diag_max
            x_new = x.copy()
            x_new[free] += np.linalg.solve(normal + lam * eye, rhs)
            yield np.clip(x_new, lo, hi)
            damping *= _LM_DAMPING_FACTOR

    def on_accept(it, f, state):
        if trace is not None:
            trace.append(2, it, f, (f, 0.0, 0.0, 0.0))

    x, stop = _descend(residuals, pose0.as_vector(), lo, hi,
                       config.max_iters_stage2, config.convergence_tol,
                       trials, on_accept)
    if trace is not None:
        trace.stops[2] = stop
    return hand.HandPose.from_vector(x)


def optimize_grasp(pose1: hand.HandPose, obj: ObjectModel,
                   contact_target: ContactState,
                   keypoints: KeypointSet | None,
                   config: OptimizationConfig,
                   trace: OptimizationTrace | None = None):
    """Stage III: weighted sum of keypoint, contact, penetration, and
    regularization terms over all pose parameters including the shape scale.

    Each iteration scales the gradient per parameter by its accumulated
    magnitude, then backtracks from twice the last accepted step, at most
    ``step_size``, halving up to 40 times.  Returns (pose, trace); the
    stage's stop report is ``trace.stops[3]``."""
    if trace is None:
        trace = OptimizationTrace()
    weights = (config.w_kp, config.w_c, config.w_pene, config.w_reg)
    w_kp, w_c, w_pene, w_reg = weights
    lo, hi = hand.parameter_bounds()
    accum = np.zeros(hand.N_PARAMS)
    step = config.step_size

    def fun(vec):
        terms, gradients = pose_terms(vec, keypoints, obj,
                                      contact_target.likelihood, weights)
        l_kp, l_c, l_p, l_r = terms
        total = w_kp * l_kp + w_c * l_c + w_pene * l_p + w_reg * l_r
        return total, (gradients, terms)

    def trials(x, state):
        nonlocal accum, step
        g_kp, g_c, g_p, g_r = state[0]()
        grad = w_kp * g_kp + w_c * g_c + w_pene * g_p + w_reg * g_r
        accum += grad * grad
        direction = grad / np.sqrt(accum + 1e-12)
        step = min(2.0 * step, config.step_size)
        for _ in range(40):
            yield np.clip(x - step * direction, lo, hi)
            step *= 0.5

    def on_accept(it, f, state):
        trace.append(3, it, f, state[1])

    x, trace.stops[3] = _descend(
        fun, pose1.as_vector(), lo, hi, config.max_iters_stage3,
        config.convergence_tol, trials, on_accept)
    return hand.HandPose.from_vector(x), trace


def evaluate_grasp(pose: hand.HandPose, obj: ObjectModel,
                   mu: float = DEFAULT_MU, gravity=GRAVITY) -> GraspReport:
    """Force-existence check of the posed hand.

    Hand samples within the contact distance (CONTACT_RADIUS /
    CONTACT_THRESHOLD) claim their nearest object point as a contact with
    the object's surface normal; the residual is the minimum of ||accel||^2
    over admissible forces up to solve_force_existence's cap and friction
    in the linearized cone.  Penetration depth is max(0, -signed distance)
    over the hand surface samples, the proxies that contact maps measure
    to; the capsule radii only pad the penetration-loss hinge.
    """
    geometry = hand.forward_kinematics(pose)
    d, idx, sd = nearest_surface(obj, geometry.samples)
    touching = d <= CONTACT_RADIUS / CONTACT_THRESHOLD
    contact_idx = np.unique(idx[touching])
    result = solve_force_existence(obj, obj.points[contact_idx],
                                   obj.normals[contact_idx], mu=mu,
                                   gravity=gravity)
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
                 config: OptimizationConfig, mu: float = DEFAULT_MU,
                 gravity=GRAVITY, cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
                 n_kp: int = DEFAULT_N_KEYPOINTS,
                 target_offset: float = DEFAULT_KEYPOINT_OFFSET,
                 use_keypoints: bool = True) -> PipelineResult:
    """Full synthesis pass: keypoints, two-stage init, stage-III refinement.

    With ``use_keypoints`` off, stages I and II are skipped and stage III
    runs from the neutral grasp pose without keypoints, so its keypoint
    term reads 0 (ablation baseline).
    """
    trace = OptimizationTrace()
    if use_keypoints:
        kps = find_keypoints(obj, contacts, mu=mu, gravity=gravity,
                             cluster_radius=cluster_radius, n_kp=n_kp,
                             target_offset=target_offset)
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
        pose3, trace = optimize_grasp(pose1, obj, contacts, None, config,
                                      trace=trace)
    return PipelineResult(
        keypoints=kps, registration=reg, pose_stage1=pose1, pose_stage2=pose2,
        pose_stage3=pose3, trace=trace,
        report_before=evaluate_grasp(pose1, obj, mu=mu, gravity=gravity),
        report_after=evaluate_grasp(pose3, obj, mu=mu, gravity=gravity))
