"""Keypoint-guided hand pose optimization.

Three stages: (I) closed-form rigid registration of rest-pose part centers
onto the keypoint targets, (II) fitting of joint angles plus the global
transform to the targets, (III) full optimization adding contact-map,
penetration, and regularization terms.  All gradients flow analytically
through the kinematic chain.  Stages II and III are two calls of one
Levenberg-Marquardt driver, ``_lm_stage``, over the terms of ``pose_terms``
(stage II weighs the keypoint term alone and locks the scale); its loop is
the one place trial points are accepted and stages stop.  A step is
accepted only if it does not raise the objective, and each stage records
why it stopped in ``OptimizationTrace.stops``.  Trial points are evaluated by value only; the
joint jacobian, the gradients and the curvatures are built from that
evaluation's kinematics and nearest-neighbour results, and only at an
accepted point, where the driver draws its next trials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial.transform import Rotation

from . import hand
from .equilibrium import DEFAULT_MU, solve_force_existence
from .errors import is_number
from .keypoints import (DEFAULT_CLUSTER_RADIUS, DEFAULT_KEYPOINT_OFFSET,
                        DEFAULT_N_KEYPOINTS, KeypointSet, find_keypoints)
from .scene import (CONTACT_RADIUS, CONTACT_THRESHOLD, GRAVITY, ContactState,
                    ObjectModel, contact_likelihood, nearest_site,
                    nearest_surface)


@dataclass(frozen=True)
class OptimizationConfig:
    """Weights, iteration budgets and the drop tolerance of stages II and III.

    The keypoint weight outranks the contact term by design: keypoints carry
    the stability analysis, and with synthetic contact targets a weaker
    anchor lets stray contact-map pressure pull fingers off curved objects.
    """

    w_kp: float = 10.0
    w_c: float = 0.5
    w_pene: float = 10.0
    w_reg: float = 0.01
    max_iters_stage2: int = 200
    max_iters_stage3: int = 300
    convergence_tol: float = 1e-9

    def __post_init__(self):
        # weights and the tolerance: finite numbers >= 0; budgets: ints >= 1
        for f in fields(self):
            value = getattr(self, f.name)
            budget = f.name.startswith("max_iters")
            kind, what = ((numbers.Integral, "an integer") if budget
                          else (numbers.Real, "a finite number"))
            if not (is_number(value, kind) and math.isfinite(value)
                    and value >= budget):
                raise ValueError(f"{f.name} must be {what} >= {int(budget)}, "
                                 f"got {value!r}")


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


def registration_to_pose(reg: RegistrationResult) -> hand.HandPose:
    """Hand pose applying a rigid registration to the neutral grasp
    articulation."""
    reference = hand.neutral_grasp_pose()
    rotvec = Rotation.from_matrix(reg.rotation).as_rotvec()
    return hand.HandPose(rotation=rotvec, translation=reg.translation,
                         angles=reference.angles, scale=reference.scale)


# ---------------------------------------------------------------------------
# loss terms: each returns its value and derivatives(joint_jac), which builds
# from the value pass's intermediates the term's gradient w.r.t. the 27-dim
# pose vector and its Gauss-Newton curvature, a (27, 27) matrix

# IRLS floors: at the current value a_k, an L1 or hinge row a is modelled by
# its majorizer a^2 / (2 max(|a_k|, floor)), so a row at its kink keeps a
# finite curvature.  Contact rows are likelihood differences, penetration
# rows depths in meters.
CONTACT_IRLS_FLOOR = 1e-4
PENETRATION_IRLS_FLOOR = 1e-5


def kp_loss(geometry, keypoints: KeypointSet):
    """Sum of squared distances from selected part centers to targets; its
    curvature is 2 J^T J over the center rows."""
    parts = np.asarray(keypoints.parts, dtype=int)
    diff = geometry.part_centers[parts - 1] - keypoints.targets

    def derivatives(joint_jac):
        jac = hand.center_jacobians(joint_jac, keypoints.parts)
        rows = jac.reshape(-1, hand.N_PARAMS)
        return 2.0 * np.einsum("kd,kdp->p", diff, jac), 2.0 * rows.T @ rows

    return float(np.sum(diff * diff)), derivatives


def _flat():
    """Zero gradient and curvature, for a term that is flat or skipped."""
    return np.zeros(hand.N_PARAMS), np.zeros((hand.N_PARAMS, hand.N_PARAMS))


def contact_loss(geometry, obj: ObjectModel, target_likelihood):
    """Mean absolute difference between induced and target contact maps.

    ``derivatives`` takes ``sample_jac``, ``hand.sample_jacobians(joint_jac)``,
    when the caller already holds it.  Each object point's row weighs
    1 / max(|residual|, CONTACT_IRLS_FLOOR) in the curvature; the rows are
    summed per nearest hand sample before the sample jacobians apply."""
    d, nearest = nearest_site(obj.points, geometry.samples)
    resid = contact_likelihood(d) - target_likelihood

    def derivatives(joint_jac, sample_jac=None):
        active = (d > CONTACT_RADIUS) & (resid != 0)
        if not np.any(active):
            return _flat()
        idx = np.flatnonzero(active)
        owner = nearest[idx]
        slope = -CONTACT_RADIUS / d[idx] ** 2  # d likelihood / d distance
        coef = np.sign(resid[idx]) * slope / obj.n_points
        # (3, n): unit vectors from each point to its nearest sample
        unit = ((geometry.samples[owner] - obj.points[idx]) / d[idx, None]).T
        irls = slope ** 2 / (np.maximum(np.abs(resid[idx]), CONTACT_IRLS_FLOOR)
                             * obj.n_points)
        # summed per sample: the gradient pull (3 columns) and the curvature
        # block irls * unit unit^T (9 columns)
        cols = np.concatenate([coef * unit,
                               ((irls * unit)[:, None] * unit).reshape(9, -1)])
        per_sample = np.stack([np.bincount(owner, col, hand.N_SAMPLES)
                               for col in cols], axis=1)
        blocks = per_sample[:, 3:].reshape(-1, 3, 3)
        if sample_jac is None:
            sample_jac = hand.sample_jacobians(joint_jac)
        flat_jac = sample_jac.reshape(-1, hand.N_PARAMS)
        return (np.einsum("sd,sdp->p", per_sample[:, :3], sample_jac),
                flat_jac.T @ (blocks @ sample_jac).reshape(-1, hand.N_PARAMS))

    return float(np.mean(np.abs(resid))), derivatives


def penetration_loss(geometry, obj: ObjectModel):
    """Hinge on hand samples inside the object: the sum of max(0, -sd).

    ``derivatives`` takes ``sample_jac`` as ``contact_loss``'s does.  Each
    sunk sample's row weighs 1 / max(depth, PENETRATION_IRLS_FLOOR) in the
    curvature."""
    _, idx, sd = nearest_surface(obj, geometry.samples)
    active = sd < 0
    depth = -sd[active]

    def derivatives(joint_jac, sample_jac=None):
        if depth.size == 0:
            return _flat()
        if sample_jac is None:
            sample_jac = hand.sample_jacobians(joint_jac)
        # d(sd)/d(pose) of each sunk sample
        rows = np.einsum("sd,sdp->sp", obj.normals[idx[active]],
                         sample_jac[active])
        irls = 1.0 / np.maximum(depth, PENETRATION_IRLS_FLOOR)
        return -rows.sum(axis=0), rows.T @ (irls[:, None] * rows)

    return float(depth.sum()), derivatives


def reg_loss(pose_vec):
    """Pose regularizer: ||angles||^2 + (scale - 1)^2."""
    angles = pose_vec[6:26]
    ds = pose_vec[26] - 1.0
    value = float(angles @ angles + ds * ds)
    grad = np.zeros(hand.N_PARAMS)
    grad[6:26] = 2.0 * angles
    grad[26] = 2.0 * ds
    return value, grad


# reg_loss's Hessian, constant
_REG_CURVATURE = np.diag(np.r_[np.zeros(6), np.full(21, 2.0)])
_REG_CURVATURE.flags.writeable = False


def pose_terms(vec, keypoints, obj, target_likelihood, weights):
    """The four pose-objective terms at ``vec`` from one kinematics pass.

    Returns (values, derivatives): the keypoint, contact, penetration and
    regularization values, in that order, and a function that builds the
    joint jacobian once and returns (gradients, curvatures), the four (27,)
    gradients and (27, 27) Gauss-Newton curvatures in the same order.  A
    term whose weight in ``weights`` is zero, or the keypoint term without
    keypoints, is not evaluated and reads 0 with zero derivatives.
    """
    geometry, jacobian = hand.fk_with_jacobians(vec)
    w_kp, w_c, w_pene, w_reg = weights
    kp = (kp_loss(geometry, keypoints)
          if keypoints is not None and w_kp > 0 else None)
    contact = (contact_loss(geometry, obj, target_likelihood)
               if w_c > 0 else None)
    pene = penetration_loss(geometry, obj) if w_pene > 0 else None
    reg = reg_loss(vec) if w_reg > 0 else None

    def derivatives():
        jac = jacobian()
        sample_jac = (None if contact is None and pene is None
                      else hand.sample_jacobians(jac))
        pairs = (_flat() if kp is None else kp[1](jac),
                 _flat() if contact is None else contact[1](jac, sample_jac),
                 _flat() if pene is None else pene[1](jac, sample_jac),
                 _flat() if reg is None else (reg[1], _REG_CURVATURE))
        return tuple(zip(*pairs))

    values = tuple(0.0 if term is None else term[0]
                   for term in (kp, contact, pene, reg))
    return values, derivatives


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


# Levenberg-Marquardt damping, as a multiple of the largest diagonal entry
# of the curvature: the first trial step uses _LM_DAMPING_START, each
# accepted step divides it by _LM_DAMPING_FACTOR and each rejected one
# multiplies it by that, and past _LM_DAMPING_MAX the steps are too short to
# matter.
_LM_DAMPING_START = 1e-3
_LM_DAMPING_FACTOR = 10.0
_LM_DAMPING_MAX = 1e12


def _lm_stage(stage, vec0, lock_scale, keypoints, obj, target_likelihood,
              weights, config, trace):
    """Levenberg-Marquardt descent of sum(weights * pose_terms values) from
    ``vec0`` inside ``hand.parameter_bounds(lock_scale)``: the stage driver
    behind stages II and III, on ``config``'s budget for ``stage``.

    Each trial solves (H + lam I) dx = -g over the free parameters (lo <
    hi), g and H being the weighted gradient and Gauss-Newton curvature at
    the accepted point, and clips the step to the bounds.  The first finite
    trial that does not raise the objective is accepted, so the recorded
    sequence is non-increasing.  Unscaled damping (not Moré's column
    scaling) favours moving the global transform over articulation, which
    leaves less to push into the object.  Stops on 'tol' (objective 0, or a
    drop below ``convergence_tol``), 'backtrack' (damping past
    _LM_DAMPING_MAX) or 'cap' (the budget of accepted steps).  Records the
    start and every accepted step, and the StopReport, to ``trace`` under
    ``stage``; returns the last accepted pose vector.
    """
    lo, hi = hand.parameter_bounds(lock_scale)
    max_iters = (config.max_iters_stage2 if stage == 2
                 else config.max_iters_stage3)
    free = lo < hi
    eye = np.eye(free.sum())

    def evaluate(vec):
        terms, derivatives = pose_terms(vec, keypoints, obj,
                                        target_likelihood, weights)
        return sum(w * t for w, t in zip(weights, terms)), terms, derivatives

    x = np.clip(np.asarray(vec0, dtype=float), lo, hi)
    f, terms, derivatives = evaluate(x)
    evals, done, drop, reason, damping = 1, 0, math.nan, "cap", None
    trace.append(stage, 0, f, terms)
    while done < max_iters:
        if f == 0.0:
            reason = "tol"
            break
        damping = (_LM_DAMPING_START if damping is None
                   else damping / _LM_DAMPING_FACTOR)
        grads, curvatures = derivatives()
        rhs = -sum(w * g for w, g in zip(weights, grads))[free]
        normal = sum(w * c for w, c in zip(weights, curvatures))[free][:, free]
        # a flat objective (H = 0) has g = 0: a zero step, then 'tol'
        diag_max = normal.diagonal().max() or 1.0
        while damping <= _LM_DAMPING_MAX:
            x_new = x.copy()
            x_new[free] += np.linalg.solve(normal + damping * diag_max * eye,
                                           rhs)
            x_new = np.clip(x_new, lo, hi)
            f_new, terms, derivatives = evaluate(x_new)
            evals += 1
            if np.isfinite(f_new) and f_new <= f:
                break
            damping *= _LM_DAMPING_FACTOR
        else:
            reason = "backtrack"
            break
        done, drop, x, f = done + 1, f - f_new, x_new, f_new
        trace.append(stage, done, f, terms)
        if drop < config.convergence_tol:
            reason = "tol"
            break
    trace.stops[stage] = StopReport(reason, done, evals, drop)
    return x


def fit_keypoints(pose0: hand.HandPose, keypoints: KeypointSet,
                  config: OptimizationConfig,
                  trace: OptimizationTrace | None = None) -> hand.HandPose:
    """Stage II: the LM stage on the keypoint term alone, over joint angles
    and the global transform; the shape scale stays fixed.  Returns the
    best pose found."""
    return hand.HandPose.from_vector(_lm_stage(
        2, pose0.as_vector(), pose0.scale, keypoints, None, None,
        (1.0, 0.0, 0.0, 0.0), config,
        OptimizationTrace() if trace is None else trace))


def optimize_grasp(pose1: hand.HandPose, obj: ObjectModel,
                   contact_target: ContactState,
                   keypoints: KeypointSet | None,
                   config: OptimizationConfig,
                   trace: OptimizationTrace | None = None):
    """Stage III: the LM stage on the weighted sum of keypoint, contact,
    penetration, and regularization terms over all pose parameters
    including the shape scale.  Returns (pose, trace); the stage's stop
    report is ``trace.stops[3]``."""
    if trace is None:
        trace = OptimizationTrace()
    x = _lm_stage(3, pose1.as_vector(), None, keypoints, obj,
                  contact_target.likelihood,
                  (config.w_kp, config.w_c, config.w_pene, config.w_reg),
                  config, trace)
    return hand.HandPose.from_vector(x), trace


def evaluate_grasp(pose: hand.HandPose, obj: ObjectModel,
                   mu: float = DEFAULT_MU, gravity=GRAVITY) -> GraspReport:
    """Force-existence check of the posed hand.

    Hand samples within the contact distance (CONTACT_RADIUS /
    CONTACT_THRESHOLD) claim their nearest object point as a contact with
    the object's surface normal; the residual is the minimum of ||accel||^2
    over admissible forces up to solve_force_existence's cap and friction
    in the linearized cone.  Penetration depth is max(0, -signed distance)
    over the hand samples, the points that contact maps measure to and the
    penetration loss hinges at.
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
        ref_geometry = hand.forward_kinematics(hand.neutral_grasp_pose())
        ref_centers = ref_geometry.part_centers[np.asarray(kps.parts) - 1]
        reg = register_global(ref_centers, kps.targets)
        pose1 = registration_to_pose(reg)
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
