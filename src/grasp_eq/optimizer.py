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
why it stopped, an ``errors.Stop``, in ``OptimizationTrace.stops`` and
logs it.  Trial points are evaluated by value only; the joint jacobian,
the gradients and the curvatures are built from that evaluation's
kinematics and nearest-neighbour results, and only at an accepted point,
where the driver draws its next trials.  The contact
term's object-point-to-hand-sample query at a trial reuses the accepted
point's answer (``scene.CertifiedNearestSite``): a point keeps its
nearest sample when no sample has moved far enough to overtake it, and
only the other points are scanned, with the same result as a full scan.
A trial whose other terms plus a lower bound on its contact term already
exceed the accepted objective is rejected before that scan.
"""

from __future__ import annotations

import contextlib
import logging
import math
import operator
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial.transform import Rotation

from . import hand
from .equilibrium import DEFAULT_MU, solve_force_existence
from .errors import Stop, is_finite, is_number, whole_number
from .keypoints import (DEFAULT_CLUSTER_RADIUS, DEFAULT_KEYPOINT_OFFSET,
                        DEFAULT_N_KEYPOINTS, KeypointSet, find_keypoints)
from .scene import (CONTACT_RADIUS, CONTACT_THRESHOLD, GRAVITY, ContactState,
                    CertifiedNearestSite, ObjectModel, contact_likelihood,
                    nearest_surface)

_log = logging.getLogger("grasp_eq")


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
        # weights and the tolerance: finite numbers >= 0; budgets: whole
        # numbers >= 1, kept as ints (a frozen field is set through object)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("max_iters"):
                object.__setattr__(self, f.name, whole_number(value, f.name, 1))
            elif not (is_number(value) and is_finite(value) and value >= 0):
                raise ValueError(f"{f.name} must be a finite number >= 0, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class TraceRecord:
    stage: int
    iteration: int
    total: float
    # the pose objective's terms and their weights, in the one term order
    kp: float = field(metadata={"weight": "w_kp"})
    contact: float = field(metadata={"weight": "w_c"})
    penetration: float = field(metadata={"weight": "w_pene"})
    reg: float = field(metadata={"weight": "w_reg"})


TERMS = tuple(f.name for f in fields(TraceRecord) if "weight" in f.metadata)


def objective(weights, terms):
    """sum(weights * terms): the objective, its gradient, its curvature."""
    return sum(map(operator.mul, weights, terms))


@dataclass
class OptimizationTrace:
    """Per-iteration loss records and each stage's Stop keyed by stage
    number."""

    records: list = field(default_factory=list)
    stops: dict = field(default_factory=dict)

    def append(self, stage, iteration, total, terms):
        """Record one accepted step; ``terms`` in TERMS order."""
        self.records.append(TraceRecord(stage, iteration, total, *terms))

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
# loss terms: each returns its value and derivatives(joint_jac, sample_jac),
# which builds from the value pass's intermediates the term's gradient w.r.t.
# the 27-dim pose vector and its Gauss-Newton curvature, a (27, 27) matrix.
# pose_terms builds both arguments once per point and passes them to every
# term; sample_jac, hand.sample_jacobians(joint_jac), is None when neither
# the contact nor the penetration term is evaluated

# IRLS floors: at the current value a_k, an L1 or hinge row a is modelled by
# its majorizer a^2 / (2 max(|a_k|, floor)), so a row at its kink keeps a
# finite curvature.  Contact rows are likelihood differences, penetration
# rows depths in meters.
CONTACT_IRLS_FLOOR = 1e-4
PENETRATION_IRLS_FLOOR = 1e-5


def kp_loss(geometry, keypoints: KeypointSet):
    """Sum of squared distances from selected part centers to targets; its
    curvature is 2 J^T J over the center rows."""
    diff = geometry.part_centers.take(np.subtract(keypoints.parts, 1), axis=0)
    diff -= keypoints.targets

    def derivatives(joint_jac, sample_jac):  # sample_jac: unused
        jac = hand.center_jacobians(joint_jac, keypoints.parts)
        rows = jac.reshape(-1, hand.N_PARAMS)
        return 2.0 * np.einsum("kd,kdp->p", diff, jac), 2.0 * rows.T @ rows

    return float((diff * diff).sum()), derivatives


def _flat():
    """Zero gradient and curvature, for a term that is flat or skipped."""
    return np.zeros(hand.N_PARAMS), np.zeros((hand.N_PARAMS, hand.N_PARAMS))


def _residual_floor(dist, lower, target_likelihood):
    """Lower bounds on the |residuals| a bracketed nearest-sample query
    gives once scanned.

    ``dist`` and ``lower`` are a CertifiedNearestSite bracket.  Each
    point's nearest distance d lies in [lo, dist] with lo = min(dist,
    lower) and likelihood is non-increasing in d, so |likelihood(d) - t|
    is at least max(likelihood(dist) - t, t - likelihood(lo), 0).  Where
    dist is certified (dist < lower), lo is dist and the bound is
    |likelihood(dist) - t| bit for bit, so no row needs to be picked out.
    Rounding is monotone, so each floor is at most the computed residual.
    """
    floor = contact_likelihood(dist) - target_likelihood
    np.maximum(floor, target_likelihood
               - contact_likelihood(np.minimum(dist, lower)), out=floor)
    return np.maximum(floor, 0.0, out=floor)


def contact_loss(geometry, obj: ObjectModel, target_likelihood,
                 nearest: CertifiedNearestSite, exceeds=None):
    """Mean absolute difference between induced and target contact maps.

    ``nearest``, a CertifiedNearestSite over ``obj.points``, answers the
    nearest-sample query; a fresh one scans every point.  Each object
    point's row weighs 1 / max(|residual|, CONTACT_IRLS_FLOOR) in the
    curvature; the rows are summed per nearest hand sample before the
    sample jacobians apply.

    ``exceeds`` is a test on a lower bound of the value, the mean of
    ``_residual_floor`` between the query's bracket and its scan: both
    means are a sum in numpy's one pairwise order over the same number of
    rows, then a division by it, so the bound is at most the value.  When
    ``exceeds`` holds for it, the scan is skipped and (that bound, None) is
    returned.
    """
    d, _, lower = nearest.bracket(geometry.samples)
    if exceeds is not None:
        floor = _residual_floor(d, lower, target_likelihood)
        bound = float(floor.sum() / floor.size)
        if exceeds(bound):
            return bound, None
    d, owners = nearest.scan()
    resid = contact_likelihood(d) - target_likelihood
    magnitude = np.abs(resid)

    def derivatives(joint_jac, sample_jac):
        active = (d > CONTACT_RADIUS) & (resid != 0)
        if not active.any():
            return _flat()
        # every row in one contiguous pass: an inactive row is put at
        # infinite distance, so its slope and unit vector are zeros, which
        # leave the per-sample sums below unchanged bit for bit
        dist = np.where(active, d, np.inf)
        slope = -CONTACT_RADIUS / dist ** 2  # d likelihood / d distance
        coef = np.sign(resid) * slope / obj.n_points
        # contiguous (3, n): unit vectors from each point to its nearest sample
        unit = geometry.samples.T.take(owners, axis=1) - nearest.columns
        unit /= dist
        irls = slope ** 2 / (np.maximum(magnitude, CONTACT_IRLS_FLOOR)
                             * obj.n_points)
        # summed per sample: the gradient pull (3 rows) and the curvature
        # block irls * unit unit^T (9 rows)
        cols = np.empty((12, d.size))
        np.multiply(coef, unit, out=cols[:3])
        np.multiply((irls * unit)[:, None], unit,
                    out=cols[3:].reshape(3, 3, -1))
        per_sample = np.empty((hand.N_SAMPLES, 12))
        for j, col in enumerate(cols):
            per_sample[:, j] = np.bincount(owners, col, hand.N_SAMPLES)
        blocks = per_sample[:, 3:].reshape(-1, 3, 3)
        flat_jac = sample_jac.reshape(-1, hand.N_PARAMS)
        return (np.einsum("sd,sdp->p", per_sample[:, :3], sample_jac),
                flat_jac.T @ (blocks @ sample_jac).reshape(-1, hand.N_PARAMS))

    return float(magnitude.sum() / magnitude.size), derivatives


def penetration_loss(geometry, obj: ObjectModel):
    """Hinge on hand samples inside the object: the sum of max(0, -sd),
    sd from ``nearest_surface``.  Each sunk sample's row weighs
    1 / max(depth, PENETRATION_IRLS_FLOOR) in the curvature."""
    _, idx, sd = nearest_surface(obj, geometry.samples)
    active = sd < 0
    depth = -sd[active]

    def derivatives(joint_jac, sample_jac):  # joint_jac: unused
        if depth.size == 0:
            return _flat()
        # d(sd)/d(pose) of each sunk sample
        rows = np.einsum("sd,sdp->sp", obj.normals[idx[active]],
                         sample_jac[active])
        irls = 1.0 / np.maximum(depth, PENETRATION_IRLS_FLOOR)
        return -rows.sum(axis=0), rows.T @ (irls[:, None] * rows)

    return float(depth.sum()), derivatives


def reg_loss(pose_vec):
    """Pose regularizer: ||angles||^2 + (scale - 1)^2; its curvature is
    the constant Hessian _REG_CURVATURE."""
    angles = pose_vec[6:26]
    ds = pose_vec[26] - 1.0

    def derivatives(joint_jac, sample_jac):  # both unused
        grad = np.zeros(hand.N_PARAMS)
        grad[6:26] = 2.0 * angles
        grad[26] = 2.0 * ds
        return grad, _REG_CURVATURE

    return float(angles @ angles + ds * ds), derivatives


# reg_loss's Hessian, constant
_REG_CURVATURE = np.diag(np.r_[np.zeros(6), np.full(21, 2.0)])
_REG_CURVATURE.flags.writeable = False


# a term that is not evaluated: value 0, flat derivatives
_SKIPPED = (0.0, lambda *_: _flat())


def pose_terms(vec, keypoints, obj, target_likelihood, weights,
               nearest=None, ceiling=None):
    """The pose objective's terms at ``vec`` from one kinematics pass.

    Returns (values, derivatives): the values in TERMS order, as are
    ``weights``, and a function that builds the joint jacobian once and
    returns the terms' (27,) gradients and (27, 27) Gauss-Newton curvatures
    in that order.  A zero-weight term, or the keypoint term without
    keypoints, is not evaluated and reads 0 with zero derivatives.
    ``nearest``, a CertifiedNearestSite over ``obj.points``, is passed on
    to ``contact_loss``; without one, a fresh one scans every point.

    With a ``ceiling``, the contact term comes last: when a lower bound on
    it already puts objective(weights, values) above ``ceiling``, its scan
    is skipped, derivatives is None and the contact value is that bound, a
    bound on the objective that exceeds ``ceiling``.
    """
    geometry, jacobian = hand.fk_with_jacobians(vec)
    # each term is (value, derivatives(joint_jac, sample_jac)), in TERMS order
    w_kp, w_c, w_pene, w_reg = weights
    kp = (kp_loss(geometry, keypoints) if keypoints is not None and w_kp > 0
          else _SKIPPED)
    pene = penetration_loss(geometry, obj) if w_pene > 0 else _SKIPPED
    reg = reg_loss(vec) if w_reg > 0 else _SKIPPED
    contact = _SKIPPED
    if w_c > 0:
        exceeds = None if ceiling is None else (
            lambda bound: objective(weights, (kp[0], bound, pene[0], reg[0]))
            > ceiling)
        if nearest is None:
            nearest = CertifiedNearestSite(obj.points)
        contact = contact_loss(geometry, obj, target_likelihood, nearest,
                               exceeds)
    values = kp[0], contact[0], pene[0], reg[0]
    if contact[1] is None:
        return values, None

    def derivatives():
        jac = jacobian()
        sample_jac = (hand.sample_jacobians(jac) if w_c > 0 or w_pene > 0
                      else None)
        return tuple(zip(*(partial(jac, sample_jac)
                           for _, partial in (kp, contact, pene, reg))))

    return values, derivatives


# ---------------------------------------------------------------------------
# descent core


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
    """Levenberg-Marquardt descent of objective(weights, pose_terms values)
    from ``vec0`` inside ``hand.parameter_bounds(lock_scale)``: the stage
    driver behind stages II and III, on ``config``'s budget for ``stage``.

    Each trial solves (H + lam max(diag(H)) I) dx = -g over the free
    parameters (lo < hi), g and H being the weighted gradient and
    Gauss-Newton curvature at the accepted point, and clips the step to the
    bounds.  The first finite trial that does not raise the objective is
    accepted, so the recorded sequence is non-increasing.  Unscaled
    damping (not Moré's column scaling) favours moving the global transform
    over articulation, which leaves less to push into the object.  Stops on
    'tol' (objective 0, or a drop below ``convergence_tol``), 'backtrack'
    (damping past _LM_DAMPING_MAX) or 'cap' (the budget of accepted steps).
    Records the start and every accepted step, and the Stop, to ``trace``
    under ``stage``, logs the Stop, the trials rejected on the bound and
    the contact passes' rescanned and queried rows at debug level, and
    returns the last accepted pose vector.

    The contact term's nearest-sample queries go through one
    CertifiedNearestSite per call, which reuses the accepted point's answer
    at its trials.  A trial gets the accepted objective as ``pose_terms``'
    ceiling; one rejected there, unscanned, fails the accept test too and
    counts as an evaluation.
    """
    lo, hi = hand.parameter_bounds(lock_scale)
    max_iters = (config.max_iters_stage2 if stage == 2
                 else config.max_iters_stage3)
    free = lo < hi
    eye = np.eye(np.count_nonzero(free))
    if free.all():  # a slice selects by view: no copies, no fancy writes
        free = slice(None)
    nearest = None if obj is None else CertifiedNearestSite(obj.points)

    def evaluate(vec, ceiling=None):
        terms, derivatives = pose_terms(vec, keypoints, obj, target_likelihood,
                                        weights, nearest, ceiling)
        return objective(weights, terms), terms, derivatives

    def accept():
        if nearest is not None:
            nearest.accept()

    x = np.clip(np.asarray(vec0, dtype=float), lo, hi)
    f, terms, derivatives = evaluate(x)
    accept()
    evals, done, drop, reason, damping = 1, 0, math.nan, "cap", None
    bounded = 0  # trials rejected on the contact bound, unscanned
    trace.append(stage, 0, f, terms)
    while done < max_iters:
        if f == 0.0:
            reason = "tol"
            break
        damping = (_LM_DAMPING_START if damping is None
                   else damping / _LM_DAMPING_FACTOR)
        grads, curvatures = derivatives()
        rhs = -objective(weights, grads)[free]
        normal = objective(weights, curvatures)[free][:, free]
        # a flat objective (H = 0) has g = 0: a zero step, then 'tol'
        diag_max = normal.diagonal().max() or 1.0
        while damping <= _LM_DAMPING_MAX:
            x_new = x.copy()
            x_new[free] += np.linalg.solve(normal + damping * diag_max * eye,
                                           rhs)
            # np.clip's arithmetic: the bounds hold no zero and no nan
            np.maximum(x_new, lo, out=x_new)
            np.minimum(x_new, hi, out=x_new)
            f_new, terms, derivatives = evaluate(x_new, f)
            evals += 1
            bounded += derivatives is None
            if math.isfinite(f_new) and f_new <= f:
                break
            damping *= _LM_DAMPING_FACTOR
        else:
            reason = "backtrack"
            break
        accept()
        done, drop, x, f = done + 1, f - f_new, x_new, f_new
        trace.append(stage, done, f, terms)
        if drop < config.convergence_tol:
            reason = "tol"
            break
    trace.stops[stage] = stop = Stop(reason, done, evals, drop)
    rows = (0, 0) if nearest is None else (nearest.rescanned, nearest.queried)
    _log.debug("stage %d: %s, %d trials rejected on the bound, %d/%d contact "
               "rows rescanned", stage, stop, bounded, *rows)
    return x


def fit_keypoints(pose0: hand.HandPose, keypoints: KeypointSet,
                  config: OptimizationConfig,
                  trace: OptimizationTrace | None = None) -> hand.HandPose:
    """Stage II: the LM stage on the keypoint term alone, over joint angles
    and the global transform; the shape scale stays fixed.  Returns the
    best pose found."""
    return hand.HandPose.from_vector(_lm_stage(
        2, pose0.as_vector(), pose0.scale, keypoints, None, None,
        tuple(float(name == "kp") for name in TERMS), config,
        OptimizationTrace() if trace is None else trace))


def optimize_grasp(pose1: hand.HandPose, obj: ObjectModel,
                   contact_target: ContactState,
                   keypoints: KeypointSet | None,
                   config: OptimizationConfig,
                   trace: OptimizationTrace | None = None):
    """Stage III: the LM stage on every term of TERMS over all pose
    parameters, the shape scale included.  Returns (pose, trace); the
    stage's Stop is ``trace.stops[3]``."""
    if trace is None:
        trace = OptimizationTrace()
    x = _lm_stage(3, pose1.as_vector(), None, keypoints, obj,
                  contact_target.likelihood,
                  tuple(getattr(config, f.metadata["weight"])
                        for f in fields(TraceRecord) if f.name in TERMS),
                  config, trace)
    return hand.HandPose.from_vector(x), trace


def evaluate_grasp(pose: hand.HandPose, obj: ObjectModel,
                   mu: float = DEFAULT_MU, gravity=GRAVITY) -> GraspReport:
    """Force-existence check of the posed hand.

    Hand samples in contact (contact_likelihood at their distance to the
    object >= CONTACT_THRESHOLD) claim their nearest object point as a
    contact with the object's surface normal; the residual is the minimum
    of ||accel||^2 over admissible forces up to solve_force_existence's cap
    and friction in the linearized cone.  Penetration depth is max(0,
    -signed distance) over the hand samples, the points that contact maps
    measure to and the penetration loss hinges at.
    """
    geometry = hand.forward_kinematics(pose)
    d, idx, sd = nearest_surface(obj, geometry.samples)
    touching = contact_likelihood(d) >= CONTACT_THRESHOLD
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
    seconds: dict  # step name -> wall time, for the steps that ran


def run_pipeline(obj: ObjectModel, contacts: ContactState,
                 config: OptimizationConfig, mu: float = DEFAULT_MU,
                 gravity=GRAVITY, cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
                 n_kp: int = DEFAULT_N_KEYPOINTS,
                 target_offset: float = DEFAULT_KEYPOINT_OFFSET,
                 use_keypoints: bool = True) -> PipelineResult:
    """Full synthesis pass: keypoints, two-stage init, stage-III refinement.

    With ``use_keypoints`` off, stages I and II are skipped and stage III
    runs from the neutral grasp pose without keypoints, so its keypoint
    term reads 0 (ablation baseline).  ``seconds`` holds the wall time of
    each step that ran: keypoints, stage1, stage2, stage3, report_before
    and report_after, in that order.
    """
    trace = OptimizationTrace()
    seconds = {}

    @contextlib.contextmanager
    def timed(step):
        start = time.perf_counter()
        yield
        seconds[step] = time.perf_counter() - start

    if use_keypoints:
        with timed("keypoints"):
            kps = find_keypoints(obj, contacts, mu=mu, gravity=gravity,
                                 cluster_radius=cluster_radius, n_kp=n_kp,
                                 target_offset=target_offset)
        with timed("stage1"):
            ref_geometry = hand.forward_kinematics(hand.neutral_grasp_pose())
            ref_centers = ref_geometry.part_centers[np.asarray(kps.parts) - 1]
            reg = register_global(ref_centers, kps.targets)
            pose1 = registration_to_pose(reg)
        with timed("stage2"):
            pose2 = fit_keypoints(pose1, kps, config, trace=trace)
    else:
        kps, reg = None, None
        pose1 = pose2 = hand.neutral_grasp_pose()
    with timed("stage3"):
        pose3, trace = optimize_grasp(pose2, obj, contacts, kps, config,
                                      trace=trace)
    with timed("report_before"):
        before = evaluate_grasp(pose1, obj, mu=mu, gravity=gravity)
    with timed("report_after"):
        after = evaluate_grasp(pose3, obj, mu=mu, gravity=gravity)
    return PipelineResult(
        keypoints=kps, registration=reg, pose_stage1=pose1, pose_stage2=pose2,
        pose_stage3=pose3, trace=trace, report_before=before,
        report_after=after, seconds=seconds)
