"""Simplified parametric skeletal hand.

A fixed 21-joint right-hand skeleton (wrist + 4 joints per finger) at
average adult proportions, posed by 20 joint angles (per finger: abduction
at the proximal joint plus three flexions), a uniform shape scale, and a
global rigid transform.  The hand splits into 16 parts: the palm and three
segments per finger.  80 surface samples, points on the bones and the palm,
are where contact and penetration are measured.

Conventions (rest pose, hand frame): the wrist sits at the origin, fingers
extend along +y, the thumb leaves the palm diagonally toward +x, and the
palm normal is +z.  Positive flexion curls a finger toward -z; positive
abduction swings it about the palm normal.  Joint rotation axes are fixed
in their parent frames.  World point = R(global_rotation) @ local + trans.

``fk_with_jacobians`` poses a pose vector and returns, next to the
geometry, a builder for the exact joint jacobian, so an evaluation that
needs only values never builds it.  ``forward_kinematics`` poses a
``HandPose`` by clipping its vector into the joint limits and taking the
value pass of ``fk_with_jacobians``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_JOINTS = 21
N_ANGLES = 20
N_PARTS = 16
N_PARAMS = 27  # rotation(3) + translation(3) + angles(20) + scale(1)

FLEXION_LIMITS = (-0.3, 1.8)
ABDUCTION_LIMITS = (-0.5, 0.5)
SCALE_LIMITS = (0.7, 1.3)

PALM_PART = 1

_SEGMENT_SAMPLE_T = (0.1, 0.3, 0.5, 0.7, 0.9)
_PALM_SAMPLE_T = 0.55

# Rest skeleton: per finger the proximal joint position, the pointing
# direction, and the three segment lengths (meters, scale 1).
_THUMB_DIR = np.array([np.cos(np.deg2rad(35.0)), np.sin(np.deg2rad(35.0)), 0.0])
_BASES = np.array([
    [0.034, 0.018, 0.0],    # thumb
    [0.030, 0.088, 0.0],    # index
    [0.009, 0.094, 0.0],    # middle
    [-0.012, 0.090, 0.0],   # ring
    [-0.032, 0.080, 0.0],   # pinky
])
_DIRS = np.array([
    _THUMB_DIR,
    [0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0],
])
_LENGTHS = np.array([
    [0.046, 0.032, 0.025],
    [0.045, 0.026, 0.022],
    [0.049, 0.030, 0.024],
    [0.045, 0.028, 0.023],
    [0.035, 0.022, 0.020],
])
_Z = np.array([0.0, 0.0, 1.0])
# flexion axes: z x dir, so positive flexion rotates the bone toward -z
_FLEX_AXES = np.cross(np.broadcast_to(_Z, (5, 3)), _DIRS)
_FLEX_AXES = _FLEX_AXES / np.linalg.norm(_FLEX_AXES, axis=1, keepdims=True)


def finger_base_joint(finger: int) -> int:
    return 1 + 4 * finger


def segment_part_id(finger: int, segment: int) -> int:
    """Part id of a finger segment (finger 0..4, segment 0..2)."""
    return 2 + 3 * finger + segment


def _affine_tables():
    """Weight matrices expressing part centers and samples as joint blends."""
    centers = np.zeros((N_PARTS, N_JOINTS))
    centers[PALM_PART - 1, 0] = 1.0 / 6.0
    for f in range(5):
        centers[PALM_PART - 1, finger_base_joint(f)] = 1.0 / 6.0
        for s in range(3):
            j = finger_base_joint(f) + s
            row = segment_part_id(f, s) - 1
            centers[row, j] = 0.5
            centers[row, j + 1] = 0.5
    rows, parts = [], []
    for f in range(5):  # palm pads, one toward each finger base
        w = np.zeros(N_JOINTS)
        w[0] = 1.0 - _PALM_SAMPLE_T
        w[finger_base_joint(f)] = _PALM_SAMPLE_T
        rows.append(w)
        parts.append(PALM_PART)
    for f in range(5):
        for s in range(3):
            j = finger_base_joint(f) + s
            for t in _SEGMENT_SAMPLE_T:
                w = np.zeros(N_JOINTS)
                w[j] = 1.0 - t
                w[j + 1] = t
                rows.append(w)
                parts.append(segment_part_id(f, s))
    return centers, np.array(rows), np.array(parts, dtype=int)


_CENTER_WEIGHTS, _SAMPLE_WEIGHTS, SAMPLE_PARTS = _affine_tables()
N_SAMPLES = _SAMPLE_WEIGHTS.shape[0]
SAMPLE_PARTS.flags.writeable = False
# each sample's two joints, the lower first, and their weights, shaped to
# scale (N_SAMPLES, 3, N_PARAMS) jacobian rows
_SAMPLE_JOINTS = np.nonzero(_SAMPLE_WEIGHTS)[1].reshape(N_SAMPLES, 2).T
_SAMPLE_BLEND = np.take_along_axis(_SAMPLE_WEIGHTS, _SAMPLE_JOINTS.T,
                                   axis=1).T[:, :, None, None]


@dataclass(frozen=True, eq=False)
class HandPose:
    """Global rigid transform, joint angles, and uniform shape scale.

    ``rotation`` is an axis-angle vector; ``angles`` packs per finger
    [abduction, flex proximal, flex middle, flex distal] in finger order.
    """

    rotation: np.ndarray
    translation: np.ndarray
    angles: np.ndarray
    scale: float = 1.0

    def __init__(self, rotation=None, translation=None, angles=None, scale=1.0):
        def vec(v, size, name):
            if v is None:
                v = np.zeros(size)
            v = np.asarray(v, dtype=float)
            if v.shape != (size,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite vector of length {size}")
            v = v.copy()
            v.flags.writeable = False
            return v
        object.__setattr__(self, "rotation", vec(rotation, 3, "rotation"))
        object.__setattr__(self, "translation", vec(translation, 3, "translation"))
        object.__setattr__(self, "angles", vec(angles, N_ANGLES, "angles"))
        if not np.isfinite(scale) or scale <= 0:
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "scale", float(scale))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.rotation, self.translation, self.angles,
                               [self.scale]])

    @classmethod
    def from_vector(cls, vec) -> "HandPose":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (N_PARAMS,):
            raise ValueError(f"pose vector must have length {N_PARAMS}")
        return cls(rotation=vec[:3], translation=vec[3:6], angles=vec[6:26],
                   scale=float(vec[26]))


def rest_pose() -> HandPose:
    return HandPose()


# Relaxed half-curled flexions (radians).  Used as the average reference pose
# for registration: the arch keeps palm and proximal bones clear of an object
# whose surface the fingertip parts are asked to reach, which a flat hand
# cannot do (its part centers are coplanar with the palm).
_NEUTRAL_FINGER_FLEX = (0.6, 0.6, 0.3)
_NEUTRAL_THUMB_FLEX = (0.3, 0.5, 0.3)


def neutral_grasp_pose() -> HandPose:
    """Average pre-grasp pose: fingers half-curled, zero abduction."""
    angles = np.zeros(N_ANGLES)
    angles[1:4] = _NEUTRAL_THUMB_FLEX
    for f in range(1, 5):
        angles[4 * f + 1:4 * f + 4] = _NEUTRAL_FINGER_FLEX
    return HandPose(angles=angles)


# The joint limits as one box over the pose vector, built once: rotation and
# translation free, then per finger abduction and three flexions, then scale.
_LOWER, _UPPER = (
    np.concatenate([np.full(6, free), np.tile([abd, flex, flex, flex], 5),
                    [scale]])
    for free, abd, flex, scale in zip((-np.inf, np.inf), ABDUCTION_LIMITS,
                                      FLEXION_LIMITS, SCALE_LIMITS))
_LOWER.flags.writeable = False
_UPPER.flags.writeable = False


def parameter_bounds(lock_scale: float | None = None):
    """(lower, upper) box for the pose parameter vector.

    Global rotation and translation are unbounded; angles and scale follow
    the configured limits.  ``lock_scale`` pins the scale to a constant.
    """
    lo, hi = _LOWER.copy(), _UPPER.copy()
    if lock_scale is not None:
        lo[26] = hi[26] = lock_scale
    return lo, hi


@dataclass(frozen=True, eq=False)
class HandGeometry:
    """Posed joints, part centers, and surface samples (world frame)."""

    joints: np.ndarray
    part_centers: np.ndarray
    samples: np.ndarray


_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _skew(v):
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


_CROSS_I = np.array([1, 2, 0])
_CROSS_J = np.array([2, 0, 1])


def _cross(a, b):
    """a x b over the last axis of two arrays, written out as np.cross
    computes it, a_i b_j - a_j b_i; broadcasts like np.cross."""
    return (a.take(_CROSS_I, axis=-1) * b.take(_CROSS_J, axis=-1)
            - a.take(_CROSS_J, axis=-1) * b.take(_CROSS_I, axis=-1))


# Per (finger, angle): rest rotation axis (abduction about _Z, then three
# flexions about the finger's axis), its skew K and K @ K, so Rodrigues'
# formula I + sin(q) K + (1 - cos(q)) K^2 turns all 20 joints at once.
_ANGLE_AXES = np.array([[_Z, a, a, a] for a in _FLEX_AXES])
_ANGLE_SKEW = np.array([[_skew(a) for a in row] for row in _ANGLE_AXES])
_ANGLE_SKEW_SQ = _ANGLE_SKEW @ _ANGLE_SKEW
_BONES = _DIRS[:, None, :] * _LENGTHS[:, :, None]  # (finger, segment, xyz) at scale 1
# Jacobian angle entries over (finger f, angle k, finger joint i = 1..3): the
# joint row, the pose column, and whether joint i lies downstream of angle k.
_F, _K, _I = np.ogrid[:5, :4, 1:4]
_ANGLE_ROWS = 1 + 4 * _F + _I
_ANGLE_COLS = 6 + 4 * _F + _K
_DOWNSTREAM = (_I >= _K)[..., None]
_PIVOTS = np.array([0, 0, 1, 2])  # the joint angle k turns about


def rotation_matrix(omega) -> np.ndarray:
    """Rodrigues rotation for an axis-angle vector."""
    omega = np.asarray(omega, dtype=float)
    theta = math.sqrt(omega.dot(omega))  # np.linalg.norm's arithmetic
    k = _skew(omega)
    if theta < 1e-12:
        return _EYE3 + k + 0.5 * (k @ k)
    k /= theta
    return _EYE3 + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def _local_joints(vec):
    """Hand-frame finger joints of pose vector ``vec`` and the frames that
    turn them.

    Returns (joints, frames): joints, shape (21, 3), are the wrist at the
    origin, then per finger the base and the three distal joints, and
    frames[f, k], shape (5, 4, 3, 3), the orientation of finger f after its
    abduction and k flexions, which carries the current axis of angle k for
    the geometric jacobian.
    """
    s = vec[26]
    q = vec[6:26].reshape(5, 4, 1, 1)
    frames = _EYE3 + np.sin(q) * _ANGLE_SKEW + (1.0 - np.cos(q)) * _ANGLE_SKEW_SQ
    # chained in place: frames[:, k] becomes the orientation after the
    # abduction and k flexions
    frames[:, 1] = frames[:, 0] @ frames[:, 1]
    frames[:, 2] = frames[:, 1] @ frames[:, 2]
    frames[:, 3] = frames[:, 2] @ frames[:, 3]
    bones = (frames[:, 1:] @ (_BONES * s)[..., None])[..., 0]
    joints = np.zeros((N_JOINTS, 3))
    np.add.accumulate(np.concatenate([_BASES[:, None] * s, bones], axis=1),
                      axis=1, out=joints[1:].reshape(5, 4, 3))
    return joints, frames


def _rotation_point_jacobian(omega, r, rotated):
    """d(R(omega) v)/d omega for each row v of ``rotated`` = R v stacked.

    Gallego-Yezzi closed form with ``r`` = R(omega): column j is w_j x (R v)
    with w_j = (omega_j omega + omega x (I - R) e_j) / |omega|^2, which tends
    to e_j as omega -> 0 (so d(R v)/d omega = -[R v]_x at omega = 0).
    Returns an array (m, 3, 3) with [i, :, j] = d(R v_i)/d omega_j.
    """
    omega = np.asarray(omega, dtype=float)
    theta_sq = float(omega @ omega)
    if theta_sq < 1e-16:
        w = _EYE3
    else:
        eye_minus_rt = _EYE3 - r.T
        w = (omega[:, None] * omega + _cross(omega, eye_minus_rt)) / theta_sq
    return _cross(w, rotated[:, None]).transpose(0, 2, 1)


def fk_with_jacobians(vec):
    """Forward kinematics at ``vec`` and a builder for d(world joint)/d(pose
    vector) there.

    ``vec`` is the pose vector [rotation, translation, angles, scale] and
    must lie in ``parameter_bounds()``: it is neither validated nor clipped,
    so the jacobian is over ``vec`` itself.  Returns (geometry, jacobian):
    each ``jacobian()`` call builds the (21, 3, 27) array, in the same
    order, from this pass's kinematics, so a caller that only needs values
    never pays for it.
    """
    vec = np.asarray(vec, dtype=float)
    local, frames = _local_joints(vec)
    r_glob = rotation_matrix(vec[:3])
    # the 21 joints turned by r_glob but not yet translated, which the
    # jacobian reuses
    rotated = local @ r_glob.T
    world = rotated + vec[3:6]
    geometry = HandGeometry(joints=world, part_centers=_CENTER_WEIGHTS @ world,
                            samples=_SAMPLE_WEIGHTS @ world)

    def jacobian():
        jac = np.zeros((N_JOINTS, 3, N_PARAMS))
        jac[:, :, 0:3] = _rotation_point_jacobian(vec[:3], r_glob, rotated)
        jac[:, :, 3:6] = _EYE3
        # angles: revolute-joint rule, d p/d q = w x (p - pivot), downstream
        # only; a joint's own rotation leaves its axis fixed, so frame k
        # carries axis k, and angle k turns about joint max(k - 1, 0)
        axes = (frames @ _ANGLE_AXES[..., None])[..., 0]
        joints = local[1:].reshape(5, 4, 3)
        arms = joints[:, None, 1:] - joints.take(_PIVOTS, axis=1)[:, :, None]
        d_local = _cross(axes[:, :, None], arms) * _DOWNSTREAM
        jac[_ANGLE_ROWS, :, _ANGLE_COLS] = d_local @ r_glob.T
        jac[:, :, 26] = rotated / vec[26]
        return jac

    return geometry, jacobian


def forward_kinematics(pose: HandPose) -> HandGeometry:
    """Pose the skeleton with its vector clipped into ``parameter_bounds()``."""
    return fk_with_jacobians(np.clip(pose.as_vector(), *parameter_bounds()))[0]


def center_jacobians(joint_jac, parts):
    """Part-center jacobians from joint jacobians (parts are 1-based ids)."""
    return np.einsum("ck,kdp->cdp", _CENTER_WEIGHTS[np.asarray(parts) - 1],
                     joint_jac)


def sample_jacobians(joint_jac):
    """Surface-sample jacobians from joint jacobians.

    Each sample blends two joints, so this is w_a J[a] + w_b J[b] over
    _SAMPLE_JOINTS and _SAMPLE_BLEND rather than a product with all 21
    _SAMPLE_WEIGHTS columns.  The other 19 products are zeros, which leave
    a sum unchanged except for its sign of zero: the trailing + 0.0 turns
    -0 into +0, as a sum accumulated from +0 does, so for finite joint
    jacobians this equals np.einsum("sk,kdp->sdp", _SAMPLE_WEIGHTS,
    joint_jac) bit for bit.
    """
    jac = joint_jac.take(_SAMPLE_JOINTS[0], axis=0)
    jac *= _SAMPLE_BLEND[0]
    other = joint_jac.take(_SAMPLE_JOINTS[1], axis=0)
    other *= _SAMPLE_BLEND[1]
    jac += other
    jac += 0.0
    return jac
