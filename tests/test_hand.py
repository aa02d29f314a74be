import numpy as np
import pytest
from numpy.testing import assert_allclose

from grasp_eq import hand
from grasp_eq.hand import (HandPose, fk_with_jacobians, forward_kinematics,
                           neutral_grasp_pose, parameter_bounds, rest_pose,
                           rotation_matrix)


def random_in_limit_pose(rng, with_transform=True):
    angles = np.empty(hand.N_ANGLES)
    for f in range(5):
        angles[4 * f] = rng.uniform(-0.45, 0.45)
        angles[4 * f + 1:4 * f + 4] = rng.uniform(-0.25, 1.7, size=3)
    if with_transform:
        return HandPose(rotation=rng.uniform(-2, 2, 3),
                        translation=rng.uniform(-0.2, 0.2, 3),
                        angles=angles, scale=float(rng.uniform(0.75, 1.25)))
    return HandPose(angles=angles)


class TestRestPose:
    def test_wrist_at_origin(self):
        geometry = forward_kinematics(rest_pose())
        assert_allclose(geometry.joints[0], 0.0)

    def test_zero_pose_matches_table(self):
        geometry = forward_kinematics(rest_pose())
        for f in range(5):
            j0 = hand.finger_base_joint(f)
            assert_allclose(geometry.joints[j0], hand._BASES[f])
            # chain is straight: tip = base + total length * direction
            total = hand._LENGTHS[f].sum()
            assert_allclose(geometry.joints[j0 + 3],
                            hand._BASES[f] + total * hand._DIRS[f], atol=1e-12)

    def test_sample_count_and_radii(self):
        geometry = forward_kinematics(rest_pose())
        assert geometry.samples.shape == (hand.N_SAMPLES, 3)
        palm = hand.SAMPLE_PARTS == hand.PALM_PART
        assert palm.sum() == 5


class TestRigidMotion:
    def test_pure_translation(self):
        shift = np.array([0.1, 0.0, 0.0])
        base = forward_kinematics(rest_pose())
        moved = forward_kinematics(HandPose(translation=shift))
        assert_allclose(moved.joints, base.joints + shift, atol=1e-12)

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(4)
        pose = random_in_limit_pose(rng, with_transform=False)
        base = forward_kinematics(pose)
        omega = np.array([0.4, -0.3, 0.9])
        t = np.array([0.03, -0.02, 0.05])
        moved = forward_kinematics(HandPose(rotation=omega, translation=t,
                                            angles=pose.angles, scale=pose.scale))
        r = rotation_matrix(omega)
        assert_allclose(moved.joints, base.joints @ r.T + t, atol=1e-12)
        assert_allclose(moved.part_centers, base.part_centers @ r.T + t, atol=1e-12)

    def test_scale_multiplies_distances(self):
        base = forward_kinematics(rest_pose())
        scaled = forward_kinematics(HandPose(scale=1.2))
        d0 = np.linalg.norm(base.joints - base.joints[0], axis=1)
        d1 = np.linalg.norm(scaled.joints - scaled.joints[0], axis=1)
        assert_allclose(d1, 1.2 * d0, atol=1e-12)


class TestPartCenters:
    def test_segment_midpoint(self):
        geometry = forward_kinematics(rest_pose())
        j0 = hand.finger_base_joint(1)
        expected = 0.5 * (geometry.joints[j0] + geometry.joints[j0 + 1])
        assert_allclose(geometry.part_centers[5 - 1], expected, atol=1e-12)

    def test_palm_mean_of_six(self):
        geometry = forward_kinematics(rest_pose())
        members = [0] + [hand.finger_base_joint(f) for f in range(5)]
        assert_allclose(geometry.part_centers[1 - 1],
                        geometry.joints[members].mean(axis=0), atol=1e-12)

    def test_continuity(self):
        rng = np.random.default_rng(5)
        pose = random_in_limit_pose(rng)
        base = forward_kinematics(pose).part_centers
        bumped = HandPose(rotation=pose.rotation, translation=pose.translation,
                          angles=pose.angles + 1e-6, scale=pose.scale)
        moved = forward_kinematics(bumped).part_centers
        assert np.max(np.linalg.norm(moved - base, axis=1)) < 1e-5


class TestClamping:
    def test_out_of_limit_flagged(self):
        # An out-of-limit pose poses exactly as its clipped vector does.
        angles = np.zeros(hand.N_ANGLES)
        angles[0] = 2.0  # abduction limit is 0.5
        geometry = forward_kinematics(HandPose(angles=angles))
        angles[0] = 0.5
        clipped = forward_kinematics(HandPose(angles=angles))
        for name in ("joints", "part_centers", "samples"):
            assert np.array_equal(getattr(geometry, name), getattr(clipped, name))

    def test_in_limit_not_flagged(self):
        # An in-limit pose is left as it is: no joint moves under the clip.
        lo, hi = parameter_bounds()
        vec = neutral_grasp_pose().as_vector()
        assert np.all((vec >= lo) & (vec <= hi))
        geometry = forward_kinematics(neutral_grasp_pose())
        unclipped, _ = fk_with_jacobians(vec)
        for name in ("joints", "part_centers", "samples"):
            assert np.array_equal(getattr(geometry, name), getattr(unclipped, name))

    def test_bounds_vector(self):
        lo, hi = parameter_bounds()
        assert np.all(np.isinf(lo[:6])) and np.all(np.isinf(hi[:6]))
        assert lo[6] == -0.5 and hi[6] == 0.5
        assert lo[7] == -0.3 and hi[7] == 1.8
        assert (lo[26], hi[26]) == (0.7, 1.3)
        lo2, hi2 = parameter_bounds(lock_scale=1.05)
        assert lo2[26] == hi2[26] == 1.05

    def test_clamp_matches_bounds(self):
        lo, hi = parameter_bounds()
        rng = np.random.default_rng(4)
        for _ in range(20):
            vec = rng.uniform(-3.0, 3.0, hand.N_PARAMS)
            vec[26] = rng.uniform(0.2, 2.0)
            geometry = forward_kinematics(HandPose.from_vector(vec))
            expected, _ = fk_with_jacobians(np.clip(vec, lo, hi))
            assert np.array_equal(geometry.joints, expected.joints)


class TestBoundingSphere:
    def test_samples_within_quarter_meter(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pose = random_in_limit_pose(rng)
            geometry = forward_kinematics(pose)
            wrist = geometry.joints[0]
            radius = np.linalg.norm(geometry.samples - wrist, axis=1).max()
            assert radius <= 0.25 * pose.scale


class TestJacobians:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(5):
            pose = random_in_limit_pose(rng)
            jac = fk_with_jacobians(pose.as_vector())[1]()
            vec = pose.as_vector()
            for k in range(hand.N_PARAMS):
                step = np.zeros(hand.N_PARAMS)
                step[k] = h
                up = forward_kinematics(HandPose.from_vector(vec + step)).joints
                dn = forward_kinematics(HandPose.from_vector(vec - step)).joints
                fd = (up - dn) / (2 * h)
                assert np.max(np.abs(fd - jac[:, :, k])) < 1e-6

    def test_zero_rotation_branch(self):
        pose = neutral_grasp_pose()
        jac = fk_with_jacobians(pose.as_vector())[1]()
        h = 1e-7
        vec = pose.as_vector()
        for k in range(3):
            step = np.zeros(hand.N_PARAMS)
            step[k] = h
            up = forward_kinematics(HandPose.from_vector(vec + step)).joints
            dn = forward_kinematics(HandPose.from_vector(vec - step)).joints
            fd = (up - dn) / (2 * h)
            assert np.max(np.abs(fd - jac[:, :, k])) < 1e-6

    def test_affine_tables_consistent(self):
        rng = np.random.default_rng(8)
        pose = random_in_limit_pose(rng)
        geometry, jacobian = fk_with_jacobians(pose.as_vector())
        jac = jacobian()
        assert_allclose(hand._CENTER_WEIGHTS @ geometry.joints,
                        geometry.part_centers, atol=1e-12)
        centers = hand.center_jacobians(jac, range(1, 17))
        assert centers.shape == (16, 3, 27)
        samples = hand.sample_jacobians(jac)
        assert samples.shape == (hand.N_SAMPLES, 3, 27)

    def test_sample_jacobians_equal_the_weight_product_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            if trial % 2:  # the joint jacobian of a pose
                jac = fk_with_jacobians(
                    random_in_limit_pose(rng).as_vector())[1]()
            else:  # any finite values, signed zeros among them
                jac = (rng.normal(size=(hand.N_JOINTS, 3, hand.N_PARAMS))
                       * 10.0 ** rng.integers(-300, 300, size=(
                           hand.N_JOINTS, 3, hand.N_PARAMS)))
                jac[rng.random(jac.shape) < 0.3] = -0.0
                jac[rng.random(jac.shape) < 0.1] = 0.0
            ref = np.einsum("sk,kdp->sdp", hand._SAMPLE_WEIGHTS, jac)
            assert hand.sample_jacobians(jac).tobytes() == ref.tobytes()


def _ref_axis_rotation(axis, angle):
    k = hand._skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _ref_fk_with_jacobians(pose):
    """Per-finger, per-joint loop formulation of fk_with_jacobians."""
    s = pose.scale
    local = np.zeros((hand.N_JOINTS, 3))
    axes = np.zeros((5, 4, 3))
    pivots = np.zeros((5, 4, 3))
    for f in range(5):
        abd, fl1, fl2, fl3 = pose.angles[4 * f:4 * f + 4]
        base = hand._BASES[f] * s
        u = hand._DIRS[f]
        a = hand._FLEX_AXES[f]
        r_abd = _ref_axis_rotation(hand._Z, abd)
        r1 = r_abd @ _ref_axis_rotation(a, fl1)
        r2 = r1 @ _ref_axis_rotation(a, fl2)
        r3 = r2 @ _ref_axis_rotation(a, fl3)
        j0 = hand.finger_base_joint(f)
        local[j0] = base
        local[j0 + 1] = local[j0] + r1 @ (u * hand._LENGTHS[f, 0] * s)
        local[j0 + 2] = local[j0 + 1] + r2 @ (u * hand._LENGTHS[f, 1] * s)
        local[j0 + 3] = local[j0 + 2] + r3 @ (u * hand._LENGTHS[f, 2] * s)
        axes[f] = [hand._Z, r_abd @ a, r1 @ a, r2 @ a]
        pivots[f] = [base, base, local[j0 + 1], local[j0 + 2]]
    omega = pose.rotation
    r_glob = rotation_matrix(omega)
    rotated = local @ r_glob.T
    jac = np.zeros((hand.N_JOINTS, 3, hand.N_PARAMS))
    theta_sq = float(omega @ omega)
    for i in range(hand.N_JOINTS):
        if theta_sq < 1e-16:
            jac[i, :, 0:3] = -hand._skew(rotated[i])
            continue
        for j in range(3):
            col_mat = (omega[j] * hand._skew(omega)
                       + hand._skew(np.cross(omega, (np.eye(3) - r_glob)[:, j]))) / theta_sq
            jac[i, :, j] = col_mat @ rotated[i]
    jac[:, :, 3:6] = np.eye(3)
    for f in range(5):
        j0 = hand.finger_base_joint(f)
        for k in range(4):
            downstream = np.arange(max(j0 + k, j0 + 1), j0 + 4)
            d_local = np.cross(axes[f, k], local[downstream] - pivots[f, k])
            jac[downstream, :, 6 + 4 * f + k] = d_local @ r_glob.T
    jac[:, :, 26] = (local / s) @ r_glob.T
    return rotated + pose.translation, jac


class TestArrayKinematics:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(10)
        for n in range(60):
            pose = random_in_limit_pose(rng)
            if n % 3 == 0:  # the zero-rotation branch of the rotation columns
                pose = HandPose(translation=pose.translation, angles=pose.angles,
                                scale=pose.scale)
            assert pose.scale != 1.0
            geometry, jacobian = fk_with_jacobians(pose.as_vector())
            jac = jacobian()
            joints, ref_jac = _ref_fk_with_jacobians(pose)
            assert np.max(np.abs(geometry.joints - joints)) <= 1e-14
            assert np.max(np.abs(jac - ref_jac)) <= 1e-14

    def test_forward_kinematics_matches_jacobian_path(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pose = random_in_limit_pose(rng)
            assert np.array_equal(forward_kinematics(pose).joints,
                                  fk_with_jacobians(pose.as_vector())[0].joints)


class TestPoseVector:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        pose = random_in_limit_pose(rng)
        again = HandPose.from_vector(pose.as_vector())
        assert_allclose(again.rotation, pose.rotation)
        assert_allclose(again.angles, pose.angles)
        assert again.scale == pose.scale

    def test_validation(self):
        with pytest.raises(ValueError):
            HandPose(angles=np.zeros(19))
        with pytest.raises(ValueError):
            HandPose(scale=-1.0)


class TestCross:
    def test_matches_np_cross_bit_for_bit(self):
        rng = np.random.default_rng(22)
        shapes = [((3,), (3,)), ((7, 3), (7, 3)), ((5, 3), (3, 5, 3)),
                  ((4, 1, 3), (6, 3)), ((3,), (2, 4, 3))]
        signed_zeros = 0
        for trial in range(60):
            a_shape, b_shape = shapes[trial % len(shapes)]
            a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
            if trial % 2:
                # small integers: products cancel exactly, and the rounding
                # leaves signed zeros in the inputs
                a, b = np.round(2.0 * a), np.round(2.0 * b)
            want = np.cross(a, b)
            got = hand._cross(a, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            signed_zeros += np.signbit(want[want == 0.0]).any()
        assert signed_zeros >= 10
