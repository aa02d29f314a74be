import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from grasp_eq import hand
from grasp_eq.keypoints import KeypointSet
from grasp_eq.optimizer import (OptimizationConfig, OptimizationTrace,
                                contact_loss, evaluate_grasp, fit_keypoints,
                                kp_loss, optimize_grasp,
                                penetration_loss, reg_loss, register_global,
                                registration_to_pose, run_pipeline)
from grasp_eq.scene import contact_map_from_hand, signed_distance
from grasp_eq.synth import SyntheticScene, generate_contacts, generate_scene

from conftest import sphere_object


def keypoints_for(parts, targets):
    targets = np.asarray(targets, dtype=float)
    k = len(parts)
    return KeypointSet(parts=tuple(parts), centers=targets.copy(),
                       forces=np.ones(k), normals=np.tile([0.0, 0.0, 1.0], (k, 1)),
                       targets=targets, energy=0.0)


@pytest.fixture(scope="module")
def sphere_scene():
    spec = SyntheticScene(shape="sphere", dimensions=(0.05,), sample_count=2048,
                          seed=7)
    obj = generate_scene(spec)
    contacts = generate_contacts(obj, "tripod", seed=7)
    return obj, contacts


class TestRegisterGlobal:
    def test_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.1, 0.1, (5, 3))
        reg = register_global(pts, pts)
        assert_allclose(reg.rotation, np.eye(3), atol=1e-12)
        assert_allclose(reg.translation, 0.0, atol=1e-12)
        assert reg.residual == pytest.approx(0.0, abs=1e-15)

    def test_exact_recovery(self):
        rng = np.random.default_rng(1)
        for seed in range(50):
            k = int(rng.integers(3, 9))
            src = rng.uniform(-0.1, 0.1, (k, 3))
            rot = Rotation.random(random_state=seed).as_matrix()
            t = rng.uniform(-0.5, 0.5, 3)
            reg = register_global(src, src @ rot.T + t)
            assert np.linalg.norm(reg.rotation - rot) < 1e-9
            assert np.linalg.norm(reg.translation - t) < 1e-9
            assert reg.residual < 1e-12
            assert not reg.degenerate

    def test_noisy_recovery(self):
        rng = np.random.default_rng(2)
        sigma = 0.001
        for seed in range(100):
            src = rng.uniform(-0.05, 0.05, (3, 3))
            spread = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
            if spread[1] < 0.03:  # keep triangles well conditioned
                continue
            noise = rng.normal(scale=sigma, size=(3, 3))
            reg = register_global(src, src + noise)
            assert reg.residual <= 10 * 3 * sigma ** 2
            angle = np.linalg.norm(Rotation.from_matrix(reg.rotation).as_rotvec())
            assert np.degrees(angle) < 5.0

    def test_translation_fallback(self):
        src = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        dst = src + [0.0, 0.2, 0.0]
        reg = register_global(src, dst)
        assert reg.degenerate
        assert_allclose(reg.rotation, np.eye(3))
        assert_allclose(reg.translation, [0.0, 0.2, 0.0], atol=1e-12)

    def test_collinear_flagged_minimal_twist(self):
        src = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.10, 0.0, 0.0]])
        dst = src + [0.0, 0.1, 0.0]
        reg = register_global(src, dst)
        assert reg.degenerate
        # targets are a pure translation of the sources: the smallest-angle
        # solution is the identity rotation
        assert_allclose(reg.rotation, np.eye(3), atol=1e-9)
        assert reg.residual == pytest.approx(0.0, abs=1e-15)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            register_global(np.zeros((3, 3)), np.zeros((4, 3)))


class TestFitKeypoints:
    def test_already_at_targets(self):
        pose0 = hand.neutral_grasp_pose()
        geometry = hand.forward_kinematics(pose0)
        kps = keypoints_for((4, 7, 10), geometry.part_centers[[3, 6, 9]])
        pose = fit_keypoints(pose0, kps, OptimizationConfig())
        assert_allclose(pose.as_vector(), pose0.as_vector(), atol=1e-12)

    def test_recovers_reachable_targets(self):
        rng = np.random.default_rng(5)
        angles = hand.neutral_grasp_pose().angles.copy()
        angles[5:8] += 0.3  # bend the index differently
        hidden = hand.HandPose(rotation=[0.1, -0.2, 0.3],
                               translation=[0.02, 0.01, -0.03], angles=angles)
        targets = hand.forward_kinematics(hidden).part_centers[[3, 6, 9]]
        kps = keypoints_for((4, 7, 10), targets)
        start = hand.forward_kinematics(hand.neutral_grasp_pose()).part_centers[[3, 6, 9]]
        reg = register_global(start, targets)
        pose1 = registration_to_pose(reg)
        trace = OptimizationTrace()
        pose = fit_keypoints(pose1, kps, OptimizationConfig(max_iters_stage2=800),
                             trace=trace)
        final = kp_loss(hand.forward_kinematics(pose), None, kps)[0]
        assert final < 1e-6

    def test_unreachable_targets_monotone(self):
        targets = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        kps = keypoints_for((4, 7, 10), targets)
        trace = OptimizationTrace()
        fit_keypoints(hand.neutral_grasp_pose(), kps, OptimizationConfig(),
                      trace=trace)
        totals = [r.total for r in trace.stage_records(2)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        assert totals[-1] > 0.1


class TestGradients:
    def test_stage3_terms_match_finite_differences(self, sphere_scene):
        obj, contacts = sphere_scene
        from grasp_eq.gradcheck import check_pose_gradients
        rng = np.random.default_rng(11)
        checked = 0
        worst = 0.0
        attempts = 0
        while checked < 10 and attempts < 200:
            attempts += 1
            ok, err = check_pose_gradients(rng, obj, contacts)
            if ok:
                checked += 1
                worst = max(worst, err)
        assert checked == 10
        assert worst <= 1e-3

    def test_reg_loss_gradient(self):
        vec = hand.neutral_grasp_pose().as_vector()
        vec[26] = 1.1
        value, grad = reg_loss(vec)
        assert value == pytest.approx(float(vec[6:26] @ vec[6:26]) + 0.01)
        h = 1e-7
        for k in (6, 15, 26):
            step = np.zeros(27)
            step[k] = h
            fd = (reg_loss(vec + step)[0] - reg_loss(vec - step)[0]) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-6)

    def test_contact_loss_matches_contact_map(self, sphere_scene):
        obj, contacts = sphere_scene
        pose = hand.HandPose(angles=hand.neutral_grasp_pose().angles)  # at origin
        geometry = hand.forward_kinematics(pose)
        value, _ = contact_loss(geometry, None, obj, contacts.likelihood)
        state = contact_map_from_hand(obj, geometry.samples,
                                      geometry.sample_parts)
        assert 0.0 < state.likelihood.min() < state.likelihood.max() == 1.0
        assert value == np.mean(np.abs(state.likelihood - contacts.likelihood))

    def test_flat_losses_have_zero_gradient(self, sphere_scene):
        obj, contacts = sphere_scene
        pose = hand.HandPose(translation=[1.0, 0.0, 0.0],
                             angles=hand.neutral_grasp_pose().angles)
        geometry, jac = hand.fk_with_jacobians(pose)
        value, grad = penetration_loss(geometry, jac, obj)
        assert value == 0.0
        assert_allclose(grad, 0.0)


class TestOptimizeGrasp:
    def test_regularizer_only_pull(self, sphere_scene):
        obj, contacts = sphere_scene
        pose0 = hand.neutral_grasp_pose()
        geometry = hand.forward_kinematics(pose0)
        kps = keypoints_for((4, 7, 10), geometry.part_centers[[3, 6, 9]])
        config = OptimizationConfig(w_c=0.0, w_pene=0.0, max_iters_stage3=50)
        pose, trace = optimize_grasp(pose0, obj, contacts, kps, config)
        totals = [r.total for r in trace.stage_records(3)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        # regularizer pulls angles slightly toward zero, keypoints hold
        assert np.linalg.norm(pose.angles) <= np.linalg.norm(pose0.angles)
        assert kp_loss(hand.forward_kinematics(pose), None, kps)[0] < 1e-4

    def test_monotone_trace(self, sphere_scene):
        obj, contacts = sphere_scene
        result = run_pipeline(obj, contacts, OptimizationConfig())
        for stage in (2, 3):
            totals = [r.total for r in result.trace.stage_records(stage)]
            assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_penetration_decreases_from_intersecting_start(self, sphere_scene):
        obj, contacts = sphere_scene
        pose0 = hand.HandPose(angles=hand.neutral_grasp_pose().angles)  # at origin
        geometry = hand.forward_kinematics(pose0)
        start_pene, _ = penetration_loss(geometry, None, obj)
        assert start_pene > 0.01
        config = OptimizationConfig(w_kp=0.0)
        pose, trace = optimize_grasp(pose0, obj, contacts, None, config)
        end_pene = trace.stage_records(3)[-1].penetration
        assert end_pene <= 0.1 * start_pene

    def test_deterministic(self, sphere_scene):
        obj, contacts = sphere_scene
        config = OptimizationConfig(max_iters_stage2=40, max_iters_stage3=40)
        a = run_pipeline(obj, contacts, config)
        b = run_pipeline(obj, contacts, config)
        assert_allclose(a.pose_stage3.as_vector(), b.pose_stage3.as_vector(),
                        atol=0.0)
        ra = [(r.stage, r.iteration, r.total) for r in a.trace.records]
        rb = [(r.stage, r.iteration, r.total) for r in b.trace.records]
        assert ra == rb


class TestEvaluateGrasp:
    def test_no_contacts(self, small_sphere):
        pose = hand.HandPose(translation=[1.0, 0.0, 0.0])
        report = evaluate_grasp(pose, small_sphere)
        assert report.contact_count == 0
        assert report.residual == pytest.approx(96.2361, abs=1e-9)
        assert report.max_penetration == 0.0

    def test_bottom_support_touch(self):
        # sphere cloud with one exact bottom point; the fingertip sample set
        # touches only there, giving a single perfect support contact
        rng = np.random.default_rng(0)
        v = rng.normal(size=(64, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v = v[v[:, 2] > -0.6]
        from grasp_eq.scene import ObjectModel
        points = np.vstack([0.05 * v, [[0.0, 0.0, -0.05]]])
        normals = np.vstack([v, [[0.0, 0.0, -1.0]]])
        obj = ObjectModel(points=points, normals=normals, com=np.zeros(3))
        geometry = hand.forward_kinematics(hand.HandPose())
        tip_sample = geometry.samples[np.argmax(geometry.samples[:, 1])]
        pose = hand.HandPose(translation=np.array([0.0, 0.0, -0.05]) - tip_sample)
        report = evaluate_grasp(pose, obj)
        assert report.contact_count == 1
        assert report.residual == pytest.approx(0.0, abs=1e-6)

    def test_depth_is_deepest_sample_signed_distance(self, sphere_scene):
        obj, _ = sphere_scene
        pose = hand.HandPose(angles=hand.neutral_grasp_pose().angles)  # at origin
        report = evaluate_grasp(pose, obj)
        sd = signed_distance(obj, hand.forward_kinematics(pose).samples)
        assert report.max_penetration > 0.0
        assert report.max_penetration == max(0.0, float(-sd.min()))

    def test_tripod_regression(self, sphere_scene):
        obj, contacts = sphere_scene
        result = run_pipeline(obj, contacts, OptimizationConfig())
        assert result.report_after.residual < 1e-3


class TestPipeline:
    def test_improvement_property(self):
        for shape, dims, style, seed in (("sphere", (0.05,), "tripod", 3),
                                         ("box", (0.09, 0.09, 0.09), "tripod", 4),
                                         ("plate", (0.12, 0.12, 0.012), "tripod", 6)):
            spec = SyntheticScene(shape=shape, dimensions=dims,
                                  sample_count=2048, seed=seed)
            obj = generate_scene(spec)
            contacts = generate_contacts(obj, style, seed=seed)
            result = run_pipeline(obj, contacts, OptimizationConfig())
            before = result.report_before.residual
            after = result.report_after.residual
            assert after <= before + 1e-6
            if before > 1e-3:
                assert after < before

    def test_registration_beats_random_transforms(self, sphere_scene):
        obj, contacts = sphere_scene
        result = run_pipeline(obj, contacts, OptimizationConfig(
            max_iters_stage2=1, max_iters_stage3=1))
        kps = result.keypoints
        ref = hand.forward_kinematics(hand.neutral_grasp_pose())
        src = ref.part_centers[np.asarray(kps.parts) - 1]
        best = result.registration.residual
        rng = np.random.default_rng(0)
        for seed in range(1000):
            rot = Rotation.random(random_state=seed).as_matrix()
            t = rng.uniform(-0.2, 0.2, 3)
            residual = float(np.sum((kps.targets - (src @ rot.T + t)) ** 2))
            assert best <= residual + 1e-12

    def test_trace_snapshots(self, sphere_scene):
        obj, contacts = sphere_scene
        config = OptimizationConfig(max_iters_stage2=30, max_iters_stage3=30,
                                    snapshot_interval=10)
        result = run_pipeline(obj, contacts, config)
        assert len(result.trace.snapshots) >= 2
        stage, iteration, pose = result.trace.snapshots[0]
        assert isinstance(pose, hand.HandPose)
