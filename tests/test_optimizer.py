import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from grasp_eq import hand, optimizer
from grasp_eq.batch import build_batch
from grasp_eq.keypoints import KeypointSet, find_keypoints
from grasp_eq.optimizer import (OptimizationConfig, OptimizationTrace,
                                contact_loss, evaluate_grasp, fit_keypoints,
                                kp_loss, optimize_grasp,
                                penetration_loss, pose_terms, reg_loss,
                                register_global,
                                registration_to_pose, run_pipeline)
from grasp_eq.scene import (CONTACT_RADIUS, ContactState, ObjectModel,
                            contact_likelihood, contact_map_from_hand,
                            nearest_surface, signed_distance)
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


class TestOptimizationConfig:
    @pytest.mark.parametrize("name", [f.name for f in
                                      dataclasses.fields(OptimizationConfig)])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_booleans(self, name, value):
        with pytest.raises(ValueError, match=name):
            OptimizationConfig(**{name: value})


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
        final = kp_loss(hand.forward_kinematics(pose), kps)[0]
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
        stop = trace.stops[2]
        assert (stop.reason, stop.iterations, stop.evaluations) == ("cap", 200, 402)

    def test_stops_on_tol_in_few_evaluations(self):
        for scene in build_batch(4, ("sphere", "box", "cylinder", "plate"),
                                 seed=3):
            obj = generate_scene(scene.spec)
            contacts = generate_contacts(obj, scene.style, seed=scene.spec.seed)
            kps = find_keypoints(obj, contacts)
            ref = hand.forward_kinematics(hand.neutral_grasp_pose())
            pose1 = registration_to_pose(register_global(
                ref.part_centers[np.asarray(kps.parts) - 1], kps.targets))
            trace = OptimizationTrace()
            pose = fit_keypoints(pose1, kps, OptimizationConfig(), trace=trace)
            stop = trace.stops[2]
            assert stop.reason == "tol"
            assert stop.evaluations <= 20
            assert stop.iterations == len(trace.stage_records(2)) - 1
            assert kp_loss(hand.forward_kinematics(pose), kps)[0] < 1e-12


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
        value, _ = contact_loss(geometry, obj, contacts.likelihood)
        state = contact_map_from_hand(obj, geometry.samples,
                                      hand.SAMPLE_PARTS)
        assert 0.0 < state.likelihood.min() < state.likelihood.max() == 1.0
        assert value == np.mean(np.abs(state.likelihood - contacts.likelihood))

    def test_contact_loss_matches_add_at_reference(self, sphere_scene):
        obj, contacts = sphere_scene
        vec, _ = TestPoseTerms.touching(obj)
        geometry, jacobian = hand.fk_with_jacobians(vec)
        jac = jacobian()
        # the loss written with a full euclidean cdist and np.add.at
        d_mat = cdist(obj.points, geometry.samples)
        nearest = np.argmin(d_mat, axis=1)
        d = d_mat[np.arange(obj.n_points), nearest]
        resid = contact_likelihood(d) - contacts.likelihood
        idx = np.flatnonzero((d > CONTACT_RADIUS) & (resid != 0))
        coef = (np.sign(resid[idx]) * (-CONTACT_RADIUS / d[idx] ** 2)
                / obj.n_points)
        unit = (geometry.samples[nearest[idx]] - obj.points[idx]) / d[idx, None]
        pull = np.zeros((hand.N_SAMPLES, 3))
        np.add.at(pull, nearest[idx], coef[:, None] * unit)
        ref_grad = np.einsum("sd,sdp->p", pull, hand.sample_jacobians(jac))
        value, contact_derivatives = contact_loss(geometry, obj,
                                                  contacts.likelihood)
        grad, _ = contact_derivatives(jac)
        assert np.any(d <= 2 * CONTACT_RADIUS) and np.any(ref_grad != 0.0)
        assert value == float(np.mean(np.abs(resid)))
        assert grad.tobytes() == ref_grad.tobytes()

    def test_flat_losses_have_zero_gradient(self, sphere_scene):
        obj, contacts = sphere_scene
        pose = hand.HandPose(translation=[1.0, 0.0, 0.0],
                             angles=hand.neutral_grasp_pose().angles)
        geometry, jacobian = hand.fk_with_jacobians(pose.as_vector())
        value, pene_derivatives = penetration_loss(geometry, obj)
        grad, _ = pene_derivatives(jacobian())
        assert value == 0.0
        assert_allclose(grad, 0.0)


class TestPoseTerms:
    @staticmethod
    def touching(obj):
        vec = hand.HandPose(angles=hand.neutral_grasp_pose().angles).as_vector()
        vec[26] = 1.1
        return vec, keypoints_for((4, 7, 10), obj.points[:3] * 1.2)

    def test_terms_equal_standalone_losses(self, sphere_scene):
        obj, contacts = sphere_scene
        vec, kps = self.touching(obj)
        values, derivatives = pose_terms(vec, kps, obj, contacts.likelihood,
                                         (1.0, 1.0, 1.0, 1.0))
        terms = zip(values, derivatives()[0])
        geometry, jacobian = hand.fk_with_jacobians(vec)
        jac = jacobian()
        standalone = [(value, term(jac)[0]) for value, term in (
            kp_loss(geometry, kps),
            contact_loss(geometry, obj, contacts.likelihood),
            penetration_loss(geometry, obj))] + [reg_loss(vec)]
        for (value, grad), (ref_value, ref_grad) in zip(terms, standalone):
            assert value == ref_value and value > 0.0
            assert np.array_equal(grad, ref_grad)

    def test_zero_weight_terms_read_zero(self, sphere_scene):
        obj, contacts = sphere_scene
        vec, kps = self.touching(obj)
        values, derivatives = pose_terms(vec, kps, obj, contacts.likelihood,
                                         (0.0, 1.0, 0.0, 0.0))
        terms = tuple(zip(values, derivatives()[0]))
        assert terms[1][0] > 0.0
        for k in (0, 2, 3):
            assert terms[k][0] == 0.0
            assert np.array_equal(terms[k][1], np.zeros(hand.N_PARAMS))
        # the keypoint term alone needs neither an object nor a contact target
        values, derivatives = pose_terms(vec, kps, None, None,
                                         (1.0, 0.0, 0.0, 0.0))
        kp_only = tuple(zip(values, derivatives()[0]))
        assert kp_only[0][0] > 0.0
        assert all(value == 0.0 for value, _ in kp_only[1:])
        values, derivatives = pose_terms(vec, None, obj, contacts.likelihood,
                                         (1.0, 1.0, 1.0, 1.0))
        no_kp = tuple(zip(values, derivatives()[0]))
        assert no_kp[0][0] == 0.0
        assert np.array_equal(no_kp[0][1], np.zeros(hand.N_PARAMS))

    def test_stage3_first_record_is_weighted_sum(self, sphere_scene):
        obj, contacts = sphere_scene
        vec, kps = self.touching(obj)
        config = OptimizationConfig(w_kp=3.0, w_c=0.7, w_pene=5.0, w_reg=0.02,
                                    max_iters_stage3=2)
        _, trace = optimize_grasp(hand.HandPose.from_vector(vec), obj,
                                  contacts, kps, config)
        (l_kp, l_c, l_p, l_r), _ = pose_terms(
            vec, kps, obj, contacts.likelihood,
            (config.w_kp, config.w_c, config.w_pene, config.w_reg))
        first = trace.stage_records(3)[0]
        assert (first.kp, first.contact, first.penetration, first.reg) == (
            l_kp, l_c, l_p, l_r)
        assert first.total == (config.w_kp * l_kp + config.w_c * l_c
                               + config.w_pene * l_p + config.w_reg * l_r)


class TestCurvatures:
    @staticmethod
    def hessian_fd(gradient, vec, h=1e-6):
        """Central differences of an analytic gradient, column by column."""
        columns = []
        for k in range(hand.N_PARAMS):
            step = np.zeros(hand.N_PARAMS)
            step[k] = h
            columns.append((gradient(vec + step) - gradient(vec - step))
                           / (2 * h))
        return np.array(columns).T

    def test_keypoint_curvature_is_hessian_at_its_targets(self):
        vec = hand.neutral_grasp_pose().as_vector()
        vec[:3] = (0.2, -0.1, 0.3)
        centers = hand.fk_with_jacobians(vec)[0].part_centers
        # at zero residual the Gauss-Newton curvature is the exact Hessian
        kps = keypoints_for((4, 7, 10), centers[[3, 6, 9]])

        def gradient(v):
            geometry, jacobian = hand.fk_with_jacobians(v)
            return kp_loss(geometry, kps)[1](jacobian())[0]

        geometry, jacobian = hand.fk_with_jacobians(vec)
        _, curvature = kp_loss(geometry, kps)[1](jacobian())
        assert_allclose(curvature, self.hessian_fd(gradient, vec),
                        rtol=0.0, atol=1e-6 * np.abs(curvature).max())

    def test_regularizer_curvature_is_hessian(self, sphere_scene):
        obj, contacts = sphere_scene
        vec, kps = TestPoseTerms.touching(obj)
        curvature = pose_terms(vec, kps, obj, contacts.likelihood,
                               (1.0, 1.0, 1.0, 1.0))[1]()[1][3]
        hessian = self.hessian_fd(lambda v: reg_loss(v)[1], vec)
        assert_allclose(curvature, hessian, rtol=0.0, atol=1e-8)
        assert np.array_equal(np.diag(curvature),
                              np.r_[np.zeros(6), np.full(21, 2.0)])

    def test_irls_curvatures_equal_dense_rows(self, sphere_scene):
        obj, contacts = sphere_scene
        vec, kps = TestPoseTerms.touching(obj)
        geometry, jacobian = hand.fk_with_jacobians(vec)
        jac = jacobian()
        sample_jac = hand.sample_jacobians(jac)
        # contact: one row per object point off its kinks, each with its own
        # 3 x 27 jacobian gathered from its nearest sample
        d_mat = cdist(obj.points, geometry.samples)
        nearest = np.argmin(d_mat, axis=1)
        d = d_mat[np.arange(obj.n_points), nearest]
        resid = contact_likelihood(d) - contacts.likelihood
        idx = np.flatnonzero((d > CONTACT_RADIUS) & (resid != 0))
        unit = (geometry.samples[nearest[idx]] - obj.points[idx]) / d[idx, None]
        rows = (-CONTACT_RADIUS / d[idx, None] ** 2) * np.einsum(
            "nd,ndp->np", unit, sample_jac[nearest[idx]])
        weight = 1.0 / (np.maximum(np.abs(resid[idx]),
                                   optimizer.CONTACT_IRLS_FLOOR)
                        * obj.n_points)
        contact_ref = rows.T @ (weight[:, None] * rows)
        # penetration: one row per sunk sample
        _, near, sd = nearest_surface(obj, geometry.samples)
        sunk = sd < 0
        rows = np.einsum("sd,sdp->sp", obj.normals[near[sunk]],
                         sample_jac[sunk])
        weight = 1.0 / np.maximum(-sd[sunk], optimizer.PENETRATION_IRLS_FLOOR)
        pene_ref = rows.T @ (weight[:, None] * rows)
        assert idx.size > 0 and sunk.any()
        _, contact = contact_loss(geometry, obj, contacts.likelihood)
        _, pene = penetration_loss(geometry, obj)
        for (_, curvature), ref in ((contact(jac), contact_ref),
                                    (pene(jac), pene_ref)):
            assert (np.linalg.norm(curvature - ref)
                    <= 1e-12 * np.linalg.norm(ref))


class TestOptimizeGrasp:
    def test_budget_of_one_reports_cap(self, sphere_scene):
        obj, contacts = sphere_scene
        vec, kps = TestPoseTerms.touching(obj)
        _, trace = optimize_grasp(hand.HandPose.from_vector(vec), obj,
                                  contacts, kps,
                                  OptimizationConfig(max_iters_stage3=1))
        stop = trace.stops[3]
        assert (stop.reason, stop.iterations) == ("cap", 1)
        assert stop.evaluations >= 2 and stop.last_drop > 0.0

    def test_flat_objective_stops_on_tol(self):
        # every object point within CONTACT_RADIUS of a hand sample: the
        # contact term is flat (zero gradient and curvature) at a value > 0
        pose = hand.neutral_grasp_pose()
        tip = hand.forward_kinematics(pose).samples[-1]
        obj = ObjectModel(points=tip + 0.001 * np.eye(3), normals=np.eye(3))
        contacts = ContactState(np.full(3, 0.5), np.zeros(3, dtype=int),
                                np.zeros(3))
        config = OptimizationConfig(w_kp=0.0, w_c=1.0, w_pene=0.0, w_reg=0.0)
        _, trace = optimize_grasp(pose, obj, contacts, None, config)
        assert trace.stage_records(3)[0].contact == 0.5
        stop = trace.stops[3]
        assert (stop.reason, stop.iterations, stop.evaluations) == ("tol", 1, 2)

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
        assert kp_loss(hand.forward_kinematics(pose), kps)[0] < 1e-4

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
        start_pene, _ = penetration_loss(geometry, obj)
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

    def test_probe_set_converges(self):
        for scene in build_batch(8, ("sphere", "box", "cylinder", "plate"),
                                 seed=3):
            obj = generate_scene(scene.spec)
            contacts = generate_contacts(obj, scene.style, seed=scene.spec.seed)
            for use_keypoints in (True, False):
                result = run_pipeline(obj, contacts, OptimizationConfig(),
                                      use_keypoints=use_keypoints)
                assert result.trace.stops[3].reason == "tol"
                if use_keypoints:
                    assert result.report_after.residual < 1.0
                assert result.report_after.max_penetration < 1e-4

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


def _count_jacobian_builds(monkeypatch):
    """Make every fk_with_jacobians call count its jacobian() builds under
    the key held in counts["stage"] (3 unless a test changes it)."""
    counts = {"stage": 3, 2: 0, 3: 0}
    fk_with_jacobians = hand.fk_with_jacobians

    def counted_fk(vec):
        geometry, jacobian = fk_with_jacobians(vec)

        def counted_jacobian():
            counts[counts["stage"]] += 1
            return jacobian()

        return geometry, counted_jacobian

    monkeypatch.setattr(hand, "fk_with_jacobians", counted_fk)
    return counts


class TestSharedDescent:
    def test_no_pose_built_or_clamped_per_evaluation(self, sphere_scene,
                                                     monkeypatch):
        obj, contacts = sphere_scene
        kps = find_keypoints(obj, contacts)
        ref = hand.forward_kinematics(hand.neutral_grasp_pose())
        pose1 = registration_to_pose(register_global(
            ref.part_centers[np.asarray(kps.parts) - 1], kps.targets))
        calls = {"from_vector": 0}
        from_vector = hand.HandPose.__dict__["from_vector"].__func__

        def counted_from_vector(cls, vec):
            calls["from_vector"] += 1
            return from_vector(cls, vec)

        monkeypatch.setattr(hand.HandPose, "from_vector",
                            classmethod(counted_from_vector))
        config = OptimizationConfig()
        trace = OptimizationTrace()
        pose2 = fit_keypoints(pose1, kps, config, trace=trace)
        assert calls == {"from_vector": 1}
        optimize_grasp(pose2, obj, contacts, kps, config, trace=trace)
        assert calls == {"from_vector": 2}
        assert trace.stops[2].evaluations + trace.stops[3].evaluations > 2

    def test_stop_reports_match_traces(self, monkeypatch):
        config = OptimizationConfig()
        caps = {2: config.max_iters_stage2, 3: config.max_iters_stage3}
        builds = _count_jacobian_builds(monkeypatch)
        fit = optimizer.fit_keypoints

        def fit_then_mark_stage3(*args, **kwargs):
            pose = fit(*args, **kwargs)
            builds["stage"] = 3
            return pose

        monkeypatch.setattr(optimizer, "fit_keypoints", fit_then_mark_stage3)
        for scene in build_batch(4, ("sphere", "box", "cylinder", "plate"),
                                 seed=3):
            obj = generate_scene(scene.spec)
            contacts = generate_contacts(obj, scene.style, seed=scene.spec.seed)
            for use_keypoints in (True, False):
                builds.update({"stage": 2 if use_keypoints else 3, 2: 0, 3: 0})
                trace = run_pipeline(obj, contacts, config,
                                     use_keypoints=use_keypoints).trace
                assert sorted(trace.stops) == ([2, 3] if use_keypoints else [3])
                for stage, stop in trace.stops.items():
                    assert stop.iterations == len(trace.stage_records(stage)) - 1
                    assert (stop.reason == "cap") == (stop.iterations == caps[stage])
                    # one jacobian per point that trials are drawn from
                    assert builds[stage] == (stop.iterations
                                             + (stop.reason == "backtrack"))

    def test_rejected_trial_builds_no_jacobian(self, sphere_scene, monkeypatch):
        obj, contacts = sphere_scene
        vec, kps = TestPoseTerms.touching(obj)
        builds = _count_jacobian_builds(monkeypatch)
        # from this deep start the first, least damped trials overshoot, so
        # the only iteration rejects trials before it accepts one
        _, trace = optimize_grasp(hand.HandPose.from_vector(vec), obj,
                                  contacts, kps,
                                  OptimizationConfig(max_iters_stage3=1))
        assert trace.stops[3].evaluations > 2
        assert builds[3] == 1

