import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import nnls
from scipy.spatial.transform import Rotation

from grasp_eq.equilibrium import (QP_TOL, assemble,
                                  assemble_from_contact_state, loss_gradient,
                                  solve_force_existence, stability_energy,
                                  stability_loss, stability_loss_masked)
from grasp_eq.errors import InvalidNormal, ShapeError, SolverError
from grasp_eq.keypoints import cluster_contacts, select_clusters
from grasp_eq.scene import ContactState, tangent_bases
from grasp_eq.synth import SyntheticScene, generate_contacts, generate_scene

from conftest import (energy_matrices, grid_energy_coordinate,
                      grid_energy_zoomed, random_contacts, sphere_object)

BOTTOM_P = np.array([[0.0, 0.0, -0.05]])
BOTTOM_N = np.array([[0.0, 0.0, -1.0]])
PINCH_P = np.array([[0.05, 0.0, 0.0], [-0.05, 0.0, 0.0]])
PINCH_N = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


class TestAssemble:
    def test_zero_contacts(self, small_sphere):
        sys = assemble(small_sphere, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert sys.n_mat.shape == (6, 0)
        assert_allclose(sys.acceleration(np.zeros(0), np.zeros(0)),
                        [0.0, 0.0, -9.81, 0.0, 0.0, 0.0])

    def test_bottom_support_columns(self, small_sphere):
        sys = assemble(small_sphere, BOTTOM_P, BOTTOM_N, [9.81])
        # normal columns carry the inward pressing direction -n / m
        assert_allclose(sys.n_mat[:3, 0], [0.0, 0.0, 1.0], atol=1e-12)
        assert_allclose(sys.n_mat[3:, 0], 0.0, atol=1e-12)

    def test_off_axis_torque_column(self, small_sphere):
        sys = assemble(small_sphere, [[0.05, 0.0, 0.0]], [[0.0, 0.0, -1.0]], [1.0])
        # -(p - com) x n / I with I = 0.001
        assert_allclose(sys.n_mat[3:, 0], [0.0, -50.0, 0.0], atol=1e-9)

    def test_rejects_non_unit_normal(self, small_sphere):
        with pytest.raises(InvalidNormal):
            assemble(small_sphere, BOTTOM_P, [[0.0, 0.0, -0.9]], [1.0])

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1.0,
                                    True, False])
    def test_rejects_bad_friction_coefficient(self, small_sphere, mu):
        with pytest.raises(ValueError, match="friction"):
            assemble(small_sphere, BOTTOM_P, BOTTOM_N, [9.81], mu=mu)

    def test_force_linearity(self, small_sphere):
        sys1 = assemble(small_sphere, PINCH_P, PINCH_N, [2.0, 3.0])
        sys2 = assemble(small_sphere, PINCH_P, PINCH_N, [4.0, 6.0])
        zero = np.zeros(2)
        a1 = sys1.acceleration(zero, zero) - sys1.gravity6
        a2 = sys2.acceleration(zero, zero) - sys2.gravity6
        assert_allclose(a2, 2.0 * a1, atol=1e-12)


class TestStabilityEnergy:
    def test_free_fall(self, small_sphere):
        sys = assemble(small_sphere, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert stability_energy(sys).energy == pytest.approx(96.2361, abs=1e-9)

    def test_bottom_support(self, small_sphere):
        sys = assemble(small_sphere, BOTTOM_P, BOTTOM_N, [9.81])
        result = stability_energy(sys)
        assert result.energy == pytest.approx(0.0, abs=1e-8)
        assert_allclose(result.gamma, 0.0, atol=1e-9)
        assert_allclose(result.delta, 0.0, atol=1e-9)

    def test_side_pinch_underpowered(self, small_sphere):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [4.0, 4.0])
        assert stability_energy(sys).energy == pytest.approx(3.2761, abs=1e-4)

    def test_side_pinch_balanced(self, small_sphere):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [4.905, 4.905])
        assert stability_energy(sys).energy == pytest.approx(0.0, abs=1e-6)

    def test_result_invariants(self, small_sphere):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts, dirs, forces = random_contacts(rng, small_sphere, int(rng.integers(1, 4)))
            sys = assemble(small_sphere, pts, dirs, forces)
            res = stability_energy(sys)
            accel = sys.acceleration(res.gamma, res.delta)
            assert_allclose(accel, res.accel, atol=1e-9)
            assert res.energy == pytest.approx(float(accel @ accel), abs=1e-9)
            assert np.all(np.abs(res.gamma) <= 1.0 + 1e-12)
            assert np.all(np.abs(res.delta) <= 1.0 + 1e-12)

    def test_beats_coordinate_grid_oracle(self, small_sphere):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            pts, dirs, forces = random_contacts(rng, small_sphere, n)
            sys = assemble(small_sphere, pts, dirs, forces)
            energy = stability_energy(sys).energy
            oracle, _ = grid_energy_coordinate(sys, step=0.02)
            assert energy <= oracle + 1e-3

    def test_matches_zoomed_enumeration_single_contact(self, small_sphere):
        rng = np.random.default_rng(34)
        for _ in range(10):
            pts, dirs, forces = random_contacts(rng, small_sphere, 1)
            sys = assemble(small_sphere, pts, dirs, forces)
            energy = stability_energy(sys).energy
            oracle, _ = grid_energy_zoomed(sys, step=0.02)
            assert energy == pytest.approx(oracle, abs=1e-3)

    def test_rotation_invariance_with_corotated_bases(self, small_sphere):
        rng = np.random.default_rng(8)
        pts, dirs, forces = random_contacts(rng, small_sphere, 3)
        b, t = tangent_bases(dirs)
        sys = assemble(small_sphere, pts, dirs, forces, bases=(b, t))
        base_energy = stability_energy(sys).energy
        for seed in range(5):
            rot = Rotation.random(random_state=seed).as_matrix()
            rotated = sphere_object()
            sys_rot = assemble(rotated, pts @ rot.T, dirs @ rot.T, forces,
                               gravity=rot @ np.array([0.0, 0.0, -9.81]),
                               bases=(b @ rot.T, t @ rot.T))
            assert stability_energy(sys_rot).energy == pytest.approx(
                base_energy, abs=1e-6)

    def test_zero_forces(self, small_sphere):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [0.0, 0.0])
        assert stability_energy(sys).energy == pytest.approx(96.2361, abs=1e-9)

    @pytest.mark.parametrize("mu", [5e-324, 1e-310])
    def test_subnormal_friction_acts_as_none(self, small_sphere, mu):
        # friction columns this small make the least-squares step overflow
        pts, dirs, forces = random_contacts(np.random.default_rng(0),
                                            small_sphere, 3)
        frictionless = stability_energy(
            assemble(small_sphere, pts, dirs, forces, mu=0.0)).energy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy = stability_energy(
                assemble(small_sphere, pts, dirs, forces, mu=mu)).energy
        assert energy == pytest.approx(frictionless, abs=QP_TOL)

    def test_solver_error_carries_best(self, small_sphere):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [4.905, 4.905])
        with pytest.raises(SolverError) as info:
            stability_energy(sys, tol=0.0, max_iter=1)
        assert info.value.result is not None
        assert info.value.result.energy >= 0.0

    def test_rank_deficient_triple_matches_active_pattern_enumeration(self):
        # acceptance 7's trial 10: the box triple on parts (8, 10, 16) has a
        # 6 x 6 friction matrix with a smallest singular value near 4e-15
        rng = np.random.default_rng(707)
        for _ in range(11):
            n_patches = int(rng.integers(4, 9))
        obj = generate_scene(SyntheticScene("box", (0.09, 0.09, 0.09), 1024,
                                            seed=10))
        contacts = generate_contacts(obj, "random", seed=10,
                                     n_patches=n_patches)
        reps = select_clusters(cluster_contacts(obj, contacts), obj)
        triple = [reps[p] for p in (8, 10, 16)]
        sys = assemble(obj, np.array([c.center for c in triple]),
                       np.array([c.normal for c in triple]),
                       np.array([c.force for c in triple]))
        energy = stability_energy(sys).energy
        # every coordinate at -1, at +1 or free; the minimum lies on a face
        # whose free columns are independent, where lstsq is exact
        mat, const = energy_matrices(sys)
        oracle = np.inf
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=6):
            x = np.array(pattern)
            free = x == 0.0
            if free.any():
                sol, *_ = np.linalg.lstsq(mat[:, free], -(mat @ x + const),
                                          rcond=None)
                if np.any(np.abs(sol) > 1.0 + 1e-9):
                    continue
                x[free] = np.clip(sol, -1.0, 1.0)
            resid = mat @ x + const
            oracle = min(oracle, float(resid @ resid))
        assert energy == pytest.approx(oracle, abs=1e-9)


class TestStabilityLoss:
    def test_bottom_support_zero(self, small_sphere):
        sys = assemble(small_sphere, BOTTOM_P, BOTTOM_N, [9.81])
        assert stability_loss(sys) == pytest.approx(0.0, abs=1e-12)

    def test_zero_contacts(self, small_sphere):
        sys = assemble(small_sphere, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert stability_loss(sys) == pytest.approx(9.81, abs=1e-12)

    def test_underpowered_pinch(self, small_sphere):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [4.0, 4.0])
        assert stability_loss(sys) == pytest.approx(1.81, abs=1e-9)

    def test_necessity(self, small_sphere):
        rng = np.random.default_rng(77)
        seen_zero = 0
        for _ in range(100):
            style = rng.integers(0, 3)
            if style == 0:
                pts, dirs, forces = random_contacts(rng, small_sphere, int(rng.integers(1, 4)))
            elif style == 1:
                pts, dirs, forces = BOTTOM_P, BOTTOM_N, np.array([9.81])
            else:
                pts, dirs, _ = random_contacts(rng, small_sphere, 4)
                sol = solve_force_existence(small_sphere, pts, dirs)
                forces = sol.forces
            sys = assemble(small_sphere, pts, dirs, forces)
            try:
                energy = stability_energy(sys).energy
            except SolverError as err:
                energy = err.result.energy
            if energy < 1e-6:
                seen_zero += 1
                assert stability_loss(sys) < 1e-6
        assert seen_zero > 10

    def test_convex_piecewise_linear_in_force(self, small_sphere):
        rng = np.random.default_rng(13)
        pts, dirs, _ = random_contacts(rng, small_sphere, 3)
        sys = assemble(small_sphere, pts, dirs, np.zeros(3))
        ones = np.ones(3)
        for _ in range(20):
            f1 = rng.uniform(0, 5, 3)
            f2 = rng.uniform(0, 5, 3)
            lam = float(rng.uniform())
            lhs = stability_loss_masked(sys, lam * f1 + (1 - lam) * f2, ones)
            rhs = (lam * stability_loss_masked(sys, f1, ones)
                   + (1 - lam) * stability_loss_masked(sys, f2, ones))
            assert lhs <= rhs + 1e-9


class TestMaskedLoss:
    def test_identity_mask(self, small_sphere):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [4.0, 4.0])
        assert stability_loss_masked(sys, sys.forces, np.ones(2)) == pytest.approx(
            stability_loss(sys))

    def test_annihilating_mask(self, small_sphere):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [4.0, 4.0])
        assert stability_loss_masked(sys, sys.forces, np.zeros(2)) == pytest.approx(9.81)

    def test_half_likelihood_doubled_force(self, small_sphere):
        sys = assemble(small_sphere, BOTTOM_P, BOTTOM_N, [19.62])
        assert stability_loss_masked(sys, np.array([19.62]), np.array([0.5])) == pytest.approx(
            0.0, abs=1e-12)

    def test_shape_error(self, small_sphere):
        sys = assemble(small_sphere, BOTTOM_P, BOTTOM_N, [1.0])
        with pytest.raises(ShapeError):
            stability_loss_masked(sys, np.ones(2), np.ones(2))


class TestLossGradient:
    def test_empty_system(self, small_sphere):
        sys = assemble(small_sphere, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert loss_gradient(sys, np.zeros(0), np.zeros(0)).shape == (0,)

    def test_bottom_underpowered_gradient_negative(self, small_sphere):
        sys = assemble(small_sphere, BOTTOM_P, BOTTOM_N, [9.0])
        grad = loss_gradient(sys, np.array([9.0]), np.array([1.0]))
        assert grad[0] < 0.0

    def test_flat_region_zero_gradient(self, small_sphere):
        # generous forces keep 0 strictly inside every interval
        pts = np.array([[0.0, 0.0, -0.05], [0.0, 0.05, 0.0], [0.0, -0.05, 0.0]])
        dirs = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        sys = assemble(small_sphere, pts, dirs, [9.81, 5.0, 5.0])
        grad = loss_gradient(sys, sys.forces, np.ones(3))
        assert stability_loss(sys) == 0.0
        assert_allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, small_sphere):
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 25:
            pts, dirs, _ = random_contacts(rng, small_sphere, int(rng.integers(1, 4)))
            n = len(pts)
            sys = assemble(small_sphere, pts, dirs, np.zeros(n))
            force_map = rng.uniform(0.0, 4.0, n)
            likelihood = rng.uniform(0.1, 1.0, n)
            from grasp_eq.equilibrium import _interval_bounds
            lower, upper, _ = _interval_bounds(sys, force_map * likelihood)
            if min(np.abs(lower).min(), np.abs(upper).min()) < 1e-4:
                continue
            checked += 1
            grad = loss_gradient(sys, force_map, likelihood)
            h = 1e-7
            for i in range(n):
                step = np.zeros(n)
                step[i] = h
                fd = (stability_loss_masked(sys, force_map + step, likelihood)
                      - stability_loss_masked(sys, force_map - step, likelihood)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestForceExistence:
    def test_no_contacts(self, small_sphere):
        res = solve_force_existence(small_sphere, np.zeros((0, 3)), np.zeros((0, 3)))
        assert res.energy == pytest.approx(96.2361, abs=1e-9)

    def test_bottom_support(self, small_sphere):
        res = solve_force_existence(small_sphere, BOTTOM_P, BOTTOM_N)
        assert res.energy == pytest.approx(0.0, abs=1e-8)
        assert res.forces[0] == pytest.approx(9.81, abs=1e-4)

    def test_force_cap_binds(self, small_sphere):
        res = solve_force_existence(small_sphere, BOTTOM_P, BOTTOM_N, f_max=5.0)
        assert res.forces[0] == pytest.approx(5.0, abs=1e-6)
        assert res.energy == pytest.approx((9.81 - 5.0) ** 2, abs=1e-6)

    def test_friction_within_cone(self, small_sphere):
        rng = np.random.default_rng(2)
        pts, dirs, _ = random_contacts(rng, small_sphere, 5)
        res = solve_force_existence(small_sphere, pts, dirs)
        assert np.all(res.forces >= -1e-12)
        assert np.all(res.forces <= 20.0 + 1e-9)
        assert np.all(np.abs(res.gamma) <= 1.0 + 1e-12)
        assert np.all(np.abs(res.delta) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("f_max", [-1.0, np.inf, np.nan])
    def test_rejects_invalid_force_cap(self, small_sphere, f_max):
        with pytest.raises(ValueError, match="f_max"):
            solve_force_existence(small_sphere, BOTTOM_P, BOTTOM_N, f_max=f_max)

    def test_solver_error_carries_best(self, small_sphere):
        with pytest.raises(SolverError) as info:
            solve_force_existence(small_sphere, BOTTOM_P, BOTTOM_N, f_max=5.0,
                                  tol=0.0, max_iter=1)
        forces = info.value.result.forces
        assert np.all((forces >= 0.0) & (forces <= 5.0))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_nnls_oracle_when_cap_slack(self, n, seed):
        # scipy's Lawson-Hanson NNLS over the same four friction-pyramid
        # edges (1, +-1, +-1) per contact; without a binding cap the two
        # problems share their minimum
        obj = sphere_object()
        pts, dirs, _ = random_contacts(np.random.default_rng(seed), obj, n)
        sys = assemble(obj, pts, dirs, np.zeros(n))
        edges = np.column_stack([
            sys.n_mat[:, i] + sys.mu * (sign_b * sys.b_mat[:, i]
                                        + sign_t * sys.t_mat[:, i])
            for i in range(n)
            for sign_b, sign_t in itertools.product((1.0, -1.0), repeat=2)])
        weights, _ = nnls(edges, -sys.gravity6)
        assume(weights.reshape(n, 4).sum(axis=1).max() < 20.0)
        resid = edges @ weights + sys.gravity6
        res = solve_force_existence(obj, pts, dirs)
        assert res.energy == pytest.approx(float(resid @ resid), abs=1e-9)
        held = assemble(obj, pts, dirs, res.forces)
        assert_allclose(held.acceleration(res.gamma, res.delta), res.accel,
                        atol=1e-9)


class TestFromContactState:
    def test_subset_matches_manual(self, small_sphere):
        force = np.zeros(small_sphere.n_points)
        likelihood = np.zeros(small_sphere.n_points)
        labels = np.zeros(small_sphere.n_points, dtype=int)
        force[7] = 3.0
        likelihood[7] = 1.0
        labels[7] = 2
        state = ContactState(likelihood=likelihood, part_label=labels, force=force)
        sys, idx = assemble_from_contact_state(small_sphere, state)
        assert idx.tolist() == [7]
        manual = assemble(small_sphere, small_sphere.points[[7]],
                          small_sphere.normals[[7]], [3.0])
        assert_allclose(sys.n_mat, manual.n_mat)
