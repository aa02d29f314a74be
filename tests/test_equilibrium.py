import itertools
import logging
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import nnls
from scipy.spatial.transform import Rotation

from grasp_eq import equilibrium
from grasp_eq.equilibrium import (F_MAX, QP_MAX_ITER, QP_TOL, _EDGE_SIGNS,
                                  QPResult, _free_mean, _lstsq, _solve_box,
                                  _solve_pyramid, assemble,
                                  assemble_from_contact_state, loss_gradient,
                                  solve_force_existence, stability_energy,
                                  stability_loss, stability_loss_masked)
from grasp_eq.errors import SolverError
from grasp_eq.keypoints import cluster_contacts, select_clusters
from grasp_eq.scene import (ContactState, ObjectModel, _pivot_tangents,
                            tangent_bases)
from grasp_eq.synth import SyntheticScene, generate_contacts, generate_scene

from conftest import (energy_matrices, grid_energy_coordinate,
                      grid_energy_zoomed, random_contacts, sphere_object)
from test_acceptance import _random_representatives

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
        with pytest.raises(ValueError, match="deviate from unit length"):
            assemble(small_sphere, BOTTOM_P, [[0.0, 0.0, -0.9]], [1.0])

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1.0,
                                    True, False])
    def test_rejects_bad_friction_coefficient(self, small_sphere, mu):
        with pytest.raises(ValueError, match="friction"):
            assemble(small_sphere, BOTTOM_P, BOTTOM_N, [9.81], mu=mu)

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_gravity_whose_squares_overflow(self, small_sphere, n):
        points, normals = BOTTOM_P[:n], BOTTOM_N[:n]
        with pytest.raises(ValueError, match="gravity must be small enough"):
            assemble(small_sphere, points, normals, [9.81] * n,
                     gravity=[0.0, 0.0, 1e300])
        with pytest.raises(ValueError, match="gravity must be small enough"):
            solve_force_existence(small_sphere, points, normals,
                                  gravity=[0.0, 0.0, -1e300])

    # mu times a column entry times the total force is checked in Python
    # floats, so even the largest float is named before any numpy product
    @pytest.mark.parametrize("mu", [1e300, np.finfo(float).max])
    def test_rejects_friction_whose_accelerations_overflow(self,
                                                           small_sphere, mu):
        sys = assemble(small_sphere, PINCH_P, PINCH_N, [5.0, 5.0], mu=mu)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="friction coefficient mu"):
                stability_energy(sys)
            with pytest.raises(ValueError, match="friction coefficient mu"):
                solve_force_existence(small_sphere, PINCH_P, PINCH_N, mu=mu)

    def test_rejects_forces_whose_squares_overflow(self, small_sphere):
        # at 1e200 the stability QP once ran all QP_MAX_ITER iterations
        # and raised at gap inf
        with pytest.raises(ValueError, match="squares sum to a finite"):
            assemble(small_sphere, PINCH_P, PINCH_N, [1e200, 1e200])
        with pytest.raises(ValueError, match="squares sum to a finite"):
            ContactState(likelihood=[1.0], part_label=[1], force=[1e200])

    def test_leaves_the_callers_forces_writeable(self, small_sphere):
        forces = np.array([4.0, 5.0])
        sys = assemble(small_sphere, PINCH_P, PINCH_N, forces)
        forces[0] = 1.0
        assert sys.forces.tolist() == [4.0, 5.0]
        assert not sys.forces.flags.writeable

    def test_force_linearity(self, small_sphere):
        sys1 = assemble(small_sphere, PINCH_P, PINCH_N, [2.0, 3.0])
        sys2 = assemble(small_sphere, PINCH_P, PINCH_N, [4.0, 6.0])
        zero = np.zeros(2)
        a1 = sys1.acceleration(zero, zero) - sys1.gravity6
        a2 = sys2.acceleration(zero, zero) - sys2.gravity6
        assert_allclose(a2, 2.0 * a1, atol=1e-12)

    def test_matches_np_cross_assembly_bit_for_bit(self):
        # the matrices as assembled with np.cross: the moment columns are
        # (p - com) x d, d the normal, b and t directions
        rng = np.random.default_rng(19)
        signed_zeros = 0
        for trial in range(80):
            n = int(rng.integers(1, 8))
            obj = sphere_object(radius=float(rng.uniform(0.02, 0.1)),
                                seed=trial, mass=float(rng.uniform(0.1, 3.0)))
            pts, dirs, forces = random_contacts(rng, obj, n)
            if trial % 3 == 1:  # axis-aligned normals, some points at the com
                dirs = (np.eye(3)[rng.integers(0, 3, n)]
                        * rng.choice([-1.0, 1.0], (n, 1)))
                pts = np.where(rng.uniform(size=(n, 1)) < 0.5, obj.com,
                               obj.com + 0.05 * dirs)
            bases = None
            if trial % 3 == 2:  # explicit frames, rotated about the normal
                b, t = _pivot_tangents(dirs)
                angle = rng.uniform(0.0, 2 * np.pi, (n, 1))
                bases = (np.cos(angle) * b + np.sin(angle) * t,
                         np.cos(angle) * t - np.sin(angle) * b)
            sys = assemble(obj, pts, dirs, forces, bases=bases)
            b, t = _pivot_tangents(dirs) if bases is None else bases
            arms = np.stack([dirs, b, t])
            want = np.concatenate(
                [arms / obj.mass, np.cross(pts - obj.com, arms) * (1.0 / obj.inertia)],
                axis=2).transpose(0, 2, 1)
            for got, ref in zip((-sys.n_mat, sys.b_mat, sys.t_mat), want):
                assert got.tobytes() == ref.tobytes()
            signed_zeros += np.signbit(want[want == 0.0]).any()
        assert signed_zeros >= 10


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
            # the one QP record, reporting the system's own fixed forces
            assert isinstance(res, QPResult)
            assert np.array_equal(res.forces, sys.forces)
            assert not res.forces.flags.writeable
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

    def test_result_records_its_stop(self, small_sphere, caplog):
        """The result carries the solver's Stop, and the debug line is
        formatted from it; a capped solve raises with reason 'cap' and its
        message reads the same record."""
        rng = np.random.default_rng(5)
        pts, dirs, forces = random_contacts(rng, small_sphere, 4)
        sys = assemble(small_sphere, pts, dirs, forces)
        caplog.set_level(logging.DEBUG, logger="grasp_eq")
        res = stability_energy(sys)
        mat, const = energy_matrices(sys)
        _, stop = _solve_box(mat, const, QP_TOL, QP_MAX_ITER)
        assert res.stop == stop and stop.reason == "gap"
        assert stop.final < QP_TOL and stop.evaluations >= stop.iterations >= 1
        assert [r.getMessage() for r in caplog.records
                if r.name == "grasp_eq.stability"] == [
            f"stability: 4 contacts, {stop}"]
        with pytest.raises(SolverError) as info:
            stability_energy(sys, tol=-1.0, max_iter=3)
        capped = info.value.result.stop
        assert (capped.reason, capped.iterations) == ("cap", 3)
        assert capped.evaluations >= 3
        assert str(info.value) == ("stability QP not certified below tol "
                                   f"-1.0e+00: {capped}")
        assert str(capped) == (f"cap after 3 iterations, {capped.evaluations} "
                               f"evaluations, final {capped.final:.3e}")

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
        with pytest.raises(ValueError, match="expected two length-1 arrays"):
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

    def test_no_contacts_at_any_tolerance(self, small_sphere):
        """With no contact the QPs have no variable, so both certify their
        start at once, even at a tolerance no gap can fall below."""
        empty = np.zeros((0, 3))
        res = solve_force_existence(small_sphere, empty, empty, tol=0.0)
        free = stability_energy(assemble(small_sphere, empty, empty,
                                         np.zeros(0)), tol=0.0)
        for r in (res, free):
            assert r.energy == 9.81 ** 2
            assert r.accel.tolist() == [0.0, 0.0, -9.81, 0.0, 0.0, 0.0]
            assert r.gamma.shape == r.delta.shape == (0,)
        assert res.forces.shape == (0,)
        # the empty set passes the friction check too
        with pytest.raises(ValueError, match="friction"):
            solve_force_existence(small_sphere, empty, empty, mu=-1.0)

    def test_bottom_support(self, small_sphere):
        res = solve_force_existence(small_sphere, BOTTOM_P, BOTTOM_N)
        assert isinstance(res, QPResult)
        assert res.energy == pytest.approx(0.0, abs=1e-8)
        assert res.forces[0] == pytest.approx(9.81, abs=1e-4)

    def test_force_cap_binds(self, small_sphere, monkeypatch):
        monkeypatch.setattr(equilibrium, "F_MAX", 5.0)
        res = solve_force_existence(small_sphere, BOTTOM_P, BOTTOM_N)
        assert res.forces[0] == pytest.approx(5.0, abs=1e-6)
        assert res.energy == pytest.approx((9.81 - 5.0) ** 2, abs=1e-6)

    def test_friction_within_cone(self, small_sphere):
        rng = np.random.default_rng(2)
        pts, dirs, _ = random_contacts(rng, small_sphere, 5)
        res = solve_force_existence(small_sphere, pts, dirs)
        assert np.all(res.forces >= -1e-12)
        assert np.all(res.forces <= F_MAX + 1e-9)
        assert np.all(np.abs(res.gamma) <= 1.0 + 1e-12)
        assert np.all(np.abs(res.delta) <= 1.0 + 1e-12)

    def test_solver_error_carries_best(self, small_sphere, monkeypatch):
        monkeypatch.setattr(equilibrium, "F_MAX", 5.0)
        with pytest.raises(SolverError) as info:
            solve_force_existence(small_sphere, BOTTOM_P, BOTTOM_N, tol=0.0,
                                  max_iter=1)
        forces = info.value.result.forces
        assert np.all((forces >= 0.0) & (forces <= 5.0))

    def test_result_records_its_stop(self, small_sphere, caplog):
        rng = np.random.default_rng(6)
        pts, dirs, _ = random_contacts(rng, small_sphere, 3)
        caplog.set_level(logging.DEBUG, logger="grasp_eq")
        stop = solve_force_existence(small_sphere, pts, dirs).stop
        assert stop.reason == "gap" and stop.final < QP_TOL
        assert stop.evaluations >= stop.iterations >= 1
        assert [r.getMessage() for r in caplog.records
                if r.name == "grasp_eq"] == [
            f"force existence: 3 contacts, {stop}"]
        with pytest.raises(SolverError) as info:
            solve_force_existence(small_sphere, pts, dirs, tol=-1.0,
                                  max_iter=2)
        capped = info.value.result.stop
        assert (capped.reason, capped.iterations) == ("cap", 2)
        assert str(info.value) == ("force-existence QP not certified below "
                                   f"tol -1.0e+00: {capped}")

    @pytest.mark.parametrize("mass", [0.01, 0.001])
    def test_light_object_certifies(self, mass):
        # 1/m and 1/I scale the edge columns up, and with them the gap's
        # rounding past QP_TOL; at 10 g, trial 16 (points 212 and 102) once
        # ran all QP_MAX_ITER iterations and raised at gap 1.3e-7
        scene = generate_scene(SyntheticScene("sphere", (0.05,), 256, seed=0))
        obj = ObjectModel(points=scene.points, normals=scene.normals,
                          com=scene.com, mass=mass)
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for _ in range(40):
            idx = rng.choice(256, rng.integers(1, 6), replace=False)
            n = len(idx)
            res = solve_force_existence(obj, obj.points[idx], obj.normals[idx])
            sys = assemble(obj, obj.points[idx], obj.normals[idx], np.zeros(n))
            edges = (sys.n_mat[:, :, None]
                     + sys.b_mat[:, :, None] * _EDGE_SIGNS[:, 0]
                     + sys.t_mat[:, :, None] * _EDGE_SIGNS[:, 1]
                     ).reshape(6, 4 * n)
            weights, norm = nnls(edges, -sys.gravity6)
            if weights.reshape(n, 4).sum(axis=1).max() < 20.0:
                assert res.energy == pytest.approx(norm ** 2, abs=1e-9)
        assert time.perf_counter() - start < 0.5

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


def _reference_pyramid(mat, const, lam, cap, tol, max_iter):
    """The pyramid QP loop with both centrings always applied, the form
    whose results _solve_pyramid must keep bit for bit; also reports
    whether any contact was ever capped."""
    n = lam.shape[0]
    cols = mat.reshape(6, n, 4)
    free = np.ones((n, 4), dtype=bool)
    capped = np.zeros(n, dtype=bool)
    ever_capped = False
    best_lam, best_f, best_gap = lam, np.inf, np.inf
    for _ in range(max_iter):
        while free.any():
            r = mat @ lam.ravel() + const
            face = np.where(capped[:, None], cols - _free_mean(cols, free), cols)
            step = np.zeros((n, 4))
            step[free], *_ = np.linalg.lstsq(face[:, free], -r, rcond=None)
            step -= np.where(capped[:, None] & free, _free_mean(step, free), 0.0)
            rise = step.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                to_zero = np.where(free & (step < 0.0), lam / -step, np.inf)
                to_cap = np.where(~capped & (rise > 0.0),
                                  (cap - lam.sum(axis=1)) / rise, np.inf)
            alpha = min(1.0, float(to_zero.min()), float(to_cap.min()))
            lam = np.maximum(lam + alpha * step, 0.0)
            if alpha == 1.0:
                break
            hit = to_zero <= alpha
            lam[hit] = 0.0
            free &= ~hit
            capped |= to_cap <= alpha
            ever_capped |= capped.any()
        r = mat @ lam.ravel() + const
        f = float(r @ r)
        g = 2.0 * (mat.T @ r).reshape(n, 4)
        gap = min(float((g * lam).sum() - cap * np.minimum(g.min(axis=1), 0.0).sum()), f)
        if f < best_f:
            best_lam, best_f, best_gap = lam.copy(), f, gap
        if gap < tol:
            return (lam, True, gap), ever_capped
        level = np.where(capped[:, None], _free_mean(g, free), 0.0)
        violation = np.concatenate([np.where(free, -np.inf, level - g).ravel(),
                                    np.where(capped, level[:, 0], -np.inf)])
        worst = int(np.argmax(violation))
        if violation[worst] > 0.0:
            if worst < 4 * n:
                free.flat[worst] = True
            else:
                capped[worst - 4 * n] = False
    return (best_lam, False, best_gap), ever_capped


class TestPyramidSolver:
    def test_matches_the_always_centred_loop_bit_for_bit(self, small_sphere):
        rng = np.random.default_rng(18)
        capping = 0
        for trial in range(60):
            n = int(rng.integers(1, 7))
            mu = float(rng.uniform(0.2, 1.5))
            if trial % 2:  # contacts on a sphere, as solve_force_existence
                pts, dirs, _ = random_contacts(rng, small_sphere, n)
                sys = assemble(small_sphere, pts, dirs, np.zeros(n), mu=mu)
                mat = (sys.n_mat[:, :, None]
                       + mu * sys.b_mat[:, :, None] * _EDGE_SIGNS[:, 0]
                       + mu * sys.t_mat[:, :, None] * _EDGE_SIGNS[:, 1]
                       ).reshape(6, 4 * n)
                const = sys.gravity6
            else:
                mat = rng.normal(size=(6, 4 * n))
                const = rng.normal(scale=5.0, size=6)
            # caps small enough that contacts reach them
            cap = float(rng.uniform(0.05, 3.0))
            start = np.full((n, 4), cap * rng.uniform(0.0, 0.25))
            max_iter = int(rng.choice([2, QP_MAX_ITER]))
            got, stop = _solve_pyramid(mat, const, start.copy(), cap, QP_TOL,
                                       max_iter)
            (lam, converged, gap), capped = _reference_pyramid(
                mat, const, start.copy(), cap, QP_TOL, max_iter)
            assert got.tobytes() == lam.tobytes()
            assert (stop.reason, stop.final) == ("gap" if converged else "cap",
                                                 gap)
            capping += capped
        assert capping >= 10

    def test_nan_step_stops_at_once(self):
        """Edge columns near the underflow limit can make the least-squares
        step nan, and every later iterate with it.  At the full budget the
        loop stops on 'nonfinite' in the outer iteration that took it,
        returning the best finite lam (here the start), instead of running
        every iteration."""
        rng = np.random.default_rng(5)
        nonfinite = 0
        with np.errstate(all="ignore"):
            for _ in range(300):
                n = int(rng.integers(1, 5))
                mat = (rng.normal(size=(6, 4 * n))
                       * 10.0 ** -rng.uniform(290, 310, size=(1, 4 * n)))
                const = rng.normal(size=6) * 10.0 ** rng.uniform(-5, 5)
                cap = float(rng.uniform(0.05, 3.0))
                start = np.full((n, 4), cap * rng.uniform(0.0, 0.25))
                lam, stop = _solve_pyramid(mat, const, start.copy(), cap,
                                           QP_TOL, QP_MAX_ITER)
                assert stop.iterations <= 2 and np.isfinite(lam).all()
                if stop.reason == "nonfinite":
                    nonfinite += 1
                    assert lam.tobytes() == start.tobytes()
                    assert stop.final == np.inf
        assert nonfinite >= 30

    def test_reads_the_edge_count_from_its_start(self, small_sphere):
        """An inscribed regular 8-gon in place of the square of
        _EDGE_SIGNS: its cone lies inside the square's, so its least
        energy is at least the square's less the square's certified gap."""
        theta = 2.0 * np.pi * np.arange(8) / 8
        octagon = np.column_stack([np.cos(theta), np.sin(theta)])
        rng = np.random.default_rng(36)
        unheld = 0
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pts, dirs, _ = random_contacts(rng, small_sphere, n)
            sys = assemble(small_sphere, pts, dirs, np.zeros(n))
            solved = []
            for signs in (_EDGE_SIGNS, octagon):
                k = len(signs)
                mat = (sys.n_mat[:, :, None]
                       + sys.b_mat[:, :, None] * signs[:, 0]
                       + sys.t_mat[:, :, None] * signs[:, 1]
                       ).reshape(6, k * n)
                start = np.full((n, k), 9.81 / n / k)
                lam, stop = _solve_pyramid(mat, sys.gravity6, start, F_MAX,
                                           QP_TOL, QP_MAX_ITER)
                assert lam.shape == (n, k) and stop.reason == "gap"
                r = mat @ lam.ravel() + sys.gravity6
                solved.append((float(r @ r), stop.final))
            (square, square_gap), (eight, _) = solved
            assert eight >= square - square_gap
            unheld += square > 1e-6
        assert unheld >= 10

    def test_logs_one_line_per_force_existence_solve(self, small_sphere,
                                                     caplog):
        rng = np.random.default_rng(3)
        pts, dirs, _ = random_contacts(rng, small_sphere, 4)
        caplog.set_level(logging.DEBUG, logger="grasp_eq")
        for points, normals in ((pts, dirs), (np.zeros((0, 3)),
                                               np.zeros((0, 3)))):
            caplog.clear()
            stop = solve_force_existence(small_sphere, points, normals).stop
            assert [r.getMessage() for r in caplog.records
                    if r.name == "grasp_eq"] == [
                f"force existence: {len(points)} contacts, {stop}"]
            assert stop.evaluations >= min(len(points), 1)
            assert stop.iterations >= min(len(points), 1)
            assert stop.final < QP_TOL


@st.composite
def lstsq_systems(draw):
    """(a, b): a 6 x m matrix, m from 1 to 5000, whose columns are scaled
    by 10^-300 to 10^300, with repeated and zero columns drawn in, and a
    normal b scaled by 1e-5 to 1e5."""
    m = draw(st.integers(1, 24) | st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = draw(st.integers(-300, 300))
    high = draw(st.integers(low, 300))
    a = rng.normal(size=(6, m)) * 10.0 ** rng.uniform(low, high, size=(1, m))
    repeated = draw(st.integers(0, m - 1))
    a[:, rng.integers(0, m, repeated)] = a[:, rng.integers(0, m, repeated)]
    a[:, rng.integers(0, m, draw(st.integers(0, m - 1)))] = 0.0
    b = rng.normal(size=6) * 10.0 ** draw(st.integers(-5, 5))
    return a, b


SVD_FAILED = "^SVD did not converge in Linear Least Squares$"


class TestLstsq:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(system=lstsq_systems())
    def test_matches_numpy_lstsq_bit_for_bit(self, system):
        a, b = system
        try:
            want = np.linalg.lstsq(a, b, rcond=None)[0]
        except np.linalg.LinAlgError:
            with pytest.raises(ValueError):
                _lstsq(a, b)
        else:
            got = _lstsq(a, b)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_nan_matrix_raises_numpys_message(self):
        # dgelsd reports an illegal value (info -4); an infinity is not
        # tried, since it sends dgelsd and numpy's lstsq into an endless loop
        a = np.random.default_rng(0).normal(size=(6, 5))
        a[2, 3] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match=SVD_FAILED):
            np.linalg.lstsq(a, np.ones(6), rcond=None)
        with pytest.raises(ValueError, match=SVD_FAILED):
            _lstsq(a, np.ones(6))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_gives_numpys_nan_solution(self, value):
        a = np.random.default_rng(0).normal(size=(6, 5))
        b = np.ones(6)
        b[1] = value
        got, want = _lstsq(a, b), np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.isnan(got).all()
        assert got.tobytes() == want.tobytes()

    def test_unconverged_svd_raises_numpys_message(self, monkeypatch):
        def unconverged(a, b, *args):
            return b, np.zeros(min(a.shape)), 0, 1
        monkeypatch.setattr(equilibrium.lapack, "dgelsd", unconverged)
        with pytest.raises(ValueError, match=SVD_FAILED):
            _lstsq(np.eye(6), np.ones(6))


def _reference_box(mat, const, tol, max_iter):
    """The box QP loop with its ratio test through np.where and its step
    clipped by np.clip, the form whose results _solve_box must keep bit for
    bit; also reports which edge cases it met."""
    k = mat.shape[1]
    x = np.zeros(k)
    free = np.ones(k, dtype=bool)
    best_x, best_f, best_gap = x, np.inf, np.inf
    met = set()
    for _ in range(max_iter):
        while free.any():
            r = mat @ x + const
            step, *_ = np.linalg.lstsq(mat[:, free], -r, rcond=None)
            xf = x[free]
            met.update(name for name, hit in (
                ("zero step", np.any(step == 0.0)),
                ("start on a bound", np.any(np.abs(xf) == 1.0)),
                ("rank deficient",
                 np.linalg.matrix_rank(mat[:, free]) < free.sum())) if hit)
            room = np.where(step > 0.0, 1.0 - xf, -1.0 - xf)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(step != 0.0, room / step, np.inf)
            alpha = min(1.0, float(ratio.min()))
            if alpha > 0.0:
                x[free] = np.clip(xf + alpha * step, -1.0, 1.0)
            if alpha == 1.0:
                break
            blocked = ratio <= alpha
            hit = np.flatnonzero(free)[blocked]
            x[hit] = np.sign(step[blocked])
            free[hit] = False
        r = mat @ x + const
        f = float(r @ r)
        g = 2.0 * (mat.T @ r)
        gap = min(float(g @ x + np.abs(g).sum()), f)
        if f < best_f:
            best_x, best_f, best_gap = x.copy(), f, gap
        if gap < tol:
            return (x, True, gap), met
        violation = np.where(free, 0.0, x * g)
        worst = int(np.argmax(violation))
        if violation[worst] > 0.0:
            free[worst] = True
    return (best_x, False, best_gap), met


class TestBoxSolver:
    def test_matches_the_clipped_ratio_loop_bit_for_bit(self, small_sphere):
        rng = np.random.default_rng(20)
        met = {}
        for trial in range(100):
            kind = trial % 5
            n = int(rng.integers(1, 7))
            pts, dirs, forces = random_contacts(rng, small_sphere, n)
            if kind == 1:  # zero-force contacts: all-zero columns
                forces[rng.uniform(size=n) < 0.5] = 0.0
            elif kind == 2:  # repeated contacts: equal columns
                pick = rng.integers(0, n, n + 2)
                pts, dirs, forces = pts[pick], dirs[pick], forces[pick]
            elif kind == 3:  # axis-aligned contacts: exactly zero entries
                dirs = (np.eye(3)[rng.integers(0, 3, n)]
                        * rng.choice([-1.0, 1.0], (n, 1)))
                pts = 0.05 * dirs
            sys = assemble(small_sphere, pts, dirs, forces,
                           mu=float(rng.uniform(0.1, 1.5)))
            mat, const = energy_matrices(sys)
            if kind == 4:  # wide and pushed far out: coordinates leave bounds
                mat = rng.normal(size=(6, 2 * n + 4))
                const = rng.normal(scale=5.0, size=6)
            max_iter = int(rng.choice([1, 2, QP_MAX_ITER]))
            got, stop = _solve_box(mat, const, QP_TOL, max_iter)
            (x, converged, gap), seen = _reference_box(mat, const, QP_TOL,
                                                       max_iter)
            assert got.tobytes() == x.tobytes()
            assert (stop.reason, stop.final) == ("gap" if converged else "cap",
                                                 gap)
            for name in seen:
                met[name] = met.get(name, 0) + 1
        assert min(met.get(name, 0) for name in
                   ("zero step", "start on a bound", "rank deficient")) >= 10

    def test_counts_its_work(self, small_sphere):
        rng = np.random.default_rng(21)
        pts, dirs, forces = random_contacts(rng, small_sphere, 4)
        mat, const = energy_matrices(assemble(small_sphere, pts, dirs, forces))
        _, stop = _solve_box(mat, const, QP_TOL, QP_MAX_ITER)
        assert stop.evaluations >= stop.iterations >= 1
        _, capped = _solve_box(mat, const, -1.0, 3)
        assert (capped.reason, capped.iterations) == ("cap", 3)
        assert capped.evaluations >= 3

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_large_forces_certify_relative_to_their_energy(self, scale):
        """Every pair and triple of six representatives with forces scaled
        up (zero-friction energies 2e4 to 1e8) certifies, in well under a
        second for all 35: an absolute gap of QP_TOL is out of float
        reach there, and the certificate scales with the energy."""
        obj = sphere_object()
        reps = _random_representatives(np.random.default_rng(700), obj, 6)
        start = time.perf_counter()
        solved = 0
        for size in (2, 3):
            for combo in itertools.combinations(sorted(reps), size):
                group = [reps[p] for p in combo]
                sys = assemble(obj, np.array([c.center for c in group]),
                               np.array([c.normal for c in group]),
                               scale * np.array([c.force for c in group]))
                assert stability_energy(sys).energy >= 0.0
                solved += 1
        assert solved == 35
        assert time.perf_counter() - start < 1.0

    def test_unblocked_coordinates_stay_in_the_box(self):
        """_solve_box's step update keeps every coordinate its ratio test
        does not block inside [-1, 1] without a clip, on starts at and a
        few ulps off the bounds and steps aimed at them across magnitudes
        (the rounding argument in its docstring)."""
        rng = np.random.default_rng(22)
        ulp = 2.0 ** -53
        moved = 0
        for trial in range(3000):
            k = int(rng.integers(1, 12))
            x = np.clip(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], k)
                        + rng.integers(-4, 5, k) * ulp
                        + (trial % 2) * rng.uniform(-1.0, 1.0, k), -1.0, 1.0)
            step = rng.normal(size=k) * 10.0 ** rng.uniform(-300, 300, k)
            aim = rng.uniform(size=k) < 0.5
            step[aim] = ((np.sign(step[aim]) - x[aim])
                         * rng.choice([1.0, 1 - 2 * ulp, 1 + 2 * ulp, 0.5],
                                      aim.sum()))
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = np.divide(np.copysign(1.0, step) - x, step,
                                  out=np.full(k, np.inf), where=step != 0.0)
                alpha = min(1.0, float(ratio.min()))
                new = x + alpha * step
            unblocked = (alpha > 0.0) & ~(ratio <= alpha) & np.isfinite(new)
            assert np.all(np.abs(new[unblocked]) <= 1.0)
            moved += np.count_nonzero(unblocked & (new != x))
        assert moved > 1000

    def test_logs_one_line_per_stability_solve(self, small_sphere, caplog):
        rng = np.random.default_rng(3)
        pts, dirs, forces = random_contacts(rng, small_sphere, 4)
        caplog.set_level(logging.DEBUG, logger="grasp_eq")
        for points, normals, f in ((pts, dirs, forces), (np.zeros((0, 3)),
                                                         np.zeros((0, 3)),
                                                         np.zeros(0))):
            caplog.clear()
            res = stability_energy(assemble(small_sphere, points, normals, f))
            stop = res.stop
            assert [r.getMessage() for r in caplog.records
                    if r.name == "grasp_eq.stability"] == [
                f"stability: {len(points)} contacts, {stop}"]
            assert stop.evaluations >= min(len(points), 1)
            assert stop.iterations >= min(len(points), 1)
            assert stop.final < QP_TOL
            assert res.energy >= 0.0


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
