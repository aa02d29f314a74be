import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from grasp_eq.errors import EmptyHand, EmptyObject, InvalidNormal
from grasp_eq.scene import (CONTACT_RADIUS, ContactState, ObjectModel,
                            build_tangent_basis, compute_inertia,
                            contact_likelihood, contact_map_from_hand,
                            nearest_surface, signed_distance, tangent_bases)

from conftest import sphere_object


class TestTangentBasis:
    def test_canonical_z_axis(self):
        basis = build_tangent_basis(np.array([0.0, 0.0, 1.0]))
        assert_allclose(basis.b, [1.0, 0.0, 0.0])
        assert_allclose(basis.t, [0.0, 1.0, 0.0])
        assert_allclose(basis.n, [0.0, 0.0, 1.0])

    def test_negative_z(self):
        basis = build_tangent_basis(np.array([0.0, 0.0, -1.0]))
        assert_allclose(np.cross(basis.b, basis.t), [0.0, 0.0, -1.0], atol=1e-12)
        assert abs(basis.b @ basis.t) < 1e-12
        assert abs(basis.b @ basis.n) < 1e-12

    def test_diagonal_normal(self):
        n = np.ones(3) / np.sqrt(3.0)
        basis = build_tangent_basis(n)
        frame = np.stack([basis.b, basis.t, basis.n])
        assert_allclose(frame @ frame.T, np.eye(3), atol=1e-9)
        assert_allclose(np.cross(basis.b, basis.t), n, atol=1e-9)

    def test_orthonormal_right_handed_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            basis = build_tangent_basis(n)
            frame = np.stack([basis.b, basis.t, basis.n])
            assert_allclose(frame @ frame.T, np.eye(3), atol=1e-9)
            assert_allclose(np.cross(basis.b, basis.t), basis.n, atol=1e-9)

    def test_deterministic(self):
        n = np.array([0.6, 0.8, 0.0])
        a = build_tangent_basis(n)
        b = build_tangent_basis(n)
        assert_allclose(a.b, b.b)
        assert_allclose(a.t, b.t)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidNormal):
            build_tangent_basis(np.array([0.0, 0.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidNormal):
            build_tangent_basis(np.array([np.nan, 0.0, 1.0]))

    def test_array_frames_match_per_normal_loop(self):
        rng = np.random.default_rng(7)
        normals = rng.normal(size=(300, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        normals = np.vstack([normals, np.eye(3), -np.eye(3)])
        b, t = tangent_bases(normals)
        for i, n in enumerate(normals):
            e = np.zeros(3)
            e[int(np.argmin(np.abs(n)))] = 1.0
            ref_b = e - np.dot(e, n) * n
            ref_b /= np.linalg.norm(ref_b)
            assert_allclose(b[i], ref_b, rtol=0.0, atol=1e-15)
            assert_allclose(t[i], np.cross(n, ref_b), rtol=0.0, atol=1e-15)

    def test_array_frames_reject_non_unit(self):
        with pytest.raises(InvalidNormal):
            tangent_bases(np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]]))


class TestInertia:
    def test_single_point(self):
        assert compute_inertia([[0.1, 0.0, 0.0]], np.zeros(3), 1.0) == pytest.approx(0.004)

    def test_all_points_at_com(self):
        pts = np.tile([0.2, -0.1, 0.3], (5, 1))
        assert compute_inertia(pts, np.array([0.2, -0.1, 0.3]), 1.0) == 0.0

    def test_unit_cube_corners(self):
        corners = np.array([[x, y, z] for x in (-0.5, 0.5)
                            for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
        assert compute_inertia(corners, np.zeros(3), 2.0) == pytest.approx(0.6)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.1, 0.1, size=(50, 3))
        com = pts.mean(axis=0)
        base = compute_inertia(pts, com, 1.3)
        for seed in range(5):
            rot = Rotation.random(random_state=seed).as_matrix()
            rotated = (pts - com) @ rot.T + com
            assert compute_inertia(rotated, com, 1.3) == pytest.approx(base, rel=1e-12)

    def test_empty_points(self):
        with pytest.raises(EmptyObject):
            compute_inertia(np.zeros((0, 3)), np.zeros(3), 1.0)

    def test_bad_mass(self):
        with pytest.raises(ValueError):
            compute_inertia([[0.1, 0.0, 0.0]], np.zeros(3), 0.0)


class TestObjectModel:
    def test_inertia_recomputed(self, small_sphere):
        assert small_sphere.inertia == pytest.approx(0.4 * 1.0 * 0.05 ** 2)

    def test_rejects_bad_normals(self):
        with pytest.raises(InvalidNormal):
            ObjectModel(points=[[0.0, 0.0, 1.0]], normals=[[0.0, 0.0, 0.5]])

    def test_immutable(self, small_sphere):
        with pytest.raises(ValueError):
            small_sphere.points[0, 0] = 7.0


class TestSignedDistance:
    def test_zero_on_sample(self, small_sphere):
        assert signed_distance(small_sphere, small_sphere.points[17]) == 0.0

    def test_center_of_sphere(self, small_sphere):
        assert signed_distance(small_sphere, np.zeros(3)) == pytest.approx(-0.05, abs=1e-12)

    def test_offset_along_normal(self, small_sphere):
        q = small_sphere.points[5] + 0.02 * small_sphere.normals[5]
        assert signed_distance(small_sphere, q) == pytest.approx(0.02, abs=1e-12)

    def test_bounded_by_euclidean(self, small_sphere):
        rng = np.random.default_rng(11)
        queries = rng.uniform(-0.1, 0.1, size=(64, 3))
        d, _, _ = nearest_surface(small_sphere, queries)
        sd = signed_distance(small_sphere, queries)
        assert np.all(np.abs(sd) <= d + 1e-12)


class TestContactState:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContactState(likelihood=[0.5], part_label=[1, 2], force=[0.0])
        with pytest.raises(ValueError):
            ContactState(likelihood=[1.5], part_label=[1], force=[0.0])
        with pytest.raises(ValueError):
            ContactState(likelihood=[0.0], part_label=[0], force=[1.0])
        with pytest.raises(ValueError):
            ContactState(likelihood=[0.0], part_label=[3], force=[0.0])
        with pytest.raises(ValueError):
            ContactState(likelihood=[0.5], part_label=[17], force=[0.0])

    def test_contact_mask(self):
        state = ContactState(likelihood=[1.0, 0.2, 0.0], part_label=[2, 0, 0],
                             force=[1.5, 0.0, 0.0])
        assert state.contact_mask.tolist() == [True, False, False]


class TestContactLikelihood:
    def test_pinned_values(self):
        c0 = CONTACT_RADIUS
        lik = contact_likelihood(np.array([0.0, c0, 2 * c0, 4 * c0]), c0)
        assert lik.tolist() == [1.0, 1.0, 0.5, 0.25]


class TestContactMap:
    def test_coincident_sample(self, small_sphere):
        state = contact_map_from_hand(small_sphere, [small_sphere.points[3]], [5])
        assert state.likelihood[3] == 1.0
        assert state.part_label[3] == 5

    def test_half_likelihood_at_twice_radius(self, small_sphere):
        hand_pt = small_sphere.points[3] + 2 * CONTACT_RADIUS * small_sphere.normals[3]
        state = contact_map_from_hand(small_sphere, [hand_pt], [4])
        assert state.likelihood[3] == pytest.approx(0.5)

    def test_label_set_inside_threshold(self, small_sphere):
        hand_pt = small_sphere.points[3] + 1.9 * CONTACT_RADIUS * small_sphere.normals[3]
        state = contact_map_from_hand(small_sphere, [hand_pt], [4])
        assert state.part_label[3] == 4

    def test_far_hand_all_unlabelled(self, small_sphere):
        state = contact_map_from_hand(small_sphere, [[0.0, 0.0, 1.0]], [2])
        assert np.all(state.part_label == 0)
        assert np.all(state.likelihood < 0.5)
        assert np.all(state.force == 0.0)

    def test_monotone_in_distance(self, small_sphere):
        base = small_sphere.points[0] + 0.001 * small_sphere.normals[0]
        prev = None
        for extra in (0.0, 0.002, 0.005, 0.02, 0.1):
            pt = base + extra * small_sphere.normals[0]
            lik = contact_map_from_hand(small_sphere, [pt], [1]).likelihood
            if prev is not None:
                assert np.all(lik <= prev + 1e-12)
            prev = lik

    def test_empty_hand(self, small_sphere):
        with pytest.raises(EmptyHand):
            contact_map_from_hand(small_sphere, np.zeros((0, 3)), np.zeros(0, dtype=int))
