import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from grasp_eq import scene
from grasp_eq.optimizer import _residual_floor
from grasp_eq.scene import (CONTACT_RADIUS, CertifiedNearestSite,
                            ContactState, ObjectModel, compute_inertia,
                            contact_likelihood, contact_map_from_hand,
                            nearest_surface, tangent_bases)

from conftest import sphere_object


def tangent_frame(n):
    """(b, t, n) of one unit normal through the stacked tangent_bases."""
    b, t = tangent_bases(n[None])
    return b[0], t[0], n


class TestTangentBasis:
    def test_canonical_z_axis(self):
        b, t, n = tangent_frame(np.array([0.0, 0.0, 1.0]))
        assert_allclose(b, [1.0, 0.0, 0.0])
        assert_allclose(t, [0.0, 1.0, 0.0])
        assert_allclose(n, [0.0, 0.0, 1.0])

    def test_negative_z(self):
        b, t, n = tangent_frame(np.array([0.0, 0.0, -1.0]))
        assert_allclose(np.cross(b, t), [0.0, 0.0, -1.0], atol=1e-12)
        assert abs(b @ t) < 1e-12
        assert abs(b @ n) < 1e-12

    def test_diagonal_normal(self):
        n = np.ones(3) / np.sqrt(3.0)
        b, t, _ = tangent_frame(n)
        frame = np.stack([b, t, n])
        assert_allclose(frame @ frame.T, np.eye(3), atol=1e-9)
        assert_allclose(np.cross(b, t), n, atol=1e-9)

    def test_orthonormal_right_handed_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            b, t, _ = tangent_frame(n)
            frame = np.stack([b, t, n])
            assert_allclose(frame @ frame.T, np.eye(3), atol=1e-9)
            assert_allclose(np.cross(b, t), n, atol=1e-9)

    def test_deterministic(self):
        n = np.array([0.6, 0.8, 0.0])
        a = tangent_frame(n)
        b = tangent_frame(n)
        assert_allclose(a[0], b[0])
        assert_allclose(a[1], b[1])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="normals must be finite, with no component"):
            tangent_frame(np.array([0.0, 0.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="normals must be finite, with no component"):
            tangent_frame(np.array([np.nan, 0.0, 1.0]))

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
        with pytest.raises(ValueError, match="normals must be finite, with no component"):
            tangent_bases(np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]]))

    @pytest.mark.parametrize("size", [1e300, -1e300, 1.0 + 2e-6])
    def test_rejects_components_beyond_unit_size(self, size):
        # 1e300 once overflowed in the length test before it could raise
        with pytest.raises(ValueError, match="normals must be finite, with no component"):
            tangent_bases(np.array([[0.0, 0.0, 1.0], [size, 0.0, 0.0]]))


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
        with pytest.raises(ValueError, match="empty point set"):
            compute_inertia(np.zeros((0, 3)), np.zeros(3), 1.0)

    def test_bad_mass(self):
        with pytest.raises(ValueError):
            compute_inertia([[0.1, 0.0, 0.0]], np.zeros(3), 0.0)


class TestObjectModel:
    def test_inertia_recomputed(self, small_sphere):
        assert small_sphere.inertia == pytest.approx(0.4 * 1.0 * 0.05 ** 2)

    def test_rejects_bad_normals(self):
        with pytest.raises(ValueError, match="deviate from unit length"):
            ObjectModel(points=[[0.0, 0.0, 1.0]], normals=[[0.0, 0.0, 0.5]])

    # one coordinate of 1e300 would square to inf in the inertia
    @pytest.mark.parametrize("field", ["points", "com"])
    def test_rejects_coordinates_too_large_to_square(self, field):
        args = {"points": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                "normals": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                "com": [0.0, 0.0, 0.0]}
        array = np.array(args[field])
        array.flat[-1] = -1e300
        args[field] = array
        with pytest.raises(ValueError, match=f"{field} must be finite, with "
                                             "no coordinate larger than"):
            ObjectModel(**args)

    @pytest.mark.parametrize("mass", [0.0, -1.0, np.nan, 1e-300, 1e-310])
    def test_rejects_a_mass_below_the_bound(self, mass):
        with pytest.raises(ValueError, match="mass must be at least"):
            ObjectModel(points=[[0.0, 0.0, 1.0]], normals=[[0.0, 0.0, 1.0]],
                        mass=mass)

    def test_accepts_the_least_mass(self):
        obj = ObjectModel(points=[[0.0, 0.0, 1.0]], normals=[[0.0, 0.0, 1.0]],
                          com=np.zeros(3), mass=scene._MASS_MIN)
        assert obj.mass == scene._MASS_MIN

    def test_immutable(self, small_sphere):
        with pytest.raises(ValueError):
            small_sphere.points[0, 0] = 7.0


class TestSignedDistance:
    """nearest_surface's third output, the one signed distance."""

    def test_zero_on_sample(self, small_sphere):
        assert nearest_surface(small_sphere,
                               small_sphere.points[17:18])[2][0] == 0.0

    def test_center_of_sphere(self, small_sphere):
        assert nearest_surface(small_sphere, np.zeros((1, 3)))[2][0] == (
            pytest.approx(-0.05, abs=1e-12))

    def test_offset_along_normal(self, small_sphere):
        q = small_sphere.points[5] + 0.02 * small_sphere.normals[5]
        assert nearest_surface(small_sphere, q[None])[2][0] == (
            pytest.approx(0.02, abs=1e-12))

    def test_bounded_by_euclidean(self, small_sphere):
        rng = np.random.default_rng(11)
        queries = rng.uniform(-0.1, 0.1, size=(64, 3))
        d, _, sd = nearest_surface(small_sphere, queries)
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
        lik = contact_likelihood(np.array([0.0, c0, 2 * c0, 4 * c0]))
        assert lik.tolist() == [1.0, 1.0, 0.5, 0.25]


def _euclidean_nearest(points, sites):
    """Reference: full euclidean cdist, then argmin over the distances."""
    d_mat = cdist(points, sites)
    idx = np.argmin(d_mat, axis=1)
    return d_mat[np.arange(idx.size), idx], idx, d_mat


def _full_scan(points, sites):
    """Reference: squared cdist, argmin, then the winners' square roots."""
    d_sq = cdist(points, sites, "sqeuclidean")
    idx = np.argmin(d_sq, axis=1)
    return np.sqrt(d_sq[np.arange(idx.size), idx]), idx


def _cloud(coord, max_size):
    return st.lists(st.tuples(coord, coord, coord), min_size=1,
                    max_size=max_size).map(lambda rows: np.array(rows, float))


class TestNearestSite:
    # On a grid of eighths every squared distance is exact and distinct ones
    # differ far above rounding, so the reference's ties are true ties:
    # duplicated sites and sites at equal distances.
    @settings(derandomize=True, database=None, max_examples=200)
    @given(points=_cloud(st.integers(-16, 16).map(lambda k: k / 8), 12),
           sites=_cloud(st.integers(-16, 16).map(lambda k: k / 8), 8),
           dups=st.lists(st.integers(0, 7), max_size=6))
    def test_matches_euclidean_argmin_on_grid(self, points, sites, dups):
        sites = np.vstack([sites, sites[np.asarray(dups, int) % len(sites)]])
        d, idx = CertifiedNearestSite(points)(sites)
        ref_d, ref_idx, _ = _euclidean_nearest(points, sites)
        assert d.tobytes() == ref_d.tobytes()
        assert np.array_equal(idx, ref_idx)

    # Off the grid, two squared distances one ulp apart can round to one
    # euclidean distance; the reference then takes the lower index and the
    # squared argmin the strictly nearer site, at the same distance.
    @settings(derandomize=True, database=None, max_examples=200)
    @given(points=_cloud(st.floats(-1.0, 1.0), 12),
           sites=_cloud(st.floats(-1.0, 1.0), 8))
    def test_distances_bit_identical_off_grid(self, points, sites):
        d, idx = CertifiedNearestSite(points)(sites)
        ref_d, _, d_mat = _euclidean_nearest(points, sites)
        assert d.tobytes() == ref_d.tobytes()
        assert d_mat[np.arange(idx.size), idx].tobytes() == ref_d.tobytes()


def _moved(rng, sites, points, kind):
    """A trial site set: ``kind`` names how it differs from ``sites``."""
    moved = sites.copy()
    if kind == "small":  # well inside most bounds
        moved += rng.normal(scale=1e-3, size=sites.shape)
    elif kind == "large":  # past every bound
        moved += rng.normal(scale=0.5, size=sites.shape)
    elif kind == "one":  # one site only
        moved[rng.integers(len(sites))] += rng.normal(scale=0.05, size=3)
    elif kind == "duplicate":  # an exact tie at every point
        moved[rng.integers(len(sites))] = moved[rng.integers(len(sites))]
    elif kind == "on_point":  # a site at distance 0 from a point
        moved[rng.integers(len(sites))] = points[rng.integers(len(points))]
    return moved  # "zero": the same sites


class TestCertifiedNearestSite:
    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_points=st.integers(1, 60),
           n_sites=st.integers(1, 12),
           moves=st.lists(st.tuples(
               st.sampled_from(["zero", "small", "large", "one", "duplicate",
                                "on_point"]), st.booleans()),
               min_size=1, max_size=8))
    def test_equals_a_full_scan_bit_for_bit(self, seed, n_points, n_sites,
                                            moves):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-0.1, 0.1, size=(n_points, 3))
        sites = rng.uniform(-0.1, 0.1, size=(n_sites, 3))
        query = CertifiedNearestSite(points)
        accepted = sites
        for kind, accept in [("zero", True), *moves]:
            trial = _moved(rng, accepted, points, kind)
            d, idx = query(trial)
            ref_d, ref_idx = _full_scan(points, trial)
            assert d.tobytes() == ref_d.tobytes()
            assert np.array_equal(idx, ref_idx)
            if accept:
                query.accept()
                accepted = trial
        assert query.queried == n_points * (len(moves) + 1)

    def test_ties_go_to_the_lowest_index(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        query = CertifiedNearestSite(points)
        _, idx = query([[0.6, 0.0, 0.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
        query.accept()
        assert idx.tolist() == [1, 0]
        # site 0 moves onto site 1: an exact tie, which no bound certifies
        d, idx = query([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert idx.tolist() == [0, 0]
        assert d.tolist() == [0.5, 0.5]
        assert query.rescanned == 4

    def test_unmoved_sites_rescan_nothing(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(-0.1, 0.1, size=(200, 3))
        sites = rng.uniform(-0.1, 0.1, size=(20, 3))
        query = CertifiedNearestSite(points)
        first = query(sites)
        query.accept()
        for _ in range(3):
            again = query(sites.copy())
            query.accept()
            assert again[0].tobytes() == first[0].tobytes()
        assert (query.queried, query.rescanned) == (800, 200)

    def test_rejected_query_leaves_no_trace(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(-0.1, 0.1, size=(300, 3))
        sites = rng.uniform(-0.1, 0.1, size=(20, 3))
        step = rng.normal(scale=2e-3, size=sites.shape)
        rescans = []
        far = sites + rng.normal(scale=0.3, size=sites.shape)
        for rejected in (None, far):
            query = CertifiedNearestSite(points)
            query(sites)
            query.accept()
            if rejected is not None:
                query(rejected)
            before = query.rescanned
            query(sites + step)
            rescans.append(query.rescanned - before)
        assert rescans[0] == rescans[1] < 300

    def test_scans_only_the_uncertified_rows(self, monkeypatch):
        rows = []

        def counted(a, b, metric):
            rows.append(len(a))
            return cdist(a, b, metric)

        monkeypatch.setattr(scene, "cdist", counted)
        rng = np.random.default_rng(5)
        points = rng.uniform(-0.1, 0.1, size=(100, 3))
        sites = rng.uniform(-0.1, 0.1, size=(10, 3))
        query = CertifiedNearestSite(points)
        query(sites)
        query.accept()
        query(sites + 1e-4)
        assert rows[0] == 100 and sum(rows) == query.rescanned < 200


def _trial(rng, sites, points, kind):
    """_moved's trial site sets, plus a move past every bound by far."""
    if kind == "huge":
        return sites + rng.normal(scale=1e3, size=sites.shape)
    return _moved(rng, sites, points, kind)


class TestResidualFloor:
    """The contact floor a bracket gives, against the scanned residuals."""

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_points=st.integers(1, 60),
           n_sites=st.integers(1, 12),
           spread=st.sampled_from([4 * CONTACT_RADIUS, 0.1]),
           moves=st.lists(st.tuples(
               st.sampled_from(["zero", "small", "large", "huge", "one",
                                "duplicate", "on_point"]), st.booleans()),
               min_size=1, max_size=8))
    def test_floor_bounds_the_scanned_residuals(self, seed, n_points,
                                                n_sites, spread, moves):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-spread, spread, size=(n_points, 3))
        sites = rng.uniform(-spread, spread, size=(n_sites, 3))
        # targets at the ends of [0, 1] and inside it
        target = np.where(rng.random(n_points) < 0.3,
                          rng.integers(0, 2, n_points).astype(float),
                          rng.uniform(size=n_points))
        query = CertifiedNearestSite(points)
        accepted = sites
        for kind, accept in [("zero", True), *moves]:
            trial = _trial(rng, accepted, points, kind)
            dist, rows, lower = query.bracket(trial)
            dist, lower = dist.copy(), lower.copy()
            floor = _residual_floor(dist, lower, target)
            d, _ = query.scan()
            exact = np.abs(contact_likelihood(d) - target)
            assert np.all(floor <= exact)
            certified = np.ones(n_points, dtype=bool)
            certified[rows] = False
            assert floor[certified].tobytes() == exact[certified].tobytes()
            assert np.mean(floor) <= np.mean(exact)
            if accept:
                query.accept()
                accepted = trial


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

    def test_duplicated_hand_point_labels_with_the_lower_index(self,
                                                               small_sphere):
        hand_pt = small_sphere.points[3] + 0.5 * CONTACT_RADIUS * small_sphere.normals[3]
        far = [0.0, 0.0, 1.0]
        for parts, label in (([6, 9], 6), ([9, 6], 9)):
            state = contact_map_from_hand(small_sphere, [far, hand_pt, hand_pt],
                                          [2, *parts])
            assert state.likelihood[3] == 1.0
            assert state.part_label[3] == label

    def test_empty_hand(self, small_sphere):
        with pytest.raises(ValueError, match="hand surface sample set is empty"):
            contact_map_from_hand(small_sphere, np.zeros((0, 3)), np.zeros(0, dtype=int))
