import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from grasp_eq import keypoints
from grasp_eq.equilibrium import (QP_TOL, assemble, energy_lower_bounds,
                                  stability_energy)
from grasp_eq.errors import SolverError
from grasp_eq.keypoints import (KeypointSet, PartCluster, cluster_contacts,
                                find_keypoints, make_targets, select_clusters,
                                select_keypoints)
from grasp_eq.scene import ContactState, ObjectModel
from grasp_eq.synth import SyntheticScene, generate_contacts, generate_scene

from conftest import random_contacts, sphere_object
from test_acceptance import _random_representatives


def state_from_patches(obj, patches):
    """patches: list of (part, point indices, per-point force)."""
    likelihood = np.zeros(obj.n_points)
    labels = np.zeros(obj.n_points, dtype=int)
    force = np.zeros(obj.n_points)
    for part, idx, f in patches:
        likelihood[idx] = 1.0
        labels[idx] = part
        force[idx] = f
    return ContactState(likelihood=likelihood, part_label=labels, force=force)


def plate_object(seed=0, lx=0.2, ly=0.2, lz=0.005, count=512):
    rng = np.random.default_rng(seed)
    half = np.array([lx, ly, lz]) / 2
    faces = rng.integers(0, 2, size=count)  # only the two big faces
    pts = np.empty((count, 3))
    normals = np.zeros((count, 3))
    pts[:, 0] = rng.uniform(-half[0], half[0], count)
    pts[:, 1] = rng.uniform(-half[1], half[1], count)
    pts[:, 2] = np.where(faces == 0, half[2], -half[2])
    normals[:, 2] = np.where(faces == 0, 1.0, -1.0)
    return ObjectModel(points=pts, normals=normals, com=np.zeros(3))


def cluster_system_energy(obj, clusters_list):
    points = np.array([c.center for c in clusters_list])
    normals = np.array([c.normal for c in clusters_list])
    forces = np.array([c.force for c in clusters_list])
    return stability_energy(assemble(obj, points, normals, forces)).energy


class TestClustering:
    def test_single_connected_patch(self, small_sphere):
        idx = np.arange(5)
        state = state_from_patches(small_sphere, [(3, idx, 1.0)])
        clusters = cluster_contacts(small_sphere, state, radius=1.0)
        assert list(clusters) == [3]
        assert len(clusters[3]) == 1
        assert set(clusters[3][0].indices) == set(idx)

    def test_single_point_part(self, small_sphere):
        state = state_from_patches(small_sphere, [(3, np.array([7]), 2.0)])
        clusters = cluster_contacts(small_sphere, state, radius=0.01)
        assert len(clusters[3]) == 1
        assert clusters[3][0].indices.tolist() == [7]
        assert clusters[3][0].force == 2.0

    def test_two_separated_groups(self):
        pts = np.array([[0.05, 0, 0], [0.052, 0.001, 0], [-0.05, 0, 0], [-0.052, -0.001, 0]])
        normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        obj = ObjectModel(points=pts, normals=normals, com=np.zeros(3))
        state = state_from_patches(obj, [(2, np.arange(4), 1.0)])
        clusters = cluster_contacts(obj, state, radius=0.01)
        assert len(clusters[2]) == 2

    def test_thumb_patches_on_thin_plate(self):
        obj = plate_object()
        top = np.flatnonzero(obj.normals[:, 2] > 0)[:10]
        bottom = np.flatnonzero(obj.normals[:, 2] < 0)[:10]
        state = state_from_patches(obj, [(2, top, 1.0), (2, bottom, 1.0)])
        clusters = cluster_contacts(obj, state, radius=0.004)
        assert len(clusters[2]) >= 2

    def test_partition_property(self, small_sphere):
        rng = np.random.default_rng(12)
        mask = rng.uniform(size=small_sphere.n_points) < 0.2
        labels = np.where(mask, rng.integers(1, 5, small_sphere.n_points), 0)
        force = np.where(labels > 0, rng.uniform(0.5, 2.0, small_sphere.n_points), 0.0)
        state = ContactState(likelihood=(labels > 0).astype(float),
                             part_label=labels, force=force)
        clusters = cluster_contacts(small_sphere, state, radius=0.02)
        for part, group in clusters.items():
            members = np.concatenate([c.indices for c in group])
            expected = np.flatnonzero((labels == part) & (force > 0))
            assert sorted(members) == sorted(expected)
            assert len(members) == len(set(members))

    def test_cluster_aggregates(self, small_sphere):
        idx = np.array([0, 1, 2])
        force = np.zeros(small_sphere.n_points)
        force[idx] = [1.0, 2.0, 3.0]
        state = ContactState(likelihood=(force > 0).astype(float),
                             part_label=np.where(force > 0, 4, 0), force=force)
        clusters = cluster_contacts(small_sphere, state, radius=1.0)
        cluster = clusters[4][0]
        weights = force[idx] / force[idx].sum()
        assert cluster.force == pytest.approx(6.0)
        assert_allclose(cluster.center, weights @ small_sphere.points[idx], atol=1e-9)
        assert np.linalg.norm(cluster.normal) == pytest.approx(1.0)


def per_part_clusters(obj, contacts, radius):
    """Reference: one neighbour pass per part, as clustering ran before it
    took all parts at once."""
    out = {}
    mask = contacts.contact_mask
    for part in np.unique(contacts.part_label[mask]):
        idx = np.flatnonzero(mask & (contacts.part_label == part))
        pairs = cKDTree(obj.points[idx]).query_pairs(radius,
                                                     output_type="ndarray")
        graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                           shape=(len(idx), len(idx)))
        _, labels = connected_components(graph, directed=False)
        clusters = [keypoints._make_cluster(part, idx[labels == lab], obj,
                                            contacts.force)
                    for lab in np.unique(labels)]
        clusters.sort(key=lambda c: int(c.indices[0]))
        out[int(part)] = clusters
    return out


def assert_same_clusters(got, expected):
    assert list(got) == list(expected)
    for part in expected:
        assert len(got[part]) == len(expected[part])
        for a, b in zip(got[part], expected[part]):
            assert a.part == b.part == part
            assert np.array_equal(a.indices, b.indices)
            assert a.force == b.force
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.normal, b.normal)


def acceptance7_scenes():
    """Acceptance 7's 50 scenes: shape, scene seed and patch count."""
    rng = np.random.default_rng(707)
    for trial in range(50):
        shape = ("sphere", "box", "cylinder")[trial % 3]
        dims = {"sphere": (0.05,), "box": (0.09, 0.09, 0.09),
                "cylinder": (0.04, 0.11)}[shape]
        obj = generate_scene(SyntheticScene(shape, dims, 1024, seed=trial))
        yield obj, generate_contacts(obj, "random", seed=trial,
                                     n_patches=int(rng.integers(4, 9)))


class TestOnePassClustering:
    """Clustering every part in one pass gives the per-part result."""

    def test_matches_per_part_on_acceptance_scenes(self):
        radius = keypoints.DEFAULT_CLUSTER_RADIUS
        for obj, contacts in acceptance7_scenes():
            assert_same_clusters(cluster_contacts(obj, contacts, radius),
                                 per_part_clusters(obj, contacts, radius))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_points=st.integers(1, 60),
           n_parts=st.integers(1, 5), spread=st.floats(0.002, 0.05),
           radius=st.floats(0.001, 0.02), zero_share=st.floats(0.0, 0.5))
    def test_matches_per_part_on_random_states(self, seed, n_points, n_parts,
                                               spread, radius, zero_share):
        # points of all parts mixed in one box, often closer than the radius
        rng = np.random.default_rng(seed)
        points = rng.uniform(-spread, spread, (n_points, 3))
        normals = rng.normal(size=(n_points, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        obj = ObjectModel(points=points, normals=normals, com=np.zeros(3))
        labels = rng.integers(1, n_parts + 1, n_points)
        force = rng.uniform(0.1, 3.0, n_points) * (
            rng.uniform(size=n_points) >= zero_share)
        state = ContactState(likelihood=np.ones(n_points), part_label=labels,
                             force=force)
        assert_same_clusters(cluster_contacts(obj, state, radius=radius),
                             per_part_clusters(obj, state, radius))

    def test_interleaved_parts_do_not_merge(self):
        # a row at 0.6 radius spacing alternating parts 2 and 5: neighbours
        # of one part are 1.2 radius apart, so every point stands alone
        count = 8
        points = np.zeros((count, 3))
        points[:, 0] = 0.006 * np.arange(count)
        normals = np.tile([0.0, 0.0, 1.0], (count, 1))
        obj = ObjectModel(points=points, normals=normals, com=np.zeros(3))
        labels = np.where(np.arange(count) % 2 == 0, 2, 5)
        state = ContactState(likelihood=np.ones(count), part_label=labels,
                             force=np.ones(count))
        clusters = cluster_contacts(obj, state, radius=0.01)
        assert list(clusters) == [2, 5]
        assert [c.indices.tolist() for c in clusters[2]] == [[0], [2], [4],
                                                             [6]]
        assert [c.indices.tolist() for c in clusters[5]] == [[1], [3], [5],
                                                             [7]]
        assert_same_clusters(clusters, per_part_clusters(obj, state, 0.01))

    def test_empty_state(self, small_sphere):
        state = state_from_patches(small_sphere, [])
        assert cluster_contacts(small_sphere, state) == {}

    def test_one_tree_and_one_component_pass(self, monkeypatch):
        obj, contacts = next(acceptance7_scenes())
        parts = np.unique(contacts.part_label[contacts.contact_mask])
        assert len(parts) >= 4
        calls = {"cKDTree": 0, "connected_components": 0}
        for name in calls:
            def counted(*args, _fn=getattr(keypoints, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(keypoints, name, counted)
        cluster_contacts(obj, contacts)
        assert calls == {"cKDTree": 1, "connected_components": 1}

    @pytest.mark.parametrize("radius", [True, 0.0, -0.01])
    def test_rejects_bad_radius(self, small_sphere, radius):
        state = state_from_patches(small_sphere, [(3, np.arange(3), 1.0)])
        with pytest.raises(ValueError, match="cluster_radius"):
            cluster_contacts(small_sphere, state, radius=radius)


class TestSelectClusters:
    def test_identity_when_single(self, small_sphere):
        state = state_from_patches(small_sphere, [(3, np.arange(4), 1.0)])
        clusters = cluster_contacts(small_sphere, state, radius=1.0)
        reps = select_clusters(clusters, small_sphere)
        assert reps[3] is clusters[3][0]

    def test_thumb_picks_opposing_side(self):
        # fingers press down on the top of a plate; the thumb has patches on
        # both faces and must pick the bottom one to oppose them
        obj = plate_object()
        top = obj.normals[:, 2] > 0
        near = np.linalg.norm(obj.points[:, :2] - [0.0, 0.02], axis=1) < 0.03
        fingers1 = np.flatnonzero(top & near)[:8]
        near2 = np.linalg.norm(obj.points[:, :2] - [0.02, -0.02], axis=1) < 0.03
        fingers2 = np.flatnonzero(top & near2 & ~np.isin(np.arange(obj.n_points), fingers1))[:8]
        central = np.linalg.norm(obj.points[:, :2], axis=1) < 0.04
        thumb_top = np.flatnonzero(top & central
                                   & ~np.isin(np.arange(obj.n_points), np.concatenate([fingers1, fingers2])))[:8]
        thumb_bottom = np.flatnonzero(~top & central)[:8]
        state = state_from_patches(obj, [
            (5, fingers1, 2.0), (8, fingers2, 2.0),
            (2, np.concatenate([thumb_top, thumb_bottom]), 2.0)])
        clusters = cluster_contacts(obj, state, radius=0.004)
        assert len(clusters[2]) >= 2
        reps = select_clusters(clusters, obj)
        # independent check: the chosen thumb cluster must achieve the least
        # energy among candidates given the other representatives
        others = [reps[5], reps[8]]
        energies = [cluster_system_energy(obj, [c] + others) for c in clusters[2]]
        best = int(np.argmin(energies))
        assert reps[2] is clusters[2][best]
        # bottom-face cluster: outward normal points down, force pushes up
        assert reps[2].normal[2] < 0

    def test_requires_nonempty(self, small_sphere):
        with pytest.raises(ValueError):
            select_clusters({}, small_sphere)


class TestSelectKeypoints:
    def test_forced_when_three_parts(self, small_sphere):
        state = state_from_patches(small_sphere, [
            (2, np.array([0, 1]), 1.0), (5, np.array([10, 11]), 1.0),
            (8, np.array([20, 21]), 1.0)])
        clusters = cluster_contacts(small_sphere, state, radius=1.0)
        reps = select_clusters(clusters, small_sphere)
        kps = select_keypoints(reps, small_sphere, n_kp=3)
        assert kps.parts == (2, 5, 8)
        direct = cluster_system_energy(small_sphere, [reps[p] for p in kps.parts])
        assert kps.energy == pytest.approx(direct, abs=1e-6)

    def test_finds_unique_stable_triple(self):
        # bottom support + two side pinch patches, plus two junk contacts
        pts = np.array([
            [0.0, 0.0, -0.05], [0.05, 0.0, 0.0], [-0.05, 0.0, 0.0],
            [0.02, 0.03, 0.035], [-0.01, -0.04, 0.03]])
        normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        filler = np.random.default_rng(0).normal(size=(32, 3))
        filler /= np.linalg.norm(filler, axis=1, keepdims=True)
        obj = ObjectModel(points=np.vstack([pts, 0.05 * filler]),
                          normals=np.vstack([normals, filler]), com=np.zeros(3))
        force = np.zeros(obj.n_points)
        force[:5] = [9.81, 3.0, 3.0, 0.05, 0.05]
        labels = np.zeros(obj.n_points, dtype=int)
        labels[:5] = [2, 5, 8, 11, 14]
        state = ContactState(likelihood=(force > 0).astype(float),
                             part_label=labels, force=force)
        clusters = cluster_contacts(obj, state, radius=0.001)
        reps = select_clusters(clusters, obj)
        kps = select_keypoints(reps, obj, n_kp=3)
        # independent exhaustive re-enumeration
        best = None
        for combo in itertools.combinations(sorted(reps), 3):
            energy = cluster_system_energy(obj, [reps[p] for p in combo])
            if best is None or energy < best[1]:
                best = (combo, energy)
        assert kps.parts == best[0]
        assert kps.parts == (2, 5, 8)
        assert kps.energy < 1e-6

    def test_exhaustiveness_property(self, small_sphere):
        rng = np.random.default_rng(44)
        state = state_from_patches(small_sphere, [
            (p, np.array([10 * p, 10 * p + 1]), float(rng.uniform(1, 4)))
            for p in (2, 4, 6, 9, 12)])
        clusters = cluster_contacts(small_sphere, state, radius=1.0)
        reps = select_clusters(clusters, small_sphere)
        kps = select_keypoints(reps, small_sphere, n_kp=3)
        for combo in itertools.combinations(sorted(reps), 3):
            energy = cluster_system_energy(small_sphere, [reps[p] for p in combo])
            assert kps.energy <= energy + 1e-6

    def test_lexicographic_tie_break(self):
        # parts 2 and 9 carry a bottom-support contact and 5, 7 a side pinch,
        # so the triples (2,5,7) and (5,7,9) both hold the object exactly;
        # enumeration order must make the smaller tuple win.  The first
        # input makes the ties bit-identical; in the second the supports sit
        # off-centre, so the two exact zeros differ by rounding noise
        # (about 9e-27 against 4e-28), which must not decide the pick
        for (off2, off9, pinch) in (((0.0, 0.0), (0.0, 0.0), 0.5),
                                    ((-0.008, -0.008), (-0.004, -0.008), 1.5)):
            pts = np.array([[off2[0], off2[1], -0.05], [off9[0], off9[1], -0.05],
                            [0.05, 0.0, 0.0], [-0.05, 0.0, 0.0],
                            [0.0, 0.05, 0.0], [0.0, -0.05, 0.0]])
            normals = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, -1.0],
                                [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
            obj = ObjectModel(points=pts, normals=normals, com=np.zeros(3))
            state = state_from_patches(obj, [
                (2, np.array([0]), 9.81), (9, np.array([1]), 9.81),
                (5, np.array([2]), pinch), (7, np.array([3]), pinch)])
            clusters = cluster_contacts(obj, state, radius=1e-9)
            reps = select_clusters(clusters, obj)
            kps = select_keypoints(reps, obj, n_kp=3)
            swapped = cluster_system_energy(obj, [reps[p] for p in (5, 7, 9)])
            assert kps.energy == pytest.approx(swapped, abs=1e-9)
            assert kps.parts == (2, 5, 7)

    def test_keeps_all_when_few(self, small_sphere):
        state = state_from_patches(small_sphere, [(3, np.array([0, 1]), 1.0),
                                                  (6, np.array([5, 6]), 2.0)])
        clusters = cluster_contacts(small_sphere, state, radius=1.0)
        reps = select_clusters(clusters, small_sphere)
        kps = select_keypoints(reps, small_sphere, n_kp=3)
        assert kps.parts == (3, 6)

    @pytest.mark.parametrize("n_kp", [0, -2])
    def test_rejects_fewer_than_one(self, small_sphere, n_kp):
        state = state_from_patches(small_sphere, [(3, np.array([0, 1]), 1.0)])
        reps = select_clusters(cluster_contacts(small_sphere, state), small_sphere)
        with pytest.raises(ValueError, match="n_kp"):
            select_keypoints(reps, small_sphere, n_kp=n_kp)

    def test_deterministic(self, small_sphere):
        rng = np.random.default_rng(3)
        state = state_from_patches(small_sphere, [
            (p, np.arange(5 * p, 5 * p + 3), float(rng.uniform(1, 3)))
            for p in (2, 5, 7, 10, 13)])
        clusters = cluster_contacts(small_sphere, state, radius=0.02)
        reps = select_clusters(clusters, small_sphere)
        a = select_keypoints(reps, small_sphere)
        b = select_keypoints(select_clusters(cluster_contacts(small_sphere, state, radius=0.02),
                                             small_sphere), small_sphere)
        assert a.parts == b.parts
        assert_allclose(a.centers, b.centers)
        assert a.energy == b.energy


def exhaustive_keypoints(reps, obj, n_kp):
    """Reference: solve every combination, as the search did before it
    pruned by bounds.  Looks up ``keypoints.stability_energy`` at call time,
    so a patched solver serves both."""
    chosen, best = None, np.inf
    for combo in itertools.combinations(sorted(reps), min(n_kp, len(reps))):
        group = [reps[p] for p in combo]
        sys = assemble(obj, np.array([c.center for c in group]),
                       np.array([c.normal for c in group]),
                       np.array([c.force for c in group]))
        try:
            energy = keypoints.stability_energy(sys).energy
        except SolverError as err:
            energy = err.result.energy
        if energy < best - QP_TOL:
            chosen, best = combo, energy
    return chosen, best


def exhaustive_clusters(clusters, obj):
    """Reference for select_clusters: every candidate solved."""
    parts = sorted(clusters)
    reps = {p: max(clusters[p], key=lambda c: c.force) for p in parts}
    for p in parts:
        if len(clusters[p]) == 1:
            continue
        others = [reps[q] for q in parts if q != p]
        best, best_energy = None, np.inf
        for cand in clusters[p]:
            energy = cluster_system_energy(obj, [cand] + others)
            if energy < best_energy - QP_TOL:
                best, best_energy = cand, energy
        reps[p] = best
    return reps


def random_cluster(rng, part, radius=0.05):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return PartCluster(part=part, indices=np.array([0]),
                       center=radius * direction,
                       force=float(rng.uniform(0.5, 8.0)), normal=direction)


def held_reps():
    """Parts 2 and 9 each hold the sphere from below, and 5, 7 pinch it
    hard enough for friction alone to hold it; 11, 13 are a light pinch.
    So for every n_kp from 1 to 4 some subsets have zero energy."""
    def point(part, p, n, f):
        return PartCluster(part=part, indices=np.array([0]),
                           center=np.array(p, dtype=float),
                           force=f, normal=np.array(n, dtype=float))
    return {2: point(2, (0, 0, -0.05), (0, 0, -1), 9.81),
            5: point(5, (0.05, 0, 0), (1, 0, 0), 5.0),
            7: point(7, (-0.05, 0, 0), (-1, 0, 0), 5.0),
            9: point(9, (0, 0, -0.05), (0, 0, -1), 9.81),
            11: point(11, (0, 0.05, 0), (0, 1, 0), 1.0),
            13: point(13, (0, -0.05, 0), (0, -1, 0), 1.0)}


class TestPrunedSearch:
    """The bound-pruned searches return what solving every candidate does."""

    @pytest.mark.parametrize("n_kp", [1, 2, 3, 4])
    def test_matches_exhaustive_on_random_sets(self, small_sphere, n_kp):
        rng = np.random.default_rng(1300 + n_kp)
        for _ in range(25):
            reps = _random_representatives(rng, small_sphere,
                                           int(rng.integers(1, 10)))
            kps = select_keypoints(reps, small_sphere, n_kp=n_kp)
            parts, energy = exhaustive_keypoints(reps, small_sphere, n_kp)
            assert kps.parts == parts
            assert kps.energy == energy

    @pytest.mark.parametrize("n_kp", [1, 2, 3, 4])
    def test_ties_between_duplicated_clusters(self, small_sphere, n_kp):
        # parts 17 and 18 copy the first and third parts, so subsets tie
        # bit for bit and the earlier must win
        rng = np.random.default_rng(1400 + n_kp)
        for _ in range(10):
            reps = _random_representatives(rng, small_sphere, 6)
            parts = sorted(reps)
            for src, dst in ((parts[0], 17), (parts[2], 18)):
                reps[dst] = replace(reps[src], part=dst)
            kps = select_keypoints(reps, small_sphere, n_kp=n_kp)
            assert (kps.parts, kps.energy) == exhaustive_keypoints(
                reps, small_sphere, n_kp)

    @pytest.mark.parametrize("n_kp", [1, 2, 3, 4])
    def test_zero_energy_set(self, small_sphere, n_kp):
        reps = held_reps()
        kps = select_keypoints(reps, small_sphere, n_kp=n_kp)
        assert kps.energy < 1e-20  # held exactly, up to rounding
        assert (kps.parts, kps.energy) == exhaustive_keypoints(
            reps, small_sphere, n_kp)

    @pytest.mark.parametrize("n_kp", [1, 2, 3, 4])
    def test_solver_error_energy_takes_part(self, small_sphere, monkeypatch,
                                            n_kp):
        # every solve raises; the best iterate's energy, raised by the
        # first contact's force so that the winner changes, must decide
        def failing(sys):
            res = stability_energy(sys)
            raise SolverError("not converged", result=replace(
                res, energy=res.energy + float(sys.forces[0])))

        monkeypatch.setattr(keypoints, "stability_energy", failing)
        rng = np.random.default_rng(1500 + n_kp)
        sets = [held_reps()] + [_random_representatives(rng, small_sphere, 7)
                                for _ in range(10)]
        for reps in sets:
            kps = select_keypoints(reps, small_sphere, n_kp=n_kp)
            assert (kps.parts, kps.energy) == exhaustive_keypoints(
                reps, small_sphere, n_kp)

    def test_select_clusters_matches_exhaustive(self, small_sphere):
        rng = np.random.default_rng(1600)
        for _ in range(20):
            parts = rng.choice(np.arange(1, 17), size=int(rng.integers(1, 6)),
                               replace=False)
            clusters = {int(p): [random_cluster(rng, int(p)) for _ in
                                 range(int(rng.integers(1, 4)))]
                        for p in parts}
            first = sorted(clusters)[0]
            # a copy of the first cluster ties it exactly; the first must win
            clusters[first].append(replace(clusters[first][0]))
            reps = select_clusters(clusters, small_sphere)
            expected = exhaustive_clusters(clusters, small_sphere)
            assert {p: id(c) for p, c in reps.items()} == {
                p: id(c) for p, c in expected.items()}

    def test_full_hand_solves_few(self, monkeypatch):
        # acceptance 7's |H| = 16 set: 560 combinations, one system
        obj = sphere_object()
        reps16 = _random_representatives(np.random.default_rng(708), obj, 16)
        calls = {"assemble": 0, "stability_energy": 0}
        for name in calls:
            def counted(*args, _fn=getattr(keypoints, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(keypoints, name, counted)
        select_keypoints(reps16, obj, n_kp=3)
        assert calls["assemble"] == 1
        assert calls["stability_energy"] <= 15

    def test_logs_one_line_per_search(self, caplog):
        obj = sphere_object()
        reps16 = _random_representatives(np.random.default_rng(708), obj, 16)
        caplog.set_level(logging.DEBUG, logger="grasp_eq")
        kps = select_keypoints(reps16, obj, n_kp=3)
        records = [r for r in caplog.records if r.name == "grasp_eq"]
        assert len(records) == 1
        message = records[0].getMessage()
        assert "560 candidates" in message
        solved = int(message.split(" solved")[0].rsplit(" ", 1)[1])
        assert f"{560 - solved} skipped" in message
        assert f"best energy {kps.energy:.3e}" in message


class TestEnergyBound:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(n=st.integers(1, 6), collinear=st.booleans(),
           mu=st.floats(0.0, 1.5), seed=st.integers(0, 2 ** 32 - 1))
    def test_bound_is_sound_and_vectorized_exactly(self, n, collinear, mu,
                                                   seed):
        rng = np.random.default_rng(seed)
        obj = sphere_object(seed=seed % 1000)
        points, normals, forces = random_contacts(rng, obj, n)
        if collinear:
            direction = normals[0]
            points = np.outer(rng.uniform(-0.05, 0.05, n), direction)
        sys = assemble(obj, points, normals, forces, mu=mu)
        assert (energy_lower_bounds(sys, sys.forces)
                <= stability_energy(sys).energy + 1e-12)
        k = int(rng.integers(1, n + 1))
        candidates = np.array(list(itertools.combinations(range(n), k)))
        vectorized = keypoints._candidate_bounds(sys, candidates)
        for bound, cols in zip(vectorized, candidates):
            sub = sys.take(cols)
            assert_allclose(bound, energy_lower_bounds(sub, sub.forces),
                            rtol=1e-12, atol=0.0)


class TestFindKeypoints:
    def test_matches_chain(self, small_sphere):
        state = state_from_patches(small_sphere, [
            (p, np.arange(5 * p, 5 * p + 3), 1.0 + 0.5 * p) for p in (2, 5, 7, 10)])
        kps = find_keypoints(small_sphere, state, cluster_radius=0.02, n_kp=2,
                             target_offset=0.004)
        reps = select_clusters(cluster_contacts(small_sphere, state, radius=0.02),
                               small_sphere)
        manual = make_targets(select_keypoints(reps, small_sphere, n_kp=2),
                              r=0.004)
        assert kps.parts == manual.parts
        assert kps.energy == manual.energy
        assert np.array_equal(kps.targets, manual.targets)


class TestMakeTargets:
    def test_zero_offset(self, small_sphere):
        kps = KeypointSet(parts=(2,), centers=np.array([[0.0, 0.0, 0.05]]),
                          forces=np.array([1.0]), normals=np.array([[0.0, 0.0, 1.0]]),
                          targets=np.zeros((1, 3)), energy=0.0)
        assert_allclose(make_targets(kps, r=0.0).targets, kps.centers)

    def test_offset_along_normal(self):
        kps = KeypointSet(parts=(2,), centers=np.zeros((1, 3)),
                          forces=np.array([1.0]), normals=np.array([[0.0, 0.0, 1.0]]),
                          targets=np.zeros((1, 3)), energy=0.0)
        assert_allclose(make_targets(kps, r=0.005).targets, [[0.0, 0.0, 0.005]])

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), -0.001,
                                   "0.005", True])
    def test_rejects_bad_offset(self, r):
        kps = KeypointSet(parts=(2,), centers=np.zeros((1, 3)),
                          forces=np.array([1.0]),
                          normals=np.array([[0.0, 0.0, 1.0]]),
                          targets=np.zeros((1, 3)), energy=0.0)
        with pytest.raises(ValueError, match="offset"):
            make_targets(kps, r=r)

    def test_sphere_targets_radial(self, small_sphere):
        state = state_from_patches(small_sphere, [(4, np.array([0, 1, 2]), 1.0)])
        clusters = cluster_contacts(small_sphere, state, radius=1.0)
        reps = select_clusters(clusters, small_sphere)
        kps = make_targets(select_keypoints(reps, small_sphere), r=0.005)
        center_radius = np.linalg.norm(kps.centers[0])
        target_radius = np.linalg.norm(kps.targets[0])
        assert target_radius == pytest.approx(center_radius + 0.005, abs=1e-4)
