import json
import os
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grasp_eq import io as io_mod
from grasp_eq.batch import build_batch
from grasp_eq.equilibrium import assemble_from_contact_state, stability_energy
from grasp_eq.hand import HandPose
from grasp_eq.keypoints import KeypointSet
from grasp_eq.optimizer import (OptimizationConfig, OptimizationTrace,
                                TraceRecord, run_pipeline)
from grasp_eq.scene import _COORD_MAX, GRAVITY
from grasp_eq.synth import (MAX_SAMPLE_COUNT, SyntheticScene,
                            generate_contacts,
                            generate_scene)


class TestGenerateScene:
    def test_sphere_exact_radius(self):
        obj = generate_scene(SyntheticScene("sphere", (0.05,), 2048, seed=1))
        radii = np.linalg.norm(obj.points, axis=1)
        assert_allclose(radii, 0.05, atol=1e-12)
        assert_allclose(np.linalg.norm(obj.normals, axis=1), 1.0, atol=1e-12)
        assert obj.mass == 1.0

    def test_box_axis_aligned_normals(self):
        obj = generate_scene(SyntheticScene("box", (0.1, 0.1, 0.1), 512, seed=2))
        assert_allclose(np.abs(obj.normals).max(axis=1), 1.0)
        assert_allclose(np.abs(obj.normals).sum(axis=1), 1.0)

    def test_plate_face_fraction(self):
        obj = generate_scene(SyntheticScene("plate", (0.2, 0.2, 0.005), 4096, seed=3))
        on_big_faces = np.abs(obj.normals[:, 2]) == 1.0
        assert on_big_faces.mean() >= 0.9

    def test_cylinder_analytic_normals(self):
        obj = generate_scene(SyntheticScene("cylinder", (0.04, 0.1), 1024, seed=4))
        side = obj.normals[:, 2] == 0.0
        xy = np.linalg.norm(obj.points[side, :2], axis=1)
        assert_allclose(xy, 0.04, atol=1e-12)
        caps = ~side
        assert_allclose(np.abs(obj.points[caps, 2]), 0.05, atol=1e-12)

    def test_deterministic(self):
        a = generate_scene(SyntheticScene("sphere", (0.05,), 256, seed=9))
        b = generate_scene(SyntheticScene("sphere", (0.05,), 256, seed=9))
        assert np.array_equal(a.points, b.points)

    def test_validation(self):
        with pytest.raises(ValueError, match="sphere dimensions must be positive"):
            generate_scene(SyntheticScene("sphere", (-0.05,), 256))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sphere dimensions must be "
                                                 "positive and finite"):
                generate_scene(SyntheticScene("sphere", (bad,), 256))
        with pytest.raises(ValueError, match="sample_count must be at least 16"):
            generate_scene(SyntheticScene("sphere", (0.05,), 8))
        # the cap is accepted (build_batch checks it without sampling)
        assert build_batch(1, ["sphere"], 0, MAX_SAMPLE_COUNT)
        with pytest.raises(ValueError, match="sample_count must be at most "
                                             "1000000, got 1000001"):
            generate_scene(SyntheticScene("sphere", (0.05,), 1_000_001))
        with pytest.raises(ValueError, match=r"box dimensions must be "
                                             r"positive and finite, at most "
                                             r"3.35e\+153, got \(0.1, 1e\+154, 0.1\)"):
            generate_scene(SyntheticScene("box", (0.1, 1e154, 0.1), 256))
        # a dimension at the bound gives points the scene still accepts
        for shape, dims in (("sphere", 1), ("box", 3), ("cylinder", 2)):
            generate_scene(SyntheticScene(shape, (_COORD_MAX,) * dims, 256))
        with pytest.raises(ValueError, match="unknown shape 'torus'"):
            generate_scene(SyntheticScene("torus", (0.05,), 256))
        with pytest.raises(ValueError, match="box expects 3 dimensions, got 2"):
            generate_scene(SyntheticScene("box", (0.1, 0.1), 256))
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            generate_scene(SyntheticScene("sphere", (0.05,), 256, seed=-1))


class TestGenerateContacts:
    def test_tripod_structure(self):
        obj = generate_scene(SyntheticScene("sphere", (0.05,), 2048, seed=7))
        state = generate_contacts(obj, "tripod", seed=7)
        parts = sorted(set(state.part_label[state.contact_mask]))
        assert parts == [4, 7, 10]
        sys, _ = assemble_from_contact_state(obj, state)
        assert stability_energy(sys).energy < 1e-3

    def test_pinch_opposite_faces(self):
        obj = generate_scene(SyntheticScene("plate", (0.12, 0.12, 0.012), 2048, seed=3))
        state = generate_contacts(obj, "pinch", seed=3)
        mask = state.contact_mask
        thumb = mask & (state.part_label == 4)
        index = mask & (state.part_label == 7)
        assert thumb.sum() > 0 and index.sum() > 0
        assert np.all(obj.normals[thumb][:, 2] == 1.0)
        assert np.all(obj.normals[index][:, 2] == -1.0)

    def test_wrap_has_palm_and_fingers(self):
        obj = generate_scene(SyntheticScene("sphere", (0.05,), 2048, seed=5))
        state = generate_contacts(obj, "wrap", seed=5)
        parts = set(state.part_label[state.contact_mask])
        assert 1 in parts
        assert len(parts) >= 5

    def test_random_reproducible(self):
        obj = generate_scene(SyntheticScene("box", (0.09, 0.09, 0.09), 1024, seed=11))
        a = generate_contacts(obj, "random", seed=21)
        b = generate_contacts(obj, "random", seed=21)
        assert np.array_equal(a.force, b.force)
        assert np.array_equal(a.part_label, b.part_label)

    def test_random_patch_count_override(self):
        obj = generate_scene(SyntheticScene("sphere", (0.05,), 2048, seed=2))
        state = generate_contacts(obj, "random", seed=4, n_patches=6)
        parts = set(state.part_label[state.contact_mask])
        assert len(parts) == 6

    def test_style_infeasible_for_tiny_object(self):
        obj = generate_scene(SyntheticScene("sphere", (0.008,), 256, seed=1))
        with pytest.raises(ValueError, match="exceeds object bounding radius"):
            generate_contacts(obj, "tripod", seed=1)

    def test_halo_likelihood(self):
        obj = generate_scene(SyntheticScene("sphere", (0.05,), 2048, seed=7))
        state = generate_contacts(obj, "tripod", seed=7)
        mask = state.contact_mask
        assert np.all(state.likelihood[mask] == 1.0)
        # off-patch halo decays but stays positive
        assert state.likelihood[~mask].max() <= 1.0
        assert state.likelihood[~mask].min() > 0.0


class TestRoundTrips:
    def test_scene(self, tmp_path):
        obj = generate_scene(SyntheticScene("sphere", (0.05,), 128, seed=2))
        path = tmp_path / "scene.json"
        io_mod.save_scene(path, obj, gravity=(0.0, 0.0, -9.81))
        again, gravity = io_mod.load_scene(path)
        assert np.array_equal(again.points, obj.points)
        assert np.array_equal(again.normals, obj.normals)
        assert np.array_equal(gravity, GRAVITY)

    def test_contacts(self, tmp_path):
        obj = generate_scene(SyntheticScene("sphere", (0.05,), 512, seed=2))
        state = generate_contacts(obj, "tripod", seed=2)
        path = tmp_path / "contacts.json"
        io_mod.save_contacts(path, state)
        again = io_mod.load_contacts(path)
        assert np.array_equal(again.likelihood, state.likelihood)
        assert np.array_equal(again.force, state.force)
        assert np.array_equal(again.part_label, state.part_label)

    def test_pose(self, tmp_path):
        """pose.json, an output no verb reads, holds the pose's values
        exactly."""
        rng = np.random.default_rng(0)
        pose = HandPose(rotation=rng.normal(size=3) * 0.3,
                        translation=rng.normal(size=3) * 0.05,
                        angles=rng.uniform(-0.2, 1.0, 20), scale=1.07)
        path = tmp_path / "pose.json"
        io_mod.save_pose(path, pose)
        data = io_mod.load_json(path)
        again = np.r_[data["rot"], data["trans"], data["angles"],
                      data["scale"]]
        assert np.array_equal(again, pose.as_vector())

    def test_keypoints(self, tmp_path):
        """keypoints.json, an output no verb reads, holds the keypoint
        set's values exactly."""
        rng = np.random.default_rng(1)
        normals = rng.normal(size=(3, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        kps = KeypointSet(parts=(4, 7, 10), centers=rng.normal(size=(3, 3)),
                          forces=rng.uniform(0, 5, 3), normals=normals,
                          targets=rng.normal(size=(3, 3)), energy=0.123456789)
        path = tmp_path / "kp.json"
        io_mod.save_keypoints(path, kps)
        data = io_mod.load_json(path)
        assert tuple(data["parts"]) == kps.parts
        assert np.array_equal(data["centers"], kps.centers)
        assert data["energy"] == kps.energy

    def test_missing_key_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [[0, 0, 0]]}))
        with pytest.raises(ValueError):
            io_mod.load_scene(path)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        io_mod.dump_json(path, {"a": 1.0})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_atomic_write_mode_follows_umask(self, tmp_path):
        old_umask = os.umask(0o022)
        try:
            io_mod.dump_json(tmp_path / "out.json", {"a": 1.0})
            with open(tmp_path / "plain.json", "w") as handle:
                handle.write("{}")
        finally:
            os.umask(old_umask)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == {"out.json": 0o644, "plain.json": 0o644}

    def test_trace_csv(self, tmp_path):
        """trace.csv's columns are TraceRecord's fields, and each row reads
        back as its record."""
        trace = OptimizationTrace()
        trace.append(2, 0, 1.5, (1.5, 0.0, 0.0, 0.0))
        trace.append(3, 1, 0.25, (0.1, 0.05, 0.05, 0.05))
        trace.append(3, 2, 0.1 + 0.2, (1 / 3, 5e-324, 1e300, 2.0 ** -60))
        path = tmp_path / "trace.csv"
        io_mod.save_trace(path, trace)
        header, *rows = path.read_text().splitlines()
        assert header == "stage,iteration,total,kp,contact,penetration,reg"
        assert header.split(",") == [f.name for f in fields(TraceRecord)]
        assert len(rows) == len(trace.records) == 3
        for row, record in zip(rows, trace.records):
            stage, iteration, *values = row.split(",")
            assert TraceRecord(int(stage), int(iteration),
                               *map(float, values)) == record


class TestStrictLoads:
    """Contact files read every field as the JSON numbers it holds."""

    def _write(self, tmp_path, payload):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        return path

    def test_contact_part_labels_must_be_whole(self, tmp_path):
        payload = {"likelihood": [1.0, 0.0], "part_label": [1.5, 0],
                   "force": [1.0, 0.0]}
        with pytest.raises(ValueError, match="part_label entry must be a "
                                             "whole number, got 1.5"):
            io_mod.load_contacts(self._write(tmp_path, payload))
        payload["part_label"] = [2.0, 0]
        state = io_mod.load_contacts(self._write(tmp_path, payload))
        assert state.part_label.tolist() == [2, 0]
