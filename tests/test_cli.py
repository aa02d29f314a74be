import argparse
import contextlib
import io
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp_eq import cli
from grasp_eq import io as io_mod
from grasp_eq import keypoints
from grasp_eq.batch import build_batch, batch_report, penetration_curve
from grasp_eq.cli import build_parser, main
from grasp_eq.force_codec import build_binning, decode
from grasp_eq.optimizer import OptimizationConfig, run_pipeline


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.json"
    contacts = root / "contacts.json"
    code = main(["synth", "--shape", "sphere", "--dims", "0.05",
                 "--samples", "2048", "--seed", "7", "--style", "tripod",
                 "--scene-out", str(scene), "--contacts-out", str(contacts)])
    assert code == 0
    return scene, contacts


class TestCliBasics:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--nonsense"])
        assert info.value.code == 1

    def test_missing_input_exit_code(self, scene_files, capsys):
        scene, _ = scene_files
        assert main(["analyze", "--scene", str(scene),
                     "--contacts", "/nonexistent.json"]) == 2

    def test_corrupt_input_exit_code(self, tmp_path, scene_files, capsys):
        scene, _ = scene_files
        bad = tmp_path / "bad.json"
        # text that is not JSON, then bytes that are not text
        for content in (b"{not json", b"\xfa\xfb"):
            bad.write_bytes(content)
            assert main(["analyze", "--scene", str(scene),
                         "--contacts", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {bad}: ")
            assert str(scene) not in err

    @pytest.mark.parametrize("verb, flag, value, named", [
        ("synth", "--dims", "0.05,abc", "--dims"),
        ("synth", "--dims", "nan", "sphere dimensions"),
        ("synth", "--dims", "inf", "sphere dimensions"),
        ("synth", "--gravity", "0,0,x", "--gravity"),
        ("decode-force", "--scores", "[1,2", "--scores")])
    def test_unreadable_flag_value_is_refused_by_name(self, tmp_path, capsys,
                                                      verb, flag, value,
                                                      named):
        argv = {"synth": ["--shape", "sphere", "--dims", "0.05",
                          "--scene-out", str(tmp_path / "s.json")],
                "decode-force": ["-o", str(tmp_path / "out.json")]}[verb]
        assert main([verb, *argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and named in err
        assert "points" not in err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_output(self, scene_files, tmp_path, capsys):
        scene, contacts = scene_files
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--scene", str(scene), "--contacts",
                     str(contacts), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["energy"] < 1e-3
        assert len(data["accel"]) == 6
        assert data["loss"] >= 0.0
        assert len(data["gamma"]) == len(data["contact_indices"])

    def test_keypoints_output(self, scene_files, tmp_path, capsys):
        scene, contacts = scene_files
        out = tmp_path / "kp.json"
        assert main(["keypoints", "--scene", str(scene), "--contacts",
                     str(contacts), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["parts"] == [4, 7, 10]
        assert np.asarray(data["targets"]).shape == (3, 3)

    @pytest.mark.parametrize("n_kp", ["0", "-2"])
    def test_keypoints_rejects_nonpositive_n_kp(self, scene_files, tmp_path,
                                                capsys, n_kp):
        scene, contacts = scene_files
        assert main(["keypoints", "--scene", str(scene), "--contacts",
                     str(contacts), "--n-kp", n_kp,
                     "-o", str(tmp_path / "kp.json")]) == 2
        assert "n_kp" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, block", [
        ("encode-force", {"binning": {"s": 10.5}}),
        ("keypoints", {"n_kp": 2.5}),
    ])
    def test_rejects_non_integer_config_counts(self, scene_files, tmp_path,
                                               capsys, verb, block):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(block))
        inputs = (["--value", "1"] if verb == "encode-force"
                  else ["--scene", str(scene), "--contacts", str(contacts)])
        assert main([verb, "--config", str(cfg), *inputs,
                     "-o", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("block, field", [
        ({"mu": "1.0"}, "mu"),
        ({"n_kp": None}, "n_kp"),
        ({"cluster_radius": "x"}, "cluster_radius"),
        ({"cluster_radius": float("nan")}, "cluster_radius"),
        ({"cluster_radius": float("inf")}, "cluster_radius"),
        # JSON true and false load as bools, which Python counts as numbers
        ({"n_kp": True}, "n_kp"),
        ({"mu": True}, "mu"),
        ({"cluster_radius": True}, "cluster_radius"),
        ({"offset": float("nan")}, "offset"),
        ({"offset": "x"}, "offset"),
        ({"offset": True}, "offset"),
        ({"offset": -0.001}, "offset"),
    ], ids=["mu-string", "n_kp-null", "radius-string", "radius-nan",
            "radius-inf", "n_kp-bool", "mu-bool", "radius-bool", "offset-nan",
            "offset-string", "offset-bool", "offset-negative"])
    def test_keypoints_rejects_bad_config_value(self, scene_files, tmp_path,
                                                capsys, block, field):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(block))
        assert main(["keypoints", "--config", str(cfg), "--scene", str(scene),
                     "--contacts", str(contacts),
                     "-o", str(tmp_path / "kp.json")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "kp.json").exists()

    @pytest.mark.parametrize("verb", ["keypoints", "optimize"])
    def test_rejects_non_finite_offset_flag(self, scene_files, tmp_path,
                                            capsys, verb):
        scene, contacts = scene_files
        out = (["-o", str(tmp_path / "out.json")] if verb == "keypoints"
               else ["--out-dir", str(tmp_path / "out.json")])
        assert main([verb, "--scene", str(scene), "--contacts", str(contacts),
                     "--offset", "nan", *out]) == 2
        assert "offset" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv, block", [
        (["analyze", "--mu", "nan"], {}),
        (["analyze", "--mu", "inf"], {}),
        (["analyze"], {"mu": float("nan")}),
        (["synth", "--mu", "nan"], {}),
    ], ids=["analyze-nan", "analyze-inf", "config-nan", "synth-nan"])
    def test_rejects_non_finite_friction(self, scene_files, tmp_path, capfd,
                                         argv, block):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(block))
        if argv[0] == "synth":
            files = ["--shape", "sphere", "--dims", "0.05",
                     "--scene-out", str(tmp_path / "s.json"),
                     "--contacts-out", str(tmp_path / "c.json")]
        else:
            files = ["--scene", str(scene), "--contacts", str(contacts)]
        assert main([*argv, "--config", str(cfg), *files]) == 2
        out, err = capfd.readouterr()
        assert "friction" in err
        assert "DLASCL" not in out + err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("block", [{"n_kp": 0},
                                       {"optimizer": {"seed": 0}},
                                       {"optimizer": {"snapshot_interval": 10}},
                                       {"optimizer": {"step_size": 0.01}}])
    def test_optimize_rejects_bad_config(self, scene_files, tmp_path, capsys,
                                         block):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(block))
        out_dir = tmp_path / "opt"
        assert main(["optimize", "--config", str(cfg), "--scene", str(scene),
                     "--contacts", str(contacts),
                     "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, value", [
        ("w_c", float("nan")), ("w_pene", float("inf")),
        ("convergence_tol", -1e-9), ("convergence_tol", float("nan")),
        ("max_iters_stage3", 2.5), ("max_iters_stage3", True),
        ("w_kp", False)])
    def test_optimize_names_invalid_optimizer_value(self, scene_files,
                                                    tmp_path, capsys, name,
                                                    value):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {name: value}}))
        out_dir = tmp_path / "opt"
        assert main(["optimize", "--config", str(cfg), "--scene", str(scene),
                     "--contacts", str(contacts),
                     "--out-dir", str(out_dir)]) == 2
        assert name in capsys.readouterr().err
        assert not out_dir.exists()

    # JSON true and false would convert to 1.0 and 0.0 under float()
    @pytest.mark.parametrize("gravity", [[0, 0, True], [False, 0, -9.81],
                                         [0, 0, "-9.81"]],
                             ids=["true", "false", "string"])
    def test_analyze_rejects_non_number_gravity(self, scene_files, tmp_path,
                                                capsys, gravity):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gravity": gravity}))
        out = tmp_path / "a.json"
        assert main(["analyze", "--config", str(cfg), "--scene", str(scene),
                     "--contacts", str(contacts), "-o", str(out)]) == 2
        assert "gravity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["encode-force", "decode-force"])
    @pytest.mark.parametrize("field", ["temperature", "mu_log", "sigma_log"])
    def test_rejects_boolean_binning(self, tmp_path, capsys, verb, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"binning": {field: True}}))
        out = tmp_path / "out.json"
        inputs = (["--value", "1"] if verb == "encode-force"
                  else ["--scores", json.dumps([0.0, 1.0] + [0.0] * 8)])
        assert main([verb, "--config", str(cfg), *inputs,
                     "-o", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [True, [1.0, True], [False]],
                             ids=["scalar", "list", "false"])
    def test_encode_rejects_boolean_force(self, tmp_path, capsys, values):
        forces = tmp_path / "forces.json"
        forces.write_text(json.dumps(values))
        out = tmp_path / "out.json"
        assert main(["encode-force", "--input", str(forces),
                     "-o", str(out)]) == 2
        assert "force value" in capsys.readouterr().err
        assert not out.exists()

    # a scene file's gravity and mass are read outside the config checks
    @pytest.mark.parametrize("field,value", [("gravity", [0, 0, True]),
                                             ("gravity", [0, 0, "-9.81"]),
                                             ("mass", True)],
                             ids=["gravity-true", "gravity-string",
                                  "mass-true"])
    def test_analyze_rejects_non_number_scene_fields(self, scene_files,
                                                     tmp_path, capsys,
                                                     field, value):
        scene, contacts = scene_files
        data = json.loads(scene.read_text())
        data[field] = value
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "a.json"
        assert main(["analyze", "--scene", str(bad),
                     "--contacts", str(contacts), "-o", str(out)]) == 2
        assert f"scene {field}" in capsys.readouterr().err
        assert not out.exists()

    # below scene._MASS_MIN, 1e-300 was blamed on mu and 1e-310 on an
    # overflow that named no field
    @pytest.mark.parametrize("mass", [1e-300, 1e-310])
    def test_analyze_rejects_a_tiny_mass(self, scene_files, tmp_path, capsys,
                                         mass):
        scene, contacts = scene_files
        data = json.loads(scene.read_text())
        data["mass"] = mass
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "a.json"
        assert main(["analyze", "--scene", str(bad),
                     "--contacts", str(contacts), "-o", str(out)]) == 2
        assert "mass must be at least" in capsys.readouterr().err
        assert not out.exists()

    # each entry of the scene and contact arrays; a JSON true in place of
    # the value 1 would load as 1 under np.array(..., dtype=float)
    @pytest.mark.parametrize("name,field", [
        ("scene", "points"), ("scene", "normals"), ("scene", "com"),
        ("contact", "likelihood"), ("contact", "part_label"),
        ("contact", "force")])
    def test_analyze_rejects_boolean_array_entries(self, scene_files,
                                                   tmp_path, capsys, name,
                                                   field):
        files = dict(zip(("scene", "contact"), scene_files))
        data = json.loads(files[name].read_text())
        if field == "com":
            data["com"] = [0.0, 0.0, True]
        elif name == "scene":
            data[field][0] = [True, 0.0, 0.0]
        else:
            # a labelled, force-carrying point, so that 1 is a valid value
            i = int(np.flatnonzero(np.array(data["force"]) > 0)[0])
            data["likelihood"][i] = data["force"][i] = 1
            data["part_label"][i] = 1
            data[field][i] = True
        files[name] = tmp_path / "bad.json"
        files[name].write_text(json.dumps(data))
        out = tmp_path / "a.json"
        assert main(["analyze", "--scene", str(files["scene"]),
                     "--contacts", str(files["contact"]),
                     "-o", str(out)]) == 2
        assert f"{name} {field} must hold only numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", [1e300, -1e300, 2 ** 63, 2.0 ** 63])
    def test_analyze_rejects_part_labels_outside_int64(self, scene_files,
                                                       tmp_path, capsys,
                                                       label):
        scene, contacts = scene_files
        data = json.loads(contacts.read_text())
        data["part_label"][0] = label
        bad = tmp_path / "contacts.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "a.json"
        assert main(["analyze", "--scene", str(scene),
                     "--contacts", str(bad), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "contact part_label" in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["analyze", "keypoints"])
    def test_rejects_forces_whose_squares_overflow(self, scene_files,
                                                   tmp_path, capsys, verb):
        # at 1e200 times its forces, analyze once spun all QP iterations on
        # overflowed values and exited 3, and keypoints blamed the normals
        scene, contacts = scene_files
        data = json.loads(contacts.read_text())
        data["force"] = [f * 1e200 for f in data["force"]]
        bad = tmp_path / "contacts.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "a.json"
        assert main([verb, "--scene", str(scene),
                     "--contacts", str(bad), "-o", str(out)]) == 2
        assert ("input error: forces must be small enough that their "
                "squares sum" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("source", ["scores", "input"])
    def test_decode_rejects_boolean_scores(self, tmp_path, capsys, source):
        one_hot = [False, True] + [False] * 8
        if source == "scores":
            inputs = ["--scores", json.dumps(one_hot)]
        else:
            scores = tmp_path / "scores.json"
            scores.write_text(json.dumps([[0.0, 1.0] + [0.0] * 8, one_hot]))
            inputs = ["--input", str(scores)]
        out = tmp_path / "out.json"
        assert main(["decode-force", *inputs, "-o", str(out)]) == 2
        assert "score must hold only numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_encode_decode(self, capsys):
        assert main(["encode-force", "--value", "1.0"]) == 0
        encoded = json.loads(capsys.readouterr().out)
        assert encoded[5] == 1.0
        assert main(["decode-force", "--scores", json.dumps(encoded)]) == 0
        value = json.loads(capsys.readouterr().out)
        assert value == pytest.approx(np.exp(0.375))

    def test_decode_zero_exact(self, capsys):
        assert main(["encode-force", "--value", "0"]) == 0
        encoded = json.loads(capsys.readouterr().out)
        assert main(["decode-force", "--scores", json.dumps(encoded)]) == 0
        assert json.loads(capsys.readouterr().out) == 0.0

    def test_config_file(self, scene_files, tmp_path, capsys):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 0.5}))
        out = tmp_path / "a.json"
        assert main(["analyze", "--config", str(cfg), "--scene", str(scene),
                     "--contacts", str(contacts), "-o", str(out)]) == 0

    def test_optimize_outputs(self, scene_files, tmp_path, capsys):
        scene, contacts = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"max_iters_stage2": 30,
                                                 "max_iters_stage3": 30}}))
        out_dir = tmp_path / "opt"
        assert main(["optimize", "--config", str(cfg), "--scene", str(scene),
                     "--contacts", str(contacts), "--out-dir", str(out_dir)]) == 0
        for name in ("pose.json", "keypoints.json", "trace.csv", "evaluation.json"):
            assert (out_dir / name).exists()
        evaluation = json.loads((out_dir / "evaluation.json").read_text(),
                                parse_constant=pytest.fail)
        assert "residual" in evaluation["after"]
        stages = [line.split(",")[0] for line in
                  (out_dir / "trace.csv").read_text().splitlines()[1:]]
        stops = evaluation["stops"]
        assert sorted(stops) == ["2", "3"]
        for stage, stop in stops.items():
            assert stop["reason"] in ("tol", "backtrack", "cap")
            assert stop["iterations"] == stages.count(stage) - 1 <= 30
            assert stop["evaluations"] > stop["iterations"]
            assert stop["last_drop"] is None or stop["last_drop"] >= 0.0
        # with every weight at zero stage III starts at 0 and takes no step,
        # so its last drop is nan, written as null
        cfg.write_text(json.dumps({"optimizer": {
            "w_kp": 0.0, "w_c": 0.0, "w_pene": 0.0, "w_reg": 0.0}}))
        assert main(["optimize", "--config", str(cfg), "--scene", str(scene),
                     "--contacts", str(contacts), "--out-dir", str(out_dir)]) == 0
        evaluation = json.loads((out_dir / "evaluation.json").read_text(),
                                parse_constant=pytest.fail)
        assert evaluation["stops"]["3"] == {"reason": "tol", "iterations": 0,
                                            "evaluations": 1, "last_drop": None}

    def test_optimize_writes_each_steps_seconds(self, scene_files, tmp_path,
                                                capsys, monkeypatch):
        """evaluation.json's seconds: a positive wall time for each step
        of the pipeline, summing to no more than the pipeline's own."""
        scene, contacts = scene_files
        totals = []

        def timed_pipeline(*args, **kwargs):
            start = time.perf_counter()
            result = run_pipeline(*args, **kwargs)
            totals.append(time.perf_counter() - start)
            return result

        monkeypatch.setattr(cli, "run_pipeline", timed_pipeline)
        out_dir = tmp_path / "opt"
        assert main(["optimize", "--scene", str(scene), "--contacts",
                     str(contacts), "--out-dir", str(out_dir)]) == 0
        seconds = json.loads((out_dir / "evaluation.json").read_text(),
                             parse_constant=pytest.fail)["seconds"]
        assert list(seconds) == ["keypoints", "stage1", "stage2", "stage3",
                                 "report_before", "report_after"]
        assert all(value > 0.0 for value in seconds.values())
        assert sum(seconds.values()) <= totals[0]

    @pytest.mark.parametrize("argv", [
        ["analyze", "--scene", "{scene}", "--contacts", "{contacts}",
         "--seed", "1"],
        ["keypoints", "--scene", "{scene}", "--contacts", "{contacts}",
         "--seed", "1"],
        ["optimize", "--scene", "{scene}", "--contacts", "{contacts}",
         "--out-dir", "{out}", "--seed", "1"],
        ["encode-force", "--value", "1", "--mu", "2"],
        ["decode-force", "--scores", "[0,1,0]", "--bins", "3",
         "--gravity", "0,0,-1"],
        ["gradcheck", "--count", "1", "--config", "{scene}"],
    ], ids=lambda argv: argv[0])
    def test_verb_rejects_flag_it_ignores(self, scene_files, tmp_path, capsys,
                                          argv):
        scene, contacts = scene_files
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([a.format(scene=scene, contacts=contacts, out=out)
                  for a in argv])
        assert info.value.code == 1
        assert not out.exists()

    def test_help_lists_only_flags_read(self):
        shared = {"synth": "config seed gravity mu",
                  "analyze": "config gravity mu",
                  "keypoints": "config gravity mu",
                  "optimize": "config gravity mu",
                  "encode-force": "config", "decode-force": "config",
                  "gradcheck": "seed", "batch": "config seed gravity mu"}
        verbs = build_parser()._subparsers._group_actions[0].choices
        assert sorted(verbs) == sorted(shared)
        for verb, names in shared.items():
            text = verbs[verb].format_help()
            listed = {n for n in ("config", "seed", "gravity", "mu")
                      if f"--{n} " in text}
            assert listed == set(names.split()), verb

    @pytest.mark.parametrize("verb", ["analyze", "keypoints", "optimize"])
    @pytest.mark.parametrize("shorter", ["contacts", "scene"])
    def test_rejects_mismatched_scene_and_contacts(self, scene_files,
                                                   tmp_path, capsys, verb,
                                                   shorter):
        """A contact file without one entry per scene point exits 2, names
        both files and writes nothing, whichever of the two is shorter."""
        half = {"scene": tmp_path / "scene.json",
                "contacts": tmp_path / "contacts.json"}
        assert main(["synth", "--shape", "sphere", "--dims", "0.05",
                     "--samples", "1024", "--seed", "7", "--style", "tripod",
                     "--scene-out", str(half["scene"]),
                     "--contacts-out", str(half["contacts"])]) == 0
        files = dict(zip(("scene", "contacts"), scene_files))
        files[shorter] = half[shorter]
        out = tmp_path / "out"
        flag = "--out-dir" if verb == "optimize" else "-o"
        assert main([verb, "--scene", str(files["scene"]), "--contacts",
                     str(files["contacts"]), flag, str(out)]) == 2
        captured = capsys.readouterr()
        assert str(files["scene"]) in captured.err
        assert str(files["contacts"]) in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_encode_rejects_zero_bins(self, capsys):
        assert main(["encode-force", "--value", "1", "--bins", "0"]) == 2

    @pytest.mark.parametrize("source,count", [
        ("flag", 10 ** 9), ("config", 1e9), ("config", 1e300)])
    def test_encode_rejects_too_many_bins(self, tmp_path, capsys, source,
                                          count):
        if source == "flag":
            args = ["--bins", str(count)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"binning": {"s": count}}))
            args = ["--config", str(cfg)]
        assert main(["encode-force", "--value", "1", *args]) == 2
        err = capsys.readouterr().err
        assert "input error: bin count s must be at most 10000" in err
        assert repr(count) in err

    @pytest.mark.parametrize("size", [1e300, -1e300])
    def test_analyze_names_normals_too_large_to_square(self, scene_files,
                                                        tmp_path, capsys,
                                                        size):
        scene, contacts = scene_files
        data = json.loads(scene.read_text())
        data["normals"][0] = [size, 0.0, 0.0]
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "a.json"
        assert main(["analyze", "--scene", str(bad),
                     "--contacts", str(contacts), "-o", str(out)]) == 2
        assert "normals" in capsys.readouterr().err
        assert not out.exists()

    # Python's json reads these three non-standard literals
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["s", "mu_log", "sigma_log",
                                       "temperature"])
    @pytest.mark.parametrize("verb", ["encode-force", "decode-force"])
    def test_rejects_non_finite_binning(self, tmp_path, capsys, verb, field,
                                        value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"binning": {{"{field}": {value}}}}}')
        out = tmp_path / "out.json"
        inputs = (["--value", "2.0"] if verb == "encode-force"
                  else ["--scores", json.dumps([0.0, 1.0] + [0.0] * 8)])
        assert main([verb, "--config", str(cfg), *inputs,
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert (f"binning {field}" if field == "s" else field) in err
        assert not out.exists()

    @pytest.mark.parametrize("scores", ["5", "[[[0, 1, 0]]]"])
    def test_decode_rejects_scores_not_1d_or_2d(self, tmp_path, capsys,
                                               scores):
        out = tmp_path / "out.json"
        assert main(["decode-force", "--scores", scores, "--bins", "3",
                     "-o", str(out)]) == 2
        assert "scores" in capsys.readouterr().err
        assert not out.exists()

    def test_decode_2d_scores_and_temperature_flag(self, tmp_path, capsys):
        rows = np.random.default_rng(0).normal(size=(3, 10)).tolist()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"binning": {"temperature": 5.0}}))
        assert main(["decode-force", "--config", str(cfg), "--scores",
                     json.dumps(rows), "--temperature", "0.3"]) == 0
        binning = build_binning(10)
        assert json.loads(capsys.readouterr().out) == [
            decode(row, binning, 0.3) for row in rows]

    def test_gravity_flag(self, scene_files, tmp_path, capsys):
        scene, contacts = scene_files
        inputs = ["--scene", str(scene), "--contacts", str(contacts)]
        cfg = tmp_path / "cfg.json"
        outputs = []
        for gravity, flag in (([0.0, 0.0, -9.81], []),
                              ([0.0, 0.0, -5.0], []),
                              ([0.0, 0.0, -9.81], ["--gravity", "0,0,-5"])):
            cfg.write_text(json.dumps({"gravity": gravity}))
            assert main(["analyze", *inputs, "--config", str(cfg),
                         *flag]) == 0
            outputs.append(capsys.readouterr().out)
        # the flag wins over the config
        assert outputs[2] == outputs[1] != outputs[0]
        assert main(["analyze", *inputs, "--gravity", "0,-5"]) == 2
        assert ("--gravity expects 3 comma-separated values"
                in capsys.readouterr().err)

    def test_solver_error_exits_3(self, scene_files, monkeypatch, capsys):
        from grasp_eq import cli
        from grasp_eq.errors import SolverError

        def not_converged(sys):
            raise SolverError("stability QP not converged")
        monkeypatch.setattr(cli, "stability_energy", not_converged)
        scene, contacts = scene_files
        assert main(["analyze", "--scene", str(scene),
                     "--contacts", str(contacts)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "solver error: stability QP not converged\n"
        assert captured.out == ""

    # a square of 1e300 overflows; each field is named before any squaring
    @pytest.mark.parametrize("source, field", [
        ("scene", "points"), ("scene", "com"), ("scene", "gravity"),
        ("config", "gravity"), ("flag", "gravity")])
    def test_analyze_names_fields_too_large_to_square(self, scene_files,
                                                      tmp_path, capsys,
                                                      source, field):
        scene, contacts = scene_files
        data = json.loads(scene.read_text())
        argv = []
        if source == "scene":
            if field == "points":
                data["points"][3][1] = -1e300
            else:
                data[field] = [0.0, 0.0, 1e300]
        elif source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"gravity": [0.0, 0.0, 1e300]}))
            argv = ["--config", str(cfg)]
        else:
            argv = ["--gravity", "0,0,1e300"]
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "a.json"
        assert main(["analyze", "--scene", str(bad), "--contacts",
                     str(contacts), *argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and field in err
        assert "out of range" not in err
        assert not out.exists()

    def test_gradcheck_verb(self, capsys):
        assert main(["gradcheck", "--count", "3", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["loss_gradient"]["max_rel_err"] <= 1e-3

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_gradcheck_refuses_a_count_below_one(self, count, capsys):
        assert main(["gradcheck", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: count must be at least 1, got {count}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("verb", ["synth", "gradcheck", "batch"])
    def test_negative_seed_is_refused_by_name(self, verb, tmp_path, capsys):
        argv = {"synth": ["--shape", "sphere", "--dims", "0.05",
                          "--samples", "256",
                          "--scene-out", str(tmp_path / "s.json")],
                "gradcheck": ["--count", "1"],
                "batch": ["--count", "2", "--shapes", "sphere",
                          "--samples", "256", "--threads", "1",
                          "--out-dir", str(tmp_path / "batch")]}[verb]
        assert main([verb, "--seed", "-4", *argv]) == 2
        assert capsys.readouterr().err == (
            "input error: seed must be at least 0, got -4\n")
        # refused before any scene is built or any file written
        assert list(tmp_path.iterdir()) == []


def _verb_argv(verb, scene_files, out):
    """Arguments that run ``verb``, a verb that reads a config file, with
    every file it writes under the directory ``out``."""
    scene, contacts = scene_files
    inputs = ["--scene", str(scene), "--contacts", str(contacts)]
    return {
        "synth": ["--shape", "sphere", "--dims", "0.05", "--samples", "256",
                  "--scene-out", str(out / "s.json"),
                  "--contacts-out", str(out / "c.json")],
        "analyze": [*inputs, "-o", str(out / "out.json")],
        "keypoints": [*inputs, "-o", str(out / "out.json")],
        "optimize": [*inputs, "--out-dir", str(out / "opt")],
        "encode-force": ["--value", "1", "-o", str(out / "out.json")],
        "decode-force": ["--scores", json.dumps([0.0, 1.0] + [0.0] * 8),
                         "-o", str(out / "out.json")],
        "batch": ["--count", "1", "--shapes", "sphere", "--samples", "256",
                  "--threads", "1", "--out-dir", str(out / "batch")],
    }[verb]


CONFIG_VERBS = ("synth", "analyze", "keypoints", "optimize", "encode-force",
                "decode-force", "batch")


class TestConfigReader:
    @pytest.mark.parametrize("block, key", [
        ({"optimiser": {}}, "optimiser"), ({"binning": {"bins": 4}}, "bins"),
        ({"optimizer": {"w_kp": 1, "seed": 0}}, "seed")])
    @pytest.mark.parametrize("verb", CONFIG_VERBS)
    def test_undeclared_key_exits_2(self, scene_files, tmp_path, capsys,
                                    verb, block, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(block))
        out = tmp_path / "out"
        out.mkdir()
        assert main([verb, "--config", str(cfg),
                     *_verb_argv(verb, scene_files, out)]) == 2
        captured = capsys.readouterr()
        assert f"undeclared key {key!r}" in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_readme_config_is_the_defaults(self, tmp_path):
        """README's config example holds every declared key, each at its
        default: the reader accepts it and reads what no file gives."""
        from grasp_eq import cli

        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        text = readme.split("### Config file", 1)[1]
        text = text.split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads(text)
        assert example.keys() == cli._SCHEMA.keys()
        for block in ("binning", "optimizer"):
            assert sorted(example[block]) == sorted(cli._SCHEMA[block])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        read, default = (cli._settings(argparse.Namespace(config=path))
                         for path in (str(cfg), None))
        assert np.array_equal(read["physics"].pop("gravity"),
                              default["physics"].pop("gravity"))
        for key in ("physics", "keypoint", "temperature", "optimizer"):
            assert read[key] == default[key], key
        for field in ("s", "mu_log", "sigma_log"):
            assert (getattr(read["binning"], field)
                    == getattr(default["binning"], field)), field

    def test_synth_writes_both_files_or_neither(self, tmp_path, capsys):
        scene, contacts = tmp_path / "s.json", tmp_path / "c.json"
        assert main(["synth", "--gravity", "0,0,1e300", "--shape", "sphere",
                     "--dims", "0.05", "--samples", "256",
                     "--scene-out", str(scene),
                     "--contacts-out", str(contacts)]) == 2
        assert "gravity" in capsys.readouterr().err
        assert not scene.exists() and not contacts.exists()

    @pytest.mark.parametrize("shape, dims", [
        ("sphere", "1e200"), ("box", "0.1,0.1,3.4e153"),
        ("cylinder", "1e300,0.1")])
    def test_synth_names_dimensions_too_large_for_a_point(
            self, tmp_path, capsys, shape, dims):
        """The dimension is named, not the points sampled from it."""
        scene = tmp_path / "s.json"
        assert main(["synth", "--shape", shape, "--dims", dims,
                     "--samples", "256", "--scene-out", str(scene)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {shape} dimensions must be "
                              f"positive and finite, at most 3.35e+153, got (")
        assert "points" not in err
        assert not scene.exists()

    @pytest.mark.parametrize("verb", ["synth", "batch"])
    def test_sample_count_past_the_cap_is_refused_before_sampling(
            self, tmp_path, capsys, monkeypatch, verb):
        from grasp_eq import synth

        def sampled(*args):
            raise AssertionError("sampled a surface")
        for name in ("_sample_sphere", "_sample_box", "_sample_cylinder"):
            monkeypatch.setattr(synth, name, sampled)
        out = tmp_path / "out"
        argv = {"synth": ["--shape", "sphere", "--dims", "0.05",
                          "--scene-out", str(out)],
                "batch": ["--count", "1", "--threads", "1",
                          "--out-dir", str(out)]}[verb]
        assert main([verb, "--samples", "100000000000", *argv]) == 2
        assert capsys.readouterr().err == (
            "input error: sample_count must be at most 1000000, "
            "got 100000000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["synth", "analyze", "keypoints",
                                      "optimize", "batch"])
    def test_friction_too_large_names_mu(self, scene_files, tmp_path, capsys,
                                         verb):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 1e300}))
        out = tmp_path / "out"
        out.mkdir()
        assert main([verb, "--config", str(cfg),
                     *_verb_argv(verb, scene_files, out)]) == 2
        err = capsys.readouterr().err
        assert "friction coefficient mu 1e+300 is too large" in err
        assert "out of range" not in err
        if verb != "batch":  # a batch writes its reports on failures too
            assert list(out.iterdir()) == []

    # no mass bound alone can refuse this mass, since the friction columns
    # scale with 1/m times a total force that grows with the contact count
    @pytest.mark.parametrize("verb", ["analyze", "keypoints"])
    def test_friction_refusal_names_a_tiny_mass(self, tmp_path, capsys,
                                                verb):
        scene, contacts = tmp_path / "scene.json", tmp_path / "contacts.json"
        assert main(["synth", "--shape", "sphere", "--dims", "0.05",
                     "--samples", "256", "--style", "tripod",
                     "--scene-out", str(scene),
                     "--contacts-out", str(contacts)]) == 0
        data = json.loads(scene.read_text())
        data["mass"] = 3e-154
        scene.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main([verb, "--scene", str(scene), "--contacts", str(contacts),
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "friction coefficient mu 1.0 is too large" in err
        assert "mass" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("verb", ["keypoints", "optimize"])
    def test_offset_too_large_names_offset(self, scene_files, tmp_path,
                                           capsys, verb, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"offset": 1e300} if source == "config"
                                  else {}))
        flag = ["--offset", "1e300"] if source == "flag" else []
        out = tmp_path / "out"
        out.mkdir()
        assert main([verb, "--config", str(cfg), *flag,
                     *_verb_argv(verb, scene_files, out)]) == 2
        err = capsys.readouterr().err
        assert "keypoint offset must be a number from 0" in err
        assert "out of range" not in err
        assert list(out.iterdir()) == []

    @pytest.fixture(scope="class")
    def small_scene(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("small")
        files = root / "scene.json", root / "contacts.json"
        assert main(["synth", "--shape", "sphere", "--dims", "0.05",
                     "--samples", "256", "--scene-out", str(files[0]),
                     "--contacts-out", str(files[1])]) == 0
        return files

    @pytest.mark.parametrize("verb", ["keypoints", "optimize"])
    def test_offset_that_overflows_the_stages_names_offset(
            self, small_scene, tmp_path, capsys, verb):
        """3e153 passed the old bound on the offset, and stage III then
        overflowed in optimize while keypoints exited 0."""
        out = tmp_path / "out"
        out.mkdir()
        assert main([verb, "--offset", "3e153",
                     *_verb_argv(verb, small_scene, out)]) == 2
        err = capsys.readouterr().err
        assert "keypoint offset must be a number from 0 to 3.35e+149" in err
        assert "out of range" not in err
        assert list(out.iterdir()) == []

    def test_offset_at_the_bound_runs(self, small_scene, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["optimize", "--offset", repr(keypoints._TARGET_MAX),
                     *_verb_argv("optimize", small_scene, out)]) == 0
        evaluation = json.loads((out / "opt" / "evaluation.json").read_text(),
                                parse_constant=pytest.fail)
        assert evaluation["registration_residual"] > 1e298

    def test_scene_past_the_target_bound_names_the_centers(
            self, small_scene, tmp_path, capsys):
        """On a sphere of radius 1e151 the contact centers themselves lie
        past the target bound, so an offset of 0 does not help."""
        scene, contacts = small_scene
        data = json.loads(scene.read_text())
        for key in ("points", "com"):
            data[key] = (np.array(data[key]) * 2e152).tolist()
        big = tmp_path / "big.json"
        big.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["keypoints", "--scene", str(big), "--contacts",
                     str(contacts), "--offset", "0", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "keypoint contact center lies past 3.35e+149" in err
        assert "keypoint offset" not in err
        assert not out.exists()

    def test_scene_without_points_is_an_empty_object(self, small_scene,
                                                     tmp_path, capsys):
        scene, contacts = small_scene
        data = json.loads(scene.read_text())
        data["points"] = data["normals"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(data))
        assert main(["analyze", "--scene", str(empty), "--contacts",
                     str(contacts), "-o", str(tmp_path / "a.json")]) == 2
        assert ("input error: object needs at least one surface point"
                in capsys.readouterr().err)


def _running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie whose
    new parent has not reaped it yet has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def serial_rows():
    """Seven scenes, a short config and their rows from a serial run."""
    config = OptimizationConfig(max_iters_stage2=5, max_iters_stage3=5)
    scenes = build_batch(7, ["sphere", "box"], seed=5, sample_count=512)
    return scenes, config, batch_report(scenes, config, threads=1)


class TestBatch:
    # every call also passes a sample count below 16, which is checked
    # last: each case is refused by the first bad input's own name
    @pytest.mark.parametrize("shapes, seed, message", [
        ([], 0, "batch needs at least one shape"),
        (["sphere"], -4, "seed must be at least 0, got -4"),
        (["sphere"], 0, "sample_count must be at least 16, got 8")])
    def test_build_batch_refuses_by_name(self, shapes, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_batch(2, shapes, seed, sample_count=8)

    def test_batch_outputs_and_determinism(self, tmp_path, capsys):
        config = OptimizationConfig(max_iters_stage2=25, max_iters_stage3=25)
        scenes = build_batch(4, ["sphere", "box"], seed=5, sample_count=512)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        batch_report(scenes, config, out_dir=out_a, threads=2)
        batch_report(scenes, config, out_dir=out_b, threads=1)
        for name in ("summary.csv", "penetration_curve.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "timings.csv").exists()
        lines = (out_a / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 1  # header + rows + aggregate

    def test_batch_records_failures(self, tmp_path):
        from grasp_eq.batch import BatchScene
        from grasp_eq.synth import SyntheticScene
        config = OptimizationConfig(max_iters_stage2=5, max_iters_stage3=5)
        scenes = [BatchScene(index=0,
                             spec=SyntheticScene("sphere", (0.008,), 256, seed=1),
                             style="tripod")]
        rows = batch_report(scenes, config, out_dir=tmp_path)
        assert rows[0].status.startswith("error: ValueError: patch radius")
        summary = (tmp_path / "summary.csv").read_text()
        assert "ValueError: patch radius" in summary

    def test_penetration_curve_bins(self):
        from grasp_eq.batch import SceneRow
        rows = [SceneRow(index=i, shape="sphere", style="tripod", seed=i,
                         status="ok", residual_after=float(i),
                         max_penetration=0.0005 + 0.001 * i)
                for i in range(4)]
        curve = penetration_curve(rows)
        assert curve[0][2] == 1 and curve[0][3] == 0.0
        assert curve[1][2] == 1 and curve[1][3] == 1.0

    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_fewer_than_one_thread(self, threads):
        scenes = build_batch(1, ["sphere"], seed=0, sample_count=512)
        with pytest.raises(ValueError, match="threads"):
            batch_report(scenes, OptimizationConfig(), threads=threads)

    def test_default_workers_follow_the_affinity_set(self, monkeypatch):
        real_fork = os.fork
        forks = []

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()
        monkeypatch.setattr(os, "fork", counted_fork)
        config = OptimizationConfig(max_iters_stage2=5, max_iters_stage3=5)
        scenes = build_batch(2, ["sphere"], seed=0, sample_count=512)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rows = batch_report(scenes, config)  # this process and one fork
        assert len(forks) == 1
        assert [r.status for r in rows] == ["ok", "ok"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rows = batch_report(scenes, config)  # one CPU: serial, no fork
        assert len(forks) == 1
        assert [r.status for r in rows] == ["ok", "ok"]
        _assert_no_children()

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_every_scene_runs_once_at_any_process_count(self, threads,
                                                        serial_rows):
        scenes, config, serial = serial_rows
        assert len(scenes) > threads
        rows = batch_report(scenes, config, threads=threads)
        _assert_no_children()
        assert [r.index for r in rows] == list(range(len(scenes)))
        assert rows == serial

    def test_a_fork_that_dies_fails_the_batch(self, monkeypatch):
        from grasp_eq import batch as batch_mod
        from grasp_eq.batch import SceneRow

        parent = os.getpid()
        fork_claimed = multiprocessing.get_context("fork").Event()

        def dies_in_the_fork(scene, **kwargs):
            if os.getpid() != parent:
                fork_claimed.set()
                os.kill(os.getpid(), signal.SIGKILL)
            # hold the parent's first scene until the fork has one of its own
            assert fork_claimed.wait(timeout=30)
            return SceneRow(index=scene.index, shape="sphere", style="tripod",
                            seed=scene.index, status="ok")
        monkeypatch.setattr(batch_mod, "run_scene", dies_in_the_fork)
        scenes = build_batch(4, ["sphere"], seed=0, sample_count=512)
        with pytest.raises(RuntimeError, match="status -9"):
            batch_report(scenes, OptimizationConfig(), threads=2)
        _assert_no_children()

    @pytest.mark.parametrize("error", [LookupError, KeyboardInterrupt])
    def test_an_error_in_the_parent_kills_the_forks(self, monkeypatch, error):
        from grasp_eq import batch as batch_mod

        parent = os.getpid()

        def raises_in_the_parent(scene, **kwargs):
            if os.getpid() == parent:
                raise error("parent scene failed")
            time.sleep(60)  # a fork still running when the parent raises
        monkeypatch.setattr(batch_mod, "run_scene", raises_in_the_parent)
        scenes = build_batch(4, ["sphere"], seed=0, sample_count=512)
        with pytest.raises(error, match="parent scene failed"):
            batch_report(scenes, OptimizationConfig(), threads=3)
        _assert_no_children()

    def test_forks_stop_when_the_caller_is_killed(self, tmp_path):
        # each scene sleeps scene_s and prints the pid that ran it; the
        # whole batch would keep a fork busy for about 100 seconds
        scene_s = 0.5
        script = tmp_path / "batch.py"
        script.write_text(f"""
import os, time
from grasp_eq import batch
from grasp_eq.optimizer import OptimizationConfig

def slow_scene(scene, **kwargs):
    print(os.getpid(), flush=True)
    time.sleep({scene_s})
    return batch.SceneRow(index=scene.index, shape="sphere", style="tripod",
                          seed=scene.index, status="ok")
batch.run_scene = slow_scene
batch.batch_report(batch.build_batch(400, ["sphere"], seed=0),
                   OptimizationConfig(), threads=2)
""")
        package = os.path.dirname(io_mod.__file__)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        caller = subprocess.Popen([sys.executable, str(script)],
                                  stdout=subprocess.PIPE, text=True, env=env)
        fork = None
        try:
            while fork is None:
                pid = int(caller.stdout.readline())
                fork = pid if pid != caller.pid else None
            caller.kill()
            caller.wait()
            deadline = time.monotonic() + 4 * scene_s
            while _running(fork) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(fork)
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
            if fork is not None and _running(fork):
                os.kill(fork, signal.SIGKILL)

    def test_scene_failing_in_a_worker_matches_serial(self, monkeypatch):
        from grasp_eq import batch as batch_mod
        from grasp_eq.batch import BatchScene
        from grasp_eq.errors import SolverError
        from grasp_eq.synth import SyntheticScene

        real_pipeline = batch_mod.run_pipeline

        def fails_on_576_samples(obj, *args, **kwargs):
            if obj.n_points == 576:
                raise SolverError("no convergence")
            return real_pipeline(obj, *args, **kwargs)
        # forked workers inherit the patched attribute
        monkeypatch.setattr(batch_mod, "run_pipeline", fails_on_576_samples)
        config = OptimizationConfig(max_iters_stage2=10, max_iters_stage3=10)
        scenes = [BatchScene(index=i, spec=SyntheticScene(
                      "sphere", (0.05,), 512 + 64 * i, seed=5 + i),
                      style="tripod")
                  for i in range(3)]
        pooled = batch_report(scenes, config, threads=2)
        serial = batch_report(scenes, config, threads=1)
        assert [r.index for r in pooled] == [0, 1, 2]
        assert pooled[1].status == serial[1].status
        assert pooled[1].status == "error: SolverError: no convergence"
        assert pooled[1].error is serial[1].error is SolverError
        assert [pooled[0], pooled[2]] == [serial[0], serial[2]]
        assert [pooled[0].status, pooled[2].status] == ["ok", "ok"]

    def test_cli_batch_exit_code_names_failed_scenes(self, tmp_path,
                                                     monkeypatch, capsys):
        from grasp_eq import batch as batch_mod

        def refused(*args, **kwargs):
            raise ValueError("style infeasible here")
        monkeypatch.setattr(batch_mod, "generate_contacts", refused)
        out = tmp_path / "batch"
        assert main(["batch", "--count", "1", "--shapes", "sphere",
                     "--samples", "512", "--threads", "1",
                     "--out-dir", str(out)]) == 2
        summary = (out / "summary.csv").read_text()
        assert "ValueError: style infeasible here" in summary
        assert ("scene 0: error: ValueError: style infeasible here"
                in capsys.readouterr().err)

    def test_cli_batch_refuses_a_sample_count_below_16_before_any_scene(
            self, tmp_path, capsys):
        out = tmp_path / "batch"
        assert main(["batch", "--count", "2", "--shapes", "sphere",
                     "--samples", "8", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "input error: sample_count must be at least 16, got 8\n")
        assert not out.exists()

    def test_cli_batch_solver_failures_exit_3(self, tmp_path, monkeypatch,
                                              capsys):
        from grasp_eq import batch as batch_mod
        from grasp_eq.errors import SolverError

        def failing_pipeline(*args, **kwargs):
            raise SolverError("no convergence")
        monkeypatch.setattr(batch_mod, "run_pipeline", failing_pipeline)
        out = tmp_path / "batch"
        assert main(["batch", "--count", "2", "--shapes", "sphere",
                     "--samples", "512", "--out-dir", str(out)]) == 3
        assert (out / "summary.csv").exists()

    def test_cli_batch(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"max_iters_stage2": 10,
                                                 "max_iters_stage3": 10}}))
        out = tmp_path / "batch"
        assert main(["batch", "--config", str(cfg), "--count", "2",
                     "--shapes", "sphere", "--samples", "512",
                     "--seed", "3", "--out-dir", str(out)]) == 0
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("n_kp", 0, "n_kp"), ("n_kp", 2.5, "n_kp"),
        ("cluster_radius", 0.0, "cluster_radius"),
        ("offset", -0.001, "keypoint offset")])
    def test_cli_batch_refuses_a_bad_keypoint_setting_before_any_scene(
            self, tmp_path, capsys, monkeypatch, key, value, named):
        """The keypoint search's own checks refuse the setting up front:
        exit 2 naming it, no scene run and no report written."""
        from grasp_eq import batch as batch_mod

        def no_scene(*args, **kwargs):
            raise AssertionError("a scene ran")
        monkeypatch.setattr(batch_mod, "run_scene", no_scene)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "batch"
        assert main(["batch", "--config", str(cfg), "--count", "2",
                     "--samples", "256", "--threads", "1",
                     "--out-dir", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("n_kp", 2),
                                            ("cluster_radius", 0.002),
                                            ("offset", 0.0)])
    def test_cli_batch_reads_the_keypoint_settings(self, tmp_path, capsys,
                                                   key, value):
        """A config keypoint setting reaches run_pipeline: the batch row is
        the one run_pipeline gives with it, not the default row."""
        from grasp_eq.synth import generate_contacts, generate_scene

        optimizer = {"max_iters_stage2": 20, "max_iters_stage3": 20}
        rows = {}
        for name, block in (("default", {}), ("set", {key: value})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**block, "optimizer": optimizer}))
            out = tmp_path / name
            assert main(["batch", "--config", str(cfg), "--count", "1",
                         "--shapes", "sphere", "--samples", "256",
                         "--threads", "1", "--out-dir", str(out)]) == 0
            rows[name] = (out / "summary.csv").read_text().splitlines()[1]
        scene = build_batch(1, ["sphere"], seed=0, sample_count=256)[0]
        obj = generate_scene(scene.spec)
        contacts = generate_contacts(obj, scene.style, seed=scene.spec.seed)
        keyword = "target_offset" if key == "offset" else key
        result = run_pipeline(obj, contacts, OptimizationConfig(**optimizer),
                              **{keyword: value})
        reports = (result.report_after.contact_count,
                   result.report_before.residual,
                   result.report_after.residual,
                   result.report_after.max_penetration)
        assert rows["set"].split(",")[5:] == [io_mod.format_cell(v)
                                              for v in reports]
        assert rows["set"] != rows["default"]

    def test_cli_batch_rejects_zero_threads(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"max_iters_stage2": 10,
                                                 "max_iters_stage3": 10}}))
        out = tmp_path / "batch"
        assert main(["batch", "--config", str(cfg), "--count", "1",
                     "--samples", "512", "--threads", "0",
                     "--out-dir", str(out)]) == 2
        assert "threads" in capsys.readouterr().err


# The input-error contract: one leaf of a valid scene, contact or config
# file replaced by a value of the wrong kind, an extreme or non-finite
# number (json writes and reads NaN and the infinities) or nothing; every
# verb that reads the file then exits 0, 2 or 3 with no traceback and no
# RuntimeWarning (the suite makes those errors), and writes only strict
# JSON.
MISSING = object()
REPLACEMENTS = [True, "1.0", 1e300, -1e300, 1.5, float("nan"), float("inf"),
                float("-inf"), [], {}, MISSING]


def _draw_path(data, node):
    """A node of a JSON tree, as its key path: from the root, step into a
    child three times in four, so that every field is drawn often."""
    path = ()
    while (isinstance(node, (dict, list)) and node
           and data.draw(st.integers(0, 3)) > 0):
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    return path


def _draw_object_path(data, node):
    """A JSON object of a tree, as its key path: from the root, step into
    a child object one time in two."""
    path = ()
    while True:
        objects = sorted(key for key, child in node.items()
                         if isinstance(child, dict))
        if not objects or data.draw(st.booleans()):
            return path
        key = data.draw(st.sampled_from(objects))
        path, node = path + (key,), node[key]


UNDECLARED = "undeclared"


def _added(data, path, value):
    """JSON text of ``data`` with key UNDECLARED set to ``value`` in the
    object at ``path``."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path:
        node = node[key]
    node[UNDECLARED] = value
    return json.dumps(data)


def _replaced(data, path, value):
    """JSON text of ``data`` with the node at ``path`` replaced by
    ``value`` (MISSING drops it; at the root, the file is empty)."""
    if not path:
        return "" if value is MISSING else json.dumps(value)
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(data)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    files = {name: root / f"{name}.json"
             for name in ("scene", "contacts", "config")}
    files["config"].write_text(json.dumps({
        "mu": 1.0, "gravity": [0.0, 0.0, -9.81], "cluster_radius": 0.01,
        "n_kp": 3, "offset": 0.005,
        "optimizer": {"w_kp": 10.0, "w_c": 0.5, "w_pene": 10.0,
                      "w_reg": 0.01, "max_iters_stage2": 3,
                      "max_iters_stage3": 3, "convergence_tol": 1e-9},
        "binning": {"s": 10, "mu_log": 0.0, "sigma_log": 1.0,
                    "temperature": 0.1}}))
    assert main(["synth", "--shape", "sphere", "--dims", "0.05",
                 "--samples", "64", "--seed", "7", "--style", "tripod",
                 "--scene-out", str(files["scene"]),
                 "--contacts-out", str(files["contacts"])]) == 0
    return root


class TestInputContract:
    VERBS = {
        "scene": ("analyze", "keypoints", "optimize"),
        "contacts": ("analyze", "keypoints", "optimize"),
        "config": ("synth", "analyze", "keypoints", "optimize",
                   "encode-force", "decode-force", "batch"),
    }

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(data=st.data())
    def test_one_bad_leaf_exits_0_2_or_3(self, valid_inputs, tmp_path_factory,
                                         data):
        valid = {name: json.loads((valid_inputs / f"{name}.json").read_text())
                 for name in self.VERBS}
        name = data.draw(st.sampled_from(sorted(self.VERBS)))
        # either one leaf replaced or one undeclared key added to an object
        added = data.draw(st.booleans())
        path = (_draw_object_path if added else _draw_path)(data, valid[name])
        value = data.draw(st.sampled_from(
            [v for v in REPLACEMENTS if not (added and v is MISSING)]))
        verb = data.draw(st.sampled_from(self.VERBS[name]))
        work = tmp_path_factory.mktemp("case")
        files = {}
        for key in valid:
            files[key] = work / f"{key}.json"
            files[key].write_text(
                json.dumps(valid[key]) if key != name
                else _added(valid[key], path, value) if added
                else _replaced(valid[key], path, value))
        scene = ["--scene", str(files["scene"]),
                 "--contacts", str(files["contacts"])]
        argv = {
            "synth": ["--shape", "sphere", "--dims", "0.05", "--samples",
                      "64", "--scene-out", str(work / "s.json"),
                      "--contacts-out", str(work / "c.json")],
            "analyze": scene + ["-o", str(work / "out.json")],
            "keypoints": scene + ["-o", str(work / "out.json")],
            "optimize": scene + ["--out-dir", str(work / "opt")],
            "encode-force": ["--value", "3.0", "-o", str(work / "out.json")],
            "decode-force": ["--scores", json.dumps([0.0] * 5 + [1.0] * 5),
                             "-o", str(work / "out.json")],
            "batch": ["--count", "1", "--shapes", "sphere", "--samples",
                      "64", "--threads", "1", "--out-dir", str(work / "b")],
        }
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main([verb, "--config", str(files["config"]),
                         *argv[verb]])
        assert code in (0, 2, 3)
        if added and name == "config":  # every config key is declared
            assert code == 2
            assert f"has undeclared key {UNDECLARED!r}" in err.getvalue()
        # a batch records a scene's exception, warnings included, as text
        assert "Warning" not in err.getvalue()
        for path in work.rglob("*.json"):
            if path.parent != work or path.stem not in valid:  # an output
                json.loads(path.read_text(), parse_constant=pytest.fail)
