import json
import os

import numpy as np
import pytest

from grasp_eq.batch import build_batch, batch_report, penetration_curve
from grasp_eq.cli import build_parser, main
from grasp_eq.optimizer import OptimizationConfig


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
        bad.write_text("{not json")
        assert main(["analyze", "--scene", str(scene),
                     "--contacts", str(bad)]) == 2

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
        assert "score must be a number" in capsys.readouterr().err
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
        cfg.write_text(json.dumps({"mu": 0.5, "keypoints": {}}))
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

    def test_encode_rejects_zero_bins(self, capsys):
        assert main(["encode-force", "--value", "1", "--bins", "0"]) == 2

    def test_gradcheck_verb(self, capsys):
        assert main(["gradcheck", "--count", "3", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["loss_gradient"]["max_rel_err"] <= 1e-3


class TestBatch:
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
        assert rows[0].status.startswith("error: StyleInfeasible")
        summary = (tmp_path / "summary.csv").read_text()
        assert "StyleInfeasible" in summary

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
        from grasp_eq import batch as batch_mod

        built = []

        class NoPool:
            def __init__(self, max_workers, mp_context):
                built.append(max_workers)
                raise RuntimeError("pool built")
        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", NoPool)
        config = OptimizationConfig(max_iters_stage2=5, max_iters_stage3=5)
        scenes = build_batch(2, ["sphere"], seed=0, sample_count=512)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(RuntimeError, match="pool built"):
            batch_report(scenes, config)
        assert built == [2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rows = batch_report(scenes, config)  # one CPU: serial, no pool
        assert built == [2]
        assert [r.status for r in rows] == ["ok", "ok"]

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

    def test_cli_batch_exit_code_names_failed_scenes(self, tmp_path, capsys):
        out = tmp_path / "batch"
        assert main(["batch", "--count", "1", "--shapes", "sphere",
                     "--samples", "15", "--out-dir", str(out)]) == 2
        summary = (out / "summary.csv").read_text()
        assert "InvalidShape" in summary
        assert "scene 0: error: InvalidShape" in capsys.readouterr().err

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

    def test_cli_batch_rejects_zero_threads(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"max_iters_stage2": 10,
                                                 "max_iters_stage3": 10}}))
        out = tmp_path / "batch"
        assert main(["batch", "--config", str(cfg), "--count", "1",
                     "--samples", "512", "--threads", "0",
                     "--out-dir", str(out)]) == 2
        assert "threads" in capsys.readouterr().err
