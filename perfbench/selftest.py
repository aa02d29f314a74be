"""Self-test of the benchmark: output checks fire, spans nest, workloads run.

Run from the root of a checkout (about three minutes on 2 CPUs, most of it
in the smoke runs):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from grasp_eq import batch, equilibrium  # noqa: E402
from grasp_eq.errors import SolverError  # noqa: E402
from grasp_eq.keypoints import KeypointSet, select_keypoints  # noqa: E402
from grasp_eq.optimizer import OptimizationTrace  # noqa: E402
from grasp_eq.synth import SyntheticScene, generate_scene  # noqa: E402


def _trace(totals_by_stage):
    trace = OptimizationTrace()
    for stage, totals in totals_by_stage.items():
        for i, total in enumerate(totals):
            trace.append(stage, i, total, (total, 0.0, 0.0, 0.0))
    return trace


def _result(totals_by_stage, residual):
    return SimpleNamespace(trace=_trace(totals_by_stage),
                           report_after=SimpleNamespace(residual=residual))


# ---------------------------------------------------------------------------
# output checks fire on perturbed outputs


def test_pipeline_check_passes_clean_output():
    result = _result({2: [3.0, 2.0, 2.0], 3: [5.0, 1.0]}, 1e-9)
    assert workloads.check_pipeline(result, None) == ""
    assert workloads.check_pipeline(result, 1e-9) == ""


def test_pipeline_check_fires_on_increasing_trace():
    result = _result({2: [3.0, 2.0], 3: [5.0, 1.0, 1.5]}, 1e-9)
    assert "stage 3" in workloads.check_pipeline(result, None)


def test_pipeline_check_fires_on_changed_residual():
    result = _result({2: [1.0], 3: [1.0]}, 1e-9)
    assert "repeated scene" in workloads.check_pipeline(
        result, np.nextafter(1e-9, 1.0))


def _keypoint_case():
    obj = generate_scene(SyntheticScene("sphere", (0.05,), 256, seed=0))
    reps = workloads.random_representatives(np.random.default_rng(0), 5)
    return obj, reps, select_keypoints(reps, obj)


def test_keypoint_check_passes_clean_output():
    obj, reps, kps = _keypoint_case()
    assert workloads.check_keypoints(kps, reps, obj) == ("ok", "")


def test_keypoint_check_fires_on_raised_energy():
    obj, reps, kps = _keypoint_case()
    worse = KeypointSet(parts=kps.parts, centers=kps.centers,
                        forces=kps.forces, normals=kps.normals,
                        targets=kps.targets, energy=kps.energy + 1.0)
    outcome, detail = workloads.check_keypoints(worse, reps, obj)
    assert outcome == "incorrect" and "above triple" in detail


def test_keypoint_check_reports_solver_errors(monkeypatch):
    obj, reps, kps = _keypoint_case()

    def not_converged(sys):
        raise SolverError("stability QP not converged", result=None)

    monkeypatch.setattr(equilibrium, "stability_energy", not_converged)
    outcome, detail = workloads.check_keypoints(kps, reps, obj)
    assert outcome == "unverified" and "SolverError" in detail


def test_batch_check_fires_on_changed_bytes():
    files = {name: b"a,b\n1,2\n" for name in workloads.BATCH_FILES}
    assert workloads.check_batch(files, None) == ""
    assert workloads.check_batch(files, dict(files)) == ""
    changed = dict(files, **{"summary.csv": b"a,b\n1,3\n"})
    assert "summary.csv" in workloads.check_batch(changed, files)


def test_failed_checks_are_counted_not_raised(monkeypatch):
    tripod = workloads.GraspTripod(seed=0)
    tripod.scenes = tripod.scenes[:2]
    outputs = iter([_result({2: [1.0, 2.0], 3: [1.0]}, 0.0),
                    RuntimeError("boom")])

    def fake_pipeline(obj, contacts, config):
        out = next(outputs)
        if isinstance(out, Exception):
            raise out
        return out

    monkeypatch.setattr(batch, "generate_scene", lambda spec: None)
    monkeypatch.setattr(batch, "generate_contacts", lambda *a, **k: None)
    monkeypatch.setattr(batch, "run_pipeline", fake_pipeline)
    ops, busy = tripod.round()
    assert [op.outcome for op in ops] == ["incorrect", "failed"]
    assert "boom" in ops[1].detail and busy >= 0.0


# ---------------------------------------------------------------------------
# speed probe, statistics and spans


def test_probe_scales_wall_time_to_reference_speed():
    ref, units = calibrate.REFERENCE_S, calibrate.PROBE_UNITS
    assert calibrate.scale(ref, units) == pytest.approx(1.0)
    assert calibrate.scale(4 * ref, 2 * units) == pytest.approx(0.5)
    wall, factor, out = calibrate.timed(lambda: 7)
    assert out == 7 and wall >= 0.0 and factor > 0.0
    wall, factor, out = calibrate.timed(lambda: 1 / 0)
    assert isinstance(out, ZeroDivisionError)
    cpus = os.sched_getaffinity(0)
    wall, probe_s, units, out = calibrate.measured(lambda: 7, threaded=True)
    assert out == 7 and units == 2 * calibrate.PROBE_UNITS * len(cpus)
    assert os.sched_getaffinity(0) == cpus


def test_samples_are_taken_out_of_the_wall_time():
    def busy_until(deadline):
        while time.perf_counter() < deadline:
            pass

    # the call ends at a fixed time, so the samples it ran shorten its wall
    wall, factor, out = calibrate.timed(
        lambda: busy_until(time.perf_counter() + 0.3))
    assert out is None and factor > 0.0
    assert 0.2 < wall < 0.3
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_tail_is_nearest_rank_p90():
    assert metrics.tail(list(range(1, 101))) == (90, 10, 100)
    assert metrics.tail(list(range(1, 31))) == (27, 3, 30)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 0, 3)


def test_per_input_takes_each_inputs_median():
    ops = [workloads.Op(latency, key=key) for key, latency in
           ((0, 1.0), (1, 5.0), (0, 3.0), (1, 6.0), (0, 2.0), (1, 7.0))]
    assert sorted(metrics.per_input(ops)) == [2000.0, 6000.0]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("op"):
        with tracer.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    own = spans.self_times(tracer.spans)
    root, child = tracer.spans
    assert child.parent == 0 and child.op == root.op
    assert own[0] == pytest.approx(root.duration - child.duration)
    (row,) = spans.op_breakdown(tracer.spans)
    assert row["layers_s"] + row["untimed_s"] == pytest.approx(row["wall_s"])


def test_wrapper_records_raised_errors():
    tracer = spans.Tracer()

    def not_converged():
        raise SolverError("not converged")

    with pytest.raises(SolverError):
        tracer.wrap("equilibrium.stability_energy", not_converged)()
    (span,) = tracer.spans
    assert span.error == "SolverError" and span.end >= span.start
    values = metrics.layer_metrics(tracer.spans, 1, {})
    assert values["equilibrium.stability_energy.failed"] == 1


def test_parent_stacks_are_per_thread():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2)

    def scene():
        with tracer.span("batch.run_scene"):
            barrier.wait(timeout=10)
            with tracer.span("leaf"):
                barrier.wait(timeout=10)

    threads = [threading.Thread(target=scene) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    roots = [i for i, s in enumerate(tracer.spans) if s.parent is None]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(roots) == 2 and sorted(s.parent for s in leaves) == roots
    assert {s.op for s in leaves} == {tracer.spans[i].op for i in roots}


def test_patched_restores_attributes():
    def current():
        return [getattr(importlib.import_module(module), attr)
                for module, attr, _ in spans.TRACED]

    before = current()
    with spans.Tracer().patched():
        during = current()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, current()))


# ---------------------------------------------------------------------------
# smoke: each workload runs briefly and prints every metric name


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split(" ", 1)[0] for line in lines[:-1]}
    assert set(declared) <= printed
    assert "ops_failed_ratio" in printed
    if workload != "keypoint_search":
        assert "grasp_success_rate" in printed


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grasp_tripod",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
