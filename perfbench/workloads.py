"""The three workloads: fixed inputs, one round of ops, output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  A round visits every input once; the harness runs
whole rounds, so each run sees the same mix of inputs.  Output checks run
after each timed op, outside the timed region.

Each ``round`` returns a list of ``Op`` and the time spent inside the timed
calls.  Every timed call runs between two speed probes, and its latency is
its wall time scaled to the probe's reference speed (see ``calibrate``); the
batch is scaled once per window instead, by ``take_scale``.  An op's
``outcome`` is ``ok``, ``failed`` (it raised), ``unverified`` (its check
could not be completed) or ``incorrect`` (a check found a wrong output).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import calibrate
import grasp_eq
from grasp_eq import batch, equilibrium, keypoints
from grasp_eq.errors import SolverError
from grasp_eq.keypoints import PartCluster
from grasp_eq.optimizer import OptimizationConfig
from grasp_eq.synth import SyntheticScene

SHAPES = ("sphere", "box", "cylinder", "plate")
# The grasp workloads visit the head of acceptance 9's scene list
# (build_batch seed 3).  Inputs are fixed and the workload seed permutes the
# order of ops: run time differs up to 5x between scenes of one shape, so
# scenes drawn per seed spread ops_per_s by about 33% across seeds.
SCENE_LIST_SEED = 3
TRIPOD_SCENES = 4
BATCH_SCENES = 4
SUCCESS_RESIDUAL = 1e-3  # acceptance 8's threshold on report_after.residual
ENERGY_SLACK = 1e-6      # acceptance 7's tolerance on the selected energy


@dataclass
class Op:
    latency_s: float  # wall time scaled to the probe's reference speed
    outcome: str = "ok"
    detail: str = ""
    success: bool | None = None  # grasp success, where the op makes a grasp
    wall_s: float = 0.0  # wall time as measured
    key: object = None  # the input, the same in every round


def nproc():
    return len(os.sched_getaffinity(0))


def _op_span(tracer):
    return tracer.span("op") if tracer is not None else contextlib.nullcontext()


def _bits(value):
    return np.float64(value).tobytes()


def permuted(items, seed):
    """The op order of a run: a seeded permutation of the fixed inputs."""
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def scene_list(count):
    return batch.build_batch(count, SHAPES, seed=SCENE_LIST_SEED)


# ---------------------------------------------------------------------------
# grasp_tripod: the paper's end-to-end path, one scene per op


def trace_nonincreasing(trace, stage):
    totals = [r.total for r in trace.stage_records(stage)]
    return all(b <= a for a, b in zip(totals, totals[1:]))


def check_pipeline(result, first_residual):
    """Output checks of one pipeline op; returns a failure message or ''."""
    for stage in (2, 3):
        if not trace_nonincreasing(result.trace, stage):
            return f"stage {stage} trace increases"
    residual = result.report_after.residual
    if first_residual is not None and _bits(residual) != _bits(first_residual):
        return (f"repeated scene gave residual {residual!r}, "
                f"first run gave {first_residual!r}")
    return ""


def _timed(call, tracer):
    """Run one op under its span, between two speed probes.

    Returns (scaled seconds, wall seconds, result or exception).
    """
    def op():
        with _op_span(tracer):
            return call()
    wall, factor, out = calibrate.timed(op)
    return wall * factor, wall, out


def _failed(latency, wall, err, key):
    return Op(latency, "failed", f"{type(err).__name__}: {err}", wall_s=wall,
              key=key)


class GraspTripod:
    def __init__(self, seed):
        self.scenes = permuted(scene_list(TRIPOD_SCENES), seed)
        self.config = OptimizationConfig()
        self.residuals = {}

    def _pipeline(self, scene):
        # looked up on grasp_eq.batch at call time, as run_scene does
        obj = batch.generate_scene(scene.spec)
        contacts = batch.generate_contacts(obj, scene.style,
                                           seed=scene.spec.seed)
        return batch.run_pipeline(obj, contacts, self.config)

    def round(self, tracer=None):
        ops, busy = [], 0.0
        for scene in self.scenes:
            latency, wall, result = _timed(lambda: self._pipeline(scene),
                                           tracer)
            busy += latency
            if isinstance(result, Exception):
                ops.append(_failed(latency, wall, result, scene.index))
                continue
            residual = result.report_after.residual
            problem = check_pipeline(result, self.residuals.get(scene.index))
            self.residuals.setdefault(scene.index, residual)
            ops.append(Op(latency, "incorrect" if problem else "ok", problem,
                          success=residual < SUCCESS_RESIDUAL, wall_s=wall,
                          key=scene.index))
        return ops, busy

    def close(self):
        pass


# ---------------------------------------------------------------------------
# keypoint_search: cluster -> select clusters -> exhaustive keypoint search


# Acceptance 7's scene generator: trial t is shape t % 3 at 1024 samples with
# scene seed t, and patch counts drawn in order from rng(707).  The first 15
# trials hold two scenes whose re-enumeration hits the ADMM iteration cap
# (trials 10 and 14), so the known defect shows in every run.
KEYPOINT_SHAPES = (("sphere", (0.05,)), ("box", (0.09, 0.09, 0.09)),
                   ("cylinder", (0.04, 0.11)))
KEYPOINT_SCENES = 15
PATCH_RNG_SEED = 707
WIDE_RNG_SEED = 708  # acceptance 7's |H| = 16 set: C(16, 3) = 560 QPs
WIDE_PARTS = 16


def keypoint_scenes():
    rng = np.random.default_rng(PATCH_RNG_SEED)
    scenes = []
    for trial in range(KEYPOINT_SCENES):
        shape, dims = KEYPOINT_SHAPES[trial % len(KEYPOINT_SHAPES)]
        obj = grasp_eq.generate_scene(SyntheticScene(shape, dims, 1024,
                                                     seed=trial))
        contacts = grasp_eq.generate_contacts(
            obj, "random", seed=trial, n_patches=int(rng.integers(4, 9)))
        scenes.append((obj, contacts))
    return scenes


def random_representatives(rng, count, radius=0.05):
    """``count`` single-point clusters on distinct parts of a sphere."""
    reps = {}
    parts = rng.choice(np.arange(1, 17), size=count, replace=False)
    for part in sorted(int(p) for p in parts):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        reps[part] = PartCluster(part=part, indices=np.array([0]),
                                 center=radius * direction,
                                 force=float(rng.uniform(0.5, 8.0)),
                                 normal=direction)
    return reps


def check_keypoints(kps, reps, obj):
    """Re-enumerate every triple with direct QP solves.

    Returns (outcome, detail).  A triple whose QP raises SolverError leaves
    the op unverified: the search swallows these errors, so this is where
    they surface.
    """
    failures = []
    for combo in itertools.combinations(sorted(reps), min(3, len(reps))):
        sys = equilibrium.assemble(
            obj, np.array([reps[p].center for p in combo]),
            np.array([reps[p].normal for p in combo]),
            np.array([reps[p].force for p in combo]))
        try:
            energy = equilibrium.stability_energy(sys).energy
        except SolverError as err:
            failures.append(f"{combo}: {err}")
            continue
        if kps.energy > energy + ENERGY_SLACK:
            return "incorrect", (f"selected energy {kps.energy!r} above "
                                 f"triple {combo} energy {energy!r}")
    if failures:
        return "unverified", "SolverError on " + "; ".join(failures)
    return "ok", ""


def _search(obj, contacts):
    # looked up on grasp_eq.keypoints at call time, as run_pipeline does
    clusters = keypoints.cluster_contacts(obj, contacts)
    reps = keypoints.select_clusters(clusters, obj)
    return reps, keypoints.select_keypoints(reps, obj)


class KeypointSearch:
    """Each round searches every scene once and the |H| = 16 set once.

    An input's first search is checked against a full re-enumeration; its
    repeats must return bit-identical keypoints and inherit that verdict,
    which keeps the per-round cost of checking small.
    """

    def __init__(self, seed):
        obj16 = grasp_eq.generate_scene(
            SyntheticScene("sphere", (0.05,), 256, seed=0))
        reps16 = random_representatives(np.random.default_rng(WIDE_RNG_SEED),
                                        WIDE_PARTS)
        calls = [(obj, lambda o=obj, c=contacts: _search(o, c))
                 for obj, contacts in keypoint_scenes()]
        calls.append((obj16, lambda: (reps16,
                                      keypoints.select_keypoints(reps16, obj16))))
        self.inputs = permuted(list(enumerate(calls)), seed)
        self.verdicts = {}

    def _check(self, key, obj, reps, kps):
        found = (kps.parts, _bits(kps.energy))
        if key not in self.verdicts:
            self.verdicts[key] = (found, *check_keypoints(kps, reps, obj))
        first, outcome, detail = self.verdicts[key]
        if found != first:
            return "incorrect", f"repeat gave {found}, first search gave {first}"
        return outcome, detail

    def round(self, tracer=None):
        ops, busy = [], 0.0
        for key, (obj, call) in self.inputs:
            latency, wall, out = _timed(call, tracer)
            busy += latency
            if isinstance(out, Exception):
                ops.append(_failed(latency, wall, out, key))
                continue
            reps, kps = out
            ops.append(Op(latency, *self._check(key, obj, reps, kps),
                          wall_s=wall, key=key))
        return ops, busy

    def close(self):
        pass


# ---------------------------------------------------------------------------
# batch_keypoint_free: the ablation arm through the batch thread pool


BATCH_FILES = ("summary.csv", "penetration_curve.csv")


def check_batch(files, reference):
    """Byte-identical report CSVs across repetitions; returns a message or ''."""
    if reference is not None:
        for name in BATCH_FILES:
            if files[name] != reference[name]:
                return f"{name} differs from the first repetition"
    return ""


class BatchKeypointFree:
    def __init__(self, seed, root):
        # the pool's makespan depends on the submission order, so the order
        # is fixed too: here the seed changes nothing
        self.scenes = scene_list(BATCH_SCENES)
        self.config = OptimizationConfig()
        self.threads = nproc()
        self.out_root = tempfile.mkdtemp(prefix=".perfbench_out_", dir=root)
        self.reference = None
        self.runs = 0
        self.probe_s, self.probe_units = 0.0, 0

    def run_batch(self, threads, tracer=None):
        """One batch_report call between two speed probes, which are pooled
        until ``take_scale``.  Returns (rows, csv bytes, wall seconds)."""
        out_dir = os.path.join(self.out_root, f"run{self.runs}")
        self.runs += 1
        span = (tracer.span("batch.batch_report") if tracer is not None
                else contextlib.nullcontext())

        def report():
            with span:
                return batch.batch_report(self.scenes, self.config,
                                          threads=threads, use_keypoints=False,
                                          out_dir=out_dir)
        wall, probe_s, units, rows = calibrate.measured(
            report, threaded=threads > 1)
        if isinstance(rows, Exception):
            raise rows
        self.probe_s += probe_s
        self.probe_units += units
        files = {}
        for name in BATCH_FILES:
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        shutil.rmtree(out_dir)
        return rows, files, wall

    def round(self, tracer=None):
        """One threaded batch.  Its ops and busy time are wall times until
        the harness scales them with ``take_scale``."""
        rows, files, wall = self.run_batch(self.threads, tracer)
        problem = check_batch(files, self.reference)
        if self.reference is None:
            self.reference = files
        ops = []
        for row in rows:
            if row.status != "ok":
                ops.append(Op(row.wall_time, "failed", row.status,
                              wall_s=row.wall_time, key=row.index))
            else:
                ops.append(Op(row.wall_time, "incorrect" if problem else "ok",
                              problem,
                              success=row.residual_after < SUCCESS_RESIDUAL,
                              wall_s=row.wall_time, key=row.index))
        return ops, wall

    def take_scale(self):
        """Scale factor pooled over the probes since the last call.

        A probe sees one CPU for a few milliseconds, while a batch runs on
        both CPUs for seconds, whose speeds change independently; one
        batch's own two probes scaled it no better than not scaling it
        (over 12 batches, 14% spread either way).
        """
        factor = calibrate.scale(self.probe_s, self.probe_units)
        self.probe_s, self.probe_units = 0.0, 0
        return factor

    def serial_pass(self):
        """One threads=1 batch over the same scenes, with its outputs checked
        against the threaded ones.  Returns (scaled wall, scaled per-scene
        walls, problem)."""
        rows, files, wall = self.run_batch(1)
        problem = check_batch(files, self.reference)
        factor = self.take_scale()
        return wall * factor, [r.wall_time * factor for r in rows], problem

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


WORKLOADS = ("grasp_tripod", "keypoint_search", "batch_keypoint_free")


def build(name, seed, root):
    """The named workload's inputs; ``root`` holds the batch's temporary CSVs."""
    if name == "grasp_tripod":
        return GraspTripod(seed)
    if name == "keypoint_search":
        return KeypointSearch(seed)
    if name == "batch_keypoint_free":
        return BatchKeypointFree(seed, root)
    raise ValueError(f"unknown workload {name!r}")
