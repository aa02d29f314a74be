"""Batch pipeline runs over synthetic scenes with aggregate reports.

Scenes run independently, with per-scene seeds derived as seed + scene
index, so results do not depend on scheduling.  When more than one process
is allowed, the calling process runs scenes alongside plain forks of
itself, and every process claims the next unrun scene from one shared
counter.  Wall-clock timings go to a separate sidecar file to keep the
result CSVs byte-stable across repeated runs.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import DEFAULT_MU
from .io import write_csv
from .optimizer import OptimizationConfig, run_pipeline
from .scene import GRAVITY
from .synth import SyntheticScene, generate_contacts, generate_scene

# default grasp style and dimensions per shape for batch scenes
_BATCH_SHAPES = {
    "sphere": ((0.05,), "tripod"),
    "box": ((0.09, 0.09, 0.09), "tripod"),
    "cylinder": ((0.04, 0.11), "tripod"),
    "plate": ((0.12, 0.12, 0.012), "tripod"),
}

_CURVE_EDGES_MM = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)


@dataclass(frozen=True)
class BatchScene:
    index: int
    spec: SyntheticScene
    style: str


@dataclass
class SceneRow:
    index: int
    shape: str
    style: str
    seed: int
    status: str
    contact_count: int = 0
    residual_before: float = float("nan")
    residual_after: float = float("nan")
    max_penetration: float = float("nan")
    wall_time: float = field(default=0.0, compare=False)  # not a result
    error: type | None = None  # exception class of a failed scene


def build_batch(count: int, shapes, seed: int,
                sample_count: int = 2048) -> list[BatchScene]:
    """Round-robin scene list over the requested shapes with derived seeds."""
    if count < 1:
        raise ValueError("batch needs at least one scene")
    shapes = list(shapes)
    for shape in shapes:
        if shape not in _BATCH_SHAPES:
            raise ValueError(f"no batch defaults for shape {shape!r}")
    scenes = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        dims, style = _BATCH_SHAPES[shape]
        spec = SyntheticScene(shape=shape, dimensions=dims,
                              sample_count=sample_count, seed=seed + i)
        scenes.append(BatchScene(index=i, spec=spec, style=style))
    return scenes


def run_scene(scene: BatchScene, config: OptimizationConfig, mu: float,
              gravity, use_keypoints: bool = True) -> SceneRow:
    row = SceneRow(index=scene.index, shape=scene.spec.shape, style=scene.style,
                   seed=scene.spec.seed, status="ok")
    start = time.perf_counter()
    try:
        obj = generate_scene(scene.spec)
        contacts = generate_contacts(obj, scene.style, seed=scene.spec.seed,
                                     mu=mu, gravity=gravity)
        result = run_pipeline(obj, contacts, config, mu=mu, gravity=gravity,
                              use_keypoints=use_keypoints)
        row.contact_count = result.report_after.contact_count
        row.residual_before = result.report_before.residual
        row.residual_after = result.report_after.residual
        row.max_penetration = result.report_after.max_penetration
    except Exception as err:  # record, do not abort the batch
        row.status = f"error: {type(err).__name__}: {err}"
        row.error = type(err)
    row.wall_time = time.perf_counter() - start
    return row


def penetration_curve(rows):
    """Mean residual binned by max penetration, echoing the paper's
    displacement-vs-penetration curve at desk scale."""
    ok = [r for r in rows if r.status == "ok"]
    edges = [e / 1000.0 for e in _CURVE_EDGES_MM] + [float("inf")]
    curve = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        members = [r.residual_after for r in ok if lo <= r.max_penetration < hi]
        mean = float(np.mean(members)) if members else float("nan")
        curve.append((lo, hi, len(members), mean))
    return curve


def _fan_out(scenes, scene_fn, processes):
    """Rows of ``scene_fn`` over ``scenes`` from this process and
    ``processes - 1`` forks of it, in no particular order.

    Each process claims the next unclaimed scene from one shared counter
    until none is left, so a slow scene does not hold up the rest.  A fork
    pickles its rows into its own pipe and leaves through ``os._exit``.
    Raises RuntimeError if a fork dies or sends nothing; if anything raises
    here, every fork still running is killed and reaped before it spreads.
    """
    claimed = multiprocessing.get_context("fork").Value("q", 0)

    def share():
        rows = []
        while True:
            with claimed.get_lock():
                i = claimed.value
                claimed.value = i + 1
            if i >= len(scenes):
                return rows
            rows.append(scene_fn(scenes[i]))

    pipes = {}  # pid -> read end of that fork's pipe
    try:
        for _ in range(processes - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the fork: never return into the caller
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as out:
                        out.write(pickle.dumps(share()))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pipes[pid] = open(read_fd, "rb")
        rows = share()
        for pid in list(pipes):
            with pipes[pid] as pipe:
                # to EOF before waitpid: a fork blocked on a full pipe
                # would never exit
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pipes[pid]
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                raise RuntimeError(f"batch process {pid} exited with status "
                                   f"{code} after sending {len(data)} bytes")
            rows.extend(pickle.loads(data))
        return rows
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def batch_report(scenes, config: OptimizationConfig, mu: float = DEFAULT_MU,
                 gravity=GRAVITY, out_dir=None, threads: int = None,
                 use_keypoints: bool = True):
    """Run every scene, aggregate, and optionally write the report CSVs.

    Returns the list of SceneRow results.  Output files: summary.csv
    (per-scene rows + aggregate means), penetration_curve.csv, and
    timings.csv (wall clock, non-deterministic by nature).

    ``threads`` caps the number of processes that run scenes, this one
    included, and must be at least 1; None means the CPUs this process may
    run on (its affinity set, so a pinned run forks no more processes than
    it has CPUs).  This process runs scenes too and forks ``threads - 1``
    more; forks inherit the imported package and any patched module
    attributes, where a spawned process would pay a package import, about
    0.5 s, on every call.  With one process, or one scene, the scenes run
    serially in this process.  Only this process writes the CSVs.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("batch needs at least one scene")
    threads = len(os.sched_getaffinity(0)) if threads is None else threads
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    threads = min(threads, len(scenes))
    scene_fn = functools.partial(run_scene, config=config, mu=mu,
                                 gravity=gravity, use_keypoints=use_keypoints)
    if threads == 1:
        rows = [scene_fn(s) for s in scenes]
    else:
        rows = _fan_out(scenes, scene_fn, threads)
    rows.sort(key=lambda r: r.index)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ok = [r for r in rows if r.status == "ok"]
        data = [[r.index, r.shape, r.style, r.seed, r.status, r.contact_count,
                 r.residual_before, r.residual_after, r.max_penetration]
                for r in rows]
        if ok:
            data.append(["mean", "", "", "", f"ok={len(ok)}/{len(rows)}",
                         float(np.mean([r.contact_count for r in ok])),
                         float(np.mean([r.residual_before for r in ok])),
                         float(np.mean([r.residual_after for r in ok])),
                         float(np.mean([r.max_penetration for r in ok]))])
        write_csv(os.path.join(out_dir, "summary.csv"),
                  ["scene", "shape", "style", "seed", "status", "contacts",
                   "residual_before", "residual_after", "max_penetration"],
                  data)
        write_csv(os.path.join(out_dir, "penetration_curve.csv"),
                  ["penetration_lo", "penetration_hi", "count", "mean_residual"],
                  penetration_curve(rows))
        write_csv(os.path.join(out_dir, "timings.csv"),
                  ["scene", "wall_time_s"],
                  [[r.index, r.wall_time] for r in rows])
    return rows
