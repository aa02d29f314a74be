"""Batch pipeline runs over synthetic scenes with aggregate reports.

Scenes run independently (optionally in parallel threads) with per-scene
seeds derived as seed + scene index, so results do not depend on
scheduling.  Wall-clock timings go to a separate sidecar file to keep the
result CSVs byte-stable across repeated runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    wall_time: float = 0.0
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


def batch_report(scenes, config: OptimizationConfig, mu: float = DEFAULT_MU,
                 gravity=GRAVITY, out_dir=None, threads: int = None,
                 use_keypoints: bool = True):
    """Run every scene, aggregate, and optionally write the report CSVs.

    Returns the list of SceneRow results.  Output files: summary.csv
    (per-scene rows + aggregate means), penetration_curve.csv, and
    timings.csv (wall clock, non-deterministic by nature).  ``threads``
    caps the pool and must be at least 1; None means the CPU count.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("batch needs at least one scene")
    threads = (os.cpu_count() or 1) if threads is None else threads
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    threads = min(threads, len(scenes))
    if threads == 1:
        rows = [run_scene(s, config, mu, gravity, use_keypoints) for s in scenes]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda s: run_scene(s, config, mu, gravity, use_keypoints),
                scenes))
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
