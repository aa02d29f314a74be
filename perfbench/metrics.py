"""End-to-end statistics and per-layer metrics derived from spans.

Per-layer counts and self times are per op: totals over the traced window
divided by the ops it ran, so a faster commit that fits more ops into the
window still compares like for like.  Per-call figures (``p50_us``,
``max_ms``) are over all calls.
"""

from __future__ import annotations

import math
import statistics

from spans import has_ancestor, op_breakdown, self_times

TAIL_PERCENTILE = 90.0


def tail(values):
    """Nearest-rank p90; returns (value, samples beyond it, n).

    The percentile is fixed rather than chosen by sample count: the
    harness takes it over the inputs of a workload (4 or 16), too few for a
    percentile with ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * n)
    return ordered[rank - 1], n - rank, n


def per_input(ops, field="latency_s"):
    """Each input's median of ``field`` over its repeats in the run, in ms.

    Every input recurs once per round, and the repeats of one input differ
    only by timing noise, so their median is the input's latency.  The p50
    and tail are then taken over the inputs: a run of 2 rounds and a run of
    6 report the same input, with less noise than one order statistic over
    all ops.
    """
    by_input = {}
    for op in ops:
        by_input.setdefault(op.key, []).append(getattr(op, field) * 1e3)
    return [statistics.median(v) for v in by_input.values()]


# name -> fields reported for that span name
LAYER_FIELDS = {
    "hand.fk_with_jacobians": ("calls", "self_s", "p50_us"),
    "hand.forward_kinematics": ("calls", "self_s"),
    "optimizer.kp_loss": ("calls", "self_s", "p50_us"),
    "optimizer.contact_loss": ("calls", "self_s", "p50_us"),
    "optimizer.penetration_loss": ("calls", "self_s", "p50_us"),
    "optimizer.fit_keypoints": ("self_s",),
    "optimizer.optimize_grasp": ("self_s",),
    "optimizer.evaluate_grasp": ("self_s",),
    "optimizer.run_pipeline": ("self_s",),
    "equilibrium.stability_energy": ("calls", "self_s", "p50_us", "max_ms",
                                     "failed"),
    "equilibrium.solve_force_existence": ("calls", "self_s", "p50_us",
                                          "failed"),
    "equilibrium.assemble": ("calls", "self_s"),
    "keypoints.cluster_contacts": ("self_s",),
    "keypoints.select_clusters": ("self_s",),
    "keypoints.select_keypoints": ("self_s",),
    "synth.generate_scene": ("self_s",),
    "synth.generate_contacts": ("self_s",),
    "batch.run_scene": ("self_s",),
    "io.write_csv": ("self_s",),
}

FIELD_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us",
               "max_ms": "ms", "failed": "count"}

STAGES = {2: "optimizer.fit_keypoints", 3: "optimizer.optimize_grasp"}
STAGE_UNITS = {"evals": "count", "accepted": "count",
               "evals_per_accepted": "ratio", "cap_hits": "count"}

EXTRA_UNITS = {
    "optimizer.max_penetration_mm_p50": "mm",
    "keypoints.qps_per_search": "count",
    "batch.parallel_speedup": "ratio",
    "batch.scene_inflation": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.untimed_share": "ratio",
}


def layer_metric_units():
    """Every per-layer metric name -> unit, in report order."""
    out = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            out[f"{name}.{f}"] = FIELD_UNITS[f]
    for stage in STAGES:
        for f, unit in STAGE_UNITS.items():
            out[f"optimizer.stage{stage}.{f}"] = unit
    out.update(EXTRA_UNITS)
    return out


def layer_metrics(spans, n_ops, extra):
    """Per-layer values from the traced window's spans.

    ``extra`` supplies the values not derived from spans (speedup,
    inflation, overhead ratio).
    """
    n_ops = max(n_ops, 1)
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    values = {}
    for name, fields in LAYER_FIELDS.items():
        idx = by_name.get(name, [])
        durations = [spans[i].duration for i in idx]
        stats = {
            "calls": len(idx) / n_ops,
            "self_s": sum(own[i] for i in idx) / n_ops,
            "p50_us": statistics.median(durations) * 1e6 if durations else 0.0,
            "max_ms": max(durations, default=0.0) * 1e3,
            "failed": sum(spans[i].error is not None for i in idx) / n_ops,
        }
        for f in fields:
            values[f"{name}.{f}"] = stats[f]

    pipelines = [spans[i].info for i in by_name.get("optimizer.run_pipeline", [])
                 if spans[i].info]
    fk = by_name.get("hand.fk_with_jacobians", [])
    for stage, owner in STAGES.items():
        evals = sum(has_ancestor(spans, i, (owner,)) for i in fk)
        runs = [p[f"stage{stage}_records"] for p in pipelines
                if p[f"stage{stage}_records"]]
        caps = [p[f"stage{stage}_cap"] for p in pipelines
                if p[f"stage{stage}_records"]]
        accepted = sum(r - 1 for r in runs)
        prefix = f"optimizer.stage{stage}"
        values[f"{prefix}.evals"] = evals / n_ops
        values[f"{prefix}.accepted"] = accepted / n_ops
        values[f"{prefix}.evals_per_accepted"] = (evals / accepted
                                                 if accepted else 0.0)
        values[f"{prefix}.cap_hits"] = sum(
            r == c + 1 for r, c in zip(runs, caps)) / n_ops

    depths = [p["max_penetration"] * 1e3 for p in pipelines]
    values["optimizer.max_penetration_mm_p50"] = (statistics.median(depths)
                                                  if depths else 0.0)
    searches = len(by_name.get("keypoints.select_keypoints", []))
    qps = sum(has_ancestor(spans, i, ("keypoints.select_clusters",
                                      "keypoints.select_keypoints"))
              for i in by_name.get("equilibrium.stability_energy", []))
    values["keypoints.qps_per_search"] = qps / searches if searches else 0.0
    ops = op_breakdown(spans)
    wall = sum(r["wall_s"] for r in ops)
    values["trace.untimed_share"] = (sum(r["untimed_s"] for r in ops) / wall
                                     if wall else 0.0)
    values.update(extra)
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite: {value}")
    return values
