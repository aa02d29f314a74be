"""grasp-eq benchmark: run one workload for a fixed window and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grasp_tripod --seed 1 --seconds 26 --trace 0

The package is imported from ``src/`` of the checkout.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` spends half
the window untraced and half traced and reports the per-layer metrics.
Timings are wall times scaled to the reference speed of a fixed probe
kernel run around every timed call (see ``calibrate``).  The last line of
standard output is the JSON result; the lines before it give the same
figures for people, with the raw wall times, the environment, the tail's
sample counts and failure details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from metrics import layer_metric_units, layer_metrics, per_input, tail
from spans import Tracer, op_breakdown

# workloads imports grasp_eq, so it is imported once src/ is on the path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7  # builds of the inputs and fresh imports of the package
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS", "GRASP_EQ_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


IMPORT_TIMER = Path(__file__).resolve().parent / "import_timer.py"


def import_package():
    """Import grasp_eq from the checkout's src/; returns the median scaled
    import time of fresh interpreters doing the same (see import_timer)."""
    if not (SRC / "grasp_eq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grasp_eq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import grasp_eq
    if Path(grasp_eq.__file__).resolve().parent != (SRC / "grasp_eq").resolve():
        raise SystemExit(f"perfbench: imported grasp_eq from {grasp_eq.__file__}")
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, str(IMPORT_TIMER), str(SRC)],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        times.append(float(child.stdout.split()[0]))
    return statistics.median(times)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy
    from workloads import nproc
    return {"nproc": nproc(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def measure(workload, seconds, tracer=None, min_rounds=1):
    """Whole rounds until the window has elapsed; returns (ops, busy s).

    Repeat checks (bit-identical residuals, byte-identical CSVs) need a
    second round, so the untraced window always runs at least two; the
    traced run gets its second round from its second half.
    """
    ops, busy, rounds = [], 0.0, 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        round_ops, round_busy = workload.round(tracer)
        ops += round_ops
        busy += round_busy
        rounds += 1
    if hasattr(workload, "take_scale"):  # scaled once, over the window
        factor = workload.take_scale()
        for op in ops:
            op.latency_s = op.wall_s * factor
        busy *= factor
    return ops, busy


def setup(name, seed):
    """Build the workload SETUP_REPEATS times; keep the last build.
    Returns it and the median scaled build time."""
    import workloads
    times, built = [], None
    for _ in range(SETUP_REPEATS):
        if built is not None:
            built.close()
        wall, factor, built = calibrate.timed(
            lambda: workloads.build(name, seed, str(ROOT)))
        if isinstance(built, Exception):
            raise built
        times.append(wall * factor)
    return built, statistics.median(times)


def end_to_end(ops, busy, setup_s):
    latencies = per_input(ops)
    walls = per_input(ops, "wall_s")
    tail_ms, beyond, n = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_latency_p50_ms": (statistics.median(latencies), "ms"),
        "op_latency_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(ops) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    scales = [op.latency_s / op.wall_s for op in ops if op.wall_s > 0]
    notes = {
        "op_latency_p50_ms": (f"wall p50 {statistics.median(walls):.6g} ms, "
                              f"p50 scale {statistics.median(scales):.4f}"),
        "op_latency_tail_ms": (f"p90 over {n} inputs' medians, {beyond} "
                               f"beyond, {len(ops)} ops; "
                               f"wall p90 {tail(walls)[0]:.6g} ms"),
    }
    return metrics, notes


def quality(ops):
    """Failure ratio over all ops, and grasp success where ops make grasps.

    Not gated: both can be 0 on a healthy commit.  Failures are gated
    through the result's ``attempted`` and ``failed`` counts.
    """
    failed = sum(op.outcome != "ok" for op in ops)
    grasps = [op.success for op in ops if op.success is not None]
    out = {"ops_failed_ratio": (failed / len(ops), "ratio")}
    if grasps:
        out["grasp_success_rate"] = (sum(grasps) / len(grasps), "ratio")
    return out


def traced_window(workload, seconds):
    """Half the window untraced, half traced; returns (ops, per-layer)."""
    from workloads import Op
    half = seconds / 2.0
    plain_ops, plain_busy = measure(workload, half)
    extra = {"batch.parallel_speedup": 0.0, "batch.scene_inflation": 0.0}
    all_ops = list(plain_ops)
    if hasattr(workload, "serial_pass"):
        serial_wall, serial_scenes, problem = workload.serial_pass()
        rounds = len(plain_ops) // len(serial_scenes)
        extra["batch.parallel_speedup"] = serial_wall / (plain_busy / rounds)
        extra["batch.scene_inflation"] = (
            statistics.median(op.latency_s for op in plain_ops)
            / statistics.median(serial_scenes))
        if problem:
            all_ops.append(Op(0.0, "incorrect", f"serial pass: {problem}"))
    tracer = Tracer()
    with tracer.patched():
        traced_ops, traced_busy = measure(workload, half, tracer)
    all_ops += traced_ops
    extra["trace.overhead_ratio"] = ((len(traced_ops) / traced_busy)
                                     / (len(plain_ops) / plain_busy))
    for row in op_breakdown(tracer.spans):
        print("op {op}: wall {wall_s:.6f} s, layer self time {layers_s:.6f} s, "
              "untimed {untimed_s:.6f} s".format(**row))
    return all_ops, layer_metrics(tracer.spans, len(traced_ops), extra)


def report(ops, metrics, notes, quality_figures):
    for name, (value, unit) in {**metrics, **quality_figures}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    problems = [op for op in ops if op.outcome != "ok"]
    for op in problems[:20]:
        print(f"{op.outcome}: {op.detail}")
    if len(problems) > 20:
        print(f"... {len(problems) - 20} more")
    result = {
        "correct": not any(op.outcome == "incorrect" for op in ops),
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}, "
                         f"expected one of {workloads.WORKLOADS}")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    workload, build_s = setup(args.workload, args.seed)
    try:
        if args.trace:
            ops, layers = traced_window(workload, args.seconds)
            metrics = {name: (layers[name], unit)
                       for name, unit in layer_metric_units().items()}
            notes = {}
        else:
            ops, busy = measure(workload, args.seconds, min_rounds=2)
            metrics, notes = end_to_end(ops, busy, import_s + build_s)
    finally:
        workload.close()
    report(ops, metrics, notes, quality(ops))


if __name__ == "__main__":
    main()
