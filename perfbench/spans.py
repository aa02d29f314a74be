"""In-memory span tracer that times grasp_eq layers from outside the package.

``Tracer.patched()`` rebinds the module attributes that callers look up at
call time to timing wrappers and restores them on exit, so ``src/`` needs no
instrumentation.  Each span records its name, start, end, parent span and op
id; parent stacks are per thread, so spans of the threaded batch nest under
their own ``run_scene``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  The span name is the layer that owns the
# function, which differs from the patched module where a caller imported it.
TRACED = (
    ("grasp_eq.hand", "fk_with_jacobians", "hand.fk_with_jacobians"),
    ("grasp_eq.hand", "forward_kinematics", "hand.forward_kinematics"),
    ("grasp_eq.optimizer", "kp_loss", "optimizer.kp_loss"),
    ("grasp_eq.optimizer", "contact_loss", "optimizer.contact_loss"),
    ("grasp_eq.optimizer", "penetration_loss", "optimizer.penetration_loss"),
    ("grasp_eq.optimizer", "fit_keypoints", "optimizer.fit_keypoints"),
    ("grasp_eq.optimizer", "optimize_grasp", "optimizer.optimize_grasp"),
    ("grasp_eq.optimizer", "evaluate_grasp", "optimizer.evaluate_grasp"),
    ("grasp_eq.optimizer", "solve_force_existence",
     "equilibrium.solve_force_existence"),
    # run_pipeline imports these from grasp_eq.keypoints at call time
    ("grasp_eq.keypoints", "assemble", "equilibrium.assemble"),
    ("grasp_eq.keypoints", "stability_energy", "equilibrium.stability_energy"),
    ("grasp_eq.keypoints", "cluster_contacts", "keypoints.cluster_contacts"),
    ("grasp_eq.keypoints", "select_clusters", "keypoints.select_clusters"),
    ("grasp_eq.keypoints", "select_keypoints", "keypoints.select_keypoints"),
    ("grasp_eq.synth", "solve_force_existence",
     "equilibrium.solve_force_existence"),
    ("grasp_eq.batch", "run_scene", "batch.run_scene"),
    ("grasp_eq.batch", "generate_scene", "synth.generate_scene"),
    ("grasp_eq.batch", "generate_contacts", "synth.generate_contacts"),
    ("grasp_eq.batch", "run_pipeline", "optimizer.run_pipeline"),
    ("grasp_eq.batch", "write_csv", "io.write_csv"),
)

# span names that open an op: the harness's own per-op span, and each scene
# of a batch (run in a pool thread, so it has no parent)
OP_ROOTS = ("op", "batch.run_scene")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _pipeline_info(args, kwargs, result):
    """Stage trace lengths and budgets of a run_pipeline call."""
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"stage2_records": len(result.trace.stage_records(2)),
            "stage3_records": len(result.trace.stage_records(3)),
            "stage2_cap": config.max_iters_stage2,
            "stage3_cap": config.max_iters_stage3,
            "max_penetration": result.report_after.max_penetration}


_RESULT_INFO = {"optimizer.run_pipeline": _pipeline_info}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
                op = self.spans[parent].op
            else:
                parent = None
                op = self._ops
                self._ops += 1
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent, op))
        stack.append(index)
        return self.spans[index]

    def _end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(self, name, fn):
        info = _RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as err:
                    span.error = type(err).__name__
                    raise
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Rebind every TRACED attribute to a timing wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, name in TRACED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """Span duration minus the time its children cover (children on one
    thread run one after another, so their durations do not overlap)."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def has_ancestor(spans, index, names):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def op_breakdown(spans):
    """Per op: wall time of its root span, summed layer self time beneath it,
    and the untimed remainder (the root's own self time)."""
    own = self_times(spans)
    rows = {}
    for i, s in enumerate(spans):
        if s.parent is None and s.name in OP_ROOTS:
            rows[s.op] = {"op": s.op, "wall_s": s.duration, "layers_s": 0.0,
                          "untimed_s": own[i]}
    for i, s in enumerate(spans):
        if s.parent is not None and s.op in rows:
            rows[s.op]["layers_s"] += own[i]
    return [rows[k] for k in sorted(rows)]
