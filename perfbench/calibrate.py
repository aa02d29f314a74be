"""Machine-speed probe: a fixed numpy kernel timed around and during each op.

A small shared host runs this benchmark.  Each of its CPUs switches between
speed states about 2x apart, independently and every fraction of a second to
minutes, with other tenants' load.  An op's wall time follows the states it
happened to run in.  The probe measures them with a fixed unit of
small-array numpy work (a point-cloud transform and distance reduction, 4x4
matrix products and small linear solves, the kinds of call grasp_eq spends
its time in):

- ``PROBE_UNITS`` units right before and right after each timed call (the
  probe after one call serves as the probe before the next, when nothing
  ran in between);
- for a call that runs in the main thread alone, one unit every
  ``SAMPLE_INTERVAL_S`` while it runs, from a ``SIGALRM`` handler, so a
  long op is scaled by the speed it actually ran at.  The handler runs the
  unit twice and times the second run: the first reloads the caches the
  op's own work evicted, so the sample measures the machine rather than
  the op's memory footprint.  The handler's time is taken out of the op's
  wall time;
- for a call whose work runs in pool threads, a probe pinned to each CPU
  before and after it instead of samples.

Units are timed in thread CPU time.  The end-to-end timings are wall times
scaled by the reference unit time over the mean unit time of those probes
and samples: they read as the time the call would take at the reference
speed.  The probe does not call grasp_eq, so a change to the program moves
the scaled figures as it moves the wall times.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

# Median probe time on the reference machine (2-CPU Intel Xeon, Python
# 3.11.7, numpy 2.4.6) in its fast state.  Only a unit: scaled figures equal
# wall times when the machine runs at this speed.
REFERENCE_S = 0.0090
PROBE_UNITS = 15
SAMPLE_INTERVAL_S = 0.05
REUSE_S = 0.005  # a probe that ended this recently still describes the machine

_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=(2048, 3))
_ROTATION = _rng.normal(size=(3, 3))
_FRAME = _rng.normal(size=(4, 4))
_SPD = _rng.normal(size=(12, 12))
_SPD = _SPD @ _SPD.T + np.eye(12)
_RHS = _rng.normal(size=12)


def _unit():
    frame = _FRAME.copy()
    for _ in range(10):
        moved = _POINTS @ _ROTATION + frame[:3, 3]
        dist = np.sqrt(np.einsum("ij,ij->i", moved, moved))
        frame = frame @ _FRAME * 0.5
        frame[0, 0] += dist.min()
    for _ in range(15):
        x = np.linalg.solve(_SPD, _RHS)
        _SPD @ x - _RHS


_last_probe = {"end": float("-inf"), "seconds": 0.0}


def probe():
    """CPU seconds ``PROBE_UNITS`` units of the fixed kernel take now."""
    start = time.thread_time()
    for _ in range(PROBE_UNITS):
        _unit()
    seconds = time.thread_time() - start
    _last_probe.update(end=time.perf_counter(), seconds=seconds)
    return seconds


def probe_each_cpu():
    """One probe pinned to each CPU this thread may run on, then the
    thread's affinity restored; returns (seconds, units)."""
    cpus = os.sched_getaffinity(0)
    try:
        total = 0.0
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            total += probe()
    finally:
        os.sched_setaffinity(0, cpus)
    return total, PROBE_UNITS * len(cpus)


def _probe_before():
    if time.perf_counter() - _last_probe["end"] < REUSE_S:
        return _last_probe["seconds"]
    return probe()


def scale(probe_s, units):
    """Factor that turns a wall time into time at the reference speed, from
    ``probe_s`` seconds spent on ``units`` units of the kernel."""
    return (REFERENCE_S / PROBE_UNITS) / (probe_s / units)


def measured(call, threaded=False):
    """Run ``call`` between two probes, sampling the speed while it runs.

    Returns (wall seconds without the samples, probe seconds, probe units,
    result or the exception it raised); an exception is returned, not
    raised, so a failed op is counted.

    ``threaded`` is for a call whose work runs in pool threads on every
    CPU: it is probed on each CPU before and after, and not sampled while
    it runs, because a sample would share the CPUs with the pool and time
    the pool's load rather than the machine (in-batch samples took twice as
    long as the probes around the batch).
    """
    samples, paused = [], []

    def sample_unit(signum, frame):
        entered = time.perf_counter()
        _unit()
        start = time.thread_time()
        _unit()
        samples.append(time.thread_time() - start)
        paused.append(time.perf_counter() - entered)

    if threaded:
        before, before_units = probe_each_cpu()
    else:
        before, before_units = _probe_before(), PROBE_UNITS
        previous = signal.signal(signal.SIGALRM, sample_unit)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
    start = time.perf_counter()
    try:
        out = call()
    except Exception as err:  # a failed op is counted, not fatal
        out = err
    finally:
        if not threaded:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start - sum(paused)
    if threaded:
        after, after_units = probe_each_cpu()
    else:
        after, after_units = probe(), PROBE_UNITS
    return (wall, before + after + sum(samples),
            before_units + after_units + len(samples), out)


def timed(call):
    """``measured`` for a call in this thread, with the probes turned into
    a scale factor: returns (wall seconds, scale factor, result or
    exception)."""
    wall, probe_s, units, out = measured(call)
    return wall, scale(probe_s, units), out
