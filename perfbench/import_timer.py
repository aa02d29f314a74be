"""Time ``import grasp_eq`` in a fresh interpreter, scaled to a reference speed.

    python3 perfbench/import_timer.py <src dir>

prints the import's wall time scaled to the reference speed, then the wall
time as measured.  The scaling works as in ``calibrate``, with a pure-Python
unit of work, because numpy must not be loaded before the timed import:
a ``SIGALRM`` handler runs the unit twice every ``SAMPLE_INTERVAL_S`` during
the import and times the second run; its time is taken out of the import's
wall time.  Loading modules is mostly bytecode execution, which this unit
tracks: over 24 fresh imports the spread of wall times was 19% of their
median and that of scaled times 7%.
"""

import signal
import sys
import time

# Median unit time on the reference machine (2-CPU Intel Xeon, Python
# 3.11.7) in its fast state.
REFERENCE_UNIT_S = 0.00030
SAMPLE_INTERVAL_S = 0.01


def unit():
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


def main():
    samples, paused = [], []

    def sample_unit(signum, frame):
        entered = time.perf_counter()
        unit()
        start = time.thread_time()
        unit()
        samples.append(time.thread_time() - start)
        paused.append(time.perf_counter() - entered)

    sys.path.insert(0, sys.argv[1])
    signal.signal(signal.SIGALRM, sample_unit)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = time.perf_counter()
    import grasp_eq  # noqa: F401
    wall = time.perf_counter() - start - sum(paused)
    signal.setitimer(signal.ITIMER_REAL, 0)
    if not samples:  # an import shorter than one interval
        for _ in range(10):
            sample_unit(None, None)
    unit_s = sum(samples) / len(samples)
    print(wall * REFERENCE_UNIT_S / unit_s, wall)


if __name__ == "__main__":
    main()
