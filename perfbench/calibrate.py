"""The machine-speed scale that turns measured seconds into reference seconds.

On a shared host the speed of the same code drifts by 20-40 % between
10-second windows, for tens of seconds at a time, and process CPU time
drifts with wall time.  More rounds and medians cannot remove drift on that
time scale.  So just before each timed piece of work, the benchmark times a
fixed piece of clamm-free work of the same kind and multiplies the measured
time by LOOP_REFERENCE_S / (that time).  The calibration is the same code on every
commit, so the scaling cannot hide or fake a change in the program.

The calibration is a loop of small objects, method calls, float arithmetic
and dict stores, like clamm's own code.

On the shared 2-vCPU host the benchmark was built on, each vCPU switched
between two speeds, about 2x apart, several times a second.  A calibration
taken before a piece of work then stands for it only if the work lasts a few
milliseconds.  Work that lasts longer runs under a ``SpeedMonitor``: a side
thread that times a short stretch of the same loop every few milliseconds
while the work runs, on the same CPU (``pin_to_one_cpu``).
"""

from __future__ import annotations

import math
import os
import threading
import time

LOOP_REFERENCE_S = 0.003
LOOP_STEPS = 6000
BEST_OF = 3
SAMPLE_STEPS = 500
SAMPLE_INTERVAL_S = 0.005


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def step(self, d: float) -> "_Point":
        return _Point(self.x + d, self.y - 0.5 * d)


def _loop(steps: int = LOOP_STEPS) -> float:
    point, acc, table = _Point(1.0, 2.0), 0.0, {}
    for i in range(steps):
        point = point.step(1e-3)
        acc += point.x * point.y / (1.0 + point.x)
        table[i & 63] = (point.x, acc)
    return acc


def _best_time(fn) -> float:
    best = math.inf
    for _ in range(BEST_OF):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def loop_scale() -> float:
    """LOOP_REFERENCE_S over the best of three timings of the calibration loop."""
    return LOOP_REFERENCE_S / _best_time(_loop)


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU.

    A speed monitor then measures the CPU the work runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedMonitor:
    """Samples the machine's speed on a side thread while a long piece of work runs.

    Every SAMPLE_INTERVAL_S the thread takes the GIL from the work, times
    SAMPLE_STEPS steps of the calibration loop, and gives the GIL back.
    ``window`` turns the samples inside a timed stretch into the monitor's own
    share of that stretch and the stretch's mean speed scale.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start = clock()
            _loop(SAMPLE_STEPS)
            self.samples.append((start, clock()))

    def window(self, start: float, end: float) -> tuple[float, float | None]:
        """(seconds the samples took, mean scale) over the samples within [start, end].

        The mean of the scales weights each sample by the same stretch of
        time, so it converts wall time to reference time; the scale is None
        when no sample falls inside.
        """
        inside = [b - a for a, b in self.samples if start <= a and b <= end]
        if not inside:
            return 0.0, None
        ref = LOOP_REFERENCE_S * SAMPLE_STEPS / LOOP_STEPS
        return sum(inside), sum(ref / t for t in inside) / len(inside)
