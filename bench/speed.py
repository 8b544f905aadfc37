"""How fast the benchmark's CPU is running right now.

On a shared virtual machine the same code runs up to ~1.6x slower for
stretches of a fraction of a second to minutes, as other tenants load the
host.  The benchmark pins itself and every process it starts to one CPU, and
a thread on that CPU times a fixed probe (small matrix products and float
formatting, like ovabench's own work) every ``INTERVAL_S``.  A time measured
over a window is then reported at the nominal speed::

    normalized = raw * NOMINAL_PROBE_US / (harmonic mean probe time in the window)

so a slow stretch of the machine does not read as a slower program, while a
slower program still does: its code changes, the probe does not.  A probe
steals about 0.3 ms of CPU per interval from the process being measured.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

INTERVAL_S = 0.1
NOMINAL_PROBE_US = 300.0


def at_nominal_speed(seconds: float, probe_us: float) -> float:
    """A time measured while the probe took ``probe_us``, at the nominal speed."""
    return seconds * NOMINAL_PROBE_US / probe_us


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and so every thread and process it starts
    later, to the lowest-numbered CPU it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """A daemon thread timing the probe; ``mark`` and ``mean_us`` bound a window."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((128, 16))
        self._w = rng.standard_normal((16, 16))
        self._values = rng.random(60).tolist()
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def probe_us(self) -> float:
        start = time.perf_counter_ns()
        for _ in range(40):
            np.maximum(self._a @ self._w, 0.0)
        ",".join(f"{x:.17g}" for x in self._values)
        return (time.perf_counter_ns() - start) / 1e3

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(self.probe_us())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def mean_us(self, since: int) -> float:
        """Harmonic mean of the probe times since ``mark`` returned ``since``
        (one fresh probe if the window holds none).  Speed is the inverse of
        probe time, and the work a window holds is its mean speed times its
        length, so the harmonic mean is the probe time that the whole
        window ran at."""
        window = self.samples[since:]
        if not window:
            return self.probe_us()
        return float(len(window) / np.sum(1.0 / np.asarray(window)))
