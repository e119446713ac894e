"""Host speed probe: a fixed kernel timed throughout every untraced pass.

On a shared host the same code runs up to a third slower for minutes at a
time, and process CPU time slows with it, so wall and CPU time alone measure
the host as much as the program.  The probe runs a fixed kernel that does not
touch epresolve, once when a pass starts, every ``INTERVAL_S`` seconds while
it runs (from a SIGALRM handler, between bytecodes of the main thread) and
once when it ends.  Dividing a pass's time by the mean kernel time of that
pass gives its time on a reference host, one that runs the kernel in
``REF_KERNEL_S`` seconds.  The kernel's own time is subtracted from the pass.

The kernel mixes the two kinds of work epresolve does: interpreted complex
arithmetic and dict updates (the exact tails and ``OscRational`` algebra) and
small-array numpy ufuncs and reductions (the grid kernels and quadrature
panels).
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 2.0
REF_KERNEL_S = 0.1  # kernel time on the reference host, by definition
_PY_STEPS = 100_000
_NP_STEPS = 700
_GRID = np.linspace(-3.0, 3.0, 4001)


def kernel() -> float:
    """Fixed work, about 0.1 s on a 2-core Xeon; the result is returned so it is computed."""
    acc: dict[int, complex] = {}
    z = 0.3 + 1.1j
    for i in range(1, _PY_STEPS):
        w = (z + i) ** -2 * cmath.exp(0.01j * i)
        acc[i % 97] = acc.get(i % 97, 0j) + w
    s = 0.0
    for i in range(_NP_STEPS):
        s += float(np.sum(np.exp(-_GRID * _GRID * (1.0 + i * 1e-3)) * np.cos(_GRID * (i * 0.01))))
    return s + abs(sum(acc.values()))


class SpeedProbe:
    """Kernel samples of the current pass and the time they took inside it."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall_s, cpu_s) per kernel run
        self.spent_wall = 0.0  # kernel time inside the pass, summed
        self.spent_cpu = 0.0
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> tuple[float, float]:
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        sample = (time.perf_counter() - t0, time.process_time() - c0)
        self.samples.append(sample)
        return sample

    def _sample_inside(self) -> None:
        wall, cpu = self._sample()
        self.spent_wall += wall
        self.spent_cpu += cpu

    def _on_alarm(self, signum, frame) -> None:
        if not self._armed:  # a signal that was already pending when the pass ended
            return
        self._sample_inside()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        """Sample once before the pass, then every INTERVAL_S inside it until stop()."""
        self.samples, self.spent_wall, self.spent_cpu = [], 0.0, 0.0
        self._sample()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        """Sample once more; the pass's clocks are read after this."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample_inside()

    def factors(self) -> tuple[float, float]:
        """REF_KERNEL_S over the pass's mean kernel wall and CPU time."""
        return (REF_KERNEL_S / statistics.fmean(s[0] for s in self.samples),
                REF_KERNEL_S / statistics.fmean(s[1] for s in self.samples))
