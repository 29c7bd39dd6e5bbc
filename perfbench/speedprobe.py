"""Wall time normalized by how fast this machine runs right now.

On a shared machine the speed a core gives the benchmark drifts by +-25%
over seconds to minutes, as other tenants load it; a probe on the other
core does not track it. So the pass itself is cut into segments of at
least ``MIN_SEGMENT_S`` at boundaries the workload marks, and a fixed
speed probe runs between segments on the same thread. Each segment's wall
time is divided by the mean of the probes on either side. On the machine
that set the baseline, 26-second medians of approx_exact pass times varied
9.3% (coefficient of variation over 4 minutes) raw and 1.8% normalized;
probing only before and after a 21-second pass did not help at all. A
cold set-up is normalized by a probe run right after it in its interpreter.

The probe mixes what the workloads spend their time on: FFTs of 480
samples, elementwise numpy math, and construction of a validated frozen
dataclass. It uses nothing from torusreg, so a change to the program never
changes the probe, and it binds the FFT functions at import, so the
tracer's patches of ``numpy.fft`` never reach it.
"""

import time
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

REPS = 3000
# Normalized times are reported in seconds at a reference speed: the speed
# at which the probe takes REFERENCE_PROBE_S, about its median on the
# machine that set the baseline. Never change it; it defines the unit.
REFERENCE_PROBE_S = 0.2
MIN_SEGMENT_S = 0.5


@dataclass(frozen=True)
class _Samples:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "values", values)


def speed_probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    x = np.random.default_rng(0).random(480) + 0.5
    damp = 1.0 / (1.0 + np.arange(480.0))
    t0 = time.perf_counter()
    for _ in range(REPS):
        y = ifft(fft(x) * damp).real
        x = _Samples(np.clip(x + 0.1 * np.log(np.abs(y) + 1.0) - 0.05, 0.5, 5.0)).values
    return time.perf_counter() - t0


class PassClock:
    """Times one pass at a time, excluding the probes it runs.

    ``begin()`` starts a pass; the workload calls ``split()`` after each
    segment; ``end()`` closes the pass. Then ``wall_s`` is the pass's wall
    time without probes and ``wall_ref_s`` the sum over probe intervals of
    wall time * REFERENCE_PROBE_S / mean adjacent probe time.
    """

    def __init__(self):
        self.last_probe_s = speed_probe()
        self.probes_s = []

    def begin(self) -> None:
        self.wall_s = self.wall_ref_s = self._pending = 0.0
        self._t0 = time.perf_counter()

    def split(self) -> None:
        dt = time.perf_counter() - self._t0
        self.wall_s += dt
        self._pending += dt
        if self._pending >= MIN_SEGMENT_S:
            self._probe()
        self._t0 = time.perf_counter()

    def end(self) -> None:
        self.split()
        if self._pending > 0.0:
            self._probe()

    def _probe(self) -> None:
        probe = speed_probe()
        self.probes_s.append(probe)
        self.wall_ref_s += self._pending * REFERENCE_PROBE_S / ((self.last_probe_s + probe) / 2.0)
        self.last_probe_s = probe
        self._pending = 0.0
