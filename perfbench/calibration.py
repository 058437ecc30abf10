"""Machine-speed calibration for the benchmark's timings.

On a small shared host the speed of one CPU changes by up to 1.7x for tens
of seconds at a time, because of load outside this process (CPU time grows
with wall time, so it is not descheduling).  Raw medians then depend on
how much of a run fell into a slow period.  So every reported time is
scaled to a reference speed: a fixed loop, half interpreted Python and
half small numpy kernels (the two kinds of work mixkd does), is timed
every ``EVERY_S`` seconds between iterations, and a time ``t`` measured
at moment ``s`` becomes ``t * REF_MS / c(s)``, where ``c(s)`` is the
median loop time within ``WINDOW_S`` of ``s``.  ``REF_MS`` is the loop's
time on the reference host when it is not contended, so scaled times read
as uncontended milliseconds there.  The loop calls nothing from mixkd, so
a change to the program moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_MS = 3.9
EVERY_S = 0.1
WINDOW_S = 0.25

_W = np.random.default_rng(0).normal(size=(64, 64)) / 8.0
_X = np.random.default_rng(1).normal(size=(448, 64))


def loop_ms() -> float:
    """Time of one pass of the fixed calibration loop, in ms."""
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(17000):
        acc += (i * 7 % 13) / 3.0
        table[i & 63] = acc
    x = _X
    for _ in range(6):
        y = np.tanh(x @ _W) + x
        e = np.exp(y - y.max(axis=1, keepdims=True))
        x = e / e.sum(axis=1, keepdims=True)
    return (perf_counter() - t0) * 1e3


class Clock:
    """Calibration samples of one run, and the speed factors they give."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            self.samples.append(loop_ms())
            self.stamps.append(perf_counter())

    def factor_now(self, passes: int = 3) -> float:
        """REF_MS over the median of ``passes`` samples taken now."""
        self.sample(passes)
        return REF_MS / float(np.median(self.samples[-passes:]))

    def maybe_sample(self, now: float) -> None:
        if not self.stamps or now - self.stamps[-1] >= EVERY_S:
            self.sample()

    def factors(self, moments) -> np.ndarray:
        """REF_MS / c(s) for each moment s (perf_counter seconds)."""
        stamps, samples = np.array(self.stamps), np.array(self.samples)
        out = np.empty(len(moments))
        for k, s in enumerate(moments):
            lo, hi = np.searchsorted(stamps, [s - WINDOW_S, s + WINDOW_S])
            if hi <= lo:    # no sample in the window: the nearest one
                lo = int(np.abs(stamps - s).argmin())
                hi = lo + 1
            out[k] = REF_MS / np.median(samples[lo:hi])
        return out
