"""Speed calibration: a fixed numpy kernel timed next to every measurement.

The benchmark runs on shared 2-core hosts whose CPU speed drifts by 20-40%
over tens of seconds. Unscaled, the fastest job of a 35 s run spread 16-26%
across ten runs per workload on the baseline machine (inter-quartile range
over median). The kernel below, timed right before and right after each
timed job or set-up probe, slows down with the host, so `scaled` turns a
wall time into seconds at the speed at which the kernel takes REF_S;
bench/baseline.json holds the scaled spreads. The kernel is the
benchmark's own code and never calls tilediff, so no change to tilediff
can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one `Calibration.measure` on the baseline machine (bench/
# baseline.json). Any fixed value works; it only sets the scale and must
# not change, or scaled times stop being comparable with earlier runs.
REF_S = 0.040


class Calibration:
    """Times `reps` rounds of the numpy calls one sampler step makes on a
    64x64x3 patch: a K=4 GMM posterior, a 4x block-mean measurement, its
    replicating pseudo-inverse, and the noise mix with a normal draw."""

    def __init__(self, reps: int = 60):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 64, 3))
        self.eps = rng.standard_normal((64, 64, 3))
        self.means = rng.standard_normal((4, 64, 64, 3))
        self.reps = reps
        self.rng = np.random.default_rng(1)

    def measure(self) -> float:
        x, eps, means = self.x, self.eps, self.means
        t0 = time.perf_counter()
        for _ in range(self.reps):
            diffs = x[None] - 0.9 * means
            sq = (diffs ** 2).reshape(len(means), -1).sum(axis=1)
            rho = np.exp(-(sq - sq.min()) / 100.0)
            rho /= rho.sum()
            mbar = np.tensordot(rho, means, axes=1)
            x0 = mbar + 0.3 * (x - 0.9 * mbar)
            y = x0.reshape(16, 4, 16, 4, 3).mean(axis=(1, 3))
            x0 = x0 - np.repeat(np.repeat(y, 4, axis=0), 4, axis=1)
            noise = self.rng.standard_normal(x.shape)
            x0 = 0.9 * x0 + 0.4 * (0.8 * noise + 0.6 * eps)
        return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at reference speed, from the kernel times around it."""
    return seconds * REF_S / ((before + after) / 2.0)
