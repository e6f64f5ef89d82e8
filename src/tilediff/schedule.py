"""Diffusion time grid: scale factors a_t, noise levels sigma_t, and the
reverse walk with time travel (travel_steps) and its re-noising jumps.

The numeric grid is a linear-beta schedule, beta from 1e-4 to 0.02 over 1000
reference steps, rescaled by 1000/T so any T spans the same cumulative noise
range. Variance preserving throughout: a_t^2 + sigma_t^2 = 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

BETA_START = 1e-4
BETA_END = 0.02
REFERENCE_STEPS = 1000
BETA_MAX = 0.999


@dataclasses.dataclass(frozen=True)
class Schedule:
    """a and sigma arrays indexed t = 0..T; a_0 = 1, sigma_0 = 0."""

    T: int
    a: np.ndarray
    sigma: np.ndarray


def build_schedule(T: int) -> Schedule:
    """Linear-beta schedule over T steps; a_T <= 0.05 (near pure noise)."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    scale = REFERENCE_STEPS / T
    betas = np.linspace(BETA_START * scale, BETA_END * scale, T)
    betas = np.clip(betas, 0.0, BETA_MAX)
    abar = np.cumprod(1.0 - betas)
    a = np.concatenate([[1.0], np.sqrt(abar)])
    sigma = np.sqrt(1.0 - a**2)
    return Schedule(T=T, a=a, sigma=sigma)


def renoise_jump(x_t: np.ndarray, t: int, l: int, noise: np.ndarray,
                 sched: Schedule, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Re-noise x_t forward by l steps preserving the marginal of x_{t+l}.

    Returns (a_{t+l}/a_t) x_t + sqrt(sigma_{t+l}^2 - (a_{t+l}/a_t)^2
    sigma_t^2) eps, written into out when given (out may be x_t). The
    value under the root is non-negative for any variance-preserving
    schedule.
    """
    if l < 0 or t + l > sched.T:
        raise ValueError(f"jump t={t}, l={l} leaves the grid 0..{sched.T}")
    ratio = sched.a[t + l] / sched.a[t]
    var = sched.sigma[t + l] ** 2 - ratio**2 * sched.sigma[t] ** 2
    assert var > -1e-12, f"negative jump variance {var} at t={t}, l={l}"
    out = np.multiply(x_t, ratio, out=out)
    out += np.sqrt(max(var, 0.0)) * noise
    return out


def travel_steps(T: int, l: int, r: int):
    """(t, jump) for each step from t to t - 1 of the reverse walk: t = T..1
    in blocks of l steps (the last may be shorter), each traversed r times.
    jump is the block's length on the last step of each traversal but the
    block's final one, after which the state is re-noised back to the
    block's start, and 0 elsewhere; the walk ends with (1, 0)."""
    for t_hi in range(T, 0, -l):
        t_lo = max(t_hi - l + 1, 1)
        for rep in range(r):
            for t in range(t_hi, t_lo, -1):
                yield t, 0
            yield t_lo, t_hi - t_lo + 1 if rep < r - 1 else 0
