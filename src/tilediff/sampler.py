"""Reverse-diffusion engine with range-null-space projection.

Each step estimates the clean image from the predicted noise, projects it
onto the measurement-consistent affine subspace (x0hat = pinv(A) y +
(I - pinv(A) A) x0t, or the rescaled variant when the measurement is
noisy), and samples the previous state. Constraint hooks run around the
projection so the tiling and coarse-to-fine layers can edit x0|t without
touching the engine.
"""

from __future__ import annotations

import dataclasses
import math
import queue
import threading
from typing import Callable, Sequence

import numpy as np

from .linops import LinearOperator
from .schedule import Schedule, TravelPlan, build_schedule, renoise_jump, travel_blocks


class SamplerError(RuntimeError):
    """Non-finite state or other unrecoverable failure during sampling."""


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    T: int = 100
    eta: float = 0.85
    travel: TravelPlan = TravelPlan(1, 1)
    seed: int = 0
    sigma_y: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.sigma_y < 0.0:
            raise ValueError(f"sigma_y must be >= 0, got {self.sigma_y}")


Hook = Callable[[np.ndarray, int], np.ndarray]


@dataclasses.dataclass(frozen=True)
class ConstraintHooks:
    """x0|t edits applied in order: pre hooks, projection, post hooks."""

    pre: Sequence[Hook] = ()
    post: Sequence[Hook] = ()


def estimate_x0(x_t: np.ndarray, eps_t: np.ndarray, t: int,
                sched: Schedule) -> np.ndarray:
    """Invert the forward process: x0|t = (x_t - sigma_t eps_t) / a_t."""
    if t < 1:
        raise ValueError("x0 estimation requires t >= 1")
    # x_t + (-sigma eps_t) rounds exactly like x_t - sigma eps_t
    out = eps_t * -sched.sigma[t]
    out += x_t
    out /= sched.a[t]
    return out


def ddnm_project(op: LinearOperator, y: np.ndarray,
                 x0t: np.ndarray) -> np.ndarray:
    """pinv(A) y + (I - pinv(A) A) x0t; output is measurement-consistent."""
    if y.shape != tuple(op.output_shape):
        raise ValueError(f"measurement shape {y.shape} != {op.output_shape}")
    if y.size == 0:
        # nothing is measured (generation): the projection is the identity
        return x0t
    # grouping keeps mask-style projectors bitwise exact on known pixels
    return op.pinv(y) + (x0t - op.range_project(x0t))


def compute_lambda_gamma(s: float, t: int, sched: Schedule, eta: float,
                         sigma_y: float) -> tuple[float, float]:
    """Coefficients of the modes with singular value s on the noisy path.

    lambda keeps the range-space update as close to full strength as the
    noise budget allows (clamped so the injected measurement noise never
    exceeds the step's total); gamma is the remaining fresh-noise scale,
    satisfying a_{t-1}^2 sigma_y^2 lambda^2 s^2 + sigma_{t-1}^2 gamma^2
    = sigma_{t-1}^2 eta^2. Null modes (s = 0) carry no measurement noise,
    so gamma = eta there. At sigma_{t-1} = 0 both are defined as 0.
    """
    if s < 0:
        raise ValueError(f"singular value must be >= 0, got {s}")
    if t < 1:
        raise ValueError("coefficients require t >= 1")
    if s == 0.0 or sigma_y == 0.0:
        return 1.0, eta
    sig = sched.sigma[t - 1]
    a = sched.a[t - 1]
    if sig == 0.0:
        return 0.0, 0.0
    if sig * eta >= a * sigma_y * s:
        lam = 1.0
        gam = math.sqrt(max(sig**2 * eta**2 - a**2 * sigma_y**2 * s**2,
                            0.0)) / sig
    else:
        lam = sig * eta / (a * sigma_y * s)
        gam = 0.0
    return lam, gam


def ddnm_plus_project(op: LinearOperator, y: np.ndarray, x0t: np.ndarray,
                      t: int, sched: Schedule,
                      cfg: SamplerConfig) -> tuple[np.ndarray, float]:
    """Noisy-path projection x0t + lambda pinv(y - A x0t).

    Every measured mode shares the singular value op.sing_value, so one
    (lambda, gamma) pair is exact. Also returns gamma, the fresh-noise
    scale of the measured modes for sample_prev (null modes take eta).
    With sigma_y = 0 this is exactly ddnm_project and gamma = eta.
    """
    if y.shape != tuple(op.output_shape):
        raise ValueError(f"measurement shape {y.shape} != {op.output_shape}")
    if cfg.sigma_y == 0.0:
        # lambda = 1 on every mode; reduce bit-exactly to the clean path
        return ddnm_project(op, y, x0t), cfg.eta
    lam, gam = compute_lambda_gamma(op.sing_value, t, sched, cfg.eta,
                                    cfg.sigma_y)
    residual = y - op.forward(x0t)
    residual *= lam
    return x0t + op.pinv(residual), gam


def sample_prev(x0hat: np.ndarray, eps_t: np.ndarray, t: int,
                sched: Schedule, cfg: SamplerConfig, noise: np.ndarray,
                op: LinearOperator | None = None,
                gamma: float | None = None) -> np.ndarray:
    """Sample x_{t-1} = a_{t-1} x0hat + sigma_{t-1} (noise mix).

    noise is the step's fresh standard-normal draw eps. The noise mix is
    eta * eps + sqrt(1 - eta^2) * eps_t. A gamma other than eta rescales
    eps on the measured modes (those of op's range projector) to gamma;
    null modes always keep eta. The result is built in noise's buffer,
    which the call overwrites.
    """
    if t < 1:
        raise ValueError("sampling requires t >= 1")
    sig = sched.sigma[t - 1]
    out = noise
    if gamma is not None and gamma != cfg.eta:
        # not in place: Identity's range projector returns its input
        pr = op.range_project(out) * (sig * (gamma - cfg.eta))
        out *= sig * cfg.eta
        out += pr
    else:
        out *= sig * cfg.eta
    out += (sig * math.sqrt(1.0 - cfg.eta**2)) * eps_t
    out += sched.a[t - 1] * x0hat
    return out


class _NoiseAhead:
    """The first `count` standard-normal draws of default_rng(seed), each of
    the given shape, made in order on a background thread.

    The thread is the Generator's only user and runs numpy alone, so the
    draws are the serial sequence bit for bit (one call for n draws fills
    the same numbers as n calls) while the caller computes the steps
    before. Each call makes the fewest whole draws that hold BATCH
    numbers, one at the 64x64x3 patch: every time the thread takes the
    interpreter lock back it stalls the caller, which small draws would
    pay on every step. At most two finished batches wait in the queue. An
    error in the thread is raised by the next take(); close() stops and
    joins the thread.
    """

    BATCH = 1 << 13

    def __init__(self, seed: int, shape: tuple, count: int):
        self._queue = queue.Queue(maxsize=2)
        self._stop = threading.Event()
        self._batch = iter(())
        self._ended = False
        self._thread = threading.Thread(
            target=self._fill, args=(seed, shape, count),
            name="tilediff-noise", daemon=True)
        self._thread.start()

    def _fill(self, seed, shape, count):
        try:
            rng = np.random.default_rng(seed)
            per_call = math.ceil(self.BATCH / math.prod(shape))
            made = 0
            while made < count and not self._stop.is_set():
                n = min(per_call, count - made)
                self._queue.put(rng.standard_normal((n, *shape)))
                made += n
            end = RuntimeError(f"noise stream has only {count} draws")
        except Exception as exc:  # re-raised on the calling thread
            end = exc
        # the last item is always an exception, so a take() past the end
        # raises and close() knows when the thread is done putting
        self._queue.put(end)

    def take(self) -> np.ndarray:
        draw = next(self._batch, None)
        if draw is None:
            batch = self._queue.get()
            if isinstance(batch, Exception):
                self._ended = True
                raise batch
            self._batch = iter(batch)
            draw = next(self._batch)
        return draw

    def close(self):
        self._stop.set()
        while not self._ended:
            self._ended = isinstance(self._queue.get(), Exception)
        self._thread.join()


def run_sampler(op: LinearOperator, y: np.ndarray, denoiser,
                cfg: SamplerConfig,
                hooks: ConstraintHooks | None = None,
                sched: Schedule | None = None,
                on_step: Callable[[int], None] | None = None) -> np.ndarray:
    """Run the full reverse process and return x_0.

    Per step: predict eps, estimate x0|t, apply pre hooks, project onto
    the measurement subspace (relaxed by lambda when cfg.sigma_y > 0),
    apply post hooks, sample x_{t-1}. Time-travel blocks re-noise the
    block start and re-traverse it cfg.travel.r times. The fresh noise is
    drawn ahead on a background thread, in the order a serial loop over
    default_rng(cfg.seed) would draw it; the denoiser, the hooks and
    on_step run on the calling thread.
    """
    hooks = hooks or ConstraintHooks()
    if sched is None:
        sched = build_schedule(cfg.T)
    if denoiser.input_shape is not None and \
            tuple(denoiser.input_shape) != tuple(op.input_shape):
        raise ValueError(
            f"denoiser shape {denoiser.input_shape} != operator input "
            f"{op.input_shape}")
    blocks = travel_blocks(cfg.T, cfg.travel.l)
    r = cfg.travel.r
    # x_T, one draw per step, one per re-noising jump
    noise = _NoiseAhead(cfg.seed, tuple(op.input_shape),
                        1 + r * cfg.T + (r - 1) * len(blocks))
    try:
        x = noise.take()
        for t_hi, t_lo in blocks:
            for rep in range(r):
                for t in range(t_hi, t_lo - 1, -1):
                    eps_t = denoiser.predict_eps(x, t, sched)
                    x0t = estimate_x0(x, eps_t, t, sched)
                    for h in hooks.pre:
                        x0t = h(x0t, t)
                    x0hat, gamma = ddnm_plus_project(op, y, x0t, t, sched,
                                                     cfg)
                    for h in hooks.post:
                        x0hat = h(x0hat, t)
                    x = sample_prev(x0hat, eps_t, t, sched, cfg,
                                    noise.take(), op=op, gamma=gamma)
                    if not np.all(np.isfinite(x)):
                        raise SamplerError(
                            f"non-finite state at step t={t}")
                    if on_step is not None:
                        on_step(t)
                if rep < r - 1:
                    jump = t_hi - (t_lo - 1)
                    x = renoise_jump(x, t_lo - 1, jump, noise.take(), sched)
    finally:
        noise.close()
    return x
