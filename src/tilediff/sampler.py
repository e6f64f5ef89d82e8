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
    return op.project(y, x0t)


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
    return op.add_pinv(x0t, residual), gam


def sample_prev(x0hat: np.ndarray, eps_t: np.ndarray, t: int,
                sched: Schedule, cfg: SamplerConfig, noise: np.ndarray,
                op: LinearOperator, gamma: float) -> np.ndarray:
    """Sample x_{t-1} = a_{t-1} x0hat + sigma_{t-1} (noise mix).

    noise is the step's fresh standard-normal draw eps. The noise mix is
    eta * eps + sqrt(1 - eta^2) * eps_t. A gamma other than eta rescales
    eps on the measured modes (those of op's range projector) to gamma;
    null modes always keep eta. noise is only read: the result is a new
    array, so the draw's buffer can be refilled once the call returns.

    The measured-mode correction k A eps is scaled at measurement size and
    added through op.add_pinv, with the same sums as pinv(A eps) * k added
    at full size except where pinv fills a zero (Mask's unknown pixels):
    there +0.0 is added where 0 * k would be -0.0 for k < 0. That can flip
    only a -0.0 in out, which needs sigma_{t-1} = 0, and the a_{t-1} x0hat
    term then sets the result unless x0hat is zero there too.
    """
    if t < 1:
        raise ValueError("sampling requires t >= 1")
    sig = sched.sigma[t - 1]
    out = noise * (sig * cfg.eta)
    if gamma != cfg.eta:
        # not in place: Identity.forward returns its input
        pooled = op.forward(noise) * (sig * (gamma - cfg.eta))
        op.add_pinv(out, pooled, out=out)
    out += (sig * math.sqrt(1.0 - cfg.eta**2)) * eps_t
    out += sched.a[t - 1] * x0hat
    return out


def noise_draws(cfg: SamplerConfig) -> int:
    """Standard-normal draws one run_sampler call takes: x_T, one per step,
    one per re-noising jump."""
    r = cfg.travel.r
    return 1 + r * cfg.T + (r - 1) * len(travel_blocks(cfg.T, cfg.travel.l))


class NoiseProducer:
    """Draws of the given shape from an ordered list of (seed, count)
    streams, made on a background thread: the first `count` draws of
    default_rng(seed) for each stream in turn, handed out by take().

    The ring is two chunks of C draws each, allocated here; C is the
    number of whole draws that fit in CHUNK numbers (eight at the 64x64x3
    patch), at least one and at most the total. The thread fills a free
    chunk in place, with one standard_normal(out=) call per stream segment
    in it, so a chunk may end one stream and start the next. The thread
    is each Generator's only user and runs numpy alone, so every stream is
    the serial sequence bit for bit (one call for n draws fills the same
    numbers as n calls). Handing over C draws at a time, rather than one
    per step, keeps the two threads from stalling each other on the
    interpreter lock at every step.

    A draw is a view into the ring and is valid until the next take() that
    starts a new chunk, which hands the old chunk back to the thread: a
    caller uses each draw before it takes the next. An error in the thread
    is raised by the next take(); close() stops and joins the thread,
    also one that is waiting for a free chunk.
    """

    CHUNK = 8 * 64 * 64 * 3

    def __init__(self, streams: Sequence[tuple[int, int]], shape: tuple):
        self.shape = tuple(shape)
        total = sum(count for _, count in streams)
        per_chunk = max(1, min(total, self.CHUNK // math.prod(self.shape)))
        self._ring = np.empty((2, per_chunk, *self.shape))
        self._free = threading.Semaphore(2)
        self._ready = queue.SimpleQueue()
        self._stop = threading.Event()
        self._chunk, self._pos, self._len = None, 0, 0
        self._thread = threading.Thread(
            target=self._fill, args=(list(streams), total),
            name="tilediff-noise", daemon=True)
        self._thread.start()

    def _fill(self, streams, total):
        ring = self._ring
        per_chunk = len(ring[0])
        try:
            h = i = 0
            for seed, count in streams:
                rng = np.random.default_rng(seed)
                while count:
                    if i == 0:
                        self._free.acquire()
                        if self._stop.is_set():
                            return
                    n = min(count, per_chunk - i)
                    rng.standard_normal(out=ring[h, i:i + n])
                    count -= n
                    i += n
                    if i == per_chunk:
                        self._ready.put((h, i))
                        h, i = 1 - h, 0
            if i:
                self._ready.put((h, i))
            end = RuntimeError(f"noise streams hold only {total} draws")
        except Exception as exc:  # re-raised on the calling thread
            end = exc
        # the last item is always an exception, so a take() past the end
        # raises
        self._ready.put(end)

    def take(self) -> np.ndarray:
        if self._pos == self._len:
            if self._chunk is not None:
                # every draw of the old chunk has been used
                self._free.release()
            item = self._ready.get()
            if isinstance(item, Exception):
                self._chunk = None
                self._ready.put(item)  # so a further take() raises too
                raise item
            self._chunk, self._len = item
            self._pos = 0
        draw = self._ring[self._chunk, self._pos]
        self._pos += 1
        return draw

    def close(self):
        self._stop.set()
        self._free.release()
        self._thread.join()


def run_sampler(op: LinearOperator, y: np.ndarray, denoiser,
                cfg: SamplerConfig, hooks: ConstraintHooks | None = None,
                noise: NoiseProducer | None = None) -> np.ndarray:
    """Run the full reverse process and return x_0.

    Per step: predict eps, estimate x0|t, apply pre hooks, project onto
    the measurement subspace (relaxed by lambda when cfg.sigma_y > 0),
    apply post hooks, sample x_{t-1}. Time-travel blocks re-noise the
    block start and re-traverse it cfg.travel.r times. The run takes its
    noise_draws(cfg) fresh draws from `noise`, whose next stream they must
    be; without it, a producer of the single stream default_rng(cfg.seed)
    is made and closed here. Either way the draws come in the order a
    serial loop over the stream's Generator would make them, and the
    denoiser and the hooks run on the calling thread.
    """
    hooks = hooks or ConstraintHooks()
    sched = build_schedule(cfg.T)
    if tuple(denoiser.input_shape) != tuple(op.input_shape):
        raise ValueError(
            f"denoiser shape {denoiser.input_shape} != operator input "
            f"{op.input_shape}")
    own = noise is None
    if own:
        noise = NoiseProducer([(cfg.seed, noise_draws(cfg))], op.input_shape)
    elif noise.shape != tuple(op.input_shape):
        raise ValueError(
            f"noise shape {noise.shape} != operator input {op.input_shape}")
    r = cfg.travel.r
    try:
        # a draw is used before the next take(), which may recycle it
        x = noise.take().copy()
        for t_hi, t_lo in travel_blocks(cfg.T, cfg.travel.l):
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
                if rep < r - 1:
                    jump = t_hi - (t_lo - 1)
                    x = renoise_jump(x, t_lo - 1, jump, noise.take(), sched)
    finally:
        if own:
            noise.close()
    return x
