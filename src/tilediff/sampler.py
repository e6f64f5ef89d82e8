"""Reverse-diffusion engine with range-null-space projection.

Each step estimates the clean image from the predicted noise, projects it
onto the measurement-consistent affine subspace (x0hat = pinv(A) y +
(I - pinv(A) A) x0t, or the rescaled variant when the measurement is
noisy), and samples the previous state. Constraint hooks run around the
projection so the tiling and coarse-to-fine layers can edit x0|t without
touching the engine.

Each step function takes `out=` in the numpy sense, and run_sampler passes
the buffers it allocates once per call, so a step's results go into those
buffers rather than into new arrays.
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
        if self.T < 1:
            raise ValueError(f"steps T must be >= 1, got {self.T}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not self.sigma_y >= 0.0:  # NaN fails too
            raise ValueError(f"sigma-y must be >= 0, got {self.sigma_y}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


Hook = Callable[[np.ndarray, int], np.ndarray]


@dataclasses.dataclass(frozen=True)
class ConstraintHooks:
    """x0|t edits applied in order: pre hooks, projection, post hooks.

    A hook h(x0, t) returns the edited x0. It may write into the x0 it is
    given and return it, or return a new array and leave x0 as it is. The
    x0 a hook gets is the sampler's buffer or the previous hook's result,
    and is overwritten at the next step; a hook keeps no reference to it.
    """

    pre: Sequence[Hook] = ()
    post: Sequence[Hook] = ()


def estimate_x0(x_t: np.ndarray, eps_t: np.ndarray, t: int,
                sched: Schedule, out: np.ndarray | None = None) -> np.ndarray:
    """Invert the forward process: x0|t = (x_t - sigma_t eps_t) / a_t.

    Written into out when given; out shares no memory with x_t.
    """
    if t < 1:
        raise ValueError("x0 estimation requires t >= 1")
    # x_t + (-sigma eps_t) rounds exactly like x_t - sigma eps_t
    out = np.multiply(eps_t, -float(sched.sigma[t]), out=out)
    out += x_t
    out /= float(sched.a[t])
    return out


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
    sig = float(sched.sigma[t - 1])
    a = float(sched.a[t - 1])
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
                      t: int, sched: Schedule, cfg: SamplerConfig,
                      out: np.ndarray | None = None
                      ) -> tuple[np.ndarray, float]:
    """Range-null-space projection of x0t onto the measurement y.

    With sigma_y = 0 this is op.project, pinv(A) y + (I - pinv(A) A) x0t,
    and gamma = eta; an operator that measures nothing (generation)
    leaves x0t as it is. Otherwise it is the noisy-path projection
    x0t + lambda pinv(y - A x0t): every measured mode shares the singular
    value op.sing_value, so one (lambda, gamma) pair is exact, and gamma
    is the fresh-noise scale of the measured modes for sample_prev (null
    modes take eta). The projection is written into out when given (out
    may be x0t).
    """
    if y.shape != tuple(op.output_shape):
        raise ValueError(f"measurement shape {y.shape} != {op.output_shape}")
    if cfg.sigma_y == 0.0:
        # lambda = 1 on every mode: the clean projection
        return op.project(y, x0t, out=out), cfg.eta
    lam, gam = compute_lambda_gamma(op.sing_value, t, sched, cfg.eta,
                                    cfg.sigma_y)
    residual = y - op.forward(x0t)
    residual *= lam
    return op.add_pinv(x0t, residual, out=out), gam


def sample_prev(x0hat: np.ndarray, eps_t: np.ndarray, t: int,
                sched: Schedule, cfg: SamplerConfig, noise: np.ndarray,
                op: LinearOperator, gamma: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sample x_{t-1} = a_{t-1} x0hat + sigma_{t-1} (noise mix).

    noise is the step's fresh standard-normal draw eps. The noise mix is
    eta * eps + sqrt(1 - eta^2) * eps_t. A gamma other than eta rescales
    eps on the measured modes (those of op's range projector) to gamma;
    null modes always keep eta. x0hat and noise are only read, so the
    draw's buffer can be refilled once the call returns.

    Without out, eps_t is only read too and the result is a new array.
    With out, the result is written into it and eps_t, the step's own
    prediction, holds the scaled terms before they are added, so it is
    overwritten; out shares no memory with an input. Either way the terms
    are the same and are added in the same order.

    The measured-mode correction k A eps is scaled at measurement size and
    added through op.add_pinv, with the same sums as pinv(A eps) * k added
    at full size except at a zero (Mask's unknown pixels, AvgPool's widened
    residual): +0.0 may be added where pinv(A eps) * k is -0.0. That can flip
    only a -0.0 in out, which needs sigma_{t-1} = 0, and the a_{t-1} x0hat
    term then sets the result unless x0hat is zero there too.
    """
    if t < 1:
        raise ValueError("sampling requires t >= 1")
    sig = float(sched.sigma[t - 1])
    a = float(sched.a[t - 1])
    scratch = None if out is None else eps_t
    out = np.multiply(noise, sig * cfg.eta, out=out)
    if gamma != cfg.eta:
        # not in place: Identity.forward returns its input
        pooled = op.forward(noise) * (sig * (gamma - cfg.eta))
        op.add_pinv(out, pooled, out=out)
    out += np.multiply(eps_t, sig * math.sqrt(1.0 - cfg.eta**2),
                       out=scratch)
    out += np.multiply(x0hat, a, out=scratch)
    return out


def noise_draws(cfg: SamplerConfig) -> int:
    """Standard-normal draws one run_sampler call takes: x_T, one per step,
    one per re-noising jump."""
    r = cfg.travel.r
    return 1 + r * cfg.T + (r - 1) * len(travel_blocks(cfg.T, cfg.travel.l))


class NoiseProducer:
    """Draws of the given shape from `streams` streams of `count` draws
    each, handed out by take(): for k = 0, 1, ... in turn, the first
    `count` draws of default_rng(seed_of(k)). seed_of(k) is called once,
    as stream k starts, so the producer holds no per-stream data.

    A background thread draws the streams in order into a ring of two
    chunks of C draws each, allocated here; C is CHUNK draws, or the total
    when that is fewer. It fills a free chunk in place, with one
    standard_normal(out=) call per stream segment in it, so a chunk may
    end one stream and start the next. Handing over C draws at a time,
    rather than one per step, keeps the two threads from stalling each
    other on the interpreter lock at every step.

    When take() finds no draw ready, the calling thread draws too, rather
    than wait: one draw at a time, it draws ahead the stream the thread
    has not yet started (the earliest one) into a head chunk of C draws,
    also allocated here, until a chunk is ready, the draw it needs is in
    the head, or the head is full. When the thread starts that stream, it
    continues the caller's Generator from where the caller stopped, and
    take() hands out the head draws of the stream before its ring draws.
    Three rules, all under one lock, keep every stream drawn in order by
    one Generator:

    - the thread claims a stream and reads how many draws the caller made
      of it under the lock the caller draws under, so the caller draws no
      more of a claimed stream and the thread skips exactly those draws,
      or seeds the stream there when the caller has not started it;
    - the head moves to a later stream only once its own stream is
      claimed and its head draws have been taken;
    - the caller's Generator goes to the thread with the claim and is
      dropped here, so at most one is held.

    numpy's Generator releases the interpreter lock while it fills, so
    either thread draws while the other computes, and one call for n
    draws fills the same numbers as n calls: every stream is the serial
    sequence bit for bit, whichever thread drew each draw. The ring and
    the head hold three chunks in all: 2.4 MB at C = 8 and a 64x64x3
    draw, of which the head is 0.79 MB.

    A draw is a view into the ring or the head and is valid until the
    next take(), which may hand its chunk back to the thread or draw over
    it: a caller uses each draw before it takes the next. An error in the
    thread is raised by the next take() that needs a ring draw; close()
    stops and joins the thread, also one that is waiting for a free chunk.
    """

    CHUNK = 8

    def __init__(self, seed_of: Callable[[int], int], streams: int,
                 count: int, shape: tuple):
        self.shape = tuple(shape)
        self.count = count
        self._seed_of, self._streams = seed_of, streams
        total = streams * count
        per_chunk = min(total, self.CHUNK)
        self._ring = np.empty((2, per_chunk, *self.shape))
        self._free = threading.Semaphore(2)
        self._ready = queue.SimpleQueue()
        self._stop = threading.Event()
        self._chunk, self._pos, self._len = None, 0, 0
        # the caller's place: a stream index and the draws taken of it
        self._stream, self._taken = 0, 0
        # the head: a stream index, its draws and, until the thread claims
        # the stream, the Generator that drew them
        self._head = np.empty((per_chunk, *self.shape))
        self._head_stream, self._head_len, self._head_rng = -1, 0, None
        self._lock = threading.Lock()
        self._claimed = 0  # streams the thread has started
        self._thread = threading.Thread(
            target=self._fill, args=(total,), name="tilediff-noise",
            daemon=True)
        self._thread.start()

    def _fill(self, total):
        ring = self._ring
        per_chunk = len(ring[0])
        try:
            h = i = 0
            for k in range(self._streams):
                with self._lock:
                    self._claimed = k + 1
                    if self._head_stream == k:
                        rng, skip = self._head_rng, self._head_len
                        self._head_rng = None
                    else:
                        rng, skip = np.random.default_rng(self._seed_of(k)), 0
                count = self.count - skip
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
        if self._taken == self.count:
            self._stream, self._taken = self._stream + 1, 0
        while True:
            if self._stream == self._head_stream and \
                    self._taken < self._head_len:
                draw = self._head[self._taken]
                break
            if self._pos < self._len:
                draw = self._ring[self._chunk, self._pos]
                self._pos += 1
                break
            self._wait()
        self._taken += 1
        return draw

    def _wait(self):
        """Get the next ready chunk; while there is none, draw one draw
        ahead and return."""
        if self._chunk is not None:
            # every draw of the old chunk has been used
            self._free.release()
            self._chunk = None
        try:
            item = self._ready.get_nowait()
        except queue.Empty:
            if self._draw_ahead():
                return
            item = self._ready.get()
        if isinstance(item, Exception):
            self._ready.put(item)  # so a further take() raises too
            raise item
        self._chunk, self._len = item
        self._pos = 0

    def _draw_ahead(self) -> bool:
        """Draw the next draw of the earliest stream the thread has not
        started into the head; False when the rules allow none."""
        with self._lock:
            k = self._claimed
            if k == self._streams:
                return False
            if self._head_stream != k:
                # the head's stream is claimed; it moves once its draws
                # have been taken
                if (self._stream, self._taken) < (self._head_stream,
                                                  self._head_len):
                    return False
                self._head_stream, self._head_len = k, 0
                self._head_rng = np.random.default_rng(self._seed_of(k))
            n = self._head_len
            if n == len(self._head) or n == self.count:
                return False
            self._head_rng.standard_normal(out=self._head[n])
            self._head_len = n + 1
            return True

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
    block start and re-traverse it cfg.travel.r times. The run takes the
    next stream of `noise`, whose streams must hold noise_draws(cfg)
    draws; without it, a producer of the single stream default_rng(cfg.seed)
    is made and closed here. Either way the draws come in the order a
    serial loop over the stream's Generator would make them, and the
    denoiser and the hooks run on the calling thread.

    Buffers: the call allocates the state x, an x0 buffer and a boolean
    finiteness mask once, and every step writes into them. estimate_x0
    and the projection write x0|t and x0hat into the x0 buffer, and
    sample_prev and renoise_jump write the next state into x. The
    denoiser's prediction is a new array each step, which the step then
    owns: sample_prev overwrites it. The sampler writes into no other
    array, so a hook's new array is read, never written. The returned x_0
    is the state buffer, which the caller then owns.
    """
    hooks = hooks or ConstraintHooks()
    sched = build_schedule(cfg.T)
    if tuple(denoiser.input_shape) != tuple(op.input_shape):
        raise ValueError(
            f"denoiser shape {denoiser.input_shape} != operator input "
            f"{op.input_shape}")
    draws = noise_draws(cfg)
    own = noise is None
    if own:
        noise = NoiseProducer(lambda k: cfg.seed, 1, draws, op.input_shape)
    elif (noise.shape, noise.count) != (tuple(op.input_shape), draws):
        raise ValueError(
            f"noise streams of {noise.count} draws of shape {noise.shape} "
            f"!= the run's {draws} of {tuple(op.input_shape)}")
    r = cfg.travel.r
    x0 = np.empty(op.input_shape)
    finite = np.empty(op.input_shape, dtype=bool)
    try:
        # a draw is used before the next take(), which may recycle it
        x = noise.take().copy()
        for t_hi, t_lo in travel_blocks(cfg.T, cfg.travel.l):
            for rep in range(r):
                for t in range(t_hi, t_lo - 1, -1):
                    eps_t = denoiser.predict_eps(x, t, sched)
                    x0t = estimate_x0(x, eps_t, t, sched, out=x0)
                    for h in hooks.pre:
                        x0t = h(x0t, t)
                    x0hat, gamma = ddnm_plus_project(op, y, x0t, t, sched,
                                                     cfg, out=x0)
                    for h in hooks.post:
                        x0hat = h(x0hat, t)
                    x = sample_prev(x0hat, eps_t, t, sched, cfg,
                                    noise.take(), op=op, gamma=gamma, out=x)
                    # spent as sample_prev's scratch; not kept alive while
                    # predict_eps makes the next step's prediction
                    del eps_t
                    if not np.isfinite(x, out=finite).all():
                        raise SamplerError(
                            f"non-finite state at step t={t}")
                if rep < r - 1:
                    jump = t_hi - (t_lo - 1)
                    x = renoise_jump(x, t_lo - 1, jump, noise.take(), sched,
                                     out=x)
    finally:
        if own:
            noise.close()
    return x
