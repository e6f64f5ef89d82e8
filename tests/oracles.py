"""Reference implementations the tests compare tilediff against.

No run of the package needs these: the textbook Gaussian and mixture
posterior means, the forward process, an operator's dense matrix, a
zero-noise denoiser, the constraint kernels in the form that builds every
full-size operand, the sampler's step loop with every step's arrays made
anew, a plain re-derivation of the mask-shift tiling loop, a reduced
task's input pooled whole, each task's full-size inverse problem, and the
run's finish (seam metric, quantizer) over the whole image.
"""

import dataclasses
import math

import numpy as np

from tilediff import linops, tasks
from tilediff.denoise import Denoiser
from tilediff.imagecore import BAND_ROWS
from tilediff.msr import tile_seed
from tilediff.sampler import (ConstraintHooks, ddnm_plus_project,
                              estimate_x0, run_sampler, sample_prev)
from tilediff.schedule import build_schedule, renoise_jump


def dense_matrix(op) -> np.ndarray:
    """Explicit (output size x input size) matrix of op.forward."""
    d = int(np.prod(op.input_shape))
    if d > 4096:
        raise ValueError(f"dense matrix limited to D <= 4096, got {d}")
    cols = np.zeros((int(np.prod(op.output_shape)), d))
    basis = np.zeros(d)
    for j in range(d):
        basis[j] = 1.0
        cols[:, j] = op.forward(basis.reshape(op.input_shape)).ravel()
        basis[j] = 0.0
    return cols


def gaussian_posterior_x0(x_t, mu, var, a_t: float, sigma_t: float):
    """Posterior mean of x_0 under the prior N(mu, var I).

    x0hat = mu + a_t var / (a_t^2 var + sigma_t^2) * (x_t - a_t mu).
    """
    if sigma_t <= 0:
        raise ValueError("denoiser requires sigma_t > 0 (never called at t=0)")
    shrink = a_t * var / (a_t**2 * var + sigma_t**2)
    return mu + shrink * (x_t - a_t * mu)


def gmm_posterior_x0(x_t, means, weights, tau: float, a_t: float,
                     sigma_t: float):
    """Posterior mean of x_0 under a mixture of isotropic Gaussians.

    Responsibilities are computed in log space with max-subtraction, so at
    least one component always survives.
    """
    if sigma_t <= 0:
        raise ValueError("denoiser requires sigma_t > 0 (never called at t=0)")
    means = np.asarray(means, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    c = a_t**2 * tau**2 + sigma_t**2
    diffs = x_t[None, ...] - a_t * means
    sq = (diffs**2).reshape(len(weights), -1).sum(axis=1)
    logp = np.log(weights) - sq / (2.0 * c)
    logp -= logp.max()
    rho = np.exp(logp)
    rho /= rho.sum()
    assert np.isfinite(rho).all()
    mbar = np.tensordot(rho, means, axes=1)
    shrink = a_t * tau**2 / c
    return mbar + shrink * (x_t - a_t * mbar)


def eps_from_x0(x_t, x0hat, a_t: float, sigma_t: float):
    return (x_t - a_t * x0hat) / sigma_t


def forward_diffuse(x0, t: int, noise, sched):
    """x_t = a_t x_0 + sigma_t eps for standard-normal eps."""
    if not 0 <= t <= sched.T:
        raise ValueError(f"t = {t} out of range 0..{sched.T}")
    return sched.a[t] * x0 + sched.sigma[t] * noise


def add_pinv(op, x, r):
    """x + pinv(r) with the replicated (or zero-filled) pinv(r) built."""
    return x + op.pinv(r)


def clean_project(op, y, x0t):
    """pinv(A) y + (I - pinv(A) A) x0t as op.project groups it at
    lambda = 1: for Mask and Identity as pinv(A) y + (x0t - pinv(A) A x0t),
    exact on measured pixels; for AvgPool and Gray as the correction
    x0t + pinv(y - A x0t), with the replicated correction built."""
    if isinstance(op, (linops.Mask, linops.Identity)):
        return op.pinv(y) + (x0t - op.range_project(x0t))
    return add_pinv(op, x0t, y - op.forward(x0t))


def sample_prev_mix(x0hat, eps_t, t, sched, cfg, noise, op, gamma):
    """sample_prev with the measured-mode correction replicated first and
    then scaled: pinv(A eps) * k. Leaves noise intact."""
    sig = sched.sigma[t - 1]
    out = noise.copy()
    if gamma != cfg.eta:
        pr = op.range_project(out) * (sig * (gamma - cfg.eta))
        out *= sig * cfg.eta
        out += pr
    else:
        out *= sig * cfg.eta
    out += (sig * math.sqrt(1.0 - cfg.eta**2)) * eps_t
    out += sched.a[t - 1] * x0hat
    return out


def lowfreq_hook(sr, ref):
    """A hook that writes x0t + pinv(A_sr)(ref - A_sr x0t) over x0t, with
    the replicated correction built."""
    def hook(x0t, t):
        x0t[...] = x0t + sr.pinv(ref - sr.forward(x0t))

    return hook


class ZeroDenoiser(Denoiser):
    """All-zero noise prediction for states of the given shape; implies
    x0|t = x_t / a_t."""

    def __init__(self, shape):
        self.input_shape = tuple(shape)

    def predict_eps(self, x_t, t, sched):
        return np.zeros_like(x_t)


def replay_sampler(op, y, denoiser, cfg, hooks=ConstraintHooks()):
    """run_sampler as one serial loop whose step functions return new
    arrays (no out=), taking every draw (x_T, one per step but the last,
    one per re-noising jump) from default_rng(cfg.seed) in order. The hooks
    edit each step's new x0 in place. The last step's x_0 is its x0hat.
    Time travel is written out here, not taken from the package: the steps
    T..1 in chunks of travel_l, each walked travel_r times, then re-noised
    from below the chunk back to its top between walks."""
    sched = build_schedule(cfg.T)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal(op.input_shape)
    steps = list(range(cfg.T, 0, -1))
    blocks = [steps[i:i + cfg.travel_l]
              for i in range(0, cfg.T, cfg.travel_l)]
    for block in blocks:
        for rep in range(cfg.travel_r):
            for t in block:
                eps_t = denoiser.predict_eps(x, t, sched)
                x0t = estimate_x0(x, eps_t, t, sched)
                for h in hooks.pre:
                    h(x0t, t)
                x0hat, gamma = ddnm_plus_project(op, y, x0t, t, sched, cfg)
                for h in hooks.post:
                    h(x0hat, t)
                if t == 1 and rep == cfg.travel_r - 1:
                    x = x0hat.copy()
                else:
                    x = sample_prev(x0hat, eps_t, t, sched, cfg,
                                    rng.standard_normal(x.shape), op=op,
                                    gamma=gamma)
            if rep < cfg.travel_r - 1:
                x = renoise_jump(x, block[-1] - 1, len(block),
                                 rng.standard_normal(x.shape), sched)
    return x


def replay_msr(task, plan, den, cfg, pre_hook_factory=None):
    """Independent re-derivation of the tiling loop; asserts each committed
    tile leaves already-known canvas pixels bitwise unchanged.
    pre_hook_factory(window) -> hook adds a leading x0|t constraint per
    tile."""
    image = np.zeros(task.shape)
    known = np.zeros(task.shape[:2], dtype=bool)
    for idx, win in enumerate(plan.windows):
        row, col = plan.grid_index(idx)
        op, y = task.tile_problem(win)
        ys, xs = win.slices()
        frozen = known[ys, xs].copy()
        post = []
        if frozen.any():
            fixed = image[ys, xs, :].copy()
            post.append(lambda x0, t, k=frozen[:, :, None], f=fixed:
                        np.copyto(x0, f, where=k))
        pre = [] if pre_hook_factory is None else [pre_hook_factory(win)]
        out = run_sampler(op, y, den,
                          dataclasses.replace(cfg,
                                              seed=tile_seed(cfg.seed, row,
                                                             col)),
                          hooks=ConstraintHooks(pre=pre, post=post))
        if frozen.any():
            assert np.array_equal(out[frozen], image[ys, xs, :][frozen])
        image[ys, xs, :] = out
        known[ys, xs] = True
    return image


def pool(a, f: int, reduce) -> np.ndarray:
    """reduce(., axis=(1, 3)) over the f x f blocks of a (H, W[, C]), an
    array or a reader, one row band of whole blocks at a time: the whole
    pooled input a reduced task held before it pooled each window it
    reads."""
    h, w = a.shape[:2]
    step = f * -(-BAND_ROWS // f)
    return np.concatenate([
        reduce(band.reshape(len(band) // f, f, w // f, f, *band.shape[2:]),
               axis=(1, 3))
        for band in (a[top:top + step] for top in range(0, h, step))])


def full_problem(task):
    """(operator, measurement) of the task at full size, or None for
    generation: the reference that tasks.consistency and the tiled
    assemblies are checked against."""
    # np.asarray reads an input a task keeps behind a reader (a CodeReader,
    # or a reduced task's pooled one) whole
    if isinstance(task, tasks.SuperResolutionTask):
        return linops.AvgPool(task.shape, task.scale), np.asarray(task.y)
    if isinstance(task, tasks.InpaintTask):
        op = linops.Mask(np.asarray(task.known), channels=task.shape[2])
        return op, op.forward(np.asarray(task.observed))
    if isinstance(task, tasks.ColorizeTask):
        return linops.Gray(task.shape), np.asarray(task.gray)
    if isinstance(task, tasks.DenoiseTask):
        return linops.Identity(task.shape), np.asarray(task.observed)
    return None


def line_excess(img, axis, pos):
    """The seam statistic of line pos along an axis of img: max |first
    difference| across the line, minus the median |first difference| in
    its interior band, clamped at 0. Difference k is |line k+1 - line k|;
    the band is the five differences after the line, or before it when the
    image ends first, with the band below line 2 clamped at line 0 (an
    empty band has median 0)."""
    diffs = np.abs(np.diff(img, axis=axis)).swapaxes(0, axis)
    extent = img.shape[axis]
    lo = pos + 1
    hi = min(lo + 5, extent - 1)
    if hi - lo < 5:
        hi = max(pos - 2, 0)
        lo = max(hi - 5, 0)
    band = diffs[lo:hi]
    med = float(np.median(band)) if band.size else 0.0
    return max(float(diffs[pos - 1].max()) - med, 0.0)


def seam_metric(img, plan):
    """line_excess of every internal tile boundary line, columns then
    rows, each in order of position."""
    def seam_lines(starts, extent):
        lines = set()
        for i in range(1, len(starts)):
            lines.add(starts[i])
            if starts[i - 1] + plan.patch < extent:
                lines.add(starts[i - 1] + plan.patch)
        return sorted(lines)

    return ([("col", c, line_excess(img, 1, c))
             for c in seam_lines(plan.lefts, plan.width)]
            + [("row", r, line_excess(img, 0, r))
               for r in seam_lines(plan.tops, plan.height)])


def written_seam_metric(img, plan):
    """The seams a job reports: seam_metric of the written 8-bit codes (as
    numbers) on both axes, the excess in codes scaled by 2/255."""
    codes = quantize(img).astype(np.float64)
    return [(axis, pos, v * (2.0 / 255.0))
            for axis, pos, v in seam_metric(codes, plan)]


def quantize(data):
    """8-bit codes of the whole image at once: clip, shift, scale, round."""
    v = np.clip(data, -1.0, 1.0)
    return np.rint((v + 1.0) * (255.0 / 2.0)).astype(np.uint8)
