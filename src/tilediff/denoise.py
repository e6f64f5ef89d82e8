"""Closed-form noise predictors.

These stand in for a trained denoiser: given x_t = a_t x_0 + sigma_t eps
with x_0 drawn from a Gaussian or Gaussian-mixture prior, the posterior mean
E[x_0 | x_t] is available in closed form, and the predicted noise is
eps_t = (x_t - a_t x0hat) / sigma_t. This makes every downstream stage
exactly verifiable without training.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from . import imagecore
from .schedule import Schedule


class Denoiser:
    """Interface: predict_eps(x_t, t, sched) for states of input_shape.

    Each call returns a new array, which the caller owns and may
    overwrite: run_sampler's step spends it as scratch.
    """

    input_shape: tuple

    def predict_eps(self, x_t: np.ndarray, t: int,
                    sched: Schedule) -> np.ndarray:
        raise NotImplementedError


class GmmDenoiser(Denoiser):
    """Mixture of isotropic Gaussians N(m_k, tau^2 I); one component is the
    plain Gaussian prior N(mu, tau^2 I)."""

    def __init__(self, means, weights, tau: float):
        means = [np.asarray(m, dtype=np.float64) for m in means]
        if not means:
            raise ValueError("mixture needs at least one component")
        shape = means[0].shape
        if any(m.shape != shape for m in means):
            raise ValueError("all component means must share one shape")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(means),):
            raise ValueError(f"mixture has {len(means)} component means "
                             f"but {weights.size} weights")
        total = weights.sum()
        if not (np.all(weights > 0) and total < np.inf):
            raise ValueError(
                "component weights must be positive with a finite sum")
        if abs(total - 1.0) > 1e-12:
            weights = weights / total
        if not 0 < tau < np.inf:
            raise ValueError("tau must be positive and finite")
        self.means = np.stack(means)
        self.weights = weights
        self.tau = float(tau)
        self.input_shape = shape
        # step-independent parts of the GEMM-form posterior
        self._flat = self.means.reshape(len(weights), -1)
        self._sq_norms = np.einsum("kd,kd->k", self._flat, self._flat)
        self._log_w = np.log(weights)
        self.calls = 0  # predict_eps calls, one per sampler step

    def predict_eps(self, x_t, t, sched):
        """(x_t - a x0hat) / sigma for the mixture's posterior mean x0hat,
        without the K x D distances.

        Responsibilities are the softmax of log w_k - ||x - a m_k||^2 / 2c,
        c = a^2 tau^2 + sigma^2, and ||x - a m_k||^2 = ||x||^2 - 2a <m_k, x>
        + a^2 ||m_k||^2, whose shared ||x||^2 cancels in the softmax. With
        x0hat = mbar + shrink (x - a mbar), shrink = a tau^2 / c, the noise
        prediction is (1 - a shrink) / sigma (x - a mbar) = sigma / c
        (x - a mbar).

        The weights are exponentiated relative to the winning logit k, so
        the winner's is exactly 1. When they then sum to exactly 1.0, the
        others add up to at most half an ulp of it, and dropping them moves
        mbar only by round-off: the prediction is formed from m_k alone,
        (x - a m_k) sigma / c, and the K x D mixture product is skipped.
        Otherwise the normalization and -a are folded into one K-vector
        scale before the product.
        """
        self.calls += 1
        a, sigma = float(sched.a[t]), float(sched.sigma[t])
        if sigma <= 0:
            raise ValueError(
                "denoiser requires sigma_t > 0 (never called at t=0)")
        c = a**2 * self.tau**2 + sigma**2
        x = x_t.reshape(-1)
        logp = self._flat @ x
        logp *= 2.0 * a
        logp -= a**2 * self._sq_norms
        logp /= 2.0 * c
        logp += self._log_w
        k = logp.argmax()
        logp -= logp[k]
        rho = np.exp(logp)
        total = rho.sum()
        if not np.isfinite(total):
            raise ValueError("non-finite mixture responsibilities")
        if total == 1.0:
            eps = np.multiply(self.means[k], -a)
        else:
            rho *= -a / total
            eps = (rho @ self._flat).reshape(x_t.shape)
        eps += x_t
        eps *= sigma / c
        return eps


def load_gmm_prior(directory) -> GmmDenoiser:
    """Load a mixture prior from a directory with a `prior.txt` manifest.

    Manifest format: first line `tau <float>`, then one
    `component <weight> <relative-path>` line per mean image. Weights are
    re-normalized with a warning when they sum off 1 by more than 1e-6.
    """
    manifest = os.path.join(directory, "prior.txt")
    with open(manifest, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "tau":
        raise ValueError("prior.txt must start with a `tau <float>` line")
    tau = float(head[1])
    means, weights = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "component":
            raise ValueError(f"bad manifest line: {ln!r}")
        weights.append(float(parts[1]))
        means.append(imagecore.load_image(
            os.path.join(directory, parts[2])).data)
    total = sum(weights)
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"prior weights sum to {total}; re-normalizing")
    return GmmDenoiser(means, weights, tau)
