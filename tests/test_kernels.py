"""Fast per-step kernels against their plain reference formulas.

Where a kernel keeps the reference's arithmetic the results must be
bitwise equal; where it reorders sums the tolerance is set from float64's
machine epsilon and the magnitudes involved, before looking at results.
"""

import math

import numpy as np
import pytest

from tilediff import linops
from tilediff.denoise import GmmDenoiser, eps_from_x0, gmm_posterior_x0
from tilediff.imagecore import Window
from tilediff.msr import _freeze_hook
from tilediff.sampler import (SamplerConfig, compute_lambda_gamma,
                              ddnm_plus_project, ddnm_project, sample_prev)
from tilediff.schedule import build_schedule
from tilediff.tasks import GenerateTask

from conftest import smooth_means

EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
def test_avgpool_forward_matches_block_mean(rng, p):
    h, w, c = 48, 96, 3
    op = linops.AvgPool((h, w, c), p)
    x = rng.uniform(-1, 1, size=(h, w, c))
    want = x.reshape(h // p, p, w // p, p, c).mean(axis=(1, 3))
    got = op.forward(x)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15


def _reference_rho(x, means, weights, tau, a, sigma):
    c = a**2 * tau**2 + sigma**2
    sq = ((x[None] - a * means) ** 2).reshape(len(weights), -1).sum(axis=1)
    logp = np.log(weights) - sq / (2.0 * c)
    rho = np.exp(logp - logp.max())
    return rho / rho.sum()


def _eps_tolerance(den, x, rho, a, sigma):
    """First-order float64 error bound of either posterior form.

    A logit is a sum of D terms whose magnitudes add up to at most
    L = (|x|^2 + 2a|<m, x>| + a^2 |m|^2) / 2c, so it carries an error of
    about log2(D) eps L. That moves the posterior mean by at most twice the
    logit error times sum_k rho_k |m_k - mbar|, which vanishes when one
    component owns x, and eps = sigma / c (x - a mbar) scales it by
    a sigma / c. The reference's (x - a x0hat) / sigma adds a cancellation
    error of about eps |x| / sigma.
    """
    c = a**2 * den.tau**2 + sigma**2
    flat = den.means.reshape(len(rho), -1)
    xf = x.ravel()
    big = (xf @ xf + 2 * a * np.abs(flat @ xf) +
           a**2 * np.einsum("kd,kd->k", flat, flat)).max() / (2 * c)
    mbar = rho @ flat
    spread = rho @ np.abs(flat - mbar).max(axis=1)
    d_logit = math.log2(xf.size) * EPS * big
    return (16 * EPS * (1 + np.abs(xf).max() / sigma) +
            2 * d_logit * spread * a * sigma / c)


@pytest.mark.parametrize("k", [1, 4, 16])
@pytest.mark.parametrize("t", [1, 100])
def test_gmm_predict_eps_matches_reference_posterior(rng, k, t):
    sched = build_schedule(100)
    a, sigma = sched.a[t], sched.sigma[t]
    means = smooth_means(k, 32, 32, seed=k)
    den = GmmDenoiser(means, rng.uniform(0.5, 1.5, size=k), tau=0.05)
    xs = [a * means[i] + sigma * rng.standard_normal(means[0].shape)
          for i in range(k)]
    xs.append(a * np.mean(means, axis=0) +
              sigma * rng.standard_normal(means[0].shape))
    # far from every mean the logits reach -7e8 at t=1 and -2e6 at t=T:
    # exp() underflows to 0 for all of them without the max-subtraction
    xs.append(np.full(means[0].shape, 40.0))
    for x in xs:
        want = eps_from_x0(x, gmm_posterior_x0(x, den.means, den.weights,
                                               den.tau, a, sigma), a, sigma)
        got = den.predict_eps(x, t, sched)
        rho = _reference_rho(x, den.means, den.weights, den.tau, a, sigma)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= _eps_tolerance(den, x, rho, a,
                                                          sigma)


def test_gmm_predict_eps_rejects_t_zero():
    den = GmmDenoiser(smooth_means(2, 8, 8), [0.5, 0.5], tau=0.05)
    with pytest.raises(ValueError, match="sigma_t > 0"):
        den.predict_eps(np.zeros((8, 8, 3)), 0, build_schedule(10))


def test_generation_projection_returns_its_input(rng):
    op, y = GenerateTask(16, 24).tile_problem(Window(0, 8, 16, 16))
    x0t = rng.standard_normal(op.input_shape)
    assert ddnm_project(op, y, x0t) is x0t
    cfg = SamplerConfig(T=10, sigma_y=0.1)
    xhat, _ = ddnm_plus_project(op, y, x0t, 5, build_schedule(10), cfg)
    assert np.array_equal(xhat, x0t)
    with pytest.raises(ValueError, match="measurement shape"):
        ddnm_project(op, np.zeros((1,)), x0t)


def _operators(rng):
    return [linops.AvgPool((8, 12, 3), 4),
            linops.Mask(rng.random((8, 12)) < 0.5, channels=3),
            linops.Gray((8, 12, 3)),
            linops.Identity((8, 12, 3))]


def test_ddnm_plus_scalar_lambda_matches_pinv_scaled(rng):
    sched = build_schedule(100)
    for op in _operators(rng):
        for sigma_y in (0.01, 0.5):
            cfg = SamplerConfig(T=100, sigma_y=sigma_y)
            y = rng.standard_normal(op.output_shape)
            x0t = rng.standard_normal(op.input_shape)
            for t in (1, 20, 99):
                lam_of = lambda s: compute_lambda_gamma(
                    s, t, sched, cfg.eta, sigma_y)[0]
                want = x0t + lam_of(op.sing_value) * op.pinv(
                    y - op.forward(x0t))
                got, gamma = ddnm_plus_project(op, y, x0t, t, sched, cfg)
                assert np.array_equal(got, want)
                assert gamma == compute_lambda_gamma(
                    op.sing_value, t, sched, cfg.eta, sigma_y)[1]


def test_sample_prev_matches_reference_mix(rng):
    sched = build_schedule(50)
    cfg = SamplerConfig(T=50, eta=0.85, sigma_y=0.1)
    for op in _operators(rng):
        x0hat = rng.uniform(-1, 1, size=op.input_shape)
        eps_t = rng.standard_normal(op.input_shape)
        for t in (1, 2, 30, 50):
            gam = compute_lambda_gamma(op.sing_value, t, sched, cfg.eta,
                                       cfg.sigma_y)[1]
            eps = np.random.default_rng(t).standard_normal(op.input_shape)
            pr = op.range_project(eps)
            noise = gam * pr + cfg.eta * (eps - pr)
            for g, mix in ((gam, noise), (cfg.eta, cfg.eta * eps),
                           (None, cfg.eta * eps)):
                mix = mix + math.sqrt(1 - cfg.eta**2) * eps_t
                want = sched.a[t - 1] * x0hat + sched.sigma[t - 1] * mix
                draw = np.random.default_rng(t).standard_normal(
                    op.input_shape)
                got = sample_prev(x0hat, eps_t, t, sched, cfg, draw,
                                  op=op, gamma=g)
                assert np.abs(got - want).max() <= 16 * EPS


def test_freeze_hook_matches_where(rng):
    fixed = rng.standard_normal((16, 16, 3))
    known = rng.random((16, 16)) < 0.3
    hook = _freeze_hook(fixed, known)
    x0 = rng.standard_normal((16, 16, 3))
    before = x0.copy()
    out = hook(x0, 7)
    assert np.array_equal(out, np.where(known[:, :, None], fixed, x0))
    assert np.array_equal(x0, before) and out is not x0
