"""Fast per-step kernels against their plain reference formulas.

Where a kernel keeps the reference's arithmetic the results must be
bitwise equal; where it reorders sums the tolerance is set from float64's
machine epsilon and the magnitudes involved, before looking at results.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilediff import hir, linops
from tilediff.denoise import GmmDenoiser
from tilediff.imagecore import Window
from tilediff.msr import _overlap_hook, _overlap_rects, plan_tiles
from tilediff.sampler import (SamplerConfig, compute_lambda_gamma,
                              ddnm_plus_project, sample_prev)
from tilediff.schedule import build_schedule
from tilediff.tasks import GenerateTask

import oracles
from conftest import same_bits, smooth_means
from oracles import eps_from_x0, gmm_posterior_x0
from test_msr import small_geometries
from test_sampler import small_operators

EPS = np.finfo(np.float64).eps


def _avgpool_inputs(rng, p):
    """(name, x) for each channel count 1, 3, 4: a whole 48x96 tile, the
    same as a non-contiguous window view of a larger canvas, and a
    consistency band (16 rows or more, a multiple of p) of width 96."""
    for c in (1, 3, 4):
        yield "whole", rng.uniform(-1, 1, size=(48, 96, c))
        canvas = rng.uniform(-1, 1, size=(55, 109, c))
        yield "window", canvas[5:53, 9:105]
        yield "band", rng.uniform(-1, 1, size=(p * -(-16 // p), 96, c))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
def test_avgpool_forward_matches_block_mean(rng, p):
    for name, x in _avgpool_inputs(rng, p):
        h, w, c = x.shape
        assert x.flags.c_contiguous == (name != "window")
        op = linops.AvgPool((h, w, c), p)
        want = x.reshape(h // p, p, w // p, p, c).mean(axis=(1, 3))
        got = op.forward(x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15, (name, c)


@settings(max_examples=150, deadline=None, database=None)
@given(p=st.integers(1, 8), c=st.integers(1, 4), rows=st.integers(1, 4),
       cols=st.integers(1, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_avgpool_add_pinv_is_the_replicated_add(p, c, rows, cols, scale,
                                                 seed):
    # finite inputs without zeros: the 0/1 product widens each residual
    # element exactly, so every sum is the replicated one bit for bit
    op = linops.AvgPool((p * rows, p * cols, c), p)
    rng = np.random.default_rng(seed)
    x = zero_free(rng, op.input_shape) * scale
    r = zero_free(rng, op.output_shape)
    assert same_bits(op.add_pinv(x, r), x + op.pinv(r))
    # strided inputs, as a window of a larger array gives them
    xs = np.repeat(x, 2, axis=1)[:, ::2]
    rs = np.repeat(r, 2, axis=0)[::2]
    assert same_bits(op.add_pinv(xs, rs), x + op.pinv(r))


def test_avgpool_add_pinv_differs_only_in_the_sign_of_a_zero():
    # A -0.0 residual on a -0.0 pixel: the replicated add gives -0.0. The
    # widening product sums -0.0 * 1 with the pixel's other channels times
    # 0, here +0.0 each, and -0.0 + +0.0 is +0.0 in any order, so the
    # pixel gets +0.0. The value is the same, and no other element moves.
    op = linops.AvgPool((4, 6, 3), 2)
    x = np.arange(72.0).reshape(op.input_shape) - 30.5
    r = np.arange(18.0).reshape(op.output_shape) - 8.5
    x[:2, :2, 1] = -0.0
    r[0, 0] = 1.5, -0.0, 2.5
    x[2:, 4:, 0] = -0.0  # -0.0 pixels under a non-zero residual
    want = x + op.pinv(r)
    got = op.add_pinv(x, r)
    assert np.array_equal(got, want)
    signed = np.zeros(op.input_shape, dtype=bool)
    signed[:2, :2, 1] = True
    assert np.signbit(want[signed]).all()
    assert same_bits(got[signed], np.zeros(4))
    assert same_bits(got[~signed], want[~signed])


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
    before = x0t.tobytes()
    sched = build_schedule(10)
    clean = SamplerConfig(T=10)
    xhat, _ = ddnm_plus_project(op, y, x0t, 5, sched, clean, out=x0t)
    assert xhat is x0t
    assert x0t.tobytes() == before
    cfg = SamplerConfig(T=10, sigma_y=0.1)
    xhat, _ = ddnm_plus_project(op, y, x0t, 5, sched, cfg)
    assert np.array_equal(xhat, x0t)
    with pytest.raises(ValueError, match="measurement shape"):
        ddnm_plus_project(op, np.zeros((1,)), x0t, 5, sched, clean)


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
            for g, mix in ((gam, noise), (cfg.eta, cfg.eta * eps)):
                mix = mix + math.sqrt(1 - cfg.eta**2) * eps_t
                want = sched.a[t - 1] * x0hat + sched.sigma[t - 1] * mix
                draw = np.random.default_rng(t).standard_normal(
                    op.input_shape)
                got = sample_prev(x0hat, eps_t, t, sched, cfg, draw,
                                  op=op, gamma=g)
                assert np.abs(got - want).max() <= 16 * EPS


def zero_free(rng, shape):
    """Magnitudes in [0.5, 2) with random signs: no zero of either sign."""
    return rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0],
                                                          size=shape)


@settings(max_examples=150, deadline=None, database=None)
@given(op=small_operators(), seed=st.integers(0, 2**32 - 1))
def test_add_pinv_matches_the_replicated_add(op, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.input_shape)
    r = rng.standard_normal(op.output_shape)
    want = oracles.add_pinv(op, x, r)
    before = x.copy()
    assert same_bits(op.add_pinv(x, r), want)
    assert same_bits(x, before)
    out = np.full(op.input_shape, np.nan)
    assert op.add_pinv(x, r, out=out) is out
    assert same_bits(out, want)
    # a strided destination: every other row of a taller buffer
    big = np.full((2 * op.input_shape[0],) + op.input_shape[1:], np.nan)
    op.add_pinv(x, r, out=big[::2])
    assert same_bits(big[::2], want) and np.isnan(big[1::2]).all()
    assert op.add_pinv(x, r, out=x) is x
    assert same_bits(x, want)


@settings(max_examples=150, deadline=None, database=None)
@given(op=small_operators(), t=st.integers(1, 20),
       sigma_y=st.sampled_from([0.0, 0.01, 0.1, 0.5, 2.0]),
       eta=st.floats(0.0, 1.0), free_gamma=st.none() | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_sample_prev_matches_the_replicate_then_scale_mix(
        op, t, sigma_y, eta, free_gamma, seed):
    sched = build_schedule(20)
    cfg = SamplerConfig(T=20, eta=eta, sigma_y=sigma_y)
    gamma = free_gamma if free_gamma is not None else compute_lambda_gamma(
        op.sing_value, t, sched, eta, sigma_y)[1]
    rng = np.random.default_rng(seed)
    x0hat = rng.standard_normal(op.input_shape)
    eps_t = rng.standard_normal(op.input_shape)
    noise = rng.standard_normal(op.input_shape)
    before = noise.copy(), x0hat.copy(), eps_t.copy()
    want = oracles.sample_prev_mix(x0hat, eps_t, t, sched, cfg, noise, op,
                                   gamma)
    got = sample_prev(x0hat, eps_t, t, sched, cfg, noise, op=op,
                      gamma=gamma)
    # the draw is read only: its ring slot is refilled after the step
    assert not np.shares_memory(got, noise)
    assert same_bits(got, want)
    assert all(map(same_bits, (noise, x0hat, eps_t), before))
    # with out, the result goes there and eps_t is spent as scratch
    out = np.full(op.input_shape, np.nan)
    assert sample_prev(x0hat, eps_t, t, sched, cfg, noise, op=op,
                       gamma=gamma, out=out) is out
    assert same_bits(out, want)
    assert all(map(same_bits, (noise, x0hat), before))


@settings(max_examples=100, deadline=None, database=None)
@given(p=st.integers(1, 4), rows=st.integers(1, 4), cols=st.integers(1, 4),
       c=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
def test_lowfreq_hook_matches_the_range_projection_form(p, rows, cols, c,
                                                         seed):
    sr = linops.AvgPool((p * rows, p * cols, c), p)
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(sr.output_shape)
    x0t = rng.standard_normal(sr.input_shape)
    want = oracles.lowfreq_hook(sr, ref)(x0t.copy(), 3)
    # the hook writes its result over the x0t it is given
    got = hir._lowfreq_hook(sr, ref)(x0t, 3)
    assert got is x0t
    assert same_bits(got, want)


@settings(max_examples=150, deadline=None, database=None)
@given(op=small_operators(), seed=st.integers(0, 2**32 - 1))
def test_clean_projection_matches_the_grouped_formula(op, seed):
    # the forms differ only in the sign of a zero, so the inputs have none
    rng = np.random.default_rng(seed)
    y = zero_free(rng, op.output_shape)
    x0t = zero_free(rng, op.input_shape)
    before = x0t.copy()
    want = oracles.clean_project(op, y, x0t)
    got = op.project(y, x0t)
    assert same_bits(got, want)
    assert same_bits(x0t, before) and got is not x0t
    out = np.full(op.input_shape, np.nan)
    assert op.project(y, x0t, out=out) is out
    assert same_bits(out, want) and same_bits(x0t, before)
    # in place: the result is written into the given buffer
    assert op.project(y, x0t, out=x0t) is x0t
    assert same_bits(x0t, want)


def test_mask_projection_keeps_the_sign_of_a_zero():
    known = np.array([[True, False]])
    op = linops.Mask(known, channels=1)
    got = op.project(np.array([-0.0]), np.array([[[5.0], [-0.0]]]))
    assert same_bits(got, np.array([[[-0.0], [-0.0]]]))
    # the grouped formula turns both into +0.0
    old = oracles.clean_project(op, np.array([-0.0]),
                                np.array([[[5.0], [-0.0]]]))
    assert same_bits(old, np.array([[[0.0], [0.0]]]))


@settings(max_examples=100, deadline=None, database=None)
@given(small_geometries(), st.integers(0, 2**32 - 1))
@example((8, 8, 8, 4, 2), 0)        # canvas equal to the patch
@example((14, 14, 8, 4, 2), 1)      # clamped last row and column
@example((13, 13, 6, 2, 1), 2)      # block 1, clamped
@example((24, 24, 12, 4, 4), 3)     # block 4, clamped
def test_overlap_hook_matches_where_on_random_plans(geometry, seed):
    height, width, patch, overlap, block = geometry
    plan = plan_tiles(height, width, patch, overlap, block=block)
    rng = np.random.default_rng(seed)
    canvas = rng.standard_normal((height, width, 3))
    known = np.zeros((height, width), dtype=bool)
    for idx, win in enumerate(plan.windows):
        ys, xs = win.slices()
        frozen = known[ys, xs]
        rects = _overlap_rects(plan, *plan.grid_index(idx))
        assert len(rects) <= 2
        assert bool(rects) == frozen.any()
        if rects:
            fixed = canvas[ys, xs, :]
            x0 = rng.standard_normal(fixed.shape)
            want = np.where(frozen[:, :, None], fixed, x0)
            # the hook writes the frozen values into the x0 it is given
            out = _overlap_hook(fixed, rects)(x0, 7)
            assert out is x0
            assert same_bits(out, want)
        known[ys, xs] = True
