import math
import queue
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tilediff import linops, msr
from tilediff.denoise import GmmDenoiser
from tilediff.imagecore import Window
from tilediff.sampler import (ConstraintHooks, NoiseProducer, SamplerConfig,
                              SamplerError, compute_lambda_gamma,
                              ddnm_plus_project, estimate_x0, noise_draws,
                              run_sampler, sample_prev)
from tilediff.schedule import Schedule, build_schedule
from tilediff.tasks import GenerateTask

import oracles
from conftest import same_bits, within
from oracles import (ZeroDenoiser, dense_matrix, forward_diffuse,
                     replay_sampler)


def make_vp_schedule(a_values):
    a = np.asarray(a_values, dtype=float)
    return Schedule(T=len(a) - 1, a=a, sigma=np.sqrt(1.0 - a**2))


def test_estimate_x0_inverts_forward_example():
    s = make_vp_schedule([1.0, 0.8])
    out = estimate_x0(np.array(1.1), np.array(0.5), 1, s)
    assert out == pytest.approx(1.0)


def test_estimate_x0_zero_eps():
    s = make_vp_schedule([1.0, 0.8])
    assert estimate_x0(np.array(2.0), np.array(0.0), 1, s) \
        == pytest.approx(2.5)


def test_estimate_x0_exact_inverse_pair(rng):
    s = build_schedule(40)
    x0 = rng.standard_normal((4, 4, 1))
    eps = rng.standard_normal((4, 4, 1))
    xt = forward_diffuse(x0, 23, eps, s)
    assert np.abs(estimate_x0(xt, eps, 23, s) - x0).max() <= 1e-12


def test_estimate_x0_rejects_t0():
    with pytest.raises(ValueError):
        estimate_x0(np.zeros(1), np.zeros(1), 0, build_schedule(5))


def noise_free_project(op, y, x0t):
    """ddnm_plus_project at sigma_y = 0, the noise-free projection."""
    x0hat, gamma = ddnm_plus_project(op, y, x0t, 1, build_schedule(1),
                                     SamplerConfig(T=1, eta=0.5))
    assert gamma == 0.5
    return x0hat


def test_ddnm_project_fixed_point(rng):
    op = linops.AvgPool((4, 4, 1), 2)
    x = op.pinv(rng.standard_normal(op.output_shape))  # already consistent
    y = op.forward(x)
    assert np.abs(noise_free_project(op, y, x) - x).max() <= 1e-12


def test_ddnm_project_avgpool_example():
    op = linops.AvgPool((2, 2, 1), 2)
    y = np.full((1, 1, 1), 0.5)
    out = noise_free_project(op, y, np.ones((2, 2, 1)))
    assert np.allclose(out, 0.5, atol=1e-14)


def test_ddnm_project_mask_semantics(rng):
    known = rng.random((4, 4, 3)) < 0.5
    op = linops.Mask(known)
    truth = rng.standard_normal((4, 4, 3))
    y = op.forward(truth)
    x0t = rng.standard_normal((4, 4, 3))
    out = noise_free_project(op, y, x0t)
    assert np.array_equal(out[known], truth[known])
    assert np.array_equal(out[~known], x0t[~known])


def test_ddnm_project_consistency_and_idempotence(rng):
    for op in [linops.AvgPool((8, 8, 3), 2),
               linops.Gray((8, 8, 3)),
               linops.Mask(rng.random((8, 8, 3)) < 0.5)]:
        y = op.forward(rng.standard_normal(op.input_shape))
        x0t = rng.standard_normal(op.input_shape)
        out = noise_free_project(op, y, x0t)
        assert np.abs(op.forward(out) - y).max() <= 1e-8
        again = noise_free_project(op, y, out)
        assert np.abs(again - out).max() <= 1e-10
        # null-space preservation: projection only edits the range space
        null = lambda v: v - op.range_project(v)
        assert np.abs(null(out) - null(x0t)).max() <= 1e-10


def test_ddnm_project_shape_mismatch():
    op = linops.AvgPool((4, 4, 1), 2)
    with pytest.raises(ValueError):
        noise_free_project(op, np.zeros((3, 3, 1)), np.zeros((4, 4, 1)))


def coef_schedule():
    # hand-picked grid with sigma_{t-1} = 0.5, a_{t-1} = 0.9 at t = 2
    # (the coefficient formulas do not rely on the VP identity)
    return Schedule(T=2, a=np.array([1.0, 0.9, 0.8]),
                    sigma=np.array([0.0, 0.5, 0.7]))


def test_lambda_gamma_unclamped_numeric_case():
    lam, gam = compute_lambda_gamma(1.0, 2, coef_schedule(), eta=0.8,
                                    sigma_y=0.1)
    assert lam == 1.0
    assert gam == pytest.approx(np.sqrt((0.16 - 0.0081) / 0.25))
    assert gam == pytest.approx(0.77949, abs=1e-5)
    # variance identity oracle
    a, sig = 0.9, 0.5
    assert a**2 * 0.1**2 * lam**2 + sig**2 * gam**2 \
        == pytest.approx(sig**2 * 0.8**2, abs=1e-12)


def test_lambda_gamma_clamped_branch():
    lam, gam = compute_lambda_gamma(1.0, 2, coef_schedule(), eta=0.8,
                                    sigma_y=1.0)
    assert lam == pytest.approx(0.4 / 0.9)
    assert gam == 0.0


def test_lambda_gamma_null_mode():
    lam, gam = compute_lambda_gamma(0.0, 2, coef_schedule(), eta=0.8,
                                    sigma_y=0.5)
    assert gam == 0.8


def test_lambda_gamma_sigma_prev_zero():
    lam, gam = compute_lambda_gamma(1.0, 1, coef_schedule(), eta=0.8,
                                    sigma_y=0.5)
    assert (lam, gam) == (0.0, 0.0)


def test_lambda_gamma_variance_identity_random(rng):
    sched = build_schedule(50)
    for _ in range(500):
        s = rng.uniform(0.01, 2.0)
        t = int(rng.integers(2, 51))
        sigma_y = rng.uniform(0.0, 1.5)
        eta = rng.uniform(0.0, 1.0)
        lam, gam = compute_lambda_gamma(s, t, sched, eta, sigma_y)
        assert 0.0 < lam <= 1.0
        assert 0.0 <= gam <= eta + 1e-15
        a, sig = sched.a[t - 1], sched.sigma[t - 1]
        lhs = a**2 * sigma_y**2 * lam**2 * s**2 + sig**2 * gam**2
        assert lhs == pytest.approx(sig**2 * eta**2, abs=1e-12)


def test_ddnm_plus_reduces_bit_exactly_when_noise_free(rng):
    op = linops.AvgPool((4, 4, 1), 2)
    y = rng.standard_normal(op.output_shape)
    x0t = rng.standard_normal(op.input_shape)
    cfg = SamplerConfig(T=10, eta=0.8, sigma_y=0.0)
    sched = build_schedule(10)
    got, gamma = ddnm_plus_project(op, y, x0t, 5, sched, cfg)
    assert np.array_equal(got, oracles.clean_project(op, y, x0t))
    assert gamma == 0.8


def test_ddnm_plus_clamp_gives_gamma_zero(rng):
    op = linops.Identity((2, 2, 1))
    sched = coef_schedule()
    cfg = SamplerConfig(T=2, eta=0.8, sigma_y=1.0)
    y = rng.standard_normal(op.output_shape)
    x0t = rng.standard_normal(op.input_shape)
    xhat, gamma = ddnm_plus_project(op, y, x0t, 2, sched, cfg)
    assert gamma == 0.0
    lam = 0.4 / 0.9
    assert np.allclose(xhat, x0t + lam * (y - x0t), atol=1e-14)


@st.composite
def small_operators(draw):
    """One of the four operators on a drawn shape, D = H*W*C <= 192:
    AvgPool with block 1-4, and Mask given per pixel with a channel count
    or per element."""
    kind = draw(st.sampled_from(["avgpool", "mask", "gray", "identity"]))
    c = 3 if kind == "gray" else draw(st.sampled_from([1, 3]))
    p = draw(st.integers(1, 4)) if kind == "avgpool" else 1
    h, w = (p * draw(st.integers(1, 8 // p)) for _ in range(2))
    if kind == "avgpool":
        return linops.AvgPool((h, w, c), p)
    if kind == "mask":
        if draw(st.booleans()):
            return linops.Mask(draw(arrays(bool, (h, w, c))))
        return linops.Mask(draw(arrays(bool, (h, w))), channels=c)
    if kind == "gray":
        return linops.Gray((h, w, c))
    return linops.Identity((h, w, c))


@settings(max_examples=150, deadline=None, database=None)
@given(op=small_operators(), t=st.integers(1, 20),
       sigma_y=st.sampled_from([0.0, 0.01, 0.1, 0.5, 2.0]),
       eta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_ddnm_plus_matches_dense_svd(op, t, sigma_y, eta, seed):
    # DDNM+ rescales each SVD mode by its own lambda(s_i); the scalar form
    # is exact only because every operator has one non-zero singular value
    sched = build_schedule(20)
    cfg = SamplerConfig(T=20, eta=eta, sigma_y=sigma_y)
    rng = np.random.default_rng(seed)
    x0t = rng.standard_normal(op.input_shape)
    y = rng.standard_normal(op.output_shape)
    a = dense_matrix(op)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-12
    u, s, vt = u[:, keep], s[keep], vt[keep]
    assert np.allclose(s, op.sing_value, rtol=1e-12, atol=0)
    coeffs = [compute_lambda_gamma(si, t, sched, eta, sigma_y) for si in s]
    lam = np.array([c[0] for c in coeffs])
    resid = y.ravel() - a @ x0t.ravel()
    want = x0t.ravel() + vt.T @ (lam / s * (u.T @ resid))
    got, gamma = ddnm_plus_project(op, y, x0t, t, sched, cfg)
    assert np.abs(got.ravel() - want).max() <= 1e-8
    # gamma^2 is linear in s^2: an s_i a few ulps off op.sing_value moves
    # it by ~1e-15 a^2 sigma_y^2 s^2 / sigma_{t-1}^2 < 1e-12 here, while
    # gamma itself, a square root near 0, can move by ~1e-6
    for _, gam_i in coeffs:
        assert abs(gamma**2 - gam_i**2) <= 1e-10


def test_sample_prev_eta_zero_deterministic(rng):
    sched = build_schedule(20)
    cfg = SamplerConfig(T=20, eta=0.0, seed=1)
    x0hat = rng.standard_normal((3, 3, 1))
    eps = rng.standard_normal((3, 3, 1))
    t = 7
    out = sample_prev(x0hat, eps, t, sched, cfg,
                      np.random.default_rng(0).standard_normal((3, 3, 1)),
                      op=linops.Identity((3, 3, 1)), gamma=cfg.eta)
    want = sched.a[t - 1] * x0hat + sched.sigma[t - 1] * eps
    assert np.abs(out - want).max() <= 1e-14


def test_sample_prev_terminal_step_clean(rng):
    sched = build_schedule(20)
    cfg = SamplerConfig(T=20, eta=1.0, seed=1)
    x0hat = rng.standard_normal((3, 3, 1))
    out = sample_prev(x0hat, rng.standard_normal((3, 3, 1)), 1, sched, cfg,
                      np.random.default_rng(0).standard_normal((3, 3, 1)),
                      op=linops.Identity((3, 3, 1)), gamma=cfg.eta)
    assert np.array_equal(out, x0hat)


def test_sample_prev_variance_monte_carlo():
    # scalar instance, eta = 1: Var over draws = sigma_{t-1}^2
    sched = build_schedule(20)
    cfg = SamplerConfig(T=20, eta=1.0, seed=1)
    t = 10
    n = 10_000
    out = sample_prev(np.zeros(n), np.zeros(n), t, sched, cfg,
                      np.random.default_rng(3).standard_normal(n),
                      op=linops.Identity((n,)), gamma=cfg.eta)
    v = sched.sigma[t - 1] ** 2
    band = 3.0 * np.sqrt(2.0 / n) * v
    assert abs(out.var() - v) <= band


def test_run_sampler_full_mask_returns_measurement_exactly(rng):
    truth = rng.uniform(-1, 1, size=(4, 4, 3))
    op = linops.Mask(np.ones((4, 4, 3), dtype=bool))
    y = op.forward(truth)
    den = GmmDenoiser([np.zeros((4, 4, 3))], [1.0], math.sqrt(0.5))
    out = run_sampler(op, y, den, SamplerConfig(T=20, seed=3))
    assert np.array_equal(out, truth)


def test_run_sampler_zero_eps_smoke(rng):
    op = linops.AvgPool((4, 4, 1), 2)
    y = rng.standard_normal(op.output_shape)
    out = run_sampler(op, y, ZeroDenoiser(op.input_shape),
                      SamplerConfig(T=30, eta=1.0, seed=9))
    assert np.isfinite(out).all()
    assert np.abs(op.forward(out) - y).max() <= 1e-6


def test_run_sampler_consistency_noise_free(rng):
    for op in [linops.AvgPool((8, 8, 3), 4),
               linops.Gray((8, 8, 3)),
               linops.Mask(rng.random((8, 8, 3)) < 0.5)]:
        y = op.forward(rng.uniform(-1, 1, size=op.input_shape))
        den = GmmDenoiser([np.zeros((8, 8, 3))], [1.0], math.sqrt(0.3))
        out = run_sampler(op, y, den, SamplerConfig(T=50, seed=11))
        assert np.abs(op.forward(out) - y).max() <= 1e-6


def test_run_sampler_determinism(rng):
    op = linops.Gray((6, 6, 3))
    y = op.forward(rng.uniform(-1, 1, size=(6, 6, 3)))
    den = GmmDenoiser([np.zeros((6, 6, 3))], [1.0], math.sqrt(0.4))
    cfg = SamplerConfig(T=25, seed=42, travel_l=5, travel_r=2)
    a = run_sampler(op, y, den, cfg)
    b = run_sampler(op, y, den, cfg)
    assert np.array_equal(a, b)


def test_run_sampler_step_count_with_time_travel():
    op = linops.Identity((2, 2, 1))
    y = np.zeros((2, 2, 1))
    den = GmmDenoiser([np.zeros((2, 2, 1))], [1.0], math.sqrt(0.5))
    cfg = SamplerConfig(T=100, seed=0, travel_l=10, travel_r=3)
    run_sampler(op, y, den, cfg)
    assert den.calls == 300  # each of 10 blocks traversed 3 times


def test_run_sampler_hook_order():
    order = []
    op = linops.Identity((2, 2, 1))
    y = np.zeros((2, 2, 1))
    den = GmmDenoiser([np.zeros((2, 2, 1))], [1.0], math.sqrt(0.5))
    hooks = ConstraintHooks(
        pre=[lambda x, t: (order.append("pre"), x)[1]],
        post=[lambda x, t: (order.append("post"), x)[1]])
    run_sampler(op, y, den, SamplerConfig(T=2, seed=0), hooks=hooks)
    assert order == ["pre", "post", "pre", "post"]


@pytest.mark.filterwarnings("ignore:invalid value")
def test_run_sampler_aborts_on_nonfinite():
    class BadDenoiser(ZeroDenoiser):
        def predict_eps(self, x_t, t, sched):
            return np.full_like(x_t, np.inf) if t == 5 else \
                np.zeros_like(x_t)

    op = linops.Identity((2, 2, 1))
    with pytest.raises(SamplerError, match="t=5"):
        run_sampler(op, np.zeros((2, 2, 1)), BadDenoiser(op.input_shape),
                    SamplerConfig(T=10, seed=0))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_noisy_sr_stops_at_the_step_of_a_single_channel_inf():
    # an inf in one channel of x0|t reaches the state through AvgPool's
    # forward and add_pinv, where the 0/1 products spread it to the
    # pixel's other channels as NaN (inf * 0); either way the state is
    # non-finite at that step, and the run stops there
    def bad(x0t, t):
        if t == 5:
            x0t[3, 2, 1] = np.inf
        return x0t

    op = linops.AvgPool((8, 8, 3), 2)
    y = np.full(op.output_shape, 0.25)
    den = GmmDenoiser([np.zeros(op.input_shape)], [1.0], 0.5)
    cfg = SamplerConfig(T=10, seed=0, sigma_y=0.1)
    hooks = ConstraintHooks(pre=[bad])
    with pytest.raises(SamplerError, match="t=5"):
        run_sampler(op, y, den, cfg, hooks=hooks)


def test_run_sampler_rejects_shape_mismatch(rng):
    op = linops.Identity((4, 4, 1))
    den = GmmDenoiser([np.zeros((6, 6, 1))], [1.0], math.sqrt(0.5))
    with pytest.raises(ValueError):
        run_sampler(op, np.zeros((4, 4, 1)), den, SamplerConfig(T=5, seed=0))


def test_run_sampler_noisy_path_runs_and_stays_finite(rng):
    op = linops.AvgPool((8, 8, 1), 2)
    truth = rng.uniform(-1, 1, size=(8, 8, 1))
    noise_rng = np.random.default_rng(5)
    sigma_y = 0.1
    y = op.forward(truth) + sigma_y * noise_rng.standard_normal(
        op.output_shape)
    den = GmmDenoiser([np.zeros((8, 8, 1))], [1.0], math.sqrt(0.3))
    out = run_sampler(op, y, den,
                      SamplerConfig(T=50, seed=7, sigma_y=sigma_y))
    assert np.isfinite(out).all()
    # noisy path relaxes consistency; error should be on the sigma_y scale
    err = np.abs(op.forward(out) - y).max()
    assert err < 10 * sigma_y


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(eta=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(sigma_y=-0.1)
    with pytest.raises(ValueError, match="sigma-y must be >= 0, got nan"):
        SamplerConfig(sigma_y=float("nan"))
    with pytest.raises(ValueError, match="steps T must be >= 1, got 0"):
        SamplerConfig(T=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SamplerConfig(seed=-1)


def _replay_problem(kind):
    rng = np.random.default_rng(0)
    if kind == "generate":
        return GenerateTask(8, 8, 3).tile_problem(Window(0, 0, 8, 8))
    op = linops.AvgPool((8, 8, 3), 2)
    return op, op.forward(rng.uniform(-1, 1, size=op.input_shape))


_REPLAY_DEN = GmmDenoiser([np.full((8, 8, 3), -0.4), np.full((8, 8, 3), 0.5)],
                          [0.5, 0.5], 0.3)


@pytest.mark.parametrize("kind, cfg", [
    ("generate", SamplerConfig(T=20, seed=3)),
    ("sr", SamplerConfig(T=20, seed=4)),
    ("sr", SamplerConfig(T=20, seed=5, sigma_y=0.1)),
    ("sr", SamplerConfig(T=20, seed=6, travel_l=4, travel_r=3)),
], ids=["generation", "clean-sr", "noisy-sr", "time-travel-r3"])
def test_run_sampler_replays_the_serial_loop(kind, cfg):
    op, y = _replay_problem(kind)
    if cfg.sigma_y:
        # the noisy case must take the gamma != eta branch of sample_prev
        sched = build_schedule(cfg.T)
        assert any(compute_lambda_gamma(op.sing_value, t, sched, cfg.eta,
                                        cfg.sigma_y)[1] != cfg.eta
                   for t in range(2, cfg.T + 1))
    got = within(lambda: run_sampler(op, y, _REPLAY_DEN, cfg))
    assert np.array_equal(got, replay_sampler(op, y, _REPLAY_DEN, cfg))


@pytest.mark.parametrize("cfg", [
    SamplerConfig(T=20, seed=5, sigma_y=0.1),
    SamplerConfig(T=9, seed=6, travel_l=4, travel_r=3),
], ids=["noisy-sr", "time-travel-r3"])
def test_run_sampler_returns_the_last_x0hat_and_draws_no_more(cfg):
    # the last step's draw would be scaled by sigma_0 = 0: sample_prev
    # there gives x0hat up to the sign of a zero, so it is not drawn, and
    # streams of exactly noise_draws(cfg) draws serve one run each
    op, y = _replay_problem("sr")
    sched = build_schedule(cfg.T)
    seen = []

    def record(x0hat, t):
        seen.append((t, x0hat.copy()))
        return x0hat

    noise = NoiseProducer(lambda k: cfg.seed + k, 2, noise_draws(cfg),
                          op.input_shape)
    try:
        for _ in range(2):
            got = within(lambda: run_sampler(
                op, y, _REPLAY_DEN, cfg, hooks=ConstraintHooks(post=[record]),
                noise=noise))
            t, x0hat = seen[-1]
            assert t == 1 and same_bits(got, x0hat)
            rng = np.random.default_rng(t)
            gamma = compute_lambda_gamma(op.sing_value, 1, sched, cfg.eta,
                                         cfg.sigma_y)[1]
            assert np.array_equal(sample_prev(
                x0hat, rng.standard_normal(x0hat.shape), 1, sched, cfg,
                rng.standard_normal(x0hat.shape), op=op, gamma=gamma), x0hat)
        # the two runs took every draw of both streams
        with pytest.raises(RuntimeError, match="hold only"):
            noise.take()
    finally:
        noise.close()
    assert len(seen) == 2 * cfg.travel_r * cfg.T


_TILE = (8, 8, 3)


@st.composite
def tile_problems(draw):
    """(op, y) on an 8x8x3 tile: AvgPool with block 1, 2 or 4; Mask with
    some, all or no pixels known; Gray; Identity; generation's problem."""
    kind = draw(st.sampled_from(["avgpool", "mask", "mask-known",
                                 "mask-unknown", "gray", "identity",
                                 "generate"]))
    if kind == "generate":
        return GenerateTask(*_TILE).tile_problem(Window(0, 0, 8, 8))
    if kind == "avgpool":
        op = linops.AvgPool(_TILE, draw(st.sampled_from([1, 2, 4])))
    elif kind.startswith("mask"):
        known = {"mask-known": np.ones(_TILE[:2], dtype=bool),
                 "mask-unknown": np.zeros(_TILE[:2], dtype=bool)}.get(
            kind, draw(arrays(bool, _TILE[:2])))
        op = linops.Mask(known, channels=_TILE[2])
    elif kind == "gray":
        op = linops.Gray(_TILE)
    else:
        op = linops.Identity(_TILE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return op, op.forward(rng.uniform(-1, 1, size=_TILE))


def _lowfreq_pin(sr, ref):
    """HiR's pre hook as msr_restore makes it for a tile problem (sr, ref):
    the projection onto ref, written over x0."""
    return lambda x0, t: sr.project(ref, x0, out=x0)


def _replay_hooks(pre, post, seed):
    """ConstraintHooks holding the pin as its pre hook if pre, and MSR's
    overlap hook as its post hook if post: the production hooks, which
    write into the x0 they get."""
    rng = np.random.default_rng(seed)
    sr = linops.AvgPool(_TILE, 2)
    ref = rng.uniform(-1, 1, size=sr.output_shape)
    fixed = rng.uniform(-1, 1, size=_TILE)
    return ConstraintHooks(pre=[_lowfreq_pin(sr, ref)] * pre,
                           post=[msr._overlap_hook(fixed, 3, 2)] * post)


@settings(max_examples=120, deadline=None, database=None)
@given(problem=tile_problems(), T=st.integers(1, 12), l=st.integers(1, 6),
       r=st.integers(1, 3), sigma_y=st.sampled_from([0.0, 0.1]),
       eta=st.sampled_from([0.0, 0.5, 0.85, 1.0]), pre=st.booleans(),
       post=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_run_sampler_matches_the_allocating_loop_bitwise(
        problem, T, l, r, sigma_y, eta, pre, post, seed):
    op, y = problem
    cfg = SamplerConfig(T=T, eta=eta, seed=seed, travel_l=l, travel_r=r,
                        sigma_y=sigma_y)
    got = within(lambda: run_sampler(op, y, _REPLAY_DEN, cfg,
                                     hooks=_replay_hooks(pre, post, seed)))
    want = replay_sampler(op, y, _REPLAY_DEN, cfg,
                          _replay_hooks(pre, post, seed))
    assert same_bits(got, want)


def test_run_sampler_heap_peak_does_not_grow_with_steps():
    # a clean inpainting tile of the hierarchy's second phase: a partial
    # Mask, the low-frequency hook before the projection and the overlap
    # hook after it
    shape = (64, 64, 3)
    tile = np.empty(shape).nbytes
    rng = np.random.default_rng(3)
    den = GmmDenoiser([rng.uniform(-0.5, 0.5, size=shape) for _ in range(4)],
                      [0.25] * 4, 0.3)
    known = np.zeros(shape[:2], dtype=bool)
    known[:20] = True
    op = linops.Mask(known, channels=3)
    y = op.forward(rng.uniform(-1, 1, size=shape))
    sr = linops.AvgPool(shape, 2)
    hooks = ConstraintHooks(
        pre=[_lowfreq_pin(sr, rng.uniform(-1, 1, size=sr.output_shape))],
        post=[msr._overlap_hook(rng.uniform(-1, 1, size=shape), 32, 0)])

    def peak(T, hooks=hooks):
        cfg = SamplerConfig(T=T, seed=1, travel_l=10, travel_r=2)
        # the noise pool is sized by the draw count, so it is made first
        noise = NoiseProducer(lambda k: cfg.seed, 1, noise_draws(cfg), shape)
        try:
            tracemalloc.start()
            try:
                within(lambda: run_sampler(op, y, den, cfg, hooks=hooks,
                                           noise=noise))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            noise.close()

    short, long = peak(5), peak(60)
    # the schedule's arrays hold T + 1 scalars each
    assert long <= short + tile // 8
    # the state, the x0 buffer, the finiteness mask and the step's
    # prediction hold 3.2 tiles; the low-frequency hook's half-size
    # temporaries set the peak at 4.6
    assert long < 5 * tile
    # without that hook the peak is inside predict_eps, which makes the
    # step's prediction while the previous one is already dropped: 3.2
    # tiles, where holding both read 4.2
    assert peak(60, ConstraintHooks(post=hooks.post)) < 3.5 * tile


@pytest.mark.filterwarnings("ignore:invalid value")
def test_run_sampler_leaves_no_thread_behind():
    class BadDenoiser(ZeroDenoiser):
        def predict_eps(self, x_t, t, sched):
            return np.full_like(x_t, np.inf) if t == 5 else \
                np.zeros_like(x_t)

    def late_hook(x0, t):
        # the noise pool is full by now, so the producer is blocked
        time.sleep(0.05)
        raise KeyError("hook")

    # patch-size draws, 6 to a chunk, so the 88 draws outnumber the pool
    # and the thread can block waiting for a free chunk when the run stops
    op = linops.Identity((64, 64, 3))
    y = np.zeros(op.output_shape)
    cfg = SamplerConfig(T=40, seed=0, travel_l=5, travel_r=2)
    before = threading.active_count()
    within(lambda: run_sampler(op, y, ZeroDenoiser(op.input_shape), cfg))
    assert threading.active_count() == before
    with pytest.raises(SamplerError, match="t=5"):
        within(lambda: run_sampler(op, y, BadDenoiser(op.input_shape), cfg))
    assert threading.active_count() == before
    with pytest.raises(KeyError, match="hook"):
        within(lambda: run_sampler(op, y, ZeroDenoiser(op.input_shape), cfg,
                                   hooks=ConstraintHooks(post=[late_hook])))
    assert threading.active_count() == before


def test_run_sampler_stops_its_thread_at_any_step_under_switching():
    # runs stop at every possible step, while the interpreter switches
    # threads as often as it can, from more callers than cores
    class Stop(Exception):
        pass

    def run(stop_at):
        def hook(x0, t):
            if t == stop_at:
                raise Stop
            return x0

        op = linops.Identity((64, 64, 1))
        cfg = SamplerConfig(T=6, seed=stop_at, travel_l=2, travel_r=2)
        for _ in range(15):
            try:
                run_sampler(op, np.zeros(op.output_shape),
                            ZeroDenoiser(op.input_shape), cfg,
                            hooks=ConstraintHooks(post=[hook]))
                outcomes.append(None)
            except Exception as exc:
                outcomes.append(exc)

    outcomes = []
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(t,), daemon=True)
                   for t in range(1, 7)]
        for th in callers:
            th.start()
        deadline = time.monotonic() + 20.0
        for th in callers:
            th.join(max(0.0, deadline - time.monotonic()))
        assert not any(th.is_alive() for th in callers), "a run hung"
    finally:
        sys.setswitchinterval(interval)
    assert len(outcomes) == 6 * 15
    assert all(isinstance(o, Stop) for o in outcomes)
    assert threading.active_count() == before


class DrawError(Exception):
    pass


def test_run_sampler_raises_the_producers_error(monkeypatch):
    class FailingGenerator:
        """Draws like default_rng(seed) until a call that would make draw
        15 (counting from 0) raises."""

        def __init__(self, seed):
            self.rng = real_default_rng(seed)
            self.made = 0

        def standard_normal(self, size=None, out=None):
            n = 1 if out is None else len(out)
            if self.made <= 15 < self.made + n:
                raise DrawError("draw 15")
            self.made += n
            return self.rng.standard_normal(size, out=out)

    real_default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    # T=20 takes 20 draws, and a chunk holds 6. The caller draws at most
    # 12 ahead, so the thread makes the failing call, and the draws before
    # it are handed over first
    op = linops.Identity((64, 64, 3))
    den = GmmDenoiser([np.zeros(op.input_shape)], [1.0], 1.0)
    before = threading.active_count()
    with pytest.raises(DrawError, match="draw 15"):
        within(lambda: run_sampler(op, np.zeros(op.output_shape), den,
                                   SamplerConfig(T=20, seed=0)))
    # the draws made before the failing chunk were used, then the run ended
    assert 1 <= den.calls < 16
    assert threading.active_count() == before


_real_default_rng = np.random.default_rng
_NOISE_THREAD = "tilediff-noise"


class PacedGenerator:
    """default_rng(seed) that records who draws: each fill on the noise
    thread sleeps `pause` s first, so that a caller taking draws back to
    back finds no chunk ready and draws ahead; fills on any other thread
    are counted in `ahead[seed]` (the caller draws one draw a fill), and
    the seed of every Generator made is appended to `made`. With
    PacedQueue, the thread also sleeps after each chunk it hands over,
    before it starts the next stream. `fail` = (seed, exc) raises exc at the
    noise thread's first fill of that stream."""

    pause = 0.0
    ahead: dict = {}
    made: list = []
    fail = None

    def __init__(self, seed):
        self.seed = seed
        self.rng = _real_default_rng(seed)
        self.made.append(seed)

    def standard_normal(self, size=None, out=None):
        if threading.current_thread().name == _NOISE_THREAD:
            if self.fail is not None and self.fail[0] == self.seed:
                raise self.fail[1]
            time.sleep(self.pause)
        else:
            self.ahead[self.seed] = self.ahead.get(self.seed, 0) + 1
        return self.rng.standard_normal(size, out=out)


class PacedQueue(queue.SimpleQueue):
    def put(self, item, block=True, timeout=None):
        super().put(item)
        if threading.current_thread().name == _NOISE_THREAD:
            time.sleep(PacedGenerator.pause)


NOISE_SHAPE = (3, 5)


_POOL, _C = NoiseProducer.POOL, NoiseProducer.CHUNK_DRAWS
# the most draws of a stream the caller can draw ahead
_AHEAD = (_POOL - 2) * _C


@st.composite
def noise_streams(draw, counts=(1, _C - 3, _C, _C + 1, 2 * _C + 3)):
    """(seeds, count): one to five distinct seeds, and one draw count for
    all their streams, by default 1, fewer than a chunk, a chunk, or more."""
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=5,
                          unique=True))
    return seeds, draw(st.sampled_from(counts))


def _producer(seeds, count):
    return NoiseProducer(seeds.__getitem__, len(seeds), count, NOISE_SHAPE)


def _paced(pause, fail=None, pool=_POOL, chunk=_C):
    mp = pytest.MonkeyPatch()
    PacedGenerator.pause, PacedGenerator.ahead = pause, {}
    PacedGenerator.made, PacedGenerator.fail = [], fail
    mp.setattr(np.random, "default_rng", PacedGenerator)
    mp.setattr(queue, "SimpleQueue", PacedQueue)
    mp.setattr(NoiseProducer, "POOL", pool)
    mp.setattr(NoiseProducer, "CHUNK_DRAWS", chunk)
    return mp


def _serial(seeds, count):
    return [d for seed in seeds
            for d in _real_default_rng(seed).standard_normal(
                (count, *NOISE_SHAPE))]


@st.composite
def pooled_streams(draw):
    """(pool, chunk, seeds, count): the production pool or a pool of two
    to five chunks of one to seven draws, and streams whose count is
    around one chunk, what the caller may draw ahead, or the whole pool."""
    pool, chunk = draw(st.sampled_from([(_POOL, _C), (2, 3), (3, 1),
                                        (3, 4), (5, 2), (5, 7)]))
    ahead = (pool - 2) * chunk
    counts = {1, max(chunk - 1, 1), chunk, chunk + 1, max(ahead, 1),
              ahead + 1, pool * chunk + 1}
    seeds, count = draw(noise_streams(counts=sorted(counts)))
    return pool, chunk, seeds, count


@settings(max_examples=100, deadline=None)
@given(streams=pooled_streams(), gap=st.sampled_from([0.0, 2e-5, 2e-4]),
       pause=st.sampled_from([0.0, 2e-4]), data=st.data())
def test_noise_producer_streams_are_the_serial_draws(streams, gap, pause,
                                                     data):
    # a caller that takes draws back to back (gap 0) finds no chunk ready
    # and draws ahead, a slow one finds the pool full, and one in between
    # runs out of queued draws while the thread is already on a later
    # stream. One producer is read to the end, another is closed after
    # fewer draws, draws ahead still outstanding included
    pool, chunk, *streams = streams
    want = _serial(*streams)
    stop = data.draw(st.integers(0, len(want) - 1), label="takes to close")
    before = threading.active_count()

    def run(takes):
        got = []
        noise = _producer(*streams)
        try:
            for _ in range(takes):
                got.append(noise.take().copy())
                if gap:  # sleep(0) would still yield to the thread
                    time.sleep(gap)
            if takes == len(want):
                try:
                    noise.take()
                except RuntimeError as exc:
                    return got, exc
        finally:
            noise.close()
        return got, None

    mp = _paced(pause, pool=pool, chunk=chunk)
    try:
        got, past_end = within(lambda: run(len(want)))
        early, _ = within(lambda: run(stop))
    finally:
        mp.undo()
    assert threading.active_count() == before
    assert "hold only" in str(past_end)
    for i, draw in enumerate(got):
        assert same_bits(draw, want[i]), f"draw {i} of {len(want)}"
    assert all(same_bits(g, w) for g, w in zip(early, want))


def test_noise_producer_hands_out_the_callers_draws_ahead():
    # while the thread sleeps on each fill, the caller draws a stream
    # ahead; the thread then continues that stream's Generator. The first
    # run is closed after two draws, with draws ahead not yet taken
    seeds, count = [11, 12, 13], 2 * _C + 3
    want = _serial(seeds, count)
    mp = _paced(0.02)
    try:
        def run(stop):
            noise = _producer(seeds, count)
            try:
                return [noise.take().copy() for _ in range(stop)]
            finally:
                noise.close()

        early = within(lambda: run(2))
        ahead_at_close = dict(PacedGenerator.ahead)
        PacedGenerator.ahead = {}
        got = within(lambda: run(len(want)))
    finally:
        mp.undo()
    # two draws taken, more drawn by the caller, who has crossed into a
    # stream the thread had not started
    assert sum(ahead_at_close.values()) > 2
    assert set(ahead_at_close) - {seeds[0]}
    assert all(same_bits(g, w) for g, w in zip(early, want))
    assert sum(PacedGenerator.ahead.values()) > 0
    assert len(got) == len(want)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_noise_producer_refills_chunks_while_the_caller_uses_draws_ahead():
    # the thread is slow on stream 0, so the caller draws stream 1 ahead
    # as far as it may; on stream 1 the thread is fast and the caller
    # slow. Each chunk the caller frees while it takes its draws ahead
    # must be filled again at once, not once those draws are used up
    log = []

    class Logged(PacedGenerator):
        def standard_normal(self, size=None, out=None):
            noise_thread = threading.current_thread().name == _NOISE_THREAD
            if noise_thread and self.seed == 0:
                time.sleep(0.02)
            draws = self.rng.standard_normal(size, out=out)
            log.append(("thread" if noise_thread else "caller", self.seed))
            return draws

    count = (_POOL + 2) * _C + 4
    mp = pytest.MonkeyPatch()
    mp.setattr(np.random, "default_rng", Logged)

    def run():
        got = []
        noise = _producer([0, 1], count)
        try:
            for i in range(2 * count):
                got.append(noise.take().copy())
                log.append(("take", i))
                if i >= count:
                    time.sleep(0.01)
        finally:
            noise.close()
        return got

    try:
        got = within(run)
    finally:
        mp.undo()
    assert all(same_bits(g, w) for g, w in zip(got, _serial([0, 1], count)))
    ahead = log.count(("caller", 1))
    assert ahead >= 2 * _C
    # the thread fills a chunk between the caller's second and last take
    # of the draws it drew ahead
    second = log.index(("take", count + 1))
    last = log.index(("take", count + ahead - 1))
    assert ("thread", 1) in log[second:last]


# the thread draws part of any stream longer than the caller may draw ahead
@settings(max_examples=40, deadline=None)
@given(streams=noise_streams(counts=(_AHEAD + 1, _AHEAD + _C + 3)),
       pause=st.sampled_from([0.0, 2e-4]), data=st.data())
def test_noise_producer_raises_the_threads_error(streams, pause, data):
    seeds, count = streams
    failing = data.draw(st.integers(0, len(seeds) - 1),
                        label="failing stream")
    want = _serial(seeds, count)
    end = (failing + 1) * count

    def run():
        got, errors = [], []
        noise = _producer(seeds, count)
        try:
            # a take() after the error raises it too
            while len(errors) < 2 and len(got) < len(want):
                try:
                    got.append(noise.take().copy())
                except DrawError as exc:
                    errors.append(exc)
        finally:
            noise.close()
        return got, errors

    mp = _paced(pause, fail=(seeds[failing], DrawError("thread")))
    try:
        got, errors = within(run)
    finally:
        mp.undo()
    assert [str(e) for e in errors] == ["thread", "thread"]
    # the error comes before the failing stream's thread draws are due
    assert len(got) < end
    assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("pause", [0.0, 0.02])
def test_noise_producer_seeds_only_the_streams_it_starts(pause):
    # a paused thread lets the caller's draws ahead start streams too
    calls = []

    def seed_of(k):
        calls.append(k)
        return k

    count = 3
    mp = _paced(pause)
    try:
        def run():
            noise = NoiseProducer(seed_of, 10**6, count, NOISE_SHAPE)
            try:
                return [noise.take().copy() for _ in range(2 * count + 1)]
            finally:
                noise.close()

        got = within(run)
    finally:
        mp.undo()
    # each stream's seed is derived once, in stream order, for the one
    # Generator that draws it
    assert calls == list(range(len(calls)))
    assert PacedGenerator.made == calls
    assert len(calls) < 20
    assert all(same_bits(g, w)
               for g, w in zip(got, _serial(range(3), count)))


def test_noise_producer_holds_no_per_stream_memory():
    shape = (64, 64, 3)
    tracemalloc.start()
    try:
        noise = NoiseProducer(lambda k: k, 10**6, 5, shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    noise.close()
    # the pool's four chunks of six draws of 98 kB
    buffers = _POOL * _C * np.empty(shape).nbytes
    assert buffers <= peak < buffers + 2**16


def test_run_sampler_rejects_a_producer_of_other_streams():
    op = linops.Identity((8, 8, 3))
    cfg = SamplerConfig(T=10, seed=0)
    den = GmmDenoiser([np.zeros(op.input_shape)], [1.0], 1.0)
    before = threading.active_count()
    for count, shape in [(noise_draws(cfg) + 1, op.input_shape),
                         (noise_draws(cfg), (4, 8, 3))]:
        noise = NoiseProducer(lambda k: 7, 2, count, shape)
        try:
            with pytest.raises(ValueError, match="noise streams of"):
                within(lambda: run_sampler(op, np.zeros(op.output_shape),
                                           den, cfg, noise=noise))
            # no draw was taken: the next one is stream 0's first
            assert same_bits(noise.take(), np.random.default_rng(
                7).standard_normal(shape))
        finally:
            noise.close()
    assert den.calls == 0
    assert threading.active_count() == before


def test_run_sampler_calls_back_on_the_calling_thread():
    idents = []

    class RecordingDenoiser(ZeroDenoiser):
        def predict_eps(self, x_t, t, sched):
            idents.append(threading.get_ident())
            return super().predict_eps(x_t, t, sched)

    def hook(x0, t):
        idents.append(threading.get_ident())
        return x0

    op = linops.AvgPool((4, 4, 1), 2)
    run_sampler(op, np.zeros(op.output_shape),
                RecordingDenoiser(op.input_shape),
                SamplerConfig(T=12, seed=1, travel_l=4, travel_r=2),
                hooks=ConstraintHooks(pre=[hook], post=[hook]))
    assert len(idents) == 3 * 24
    assert set(idents) == {threading.get_ident()}


def test_within_reraises_a_pytest_outcome_on_the_caller():
    # pytest.fail raises an exception that is not an Exception
    with pytest.raises(pytest.fail.Exception, match="boom"):
        within(lambda: pytest.fail("boom"))
