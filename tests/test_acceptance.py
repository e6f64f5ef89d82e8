"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run under pytest, or directly (python3 tests/test_acceptance.py) for the
plain printed report. Each criterion states its tolerance inline; oracles
are either dense linear algebra, Monte-Carlo statistics, or closed-form
Gaussian identities.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import math
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

_TESTS = os.path.dirname(os.path.abspath(__file__))
# the tests' helpers, and the checkout's package when it is not installed
sys.path[:0] = [_TESTS, os.path.join(os.path.dirname(_TESTS), "src")]

from tilediff import cli, linops
from tilediff.cli import parse_job, run_job
from tilediff.denoise import GmmDenoiser
from tilediff.hir import hir_restore
from tilediff.msr import msr_restore, plan_tiles
from tilediff.sampler import (SamplerConfig, compute_lambda_gamma,
                              ddnm_plus_project, run_sampler)
from tilediff.schedule import build_schedule, renoise_jump
from tilediff.tasks import (ColorizeTask, GenerateTask, InpaintTask,
                            SuperResolutionTask)

from conftest import lowfreq_residuals, seam_metric, smooth_means
from oracles import clean_project, full_problem, line_excess, replay_msr
from test_denoise import write_prior
from test_linops import dense_pinv_scaled

PATCH, OVERLAP = 64, 32


def criterion(num, title, budget_sec=None):
    """Prints one pass/fail line per criterion and enforces the runtime
    budget when one is stated."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({title}): FAIL")
                raise
            elapsed = time.monotonic() - start
            if budget_sec is not None and elapsed > budget_sec:
                print(f"criterion {num} ({title}): FAIL "
                      f"(over budget: {elapsed:.1f}s > {budget_sec}s)")
                raise AssertionError(
                    f"criterion {num} runtime {elapsed:.1f}s exceeds "
                    f"{budget_sec}s budget")
            print(f"criterion {num} ({title}): PASS ({elapsed:.1f}s)")
        return wrapper
    return deco


def make_gmm(k=2, seed=7, tau=0.05):
    return GmmDenoiser(smooth_means(k, PATCH, PATCH, seed=seed),
                       np.full(k, 1.0 / k), tau)


@criterion(1, "operator identities", budget_sec=10)
def test_criterion_1_operator_identities():
    rng = np.random.default_rng(1)
    ops = [linops.AvgPool((64, 64, 3), 2),
           linops.AvgPool((64, 64, 3), 4),
           linops.Gray((64, 64, 3)),
           linops.Identity((64, 64, 3))]
    ops += [linops.Mask(rng.random((32, 32, 3)) < rng.uniform(0.2, 0.8))
            for _ in range(5)]
    for op in ops:
        for _ in range(100):
            x = rng.standard_normal(op.input_shape)
            ax = op.forward(x)
            assert np.abs(op.forward(op.pinv(ax)) - ax).max() <= 1e-10
            px = op.range_project(x)
            assert np.abs(op.range_project(px) - px).max() <= 1e-10
    # scaled pseudo-inverse against the dense SVD oracle, D <= 64
    small = [linops.AvgPool((8, 8, 1), 2),
             linops.Mask(rng.random((8, 8, 1)) < 0.5),
             linops.Gray((4, 4, 3)),
             linops.Identity((8, 8, 1))]
    for op in small:
        for f in (lambda s: 1.0, lambda s: s, lambda s: 1.0 / (1.0 + s * s)):
            r = rng.standard_normal(op.output_shape)
            got = f(op.sing_value) * op.pinv(r)
            want = dense_pinv_scaled(op, r, f)
            assert np.abs(got - want).max() <= 1e-8


@criterion(2, "exact consistency, single tile", budget_sec=90)
def test_criterion_2_exact_consistency():
    rng = np.random.default_rng(2)
    den = make_gmm(k=8, seed=5)
    truth = rng.uniform(-1, 1, size=(PATCH, PATCH, 3))
    cfg = SamplerConfig(T=100, seed=4)
    tasks = [
        SuperResolutionTask(truth.reshape(16, 4, 16, 4, 3).mean(axis=(1, 3)),
                            4),
        InpaintTask(truth, rng.random((PATCH, PATCH)) < 0.5),
        ColorizeTask(truth.mean(axis=2, keepdims=True)),
    ]
    for task in tasks:
        op, y = full_problem(task)
        xhat = run_sampler(op, y, den, cfg)
        assert np.abs(op.forward(xhat) - y).max() <= 1e-6


@criterion(3, "noisy-path coefficient suite")
def test_criterion_3_coefficients():
    rng = np.random.default_rng(3)
    sched = build_schedule(100)
    for _ in range(10_000):
        s = float(rng.uniform(0.01, 2.0))
        t = int(rng.integers(2, 101))
        sigma_y = float(rng.uniform(0.001, 1.0))
        eta = float(rng.uniform(0.0, 1.0))
        lam, gam = compute_lambda_gamma(s, t, sched, eta, sigma_y)
        assert 0.0 < lam <= 1.0
        assert 0.0 <= gam <= eta
        a, sig = sched.a[t - 1], sched.sigma[t - 1]
        lhs = a**2 * sigma_y**2 * lam**2 * s**2 + sig**2 * gam**2
        assert abs(lhs - sig**2 * eta**2) <= 1e-12
        if sig * eta < a * sigma_y * s:
            assert gam == 0.0  # clamped branch, exactly
    # sigma_y = 0 reduces bit-exactly to the noise-free projection
    cfg = SamplerConfig(T=100, sigma_y=0.0)
    for _ in range(10):
        op = linops.AvgPool((8, 8, 1), 2)
        x0t = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.output_shape)
        got, gamma = ddnm_plus_project(op, y, x0t, 50, sched, cfg)
        assert np.array_equal(got, clean_project(op, y, x0t))
        assert gamma == cfg.eta


@criterion(4, "tiled seam exactness", budget_sec=300)
def test_criterion_4_msr_seams():
    rng = np.random.default_rng(4)
    den = make_gmm(seed=7)
    two = plan_tiles(64, 96, PATCH, OVERLAP, block=4)
    six = plan_tiles(96, 128, PATCH, OVERLAP, block=4)
    cfg = SamplerConfig(T=30, seed=9)

    # bitwise known-region equality, checked inside the replay, and replay
    # equals the public implementation bit for bit
    for plan, shape in ((two, (64, 96)), (six, (96, 128))):
        gen = GenerateTask(shape[0], shape[1], 3)
        assert np.array_equal(replay_msr(gen, plan, den, cfg),
                              msr_restore(gen, plan, den, cfg))
        truth = rng.uniform(-1, 1, size=shape + (3,))
        y = truth.reshape(shape[0] // 4, 4, shape[1] // 4, 4, 3).mean(
            axis=(1, 3))
        sr = SuperResolutionTask(y, 4)
        img = replay_msr(sr, plan, den, cfg)
        assert np.array_equal(img, msr_restore(sr, plan, den, cfg))
        op, yy = full_problem(sr)
        assert np.abs(op.forward(img) - yy).max() <= 1e-6

    # seam excess indistinguishable from an interior null band, 20 seeds
    base = smooth_means(1, 96, 128, seed=7)[0]
    for kind in ("generate", "sr"):
        seam_vals, null_vals = [], []
        for seed in range(20):
            if kind == "generate":
                task = GenerateTask(96, 128, 3)
            else:
                truth = base + 0.1 * np.random.default_rng(
                    100 + seed).standard_normal(base.shape)
                y = truth.reshape(24, 4, 32, 4, 3).mean(axis=(1, 3))
                task = SuperResolutionTask(y, 4)
            img = msr_restore(task, six, den,
                              dataclasses.replace(cfg, seed=seed))
            for pos in (32, 64, 96):
                seam_vals.append(line_excess(img, 1, pos))
            for pos in (16, 48, 80):  # mid-tile lines, no seam there
                null_vals.append(line_excess(img, 1, pos))
            seam_vals.append(line_excess(img, 0, 32))
            null_vals.append(line_excess(img, 0, 48))
        seam_mean, null_mean = np.mean(seam_vals), np.mean(null_vals)
        assert abs(seam_mean - null_mean) <= 0.2 * null_mean
        assert np.max(seam_vals) <= 1.3 * np.max(null_vals)


@criterion(5, "naive-vs-constrained seam contrast")
def test_criterion_5_naive_contrast():
    # well-separated constant components: independent tiles pick different
    # components and the boundary jump is order 0.6 model units
    means = [np.full((PATCH, PATCH, 3), v) for v in (-0.9, -0.3, 0.3, 0.9)]
    den = GmmDenoiser(means, np.full(4, 0.25), 0.01)
    task = GenerateTask(64, 96, 3)
    plan = plan_tiles(64, 96, PATCH, OVERLAP)
    naive_vals, msr_vals = [], []
    for seed in range(20):
        cfg = SamplerConfig(T=30, seed=seed)
        for use_hook, acc in ((True, msr_vals), (False, naive_vals)):
            img = msr_restore(task, plan, den, cfg, use_mask_hook=use_hook)
            acc.append(max(v for _, _, v in seam_metric(img, plan)))
    naive_mean, msr_mean = np.mean(naive_vals), np.mean(msr_vals)
    assert naive_mean > 0.1  # the baseline does produce visible seams
    assert naive_mean > 10 * msr_mean


@criterion(6, "coarse-to-fine low-frequency constraint")
def test_criterion_6_hierarchical():
    rng = np.random.default_rng(6)
    # scale-coherent mixture: each smooth component plus its 2x-downsampled,
    # retiled version, so the coarse phase sees in-prior content
    base = smooth_means(2, PATCH, PATCH, seed=9)

    def pool2(m):
        return m.reshape(32, 2, 32, 2, 3).mean(axis=(1, 3))

    means = base + [np.tile(pool2(m), (2, 2, 1)) for m in base]
    den = GmmDenoiser(means, np.full(4, 0.25), 0.05)
    h, w = 128, 192
    truth = np.tile(base[0], (h // PATCH, w // PATCH, 1))
    known = rng.random((h, w)) < 0.5
    known[:8, :8] = True  # keep the reduced mask non-empty
    task = InpaintTask(truth, known)
    plan2 = plan_tiles(h, w, PATCH, OVERLAP, block=2)
    cfg = SamplerConfig(T=15, seed=4)
    with lowfreq_residuals() as trace:
        result = hir_restore(task, 2, plan2, den, cfg)
    assert trace and max(trace) <= 1e-10  # the pin is exact at every step
    assert result.lowfreq_residual <= 0.1

    # turning the hierarchy off reproduces the flat tiling bit for bit
    flat = msr_restore(task, plan2, den, cfg)
    again = msr_restore(task, plan2, den, cfg, pin=None)
    assert np.array_equal(flat, again)


@criterion(7, "analytic Gaussian end-to-end", budget_sec=120)
def test_criterion_7_gaussian_oracle():
    shape = (2, 4, 1)
    tau = 0.3
    rng = np.random.default_rng(7)
    mu = rng.uniform(-0.5, 0.5, size=shape)
    den = GmmDenoiser([mu], [1.0], tau)
    band = 4.0 * tau / math.sqrt(500)

    # pure generation: empirical mean matches the prior mean
    empty = linops.Mask(np.zeros(shape[:2], dtype=bool), channels=1)
    y0 = empty.forward(np.zeros(shape))
    runs = [run_sampler(empty, y0, den, SamplerConfig(T=50, seed=s))
            for s in range(500)]
    assert np.abs(np.mean(runs, axis=0) - mu).max() <= band

    # noise-free 2x downsampling: range component is pinned, null
    # component's mean matches the analytic conditional mean
    op = linops.AvgPool(shape, 2)
    truth = mu + tau * rng.standard_normal(shape)
    y = op.forward(truth)
    pinv_y = op.pinv(y)
    nulls = []
    for s in range(500):
        xhat = run_sampler(op, y, den, SamplerConfig(T=50, seed=s))
        assert np.abs(op.range_project(xhat) - pinv_y).max() <= 1e-12
        nulls.append(xhat - op.range_project(xhat))
    null_mean_analytic = mu - op.range_project(mu)
    assert np.abs(np.mean(nulls, axis=0) - null_mean_analytic).max() <= band


@criterion(8, "schedule and time travel")
def test_criterion_8_schedule():
    for T in (10, 100, 1000):
        sched = build_schedule(T)
        assert np.abs(sched.a**2 + sched.sigma**2 - 1.0).max() <= 1e-12
    # Monte-Carlo marginal of the re-noising jump, scalar state
    sched = build_schedule(100)
    t, l = 50, 10
    x_t = np.float64(0.7)
    rng = np.random.default_rng(8)
    n = 10_000
    draws = np.array([renoise_jump(x_t, t, l, rng.standard_normal(()), sched)
                      for _ in range(n)])
    ratio = sched.a[t + l] / sched.a[t]
    mean = ratio * x_t
    std = math.sqrt(sched.sigma[t + l]**2 - ratio**2 * sched.sigma[t]**2)
    assert abs(draws.mean() - mean) <= 3 * std / math.sqrt(n)
    assert abs(draws.std(ddof=1) - std) <= 3 * std / math.sqrt(2 * n)
    # T=100, block length 10, 3 traversals: exactly 300 denoising steps
    op = linops.Identity((2, 2, 1))
    den = GmmDenoiser([np.zeros((2, 2, 1))], [1.0], 1.0)
    run_sampler(op, np.zeros((2, 2, 1)), den,
                SamplerConfig(T=100, travel_l=10, travel_r=3))
    assert den.calls == 300


@criterion(9, "determinism")
def test_criterion_9_determinism(tmp_path=None):
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["selftest"]) == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]

    # a plain script run gets a directory that is removed afterwards
    with (contextlib.nullcontext(tmp_path) if tmp_path is not None
          else tempfile.TemporaryDirectory()) as tmp:
        prior = pathlib.Path(tmp) / "prior"
        prior.mkdir(exist_ok=True)
        write_prior(prior, smooth_means(2, PATCH, PATCH, seed=11),
                    [0.5, 0.5], 0.05)
        hashes = set()
        for name in ("first.ppm", "second.ppm"):
            out = pathlib.Path(tmp) / name
            _, job = parse_job(["generate", "--width", "96", "--height", "64",
                                "--out", str(out), "--prior", str(prior),
                                "--seed", "5",
                                "--steps", "15", "--travel-r", "1"])
            assert run_job(job) == 0
            hashes.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(hashes) == 1


if __name__ == "__main__":
    failures = 0
    for fn in (test_criterion_1_operator_identities,
               test_criterion_2_exact_consistency,
               test_criterion_3_coefficients,
               test_criterion_4_msr_seams,
               test_criterion_5_naive_contrast,
               test_criterion_6_hierarchical,
               test_criterion_7_gaussian_oracle,
               test_criterion_8_schedule,
               test_criterion_9_determinism):
        try:
            fn()
        except BaseException as exc:
            failures += 1
            print(f"  detail: {exc}")
    sys.exit(1 if failures else 0)
