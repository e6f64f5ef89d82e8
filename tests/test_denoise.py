import math
import warnings

import numpy as np
import pytest

from tilediff.denoise import GmmDenoiser, load_gmm_prior
from tilediff.schedule import build_schedule

from conftest import smooth_means, write_image
from oracles import (ZeroDenoiser, eps_from_x0, gaussian_posterior_x0,
                     gmm_posterior_x0)


def test_gaussian_shrinkage_half():
    # mu=0, v=1, a=1, sigma=1: posterior mean halves the observation
    assert gaussian_posterior_x0(np.array(2.0), 0.0, 1.0, 1.0, 1.0) \
        == pytest.approx(1.0)


def test_gaussian_degenerate_prior():
    x0 = gaussian_posterior_x0(np.array(5.0), 0.3, 1e-18, 0.9, 0.4)
    assert x0 == pytest.approx(0.3)


def test_gaussian_noiseless_limit():
    xt = np.array(1.2)
    x0 = gaussian_posterior_x0(xt, 0.0, 1.0, 0.8, 1e-9)
    assert x0 == pytest.approx(1.2 / 0.8)


def test_gaussian_rejects_sigma_zero():
    with pytest.raises(ValueError):
        gaussian_posterior_x0(np.zeros(1), 0.0, 1.0, 1.0, 0.0)


def test_gaussian_posterior_is_conditional_mean(rng):
    # Monte-Carlo oracle on a scalar instance: E[x0 | x_t in a small bin]
    mu, v, a, sig = 0.2, 0.5, 0.7, 0.5
    n = 100_000
    x0 = mu + np.sqrt(v) * rng.standard_normal(n)
    xt = a * x0 + sig * rng.standard_normal(n)
    center = 0.4
    sel = np.abs(xt - center) < 0.02
    mc = x0[sel].mean()
    analytic = gaussian_posterior_x0(np.array(center), mu, v, a, sig)
    band = 4.0 * x0[sel].std() / np.sqrt(sel.sum())
    # bin width adds O(width^2) bias; keep it inside the band
    assert abs(mc - analytic) <= band + 1e-3


def test_gmm_single_component_reduces_to_gaussian(rng):
    mu = rng.standard_normal((3, 3, 1))
    xt = rng.standard_normal((3, 3, 1))
    tau, a, sig = 0.3, 0.8, 0.6
    got = gmm_posterior_x0(xt, [mu], [1.0], tau, a, sig)
    want = gaussian_posterior_x0(xt, mu, tau**2, a, sig)
    assert np.abs(got - want).max() <= 1e-12


def test_gmm_symmetric_midpoint():
    means = [np.full((1, 1, 1), -1.0), np.full((1, 1, 1), 1.0)]
    x0 = gmm_posterior_x0(np.zeros((1, 1, 1)), means, [0.5, 0.5],
                          1e-6, 1.0, 1.0)
    assert abs(x0[0, 0, 0]) <= 1e-12


def test_gmm_far_observation_picks_component():
    # log-sum-exp oracle: responsibilities at x_t = 10
    means = np.array([-1.0, 1.0]).reshape(2, 1, 1, 1)
    tau, a, sig = 1e-3, 1.0, 1.0
    c = a**2 * tau**2 + sig**2
    logp = np.array([np.log(0.5) - (10 - a * m) ** 2 / (2 * c)
                     for m in (-1.0, 1.0)])
    rho = np.exp(logp - logp.max())
    rho /= rho.sum()
    expected = rho[0] * (-1.0) + rho[1] * (+1.0)
    x0 = gmm_posterior_x0(np.full((1, 1, 1), 10.0), means, [0.5, 0.5],
                          tau, a, sig)
    # shrinkage term is O(tau^2), negligible here
    assert x0[0, 0, 0] == pytest.approx(expected, abs=1e-5)
    assert x0[0, 0, 0] == pytest.approx(1.0, abs=1e-5)


def test_gmm_component_reorder_and_split_invariance(rng):
    means = smooth_means(3, 4, 4, channels=1, seed=5)
    xt = rng.standard_normal((4, 4, 1))
    base = gmm_posterior_x0(xt, means, [0.5, 0.3, 0.2], 0.1, 0.9, 0.436)
    perm = gmm_posterior_x0(xt, [means[2], means[0], means[1]],
                            [0.2, 0.5, 0.3], 0.1, 0.9, 0.436)
    split = gmm_posterior_x0(xt, means + [means[0]],
                             [0.25, 0.3, 0.2, 0.25], 0.1, 0.9, 0.436)
    assert np.abs(base - perm).max() <= 1e-12
    assert np.abs(base - split).max() <= 1e-12


def test_eps_x0_roundtrip(rng):
    sched = build_schedule(30)
    den = GmmDenoiser(smooth_means(2, 4, 4, channels=3, seed=1),
                      [0.6, 0.4], 0.05)
    xt = rng.standard_normal((4, 4, 3))
    t = 17
    x0 = gmm_posterior_x0(xt, den.means, den.weights, den.tau, sched.a[t],
                          sched.sigma[t])
    eps = den.predict_eps(xt, t, sched)
    back = (xt - sched.sigma[t] * eps) / sched.a[t]
    assert np.abs(back - x0).max() <= 1e-12


def test_zero_eps_stub(rng):
    xt = rng.standard_normal((2, 2, 1))
    sched = build_schedule(10)
    den = ZeroDenoiser(xt.shape)
    eps = den.predict_eps(xt, 5, sched)
    assert np.array_equal(eps, np.zeros_like(xt))
    x0 = (xt - sched.sigma[5] * eps) / sched.a[5]
    assert np.allclose(x0, xt / sched.a[5])


def test_eps_from_x0_matches_forward_model():
    assert eps_from_x0(np.array(1.1), np.array(1.0), 0.8, 0.6) \
        == pytest.approx(0.5)


def test_gmm_validation():
    with pytest.raises(ValueError):
        GmmDenoiser([], [], 0.1)
    with pytest.raises(ValueError):
        GmmDenoiser([np.zeros((2, 2, 1))], [1.0], 0.0)
    with pytest.raises(ValueError):
        GmmDenoiser([np.zeros((2, 2, 1)), np.zeros((3, 3, 1))],
                    [0.5, 0.5], 0.1)
    two = [np.zeros((2, 2, 1))] * 2
    # [1e308, 1e308] sums to inf (an overflow numpy warns of), which would
    # normalize them to 0
    for weights in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf],
                    [1e308, 1e308]):
        with pytest.raises(ValueError, match="weights"), \
                np.errstate(over="ignore"):
            GmmDenoiser(two, weights, 0.1)
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            GmmDenoiser(two, [0.5, 0.5], tau)
    # one weight per mean, checked when the mixture is built, not by
    # numpy's matmul at the first prediction
    for weights in ([1.0], [0.2, 0.3, 0.5]):
        with pytest.raises(ValueError, match=f"2 component means but "
                                             f"{len(weights)} weights"):
            GmmDenoiser(two, weights, 0.1)


def write_prior(dirpath, means, weights, tau):
    lines = [f"tau {tau}"]
    for i, (m, w) in enumerate(zip(means, weights)):
        name = f"mean_{i}.ppm" if m.shape[2] == 3 else f"mean_{i}.pgm"
        write_image(dirpath / name, m)
        lines.append(f"component {w} {name}")
    (dirpath / "prior.txt").write_text("\n".join(lines) + "\n")


def test_load_gmm_prior(tmp_path):
    means = smooth_means(3, 8, 8, seed=2)
    write_prior(tmp_path, means, [0.5, 0.25, 0.25], 0.07)
    den = load_gmm_prior(tmp_path)
    assert den.tau == 0.07
    assert den.means.shape == (3, 8, 8, 3)
    assert den.weights.sum() == pytest.approx(1.0)
    # means survive as their quantized values
    q = np.rint((np.clip(means[0], -1, 1) + 1) * 127.5) * 2 / 255 - 1
    assert np.abs(den.means[0] - q).max() <= 1e-12


def test_load_gmm_prior_renormalizes_with_warning(tmp_path):
    means = smooth_means(2, 4, 4, seed=3)
    write_prior(tmp_path, means, [0.7, 0.7], 0.05)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        den = load_gmm_prior(tmp_path)
    assert any("re-normalizing" in str(w.message) for w in rec)
    assert den.weights.sum() == pytest.approx(1.0)


def test_load_gmm_prior_bad_manifest(tmp_path):
    (tmp_path / "prior.txt").write_text("component 1.0 a.ppm\n")
    with pytest.raises(ValueError):
        load_gmm_prior(tmp_path)


def test_gaussian_denoiser_shape_contract(rng):
    den = GmmDenoiser([np.zeros((6, 6, 3))], [1.0], math.sqrt(0.2))
    assert den.input_shape == (6, 6, 3)
    sched = build_schedule(10)
    out = den.predict_eps(rng.standard_normal((6, 6, 3)), 4, sched)
    assert out.shape == (6, 6, 3)
    assert np.isfinite(out).all()
