"""The exact posterior of a tile, in the operator API, against brute force.

Every operator has one singular value s (A A^T = s^2 I). Given a prior
sum_k w_k N(m_k, tau^2 I) and y = A x + sigma_y n, the posterior of x is
then the mixture with
- weights proportional to w_k exp(-|y - A m_k|^2 / 2(tau^2 s^2 + sigma_y^2)),
- component means op.project(y, m_k, lam=g), g = tau^2 s^2 /
  (tau^2 s^2 + sigma_y^2),
- covariance tau^2 (I - g P), with P = pinv(A) A the range projector.
The brute force conditions the joint Gaussian of (x, y) on y for each
component, with the operator's dense matrix and no use of its spectrum.
An exact sampler of that posterior is checked against the closed form.
"""

import math
import statistics

import numpy as np
import pytest

from tilediff import linops

from oracles import dense_matrix

TAU = 0.3


def _operators():
    rng = np.random.default_rng(5)
    return {
        "mask": linops.Mask(rng.random((4, 4)) < 0.5, channels=3),
        "avgpool2": linops.AvgPool((4, 4, 3), 2),
        "avgpool4": linops.AvgPool((8, 8, 3), 4),
        "gray": linops.Gray((4, 4, 3)),
        "identity": linops.Identity((2, 2, 3)),
    }


OPERATORS = _operators()


def _gain(op, tau, sigma_y):
    """(v, g): the variance tau^2 s^2 + sigma_y^2 of a measured mode of y
    and the gain g = tau^2 s^2 / v."""
    v = tau ** 2 * op.sing_value ** 2 + sigma_y ** 2
    return v, tau ** 2 * op.sing_value ** 2 / v


def closed_form(op, y, means, weights, tau, sigma_y):
    """(weights, component means, covariance) of the posterior, from the
    single singular value and the operator's own calls."""
    v, g = _gain(op, tau, sigma_y)
    logw = np.log(weights) - np.array(
        [np.sum((y - op.forward(m)) ** 2) / (2 * v) for m in means])
    post = np.exp(logw - logw.max())
    post /= post.sum()
    mus = [op.project(y, m, lam=g) for m in means]
    d = math.prod(op.input_shape)
    proj = np.stack([op.range_project(e.reshape(op.input_shape)).ravel()
                     for e in np.eye(d)], axis=1)
    return post, mus, tau ** 2 * (np.eye(d) - g * proj)


def brute_force(a, y, means, weights, tau, sigma_y):
    """The same three by conditioning each component's joint Gaussian of
    (x, y = A x + sigma_y n) on y, with dense linear algebra."""
    d = a.shape[1]
    syy = tau ** 2 * a @ a.T + sigma_y ** 2 * np.eye(len(a))
    sxy = tau ** 2 * a.T
    gain = np.linalg.solve(syy, sxy.T).T  # sxy syy^-1; syy is symmetric
    _, logdet = np.linalg.slogdet(syy)
    logw, mus = [], []
    for m, w in zip(means, weights):
        r = y.ravel() - a @ m.ravel()
        logw.append(math.log(w) - 0.5 * (r @ np.linalg.solve(syy, r) + logdet
                                         + len(a) * math.log(2 * math.pi)))
        mus.append(m.ravel() + gain @ r)
    logw = np.array(logw)
    post = np.exp(logw - logw.max())
    return post / post.sum(), mus, tau ** 2 * np.eye(d) - gain @ sxy.T


def sample_posterior(op, y, means, weights, tau, sigma_y, rng, n):
    """n exact posterior draws (components, draws as rows): component k
    by its posterior weight, then mu_k + tau (z - c P z) with z standard
    normal, P z = op.range_project(z) and c = 1 - sqrt(1 - g). P is an
    orthogonal projector, so the covariance is tau^2 (I - c P)^2 =
    tau^2 (I - (2c - c^2) P) = tau^2 (I - g P)."""
    post, mus, _ = closed_form(op, y, means, weights, tau, sigma_y)
    c = 1.0 - math.sqrt(max(1.0 - _gain(op, tau, sigma_y)[1], 0.0))
    ks = rng.choice(len(post), size=n, p=post)
    xs = np.empty((n, math.prod(op.input_shape)))
    for i, k in enumerate(ks):
        z = rng.standard_normal(op.input_shape)
        xs[i] = (mus[k] + tau * (z - c * op.range_project(z))).ravel()
    return ks, xs


def _problem(name, sigma_y, k):
    """(op, y, means, weights): a k-component prior and a measurement of a
    draw from its first component."""
    op = OPERATORS[name]
    rng = np.random.default_rng([k, int(sigma_y * 10), len(name)])
    # means close enough that no component's weight is negligible
    means = [0.1 * rng.standard_normal(op.input_shape) for _ in range(k)]
    weights = rng.dirichlet(np.ones(k))
    x = means[0] + TAU * rng.standard_normal(op.input_shape)
    y = op.forward(x) + sigma_y * rng.standard_normal(op.output_shape)
    return op, y, means, weights


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("sigma_y", [0.0, 0.1])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_posterior_matches_brute_force(name, sigma_y, k):
    op, y, means, weights = _problem(name, sigma_y, k)
    post, mus, cov = closed_form(op, y, means, weights, TAU, sigma_y)
    want_post, want_mus, want_cov = brute_force(
        dense_matrix(op), y, means, weights, TAU, sigma_y)
    assert want_post.min() > 1e-4
    np.testing.assert_allclose(post, want_post, rtol=0, atol=1e-10)
    for mu, want in zip(mus, want_mus):
        assert mu.shape == op.input_shape
        np.testing.assert_allclose(mu.ravel(), want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(cov, want_cov, rtol=0, atol=1e-10)


def _z_bound(checks, alpha=1e-3):
    """Standard errors within which all of `checks` estimates fall with
    probability at least 1 - alpha (two-sided, Bonferroni)."""
    return statistics.NormalDist().inv_cdf(1 - alpha / (2 * checks))


# rounding of the closed form's and the sampler's own arithmetic, for the
# entries whose Monte-Carlo error is zero (sigma_y = 0 pins the range)
ROUNDING = 1e-12
DRAWS = 10_000


@pytest.mark.parametrize("sigma_y", [0.0, 0.1])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_posterior_sampler_matches_the_closed_form(name, sigma_y):
    op, y, means, weights = _problem(name, sigma_y, 3)
    post, mus, cov = closed_form(op, y, means, weights, TAU, sigma_y)
    ks, xs = sample_posterior(op, y, means, weights, TAU, sigma_y,
                              np.random.default_rng(7), DRAWS)
    if sigma_y == 0.0:
        for x in xs:
            resid = op.forward(x.reshape(op.input_shape)) - y
            assert np.abs(resid).max() <= 1e-12

    # components: binomial counts
    counts = np.bincount(ks, minlength=len(post))
    se = np.sqrt(DRAWS * post * (1 - post))
    assert np.all(np.abs(counts - DRAWS * post)
                  <= _z_bound(len(post)) * se)

    # mean and covariance of the mixture
    mean = sum(p * mu.ravel() for p, mu in zip(post, mus))
    mix_cov = cov + sum(p * np.outer(mu.ravel() - mean, mu.ravel() - mean)
                        for p, mu in zip(post, mus))
    d = xs - mean
    se_mean = np.sqrt(np.diag(mix_cov) / DRAWS)
    assert np.all(np.abs(d.mean(axis=0))
                  <= _z_bound(len(mean)) * se_mean + ROUNDING)
    # E[d d^T] about the true mean is the covariance; each entry's
    # standard error is that of the products d_i d_j over the draws
    got = d.T @ d / DRAWS
    se_cov = np.sqrt(np.maximum((d ** 2).T @ (d ** 2) / DRAWS - got ** 2,
                                0.0) / DRAWS)
    assert np.all(np.abs(got - mix_cov)
                  <= _z_bound(got.size) * se_cov + ROUNDING)
    # summed over the measured modes, whose share of the variance sigma_y
    # sets: E |P d|^2 = tr(P C), for a small error there that no single
    # entry resolves
    shape = op.input_shape
    sq = np.array([np.sum(op.range_project(r.reshape(shape)) ** 2)
                   for r in d])
    want = sum(op.range_project(col.reshape(shape)).ravel()[i]
               for i, col in enumerate(mix_cov.T))
    assert abs(sq.mean() - want) <= (_z_bound(1) * sq.std() / DRAWS ** 0.5
                                     + ROUNDING)
