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
"""

import math

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


def closed_form(op, y, means, weights, tau, sigma_y):
    """(weights, component means, covariance) of the posterior, from the
    single singular value and the operator's own calls."""
    v = tau ** 2 * op.sing_value ** 2 + sigma_y ** 2
    g = tau ** 2 * op.sing_value ** 2 / v
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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("sigma_y", [0.0, 0.1])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_posterior_matches_brute_force(name, sigma_y, k):
    op = OPERATORS[name]
    rng = np.random.default_rng([k, int(sigma_y * 10), len(name)])
    # means close enough that no component's weight is negligible
    means = [0.1 * rng.standard_normal(op.input_shape) for _ in range(k)]
    weights = rng.dirichlet(np.ones(k))
    x = means[0] + TAU * rng.standard_normal(op.input_shape)
    y = op.forward(x) + sigma_y * rng.standard_normal(op.output_shape)

    post, mus, cov = closed_form(op, y, means, weights, TAU, sigma_y)
    want_post, want_mus, want_cov = brute_force(
        dense_matrix(op), y, means, weights, TAU, sigma_y)
    assert want_post.min() > 1e-4
    np.testing.assert_allclose(post, want_post, rtol=0, atol=1e-10)
    for mu, want in zip(mus, want_mus):
        assert mu.shape == op.input_shape
        np.testing.assert_allclose(mu.ravel(), want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(cov, want_cov, rtol=0, atol=1e-10)
