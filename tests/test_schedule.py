import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilediff.sampler import SamplerConfig, noise_draws
from tilediff.schedule import (Schedule, build_schedule, renoise_jump,
                               travel_steps)

from oracles import forward_diffuse


def make_vp_schedule(a_values):
    """Hand-built variance-preserving schedule from chosen a_t values."""
    a = np.asarray(a_values, dtype=float)
    return Schedule(T=len(a) - 1, a=a, sigma=np.sqrt(1.0 - a**2))


def check_schedule_contract(T):
    s = build_schedule(T)
    assert s.T == T
    assert s.a.shape == s.sigma.shape == (T + 1,)
    assert s.a[0] == 1.0 and s.sigma[0] == 0.0
    assert np.abs(s.a**2 + s.sigma**2 - 1.0).max() <= 1e-12
    assert np.all(np.diff(s.a) < 0)
    assert np.all(np.diff(s.sigma) > 0)


# build_schedule does not check its own output, so these two tests are the
# one place its invariants are proven
@pytest.mark.parametrize("T", [1, 5, 100, 250, 1000])
def test_schedule_contract(T):
    check_schedule_contract(T)


@settings(max_examples=50, deadline=None)
@given(T=st.integers(1, 100_000))
@example(T=2)
@example(T=20)
def test_schedule_contract_property(T):
    check_schedule_contract(T)


@pytest.mark.parametrize("T", [100, 250, 1000])
def test_terminal_state_near_pure_noise(T):
    assert build_schedule(T).a[-1] <= 0.05


def test_zero_steps_rejected():
    with pytest.raises(ValueError):
        build_schedule(0)


def test_forward_diffuse_identity_at_zero(rng):
    s = build_schedule(10)
    x0 = rng.standard_normal((4, 4, 1))
    assert np.array_equal(forward_diffuse(x0, 0, np.ones_like(x0), s), x0)


def test_forward_diffuse_direct_substitution():
    s = make_vp_schedule([1.0, 0.8])
    out = forward_diffuse(np.array(1.0), 1, np.array(0.5), s)
    assert out == pytest.approx(0.8 * 1.0 + 0.6 * 0.5)  # = 1.1


def test_forward_diffuse_range_check():
    s = build_schedule(5)
    with pytest.raises(ValueError):
        forward_diffuse(np.zeros(1), 6, np.zeros(1), s)


def test_forward_diffuse_variance_monte_carlo(rng):
    # 1e4 draws; empirical variance within a 3-sigma band of sigma_t^2
    s = build_schedule(50)
    t = 25
    n = 10_000
    draws = forward_diffuse(np.zeros(n), t, rng.standard_normal(n), s)
    var = draws.var()
    # Var of sample variance of N(0, v) is ~ 2 v^2 / n
    band = 3.0 * np.sqrt(2.0 / n) * s.sigma[t] ** 2
    assert abs(var - s.sigma[t] ** 2) <= band


def test_renoise_jump_from_zero_matches_forward(rng):
    s = build_schedule(20)
    x0 = rng.standard_normal((3, 3, 1))
    noise = rng.standard_normal((3, 3, 1))
    assert np.allclose(renoise_jump(x0, 0, 7, noise, s),
                       forward_diffuse(x0, 7, noise, s), atol=1e-14)


def test_renoise_jump_coefficient_value():
    # variance bookkeeping: Var(x_{t+l}) = sigma_{t+l}^2 given
    # Var(x_t | x0) = sigma_t^2 forces the noise coefficient below
    s = make_vp_schedule([1.0, 0.8, 0.5])
    out = renoise_jump(np.array(0.0), 1, 1, np.array(1.0), s)
    assert out == pytest.approx(np.sqrt(0.609375))  # ~0.78063


def test_renoise_jump_degenerate():
    s = build_schedule(10)
    x = np.full((2, 2, 1), 0.3)
    out = renoise_jump(x, 4, 0, np.ones_like(x) * 99.0, s)
    assert np.allclose(out, x, atol=1e-15)


def test_renoise_jump_marginal_monte_carlo(rng):
    # marginal preservation: diffuse to t, jump to t+l; mean/variance of the
    # result match the direct t+l marginal (scalar, 1e4 draws, 3-sigma)
    s = build_schedule(40)
    t, l, x0 = 10, 15, 0.7
    n = 10_000
    xt = forward_diffuse(np.full(n, x0), t, rng.standard_normal(n), s)
    xtl = renoise_jump(xt, t, l, rng.standard_normal(n), s)
    mean_band = 3.0 * s.sigma[t + l] / np.sqrt(n)
    var_band = 3.0 * np.sqrt(2.0 / n) * s.sigma[t + l] ** 2
    assert abs(xtl.mean() - s.a[t + l] * x0) <= mean_band
    assert abs(xtl.var() - s.sigma[t + l] ** 2) <= var_band


def test_travel_plan_validation():
    # the block length and traversal count are SamplerConfig's fields
    with pytest.raises(ValueError, match="travel-l must be >= 1, got 0"):
        SamplerConfig(travel_l=0, travel_r=1)
    with pytest.raises(ValueError, match="travel-r must be >= 1, got 0"):
        SamplerConfig(travel_l=1, travel_r=0)


@st.composite
def walks(draw):
    T = draw(st.integers(1, 120))
    return T, draw(st.integers(1, T + 2)), draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(walks())
@example((7, 3, 2))
@example((1, 1, 1))
@example((10, 10, 3))
def test_travel_steps_walk(plan):
    T, l, r = plan
    walk = list(travel_steps(T, l, r))
    # block k holds the steps t with (T - t) // l == k
    blocks = [[t for t in range(T, 0, -1) if (T - t) // l == k]
              for k in range(math.ceil(T / l))]
    traversals = [(block, rep) for block in blocks for rep in range(r)]
    assert [t for t, _ in walk] == [t for block, _ in traversals
                                    for t in block]
    # a jump closes every traversal of a block but its final one, and
    # re-noises by the block's length
    assert [jump for _, jump in walk] == [
        len(block) if i == len(block) - 1 and rep < r - 1 else 0
        for block, rep in traversals for i in range(len(block))]
    assert walk[-1] == (1, 0) and walk.count((1, 0)) == 1
    cfg = SamplerConfig(T=T, travel_l=l, travel_r=r)
    assert noise_draws(cfg) == r * T + (r - 1) * math.ceil(T / l)


def test_travel_steps_ragged_blocks():
    # blocks (7, 6, 5), (4, 3, 2), (1,), each walked twice
    assert list(travel_steps(7, 3, 2)) == [
        (7, 0), (6, 0), (5, 3), (7, 0), (6, 0), (5, 0),
        (4, 0), (3, 0), (2, 3), (4, 0), (3, 0), (2, 0),
        (1, 1), (1, 0)]
