import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilediff import imagecore, linops

from oracles import dense_matrix
from test_sampler import small_operators


def random_ops(rng, shape=(8, 8, 3)):
    return [
        linops.AvgPool(shape, 2),
        linops.AvgPool(shape, 4),
        linops.Mask(rng.random(shape) < 0.5),
        linops.Gray(shape),
        linops.Identity(shape),
    ]


def test_avgpool_block_mean():
    x = np.array([[0.2, 0.4], [0.6, 0.8]]).reshape(2, 2, 1)
    op = linops.AvgPool((2, 2, 1), 2)
    assert op.forward(x) == pytest.approx(0.5)


def test_avgpool_pinv_replicates():
    op = linops.AvgPool((2, 2, 1), 2)
    up = op.pinv(np.full((1, 1, 1), 0.5))
    assert np.array_equal(up, np.full((2, 2, 1), 0.5))


def test_avgpool_right_inverse(rng):
    op = linops.AvgPool((8, 8, 3), 2)
    y = rng.standard_normal(op.output_shape)
    assert np.allclose(op.forward(op.pinv(y)), y, atol=1e-12)


def test_avgpool_rejects_nondivisible():
    with pytest.raises(ValueError):
        linops.AvgPool((6, 6, 1), 4)


def test_avgpool_forward_rejects_a_wrong_shape(rng):
    # transposed canvas dims: the same element count, so a reshape alone
    # would return wrong block means instead of failing
    op = linops.AvgPool((64, 32, 3), 2)
    with pytest.raises(ValueError, match=r"\(32, 64, 3\)"):
        op.forward(rng.standard_normal((32, 64, 3)))


def test_avgpool_add_pinv_rejects_a_wrong_shape(rng):
    op = linops.AvgPool((64, 32, 3), 2)
    r = rng.standard_normal(op.output_shape)
    for bad in ((32, 64, 3), (64, 32, 1)):
        with pytest.raises(ValueError, match=r"!= \(64, 32, 3\)"):
            op.add_pinv(rng.standard_normal(bad), r)


def test_mask_all_known_is_identity(rng):
    x = rng.standard_normal((4, 4, 3))
    op = linops.Mask(np.ones((4, 4, 3), dtype=bool))
    assert np.array_equal(op.pinv(op.forward(x)), x)


def test_mask_all_missing():
    op = linops.Mask(np.zeros((4, 4, 1), dtype=bool))
    assert op.forward(np.ones((4, 4, 1))).size == 0
    assert np.array_equal(op.pinv(np.zeros((0,))), np.zeros((4, 4, 1)))


def test_mask_checkerboard_per_pixel(rng):
    known = (np.indices((4, 4)).sum(axis=0) % 2 == 0)
    op = linops.Mask(known, channels=3)
    x = rng.standard_normal((4, 4, 3))
    out = op.pinv(op.forward(x))
    # per-pixel oracle: known pixels kept, missing pixels zero
    for i in range(4):
        for j in range(4):
            expect = x[i, j] if known[i, j] else 0.0
            assert np.array_equal(out[i, j], np.broadcast_to(expect, (3,)))


def test_mask_rejects_soft_values():
    with pytest.raises(ValueError):
        linops.Mask(np.full((2, 2, 1), 0.5))


def test_gray_mean_and_replication():
    x = np.array([0.3, 0.6, 0.9]).reshape(1, 1, 3)
    op = linops.Gray((1, 1, 3))
    assert op.forward(x)[0, 0, 0] == pytest.approx(0.6)
    assert np.allclose(op.pinv(np.full((1, 1, 1), 0.6)),
                       np.full((1, 1, 3), 0.6))


def test_gray_forward_rejects_a_wrong_shape(rng):
    op = linops.Gray((64, 32, 3))
    with pytest.raises(ValueError, match=r"\(32, 64, 3\)"):
        op.forward(rng.standard_normal((32, 64, 3)))


def test_gray_rejects_single_channel():
    with pytest.raises(ValueError):
        linops.Gray((4, 4, 1))


def test_identity_props(rng):
    op = linops.Identity((4, 4, 3))
    x = rng.standard_normal((4, 4, 3))
    assert np.array_equal(op.forward(x), x)
    assert np.array_equal(op.pinv(x), x)
    assert op.sing_value == 1.0
    assert math.prod(op.output_shape) == math.prod(op.input_shape) == 48


def test_pseudo_inverse_identities(rng):
    for op in random_ops(rng):
        for _ in range(100):
            x = rng.standard_normal(op.input_shape)
            ax = op.forward(x)
            # A pinv(A) A = A
            assert np.abs(op.forward(op.pinv(ax)) - ax).max() <= 1e-10
            # pinv(A) A is idempotent
            px = op.range_project(x)
            assert np.abs(op.range_project(px) - px).max() <= 1e-10
        # pinv(A) A pinv(A) = pinv(A), surjectivity: A pinv(A) = I
        y = rng.standard_normal(op.output_shape)
        assert np.abs(op.pinv(op.forward(op.pinv(y))) - op.pinv(y)).max() \
            <= 1e-10
        assert np.abs(op.forward(op.pinv(y)) - y).max() <= 1e-10


@settings(max_examples=150, deadline=None)
@given(op=small_operators(), seed=st.integers(0, 2**32 - 1))
def test_operator_identities_on_random_shapes(op, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.input_shape)
    y = rng.standard_normal(op.output_shape)
    # A pinv(A) y = y; a Mask with nothing known measures nothing
    assert np.max(np.abs(op.forward(op.pinv(y)) - y), initial=0.0) <= 1e-10
    # the range projector pinv(A) A is idempotent ...
    px = op.range_project(x)
    assert np.abs(op.range_project(px) - px).max() <= 1e-10
    # ... and equals pinv(M) M for the operator's dense matrix M
    m = dense_matrix(op)
    want = np.linalg.pinv(m) @ (m @ x.ravel())
    assert np.abs(px.ravel() - want).max() <= 1e-10


def test_forward_is_linear(rng):
    for op in random_ops(rng):
        x, z = (rng.standard_normal(op.input_shape) for _ in range(2))
        a, b = rng.standard_normal(2)
        lhs = op.forward(a * x + b * z)
        rhs = a * op.forward(x) + b * op.forward(z)
        assert np.abs(lhs - rhs).max() <= 1e-10


def dense_pinv_scaled(op, residual, f):
    """Dense-SVD oracle: V diag(f(s_i)) pinv(S) U^T residual."""
    a = dense_matrix(op)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-12
    u, s, vt = u[:, keep], s[keep], vt[keep]
    coeff = np.array([f(si) / si for si in s])
    return (vt.T @ (coeff * (u.T @ residual.ravel()))).reshape(op.input_shape)


@pytest.mark.parametrize("f", [lambda s: 1.0, lambda s: s,
                               lambda s: 1.0 / (1.0 + s * s)])
def test_pinv_scaled_matches_dense_svd(rng, f):
    # one shared singular value: V diag(f(s_i)) pinv(S) U^T = f(s) pinv
    shapes_ops = [
        linops.AvgPool((8, 8, 1), 2),   # D = 64, the spec's 8x8 instance
        linops.Gray((4, 4, 3)),         # D = 48
        linops.Mask(rng.random((8, 8, 1)) < 0.6),
        linops.Identity((4, 4, 3)),
    ]
    for op in shapes_ops:
        r = rng.standard_normal(op.output_shape)
        got = f(op.sing_value) * op.pinv(r)
        want = dense_pinv_scaled(op, r, f)
        assert np.abs(got - want).max() <= 1e-8


def test_dense_matrix_matches_forward(rng):
    op = linops.Gray((3, 3, 3))
    a = dense_matrix(op)
    x = rng.standard_normal(op.input_shape)
    assert np.allclose(a @ x.ravel(), op.forward(x).ravel(), atol=1e-12)


def test_dense_matrix_size_guard():
    op = linops.Identity((64, 64, 3))
    with pytest.raises(ValueError):
        dense_matrix(op)


def test_load_mask_roundtrip(tmp_path, rng):
    known = rng.random((6, 6)) < 0.5
    img = imagecore.Image(np.where(known, 1.0, -1.0)[:, :, None])
    path = tmp_path / "mask.pgm"
    imagecore.save_image(path, img)
    mask = linops.load_mask(path)
    # a reader: any window indexes to its known booleans, np.asarray
    # gives the whole (H, W) array
    assert mask.shape == known.shape
    window = mask[1:4, 2:6]
    assert window.dtype == bool and np.array_equal(window, known[1:4, 2:6])
    whole = np.asarray(mask)
    assert whole.dtype == bool and np.array_equal(whole, known)


def test_load_mask_rejects_gray(tmp_path):
    img = imagecore.Image(np.full((2, 2, 1), 0.0))
    path = tmp_path / "gray.pgm"
    imagecore.save_image(path, img)
    with pytest.raises(ValueError):
        linops.load_mask(path)
