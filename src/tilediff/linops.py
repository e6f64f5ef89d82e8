"""Degradation operators A with explicit pseudo-inverses and spectra.

Every operator here is surjective with a single singular value s shared by
all measurement modes (null-space modes have s = 0). That makes the
SVD-based rescaling V diag(f(s_i)) pinv(S) U^T reduce to f(s) * pinv(r),
so the noisy-path coefficients are one scalar per step and no SVD is ever
materialized.
The operators are immutable. forward, pinv and range_project are pure;
add_pinv and project write into `out` when it is given, and only there.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import imagecore


class LinearOperator:
    """Matrix-free linear degradation with pseudo-inverse and spectrum.

    input_shape is the image shape (H, W, C); output_shape is the
    measurement shape. sing_value is the singular value shared by all
    measurement modes.
    """

    input_shape: tuple
    output_shape: tuple
    sing_value: float

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _checked(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.input_shape:
            raise ValueError(f"shape {x.shape} != {self.input_shape}")
        return x

    def pinv(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def range_project(self, x: np.ndarray) -> np.ndarray:
        """Apply the range projector pinv(A) A."""
        return self.pinv(self.forward(x))

    def add_pinv(self, x: np.ndarray, r: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """x + pinv(r), written into out when given (out may be x)."""
        return np.add(x, self.pinv(r), out=out)

    def project(self, y: np.ndarray, x0t: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """pinv(A) y + (I - pinv(A) A) x0t, the measurement-consistent
        point nearest x0t; written into out when given (out may be x0t)."""
        # grouped so that where the projector keeps a pixel whole
        # (Identity) the result is y exactly; A x0t is taken before out
        # may overwrite x0t
        diff = np.subtract(x0t, self.range_project(x0t), out=out)
        return np.add(self.pinv(y), diff, out=diff)


@functools.cache
def _block_matrices(p: int, c: int):
    """[I_c; ...; I_c] (p*c x c) and its transpose, contiguous for BLAS;
    read-only, as every AvgPool of that (p, c) shares them."""
    tall = np.tile(np.eye(c), (p, 1))
    wide = tall.T.copy()
    tall.flags.writeable = wide.flags.writeable = False
    return tall, wide


class AvgPool(LinearOperator):
    """p x p block mean per channel; pseudo-inverse is replication."""

    def __init__(self, input_shape, p: int):
        h, w, c = input_shape
        if p < 1:
            raise ValueError(f"block size must be >= 1, got {p}")
        if h % p or w % p:
            raise ValueError(f"dims {h}x{w} not divisible by block size {p}")
        self.input_shape = (h, w, c)
        self.output_shape = (h // p, w // p, c)
        self.p = p
        self.sing_value = 1.0 / p
        self._sum, self._spread = _block_matrices(p, c)

    def forward(self, x):
        # Sum the p rows of each block, then its p columns per channel by
        # the 0/1 product, not p slice adds that loop over only c elements.
        # The BLAS orders that sum: within an ulp of the exact block mean.
        (h, w, c), p = self.input_shape, self.p
        rows = self._checked(x).reshape(h // p, p, w * c).sum(axis=1)
        out = (rows.reshape(-1, p * c) @ self._sum).reshape(self.output_shape)
        out *= 1.0 / (p * p)
        return out

    def pinv(self, y):
        return np.repeat(np.repeat(y, self.p, axis=0), self.p, axis=1)

    def add_pinv(self, x, r, out=None):
        # Repeat r p times along the width by the transposed 0/1 product
        # (exact, but a -0.0 may turn +0.0 and an inf makes its pixel NaN)
        # and broadcast the add over each block's p rows, into out by a view.
        (h, w, c), p = self.input_shape, self.p
        rows = self._checked(x).reshape(h // p, p, w, c)
        wide = (r.reshape(-1, c) @ self._spread).reshape(h // p, 1, w, c)
        out = np.empty(self.input_shape) if out is None else out
        np.add(rows, wide, out=out.reshape(rows.shape))
        return out


class Mask(LinearOperator):
    """Selects known pixels; pseudo-inverse scatters, zeros elsewhere."""

    def __init__(self, known: np.ndarray, channels: int | None = None):
        known = np.asarray(known)
        if known.dtype != bool:
            uniq = np.unique(known)
            if not np.all(np.isin(uniq, (0, 1))):
                raise ValueError("mask must be binary (0 or 1)")
            known = known.astype(bool)
        if known.ndim == 2:
            if channels is None:
                raise ValueError("2-D mask needs an explicit channel count")
            known = np.repeat(known[:, :, None], channels, axis=2)
        if known.ndim != 3:
            raise ValueError(f"mask must be HxW or HxWxC, got {known.shape}")
        known = known.copy()
        known.flags.writeable = False
        self.known = known
        self.input_shape = known.shape
        self.output_shape = (int(known.sum()),)
        self.sing_value = 1.0

    def forward(self, x):
        return self._checked(x)[self.known]

    def pinv(self, y):
        out = np.zeros(self.input_shape)
        out[self.known] = y
        return out

    def project(self, y, x0t, out=None):
        # One scatter of y over x0t, in place when out is x0t. The grouped
        # base form can differ only in the sign of a zero: it turns a -0.0
        # in y, or in x0t at an unknown pixel, into +0.0. It also makes a
        # non-finite x0t at a known pixel NaN, where this writes y.
        if out is None:
            out = x0t.copy()
        elif out is not x0t:
            out[...] = x0t
        if y.size:
            # skipped when nothing is measured (generation): an empty
            # scatter still walks the whole mask
            out[self.known] = y
        return out


class Gray(LinearOperator):
    """Per-pixel channel mean; pseudo-inverse replicates to all channels."""

    def __init__(self, input_shape):
        h, w, c = input_shape
        if c != 3:
            raise ValueError(f"grayscale operator needs 3 channels, got {c}")
        self.input_shape = (h, w, 3)
        self.output_shape = (h, w, 1)
        self.sing_value = 1.0 / math.sqrt(3.0)

    def forward(self, x):
        return self._checked(x).mean(axis=2, keepdims=True)

    def pinv(self, y):
        return np.repeat(y, 3, axis=2)


class Identity(LinearOperator):
    """A = I; every mode has s = 1."""

    def __init__(self, input_shape):
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.sing_value = 1.0

    def forward(self, x):
        return x

    def pinv(self, y):
        return y


def load_mask(path) -> imagecore.CodeReader:
    """Read a binary mask from PGM: 0 = missing, 255 = known.

    Any intermediate gray level is an input error; the codes are checked
    band by band. The mask stays 8-bit codes on disk: the reader returned
    gives the known booleans of whatever window is indexed, and
    np.asarray of it the whole (H, W) boolean array.
    """
    codes = imagecore.read_codes(path)
    if codes.shape[2] != 1:
        raise ValueError("mask file must be single-channel PGM")
    codes = codes[:, :, 0]
    for ys in imagecore.row_bands(codes.shape[0]):
        band = codes[ys]
        if not np.logical_or(band == 0, band == 255).all():
            raise ValueError(
                "mask contains intermediate values; only 0/255 allowed")
    return imagecore.CodeReader(codes, lambda band: band == 255)
