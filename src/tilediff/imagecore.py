"""Images in model range [-1, 1], tile windows, and PPM/PGM file I/O.

Pixel data is float64 of shape (height, width, channels) with channels 1 or 3.
Files are binary PGM (P5) for single-channel and PPM (P6) for 3-channel
images, maxval 255. The 8-bit code k maps to the model value 2k/255 - 1, so
a save/load cycle is exactly the quantizer and nothing else.

Work over a whole canvas goes in row bands of at least BAND_ROWS rows
(`row_bands`), so that it builds no second full-size array: the
quantizer and the finiteness check here, and the run's residual metrics in
`cli` and `hir`.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np


BAND_ROWS = 16


class CodecError(ValueError):
    """Malformed or unsupported PPM/PGM data."""


def row_bands(height: int, block: int = 1):
    """Slices of consecutive row bands covering range(height), each the
    smallest multiple of block that holds BAND_ROWS rows (the last may be
    shorter; it is still a multiple of block when height is)."""
    step = block * -(-BAND_ROWS // block)
    for top in range(0, height, step):
        yield slice(top, min(top + step, height))


@dataclasses.dataclass(frozen=True)
class Window:
    """A rectangle fully contained in some parent image."""

    top: int
    left: int
    height: int
    width: int

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueError(f"window dims must be positive, got {self}")
        if self.top < 0 or self.left < 0:
            raise ValueError(f"window origin must be non-negative, got {self}")

    def slices(self):
        return (slice(self.top, self.top + self.height),
                slice(self.left, self.left + self.width))


@dataclasses.dataclass(frozen=True)
class Image:
    """Immutable raster; data is read-only float64 (H, W, C), C in {1, 3}.

    An (H, W, C) float64 array that owns its data and is already read-only
    is kept as it is, so a frozen canvas is saved without a copy; any other
    input is copied and the copy frozen.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError(f"image data must be HxWxC, got shape {arr.shape}")
        if arr.shape[2] not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {arr.shape[2]}")
        # band by band, so the check builds no full-size boolean
        if not all(np.isfinite(arr[ys]).all()
                   for ys in row_bands(arr.shape[0])):
            raise ValueError("image data contains NaN or Inf")
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def quantize(img: Image) -> np.ndarray:
    """Clamp to [-1, 1] and map to 8-bit codes; only the codec clamps.

    Each row band is clipped, shifted, scaled and rounded in one band-sized
    buffer and written into the code array: the same operations in the same
    order as on the whole image, so the same codes.
    """
    codes = np.empty(img.data.shape, dtype=np.uint8)
    for ys in row_bands(img.height):
        v = np.clip(img.data[ys], -1.0, 1.0)
        v += 1.0
        v *= 255.0 / 2.0
        codes[ys] = np.rint(v, out=v)
    return codes


def dequantize(codes: np.ndarray) -> Image:
    """Codes to model values, scaled and shifted in place in the one float
    array the Image then keeps."""
    data = codes.astype(np.float64)
    data *= 2.0 / 255.0
    data -= 1.0
    data.flags.writeable = False
    return Image(data)


def save_image(path: str | os.PathLike, img: Image) -> None:
    """Write binary PGM (1 channel) or PPM (3 channels), maxval 255."""
    codes = quantize(img)
    magic = b"P5" if img.channels == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
        f.write(codes.data)


def _read_number(f) -> int:
    """The next header token, a number of ASCII digits; a `#` comment runs
    to the end of its line and separates tokens like whitespace does. No
    file holds a size of more than 20 digits, which also bounds the read."""
    tok = b""
    while True:
        c = f.read(1)
        if c == b"#":
            f.readline()
            c = b"\n"
        if c == b"":
            raise CodecError("unexpected end of header")
        if c.isspace():
            if tok:
                return int(tok)
            continue
        if not c.isdigit() or len(tok) == 20:
            raise CodecError(f"malformed header: {tok + c!r} is not a number")
        tok += c


def load_image(path: str | os.PathLike) -> Image:
    """Read a binary PGM/PPM file written by save_image (or compatible)."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic == b"P5":
            channels = 1
        elif magic == b"P6":
            channels = 3
        else:
            raise CodecError(f"unsupported magic {magic!r}")
        width = _read_number(f)
        height = _read_number(f)
        maxval = _read_number(f)
        if maxval != 255:
            raise CodecError(f"unsupported maxval {maxval}, expected 255")
        if width <= 0 or height <= 0:
            raise CodecError(f"bad dimensions {width}x{height}")
        n = width * height * channels
        # a size the file cannot hold is never passed to read()
        left = os.fstat(f.fileno()).st_size - f.tell()
        if n > left:
            raise CodecError(
                f"truncated payload: expected {n} bytes, file has {left}")
        payload = f.read(n)
        if len(payload) != n:
            raise CodecError(
                f"truncated payload: expected {n} bytes, got {len(payload)}")
    codes = np.frombuffer(payload, dtype=np.uint8).reshape(
        height, width, channels)
    return dequantize(codes)
