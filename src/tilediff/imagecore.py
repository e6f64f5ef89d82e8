"""Images in model range [-1, 1], tile windows, and PPM/PGM file I/O.

Pixel data is float64 of shape (height, width, channels) with channels 1 or 3.
Files are binary PGM (P5) for single-channel and PPM (P6) for 3-channel
images, maxval 255. The 8-bit code k maps to the model value 2k/255 - 1, so
a write/load cycle is exactly the quantizer and nothing else.

Rows flow through in bands, so that no full-size float array is needed
for a file. `pnm_writer`, the one writer, writes a file band by band:
each band of model values is checked finite, quantized and its codes
appended after the header, into a part file renamed into place once the
last row is written. `read_codes` maps a file's payload as uint8 codes (a
memmap, one byte per sample and off the heap; `load_image` is all of it
dequantized), and `CodeReader` converts only the window a caller indexes,
so a canvas-size input is dequantized (or thresholded) one tile at a time. Work
over a whole in-memory image goes in row bands of BAND_ROWS rows
(`row_bands`): the quantizer and the finiteness check here, and the scans
of a mask's codes. Every conversion is elementwise, so each value is
bitwise the one the whole-array form gives.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import numpy as np


BAND_ROWS = 16


class CodecError(ValueError):
    """Malformed or unsupported PPM/PGM data."""


def row_bands(height: int):
    """Consecutive slices of BAND_ROWS rows (the last may have fewer)."""
    for top in range(0, height, BAND_ROWS):
        yield slice(top, min(top + BAND_ROWS, height))


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
    is kept as it is, so a frozen canvas is wrapped without a copy; any
    other input is copied and the copy frozen.
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


def _codes(rows: np.ndarray) -> np.ndarray:
    """Clamp to [-1, 1] and map to 8-bit codes: clipped, shifted, scaled
    and rounded in one float buffer of the rows' size."""
    v = np.clip(rows, -1.0, 1.0)
    v += 1.0
    v *= 255.0 / 2.0
    return np.rint(v, out=v).astype(np.uint8)


def quantize(img: Image) -> np.ndarray:
    """Clamp to [-1, 1] and map to 8-bit codes; only the codec clamps.

    Each row band is quantized on its own: the same operations in the same
    order as on the whole image, so the same codes.
    """
    codes = np.empty(img.data.shape, dtype=np.uint8)
    for ys in row_bands(img.height):
        codes[ys] = _codes(img.data[ys])
    return codes


def model_values(codes: np.ndarray) -> np.ndarray:
    """Codes to model values 2k/255 - 1, as a new float64 array."""
    data = codes.astype(np.float64)
    data *= 2.0 / 255.0
    data -= 1.0
    return data


class CodeReader:
    """8-bit codes read through a conversion: reader[key] is
    convert(codes[key]), by default `model_values`.

    The conversion is elementwise, so any window's values are bitwise
    those of converting the whole array, which np.asarray(reader) does.
    codes may be a memmap of a file's payload (`read_codes`): a task then
    holds a canvas-size input as one byte per sample and converts one
    window at a time.
    """

    def __init__(self, codes: np.ndarray, convert=model_values):
        self.codes = codes
        self.shape = codes.shape
        self.convert = convert

    def __getitem__(self, key) -> np.ndarray:
        return self.convert(self.codes[key])

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[...], dtype=dtype)


@contextlib.contextmanager
def pnm_writer(path: str | os.PathLike, height: int, width: int,
               channels: int):
    """A binary PGM (1 channel) or PPM (3 channels) file, maxval 255,
    written band by band.

    The block gets write(rows), which quantizes a band of model values,
    appends its codes after the header and returns them. A band must be
    (n, width, channels) with n at most the rows still owed, and finite;
    any other raises ValueError before a byte of it is written. The bytes
    go to `path + ".part"`, renamed onto path when the block ends with
    every row written; otherwise the part file is removed, so path never
    holds a partial image.
    """
    part = os.fspath(path) + ".part"
    left = height

    def write(rows: np.ndarray) -> np.ndarray:
        nonlocal left
        if rows.shape[1:] != (width, channels) or len(rows) > left:
            raise ValueError(
                f"band of shape {rows.shape} does not fit the {left} rows "
                f"of {width} x {channels} the header still owes")
        if not np.isfinite(rows).all():
            raise ValueError("image data contains NaN or Inf")
        codes = _codes(rows)
        f.write(codes.data)
        left -= len(rows)
        return codes

    try:
        with open(part, "wb") as f:
            f.write((b"P5" if channels == 1 else b"P6")
                    + b"\n%d %d\n255\n" % (width, height))
            yield write
        if left:
            raise ValueError(f"{left} rows short of the header")
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


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


def _read_header(f) -> tuple[int, int, int]:
    """(height, width, channels) from the header of an open binary PGM/PPM
    file, leaving f at the payload, which the file is checked to hold."""
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
    # a size the file cannot hold is never read or mapped
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise CodecError(
            f"truncated payload: expected {n} bytes, file has {left}")
    return height, width, channels


def read_codes(path: str | os.PathLike) -> np.ndarray:
    """The payload of a binary PGM/PPM file (as pnm_writer writes) as a
    read-only (height, width, channels) uint8 array mapped from the file,
    so that only the pages a caller reads are loaded."""
    with open(path, "rb") as f:
        shape = _read_header(f)
        # a plain ndarray view of the map: slicing it makes no memmap
        return np.memmap(f, dtype=np.uint8, mode="r", offset=f.tell(),
                         shape=shape).view(np.ndarray)


def load_image(path: str | os.PathLike) -> Image:
    """Read a binary PGM/PPM file written by pnm_writer (or compatible)
    as a read-only Image of its model values."""
    data = model_values(read_codes(path))
    data.flags.writeable = False
    return Image(data)
