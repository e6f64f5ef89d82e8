"""Restoration tasks: how a global measurement restricts to a tile and how
it reduces for the coarse phase of hierarchical restoration.

A task knows the full result shape, the alignment granularity its operator
imposes on tile coordinates (block), and can build the per-tile inverse
problem for any aligned window. Tile measurements are exact restrictions of
the global measurement, so a tile-aligned assembly stays globally consistent,
and `consistency` measures a finished row band through the same tile problem.

Every task's input (the low-resolution image of super-resolution, the
observed image and mask of inpainting, the image of denoising and
colorization) may be an `imagecore.CodeReader` over a file's codes: a task
then reads one window at a time, and so does the task `reduce` makes (SR's
reads the same input; the others pool only the window they read), so no
input is held as floats whole, pooled or not.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import linops
from .imagecore import CodeReader, Window, row_bands


def _values(a, dtype=np.float64):
    """a itself if it converts window by window (a CodeReader or a
    _Pooled), else np.asarray(a, dtype)."""
    return a if isinstance(a, (CodeReader, _Pooled)) else np.asarray(a, dtype)


def _check_rank3(a, what: str):
    if len(a.shape) != 3:
        raise ValueError(f"{what} must be (H, W, C), got shape {a.shape}")


class _Pooled:
    """reduce(., axis=(1, 3)) over the f x f blocks of src (H, W[, C]),
    one window at a time: reader[ys, xs, ...] reads and reduces src's
    f-times window only, and np.asarray(reader) pools src whole."""

    def __init__(self, src, f: int, reduce):
        self.src, self.f, self.reduce = src, f, reduce
        self.shape = (src.shape[0] // f, src.shape[1] // f, *src.shape[2:])

    def __getitem__(self, key):
        f = self.f
        ys, xs = (range(n)[k] for n, k in zip(self.shape, key[:2]))
        band = self.src[ys.start * f:ys.stop * f, xs.start * f:xs.stop * f]
        blocks = band.reshape(len(ys), f, len(xs), f, *band.shape[2:])
        return self.reduce(blocks, axis=(1, 3))[(slice(None),) * 2 + key[2:]]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:, :], dtype=dtype)


def check_sr_hierarchy(scale: int, f: int):
    """The coarse phase of SR at `scale` with hierarchy factor f is SR at
    scale // f, so f must divide scale."""
    if scale % f:
        raise ValueError(f"hierarchy factor {f} must divide SR scale {scale}")


def consistency(task: Task, rows: np.ndarray, top: int = 0) -> float:
    """max |A rows - y| of the task's measurement over the canvas rows
    [top, top + len(rows)), 0.0 where nothing is measured there.

    The band's own (operator, measurement) is the window's tile problem;
    top and the band's height are multiples of task.block, so every
    residual element is the one the full-size operator gives.
    """
    op, y = task.tile_problem(Window(top, 0, len(rows), task.shape[1]))
    return float(np.abs(op.forward(rows) - y).max(initial=0.0))


class Task:
    shape: tuple  # (H, W, C) of the full result
    block: int = 1  # tile coordinates must be multiples of this

    def tile_problem(self, win: Window):
        """Return (operator, measurement) for the given window."""
        raise NotImplementedError

    def reduce(self, f: int) -> "Task":
        """The same task at 1/f size (f >= 2), for the coarse phase."""
        raise NotImplementedError

    def _slices(self, win: Window):
        """win.slices(), once win is checked to lie on the canvas."""
        h, w, _ = self.shape
        if win.top + win.height > h or win.left + win.width > w:
            raise ValueError(f"window {win} leaves the {h}x{w} canvas")
        return win.slices()

    def _check_divisible(self, f: int):
        if f < 2:
            raise ValueError(f"hierarchy factor must be >= 2, got {f}")
        h, w, _ = self.shape
        if h % f or w % f:
            raise ValueError(f"result dims {h}x{w} not divisible by {f}")


class SuperResolutionTask(Task):
    """Upscale a low-resolution image by an integer factor via average-pool
    consistency. scale 1 degenerates to exact reproduction of the input.
    y_lr may be a CodeReader; a tile problem converts only its window."""

    def __init__(self, y_lr: np.ndarray, scale: int):
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.y = _values(y_lr)
        _check_rank3(self.y, "SR input")
        h, w, c = self.y.shape
        self.scale = scale
        self.shape = (h * scale, w * scale, c)
        self.block = scale

    def tile_problem(self, win: Window):
        p = self.scale
        if win.top % p or win.left % p or win.height % p or win.width % p:
            raise ValueError(f"window {win} not aligned to scale {p}")
        ys, xs = self._slices(win)
        op = linops.AvgPool((win.height, win.width, self.shape[2]), p)
        y = self.y[ys.start // p:ys.stop // p, xs.start // p:xs.stop // p, :]
        return op, y

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        check_sr_hierarchy(self.scale, f)
        return SuperResolutionTask(self.y, self.scale // f)


class InpaintTask(Task):
    """Fill missing pixels; observed carries valid data where known."""

    def __init__(self, observed: np.ndarray, known: np.ndarray):
        self.observed = _values(observed)
        _check_rank3(self.observed, "inpainting input")
        known = _values(known, dtype=bool)
        if known.shape != self.observed.shape[:2]:
            raise ValueError("mask dims must match image dims")
        self.known = known
        self.shape = self.observed.shape

    def tile_problem(self, win: Window):
        ys, xs = self._slices(win)
        op = linops.Mask(self.known[ys, xs], channels=self.shape[2])
        y = op.forward(self.observed[ys, xs, :])
        return op, y

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        # a reduced pixel is known only if its whole f x f footprint is known
        known_r = _Pooled(self.known, f, np.all)
        if not any(known_r[ys, :].any() for ys in row_bands(known_r.shape[0])):
            warnings.warn("reduced inpainting mask has no known pixels; "
                          "coarse phase degenerates to generation")
        return InpaintTask(_Pooled(self.observed, f, np.mean), known_r)


class ColorizeTask(Task):
    """Recover 3 channels from their per-pixel mean."""

    def __init__(self, gray: np.ndarray):
        gray = _values(gray)
        if len(gray.shape) == 2:
            gray = gray[:, :, None]
        if len(gray.shape) != 3 or gray.shape[2] != 1:
            raise ValueError("colorization input must be (H, W) or "
                             f"(H, W, 1), got shape {gray.shape}")
        self.gray = gray
        self.shape = (gray.shape[0], gray.shape[1], 3)

    def tile_problem(self, win: Window):
        ys, xs = self._slices(win)
        op = linops.Gray((win.height, win.width, 3))
        return op, self.gray[ys, xs, :]

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        return ColorizeTask(_Pooled(self.gray, f, np.mean))


class DenoiseTask(Task):
    """A = I; restoration is driven purely by the noisy measurement path."""

    def __init__(self, observed: np.ndarray):
        self.observed = _values(observed)
        _check_rank3(self.observed, "denoising input")
        self.shape = self.observed.shape

    def tile_problem(self, win: Window):
        ys, xs = self._slices(win)
        op = linops.Identity((win.height, win.width, self.shape[2]))
        return op, self.observed[ys, xs, :]

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        return DenoiseTask(_Pooled(self.observed, f, np.mean))


class GenerateTask(Task):
    """Empty measurement; the prior supplies everything."""

    def __init__(self, height: int, width: int, channels: int = 3):
        self.shape = (height, width, channels)

    def tile_problem(self, win: Window):
        self._slices(win)  # the window must lie on the canvas
        known = np.zeros((win.height, win.width), dtype=bool)
        op = linops.Mask(known, channels=self.shape[2])
        return op, np.zeros((0,))

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        h, w, c = self.shape
        return GenerateTask(h // f, w // f, c)
