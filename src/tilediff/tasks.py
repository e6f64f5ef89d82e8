"""Restoration tasks: how a global measurement restricts to a tile and how
it reduces for the coarse phase of hierarchical restoration.

A task knows the full result shape, the alignment granularity its operator
imposes on tile coordinates (block), and can build the per-tile inverse
problem for any aligned window. Tile measurements are exact restrictions of
the global measurement, so a tile-aligned assembly stays globally consistent.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import linops
from .imagecore import Window


def check_sr_hierarchy(scale: int, f: int):
    """The coarse phase of SR at `scale` with hierarchy factor f is SR at
    scale // f, so f must divide scale."""
    if scale % f:
        raise ValueError(f"hierarchy factor {f} must divide SR scale {scale}")


class Task:
    shape: tuple  # (H, W, C) of the full result
    block: int = 1  # tile coordinates must be multiples of this

    def tile_problem(self, win: Window):
        """Return (operator, measurement) for the given window."""
        raise NotImplementedError

    def reduce(self, f: int) -> "Task":
        """The same task at 1/f size (f >= 2), for the coarse phase."""
        raise NotImplementedError

    def _check_divisible(self, f: int):
        if f < 2:
            raise ValueError(f"hierarchy factor must be >= 2, got {f}")
        h, w, _ = self.shape
        if h % f or w % f:
            raise ValueError(f"result dims {h}x{w} not divisible by {f}")


class SuperResolutionTask(Task):
    """Upscale a low-resolution image by an integer factor via average-pool
    consistency. scale 1 degenerates to exact reproduction of the input."""

    def __init__(self, y_lr: np.ndarray, scale: int):
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.y = np.asarray(y_lr, dtype=np.float64)
        h, w, c = self.y.shape
        self.scale = scale
        self.shape = (h * scale, w * scale, c)
        self.block = scale

    def tile_problem(self, win: Window):
        p = self.scale
        if win.top % p or win.left % p or win.height % p or win.width % p:
            raise ValueError(f"window {win} not aligned to scale {p}")
        op = linops.AvgPool((win.height, win.width, self.shape[2]), p)
        y = self.y[win.top // p:(win.top + win.height) // p,
                   win.left // p:(win.left + win.width) // p, :]
        return op, y

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        check_sr_hierarchy(self.scale, f)
        return SuperResolutionTask(self.y, self.scale // f)


class InpaintTask(Task):
    """Fill missing pixels; observed carries valid data where known."""

    def __init__(self, observed: np.ndarray, known: np.ndarray):
        self.observed = np.asarray(observed, dtype=np.float64)
        known = np.asarray(known, dtype=bool)
        if known.shape != self.observed.shape[:2]:
            raise ValueError("mask dims must match image dims")
        self.known = known
        self.shape = self.observed.shape

    def tile_problem(self, win: Window):
        ys, xs = win.slices()
        op = linops.Mask(self.known[ys, xs], channels=self.shape[2])
        y = op.forward(self.observed[ys, xs, :])
        return op, y

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        h, w, c = self.shape
        # a reduced pixel is known only if its whole f x f footprint is known
        known_r = self.known.reshape(h // f, f, w // f, f).all(axis=(1, 3))
        obs_r = self.observed.reshape(h // f, f, w // f, f, c).mean(
            axis=(1, 3))
        if not known_r.any():
            warnings.warn("reduced inpainting mask has no known pixels; "
                          "coarse phase degenerates to generation")
        return InpaintTask(obs_r, known_r)


class ColorizeTask(Task):
    """Recover 3 channels from their per-pixel mean."""

    def __init__(self, gray: np.ndarray):
        gray = np.asarray(gray, dtype=np.float64)
        if gray.ndim == 2:
            gray = gray[:, :, None]
        if gray.shape[2] != 1:
            raise ValueError("colorization input must be single-channel")
        self.gray = gray
        self.shape = (gray.shape[0], gray.shape[1], 3)

    def tile_problem(self, win: Window):
        ys, xs = win.slices()
        op = linops.Gray((win.height, win.width, 3))
        return op, self.gray[ys, xs, :]

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        h, w, _ = self.gray.shape
        gray_r = self.gray.reshape(h // f, f, w // f, f, 1).mean(axis=(1, 3))
        return ColorizeTask(gray_r)


class DenoiseTask(Task):
    """A = I; restoration is driven purely by the noisy measurement path."""

    def __init__(self, observed: np.ndarray):
        self.observed = np.asarray(observed, dtype=np.float64)
        self.shape = self.observed.shape

    def tile_problem(self, win: Window):
        ys, xs = win.slices()
        op = linops.Identity((win.height, win.width, self.shape[2]))
        return op, self.observed[ys, xs, :]

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        h, w, c = self.shape
        obs_r = self.observed.reshape(h // f, f, w // f, f, c).mean(
            axis=(1, 3))
        return DenoiseTask(obs_r)


class GenerateTask(Task):
    """Empty measurement; the prior supplies everything."""

    def __init__(self, height: int, width: int, channels: int = 3):
        self.shape = (height, width, channels)

    def tile_problem(self, win: Window):
        known = np.zeros((win.height, win.width), dtype=bool)
        op = linops.Mask(known, channels=self.shape[2])
        return op, np.zeros((0,))

    def reduce(self, f: int) -> Task:
        self._check_divisible(f)
        h, w, c = self.shape
        return GenerateTask(h // f, w // f, c)
