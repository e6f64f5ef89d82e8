"""Mask-shift restoration: tile planning over an arbitrary-size canvas and
the per-tile overlap constraint.

Tiles are solved in raster order. Every tile after the first overlaps
already-restored canvas; that region is frozen by a per-step mask hook
(x0bar = A_m xdot + (I - A_m) x0hat), so the committed tile agrees with the
canvas bitwise on its known region and no seam can form.

Rows flow through one tile row at a time. The tiles are written into a
buffer one tile row high (patch x width); once a tile row is done, no
later tile touches the rows above the next tile row's top, so that band
goes to a sink and the rest of the buffer moves up to become the top of
the next tile row. A pass holds O(patch x width) floats, whatever the
canvas height. The default sink copies the bands into a full-size image.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .imagecore import Window
from .sampler import (ConstraintHooks, NoiseProducer, SamplerConfig,
                      noise_draws, run_sampler)
from .tasks import Task


@dataclasses.dataclass(frozen=True)
class TilePlan:
    """Raster-ordered tile windows covering a height x width canvas."""

    windows: tuple
    rows: int
    cols: int
    patch: int
    overlap: int
    height: int
    width: int
    block: int

    @property
    def stride(self) -> int:
        return self.patch - self.overlap

    def grid_index(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.cols)


def _axis_positions(size: int, patch: int, overlap: int, block: int):
    if size < patch:
        raise ValueError(f"canvas extent {size} smaller than patch {patch}")
    if size % block:
        raise ValueError(f"canvas extent {size} not a multiple of block {block}")
    stride = patch - overlap
    positions = list(range(0, size - patch + 1, stride))
    if positions[-1] != size - patch:
        # clamp the last tile to end at the canvas edge (larger overlap)
        positions.append(size - patch)
    return positions


def check_geometry(patch: int, overlap: int, block: int):
    """The tile rules that hold on any canvas: 0 < overlap < patch, and
    patch and overlap multiples of a block >= 1."""
    if not 0 < overlap < patch:
        raise ValueError(f"need 0 < overlap < patch, got {overlap}/{patch}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if patch % block or overlap % block:
        raise ValueError(
            f"patch {patch} and overlap {overlap} must be multiples of "
            f"block {block}")


def plan_tiles(height: int, width: int, patch: int, overlap: int,
               block: int = 1) -> TilePlan:
    """Positions at 0, stride, 2*stride, ..., last clamped to the edge."""
    check_geometry(patch, overlap, block)
    ys = _axis_positions(height, patch, overlap, block)
    xs = _axis_positions(width, patch, overlap, block)
    windows = tuple(Window(top=y, left=x, height=patch, width=patch)
                    for y in ys for x in xs)
    return TilePlan(windows=windows, rows=len(ys), cols=len(xs),
                    patch=patch, overlap=overlap, height=height,
                    width=width, block=block)


def tile_seed(global_seed: int, row: int, col: int) -> int:
    """Stable per-tile seed, independent of tile count."""
    ss = np.random.SeedSequence((global_seed, row, col))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def assemble(shape) -> tuple[np.ndarray, object]:
    """A new full-size image of `shape` and the sink that copies each band
    into it."""
    image = np.empty(shape)

    def sink(top: int, rows: np.ndarray):
        image[top:top + len(rows)] = rows

    return image, sink


def _overlap_rects(windows, idx: int) -> list[tuple[slice, slice]]:
    """The already-restored part of windows[idx] as (row, col) slices of
    the tile: its intersections with the earlier windows of the plan,
    less any that lies inside another (two distinct windows never cut the
    same rectangle)."""
    win = windows[idx]
    rects = []
    for prev in windows[:idx]:
        top = max(win.top, prev.top) - win.top
        left = max(win.left, prev.left) - win.left
        bottom = min(win.top + win.height, prev.top + prev.height) - win.top
        right = min(win.left + win.width, prev.left + prev.width) - win.left
        if top < bottom and left < right:
            rects.append((top, bottom, left, right))

    def inside(a, b):
        return b[0] <= a[0] and a[1] <= b[1] and b[2] <= a[2] and a[3] <= b[3]

    return [(slice(a[0], a[1]), slice(a[2], a[3])) for a in rects
            if not any(b is not a and inside(a, b) for b in rects)]


def _overlap_hook(fixed: np.ndarray, rects):
    """x0 -> x0 with each rectangle of `fixed` written over it, in place.

    Bitwise equal to np.where(known[..., None], fixed, x0) with known the
    union of rects. Overlapping rectangles carry the same values, so their
    order does not matter. The values are copied once per tile, so the
    hook reads nothing of the canvas the tiles are written into.
    """
    frozen = [(ys, xs, fixed[ys, xs].copy()) for ys, xs in rects]

    def hook(x0, t):
        for ys, xs, vals in frozen:
            x0[ys, xs] = vals
        return x0

    return hook


def msr_restore(task: Task, plan: TilePlan, denoiser, cfg: SamplerConfig,
                use_mask_hook: bool = True, pre_hook_factory=None,
                sink=None) -> np.ndarray | None:
    """Solve each tile in raster order, freezing overlap with the canvas.

    use_mask_hook=False gives the naive independent-patch baseline (tiles
    still get distinct seeds, overlap is last-write-wins).
    pre_hook_factory(window) -> hook adds a leading x0|t constraint per tile
    (used by hierarchical restoration).

    sink(top, rows) gets the finished canvas rows [top, top + len(rows)),
    one band per tile row, in order: the bands cover the canvas once, and
    each band's top and height are multiples of plan.block. rows is a view
    of the tile-row buffer, valid until the call returns. Without a sink
    the bands are copied into a new full-size image, which is returned;
    with one, None is returned.
    """
    if plan.block % task.block:
        raise ValueError(
            f"plan block {plan.block} not aligned to task block {task.block}")
    if (plan.height, plan.width) != task.shape[:2]:
        raise ValueError(
            f"plan {plan.height}x{plan.width} does not match task "
            f"shape {task.shape}")
    image = None
    if sink is None:
        image, sink = assemble(task.shape)
    patch = plan.patch
    # canvas rows [tops[row], tops[row] + patch) while that tile row runs
    strip = np.empty((patch, plan.width, task.shape[2]))
    tops = [plan.windows[r * plan.cols].top for r in range(plan.rows)]
    tops.append(plan.height)
    # every tile's noise, in raster order, from one producer
    draws = noise_draws(cfg)
    noise = NoiseProducer(
        [(tile_seed(cfg.seed, *plan.grid_index(idx)), draws)
         for idx in range(len(plan.windows))],
        (patch, patch, task.shape[2]))
    try:
        for idx, win in enumerate(plan.windows):
            op, y = task.tile_problem(win)
            xs = win.slices()[1]
            post = []
            if use_mask_hook:
                rects = _overlap_rects(plan.windows, idx)
                if rects:
                    post.append(_overlap_hook(strip[:, xs], rects))
            pre = []
            if pre_hook_factory is not None:
                pre.append(pre_hook_factory(win))
            strip[:, xs] = run_sampler(
                op, y, denoiser, cfg,
                hooks=ConstraintHooks(pre=pre, post=post), noise=noise)
            row, col = plan.grid_index(idx)
            if col == plan.cols - 1:
                # rows above the next tile row are final; the rest, which
                # the next tile row overlaps, move to the buffer's top
                done = tops[row + 1] - tops[row]
                sink(tops[row], strip[:done])
                strip[:patch - done] = strip[done:]
    finally:
        noise.close()
    return image
