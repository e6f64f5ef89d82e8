"""Mask-shift restoration: tile planning over an arbitrary-size canvas and
the per-tile overlap constraint.

Tiles are solved in raster order. Every tile after the first overlaps
already-restored canvas; that region is frozen by a per-step mask hook
(x0bar = A_m xdot + (I - A_m) x0hat), so the committed tile agrees with the
canvas bitwise on its known region and no seam can form. The region is
always the tile's first rows plus its first columns: each earlier tile row
spans the canvas, so the tile row above reaches the same rows across the
whole tile, and of the tiles in its own row the one to the left reaches
furthest into it.

Rows flow through one tile row at a time. The tiles are written into a
buffer one tile row high (patch x width); once a tile row is done, no
later tile touches the rows above the next tile row's top, so those rows
go to a sink in row bands (`imagecore.row_bands`) and the rest of the
buffer moves up to become the top of the next tile row. A pass holds
O(patch x width) floats, and a sink one band's, whatever the canvas height
or stride. The default sink copies the bands into a full-size image.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .imagecore import Window, row_bands
from .sampler import (ConstraintHooks, NoiseProducer, SamplerConfig,
                      noise_draws, run_sampler)
from .tasks import Task


@dataclasses.dataclass(frozen=True)
class TilePlan:
    """Tiles at tops x lefts in raster order, on a height x width canvas."""

    tops: tuple
    lefts: tuple
    patch: int
    overlap: int
    height: int
    width: int
    block: int

    @property
    def stride(self) -> int:
        return self.patch - self.overlap

    @property
    def rows(self) -> int:
        return len(self.tops)

    @property
    def cols(self) -> int:
        return len(self.lefts)

    @property
    def windows(self) -> tuple:
        """Every tile's Window in raster order, made on each access."""
        return tuple(Window(top=y, left=x, height=self.patch, width=self.patch)
                     for y in self.tops for x in self.lefts)

    def grid_index(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.cols)


def _axis_positions(size: int, patch: int, overlap: int, block: int):
    if size < patch:
        raise ValueError(f"canvas extent {size} smaller than patch {patch}")
    if size % block:
        raise ValueError(f"canvas extent {size} not a multiple of block {block}")
    stride = patch - overlap
    positions = tuple(range(0, size - patch + 1, stride))
    if positions[-1] != size - patch:
        # clamp the last tile to end at the canvas edge (larger overlap)
        positions += (size - patch,)
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
    return TilePlan(tops=_axis_positions(height, patch, overlap, block),
                    lefts=_axis_positions(width, patch, overlap, block),
                    patch=patch, overlap=overlap, height=height,
                    width=width, block=block)


def check_plan(task: Task, plan: TilePlan):
    """Reject a plan whose canvas or block does not fit the task."""
    if plan.block % task.block:
        raise ValueError(
            f"plan block {plan.block} not aligned to task block {task.block}")
    if (plan.height, plan.width) != task.shape[:2]:
        raise ValueError(
            f"plan {plan.height}x{plan.width} does not match task "
            f"shape {task.shape}")


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


def _overlap_hook(fixed: np.ndarray, rows: int, cols: int):
    """A hook that writes the restored corner of `fixed`, its first `rows`
    rows and its first `cols` columns, over the x0 it is given.

    The corner is the tile's whole intersection with the earlier windows
    (see the module docstring), so this is bitwise np.where(known[..., None],
    fixed, x0) with known that union. Each value is written once per step.
    The values are copied once per tile, so the hook reads nothing of the
    canvas the tiles are written into.
    """
    top = fixed[:rows].copy()
    side = fixed[rows:, :cols].copy()

    def hook(x0, t):
        x0[:rows] = top
        x0[rows:, :cols] = side

    return hook


def _survives(op, y, post, cfg: SamplerConfig) -> bool:
    """Whether what the pre hooks write survives anywhere in a step: a NaN
    x0 put through the task's projection and the post hooks still holds a
    NaN. Mask and Identity write y over any x0 at lambda = 1, every step's
    lambda when cfg.sigma_y == 0; AvgPool and Gray carry the NaN."""
    probe = np.full(op.input_shape, np.nan)
    if cfg.sigma_y == 0:
        op.project(y, probe, 1.0, out=probe)
    for h in post:
        h(probe, cfg.T)
    return bool(np.isnan(probe).any())


def msr_restore(task: Task, plan: TilePlan, denoiser, cfg: SamplerConfig,
                use_mask_hook: bool = True, pin: Task | None = None,
                sink=None) -> np.ndarray | None:
    """Solve each tile in raster order, freezing overlap with the canvas.

    use_mask_hook=False gives the naive independent-patch baseline (tiles
    still get distinct seeds, overlap is last-write-wins).
    With a pin task, each tile's x0|t is first projected onto the pin's
    tile problem (A_pin, y_pin) by A_pin.project, written over x0t
    (hierarchical restoration pins to the coarse result through
    SuperResolutionTask(coarse, f)). A tile where the same step overwrites
    every value the pin writes, by the task's clean projection and the
    overlap freeze, is not pinned: the output is the same, bit for bit.

    sink(top, rows) gets the finished canvas rows [top, top + len(rows)),
    each tile row's as its row_bands(height, plan.block), in order: the
    bands cover the canvas once, and each band's top and height are
    multiples of plan.block. rows is a view of the tile-row buffer, valid
    until the call returns. Without a sink the bands are copied into a new
    full-size image, which is returned; with one, None is returned.
    """
    check_plan(task, plan)
    image = None
    if sink is None:
        image, sink = assemble(task.shape)
    patch = plan.patch
    # canvas rows [tops[row], tops[row] + patch) while that tile row runs
    strip = np.empty((patch, plan.width, task.shape[2]))
    ends = plan.tops[1:] + (plan.height,)
    # every tile's noise, in raster order, from one producer
    noise = NoiseProducer(
        lambda k: tile_seed(cfg.seed, *divmod(k, plan.cols)),
        plan.rows * plan.cols, noise_draws(cfg), (patch, patch, task.shape[2]))
    try:
        for row, (top, end) in enumerate(zip(plan.tops, ends)):
            for col, left in enumerate(plan.lefts):
                win = Window(top=top, left=left, height=patch, width=patch)
                op, y = task.tile_problem(win)
                xs = slice(left, left + patch)
                rows = plan.tops[row - 1] + patch - top if row else 0
                cols = plan.lefts[col - 1] + patch - left if col else 0
                post = ([_overlap_hook(strip[:, xs], rows, cols)]
                        if use_mask_hook and (rows or cols) else [])
                pre = []
                if pin is not None and _survives(op, y, post, cfg):
                    pin_op, pin_y = pin.tile_problem(win)
                    pre = [lambda x0, t, pin_op=pin_op, pin_y=pin_y:
                           pin_op.project(pin_y, x0, out=x0)]
                strip[:, xs] = run_sampler(
                    op, y, denoiser, cfg,
                    hooks=ConstraintHooks(pre=pre, post=post), noise=noise)
            # rows above the next tile row are final; the rest, which the
            # next tile row overlaps, move to the buffer's top
            for ys in row_bands(end - top, plan.block):
                sink(top + ys.start, strip[ys])
            strip[:patch - (end - top)] = strip[end - top:]
    finally:
        noise.close()
    return image
