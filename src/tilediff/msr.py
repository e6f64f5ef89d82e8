"""Mask-shift restoration: tile planning over an arbitrary-size canvas and
the per-tile overlap constraint.

Tiles are solved in raster order. Every tile after the first overlaps
already-restored canvas; that region is frozen by a per-step mask hook
(x0bar = A_m xdot + (I - A_m) x0hat), so the committed tile agrees with the
canvas bitwise on its known region and no seam can form.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .imagecore import Window
from .sampler import ConstraintHooks, SamplerConfig, run_sampler
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


def plan_tiles(height: int, width: int, patch: int, overlap: int,
               block: int = 1) -> TilePlan:
    """Positions at 0, stride, 2*stride, ..., last clamped to the edge."""
    if not 0 < overlap < patch:
        raise ValueError(f"need 0 < overlap < patch, got {overlap}/{patch}")
    if patch % block or overlap % block:
        raise ValueError(
            f"patch {patch} and overlap {overlap} must be multiples of "
            f"block {block}")
    ys = _axis_positions(height, patch, overlap, block)
    xs = _axis_positions(width, patch, overlap, block)
    windows = tuple(Window(top=y, left=x, height=patch, width=patch)
                    for y in ys for x in xs)
    return TilePlan(windows=windows, rows=len(ys), cols=len(xs),
                    patch=patch, overlap=overlap, height=height,
                    width=width, block=block)


@dataclasses.dataclass
class Canvas:
    """Growing full-size result with a mask of already-restored pixels."""

    image: np.ndarray
    known: np.ndarray

    @classmethod
    def blank(cls, shape) -> "Canvas":
        return cls(image=np.zeros(shape),
                   known=np.zeros(shape[:2], dtype=bool))


def overlap_mask(plan: TilePlan, idx: int, canvas: Canvas) -> np.ndarray:
    """The canvas known-mask restricted to tile idx's window."""
    if idx < 0 or idx >= len(plan.windows):
        raise ValueError(f"tile index {idx} out of range")
    ys, xs = plan.windows[idx].slices()
    return canvas.known[ys, xs].copy()


def tile_seed(global_seed: int, row: int, col: int) -> int:
    """Stable per-tile seed, independent of tile count."""
    ss = np.random.SeedSequence((global_seed, row, col))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _freeze_hook(fixed: np.ndarray, known: np.ndarray):
    """x0 -> x0 with the known (H, W) pixels of `fixed` written over it.

    Bitwise equal to np.where(known[..., None], fixed, x0); the flat indices
    and frozen values are gathered once per tile, and the copy keeps x0,
    which the projection may hand back unchanged, intact.
    """
    idx = np.flatnonzero(np.broadcast_to(known[:, :, None], fixed.shape))
    vals = fixed.reshape(-1)[idx]

    def hook(x0, t):
        out = x0.copy()
        out.reshape(-1)[idx] = vals
        return out

    return hook


def msr_restore(task: Task, plan: TilePlan, denoiser, cfg: SamplerConfig,
                use_mask_hook: bool = True,
                pre_hook_factory=None,
                on_step=None) -> np.ndarray:
    """Solve each tile in raster order, freezing overlap with the canvas.

    use_mask_hook=False gives the naive independent-patch baseline (tiles
    still get distinct seeds, overlap is last-write-wins).
    pre_hook_factory(window) -> hook adds a leading x0|t constraint per tile
    (used by hierarchical restoration).
    """
    if plan.block % task.block:
        raise ValueError(
            f"plan block {plan.block} not aligned to task block {task.block}")
    if (plan.height, plan.width) != task.shape[:2]:
        raise ValueError(
            f"plan {plan.height}x{plan.width} does not match task "
            f"shape {task.shape}")
    canvas = Canvas.blank(task.shape)
    for idx, win in enumerate(plan.windows):
        row, col = plan.grid_index(idx)
        op, y = task.tile_problem(win)
        ys, xs = win.slices()
        post = []
        if use_mask_hook:
            known = canvas.known[ys, xs]
            if known.any():
                post.append(_freeze_hook(canvas.image[ys, xs, :], known))
        pre = []
        if pre_hook_factory is not None:
            pre.append(pre_hook_factory(win))
        tile_cfg = dataclasses.replace(
            cfg, seed=tile_seed(cfg.seed, row, col))
        result = run_sampler(op, y, denoiser, tile_cfg,
                             hooks=ConstraintHooks(pre=pre, post=post),
                             on_step=on_step)
        canvas.image[ys, xs, :] = result
        canvas.known[ys, xs] = True
    return canvas.image
