"""Hierarchical restoration: a semantic phase at 1/f size, then a texture
phase at full size whose steps are pinned to the coarse result's low
frequencies. The pin is an ordinary task, `SuperResolutionTask(coarse, f)`,
with A_sr the f x f average-pooling downsampler: on a phase-2 tile
problem (A_sr, ref) every x0|t becomes x0t + pinv(A_sr)(ref - A_sr x0t),
the range-null-space projection pinv(A_sr) ref + (I - pinv(A_sr) A_sr) x0t
that `A_sr.project(ref, x0t)` takes, as every per-step constraint does.
A tile is pinned only where some pinned value survives the step: on a
clean tile whose every pixel is measured by a Mask or frozen by the
overlap constraint, the same step overwrites all of them, and `msr`
leaves the pin out. The pin's block makes plan2's block a multiple of f.

The coarse phase tiles the 1/f canvas with the full patch, so each of its
sides must hold one patch: `check_coarse_canvas`, which `cli` also runs.
The coarse canvas (1/f^2 of the full size) is held whole, since every
phase-2 tile reads its part of it. Phase 2 streams like any tiling pass:
its row bands go to a sink as its tile rows finish (see `msr`), and the
final low-frequency residual, the pin's `tasks.consistency`, is taken on
each band as it passes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .msr import TilePlan, assemble, check_plan, msr_restore, plan_tiles
from .sampler import SamplerConfig
from .tasks import SuperResolutionTask, Task, consistency


@dataclasses.dataclass(frozen=True)
class HirResult:
    image: np.ndarray | None  # None when phase 2 went to a sink
    coarse: np.ndarray
    lowfreq_residual: float  # max |A_sr image - coarse|, logged, not bounded


def check_coarse_canvas(height: int, width: int, f: int, patch: int):
    """Each side of the coarse canvas at factor f >= 2 holds one patch."""
    if min(height // f, width // f) < patch:
        raise ValueError(
            f"hir-factor {f} gives a {height // f}x{width // f} coarse "
            f"canvas, smaller than patch {patch}; use a smaller factor "
            f"or a canvas of at least {f * patch} pixels per side")


def hir_restore(task: Task, factor: int, plan2: TilePlan, denoiser,
                cfg: SamplerConfig, sink=None) -> HirResult:
    """Two-phase restoration with one sampler config for both phases;
    returns the full-size image, the coarse result, and the final
    low-frequency residual. The coarse phase tiles the 1/factor canvas
    with plan2's patch and overlap; plan2's block must be a multiple of
    factor. A sink gets phase 2's bands as msr_restore hands them over,
    and the result's image is then None.
    """
    f = factor
    reduced = task.reduce(f)  # checks f >= 2
    check_coarse_canvas(*task.shape[:2], f, plan2.patch)
    coarse, fill = assemble(reduced.shape)
    pin = SuperResolutionTask(coarse, f)  # reads coarse as phase 1 fills it
    check_plan(pin, plan2)  # both before the coarse phase, not after it
    check_plan(task, plan2)

    coarse_plan = plan_tiles(reduced.shape[0], reduced.shape[1],
                             plan2.patch, plan2.overlap, block=reduced.block)
    msr_restore(reduced, coarse_plan, denoiser, cfg, sink=fill)

    image = None
    if sink is None:
        image, sink = assemble(task.shape)
    residual = 0.0

    def measured(top: int, rows: np.ndarray):
        nonlocal residual
        residual = max(residual, consistency(pin, rows, top))
        sink(top, rows)

    msr_restore(task, plan2, denoiser, cfg, pin=pin, sink=measured)
    return HirResult(image=image, coarse=coarse, lowfreq_residual=residual)
