"""Hierarchical restoration: a semantic phase at 1/f size, then a texture
phase at full size whose every step is pinned to the coarse result's low
frequencies via x0tilde = pinv(A_sr) x0coarse + (I - pinv(A_sr) A_sr) x0|t,
with A_sr the f x f average-pooling downsampler. The pin is an ordinary
task, `SuperResolutionTask(coarse, f)`: its tile problems give each phase-2
tile's constraint, and its block makes plan2's block a multiple of f.

The coarse canvas (1/f^2 of the full size) is held whole, since every
phase-2 tile reads its part of it. Phase 2 streams like any tiling pass:
its row bands go to a sink as its tile rows finish (see `msr`), and the
final low-frequency residual, the pin's `tasks.consistency`, is taken on
each band as it passes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linops import AvgPool
from .msr import TilePlan, assemble, check_plan, msr_restore, plan_tiles
from .sampler import SamplerConfig
from .tasks import SuperResolutionTask, Task, consistency


@dataclasses.dataclass(frozen=True)
class HirResult:
    image: np.ndarray | None  # None when phase 2 went to a sink
    coarse: np.ndarray
    lowfreq_residual: float  # max |A_sr image - coarse|, logged, not bounded


def _lowfreq_hook(sr: AvgPool, ref: np.ndarray):
    """x0t -> pinv(A_sr) ref + (I - pinv(A_sr) A_sr) x0t, whose f x f block
    means are the coarse tile ref's pixels; written over x0t."""
    base = sr.pinv(ref)

    def hook(x0t, t):
        # (base + x0t) + pinv(-A x0t) is (base + x0t) - pinv(A x0t) bitwise
        # but for the sign of a zero (a - b is a + (-b)). A x0t, a new
        # array, is taken before the sum overwrites x0t.
        low = sr.forward(x0t)
        np.negative(low, out=low)
        np.add(base, x0t, out=x0t)
        return sr.add_pinv(x0t, low, out=x0t)

    return hook


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
    reduced = task.reduce(f)
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

    msr_restore(task, plan2, denoiser, cfg,
                pre_hook_factory=lambda win: _lowfreq_hook(
                    *pin.tile_problem(win)),
                sink=measured)
    return HirResult(image=image, coarse=coarse, lowfreq_residual=residual)
