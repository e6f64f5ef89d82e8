"""The tile dependency DAG a TilePlan allows.

Tiles are solved in raster order and each one freezes its overlap with the
canvas restored so far, so tile i depends on every earlier tile whose window
overlaps it, and on nothing else. A tile's level is one more than the
highest level among its dependencies; tiles on one level could run at the
same time without changing a single output bit. The wavefront key 2r + c is
not a valid level: a clamped last column also overlaps the column two back.
"""

from __future__ import annotations

import numpy as np


def _overlap(a, b) -> bool:
    return (a.top < b.top + b.height and b.top < a.top + a.height and
            a.left < b.left + b.width and b.left < a.left + a.width)


def dependencies(plan) -> list[tuple[int, ...]]:
    """For each tile, the earlier raster tiles whose windows overlap it."""
    wins = plan.windows
    return [tuple(j for j in range(i) if _overlap(wins[j], wins[i]))
            for i in range(len(wins))]


def levels(plan) -> list[int]:
    """Level of each tile: 0 for tiles with no dependency."""
    lv: list[int] = []
    for deps in dependencies(plan):
        lv.append(1 + max((lv[j] for j in deps), default=-1))
    return lv


def dag_stats(plan) -> tuple[int, float]:
    """(number of levels, mean tiles per level)."""
    n = max(levels(plan)) + 1
    return n, len(plan.windows) / n


def known_fractions(plan) -> list[float]:
    """Share of each tile's window already restored when the tile starts,
    i.e. the share the overlap constraint freezes."""
    covered = np.zeros((plan.height, plan.width), dtype=bool)
    out = []
    for w in plan.windows:
        ys, xs = w.slices()
        out.append(float(covered[ys, xs].mean()))
        covered[ys, xs] = True
    return out
