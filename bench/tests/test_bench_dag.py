import numpy as np
import pytest

from tilediff.msr import plan_tiles

from bench import dag
from bench.workloads import WORKLOADS

PLANS = [(64, 64, 64, 32), (96, 160, 64, 32), (128, 100, 64, 32),
         (256, 240, 64, 32), (40, 56, 16, 8), (36, 52, 16, 4)]


def _brute_force_deps(plan):
    masks = []
    for w in plan.windows:
        m = np.zeros((plan.height, plan.width), dtype=bool)
        m[w.slices()] = True
        masks.append(m)
    return [tuple(j for j in range(i) if (masks[i] & masks[j]).any())
            for i in range(len(masks))]


@pytest.mark.parametrize("shape", PLANS)
def test_dependencies_match_pixel_overlap(shape):
    plan = plan_tiles(*shape)
    assert dag.dependencies(plan) == _brute_force_deps(plan)


@pytest.mark.parametrize("shape", PLANS)
def test_levels_are_longest_dependency_chains(shape):
    plan = plan_tiles(*shape)
    lv = dag.levels(plan)
    for i, deps in enumerate(dag.dependencies(plan)):
        assert lv[i] == 1 + max((lv[j] for j in deps), default=-1)
    n, par = dag.dag_stats(plan)
    assert n == max(lv) + 1 and par == len(plan.windows) / n


def test_clamped_column_breaks_the_wavefront_key():
    # x = 0, 32, 36: the clamped last column overlaps the column two back,
    # so tiles sharing the key 2r + c can overlap; the DAG separates them
    plan = plan_tiles(128, 100, 64, 32)
    assert sorted({w.left for w in plan.windows}) == [0, 32, 36]
    deps = dag.dependencies(plan)
    lv = dag.levels(plan)
    clashes = []
    for i in range(len(plan.windows)):
        for j in deps[i]:
            (ri, ci), (rj, cj) = plan.grid_index(i), plan.grid_index(j)
            if 2 * ri + ci == 2 * rj + cj:
                clashes.append((j, i))
                assert lv[i] > lv[j]
    assert len(clashes) == 2
    assert dag.dag_stats(plan) == (9, 1.0)


def test_workload_dag_figures():
    gen = plan_tiles(256, 240, 64, 32)
    assert len(gen.windows) == 49 and dag.dag_stats(gen) == (25, 1.96)
    sr = plan_tiles(96, 160, 64, 32)
    assert dag.dag_stats(sr) == (6, 8 / 6)


def test_known_fractions_follow_raster_order():
    plan = plan_tiles(64, 96, 64, 32)  # x = 0, 32
    assert dag.known_fractions(plan) == [0.0, 0.5]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tile_count_matches_planner(name):
    wl = WORKLOADS[name]
    planned = sum(len(plan_tiles(h, w, wl.patch, wl.overlap,
                                 block=b).windows)
                  for h, w, b in wl.plans())
    assert wl.tiles == planned
