import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilediff.denoise import GmmDenoiser
from tilediff.msr import msr_restore, plan_tiles, tile_seed
from tilediff.sampler import (ConstraintHooks, NoiseProducer, SamplerConfig,
                              SamplerError, noise_draws, run_sampler)
from tilediff.schedule import TravelPlan
from tilediff.tasks import GenerateTask, InpaintTask, SuperResolutionTask

from conftest import noise_thread_starts, same_bits, smooth_means, within
from oracles import full_problem, replay_msr

PATCH, OVERLAP = 64, 32


def make_denoiser(seed=0, tau=0.05, k=2, channels=3):
    return GmmDenoiser(smooth_means(k, PATCH, PATCH, channels=channels,
                                    seed=seed),
                       np.full(k, 1.0 / k), tau)


def test_plan_exact_cover():
    plan = plan_tiles(64, 96, PATCH, OVERLAP)
    assert [w.left for w in plan.windows] == [0, 32]
    assert plan.rows == 1 and plan.cols == 2


def test_plan_clamped_last_tile():
    plan = plan_tiles(64, 100, PATCH, OVERLAP, block=4)
    assert [w.left for w in plan.windows] == [0, 32, 36]


def test_plan_single_tile_degenerate():
    plan = plan_tiles(64, 64, PATCH, OVERLAP)
    assert len(plan.windows) == 1
    assert plan.windows[0].top == 0 and plan.windows[0].left == 0


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_tiles(32, 96, PATCH, OVERLAP)  # canvas smaller than patch
    with pytest.raises(ValueError):
        plan_tiles(64, 96, PATCH, 0)
    with pytest.raises(ValueError):
        plan_tiles(64, 98, PATCH, OVERLAP, block=4)  # alignment violation
    with pytest.raises(ValueError):
        plan_tiles(64, 96, 62, 30, block=4)


@st.composite
def accepted_geometries(draw):
    """(height, width, patch, overlap, block) that plan_tiles accepts."""
    block = draw(st.integers(1, 4))
    patch = block * draw(st.integers(2, 8))
    overlap = block * draw(st.integers(1, patch // block - 1))
    height = patch + block * draw(st.integers(0, 20))
    width = patch + block * draw(st.integers(0, 20))
    return height, width, patch, overlap, block


def _axis_ok(starts, extent, patch, stride):
    """0, stride, 2 stride, ..., with only the last step shorter, ending
    at the canvas edge."""
    steps = np.diff(starts)
    return (starts[0] == 0 and starts[-1] == extent - patch
            and all(d == stride for d in steps[:-1])
            and all(0 < d <= stride for d in steps[-1:]))


def _covers(plan):
    covered = np.zeros((plan.height, plan.width), dtype=bool)
    for w in plan.windows:
        covered[w.slices()] = True
    return covered.all()


@settings(max_examples=200, deadline=None)
@given(accepted_geometries())
@example((64, 64, 64, 32, 1))     # canvas equal to the patch
@example((64, 100, 64, 32, 4))    # clamped last tile, block > 1
def test_plan_tiles_covers_the_canvas_in_raster_order(geometry):
    height, width, patch, overlap, block = geometry
    plan = plan_tiles(height, width, patch, overlap, block=block)
    for w in plan.windows:
        assert (w.height, w.width) == (patch, patch)
        assert w.top + patch <= height and w.left + patch <= width
        assert w.top % block == 0 and w.left % block == 0
    tops = sorted({w.top for w in plan.windows})
    lefts = sorted({w.left for w in plan.windows})
    assert (plan.rows, plan.cols) == (len(tops), len(lefts))
    assert [(w.top, w.left) for w in plan.windows] == [
        (y, x) for y in tops for x in lefts]
    assert _covers(plan)
    assert _axis_ok(tops, height, patch, plan.stride)
    assert _axis_ok(lefts, width, patch, plan.stride)


@settings(max_examples=300, deadline=None)
@given(st.integers(-4, 140), st.integers(-4, 140), st.integers(-4, 70),
       st.integers(-4, 70), st.integers(-2, 6))
def test_plan_tiles_rejects_geometry_with_value_error_only(
        height, width, patch, overlap, block):
    try:
        plan = plan_tiles(height, width, patch, overlap, block=block)
    except ValueError:
        return
    assert _covers(plan)


def test_overlap_masks_by_construction():
    plan = plan_tiles(96, 96, PATCH, OVERLAP)
    known = np.zeros((96, 96), dtype=bool)
    # tile 0: nothing restored yet
    assert not known[plan.windows[0].slices()].any()
    known[plan.windows[0].slices()] = True
    # tile 1 (second in first row): left `overlap` columns known
    m1 = known[plan.windows[1].slices()]
    assert m1[:, :OVERLAP].all() and not m1[:, OVERLAP:].any()
    known[plan.windows[1].slices()] = True
    # tile 2 (first of second row): top `overlap` rows known
    m2 = known[plan.windows[2].slices()]
    assert m2[:OVERLAP, :].all() and not m2[OVERLAP:, :].any()
    # tile 3 sees an L-shaped known region
    known[plan.windows[2].slices()] = True
    m3 = known[plan.windows[3].slices()]
    assert m3[:OVERLAP, :].all() and m3[:, :OVERLAP].all()
    assert not m3[OVERLAP:, OVERLAP:].any()


@st.composite
def small_geometries(draw):
    """(height, width, patch, overlap, block) with a 4-16 px patch and up
    to two strides past it per side, so a last tile may be clamped."""
    block = draw(st.sampled_from([1, 2, 4]))
    patch = block * draw(st.integers(max(2, 4 // block), 16 // block))
    overlap = block * draw(st.integers(1, patch // block - 1))
    height, width = (patch + block * draw(
        st.integers(0, 2 * (patch - overlap) // block)) for _ in range(2))
    return height, width, patch, overlap, block


@settings(max_examples=60, deadline=None)
@given(small_geometries(), st.sampled_from(["generate", "sr", "inpaint"]),
       st.integers(0, 2**32 - 1))
@example((8, 8, 8, 4, 2), "inpaint", 0)      # canvas equal to the patch
@example((14, 14, 8, 4, 2), "sr", 1)         # clamped last row and column
def test_msr_equals_the_replay_bitwise_on_random_plans(geometry, kind, seed):
    height, width, patch, overlap, block = geometry
    plan = plan_tiles(height, width, patch, overlap, block=block)
    rng = np.random.default_rng(seed)
    if kind == "generate":
        task = GenerateTask(height, width, 3)
    elif kind == "sr":
        task = SuperResolutionTask(rng.uniform(
            -1, 1, size=(height // block, width // block, 3)), block)
    else:
        task = InpaintTask(rng.uniform(-1, 1, size=(height, width, 3)),
                           rng.random((height, width)) < 0.5)
    den = GmmDenoiser(smooth_means(2, patch, patch, seed=seed),
                      [0.5, 0.5], 0.05)
    cfg = SamplerConfig(T=4, seed=seed)
    assert np.array_equal(msr_restore(task, plan, den, cfg),
                          replay_msr(task, plan, den, cfg))


@settings(max_examples=60, deadline=None)
@given(small_geometries(), st.sampled_from(["generate", "sr", "inpaint"]),
       st.integers(0, 2**32 - 1))
@example((8, 8, 8, 4, 2), "generate", 0)     # canvas equal to the patch
@example((14, 14, 8, 4, 2), "sr", 1)         # clamped last row and column
@example((18, 10, 8, 4, 2), "inpaint", 2)    # clamped row overlaps two back
def test_msr_sink_gets_each_band_once_in_order_block_aligned(geometry, kind,
                                                             seed):
    height, width, patch, overlap, block = geometry
    plan = plan_tiles(height, width, patch, overlap, block=block)
    rng = np.random.default_rng(seed)
    sigma_y = 0.0
    if kind == "generate":
        task = GenerateTask(height, width, 3)
    elif kind == "sr":
        task = SuperResolutionTask(rng.uniform(
            -1, 1, size=(height // block, width // block, 3)), block)
        sigma_y = 0.05
    else:
        task = InpaintTask(rng.uniform(-1, 1, size=(height, width, 3)),
                           rng.random((height, width)) < 0.5)
    den = GmmDenoiser(smooth_means(2, patch, patch, seed=seed),
                      [0.5, 0.5], 0.05)
    cfg = SamplerConfig(T=4, seed=seed, sigma_y=sigma_y)
    bands = []
    assert msr_restore(task, plan, den, cfg, sink=lambda top, rows:
                       bands.append((top, rows.copy()))) is None
    # each band starts where the one before it ended, from 0 to the height
    ends = [0] + [top + len(rows) for top, rows in bands]
    assert [top for top, _ in bands] == ends[:-1] and ends[-1] == height
    assert all(len(rows) and top % block == 0 and len(rows) % block == 0
               for top, rows in bands)
    assert len(bands) == plan.rows
    want = replay_msr(task, plan, den, cfg)
    assert same_bits(np.concatenate([rows for _, rows in bands]), want)
    assert same_bits(msr_restore(task, plan, den, cfg), want)


def test_tile_seed_stable_and_distinct():
    assert tile_seed(7, 0, 0) == tile_seed(7, 0, 0)
    seeds = {tile_seed(7, r, c) for r in range(3) for c in range(3)}
    assert len(seeds) == 9


def test_single_tile_plan_matches_plain_sampler(rng):
    den = make_denoiser()
    truth = rng.uniform(-1, 1, size=(PATCH, PATCH, 3))
    task = SuperResolutionTask(truth.reshape(16, 4, 16, 4, 3).mean(
        axis=(1, 3)), 4)
    plan = plan_tiles(PATCH, PATCH, PATCH, OVERLAP, block=4)
    cfg = SamplerConfig(T=40, seed=5)
    tiled = msr_restore(task, plan, den, cfg)
    op, y = task.tile_problem(plan.windows[0])
    plain = run_sampler(op, y, den,
                        dataclasses.replace(cfg, seed=tile_seed(5, 0, 0)))
    assert np.array_equal(tiled, plain)


def test_two_tile_sr_seam_is_bitwise_exact(rng):
    den = make_denoiser(seed=3)
    y_lr = rng.uniform(-1, 1, size=(16, 24, 3))
    task = SuperResolutionTask(y_lr, 4)
    plan = plan_tiles(64, 96, PATCH, OVERLAP, block=4)
    cfg = SamplerConfig(T=40, seed=2)

    orig = msr_restore(task, plan, den, cfg)
    # second pass, capturing the tile-2 sampler output before commit
    image = np.zeros(task.shape)
    known = np.zeros(task.shape[:2], dtype=bool)
    op, y = task.tile_problem(plan.windows[0])
    t0 = run_sampler(op, y, den,
                     dataclasses.replace(cfg, seed=tile_seed(2, 0, 0)))
    image[plan.windows[0].slices()] = t0
    known[plan.windows[0].slices()] = True
    win = plan.windows[1]
    op, y = task.tile_problem(win)
    ys, xs = win.slices()
    fixed = image[ys, xs, :].copy()
    known3 = known[ys, xs][:, :, None]
    t1 = run_sampler(op, y, den,
                     dataclasses.replace(cfg, seed=tile_seed(2, 0, 1)),
                     hooks=ConstraintHooks(post=[
                         lambda x0, t: np.where(known3, fixed, x0)]))
    # overlap columns equal the canvas bitwise (final-step overwrite)
    assert np.array_equal(t1[:, :OVERLAP, :], fixed[:, :OVERLAP, :])
    # and the assembled image from the public API matches this replay
    image[ys, xs, :] = t1
    assert np.array_equal(orig, image)


def test_msr_global_consistency_sr(rng):
    den = make_denoiser(seed=4)
    y_lr = rng.uniform(-1, 1, size=(16, 24, 3))
    task = SuperResolutionTask(y_lr, 4)
    plan = plan_tiles(64, 96, PATCH, OVERLAP, block=4)
    out = msr_restore(task, plan, den, SamplerConfig(T=40, seed=8))
    op, y = full_problem(task)
    assert np.abs(op.forward(out) - y).max() <= 1e-6


def test_msr_determinism(rng):
    den = make_denoiser(seed=1)
    task = GenerateTask(64, 96, 3)
    plan = plan_tiles(64, 96, PATCH, OVERLAP)
    cfg = SamplerConfig(T=30, seed=77)
    a = msr_restore(task, plan, den, cfg)
    b = msr_restore(task, plan, den, cfg)
    assert np.array_equal(a, b)


def test_msr_known_region_monotone_and_complete(rng):
    den = make_denoiser(seed=6)
    task = GenerateTask(96, 96, 3)
    plan = plan_tiles(96, 96, PATCH, OVERLAP)
    out = msr_restore(task, plan, den, SamplerConfig(T=20, seed=3))
    # the canvas starts at exact zeros, so a pixel no tile committed reads 0
    assert np.isfinite(out).all() and (out != 0).all()


def test_msr_rejects_misaligned_plan(rng):
    task = SuperResolutionTask(rng.uniform(-1, 1, size=(16, 24, 3)), 4)
    plan = plan_tiles(64, 96, PATCH, OVERLAP, block=1)  # block 1 < scale 4
    den = make_denoiser()
    with pytest.raises(ValueError):
        msr_restore(task, plan, den, SamplerConfig(T=10, seed=0))


def test_msr_naive_mode_breaks_seams_msr_does_not():
    # well-separated constant components make independent tiles disagree
    k = 4
    means = [np.full((PATCH, PATCH, 3), v) for v in (-0.9, -0.3, 0.3, 0.9)]
    den = GmmDenoiser(means, np.full(k, 0.25), 0.01)
    task = GenerateTask(64, 96, 3)
    plan = plan_tiles(64, 96, PATCH, OVERLAP)
    cfg = SamplerConfig(T=30, seed=12)
    msr_img = msr_restore(task, plan, den, cfg)
    naive_img = msr_restore(task, plan, den, cfg, use_mask_hook=False)
    seam = plan.windows[1].left + 0  # new tile starts here in naive mode
    msr_jump = np.abs(np.diff(msr_img, axis=1)).max()
    naive_jump = np.abs(naive_img[:, seam] - naive_img[:, seam - 1]).max()
    # with seed 12 the two naive tiles settle on different components
    assert naive_jump > 0.5
    assert msr_jump < 0.1


def test_a_tiling_pass_starts_one_noise_thread():
    task = GenerateTask(96, 96, 3)
    plan = plan_tiles(96, 96, PATCH, OVERLAP)
    with noise_thread_starts() as names:
        within(lambda: msr_restore(task, plan, make_denoiser(),
                                   SamplerConfig(T=3, seed=1)))
    assert len(plan.windows) == 4 and len(names) == 1


# eight draws to a ring chunk. T=5 with travel (2, 2) takes 14 draws per
# tile, more than a chunk; T=6 takes 7, fewer
@pytest.mark.parametrize("kind, cfg", [
    ("generate", SamplerConfig(T=5, seed=21, travel=TravelPlan(2, 2))),
    ("sr", SamplerConfig(T=6, seed=22, sigma_y=0.05)),
], ids=["14-draws", "7-draws"])
def test_msr_equals_the_replay_when_chunks_straddle_tiles(rng, kind, cfg):
    assert noise_draws(cfg) % NoiseProducer.CHUNK != 0
    if kind == "generate":
        task = GenerateTask(96, 128, 3)
    else:
        task = SuperResolutionTask(rng.uniform(-1, 1, size=(24, 32, 3)), 4)
    plan = plan_tiles(96, 128, PATCH, OVERLAP, block=task.block)
    den = make_denoiser(seed=5)
    # switching threads as often as the interpreter can makes a ring slot
    # refilled while its draw is still in use show in the output
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = within(lambda: msr_restore(task, plan, den, cfg), 60.0)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, replay_msr(task, plan, den, cfg))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_a_failing_tile_stops_the_pass_and_the_next_job_is_clean():
    class NanAfter(GmmDenoiser):
        """make_denoiser(), but eps is NaN after `fail_at` calls."""

        def predict_eps(self, x_t, t, sched):
            eps = super().predict_eps(x_t, t, sched)
            return eps * np.nan if self.calls > self.fail_at else eps

    good = make_denoiser(seed=7)
    bad = NanAfter(good.means, good.weights, good.tau)
    task = GenerateTask(96, 128, 3)
    plan = plan_tiles(96, 128, PATCH, OVERLAP)
    cfg = SamplerConfig(T=5, seed=8, travel=TravelPlan(2, 2))
    bad.fail_at = 2 * cfg.T + 3  # inside tile 1 of 6
    fresh = within(lambda: msr_restore(task, plan, good, cfg))
    before = threading.active_count()
    with pytest.raises(SamplerError):
        within(lambda: msr_restore(task, plan, bad, cfg))
    assert threading.active_count() == before
    assert np.array_equal(within(lambda: msr_restore(task, plan, good, cfg)),
                          fresh)
