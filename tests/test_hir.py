import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilediff.denoise import GmmDenoiser
from tilediff import msr
from tilediff.hir import hir_restore
from tilediff.linops import AvgPool
from tilediff.msr import msr_restore, plan_tiles
from tilediff.sampler import SamplerConfig
from tilediff.tasks import (ColorizeTask, DenoiseTask, GenerateTask,
                            InpaintTask, SuperResolutionTask)

import oracles
from conftest import (lowfreq_residuals, noise_thread_starts, smooth_means,
                      within)

PATCH, OVERLAP = 64, 32


def make_denoiser(seed=0, k=2, tau=0.05):
    return GmmDenoiser(smooth_means(k, PATCH, PATCH, seed=seed),
                       np.full(k, 1.0 / k), tau)


def test_factor_validation():
    task = GenerateTask(128, 128, 3)
    plan2 = plan_tiles(128, 128, PATCH, OVERLAP)
    for factor in (0, 1):
        # checked before the pin, SR at the factor, is built
        with pytest.raises(ValueError, match="factor must be >= 2"):
            hir_restore(task, factor, plan2, make_denoiser(),
                        SamplerConfig(T=2))
        with pytest.raises(ValueError, match="factor must be >= 2"):
            task.reduce(factor)


def test_hir_rejects_a_coarse_canvas_below_the_patch():
    # the job's rule, not the coarse plan's "canvas extent 32 smaller than
    # patch 64", and raised before the coarse phase samples anything
    task = GenerateTask(64, 96, 3)
    plan2 = plan_tiles(64, 96, PATCH, OVERLAP, block=2)
    den = make_denoiser()
    with pytest.raises(ValueError, match="hir-factor 2 gives a 32x48 coarse "
                       "canvas, smaller than patch 64; use a smaller factor "
                       "or a canvas of at least 128 pixels per side"):
        hir_restore(task, 2, plan2, den, SamplerConfig(T=2))
    assert den.calls == 0


@pytest.mark.parametrize("factor", [-2, 0, 1])
def test_every_task_reduce_rejects_factors_below_2(rng, factor):
    obs = rng.uniform(-1, 1, size=(8, 8, 3))
    for task in (SuperResolutionTask(obs, 4),
                 InpaintTask(obs, np.ones((8, 8), dtype=bool)),
                 ColorizeTask(obs[:, :, :1]), DenoiseTask(obs),
                 GenerateTask(8, 8, 3)):
        with pytest.raises(ValueError, match="factor must be >= 2"):
            task.reduce(factor)


def test_derive_sr_halves_scale(rng):
    y = rng.uniform(-1, 1, size=(8, 8, 3))
    task = SuperResolutionTask(y, 16)
    red = task.reduce(2)
    assert isinstance(red, SuperResolutionTask)
    assert red.scale == 8
    assert red.shape == (64, 64, 3)
    assert np.array_equal(red.y, y)  # same measurement


def test_derive_sr_requires_divisible_scale(rng):
    task = SuperResolutionTask(rng.uniform(-1, 1, size=(8, 8, 3)), 4)
    with pytest.raises(ValueError):
        task.reduce(3)


def test_derive_inpaint_footprint_rule(rng):
    obs = rng.uniform(-1, 1, size=(8, 8, 3))
    all_known = InpaintTask(obs, np.ones((8, 8), dtype=bool))
    red = all_known.reduce(2)
    assert np.asarray(red.known).all()
    # checkerboard: no 2x2 footprint is fully known -> all missing
    checker = (np.indices((8, 8)).sum(axis=0) % 2 == 0)
    with pytest.warns(UserWarning, match="no known pixels"):
        red = InpaintTask(obs, checker).reduce(2)
    assert not np.asarray(red.known).any()


def test_derive_inpaint_values_are_footprint_means(rng):
    obs = rng.uniform(-1, 1, size=(4, 4, 1))
    known = np.zeros((4, 4), dtype=bool)
    known[:2, :2] = True
    red = InpaintTask(obs, known).reduce(2)
    known_r, obs_r = np.asarray(red.known), np.asarray(red.observed)
    assert known_r[0, 0] and not known_r[0, 1]
    assert obs_r[0, 0, 0] == pytest.approx(obs[:2, :2, 0].mean())


def test_derive_other_tasks(rng):
    gray = rng.uniform(-1, 1, size=(8, 8, 1))
    red = ColorizeTask(gray).reduce(2)
    assert red.shape == (4, 4, 3)
    assert np.asarray(red.gray)[0, 0, 0] == pytest.approx(
        gray[:2, :2, 0].mean())
    red = DenoiseTask(rng.uniform(-1, 1, (8, 8, 3))).reduce(4)
    assert red.shape == (2, 2, 3)
    red = GenerateTask(128, 192, 3).reduce(2)
    assert red.shape == (64, 96, 3)


def test_derive_rejects_nondivisible_dims():
    with pytest.raises(ValueError):
        GenerateTask(66, 64, 3).reduce(4)


def make_inpaint_setup(rng, h=128, w=192, f=2, known_frac=0.5):
    den = make_denoiser(seed=9)
    # tiling a 64x64 mean over the canvas keeps phase 1 and 2 coherent
    truth = np.zeros((h, w, 3))
    base = den.means[0]
    for i in range(0, h, PATCH):
        for j in range(0, w, PATCH):
            truth[i:i + PATCH, j:j + PATCH, :] = base
    known = rng.random((h, w)) < known_frac
    # keep reduced mask non-empty: force some aligned 2x2 blocks known
    known[:8, :8] = True
    return den, InpaintTask(truth, known)


def test_hir_hook_is_exact_projection_each_step(rng):
    den, task = make_inpaint_setup(rng)
    plan2 = plan_tiles(128, 192, PATCH, OVERLAP, block=2)
    cfg = SamplerConfig(T=15, seed=4)
    with lowfreq_residuals() as trace:
        result = hir_restore(task, 2, plan2, den, cfg)
    assert trace, "hook trace should have one entry per phase-2 step"
    assert max(trace) <= 1e-10
    assert np.isfinite(result.image).all()
    assert result.lowfreq_residual >= 0.0


def test_hir_disabled_reproduces_msr_bitwise(rng):
    den, task = make_inpaint_setup(rng)
    plan2 = plan_tiles(128, 192, PATCH, OVERLAP, block=2)
    cfg = SamplerConfig(T=15, seed=4)
    plain = msr_restore(task, plan2, den, cfg)
    again = msr_restore(task, plan2, den, cfg, pin=None)
    assert np.array_equal(plain, again)


def test_hir_phase1_consistency_inherited(rng):
    den, task = make_inpaint_setup(rng)
    plan2 = plan_tiles(128, 192, PATCH, OVERLAP, block=2)
    cfg = SamplerConfig(T=15, seed=4)
    result = hir_restore(task, 2, plan2, den, cfg)
    red = task.reduce(2)
    op, y = oracles.full_problem(red)
    assert np.abs(op.forward(result.coarse) - y).max() <= 1e-6


def test_hir_lowfreq_hook_with_projection_disabled(rng):
    # with only the low-frequency hook, A_sr x0tilde = coarse_tile exactly
    den = make_denoiser(seed=2)
    coarse = den.means[1][:32, :32, :]
    sr = AvgPool((PATCH, PATCH, 3), 2)
    x0t = rng.standard_normal((PATCH, PATCH, 3))
    out = sr.pinv(coarse) + x0t - sr.range_project(x0t)
    assert np.abs(sr.forward(out) - coarse).max() <= 1e-10


def test_hir_rejects_misaligned_plan2(rng):
    den, task = make_inpaint_setup(rng)
    # stride 33 puts windows at odd offsets, breaking factor-2 alignment
    plan2 = plan_tiles(128, 192, PATCH, 31, block=1)
    cfg = SamplerConfig(T=5, seed=0)
    with pytest.raises(ValueError):
        hir_restore(task, 2, plan2, den, cfg)
    assert den.calls == 0


def test_hir_rejects_a_block_1_plan2_even_with_even_positions(rng):
    # the pin, SR at factor 2, needs plan2.block % 2 == 0, as msr_restore
    # needs plan.block % task.block == 0, whatever the positions
    den, task = make_inpaint_setup(rng)
    plan2 = plan_tiles(128, 192, PATCH, OVERLAP, block=1)
    assert not any(pos % 2 for pos in plan2.tops + plan2.lefts)
    with pytest.raises(ValueError, match="not aligned to task block 2"):
        hir_restore(task, 2, plan2, den, SamplerConfig(T=5, seed=0))
    assert den.calls == 0


def test_hir_rejects_a_plan2_of_another_size_before_phase_1(rng):
    den, task = make_inpaint_setup(rng)  # a 128 x 192 canvas
    plan2 = plan_tiles(128, 128, PATCH, OVERLAP, block=2)
    with pytest.raises(ValueError, match="does not match task shape"):
        hir_restore(task, 2, plan2, den, SamplerConfig(T=5, seed=0))
    assert den.calls == 0


def test_hir_starts_one_noise_thread_per_phase(rng):
    den, task = make_inpaint_setup(rng)
    plan2 = plan_tiles(128, 192, PATCH, OVERLAP, block=2)
    with noise_thread_starts() as names:
        within(lambda: hir_restore(task, 2, plan2, den,
                                   SamplerConfig(T=2, seed=4)))
    assert len(names) == 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: both HiR phases seed tile (r, c) with "
    "tile_seed(seed, r, c), so they draw the same noise"))
def test_hir_tile_seeds_are_distinct_across_phases(rng, monkeypatch):
    seeds = []

    class Recording(msr.NoiseProducer):
        def __init__(self, seed_of, streams, count, shape):
            seeds.extend(seed_of(k) for k in range(streams))
            super().__init__(seed_of, streams, count, shape)

    monkeypatch.setattr(msr, "NoiseProducer", Recording)
    den, task = make_inpaint_setup(rng)
    plan2 = plan_tiles(128, 192, PATCH, OVERLAP, block=2)
    hir_restore(task, 2, plan2, den, SamplerConfig(T=1, seed=0))
    if len(seeds) != 2 + len(plan2.windows):  # not the xfail's assertion
        pytest.fail(f"{len(seeds)} streams for 2 + {len(plan2.windows)} tiles")
    assert len(set(seeds)) == len(seeds)


def replay_hir(task, f, plan2, den, cfg):
    """(coarse, image) of hir_restore by oracles.replay_msr: the coarse
    phase, then phase 2 with oracles.lowfreq_hook on every tile."""
    height, width, _ = task.shape
    patch, overlap = plan2.patch, plan2.overlap
    reduced = task.reduce(f)
    coarse = oracles.replay_msr(
        reduced, plan_tiles(height // f, width // f, patch, overlap,
                            block=reduced.block), den, cfg)
    sr = AvgPool((patch, patch, 3), f)

    def hook_factory(win):
        return oracles.lowfreq_hook(sr, coarse[
            win.top // f:(win.top + patch) // f,
            win.left // f:(win.left + patch) // f, :])

    return coarse, oracles.replay_msr(task, plan2, den, cfg,
                                      pre_hook_factory=hook_factory)


@pytest.mark.parametrize("sigma_y", [0.0, 0.05])
def test_hir_pins_only_tiles_where_the_pin_survives_the_step(
        rng, monkeypatch, sigma_y):
    # A clean tile's Mask projection writes y on its known pixels and the
    # freeze writes its corner, so a clean tile whose every other pixel is
    # known keeps none of the pin's values and is not pinned. A hole on
    # the 8-px lattice (rows 8-24, columns 16-32) leaves 4 of the 15 tiles
    # a pixel outside both; at sigma_y > 0, lambda < 1 and every tile is
    # pinned.
    height, width, patch, overlap, f = 32, 48, 16, 8, 2
    known = np.ones((height, width), dtype=bool)
    known[8:24, 16:32] = False
    observed = rng.uniform(-1, 1, size=(height, width, 3))
    task = InpaintTask(observed, known)
    plan2 = plan_tiles(height, width, patch, overlap, block=f)
    den = GmmDenoiser(smooth_means(2, patch, patch, seed=5), [0.5, 0.5],
                      0.05)
    cfg = SamplerConfig(T=4, travel_l=2, travel_r=2, seed=7, sigma_y=sigma_y)

    # the tiles with an unknown pixel no earlier window covers
    covered = np.zeros((height, width), dtype=bool)
    surviving = []
    for win in plan2.windows:
        ys, xs = win.slices()
        surviving.append(bool((~known[ys, xs] & ~covered[ys, xs]).any()))
        covered[ys, xs] = True
    assert sum(surviving) == 4
    pinned = surviving if sigma_y == 0 else [True] * len(surviving)

    runs = []
    real = msr.run_sampler

    def recording(op, y, denoiser, cfg, hooks=None, noise=None):
        out = real(op, y, denoiser, cfg, hooks=hooks, noise=noise)
        runs.append((bool(hooks.pre), out.copy()))
        return out

    monkeypatch.setattr(msr, "run_sampler", recording)
    with lowfreq_residuals() as trace:
        result = hir_restore(task, f, plan2, den, cfg)
    phase2 = runs[-len(plan2.windows):]
    assert [pre for pre, _ in phase2] == pinned
    assert len(trace) == sum(pinned) * cfg.travel_r * cfg.T
    coarse, image = replay_hir(task, f, plan2, den, cfg)
    assert np.array_equal(result.coarse, coarse)
    assert np.array_equal(result.image, image)

    # a tile left unpinned is y on its known pixels and the earlier tiles'
    # values on its corner
    canvas = np.zeros(task.shape)
    covered[...] = False
    for win, pin, (_, out) in zip(plan2.windows, pinned, phase2):
        ys, xs = win.slices()
        if not pin:
            assert np.array_equal(out[known[ys, xs]],
                                  observed[ys, xs][known[ys, xs]])
            assert np.array_equal(out[covered[ys, xs]],
                                  canvas[ys, xs][covered[ys, xs]])
        canvas[ys, xs] = out
        covered[ys, xs] = True


@st.composite
def hir_cases(draw):
    """(kind, factor, sr scale, height, width, patch, overlap): a 4-16 px
    patch whose plan and coarse plan both fit, with up to two strides past
    the smallest canvas per side, so a last tile may be clamped."""
    kind = draw(st.sampled_from(["generate", "sr", "inpaint"]))
    f = draw(st.sampled_from([2, 4]))
    scale = f * draw(st.sampled_from([1, 2])) if kind == "sr" else 1
    block = max(f, scale)
    patch = block * draw(st.integers(2, max(2, 8 // block)))
    overlap = block * draw(st.integers(1, patch // block - 1))
    height, width = (f * patch + block * draw(
        st.integers(0, 2 * (patch - overlap) // block)) for _ in range(2))
    return kind, f, scale, height, width, patch, overlap


@settings(max_examples=25, deadline=None, database=None)
@given(hir_cases(), st.integers(0, 2**32 - 1))
@example(("generate", 2, 1, 16, 16, 8, 4), 0)   # coarse canvas = patch
@example(("inpaint", 2, 1, 16, 16, 8, 4), 1)    # coarse canvas = patch
@example(("sr", 2, 4, 16, 16, 8, 4), 2)         # coarse canvas = patch
@example(("inpaint", 2, 1, 22, 16, 8, 4), 3)    # clamped last row
@example(("sr", 2, 2, 16, 22, 8, 4), 4)         # clamped last column
def test_hir_equals_a_two_phase_replay_bitwise(case, seed):
    kind, f, scale, height, width, patch, overlap = case
    rng = np.random.default_rng(seed)
    if kind == "generate":
        task = GenerateTask(height, width, 3)
    elif kind == "sr":
        task = SuperResolutionTask(rng.uniform(
            -1, 1, size=(height // scale, width // scale, 3)), scale)
    else:
        # whole f x f blocks known or missing, so the coarse phase sees
        # every known pixel and the residual below stays at rounding level
        coarse_known = rng.random((height // f, width // f)) < 0.5
        coarse_known[0, 0] = True
        known = coarse_known.repeat(f, axis=0).repeat(f, axis=1)
        task = InpaintTask(rng.uniform(-1, 1, size=(height, width, 3)),
                           known)
    plan2 = plan_tiles(height, width, patch, overlap, block=max(f, scale))
    den = GmmDenoiser(smooth_means(2, patch, patch, seed=seed % 1000),
                      [0.5, 0.5], 0.05)
    cfg = SamplerConfig(T=4, seed=seed)
    result = hir_restore(task, f, plan2, den, cfg)
    coarse, image = replay_hir(task, f, plan2, den, cfg)
    assert np.array_equal(result.coarse, coarse)
    assert np.array_equal(result.image, image)
    assert result.lowfreq_residual <= 1e-10
    # reduced over row bands, it equals the full-size residual exactly
    assert result.lowfreq_residual == float(np.abs(
        AvgPool(task.shape, f).forward(image) - coarse).max())
    # phase 2 to a sink: the same bands, whole f-row blocks, in order
    bands = []
    streamed = hir_restore(task, f, plan2, den, cfg, sink=lambda top, rows:
                           bands.append((top, rows.copy())))
    assert streamed.image is None
    assert all(top % f == 0 and len(rows) % f == 0 for top, rows in bands)
    assert [top for top, _ in bands] == [0] + list(np.cumsum(
        [len(rows) for _, rows in bands])[:-1])
    assert np.array_equal(np.concatenate([r for _, r in bands]), image)
    assert streamed.lowfreq_residual == result.lowfreq_residual
