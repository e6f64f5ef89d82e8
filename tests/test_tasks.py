import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilediff.denoise import GmmDenoiser
from tilediff.hir import hir_restore
from tilediff.imagecore import (CodeReader, Window, load_image, model_values,
                                read_codes, row_bands)
from tilediff.linops import Mask
from tilediff.msr import msr_restore, plan_tiles
from tilediff.sampler import SamplerConfig
from tilediff.tasks import (ColorizeTask, DenoiseTask, GenerateTask,
                            InpaintTask, SuperResolutionTask, consistency)

import oracles
from conftest import same_bits, smooth_means, write_image


RGB = r"must be \(H, W, C\), got shape "
GRAY = r"must be \(H, W\) or \(H, W, 1\), got shape "


@pytest.mark.parametrize("build, message", [
    pytest.param(
        lambda: InpaintTask(np.zeros((8, 8)), np.ones((8, 8), dtype=bool)),
        RGB + r"\(8, 8\)", id="inpaint"),
    pytest.param(lambda: DenoiseTask(np.zeros((8, 8))),
                 RGB + r"\(8, 8\)", id="denoise"),
    pytest.param(lambda: SuperResolutionTask(np.zeros((8, 8)), 2),
                 RGB + r"\(8, 8\)", id="sr"),
    # colorization takes (H, W) or (H, W, 1); a 1-D input has no pixel
    # axes, and a 4-D one would make every tile measurement 4-D
    pytest.param(lambda: ColorizeTask(np.zeros(8)),
                 GRAY + r"\(8,\)", id="colorize-1d"),
    pytest.param(lambda: ColorizeTask(np.zeros((8, 8, 1, 1))),
                 GRAY + r"\(8, 8, 1, 1\)", id="colorize-4d"),
    pytest.param(lambda: ColorizeTask(np.zeros((8, 8, 3))),
                 GRAY + r"\(8, 8, 3\)", id="colorize-rgb")])
def test_task_rejects_an_input_without_a_channel_axis(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("task", [
    SuperResolutionTask(np.zeros((4, 4, 3)), 2),
    InpaintTask(np.zeros((8, 8, 3)), np.ones((8, 8), dtype=bool)),
    ColorizeTask(np.zeros((8, 8, 1))),
    DenoiseTask(np.zeros((8, 8, 3))),
    GenerateTask(8, 8)],
    ids=["sr", "inpaint", "colorize", "denoise", "generate"])
@pytest.mark.parametrize("win", [Window(4, 0, 8, 8), Window(0, 4, 8, 8),
                                 Window(4, 4, 8, 8)],
                         ids=["rows", "cols", "both"])
def test_tile_problem_rejects_a_window_that_leaves_the_canvas(task, win):
    # numpy slicing would clip the window to the canvas without a word
    with pytest.raises(ValueError, match="leaves the 8x8 canvas"):
        task.tile_problem(win)


def test_consistency_rejects_a_band_past_the_last_row():
    # a 4-row band at row 6 of an 8-row canvas: clipped, its one low-res
    # row would broadcast against the band's two
    task = SuperResolutionTask(np.zeros((4, 4, 3)), 2)
    with pytest.raises(ValueError, match="leaves the 8x8 canvas"):
        consistency(task, np.zeros((4, 8, 3)), top=6)


def _soft_masks():
    """Masks with values other than 0 and 1: 0.5 over 2 on an 8 x 8 map,
    and a 40-row 0/1 map, past two row bands, with one 2 in its last
    row."""
    soft = np.ones((8, 8))
    soft[:4], soft[4:] = 0.5, 2.0
    late = np.tile(np.arange(8) % 2, (40, 1))
    late[39, 5] = 2
    return [soft, late]


@pytest.mark.parametrize("build", [
    lambda m: Mask(m, channels=3),
    lambda m: InpaintTask(np.zeros(m.shape + (3,)), m)],
    ids=["Mask", "InpaintTask"])
@pytest.mark.parametrize("known", _soft_masks(), ids=["soft", "late"])
def test_a_mask_array_holds_booleans_or_zeros_and_ones(build, known):
    # nonzero is not "known": a value other than 0 or 1 is an input error
    with pytest.raises(ValueError, match=r"mask must be binary \(0 or 1\)"):
        build(known)
    # 0/1 values of any dtype are the booleans they stand for
    ones = known == 1
    for values in (ones.astype(np.uint8), ones.astype(np.float64)):
        assert same_bits(build(values).known, build(ones).known)


def _sr_from_codes_and_floats(tmp_path, rng):
    """The same 4x SR task onto a 40 x 48 canvas twice: over a CodeReader
    of a file's codes, as `cli` builds it, and over the file's values as a
    float array."""
    path = tmp_path / "lr.ppm"
    write_image(path, rng.uniform(-1, 1, size=(10, 12, 3)))
    return (SuperResolutionTask(CodeReader(read_codes(path)), 4),
            SuperResolutionTask(load_image(path).data, 4))


def test_sr_from_codes_has_the_tile_problems_and_residuals_of_floats(
        tmp_path, rng):
    coded, floats = _sr_from_codes_and_floats(tmp_path, rng)
    # kept as codes, also by the coarse phase's task, so each window is
    # converted as it is read
    assert isinstance(coded.y, CodeReader)
    assert coded.reduce(2).y is coded.y
    plan = plan_tiles(40, 48, 16, 8, block=4)
    for win in plan.windows:
        (op_c, y_c), (op_f, y_f) = coded.tile_problem(win), \
            floats.tile_problem(win)
        assert op_c.input_shape == op_f.input_shape
        assert same_bits(y_c, y_f)
    x = rng.uniform(-1, 1, size=coded.shape)
    for ys in row_bands(40):
        assert consistency(coded, x[ys], ys.start) == \
            consistency(floats, x[ys], ys.start)


@pytest.mark.parametrize("sigma_y", [0.0, 0.1])
def test_sr_from_codes_restores_the_bits_of_floats(tmp_path, rng, sigma_y):
    # tiled whole, and with HiR at factor 2
    coded, floats = _sr_from_codes_and_floats(tmp_path, rng)
    den = GmmDenoiser(smooth_means(2, 16, 16, seed=3, period=8), [0.5, 0.5],
                      0.05)
    cfg = SamplerConfig(T=4, seed=9, sigma_y=sigma_y)
    plan = plan_tiles(40, 48, 16, 8, block=4)
    assert same_bits(msr_restore(coded, plan, den, cfg),
                     msr_restore(floats, plan, den, cfg))
    got, want = (hir_restore(t, 2, plan, den, cfg) for t in (coded, floats))
    assert same_bits(got.image, want.image)
    assert same_bits(got.coarse, want.coarse)
    assert got.lowfreq_residual == want.lowfreq_residual


def _inputs(rng, height, width, channels, readers):
    """A random image and mask of the given size, as arrays of model
    values and booleans, or as CodeReaders over their codes, as `cli`
    builds them."""
    codes = rng.integers(0, 256, size=(height, width, channels),
                         dtype=np.uint8)
    mask = np.where(rng.random((height, width)) < 0.9, 255, 0).astype(
        np.uint8)
    if readers:
        return CodeReader(codes), CodeReader(mask, lambda b: b == 255)
    return model_values(codes), mask == 255


@settings(max_examples=40, deadline=None)
@given(f=st.sampled_from([2, 3, 4]), channels=st.sampled_from([1, 3]),
       readers=st.booleans(), patch=st.sampled_from([4, 6, 8]),
       overlap=st.integers(1, 7), height=st.integers(0, 12),
       width=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:reduced inpainting mask")
def test_a_reduced_task_pools_each_window_as_the_whole_pooled_input(
        f, channels, readers, patch, overlap, height, width, seed):
    # every window of a coarse plan whose last tiles are clamped to the
    # canvas edge, read from the reduced task, is bitwise the same window
    # of the whole pooled input
    overlap = min(overlap, patch - 1)
    h, w = patch + height, patch + width
    obs, known = _inputs(np.random.default_rng(seed), h * f, w * f,
                         channels, readers)
    red = InpaintTask(obs, known).reduce(f)
    want_obs = oracles.pool(obs, f, np.mean)
    want_known = oracles.pool(known, f, np.all)
    assert red.shape == want_obs.shape == (h, w, channels)
    for win in plan_tiles(h, w, patch, overlap).windows:
        ys, xs = win.slices()
        assert same_bits(red.observed[ys, xs, :], want_obs[ys, xs, :])
        assert same_bits(red.known[ys, xs], want_known[ys, xs])
    assert same_bits(np.asarray(red.observed), want_obs)
    assert same_bits(np.asarray(red.known), want_known)


@pytest.mark.parametrize("f", [2, 4])
@pytest.mark.parametrize("readers", [False, True], ids=["arrays", "codes"])
def test_reduced_tasks_have_the_tile_problems_of_whole_pooled_inputs(
        rng, f, readers):
    # the reduced task against the same task built on its input pooled
    # whole, as reduce built it before it pooled one window at a time
    obs, known = _inputs(rng, 48 * f, 40 * f, 3, readers)
    gray, _ = _inputs(rng, 48 * f, 40 * f, 1, readers)
    pairs = [
        (InpaintTask(obs, known).reduce(f),
         InpaintTask(oracles.pool(obs, f, np.mean),
                     oracles.pool(known, f, np.all))),
        (ColorizeTask(gray).reduce(f),
         ColorizeTask(oracles.pool(gray, f, np.mean))),
        (DenoiseTask(obs).reduce(f),
         DenoiseTask(oracles.pool(obs, f, np.mean)))]
    plan = plan_tiles(48, 40, 16, 6)
    for red, whole in pairs:
        assert red.shape == whole.shape
        for win in plan.windows:
            (op_r, y_r), (op_w, y_w) = red.tile_problem(win), \
                whole.tile_problem(win)
            assert type(op_r) is type(op_w)
            assert op_r.input_shape == op_w.input_shape
            if isinstance(op_w, Mask):
                assert same_bits(op_r.known, op_w.known)
            assert same_bits(y_r, y_w)
