import numpy as np
import pytest

from tilediff.imagecore import Window
from tilediff.tasks import (ColorizeTask, DenoiseTask, GenerateTask,
                            InpaintTask, SuperResolutionTask, consistency)


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
