import numpy as np
import pytest

from tilediff.imagecore import Window
from tilediff.tasks import (ColorizeTask, DenoiseTask, InpaintTask,
                            SuperResolutionTask, consistency)


@pytest.mark.parametrize("build", [
    lambda: InpaintTask(np.zeros((8, 8)), np.ones((8, 8), dtype=bool)),
    lambda: DenoiseTask(np.zeros((8, 8))),
    lambda: SuperResolutionTask(np.zeros((8, 8)), 2)],
    ids=["inpaint", "denoise", "sr"])
def test_task_rejects_an_input_without_a_channel_axis(build):
    with pytest.raises(ValueError,
                       match=r"must be \(H, W, C\), got shape \(8, 8\)"):
        build()


@pytest.mark.parametrize("task", [
    SuperResolutionTask(np.zeros((4, 4, 3)), 2),
    InpaintTask(np.zeros((8, 8, 3)), np.ones((8, 8), dtype=bool)),
    ColorizeTask(np.zeros((8, 8, 1))),
    DenoiseTask(np.zeros((8, 8, 3)))],
    ids=["sr", "inpaint", "colorize", "denoise"])
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
