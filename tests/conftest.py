import contextlib
import threading

import numpy as np
import pytest

from tilediff import cli, hir, imagecore


def smooth_means(k, height, width, channels=3, seed=0, amplitude=0.6,
                 period=32):
    """K distinct smooth images in [-amplitude, amplitude]: cosine mixtures
    with per-component random phases.

    The pattern repeats every `period` pixels. Keeping period equal to the
    tile stride makes the prior translation-invariant across tile offsets,
    like a denoiser trained on random crops; otherwise tiled generation has
    genuine seams no overlap constraint can remove.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    u = 2 * np.pi * yy / period
    v = 2 * np.pi * xx / period
    means = []
    for _ in range(k):
        img = np.zeros((height, width, channels))
        for c in range(channels):
            ph = rng.uniform(0, 2 * np.pi, size=4)
            f = (np.cos(u + ph[0]) + np.cos(v + ph[1]) +
                 0.5 * np.cos(u + v + ph[2]) + 0.5 * np.cos(u - v + ph[3]))
            img[:, :, c] = f / 3.0 * amplitude
        means.append(img)
    return means


def same_bits(a, b):
    """Equal shape, dtype and bytes: unlike np.array_equal, tells -0.0
    from +0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def seam_metric(img, plan, tops=None):
    """cli.SeamMeter's (axis, position, value) list for a whole image, as
    a job reports it: the image's codes given in row bands starting at
    `tops`, by default the plan's tile rows, as a tiling pass gives them."""
    meter = cli.SeamMeter(plan)
    codes = imagecore.quantize(imagecore.Image(img))
    tops = tuple(plan.tops if tops is None else tops) + (plan.height,)
    for top, end in zip(tops, tops[1:]):
        meter.add(codes[top:end])
    return meter.results()


def constant_means(levels, height, width, channels=3):
    return [np.full((height, width, channels), float(v)) for v in levels]


@contextlib.contextmanager
def lowfreq_residuals():
    """A list that gets max |A_sr out - ref| after every call of a HiR
    low-frequency hook made inside the block.

    Patched with try/finally rather than the monkeypatch fixture, because
    test_acceptance.py also runs as a plain script.
    """
    trace = []
    real = hir._lowfreq_hook

    def recording(sr, ref):
        hook = real(sr, ref)

        def wrapped(x0t, t):
            out = hook(x0t, t)
            trace.append(float(np.abs(sr.forward(out) - ref).max()))
            return out

        return wrapped

    hir._lowfreq_hook = recording
    try:
        yield trace
    finally:
        hir._lowfreq_hook = real


@contextlib.contextmanager
def noise_thread_starts():
    """A list that gets the name of every tilediff-noise thread started
    inside the block."""
    names = []
    real = threading.Thread.start

    def start(self):
        if self.name == "tilediff-noise":
            names.append(self.name)
        return real(self)

    threading.Thread.start = start
    try:
        yield names
    finally:
        threading.Thread.start = real


def within(fn, seconds=10.0):
    """fn()'s result, computed on a helper thread so that a call that never
    returns fails the test instead of hanging it; fn's error, pytest's
    outcomes (fail, skip) included, is re-raised."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:
            out["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(seconds)
    assert not th.is_alive(), "the call did not return"
    if "error" in out:
        raise out["error"]
    return out["result"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
