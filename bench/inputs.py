"""Seeded inputs for the benchmark, written as real files.

The same seed gives byte-identical files. A prior directory (`prior.txt`
plus one PPM mean per component) is always written, so that
`load_gmm_prior` and the codec sit on the measured path; restoration
workloads also get their measurement (a low-resolution PPM, or an observed
PPM plus a PGM mask). Files are written by the small netpbm writer below,
not by tilediff, so the program only ever sees its inputs.

The component means use the cosine-mixture recipe of the test suite with
the period equal to the tile stride: the prior is then translation
invariant across tile offsets, like a denoiser trained on random crops.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .workloads import Workload

TAU = 0.05
AMPLITUDE = 0.6


def to_codes(x: np.ndarray) -> np.ndarray:
    """Model range [-1, 1] to 8-bit codes, the program's quantizer."""
    return np.rint((np.clip(x, -1.0, 1.0) + 1.0) * (255.0 / 2.0)).astype(
        np.uint8)


def write_pnm(path: str, x: np.ndarray) -> None:
    """Binary PGM (1 channel) or PPM (3 channels) from model-range data."""
    if x.ndim == 2:
        x = x[:, :, None]
    h, w, c = x.shape
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(to_codes(x).tobytes())


def read_pnm(path: str) -> np.ndarray:
    """8-bit codes (H, W, C) from a binary PGM/PPM without comments."""
    with open(path, "rb") as f:
        data = f.read()
    header = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM/PPM")
    channels = 1 if header[1] == b"P5" else 3
    width, height, maxval = (int(v) for v in header.groups()[1:])
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval}")
    payload = data[header.end():]
    if len(payload) != width * height * channels:
        raise ValueError(f"{path}: payload of {len(payload)} bytes for "
                         f"{width}x{height}x{channels}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(
        height, width, channels)


def cosine_mixture(phases: np.ndarray, height: int, width: int,
                   period: int) -> np.ndarray:
    """One smooth image per phase row: phases has shape (C, 4)."""
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    u = 2 * np.pi * yy / period
    v = 2 * np.pi * xx / period
    img = np.empty((height, width, len(phases)))
    for c, ph in enumerate(phases):
        f = (np.cos(u + ph[0]) + np.cos(v + ph[1]) +
             0.5 * np.cos(u + v + ph[2]) + 0.5 * np.cos(u - v + ph[3]))
        img[:, :, c] = f / 3.0 * AMPLITUDE
    return img


def write_inputs(wl: Workload, seed: int, directory: str) -> dict:
    """Write the workload's inputs for `seed`; return their paths."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, wl.k)))
    period = wl.patch - wl.overlap
    phases = rng.uniform(0, 2 * np.pi, size=(wl.k, 3, 4))
    weights = rng.uniform(0.5, 1.5, size=wl.k)
    weights /= weights.sum()

    prior = os.path.join(directory, "prior")
    os.makedirs(prior, exist_ok=True)
    lines = [f"tau {TAU}"]
    for i, ph in enumerate(phases):
        name = f"mean_{i}.ppm"
        write_pnm(os.path.join(prior, name),
                  cosine_mixture(ph, wl.patch, wl.patch, period))
        lines.append(f"component {float(weights[i])!r} {name}")
    with open(os.path.join(prior, "prior.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    paths = {"prior": prior}
    if wl.task == "generate":
        return paths

    # ground truth: one component, rendered over the full canvas, plus a
    # little texture so that it is not exactly a prior mean
    truth = cosine_mixture(phases[rng.integers(wl.k)], wl.height, wl.width,
                           period)
    truth += TAU * rng.standard_normal(truth.shape)
    if wl.task == "sr":
        s = wl.scale
        lr = truth.reshape(wl.height // s, s, wl.width // s, s, 3).mean(
            axis=(1, 3))
        lr += wl.sigma_y * rng.standard_normal(lr.shape)
        paths["input"] = os.path.join(directory, "lr.ppm")
        write_pnm(paths["input"], lr)
    elif wl.task == "inpaint":
        known = large_hole(rng, wl.height, wl.width)
        observed = np.where(known[:, :, None], truth, 0.0)
        paths["input"] = os.path.join(directory, "observed.ppm")
        paths["mask"] = os.path.join(directory, "mask.pgm")
        write_pnm(paths["input"], observed)
        write_pnm(paths["mask"], np.where(known, 1.0, -1.0))
    else:
        raise ValueError(f"no input recipe for task {wl.task!r}")
    return paths


def large_hole(rng: np.random.Generator, height: int, width: int,
               grid: int = 8) -> np.ndarray:
    """Known-pixel mask with one rectangular hole of 30-45% of the canvas.

    Edges sit on a `grid`-pixel lattice, so every hierarchy block is either
    wholly known or wholly missing and the low-frequency residual of a clean
    run stays at round-off.
    """
    share = rng.uniform(0.30, 0.45)
    aspect = rng.uniform(0.75, 1.33)
    hh = int(round(height * np.sqrt(share * aspect) / grid)) * grid
    hw = int(round(width * np.sqrt(share / aspect) / grid)) * grid
    hh, hw = min(max(hh, grid), height - grid), min(max(hw, grid), width - grid)
    top = int(rng.integers(0, (height - hh) // grid + 1)) * grid
    left = int(rng.integers(0, (width - hw) // grid + 1)) * grid
    known = np.ones((height, width), dtype=bool)
    known[top:top + hh, left:left + hw] = False
    return known
