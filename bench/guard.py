"""Correctness guard: the checks that make a benchmark job count as failed.

A job fails when it raises, returns a non-zero status, writes an output
that does not decode to the workload's shape, runs a different number of
denoiser steps than tiles x steps per tile, breaks measurement consistency
(or the low-frequency pin of the hierarchy) on a clean task, or, for the
reference seed, drifts from the stored reference output.

The reference is stored as the output's sha256 and its 16x16 block means in
8-bit codes. Only the block means are compared, within REF_TOL codes, so a
change of floating-point order that flips a few codes passes while a wrong
output does not; the sha256 is reported alongside so exact changes show.
Re-recording needs `bench/run.py --accept`.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .inputs import read_pnm
from .workloads import Workload

CLEAN_TOL = 1e-9   # max |A x - y| and low-frequency residual, clean tasks
REF_TOL = 2.0      # max |block mean - reference block mean|, 8-bit codes
REF_BLOCK = 16
REF_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


def read_metrics(path: str) -> dict[str, str]:
    """The `key: value` lines of a metrics.txt."""
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            key, sep, val = line.partition(":")
            if sep:
                out[key.strip()] = val.strip()
    return out


def thumbnail(codes: np.ndarray, block: int = REF_BLOCK) -> np.ndarray:
    """Block means of 8-bit codes; trailing partial blocks are dropped."""
    h, w, c = codes.shape
    h, w = h // block * block, w // block * block
    return codes[:h, :w].astype(np.float64).reshape(
        h // block, block, w // block, block, c).mean(axis=(1, 3))


def load_reference(workload: str):
    """The stored reference of `workload`, or None."""
    try:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as f:
            return json.load(f)["workloads"].get(workload)
    except FileNotFoundError:
        return None


def record_reference(workload: str, sha256: str, thumb) -> None:
    """Store `thumb` (block means, array-like) as the workload's reference."""
    thumb = np.asarray(thumb, dtype=np.float64)
    data = {"seed": REF_SEED, "block": REF_BLOCK, "tolerance_codes": REF_TOL,
            "workloads": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, "r", encoding="utf-8") as f:
            data = json.load(f)
    data["workloads"][workload] = {
        "sha256": sha256, "shape": list(thumb.shape),
        "thumbnail": [round(float(v), 3) for v in thumb.ravel()]}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def check_job(wl: Workload, status, error: str | None, output: str,
              predict_calls: int | None = None,
              reference: dict | None = None) -> tuple[list[str], str | None]:
    """(failure reasons, output sha256) of one finished job."""
    if error is not None:
        return [f"raised {error}"], None
    if status != 0:
        return [f"returned status {status}"], None
    failures = []
    try:
        with open(output, "rb") as f:
            sha = hashlib.sha256(f.read()).hexdigest()
        codes = read_pnm(output)
        metrics = read_metrics(os.path.join(os.path.dirname(output),
                                            "metrics.txt"))
    except (OSError, ValueError) as e:
        return [f"output unreadable: {e}"], None
    if codes.shape != (wl.height, wl.width, 3):
        failures.append(f"output shape {codes.shape} != "
                        f"{(wl.height, wl.width, 3)}")
    steps = metrics.get("steps")
    if steps != str(wl.job_steps):
        failures.append(f"metrics.txt steps {steps} != {wl.job_steps}")
    if predict_calls is not None and predict_calls != wl.job_steps:
        failures.append(f"predict_eps calls {predict_calls} != "
                        f"{wl.job_steps}")
    if wl.clean:
        keys = ["consistency"] + (["lowfreq_residual"]
                                  if wl.hir_factor >= 2 else [])
        for key in keys:
            try:
                value = float(metrics[key])
            except (KeyError, ValueError):
                failures.append(f"metrics.txt has no numeric {key}")
                continue
            if not value <= CLEAN_TOL:
                failures.append(f"{key} {value:.3e} > {CLEAN_TOL:.0e}")
    if reference is not None and not failures:
        ref = np.asarray(reference["thumbnail"]).reshape(reference["shape"])
        diff = float(np.abs(thumbnail(codes) - ref).max())
        if not diff <= REF_TOL:
            failures.append(f"block means differ from the reference by "
                            f"{diff:.2f} codes > {REF_TOL}")
    return failures, sha
