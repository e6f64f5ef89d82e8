"""Command-line orchestration: job parsing, task construction, metrics.

Subcommands: generate, restore, plan (print the tile plan without running),
selftest (quick invariant checks plus a determinism probe). Each job option
is a JobSpec field, whose metadata gives its flag and subcommands; options
can also come from a `key = value` config file (# comments) keyed by field
name, and command-line flags win. Each file line is checked as it is read,
as its flag would be, and a bad one is a usage error naming the file and
line. HiR's coarse-canvas rule is `hir.check_coarse_canvas`.
Every run writes the output image and a metrics.txt with the consistency
error, per-seam statistics, wall clock, and step count.

A job's finish streams: `run_job` hands the tiling pass a sink that takes
each finished row band, has the output's writer check it finite, quantize
it and append its codes to the file, then adds it to the consistency and
seam statistics. The file is written under a part name and renamed into
place only when the job succeeds. Every restore input, SR's low-resolution
image included, stays 8-bit codes on disk (`imagecore.read_codes`), read
one window at a time through a `CodeReader`.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
import typing

import numpy as np

from . import denoise, linops, tasks
from .hir import check_coarse_canvas, hir_restore
# load_image is unused here: bench/tests checks that tracing restores it
from .imagecore import CodeReader, load_image, pnm_writer, read_codes
from .msr import TilePlan, check_geometry, msr_restore, plan_tiles
from .sampler import SamplerConfig, SamplerError
from .schedule import build_schedule
from .tasks import consistency

TASK_NAMES = ("sr", "inpaint", "colorize", "denoise", "generate")

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


class JobError(ValueError):
    """Invalid or inconsistent job specification."""


def _option(default=None, commands=("restore", "generate"), **meta):
    """A JobSpec field and its flag: `commands` are the subcommands that
    take it; `flag` (default --name-with-dashes), `help` and `choices` go
    to add_argument. The flag's type is the field's annotation."""
    return dataclasses.field(default=default,
                             metadata=dict(meta, commands=commands))


@dataclasses.dataclass
class JobSpec:
    task: str | None = _option(commands=("restore",), choices=[
        t for t in TASK_NAMES if t != "generate"])
    scale: int | None = _option(commands=("restore",), help="SR factor")
    mask: str | None = _option(commands=("restore",),
                               help="PGM mask, 0=missing 255=known")
    sigma_y: float = _option(0.0)
    width: int | None = _option(commands=("generate",))
    height: int | None = _option(commands=("generate",))
    patch: int = _option(64)
    overlap: int = _option(32)
    steps: int = _option(100, help="diffusion steps T")
    eta: float = _option(0.85)
    travel_l: int = _option(10)
    travel_r: int = _option(3)
    hir_factor: int = _option(
        0, help="coarse-phase downsample factor >= 2, 0 = off")
    seed: int = _option(0)
    prior: str | None = _option(help="prior directory with prior.txt")
    input: str | None = _option(commands=("restore",), flag="--in")
    output: str | None = _option(flag="--out")
    naive: bool = _option(False, help="solve tiles independently (no "
                          "overlap constraint); baseline for comparison")

    def sampler_config(self) -> SamplerConfig:
        """The sampler settings; SamplerConfig checks their ranges."""
        return SamplerConfig(T=self.steps, eta=self.eta,
                             travel_l=self.travel_l, travel_r=self.travel_r,
                             seed=self.seed, sigma_y=self.sigma_y)


def _option_type(hint):
    """The value type of a JobSpec annotation, without its `| None`."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


_TYPES = {name: _option_type(hint)
          for name, hint in typing.get_type_hints(JobSpec).items()}


def _read_config(path: str, command: str) -> dict:
    """A config file's values: keys the command has flags for, values of
    their fields' types and within their flags' choices."""
    fields = {f.name: f.metadata for f in dataclasses.fields(JobSpec)
              if command in f.metadata["commands"]}
    values = {}
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as e:  # missing, a directory, unreadable
        raise JobError(f"cannot read config {path}: {e.strerror}") from None
    with f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise JobError(f"{path}:{lineno}: expected `key = value`")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key not in fields:
                raise JobError(
                    f"{path}:{lineno}: unknown key {key!r} for {command}")
            typ = _TYPES[key]
            try:
                value = _BOOLS[val.lower()] if typ is bool else typ(val)
            except (KeyError, ValueError):
                raise JobError(
                    f"{path}:{lineno}: bad {typ.__name__} value {val!r} "
                    f"for {key}") from None
            choices = fields[key].get("choices")
            if choices and value not in choices:
                raise JobError(
                    f"{path}:{lineno}: {key} must be one of "
                    f"{', '.join(choices)} for {command}, got {value!r}")
            values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilediff",
        description="Tiled diffusion restoration and generation")
    sub = parser.add_subparsers(dest="command", required=True)

    jobs = {"restore": sub.add_parser("restore",
                                      help="solve an inverse problem"),
            "generate": sub.add_parser("generate",
                                       help="sample an image from the prior")}
    for command, p in jobs.items():
        p.add_argument("--config", help="key = value option file")
        for field in dataclasses.fields(JobSpec):
            meta = dict(field.metadata)
            if command not in meta.pop("commands"):
                continue
            flag = meta.pop("flag", "--" + field.name.replace("_", "-"))
            if _TYPES[field.name] is bool:
                meta.update(action="store_const", const=True)
            else:
                meta.update(type=_TYPES[field.name])
            p.add_argument(flag, dest=field.name, **meta)

    p_plan = sub.add_parser("plan", help="print the tile plan and exit")
    p_plan.add_argument("--width", type=int, required=True)
    p_plan.add_argument("--height", type=int, required=True)
    p_plan.add_argument("--patch", type=int, default=JobSpec.patch)
    p_plan.add_argument("--overlap", type=int, default=JobSpec.overlap)
    p_plan.add_argument("--block", type=int, default=1)

    sub.add_parser("selftest", help="run built-in invariant checks")
    return parser


def parse_job(argv) -> tuple[str, JobSpec | argparse.Namespace]:
    """Parse argv into (command, JobSpec); flags override config values."""
    args = _build_parser().parse_args(argv)
    if args.command in ("plan", "selftest"):
        return args.command, args
    values = _read_config(args.config, args.command) if args.config else {}
    for key in _TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if args.command == "generate":
        values["task"] = "generate"
    job = JobSpec(**values)
    validate_job(job)
    return args.command, job


def validate_job(job: JobSpec):
    """Check what no library object checks for the job; the sampler
    settings and the tile geometry are checked by SamplerConfig and
    check_geometry, and a generate canvas by plan_tiles."""
    if job.task not in TASK_NAMES:
        raise JobError(f"task must be one of {TASK_NAMES}, got {job.task!r}")
    if job.prior is None:
        raise JobError("missing required option: prior")
    if job.output is None:
        raise JobError("missing required option: out")
    if job.task == "generate":
        if job.width is None or job.height is None:
            raise JobError("generate requires width and height")
    else:
        if job.input is None:
            raise JobError(f"task {job.task} requires an input image")
    for key, owner in (("scale", "sr"), ("mask", "inpaint")):
        given = getattr(job, key) not in (None, "")
        if job.task == owner and not given:
            raise JobError(f"{owner} requires {key}")
        if given and job.task != owner:
            raise JobError(f"{key} is for task {owner} only, not {job.task}")
    if job.task == "sr" and job.scale < 1:
        raise JobError(f"scale must be >= 1, got {job.scale}")
    if job.hir_factor < 0 or job.hir_factor == 1:
        raise JobError("hir-factor must be 0 (off) or >= 2")
    if job.naive and job.hir_factor:
        raise JobError("naive cannot be combined with hir-factor >= 2")
    try:
        job.sampler_config()
        if job.task == "sr" and job.hir_factor >= 2:
            tasks.check_sr_hierarchy(job.scale, job.hir_factor)
        check_geometry(job.patch, job.overlap, _job_block(job))
        if job.task == "generate":
            plan_tiles(job.height, job.width, job.patch, job.overlap,
                       _job_block(job))
            if job.hir_factor >= 2:
                check_coarse_canvas(job.height, job.width, job.hir_factor,
                                    job.patch)
    except ValueError as e:
        raise JobError(str(e)) from None


def _job_block(job: JobSpec) -> int:
    block = job.scale if job.task == "sr" else 1
    if job.hir_factor >= 2:
        block = math.lcm(block, job.hir_factor)
    return block


def _build_task(job: JobSpec) -> tasks.Task:
    if job.task == "generate":
        return tasks.GenerateTask(job.height, job.width, 3)
    # the input's codes, converted one window at a time
    img = CodeReader(read_codes(job.input))
    if job.task == "sr":
        return tasks.SuperResolutionTask(img, job.scale)
    if job.task == "inpaint":
        return tasks.InpaintTask(img, linops.load_mask(job.mask))
    if job.task == "colorize":
        return tasks.ColorizeTask(img)
    if job.task == "denoise":
        return tasks.DenoiseTask(img)
    raise JobError(f"unhandled task {job.task}")


def _seam_lines(starts, extent: int, patch: int) -> list[int]:
    """The internal tile boundary lines of one axis, from the tile
    starts."""
    lines = set()
    for i in range(1, len(starts)):
        lines.add(starts[i])
        if starts[i - 1] + patch < extent:
            lines.add(starts[i - 1] + patch)
    return sorted(lines)


def _seam_band(c: int, extent: int) -> tuple[int, int]:
    """Differences [lo, hi) of the interior band of the seam at line c,
    difference k being |line k+1 - line k|: five after the line, or before
    it when the canvas ends first (an empty band has median 0)."""
    lo = c + 1
    hi = min(lo + 5, extent - 1)
    if hi - lo < 5:
        hi = max(c - 2, 0)
        lo = max(hi - 5, 0)
    return lo, hi


def _median_of_counts(counts: np.ndarray) -> float:
    """np.median of the values 0, 1, ... repeated counts[v] times."""
    n = int(counts.sum())
    if n == 0:
        return 0.0
    low, high = np.searchsorted(np.cumsum(counts), [(n - 1) // 2, n // 2],
                                side="right")
    return (int(low) + int(high)) / 2


class SeamMeter:
    """Per-seam excess of the boundary first-difference over interior
    texture, measured on the 8-bit codes written, band by band.

    For each internal tile boundary line: max |first difference| across
    the line, minus the median |first difference| in the line's interior
    band (`_seam_band`); clamped at 0. `add(codes)` takes each row band's
    codes in order. Each seam keeps its maximum so far and a count of each
    band difference (0 to 255), which give the median exactly. A row
    difference across two bands reads the last row of the band before, the
    one row the meter keeps. A seam's excess, in codes, is scaled by 2/255,
    the step of one code in model values.
    """

    def __init__(self, plan: TilePlan):
        self._seams = [(axis, c, _seam_band(c, extent))
                       for axis, starts, extent in (
                           ("col", plan.lefts, plan.width),
                           ("row", plan.tops, plan.height))
                       for c in _seam_lines(starts, extent, plan.patch)]
        self._max = [0] * len(self._seams)
        self._counts = np.zeros((len(self._seams), 256), dtype=np.int64)
        self._top = 0  # canvas row of the next band
        self._last = None  # the last code row given

    def add(self, codes: np.ndarray):
        band = codes.astype(np.int16)
        rows = band if self._last is None else np.concatenate(
            (self._last, band))
        diffs = {"row": (np.abs(np.diff(rows, axis=0)),
                         self._top - (len(rows) - len(band))),
                 "col": (np.abs(np.diff(band, axis=1)).swapaxes(0, 1), 0)}
        for i, (axis, c, (lo, hi)) in enumerate(self._seams):
            d, first = diffs[axis]
            # d[j] is difference first + j, across line first + j + 1
            end = first + len(d)
            if first < c <= end:
                self._max[i] = max(self._max[i], int(d[c - 1 - first].max()))
            lo, hi = max(lo, first), min(hi, end)
            if lo < hi:
                self._counts[i] += np.bincount(
                    d[lo - first:hi - first].ravel(), minlength=256)
        self._top += len(codes)
        self._last = band[-1:].copy()

    def results(self) -> list[tuple[str, int, float]]:
        """(axis, position, value) of every seam, columns then rows, each
        in order of position, once every row has been added."""
        return [(axis, c, max(m - _median_of_counts(n), 0.0) * (2.0 / 255.0))
                for (axis, c, _), m, n in zip(self._seams, self._max,
                                              self._counts)]


class _Finish:
    """run_job's sink: each finished row band (`imagecore.row_bands`) is
    written (the writer checks it finite) and measured (consistency,
    seams), so each of its temporaries is one band's size."""

    def __init__(self, task: tasks.Task, plan: TilePlan, write):
        self.task = task
        self.write = write
        self.consistency = 0.0
        self.seams = SeamMeter(plan)

    def __call__(self, top: int, rows: np.ndarray):
        codes = self.write(rows)
        self.consistency = max(self.consistency,
                               consistency(self.task, rows, top))
        self.seams.add(codes)


def run_job(job: JobSpec) -> int:
    """Execute a validated job; write the output image and metrics.txt.

    A bad job or file gives status 1. A diverged sampler (SamplerError) is
    recorded in metrics.txt too, then re-raised so that library callers can
    tell it from a rejected job. An output directory that cannot be made
    raises its OSError before anything is written. `main` reports either
    as status 1.
    """
    start = time.monotonic()
    metrics: dict[str, object] = {}
    out_dir = os.path.dirname(os.path.abspath(job.output))
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    diverged = None
    try:
        denoiser = denoise.load_gmm_prior(job.prior)
        ph, pw = denoiser.input_shape[:2]
        if (ph, pw) != (job.patch, job.patch):
            raise JobError(
                f"prior images are {ph}x{pw} but patch is {job.patch}")
        task = _build_task(job)
        block = _job_block(job)
        plan = plan_tiles(task.shape[0], task.shape[1], job.patch,
                          job.overlap, block=block)
        cfg = job.sampler_config()
        with pnm_writer(job.output, *task.shape) as write:
            finish = _Finish(task, plan, write)
            if job.hir_factor >= 2:
                result = hir_restore(task, job.hir_factor, plan, denoiser,
                                     cfg, sink=finish)
                metrics["lowfreq_residual"] = result.lowfreq_residual
            else:
                msr_restore(task, plan, denoiser, cfg,
                            use_mask_hook=not job.naive, sink=finish)
        metrics["consistency"] = finish.consistency
        seams = finish.seams.results()
        metrics["seam_max"] = max((v for _, _, v in seams), default=0.0)
        for axis, pos, v in seams:
            metrics[f"seam_{axis}_{pos}"] = v
        metrics["steps"] = denoiser.calls
        print(f"wrote {job.output}")
    except (JobError, ValueError, OSError) as e:
        metrics["error"] = str(e)
        print(f"error: {e}", file=sys.stderr)
        status = 1
    except SamplerError as e:
        metrics["error"] = str(e)
        diverged = e
    metrics["wall_clock_sec"] = time.monotonic() - start
    metrics_path = os.path.join(out_dir, "metrics.txt")
    with open(metrics_path, "w", encoding="utf-8") as f:
        for key, val in metrics.items():
            f.write(f"{key}: {val}\n")
    if diverged is not None:
        raise diverged
    return status


def run_plan(args) -> int:
    plan = plan_tiles(args.height, args.width, args.patch, args.overlap,
                      block=args.block)
    print(f"{plan.rows} x {plan.cols} tiles, patch {plan.patch}, "
          f"overlap {plan.overlap}, stride {plan.stride}")
    for row, top in enumerate(plan.tops):
        for col, left in enumerate(plan.lefts):
            print(f"tile {row * plan.cols + col} (row {row}, col {col}): "
                  f"top={top} left={left} {plan.patch}x{plan.patch}")
    return 0


def run_selftest() -> int:
    """Quick invariant checks plus a fixed-seed determinism probe."""
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        if not ok:
            failures += 1

    rng = np.random.default_rng(1234)
    ops = [linops.AvgPool((8, 8, 3), 2),
           linops.Mask(rng.random((8, 8, 3)) < 0.5),
           linops.Gray((8, 8, 3)),
           linops.Identity((8, 8, 3))]
    worst = 0.0
    for op in ops:
        for _ in range(20):
            x = rng.standard_normal(op.input_shape)
            ax = op.forward(x)
            worst = max(worst, float(np.abs(
                op.forward(op.pinv(ax)) - ax).max()))
            px = op.range_project(x)
            worst = max(worst, float(np.abs(
                op.range_project(px) - px).max()))
            # the projection is consistent with y and idempotent
            y = op.forward(rng.standard_normal(op.input_shape))
            px = op.project(y, x)
            worst = max(worst, float(np.abs(op.forward(px) - y).max()),
                        float(np.abs(op.project(y, px) - px).max()))
    check(f"operator identities (max err {worst:.2e})", worst <= 1e-10)

    sched = build_schedule(100)
    vp = float(np.abs(sched.a**2 + sched.sigma**2 - 1.0).max())
    check(f"variance-preserving schedule (max err {vp:.2e})", vp <= 1e-12)

    mu = np.zeros((16, 16, 3))
    den = denoise.GmmDenoiser([mu], [1.0], 0.5)
    gen = tasks.GenerateTask(16, 24, 3)
    plan = plan_tiles(16, 24, 16, 8)
    cfg = SamplerConfig(T=20, seed=99)
    runs = [msr_restore(gen, plan, den, cfg).tobytes() for _ in range(2)]
    check("fixed-seed determinism (identical output bytes)",
          runs[0] == runs[1])

    print(f"selftest: {'OK' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, job = parse_job(argv)
        if command == "plan":
            return run_plan(job)
    except ValueError as e:  # a JobError, or a tile geometry plan_tiles rejects
        print(f"error: {e}", file=sys.stderr)
        return 2
    if command == "selftest":
        return run_selftest()
    try:
        return run_job(job)
    except (SamplerError, OSError) as e:  # divergence, or no output directory
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
