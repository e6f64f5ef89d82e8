import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tilediff
from tilediff import cli, denoise, imagecore, linops, tasks
from tilediff.cli import JobError, parse_job, run_job
from tilediff.denoise import Denoiser
from tilediff.hir import hir_restore
from tilediff.linops import AvgPool
from tilediff.msr import msr_restore, plan_tiles
from tilediff.sampler import SamplerError

import oracles
from conftest import seam_metric, smooth_means, write_image
from test_denoise import write_prior
from test_msr import accepted_geometries

PATCH, OVERLAP = 64, 32


@pytest.fixture
def prior_dir(tmp_path):
    d = tmp_path / "prior"
    d.mkdir()
    means = smooth_means(2, PATCH, PATCH, seed=11)
    write_prior(d, means, [0.5, 0.5], 0.05)
    return d


def test_parse_sr_happy_path(tmp_path, prior_dir):
    cmd, job = parse_job([
        "restore", "--task", "sr", "--scale", "4",
        "--in", "lr.ppm", "--out", str(tmp_path / "sr.ppm"),
        "--prior", str(prior_dir), "--seed", "7"])
    assert cmd == "restore"
    assert job.task == "sr" and job.scale == 4 and job.seed == 7
    assert job.eta == 0.85 and job.steps == 100  # defaults
    assert job.travel_l == 10 and job.travel_r == 3


def test_parse_rejects_misaligned_patch(tmp_path, prior_dir):
    with pytest.raises(JobError, match="multiples"):
        parse_job([
            "restore", "--task", "sr", "--scale", "4", "--patch", "62",
            "--overlap", "32", "--in", "x.ppm", "--out", "y.ppm",
            "--prior", str(prior_dir)])


def test_parse_missing_required():
    with pytest.raises(JobError, match="scale"):
        parse_job(["restore", "--task", "sr", "--in", "x.ppm",
                   "--out", "y.ppm", "--prior", "p/"])
    with pytest.raises(JobError, match="mask"):
        parse_job(["restore", "--task", "inpaint", "--in", "x.ppm",
                   "--out", "y.ppm", "--prior", "p/"])
    with pytest.raises(JobError, match="width"):
        parse_job(["generate", "--out", "y.ppm", "--prior", "p/"])


def test_config_file_and_flag_precedence(tmp_path, prior_dir):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text(
        "eta = 0.85   # from file\n"
        "steps = 20\n"
        f"prior = {prior_dir}\n")
    _, job = parse_job([
        "generate", "--config", str(cfgfile), "--width", "64",
        "--height", "64", "--out", str(tmp_path / "g.ppm"),
        "--eta", "0"])
    assert job.eta == 0.0  # flag wins over file
    assert job.steps == 20  # file wins over default


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    # a typo, CLI-only options, and names that are not JobSpec fields
    for key in ("etaa", "config", "block", "command"):
        cfgfile.write_text(f"{key} = 0.5\n")
        with pytest.raises(JobError, match=f"unknown key '{key}'"):
            cli._read_config(str(cfgfile), "generate")


def test_config_file_type_error(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("steps = many\n")
    with pytest.raises(JobError, match="steps"):
        cli._read_config(str(cfgfile), "restore")


def test_config_file_sets_every_job_field_with_its_type(tmp_path):
    # written out by hand, so a new JobSpec field must be added here too
    expected = {
        "task": ("sr", "sr"), "scale": ("4", 4), "mask": ("m.pgm", "m.pgm"),
        "sigma_y": ("0.05", 0.05), "width": ("96", 96),
        "height": ("64", 64), "patch": ("32", 32), "overlap": ("16", 16),
        "steps": ("20", 20), "eta": ("0.5", 0.5), "travel_l": ("5", 5),
        "travel_r": ("2", 2), "hir_factor": ("2", 2), "seed": ("7", 7),
        "prior": ("p/", "p/"), "input": ("in.ppm", "in.ppm"),
        "output": ("out.ppm", "out.ppm"), "naive": ("yes", True)}
    assert set(expected) == {f.name for f in
                             dataclasses.fields(cli.JobSpec)}
    # one file per subcommand, with every field the subcommand takes
    covered = set()
    for command in ("restore", "generate"):
        mine = {f.name: expected[f.name]
                for f in dataclasses.fields(cli.JobSpec)
                if command in f.metadata["commands"]}
        cfgfile = tmp_path / f"{command}.cfg"
        cfgfile.write_text("".join(f"{k.replace('_', '-')} = {text}\n"
                                   for k, (text, _) in mine.items()))
        got = cli._read_config(str(cfgfile), command)
        assert got == {k: v for k, (_, v) in mine.items()}
        assert all(type(got[k]) is type(v) for k, (_, v) in mine.items())
        covered |= set(got)
    assert covered == set(expected)


@pytest.mark.parametrize("text,value", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("false", False), ("No", False), ("off", False)])
def test_config_file_boolean_spellings(tmp_path, text, value):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text(f"naive = {text}\n")
    assert cli._read_config(str(cfgfile), "generate") == {"naive": value}


@pytest.mark.parametrize("text", ["ture", "2", "", "y"])
def test_config_file_rejects_bad_boolean(tmp_path, text):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"naive = {text}\n")
    with pytest.raises(JobError, match="bad bool value .* for naive"):
        cli._read_config(str(cfgfile), "restore")


def read_metrics(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(":")
        out[key.strip()] = val.strip()
    return out


def test_run_sr_job_end_to_end(tmp_path, prior_dir, rng):
    write_image(tmp_path / "lr.ppm", rng.uniform(-1, 1, size=(16, 24, 3)))
    out = tmp_path / "sr.ppm"
    _, job = parse_job([
        "restore", "--task", "sr", "--scale", "4",
        "--in", str(tmp_path / "lr.ppm"), "--out", str(out),
        "--prior", str(prior_dir), "--seed", "3",
        "--steps", "30", "--travel-l", "5", "--travel-r", "1"])
    assert run_job(job) == 0
    assert out.exists()
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert float(metrics["consistency"]) <= 1e-6
    assert int(metrics["steps"]) == 30 * 2  # two tiles, r = 1
    assert float(metrics["wall_clock_sec"]) > 0


def test_run_generate_job_four_tiles(tmp_path, prior_dir):
    out = tmp_path / "gen.ppm"
    _, job = parse_job([
        "generate", "--width", "160", "--height", "64", "--out", str(out),
        "--prior", str(prior_dir), "--seed", "5", "--steps", "20",
        "--travel-r", "1"])
    assert run_job(job) == 0
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert float(metrics["consistency"]) == 0.0
    assert float(metrics["seam_max"]) < 0.2
    img = imagecore.load_image(out)
    assert (img.height, img.width) == (64, 160)


def test_run_job_reproducible_hash(tmp_path, prior_dir):
    args = ["generate", "--width", "96", "--height", "64",
            "--prior", str(prior_dir), "--seed", "5", "--steps", "15",
            "--travel-r", "1"]
    hashes = set()
    for name in ("a.ppm", "b.ppm"):
        out = tmp_path / name
        _, job = parse_job(args + ["--out", str(out)])
        assert run_job(job) == 0
        hashes.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(hashes) == 1


def test_run_job_writes_metrics_on_failure(tmp_path, prior_dir):
    _, job = parse_job([
        "restore", "--task", "sr", "--scale", "4",
        "--in", str(tmp_path / "missing.ppm"),
        "--out", str(tmp_path / "o.ppm"), "--prior", str(prior_dir)])
    assert run_job(job) == 1
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert "error" in metrics
    assert "wall_clock_sec" in metrics


def test_run_inpaint_with_hir(tmp_path, prior_dir, rng):
    means = smooth_means(2, PATCH, PATCH, seed=11)
    truth = np.tile(means[0], (2, 2, 1))[:128, :128, :]
    known = rng.random((128, 128)) < 0.5
    write_image(tmp_path / "obs.ppm", truth)
    write_image(tmp_path / "mask.pgm", np.where(known, 1.0, -1.0)[:, :, None])
    out = tmp_path / "inpainted.ppm"
    _, job = parse_job([
        "restore", "--task", "inpaint", "--in", str(tmp_path / "obs.ppm"),
        "--mask", str(tmp_path / "mask.pgm"), "--out", str(out),
        "--prior", str(prior_dir), "--hir-factor", "2",
        "--steps", "15", "--travel-r", "1", "--seed", "2"])
    assert run_job(job) == 0
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert "lowfreq_residual" in metrics
    assert float(metrics["consistency"]) <= 2 / 255 + 1e-9  # quantized I/O


def test_inpaint_job_with_no_known_pixel_has_consistency_zero(tmp_path,
                                                             prior_dir, rng):
    # the measurement is empty, as for generation; its maximum residual
    # is 0.0, not a reduction error after the whole canvas was sampled
    write_image(tmp_path / "obs.ppm", rng.uniform(-1, 1, size=(64, 96, 3)))
    write_image(tmp_path / "mask.pgm", np.full((64, 96, 1), -1.0))
    _, job = parse_job([
        "restore", "--task", "inpaint", "--in", str(tmp_path / "obs.ppm"),
        "--mask", str(tmp_path / "mask.pgm"), "--out", str(tmp_path / "o.ppm"),
        "--prior", str(prior_dir), "--steps", "5", "--travel-r", "1"])
    assert run_job(job) == 0
    assert read_metrics(tmp_path / "metrics.txt")["consistency"] == "0.0"


def test_seam_metric_constant_image_is_zero():
    plan = plan_tiles(64, 96, PATCH, OVERLAP)
    img = np.full((64, 96, 3), 0.25)
    assert all(v == 0.0 for _, _, v in seam_metric(img, plan))


def test_seam_metric_detects_synthetic_step():
    plan = plan_tiles(64, 96, PATCH, OVERLAP)
    img = np.zeros((64, 96, 3))
    img[:, 32:, :] = 0.2  # visible step exactly at the second tile's start
    vals = {(axis, pos): v for axis, pos, v in seam_metric(img, plan)}
    # codes 128 and 153; the interior band is flat, median 0
    assert vals[("col", 32)] == 25 * (2.0 / 255.0)
    assert vals[("col", 64)] == 0.0


def test_seam_band_does_not_wrap_below_the_first_line():
    # the line-1 seams have no room for a band on either side; a band that
    # wrapped to the far edge took in the seam's own difference
    plan = plan_tiles(4, 4, 2, 1)
    img = np.zeros((4, 4, 3))
    img[:, 1:, :] = 1.0
    img[1:, :, :] += 0.5
    vals = {(axis, pos): v for axis, pos, v in seam_metric(img, plan)}
    assert vals[("row", 1)] == 63 * (2.0 / 255.0)  # codes 128 and 191
    assert vals[("col", 1)] == 127 * (2.0 / 255.0)  # codes 128 and 255
    assert vals == {(a, p): v for a, p, v in
                    oracles.written_seam_metric(img, plan)}


@settings(max_examples=60, deadline=None)
@given(accepted_geometries(), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1))
@example((8, 8, 8, 4, 1), 4, 0, 0)      # canvas equal to the patch: no seams
@example((11, 13, 4, 2, 1), 2, 1, 1)    # clamped last row and column
@example((4, 4, 2, 1, 1), 1, 2, 2)      # seams at lines 1 and 2
def test_seam_metric_equals_the_full_difference_oracle(geometry, levels,
                                                       seed, split):
    height, width, patch, overlap, block = geometry
    plan = plan_tiles(height, width, patch, overlap, block=block)
    # few levels, so that medians fall on ties and between equal values
    img = np.random.default_rng(seed).integers(
        -levels, levels + 1, size=(height, width, 3)) / levels
    want = oracles.written_seam_metric(img, plan)
    assert seam_metric(img, plan) == want
    # any band split, 1-row bands included: each row cut with a drawn
    # probability, so that differences and bands span bands
    rng = np.random.default_rng(split)
    cuts = np.flatnonzero(rng.random(height - 1) < rng.random()) + 1
    assert seam_metric(img, plan, (0, *cuts)) == want
    assert seam_metric(img, plan, range(height)) == want


def test_a_job_leaves_numpy_ma_unimported(tmp_path, prior_dir):
    # np.median imports numpy.ma, about 1 MB of resident memory taken in
    # the middle of the first tiling pass; the seam meter counts codes
    argv = ["generate", "--width", "96", "--height", "96", "--steps", "5",
            "--travel-r", "1", "--prior", str(prior_dir),
            "--out", str(tmp_path / "g.ppm")]
    code = ("import sys\nfrom tilediff import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(tilediff.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_importing_the_cli_leaves_hashlib_unimported():
    # hashlib loads OpenSSL's libcrypto, about 3.5 MB of resident memory;
    # the self-test compares its two runs' bytes instead
    code = "import sys\nimport tilediff.cli\nprint('hashlib' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(tilediff.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def _tasks_of_every_kind(rng, height, width):
    """One task of each kind on a height x width canvas; SR at scale 3,
    so the bands must be multiples of 3 rows."""
    known = rng.random((height, width)) < 0.5
    return [
        tasks.SuperResolutionTask(
            rng.uniform(-1, 1, size=(height // 3, width // 3, 3)), 3),
        tasks.InpaintTask(rng.uniform(-1, 1, size=(height, width, 3)),
                          known),
        tasks.InpaintTask(rng.uniform(-1, 1, size=(height, width, 3)),
                          np.zeros_like(known)),
        tasks.ColorizeTask(rng.uniform(-1, 1, size=(height, width, 1))),
        tasks.DenoiseTask(rng.uniform(-1, 1, size=(height, width, 3))),
        tasks.GenerateTask(height, width, 3)]


@pytest.mark.parametrize("height", [3, 15, 18, 51])
def test_consistency_equals_the_full_size_residual(rng, height):
    # the whole canvas as one band, and as two split at a block boundary,
    # as a tiling pass hands them over; HiR's pin is SR over a coarse canvas
    pins = [tasks.SuperResolutionTask(
        rng.uniform(-1, 1, size=(height, 12 // f, 3)), f) for f in (2, 4)]
    for task in _tasks_of_every_kind(rng, height, 12) + pins:
        img = rng.uniform(-1, 1, size=task.shape)
        full = oracles.full_problem(task)
        want = 0.0
        if full is not None and full[1].size:
            op, y = full
            want = float(np.abs(op.forward(img) - y).max())
        assert tasks.consistency(task, img) == want
        split = task.block * (task.shape[0] // task.block // 2)
        if split:
            assert max(tasks.consistency(task, img[:split]),
                       tasks.consistency(task, img[split:], split)) == want


def _heap_peak(tmp_path, prior_dir, argv, height, width):
    """tracemalloc's heap peak, in bytes, during the job
    `argv(height, width)`; one small job of the same kind runs first, so
    that numpy's lazily imported modules are not counted."""
    common = ["--prior", str(prior_dir), "--overlap", "16", "--steps", "1",
              "--travel-r", "1", "--out", str(tmp_path / "o.ppm")]
    assert run_job(parse_job(argv(64, 128) + common)[1]) == 0
    _, job = parse_job(argv(height, width) + common)
    tracemalloc.start()
    try:
        assert run_job(job) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _heap_peak_canvases(tmp_path, prior_dir, argv, height, width):
    """The job's heap peak in float64 canvases."""
    return _heap_peak(tmp_path, prior_dir, argv, height, width) / (
        height * width * 3 * 8)


def _generate_argv(h, w):
    return ["generate", "--width", str(w), "--height", str(h)]


def _inpaint_argv(tmp_path, rng):
    def argv(h, w):
        write_image(tmp_path / "obs.ppm", rng.uniform(-1, 1, size=(h, w, 3)))
        write_image(tmp_path / "mask.pgm",
                    np.where(rng.random((h, w, 1)) < 0.5, 1.0, -1.0))
        return ["restore", "--task", "inpaint",
                "--in", str(tmp_path / "obs.ppm"),
                "--mask", str(tmp_path / "mask.pgm")]

    return argv


def test_generate_job_heap_peak_is_below_one_and_a_half_canvases(
        tmp_path, prior_dir):
    # 100 tiles' area, and no full-size array: the tiling pass holds one
    # tile row, and the finish (residuals, seams, quantizing, writing)
    # one band of it at a time
    assert _heap_peak_canvases(tmp_path, prior_dir, _generate_argv,
                               640, 640) < 1.5


def test_inpaint_job_heap_peak_is_its_canvases_plus_a_half(
        tmp_path, prior_dir, rng):
    # the observed input and the mask stay codes in their files, read a
    # tile at a time, so the job holds no full-size array either
    assert _heap_peak_canvases(tmp_path, prior_dir,
                               _inpaint_argv(tmp_path, rng), 640, 640) < 2.5


@pytest.mark.parametrize("kind", ["generate", "inpaint"])
def test_job_heap_peak_does_not_grow_with_canvas_height(tmp_path, prior_dir,
                                                        rng, kind):
    # 4x the rows (53 tile rows against 13) at width 640: about 5 MB of
    # heap at either height (noise ring, tile-row buffer, one band). The
    # tall job's 3.5% more is its per-seam statistics, one per seam row
    argv = _generate_argv if kind == "generate" else _inpaint_argv(tmp_path,
                                                                   rng)
    short = _heap_peak(tmp_path, prior_dir, argv, 640, 640)
    tall = _heap_peak(tmp_path, prior_dir, argv, 2560, 640)
    assert tall <= 1.05 * short


SMALL = 16  # patch of the finish tests' prior


@pytest.fixture
def small_prior(tmp_path):
    d = tmp_path / "small_prior"
    d.mkdir()
    write_prior(d, smooth_means(2, SMALL, SMALL, seed=4, period=8),
                [0.5, 0.5], 0.05)
    return d


def _write_input(path, rng, shape):
    write_image(path, rng.uniform(-1, 1, size=shape))


# (subcommand and task flags, height, width, other flags); patch 16 and
# overlap 8 unless given, so 40 rows and 52 columns end in a clamped tile
_FINISH_JOBS = {
    "generate": (["generate"], 40, 52, []),
    "generate-naive": (["generate"], 40, 52, ["--naive"]),
    "generate-hir": (["generate"], 36, 48, ["--hir-factor", "2"]),
    "sr-noisy": (["restore", "--task", "sr", "--scale", "2"], 36, 44,
                 ["--sigma-y", "0.05"]),
    "sr-hir": (["restore", "--task", "sr", "--scale", "4"], 64, 64,
               ["--hir-factor", "2", "--overlap", "4"]),
    "inpaint": (["restore", "--task", "inpaint"], 38, 50, []),
    "inpaint-hir": (["restore", "--task", "inpaint"], 40, 48,
                    ["--hir-factor", "2"]),
    "colorize": (["restore", "--task", "colorize"], 34, 40,
                 ["--overlap", "6"]),
    "denoise": (["restore", "--task", "denoise"], 34, 40,
                ["--sigma-y", "0.1", "--overlap", "6"]),
}


@pytest.mark.parametrize("name", sorted(_FINISH_JOBS))
def test_streamed_finish_equals_the_full_canvas_oracles(tmp_path, small_prior,
                                                        rng, name):
    head, height, width, flags = _FINISH_JOBS[name]
    out = tmp_path / "out" / "o.ppm"
    argv = head + ["--prior", str(small_prior), "--patch", str(SMALL),
                   "--overlap", "8", "--steps", "3", "--travel-r", "2",
                   "--travel-l", "2", "--seed", "6", "--out", str(out)]
    if head[0] == "generate":
        argv += ["--height", str(height), "--width", str(width)]
    task_name = head[2] if head[0] == "restore" else "generate"
    inp, mask = tmp_path / "in.ppm", tmp_path / "mask.pgm"
    if task_name == "sr":
        scale = int(head[4])
        _write_input(inp, rng, (height // scale, width // scale, 3))
    elif task_name == "colorize":
        inp = tmp_path / "in.pgm"
        _write_input(inp, rng, (height, width, 1))
    elif task_name != "generate":
        _write_input(inp, rng, (height, width, 3))
    if task_name == "inpaint":
        write_image(mask, np.where(rng.random((height, width, 1)) < 0.5,
                                   1.0, -1.0))
        argv += ["--mask", str(mask)]
    if task_name != "generate":
        argv += ["--in", str(inp)]
    _, job = parse_job(argv + flags)
    assert run_job(job) == 0
    got = read_metrics(out.parent / "metrics.txt")
    del got["wall_clock_sec"]

    # the same job through the library, assembled whole, from the inputs
    # loaded as float arrays
    if task_name == "generate":
        task = tasks.GenerateTask(height, width, 3)
    else:
        data = imagecore.load_image(inp).data
        task = {"sr": lambda: tasks.SuperResolutionTask(data, job.scale),
                "inpaint": lambda: tasks.InpaintTask(
                    data, np.asarray(linops.load_mask(mask))),
                "colorize": lambda: tasks.ColorizeTask(data),
                "denoise": lambda: tasks.DenoiseTask(data)}[task_name]()
    plan = plan_tiles(height, width, job.patch, job.overlap,
                      block=cli._job_block(job))
    den = denoise.load_gmm_prior(str(small_prior))
    want = {}
    if job.hir_factor:
        result = hir_restore(task, job.hir_factor, plan, den,
                             job.sampler_config())
        image = result.image
        want["lowfreq_residual"] = float(np.abs(AvgPool(
            task.shape, job.hir_factor).forward(image) - result.coarse).max())
    else:
        image = msr_restore(task, plan, den, job.sampler_config(),
                            use_mask_hook=not job.naive)
    full = oracles.full_problem(task)
    want["consistency"] = 0.0
    if full is not None and full[1].size:
        want["consistency"] = float(np.abs(full[0].forward(image)
                                           - full[1]).max())
    seams = oracles.written_seam_metric(image, plan)
    want["seam_max"] = max((v for _, _, v in seams), default=0.0)
    want.update({f"seam_{axis}_{pos}": v for axis, pos, v in seams})
    want["steps"] = den.calls
    assert list(got) == list(want)
    assert {k: float(v) for k, v in got.items()} == want
    c = task.shape[2]
    header = b"P%d\n%d %d\n255\n" % (5 if c == 1 else 6, width, height)
    assert out.read_bytes() == header + oracles.quantize(image).tobytes()
    assert sorted(p.name for p in out.parent.iterdir()) == ["metrics.txt",
                                                             "o.ppm"]


def test_selftest_and_plan_commands(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: OK" in out
    assert cli.main(["plan", "--width", "100", "--height", "64",
                     "--patch", "64", "--overlap", "32", "--block", "4"]) == 0
    assert capsys.readouterr().out == (
        "1 x 3 tiles, patch 64, overlap 32, stride 32\n"
        "tile 0 (row 0, col 0): top=0 left=0 64x64\n"
        "tile 1 (row 0, col 1): top=0 left=32 64x64\n"
        "tile 2 (row 0, col 2): top=0 left=36 64x64\n")


def _help_options(command, capsys):
    """{flag and metavar: help text} of `tilediff command --help`."""
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    lines = capsys.readouterr().out.splitlines()
    # the options follow the first unindented heading, e.g. "options:"
    start = next(i for i, ln in enumerate(lines)
                 if ln.endswith(":") and not ln.startswith(" "))
    entries = []
    for ln in lines[start + 1:]:
        if ln.startswith("  -"):
            entries.append(ln.strip())
        elif ln.strip():
            entries[-1] += "  " + ln.strip()
    return dict((e.split("  ", 1) + [""])[:2] for e in entries)


_JOB_OPTIONS = {
    "-h, --help": "show this help message and exit",
    "--config CONFIG": "key = value option file",
    "--patch PATCH": "", "--overlap OVERLAP": "",
    "--steps STEPS": "diffusion steps T", "--eta ETA": "",
    "--travel-l TRAVEL_L": "", "--travel-r TRAVEL_R": "",
    "--hir-factor HIR_FACTOR":
        "coarse-phase downsample factor >= 2, 0 = off",
    "--seed SEED": "", "--sigma-y SIGMA_Y": "",
    "--prior PRIOR": "prior directory with prior.txt",
    "--out OUTPUT": "",
    "--naive": "solve tiles independently (no overlap constraint); "
               "baseline for comparison"}


@pytest.mark.parametrize("command, own", [
    ("restore", {"--task {sr,inpaint,colorize,denoise}": "",
                 "--scale SCALE": "SR factor",
                 "--mask MASK": "PGM mask, 0=missing 255=known",
                 "--in INPUT": ""}),
    ("generate", {"--width WIDTH": "", "--height HEIGHT": ""})])
def test_job_help_lists_each_flag_metavar_and_help(monkeypatch, capsys,
                                                   command, own):
    monkeypatch.setenv("COLUMNS", "200")
    got = {k: " ".join(v.split()) for k, v in
           _help_options(command, capsys).items()}
    assert got == {**_JOB_OPTIONS, **own}


def test_main_reports_job_errors(capsys):
    assert cli.main(["restore", "--task", "sr", "--in", "x.ppm",
                     "--out", "y.ppm", "--prior", "p/"]) == 2
    assert "scale" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["generate", "--width", "128", "--height", "128", "--hir-factor", "-2"],
     "error: hir-factor must be 0 (off) or >= 2"),
    (["restore", "--task", "sr", "--scale", "-2", "--in", "x.ppm"],
     "error: scale must be >= 1, got -2"),
    (["restore", "--task", "sr", "--scale", "0", "--in", "x.ppm"],
     "error: scale must be >= 1, got 0"),
    # a tile geometry that fits block lcm(3, 2) = 6, so only the
    # hierarchy rule fails, before the input is read
    (["restore", "--task", "sr", "--scale", "3", "--hir-factor", "2",
      "--patch", "12", "--overlap", "6", "--in", "x.ppm"],
     "error: hierarchy factor 2 must divide SR scale 3"),
    # the hierarchy always constrains its tiles: --naive would be ignored
    (["generate", "--width", "128", "--height", "128", "--hir-factor", "2",
      "--naive"],
     "error: naive cannot be combined with hir-factor >= 2"),
    # the overlap must be a positive multiple of the scale below the patch,
    # so a scale equal to the patch leaves no overlap that can tile
    (["restore", "--task", "sr", "--scale", "8", "--patch", "8",
      "--overlap", "4", "--in", "x.ppm"],
     "error: patch 8 and overlap 4 must be multiples of block 8")],
    ids=["hir-factor", "scale", "scale-0", "hir-factor-not-dividing-scale",
         "naive-hir", "scale-equal-to-patch"])
def test_main_rejects_a_negative_factor(tmp_path, prior_dir, capsys, argv,
                                        message):
    assert cli.main(argv + ["--prior", str(prior_dir),
                            "--out", str(tmp_path / "o.ppm")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "metrics.txt").exists()


@pytest.mark.parametrize("argv, message", [
    (["--eta", "1.5"], "error: eta must be in [0, 1], got 1.5"),
    (["--eta", "nan"], "error: eta must be in [0, 1], got nan"),
    (["--sigma-y", "-0.1"], "error: sigma-y must be >= 0, got -0.1"),
    (["--sigma-y", "nan"], "error: sigma-y must be >= 0, got nan"),
    (["--travel-l", "0"], "error: travel-l must be >= 1, got 0"),
    (["--travel-r", "0"], "error: travel-r must be >= 1, got 0"),
    (["--seed", "-1"], "error: seed must be >= 0, got -1")],
    ids=["eta", "eta-nan", "sigma-y", "sigma-y-nan", "travel-l", "travel-r",
         "seed"])
def test_main_rejects_out_of_range_sampler_options(tmp_path, prior_dir,
                                                   capsys, argv, message):
    # rejected before the prior loads: status 2 and no metrics.txt
    assert cli.main(["generate", "--width", "64", "--height", "64"] + argv +
                    ["--prior", str(prior_dir),
                     "--out", str(tmp_path / "o.ppm")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "metrics.txt").exists()


def test_config_file_out_of_range_eta_is_a_job_error(tmp_path, prior_dir):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text(f"eta = -0.5\nprior = {prior_dir}\n")
    with pytest.raises(JobError, match=r"eta must be in \[0, 1\]"):
        parse_job(["generate", "--config", str(cfgfile), "--width", "64",
                   "--height", "64", "--out", str(tmp_path / "g.ppm")])


def test_config_file_negative_hir_factor_is_a_job_error(tmp_path, prior_dir):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text(f"hir_factor = -2\nprior = {prior_dir}\n")
    with pytest.raises(JobError, match="hir-factor must be 0"):
        parse_job(["generate", "--config", str(cfgfile), "--width", "128",
                   "--height", "128", "--out", str(tmp_path / "g.ppm")])


def test_config_file_task_outside_restores_choices_is_a_usage_error(
        tmp_path, prior_dir, capsys):
    # `restore --task generate` is an argparse usage error; the same value
    # from a file must not turn a restore into a generation job
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text(f"task = generate\nwidth = 64\nheight = 64\n"
                       f"prior = {prior_dir}\noutput = {out_dir / 'g.ppm'}\n")
    with pytest.raises(JobError, match="task must be one of sr, inpaint, "
                       "colorize, denoise for restore, got 'generate'"):
        parse_job(["restore", "--config", str(cfgfile)])
    assert cli.main(["restore", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(cfgfile) in err[0]
    assert f"{cfgfile}:1: task must be one of" in err[0]
    assert list(out_dir.iterdir()) == []
    # a task restore takes is still read from the file
    cfgfile.write_text(f"task = colorize\ninput = x.ppm\n"
                       f"prior = {prior_dir}\noutput = {out_dir / 'c.ppm'}\n")
    assert parse_job(["restore", "--config", str(cfgfile)])[1].task == \
        "colorize"


@pytest.mark.parametrize("command,line", [
    ("generate", "scale = 4"), ("generate", "mask = m.pgm"),
    ("generate", "input = x.ppm"), ("generate", "task = sr"),
    ("restore", "width = 64"), ("restore", "height = 64")])
def test_config_file_key_outside_the_subcommand_is_a_usage_error(
        tmp_path, prior_dir, capsys, command, line):
    # the flag would be an argparse usage error; so is the key in a file,
    # reported with the file and the line that holds it
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    key = line.split(" = ")[0]
    job = {"generate": "width = 64\nheight = 64\n",
           "restore": "task = denoise\ninput = x.ppm\n"}[command]
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text(f"{job}prior = {prior_dir}\n{line}\n"
                       f"output = {out_dir / 'o.ppm'}\n")
    with pytest.raises(JobError, match=f"unknown key '{key}' for {command}"):
        cli._read_config(str(cfgfile), command)
    assert cli.main([command, "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {cfgfile}:4: unknown key '{key}' for {command}"]
    assert list(out_dir.iterdir()) == []
    # without the misplaced line the same file is a job
    cfgfile.write_text(cfgfile.read_text().replace(f"{line}\n", ""))
    assert parse_job([command, "--config", str(cfgfile)])[0] == command


@pytest.mark.parametrize("config", ["missing.cfg", "cfgdir"])
def test_main_reports_an_unreadable_config_file(tmp_path, prior_dir, capsys,
                                                config):
    (tmp_path / "cfgdir").mkdir()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cfgfile = str(tmp_path / config)
    assert cli.main(["generate", "--config", cfgfile, "--width", "64",
                     "--height", "64", "--prior", str(prior_dir),
                     "--out", str(out_dir / "g.ppm")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert cfgfile in err[0]
    # neither the output image nor metrics.txt
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--width", "10", "--height", "10"],             # canvas below patch
    ["--width", "100", "--height", "64", "--block", "3"],  # misaligned
    ["--width", "64", "--height", "64", "--overlap", "64"]])
def test_main_reports_bad_plan_geometry(capsys, argv):
    assert cli.main(["plan"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("dims", [b"99999999999 99999999999",
                                  b"1000000000 1000000000"])
def test_main_reports_an_impossible_input_image(tmp_path, prior_dir, capsys,
                                                dims):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6 " + dims + b" 255\n" + bytes(12))
    assert cli.main(["restore", "--task", "denoise", "--in", str(bad),
                     "--out", str(tmp_path / "o.ppm"),
                     "--prior", str(prior_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncated payload")
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert metrics["error"].startswith("truncated payload")


def test_main_reports_an_output_directory_it_cannot_make(tmp_path, prior_dir,
                                                        capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert cli.main(["generate", "--width", "64", "--height", "64",
                     "--prior", str(prior_dir),
                     "--out", str(afile / "o.ppm")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno")


def test_main_reports_a_tau_line_without_a_value(tmp_path, prior_dir, capsys):
    (prior_dir / "prior.txt").write_text("tau\ncomponent 1 mean_0.ppm\n")
    assert cli.main(["generate", "--width", "64", "--height", "64",
                     "--prior", str(prior_dir),
                     "--out", str(tmp_path / "o.ppm")]) == 1
    message = "prior.txt must start with a `tau <float>` line"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert read_metrics(tmp_path / "metrics.txt")["error"] == message


class NanDenoiser(Denoiser):
    input_shape = (PATCH, PATCH, 3)

    def predict_eps(self, x_t, t, sched):
        return np.full_like(x_t, np.nan)


def test_main_reports_sampler_error(tmp_path, prior_dir, monkeypatch,
                                    capsys):
    monkeypatch.setattr(cli.denoise, "load_gmm_prior",
                        lambda path: NanDenoiser())
    argv = ["generate", "--width", "64", "--height", "64",
            "--prior", str(prior_dir), "--out", str(tmp_path / "g.ppm"),
            "--steps", "5", "--travel-r", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite state at step t=5\n"
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert metrics["error"] == "non-finite state at step t=5"
    assert "wall_clock_sec" in metrics
    # no output, and the part file the job wrote its header to is removed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.txt",
                                                          "prior"]
    # library callers still see the divergence as an exception
    _, job = parse_job(argv)
    with pytest.raises(SamplerError):
        run_job(job)


def test_a_nonfinite_band_fails_the_job_without_output(tmp_path, prior_dir,
                                                     monkeypatch, capsys):
    # the output's writer checks each band the sink gets: a NaN in the
    # second band ends the job after the first was written
    def restore(task, plan, denoiser, cfg, **kwargs):
        h, w, c = task.shape
        kwargs["sink"](0, np.zeros((32, w, c)))
        band = np.zeros((h - 32, w, c))
        band[3, 5, 1] = np.nan
        kwargs["sink"](32, band)

    monkeypatch.setattr(cli, "msr_restore", restore)
    _, job = parse_job(["generate", "--width", "64", "--height", "64",
                        "--prior", str(prior_dir),
                        "--out", str(tmp_path / "g.ppm")])
    assert run_job(job) == 1
    assert capsys.readouterr().err == "error: image data contains NaN or Inf\n"
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert metrics["error"] == "image data contains NaN or Inf"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.txt",
                                                          "prior"]


def test_hir_coarse_canvas_below_patch_is_a_job_error(tmp_path, prior_dir,
                                                     rng, capsys):
    with pytest.raises(JobError, match="hir-factor 2 gives a 32x48 coarse"):
        parse_job(["generate", "--width", "96", "--height", "64",
                   "--hir-factor", "2", "--prior", str(prior_dir),
                   "--out", str(tmp_path / "g.ppm")])
    # a restore task's size is known once its input is read
    write_image(tmp_path / "lr.ppm", rng.uniform(-1, 1, size=(24, 48, 3)))
    _, job = parse_job([
        "restore", "--task", "sr", "--scale", "4", "--hir-factor", "2",
        "--in", str(tmp_path / "lr.ppm"), "--out", str(tmp_path / "sr.ppm"),
        "--prior", str(prior_dir)])
    assert run_job(job) == 1
    assert "hir-factor 2 gives a 48x96 coarse canvas, smaller than patch 64" \
        in capsys.readouterr().err
    metrics = read_metrics(tmp_path / "metrics.txt")
    assert "hir-factor" in metrics["error"]
