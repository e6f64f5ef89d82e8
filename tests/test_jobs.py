"""Whole jobs drawn from JobSpec's option table.

Each example is one `tilediff restore` or `tilediff generate` argv, built
from the fields of JobSpec in the subcommand's scope, with a valid or an
invalid value (or none) for each, on a tiny prior at the drawn patch. A
job either exits 2 at parse time, with one `error:` line and no
metrics.txt, or runs and exits 0 or 1 with a metrics.txt. None raises.
The same values in a --config file give the same JobSpec; a field the
subcommand has no flag for is a usage error in either form.
"""

import contextlib
import dataclasses
import io
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tilediff import cli

from conftest import smooth_means, write_image
from test_denoise import write_prior

MAX_SIDE = 48  # canvas pixels per side, at most


def _values(pp: int) -> dict:
    """field -> (valid, invalid): lists of its flag's text at prior patch
    pp. None leaves the flag out and True gives a bare flag. A valid text
    does not fail the job on its own; `steps` is never left out, because
    its default of 100 steps would make a job slow."""
    side = [None, "0", "-8", "x"] + [str(n) for n in range(1, pp)]
    return {
        "task": (["sr", "inpaint", "colorize", "denoise"], [None, "blur"]),
        "scale": (["1", "2", "3"], [None, "0", "-1", "x"]),
        "mask": (["mask.pgm"], [None, "in.ppm", "missing.pgm"]),
        "sigma_y": ([None, "0", "0.05"], ["-0.1", "nan", "inf"]),
        "width": ([str(n) for n in range(pp, MAX_SIDE + 1)], side),
        "height": ([str(n) for n in range(pp, MAX_SIDE + 1)], side),
        "patch": ([str(pp)], [None, str(pp + 2), "0", "-4", "x"]),
        "overlap": ([str(pp // 2), str(max(1, pp // 4))],
                    [None, "0", str(pp), "-1", "x"]),
        "steps": (["1", "2"], ["0", "-1", "x"]),
        "eta": ([None, "0", "0.5", "1"], ["1.5", "-0.1", "nan", "x"]),
        "travel_l": ([None, "1", "2"], ["0", "x"]),
        "travel_r": ([None, "1", "2"], ["0", "-1"]),
        "hir_factor": ([None, "0", "2"], ["1", "3", "-2", "x"]),
        "seed": ([None, "0", "7"], ["-1", "x"]),
        "prior": (["prior"], [None, "badprior", "missing"]),
        "input": (["in.ppm", "gray.pgm"], [None, "missing.ppm"]),
        "output": (["out/o.ppm"], [None]),
        "naive": ([None, True], []),
    }


def test_every_job_field_has_values():
    assert set(_values(4)) == {f.name for f in dataclasses.fields(cli.JobSpec)}


@st.composite
def jobs(draw):
    """(command, prior patch, input height and width, {field: text}), with
    up to two of the subcommand's fields drawn from their invalid texts,
    and at times one valid text of a field the subcommand does not take."""
    command = draw(st.sampled_from(["restore", "generate"]))
    pp = draw(st.sampled_from([4, 6, 8]))
    dims = (draw(st.integers(1, MAX_SIDE // 3)),
            draw(st.integers(1, MAX_SIDE // 3)))
    table = _values(pp)
    names = [f.name for f in dataclasses.fields(cli.JobSpec)
             if command in f.metadata["commands"]]
    bad = draw(st.sets(st.sampled_from(
        [n for n in names if table[n][1]]), max_size=2))
    values = {}
    for name in names:
        text = draw(st.sampled_from(table[name][name in bad]))
        if text is not None:
            values[name] = text
    if draw(st.integers(0, 3)) == 0:
        other = draw(st.sampled_from([n for n in table if n not in names]))
        values[other] = draw(st.sampled_from(table[other][0]))
    return command, pp, dims, values


def _write_files(d: pathlib.Path, pp: int, dims):
    """A prior at patch pp, one whose tau line has no value, and inputs
    of the given size: a color image, a gray one and a 0/255 mask."""
    rng = np.random.default_rng(0)
    for name in ("prior", "badprior"):
        (d / name).mkdir()
        write_prior(d / name, smooth_means(2, pp, pp, seed=1), [0.5, 0.5],
                    0.05)
    (d / "badprior" / "prior.txt").write_text("tau\ncomponent 1 mean_0.ppm\n")
    h, w = dims
    for name, channels in (("in.ppm", 3), ("gray.pgm", 1)):
        write_image(d / name, rng.uniform(-1, 1, size=(h, w, channels)))
    write_image(d / "mask.pgm",
                np.where(rng.random((h, w, 1)) < 0.5, 1.0, -1.0))


_PATHS = ("mask", "prior", "input", "output")


def _flags(d, values):
    argv = []
    for field in dataclasses.fields(cli.JobSpec):
        if field.name not in values:
            continue
        text = values[field.name]
        argv.append(field.metadata.get(
            "flag", "--" + field.name.replace("_", "-")))
        if text is not True:
            argv.append(str(d / text) if field.name in _PATHS else text)
    return argv


def _config(d, values):
    lines = []
    for name, text in values.items():
        if text is True:
            text = "true"
        elif name in _PATHS:
            text = d / text
        lines.append(f"{name} = {text}\n")
    (d / "job.cfg").write_text("".join(lines))
    return ["--config", str(d / "job.cfg")]


def _parse(argv):
    """The JobSpec of argv, or None when parsing rejects it."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.parse_job(argv)[1]
    except (SystemExit, cli.JobError):
        return None


@settings(max_examples=80, deadline=None)
@given(jobs())
def test_a_job_exits_2_at_parse_time_or_runs_and_writes_metrics(job):
    command, pp, dims, values = job
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        _write_files(d, pp, dims)
        argv = [command] + _flags(d, values)
        spec = _parse(argv)
        assert _parse([command] + _config(d, values)) == spec
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                status = cli.main(argv)
            except SystemExit as e:  # argparse's own errors
                status = e.code
        errors = [ln for ln in err.getvalue().splitlines() if "error:" in ln]
        metrics = d / "out" / "metrics.txt"
        assert status in (0, 1, 2)
        assert (status == 2) == (spec is None)
        if status == 2:
            assert len(errors) == 1 and not metrics.exists()
        else:
            assert len(errors) == status and metrics.exists()
            assert ("error:" in metrics.read_text()) == (status == 1)
