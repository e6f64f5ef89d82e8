import os

import numpy as np
import pytest

from tilediff import cli, imagecore, sampler

from bench import guard, inputs, worker
from bench.workloads import Workload

TINY = Workload(name="tiny-sr", why="test", task="sr", height=32, width=48,
                k=2, scale=2, steps=4, travel_l=2, travel_r=2, patch=16,
                overlap=8)


@pytest.fixture
def job(tmp_path):
    paths = inputs.write_inputs(TINY, 3, str(tmp_path / "in"))
    output = str(tmp_path / "out" / "out.ppm")
    _, job = cli.parse_job(TINY.argv(paths, output, 3))
    return job, output


def _reference_of(output):
    thumb = guard.thumbnail(inputs.read_pnm(output))
    return {"shape": list(thumb.shape), "thumbnail": thumb.ravel().tolist()}


def test_good_job_passes(job):
    job, output = job
    assert cli.run_job(job) == 0
    failures, sha = guard.check_job(TINY, 0, None, output,
                                    predict_calls=TINY.job_steps,
                                    reference=_reference_of(output))
    assert failures == [] and len(sha) == 64


def test_perturbed_output_counts_as_failed(job):
    job, output = job
    assert cli.run_job(job) == 0
    reference = _reference_of(output)
    x = inputs.read_pnm(output).astype(np.float64) * (2 / 255) - 1
    x[:16, :16] += 0.25  # about 32 codes on one 16x16 block
    inputs.write_pnm(output, x)
    failures, _ = guard.check_job(TINY, 0, None, output, reference=reference)
    assert any("reference" in f for f in failures)


def test_sampler_error_counts_as_failed(job, monkeypatch):
    job, output = job

    def explode(*args, **kwargs):
        raise sampler.SamplerError("non-finite state at step t=1")

    monkeypatch.setattr(sampler, "sample_prev", explode)
    records, _, _ = worker.run_jobs(TINY, job, output, seconds=0.0,
                                    trace=False)
    assert len(records) == 1 + worker.MIN_JOBS
    assert all(r["failures"] == ["raised SamplerError: non-finite state "
                                 "at step t=1"] for r in records)


def test_step_count_and_consistency_are_checked(job):
    job, output = job
    assert cli.run_job(job) == 0
    failures, _ = guard.check_job(TINY, 0, None, output,
                                  predict_calls=TINY.job_steps + 1)
    assert failures == [f"predict_eps calls {TINY.job_steps + 1} != "
                        f"{TINY.job_steps}"]
    metrics = os.path.join(os.path.dirname(output), "metrics.txt")
    with open(metrics) as f:
        lines = ["consistency: 0.001\n" if ln.startswith("consistency:")
                 else ln for ln in f]
    with open(metrics, "w") as f:
        f.writelines(lines)
    failures, _ = guard.check_job(TINY, 0, None, output)
    assert failures == ["consistency 1.000e-03 > 1e-09"]


def test_non_zero_status_counts_as_failed():
    assert guard.check_job(TINY, 1, None, "missing.ppm")[0] == [
        "returned status 1"]


def test_pnm_round_trip_keeps_whitespace_codes(tmp_path):
    codes = np.array([[[10, 32, 9], [13, 0, 255]]], dtype=np.uint8)
    path = str(tmp_path / "x.ppm")
    inputs.write_pnm(path, codes.astype(np.float64) * (2 / 255) - 1)
    assert np.array_equal(inputs.read_pnm(path), codes)
    assert np.array_equal(
        imagecore.quantize(imagecore.load_image(path)), codes)
