import json
import os

import pytest

import tilediff
from tilediff import cli, linops, msr, sampler

from bench import inputs, spans
from bench.run import END_TO_END
from bench.workloads import WORKLOADS, Workload

TINY_HIR = Workload(name="tiny-hir", why="test", task="inpaint", height=32,
                    width=48, k=2, hir_factor=2, steps=4, travel_l=2,
                    travel_r=2, patch=16, overlap=8)
BENCHMARK = os.path.join(os.path.dirname(__file__), "..", "..",
                         "BENCHMARK.json")


def _run(wl, tmp_path, tr=None):
    paths = inputs.write_inputs(wl, 5, str(tmp_path / "in"))
    output = str(tmp_path / "out" / "out.ppm")
    _, job = cli.parse_job(wl.argv(paths, output, 5))
    if tr is None:
        assert cli.run_job(job) == 0
    else:
        with spans.traced(tr):
            assert tr.wrap("cli.run_job", cli.run_job)(job) == 0
    with open(output, "rb") as f:
        return f.read()


def test_traced_run_counts_and_accounting(tmp_path):
    plain = _run(TINY_HIR, tmp_path)
    tr = spans.Tracer()
    traced = _run(TINY_HIR, tmp_path, tr)
    assert traced == plain  # tracing never changes the output
    job_s = tr.spans[0][3] - tr.spans[0][2]
    m = spans.job_metrics(tr, job_s)
    assert m["denoise.predict_eps.calls"] == TINY_HIR.job_steps
    assert m["sampler.run_sampler.calls"] == TINY_HIR.tiles == m["msr.tiles"]
    assert m["schedule.build_schedule.calls"] == TINY_HIR.tiles
    assert m["hir.phase1_s"] > 0 and m["hir.phase2_s"] > 0
    assert m["hir.lowfreq_hook.us"] > 0 and m["msr.overlap_hook.us"] > 0
    assert m["linops.AvgPool.forward.us"] > 0
    assert 0.0 <= m["sampler.project.noop_frac"] < 1.0
    # self times partition the root span exactly
    assert abs(m["trace.unattributed_frac"]) < 1e-9
    assert set(m) | {"trace.overhead_frac"} == {n for n, _ in
                                                 spans.PER_LAYER}


def test_generation_projection_is_a_noop(tmp_path):
    wl = Workload(name="tiny-gen", why="test", task="generate", height=16,
                  width=24, k=2, steps=3, travel_l=3, travel_r=1, patch=16,
                  overlap=8)
    tr = spans.Tracer()
    _run(wl, tmp_path, tr)
    m = spans.job_metrics(tr, tr.spans[0][3] - tr.spans[0][2])
    assert m["sampler.project.noop_frac"] == 1.0
    assert m["msr.dag_levels"] == 2 and m["msr.known_frac"] == 0.25


def test_originals_restored():
    before = (sampler.sample_prev, msr.run_sampler, cli.load_image,
              linops.AvgPool.forward,
              linops.LinearOperator.__dict__["range_project"])
    with spans.traced(spans.Tracer()):
        assert sampler.sample_prev is not before[0]
    after = (sampler.sample_prev, msr.run_sampler, cli.load_image,
             linops.AvgPool.forward,
             linops.LinearOperator.__dict__["range_project"])
    assert after == before


def test_benchmark_json_names_match_the_harness():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        spans.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        END_TO_END
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seeded(name, tmp_path):
    wl = WORKLOADS[name]
    a = inputs.write_inputs(wl, 7, str(tmp_path / "a"))
    b = inputs.write_inputs(wl, 7, str(tmp_path / "b"))
    c = inputs.write_inputs(wl, 8, str(tmp_path / "c"))
    for key in a:
        for fa, fb, fc in _files(a[key], b[key], c[key]):
            assert open(fa, "rb").read() == open(fb, "rb").read()
    assert any(open(fa, "rb").read() != open(fc, "rb").read()
               for key in a for fa, _, fc in _files(a[key], b[key], c[key]))
    assert tilediff.denoise.load_gmm_prior(a["prior"]).means.shape == \
        (wl.k, wl.patch, wl.patch, 3)


def _files(*paths):
    if os.path.isdir(paths[0]):
        names = sorted(os.listdir(paths[0]))
        return [tuple(os.path.join(p, n) for p in paths) for n in names]
    return [paths]
