"""Run one workload's jobs in a fresh process and write a JSON report.

    python3 -m bench.worker --workload NAME --seed N --seconds S --trace 0|1
        --inputs JSON --out-dir DIR --result PATH [--spans PATH] [--accept]

bench/run.py starts this process with tilediff's source on PYTHONPATH, so
the job's peak resident set is this process's (plus any children it waits
for) and nothing of the harness. One untimed warm-up job runs first; it is
checked like the others. Each job is bracketed by timings of the
calibration kernel (bench/calibrate.py). With --trace 1, untraced and traced
jobs alternate, which gives the per-layer numbers and the tracing overhead
from one run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

from . import calibrate, guard, spans
from .inputs import read_pnm
from .workloads import WORKLOADS

MIN_JOBS = 3


def run_jobs(wl, job, output, seconds, trace, reference=None):
    """Warm up, then run jobs until `seconds`, warm-up included, would be
    exceeded.

    Returns (records, per-layer metrics or None, spans of the last traced
    job).
    """
    from tilediff import cli

    tr = spans.Tracer()
    last_spans = []
    cal = calibrate.Calibration()
    cal.measure()  # first call pays for lazy set-up
    last_cal = [cal.measure()]

    def attempt(traced):
        before = last_cal[0]
        tr.reset()
        run = tr.wrap("cli.run_job", cli.run_job) if traced else cli.run_job
        status, error = None, None
        with spans.traced(tr) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                status = run(job)
            except Exception as e:  # a failed job is data, not a crash
                error = f"{type(e).__name__}: {e}"
            wall = time.perf_counter() - t0
        last_cal[0] = after = cal.measure()
        layers = spans.job_metrics(tr, wall) if traced and not error \
            else None
        failures, sha = guard.check_job(
            wl, status, error, output, reference=reference,
            predict_calls=layers and layers["denoise.predict_eps.calls"])
        rec = {"wall_s": wall, "scaled_s": calibrate.scaled(wall, before,
                                                            after),
               "calib_s": (before + after) / 2, "traced": traced,
               "failures": failures, "sha256": sha}
        if layers:
            rec["layers"] = layers
            last_spans[:] = tr.spans
        return rec

    start = time.perf_counter()
    warmup = attempt(False)
    records = []
    need = 2 * MIN_JOBS if trace else MIN_JOBS
    while True:
        records.append(attempt(trace and len(records) % 2 == 1))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if len(records) >= need and elapsed + typical > seconds:
            break
    shas = {r["sha256"] for r in [warmup] + records if r["sha256"]}
    if len(shas) > 1:
        for r in records:
            r["failures"].append("output differs between repeats")
    return ([warmup] + records, _layers(records) if trace else None,
            last_spans)


def _layers(records):
    """Median over traced jobs of each per-layer metric."""
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r["scaled_s"] for r in records if not r["traced"]]
    if not traced or not plain:
        return None
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_frac"] = (
        statistics.median(r["scaled_s"] for r in traced) /
        statistics.median(plain) - 1.0)
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True, help="JSON of input paths")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="JSONL file for the last traced job")
    ap.add_argument("--accept", action="store_true",
                    help="skip the reference comparison; report the "
                         "warm-up output's block means instead")
    args = ap.parse_args(argv)

    from tilediff import cli

    wl = WORKLOADS[args.workload]
    output = os.path.join(args.out_dir, "out.ppm")
    _, job = cli.parse_job(wl.argv(json.loads(args.inputs), output,
                                   args.seed))
    reference = None
    if args.seed == guard.REF_SEED and not args.accept:
        reference = guard.load_reference(wl.name)
    records, layers, last_spans = run_jobs(
        wl, job, output, args.seconds, bool(args.trace), reference)
    result = {"jobs": records, "layers": layers,
              "peak_rss_mb": peak_rss_mb(),
              "reference_checked": reference is not None}
    if args.accept:
        result["thumbnail"] = guard.thumbnail(read_pnm(output)).tolist()
    if args.spans and last_spans:
        spans.write_spans(args.spans, last_spans)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
