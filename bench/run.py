"""tilediff benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload gen-wide|sr-noisy|inpaint-hir
                         [--seed N] [--seconds S] [--trace 0|1] [--accept]

Run it from anywhere inside a checkout; it imports tilediff from the
checkout's src/ and nothing installed. It writes the seed's inputs under
.bench_work/, times set-up in fresh interpreters, runs the workload's jobs
through `tilediff.cli.run_job` in a fresh worker process for --seconds, checks
every job (bench/guard.py), and prints one line per metric followed, as the
last line, by a JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
ones from the outside-in tracer (bench/spans.py), and writes the last traced
job's spans to .bench_work/spans/. --accept re-records the stored reference
output of the workload (only with the reference seed, 0).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREADS = 1          # BLAS/OpenMP threads in measured processes
SETUP_PROBES = 9     # fresh interpreters per run; setup_s is their median
DEADLINE_S = 170     # a run ends within this, whatever --seconds says

END_TO_END = [("setup_s", "s"), ("job_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mb", "MB")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def time_setup(argv: list, plans: list, probes: int) -> list[tuple]:
    """(wall, scaled) seconds of `probes` fresh set-up processes, run one at
    a time, each bracketed by timings of the calibration kernel."""
    from bench import calibrate

    probe = os.path.join(ROOT, "bench", "setup_probe.py")
    spec = json.dumps({"argv": argv, "plans": plans, "src": SRC})
    cal = calibrate.Calibration()
    cal.measure()
    before = cal.measure()
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, probe, spec], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        after = cal.measure()
        times.append((wall, calibrate.scaled(wall, before, after)))
        before = after
    return times


def run_worker(args, paths: dict, tmp: str, timeout: float) -> dict:
    result = os.path.join(tmp, "result.json")
    cmd = [sys.executable, "-m", "bench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", json.dumps(paths),
           "--out-dir", os.path.join(tmp, "out"), "--result", result]
    if args.trace:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(
            WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl")]
    if args.accept:
        cmd.append("--accept")
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    with open(result, "r", encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--accept", action="store_true",
                    help="re-record the workload's reference output")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tilediff", "__init__.py")):
        print(f"error: no tilediff source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from bench import guard, inputs, spans
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.accept and args.seed != guard.REF_SEED:
        print(f"error: --accept records the reference of seed "
              f"{guard.REF_SEED} only", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{wl.name}-seed{args.seed}-", dir=WORK)
    try:
        paths = inputs.write_inputs(wl, args.seed,
                                    os.path.join(tmp, "inputs"))
        job_argv = wl.argv(paths, os.path.join(tmp, "out", "out.ppm"),
                           args.seed)
        setup = ([] if args.trace else
                 time_setup(job_argv, wl.plans(), SETUP_PROBES))
        left = DEADLINE_S - (time.perf_counter() - started)
        res = run_worker(args, paths, tmp, timeout=left)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    jobs = res["jobs"]
    plain = [j for j in jobs[1:] if not j["traced"]]
    walls = [j["wall_s"] for j in plain]
    failed = sum(1 for j in jobs if j["failures"])
    # times are scaled to reference machine speed (bench/calibrate.py)
    job_s = statistics.median(j["scaled_s"] for j in plain)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"threads {THREADS}  tiles {wl.tiles}  steps/tile "
          f"{wl.steps_per_tile}")
    if args.trace:
        layers = res["layers"] or {}
        metrics = {name: {"value": float(layers.get(name, 0.0)),
                          "unit": unit} for name, unit in spans.PER_LAYER}
        n = sum(1 for j in jobs if j["traced"])
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']} "
                  f"(median of {n} traced jobs)")
    else:
        calib = statistics.median(j["calib_s"] for j in plain)
        values = {"setup_s": statistics.median(s for _, s in setup),
                  "job_s": job_s, "steps_per_s": wl.job_steps / job_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
        counts = {"setup_s": f"scaled median of {len(setup)} fresh "
                             f"processes; unscaled median "
                             f"{statistics.median(w for w, _ in setup):.4f}"
                             f" s",
                  "job_s": f"scaled median of {len(plain)} jobs; unscaled "
                           f"median {statistics.median(walls):.4f} s, p90 "
                           f"{statistics.quantiles(walls, n=10)[-1]:.4f} s,"
                           f" calibration kernel {calib * 1e3:.2f} ms",
                  "steps_per_s": f"{wl.job_steps} steps per job",
                  "peak_rss_mb": "1 worker process"}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name}: {values[name]:.6g} {unit} ({counts[name]})")
    print(f"failed_frac: {failed / len(jobs):.4g} ({failed} of {len(jobs)} "
          f"jobs, warm-up included)")
    for reason in sorted({r for j in jobs for r in j["failures"]}):
        print(f"  failure: {reason}")
    print(f"output sha256: {jobs[0]['sha256']}  reference "
          f"{'checked' if res['reference_checked'] else 'not checked'}")

    if args.accept:
        if failed:
            print("error: not recording a reference from a failing run",
                  file=sys.stderr)
            return 1
        guard.record_reference(wl.name, jobs[0]["sha256"], res["thumbnail"])
        print(f"recorded reference for {wl.name} in {guard.REFERENCE_PATH}")

    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
