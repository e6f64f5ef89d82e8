"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py [--workloads W ...] [--seeds 1-10]
                            [--seconds 35] [--trace 0|1]
                            [--baseline bench/baseline.json --label TEXT]

Each (seed, workload) pair is one `bench/run.py` process, seeds outermost,
so slow drift of the machine spreads over all workloads. For every metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
inter-quartile range as a share of the median, the figure each end-to-end
bound in BENCHMARK.json is compared against. --baseline also writes the
summary, under end_to_end or per_layer, with a record of the machine, for
later changes to quote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    sys.path.insert(0, os.path.dirname(HERE))
    from bench.run import THREADS
    from bench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(prog="bench/repeat.py")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", help="write the summary to this file")
    ap.add_argument("--label", default="", help="what was measured")
    args = ap.parse_args(argv)

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, timeout=200)
            if done.returncode != 0:
                print(f"{w} seed {seed}: exit {done.returncode}")
                return 1
            res = json.loads(done.stdout.strip().splitlines()[-1])
            runs[w].append(res)
            print(f"{w} seed {seed}: failed {res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}"
                      for k, v in res["metrics"].items()), flush=True)

    summary = {}
    for w, results in runs.items():
        summary[w] = {"attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": {}}
        for name, m in results[0]["metrics"].items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = m["unit"]
            summary[w]["metrics"][name] = s
            print(f"{w:12s} {name:38s} median {s['median']:.5g} {m['unit']}"
                  f"  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  iqr/median {s['iqr_share']:.4f}")
    if args.baseline:
        record = {}
        if os.path.exists(args.baseline):
            with open(args.baseline, "r", encoding="utf-8") as f:
                record = json.load(f)
        record.update(label=args.label, machine=machine(), threads=THREADS)
        record["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds, "seconds": args.seconds,
            "workloads": summary}
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
