"""Outside-in tracer: spans around calls into tilediff's public functions.

`traced(tracer)` replaces each function at the name its caller looks it up
by (a module global, or a class attribute for methods) with a wrapper that
records a span, and puts the originals back on exit. The sampler's
constraint hooks are wrapped as they are handed to `run_sampler`, which
yields the overlap hook (msr) and the low-frequency hook (hir). Nothing
inside tilediff changes.

Spans stay in memory as [name, parent index, start, end]; a span's self
time is its duration minus that of its direct children, which are nested
calls on the same thread. A span name is `<layer>.<function>`; a layer's
share of a job is the summed self time of its spans over the job's wall
time.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import json
import time

import numpy as np

from . import dag

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("denoise.predict_eps.calls", "count"),
    ("denoise.predict_eps.us", "us"),
    ("denoise.predict_eps.flops", "flop"),
    ("denoise.predict_eps.bytes", "B"),
    ("denoise.share", "ratio"),
    ("sampler.run_sampler.calls", "count"),
    ("sampler.run_sampler.self_us_per_step", "us"),
    ("sampler.estimate_x0.us", "us"),
    ("sampler.project.us", "us"),
    ("sampler.project.noop_frac", "ratio"),
    ("sampler.sample_prev.us", "us"),
    ("sampler.share", "ratio"),
    ("linops.AvgPool.forward.us", "us"),
    ("linops.AvgPool.forward.bytes", "B"),
    ("linops.AvgPool.pinv.us", "us"),
    ("linops.range_project.us", "us"),
    ("linops.Mask.forward.us", "us"),
    ("linops.Mask.pinv.us", "us"),
    ("linops.pinv_scaled.us", "us"),
    ("linops.share", "ratio"),
    ("msr.tiles", "count"),
    ("msr.tile_s.p50", "s"),
    ("msr.tile_s.p90", "s"),
    ("msr.overlap_hook.us", "us"),
    ("msr.known_frac", "ratio"),
    ("msr.dag_levels", "count"),
    ("msr.mean_parallelism", "tiles/level"),
    ("msr.share", "ratio"),
    ("hir.phase1_s", "s"),
    ("hir.phase2_s", "s"),
    ("hir.lowfreq_hook.us", "us"),
    ("hir.share", "ratio"),
    ("schedule.build_schedule.calls", "count"),
    ("schedule.renoise_jump.us", "us"),
    ("tasks.tile_problem.us", "us"),
    ("imagecore.load_s", "s"),
    ("imagecore.save_s", "s"),
    ("imagecore.bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.job_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]

_PROJECT = ("sampler.ddnm_project", "sampler.ddnm_plus_project")


class Tracer:
    """Spans and counters of the jobs run while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.plans: list = []

    def reset(self):
        """Start a new job; wrappers made before this keep the old spans."""
        self.__init__()

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span `name`. before(args, kwargs) may return
        replacement (args, kwargs); after(result, args) sees the result."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs) or (args, kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None


def write_spans(path: str, spans: list) -> None:
    """Write spans as JSON lines, times in µs from the first start."""
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        for i, (name, parent, start, end) in enumerate(spans):
            f.write(json.dumps({
                "id": i, "parent": parent, "name": name,
                "start_us": round((start - t0) * 1e6, 3),
                "end_us": round((end - t0) * 1e6, 3)}) + "\n")


def _patch_table(tr: Tracer):
    """(module, dotted attribute, span name, wrapper hooks) for every
    traced name."""
    from tilediff import cli, denoise, hir, imagecore, linops, msr, sampler
    from tilediff import tasks

    def count(key, amount):
        tr.counts[key] += amount

    def project_before(args, kwargs):
        if tr.parent_name() not in _PROJECT:
            count("project.calls", 1)
            # generation's all-unknown mask measures nothing
            count("project.noop", 0 in args[0].output_shape)

    def predict_before(args, kwargs):
        k = len(args[0].weights)
        n = args[1].size
        # computed from array sizes, caches ignored: a_t*means, diffs,
        # squares, row sums and the K-term mixture are K*n each (6Kn with
        # the mixture's multiply-add); shrink and eps add 7n. Bytes count
        # 8 per element read or written by those passes.
        count("denoise.flops", 6 * k * n + 7 * n)
        count("denoise.bytes", 8 * (7 * k * n + 12 * n))

    def avgpool_before(args, kwargs):
        op, x = args[0], args[1]
        count("avgpool.bytes", x.nbytes + x.nbytes // (op.p * op.p))

    def load_after(result, args):
        count("codec.bytes", result.data.size)

    def save_before(args, kwargs):
        count("codec.bytes", args[1].data.size)

    def plan_before(args, kwargs):
        tr.plans.append(args[1] if len(args) > 1 else kwargs["plan"])

    def sampler_before(args, kwargs):
        hooks = kwargs.get("hooks")
        if hooks is not None:
            kwargs = dict(kwargs, hooks=dataclasses.replace(
                hooks,
                pre=[tr.wrap("hir.lowfreq_hook", h) for h in hooks.pre],
                post=[tr.wrap("msr.overlap_hook", h) for h in hooks.post]))
        return args, kwargs

    load = dict(after=load_after)
    table = [
        (cli, "load_image", "imagecore.load_image", load),
        (imagecore, "load_image", "imagecore.load_image", load),
        (cli, "save_image", "imagecore.save_image", dict(before=save_before)),
        (denoise, "load_gmm_prior", "denoise.load_gmm_prior", {}),
        (denoise, "GmmDenoiser.predict_eps", "denoise.predict_eps",
         dict(before=predict_before)),
        (linops, "load_mask", "linops.load_mask", {}),
        (linops, "AvgPool.forward", "linops.AvgPool.forward",
         dict(before=avgpool_before)),
        (linops, "AvgPool.pinv", "linops.AvgPool.pinv", {}),
        (linops, "Mask.forward", "linops.Mask.forward", {}),
        (linops, "Mask.pinv", "linops.Mask.pinv", {}),
        (linops, "LinearOperator.range_project", "linops.range_project", {}),
        (linops, "AvgPool.range_project", "linops.range_project", {}),
        (linops, "Mask.range_project", "linops.range_project", {}),
        (linops, "LinearOperator.pinv_scaled", "linops.pinv_scaled", {}),
        (cli, "plan_tiles", "msr.plan_tiles", {}),
        (hir, "plan_tiles", "msr.plan_tiles", {}),
        (cli, "msr_restore", "msr.msr_restore", dict(before=plan_before)),
        (hir, "msr_restore", "msr.msr_restore", dict(before=plan_before)),
        (cli, "hir_restore", "hir.hir_restore", {}),
        (msr, "run_sampler", "sampler.run_sampler",
         dict(before=sampler_before)),
        (sampler, "estimate_x0", "sampler.estimate_x0", {}),
        (sampler, "ddnm_project", "sampler.ddnm_project",
         dict(before=project_before)),
        (sampler, "ddnm_plus_project", "sampler.ddnm_plus_project",
         dict(before=project_before)),
        (sampler, "sample_prev", "sampler.sample_prev", {}),
        (sampler, "build_schedule", "schedule.build_schedule", {}),
        (sampler, "renoise_jump", "schedule.renoise_jump", {}),
    ]
    for cls in ("SuperResolutionTask", "InpaintTask", "ColorizeTask",
                "DenoiseTask", "GenerateTask"):
        table.append((tasks, f"{cls}.tile_problem", "tasks.tile_problem", {}))
    return table


@contextlib.contextmanager
def traced(tr: Tracer):
    """Install span wrappers for the duration of the block.

    A name the program no longer defines is skipped, and the metrics that
    read its spans report 0.
    """
    saved = []
    try:
        for module, path, name, extra in _patch_table(tr):
            *outer, attr = path.split(".")
            owner = module
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tr.wrap(name, original, **extra))
        yield tr
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_stats(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total duration, total self time), in seconds."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = collections.Counter()
    total = collections.defaultdict(float)
    own = collections.defaultdict(float)
    for i, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
    return {n: (calls[n], total[n], own[n]) for n in calls}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def job_metrics(tr: Tracer, job_s: float) -> dict[str, float]:
    """Per-layer metrics of the one job whose spans `tr` holds; `job_s` is
    the job's traced wall time measured around the root span."""
    st = span_stats(tr.spans)

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(st.get(n, (0, 0.0, 0.0))[2] for n in names)

    def us(name):
        c = calls(name)
        return self_s(name) / c * 1e6 if c else 0.0

    def per(key, name):
        c = calls(name)
        return tr.counts[key] / c if c else 0.0

    layer = collections.defaultdict(float)
    for name, (_, _, own) in st.items():
        layer[name.split(".", 1)[0]] += own
    steps = calls("denoise.predict_eps")
    project_calls = tr.counts["project.calls"]
    tile_s = [end - start for name, _, start, end in tr.spans
              if name == "sampler.run_sampler"]
    hir_idx = {i for i, s in enumerate(tr.spans) if s[0] == "hir.hir_restore"}
    phases = [end - start for name, parent, start, end in tr.spans
              if name == "msr.msr_restore" and parent in hir_idx]
    levels = [dag.dag_stats(p)[0] for p in tr.plans]
    known = [f for p in tr.plans for f in dag.known_fractions(p)]

    m = {
        "denoise.predict_eps.calls": steps,
        "denoise.predict_eps.us": us("denoise.predict_eps"),
        "denoise.predict_eps.flops": per("denoise.flops",
                                         "denoise.predict_eps"),
        "denoise.predict_eps.bytes": per("denoise.bytes",
                                         "denoise.predict_eps"),
        "sampler.run_sampler.calls": calls("sampler.run_sampler"),
        "sampler.run_sampler.self_us_per_step":
            self_s("sampler.run_sampler") / steps * 1e6 if steps else 0.0,
        "sampler.estimate_x0.us": us("sampler.estimate_x0"),
        "sampler.project.us":
            self_s(*_PROJECT) / project_calls * 1e6 if project_calls else 0.0,
        "sampler.project.noop_frac":
            tr.counts["project.noop"] / project_calls if project_calls
            else 0.0,
        "sampler.sample_prev.us": us("sampler.sample_prev"),
        "linops.AvgPool.forward.us": us("linops.AvgPool.forward"),
        "linops.AvgPool.forward.bytes": per("avgpool.bytes",
                                            "linops.AvgPool.forward"),
        "linops.AvgPool.pinv.us": us("linops.AvgPool.pinv"),
        "linops.range_project.us": us("linops.range_project"),
        "linops.Mask.forward.us": us("linops.Mask.forward"),
        "linops.Mask.pinv.us": us("linops.Mask.pinv"),
        "linops.pinv_scaled.us": us("linops.pinv_scaled"),
        "msr.tiles": len(tile_s),
        "msr.tile_s.p50": _pct(tile_s, 50),
        "msr.tile_s.p90": _pct(tile_s, 90),
        "msr.overlap_hook.us": us("msr.overlap_hook"),
        "msr.known_frac": float(np.mean(known)) if known else 0.0,
        "msr.dag_levels": sum(levels),
        "msr.mean_parallelism":
            sum(len(p.windows) for p in tr.plans) / sum(levels)
            if levels else 0.0,
        "hir.phase1_s": phases[0] if len(phases) > 0 else 0.0,
        "hir.phase2_s": phases[1] if len(phases) > 1 else 0.0,
        "hir.lowfreq_hook.us": us("hir.lowfreq_hook"),
        "schedule.build_schedule.calls": calls("schedule.build_schedule"),
        "schedule.renoise_jump.us": us("schedule.renoise_jump"),
        "tasks.tile_problem.us": us("tasks.tile_problem"),
        "imagecore.load_s": self_s("imagecore.load_image"),
        "imagecore.save_s": self_s("imagecore.save_image"),
        "imagecore.bytes": tr.counts["codec.bytes"],
        "cli.self_s": self_s("cli.run_job"),
        "trace.job_s": job_s,
        "trace.spans": len(tr.spans),
        "trace.unattributed_frac": 1.0 - sum(layer.values()) / job_s,
    }
    for name in ("denoise", "sampler", "linops", "msr", "hir"):
        m[f"{name}.share"] = layer[name] / job_s
    return m
