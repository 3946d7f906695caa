"""Time-to-verdict benchmark for kvlog.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {search,fuzz,bisim,oneshot} \\
        --seed N --seconds S --trace {0,1}

One client, closed loop, one process, no worker pool: each job starts when
the previous one has returned.  The job list comes in passes of a fixed
make-up (see workloads.py); whole passes run until the next one would not
fit in ``--seconds`` of job time, at least one pass.  Every verdict is
checked outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of passes untraced, the same passes traced, and prints the
per-layer metrics and ``trace.overhead_frac``.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2, and
no result, when the checkout lacks the package, the oracles or the
proof scripts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import types

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers                   # noqa: E402
import refs                     # noqa: E402
from workloads import WORKLOADS, Context   # noqa: E402

MODULES = ("syntax", "models", "semantics", "transform", "bisim", "proof",
           "cli")
SETUP_REPEATS = 15
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)
REQUIRED = ("src/kvlog/__init__.py", "tests/oracles.py", "proofs/negative")


def import_kvlog(root: pathlib.Path):
    """A fresh import of the package under ``root/src``."""
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "kvlog" or n.startswith("kvlog.")]:
        del sys.modules[name]
    package = importlib.import_module("kvlog")
    if not pathlib.Path(package.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"kvlog imported from {package.__file__}")
    mods = {name: importlib.import_module(f"kvlog.{name}") for name in MODULES}
    return types.SimpleNamespace(modules=[package, *mods.values()], **mods)


def set_up(workload, root, seed):
    """Import the package and build the first pass; returns (seconds, ctx,
    jobs of pass 0)."""
    start = time.perf_counter()
    api = import_kvlog(root)
    ctx = Context(api=api, root=root, seed=seed)
    jobs = workload.build(ctx, 0)
    return time.perf_counter() - start, ctx, jobs


def run_jobs(jobs, stats, pause=None):
    """Run one list of jobs in order; returns the summed job time."""
    total = 0.0
    for job in jobs:
        start = time.perf_counter()
        try:
            out, ok = job.run(), True
        except Exception as exc:          # a crash is a failed job
            out, ok = exc, False
        dt = time.perf_counter() - start
        total += dt
        with pause() if pause else contextlib.nullcontext():
            try:
                ok = ok and bool(job.check(out))
            except Exception:             # a malformed output fails its check
                ok = False
        stats.record(job, dt, ok)
    return total


class Stats:
    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.kinds = {}
        self.controls = []

    def record(self, job, dt, ok):
        self.latencies.append(dt)
        self.failed += not ok
        self.kinds[job.kind] = self.kinds.get(job.kind, 0) + 1
        if job.control:
            self.controls.append(job)

    @property
    def attempted(self):
        return len(self.latencies)

    def audit_controls(self, workload):
        """Controls checked in aggregate fail together when none found
        anything: the checker then reported clean without checking."""
        if (workload.controls_in_aggregate and self.controls
                and not any(job.found for job in self.controls)):
            self.failed += len(self.controls)


def tail(latencies):
    """(percentile, samples beyond it, value): the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(latencies)
    usable = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10]
    p = usable[-1] if usable else 50
    ordered = sorted(latencies)
    rank = (n - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return p, n - 1 - lo, value


def measure(workload, ctx, first, seconds):
    """Whole passes until the next one would overrun ``seconds`` of job
    time.  Returns (Stats, timed seconds, passes)."""
    stats = Stats()
    gc.collect()
    elapsed, passes, jobs = 0.0, 0, first
    while True:
        took = run_jobs(jobs, stats)
        elapsed += took
        passes += 1
        if elapsed + took > seconds:
            break
        jobs = workload.refine(ctx, workload.build(ctx, passes))
    stats.audit_controls(workload)
    return stats, elapsed, passes


def end_to_end(setups, stats, elapsed):
    p, beyond, value = tail(stats.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (stats.attempted / elapsed, "1/s"),
        "job_p50_ms": (statistics.median(stats.latencies) * 1e3, "ms"),
        "job_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics, {"percentile": p, "samples_beyond": beyond}


def traced(workload, ctx):
    """Run trace_passes passes untraced, then the same passes, rebuilt,
    traced.  Returns (Stats of both halves, per-layer metrics)."""
    def passes():
        return [job for k in range(workload.trace_passes)
                for job in workload.refine(ctx, workload.build(ctx, k))]

    stats = Stats()
    gc.collect()
    plain = run_jobs(passes(), stats)
    jobs = passes()
    tracer = layers.Tracer()
    tracer.install(ctx.api)
    gc.collect()
    with_trace = run_jobs(jobs, stats, tracer.paused)
    stats.audit_controls(workload)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (with_trace / plain - 1, "frac")
    return stats, metrics


def read_commit(root: pathlib.Path) -> str:
    """HEAD of the checkout's git repository, without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info(args, stats, extra):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": read_commit(ROOT),
            "jobs": stats.attempted, "jobs_by_kind": stats.kinds,
            "failed_frac": stats.failed / max(stats.attempted, 1),
            "controls": len(stats.controls),
            "controls_found": sum(job.found for job in stats.controls),
            **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: the checkout at {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        took, ctx, first = set_up(workload, ROOT, args.seed)
        setups.append(took)
    ctx.oracles = refs.load_oracles(ROOT)
    first = workload.refine(ctx, first)

    if args.trace:
        stats, metrics = traced(workload, ctx)
        extra = {"trace_passes": workload.trace_passes}
    else:
        stats, elapsed, passes = measure(workload, ctx, first, args.seconds)
        metrics, tail_info = end_to_end(setups, stats, elapsed)
        extra = {"passes": passes, "timed_s": elapsed, "tail": tail_info,
                 "setup_runs_s": setups}

    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_tail_ms":
            note = " (p{percentile}, {samples_beyond} samples beyond)".format(
                **extra["tail"])
        print(f"{args.workload} {name} = {value:.6g} {unit}{note}")
    print(json.dumps({"run_info": run_info(args, stats, extra)}))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
