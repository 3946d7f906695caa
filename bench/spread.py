"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workloads search fuzz --seeds 1-10 --seconds 25

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound
in BENCHMARK.json.  ``--json`` writes every run's result and run_info.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json", type=pathlib.Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
                check=True)
            *_, info, last = out.stdout.strip().splitlines()
            result = {**json.loads(info), **json.loads(last)}
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed",
                      file=sys.stderr)
            runs.append(result)
        raw[workload] = runs
        for name, (bound, unit) in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"{workload:8} {name:12} {unit:4} median {median:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}  "
                  f"= {spread / bound:5.2f} of bound {bound}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
