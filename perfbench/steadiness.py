"""Repeat each workload with different seeds and print how much every
end-to-end metric spreads, next to the bound ``BENCHMARK.json`` sets.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...]
        [--seconds S]

Run ``k`` of a workload uses seed ``k`` (1 to ``--runs``).

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; a bound is only meaningful when the spread stays well
inside it.  Runs are sequential, one process at a time.  The share of
failed documents is printed too: it must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed,
                                                       proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        runs = []
        for k in range(args.runs):
            seed = k + 1
            start = time.perf_counter()
            result = run_once(name, seed, args.seconds)
            runs.append(result)
            print("%s seed %d: %d attempted, %d failed, %.1f s" % (
                name, seed, result["attempted"], result["failed"],
                time.perf_counter() - start), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: failed share %s over %d runs" % (
            name, ", ".join("%.4f" % s for s in shares), len(runs)))
        print("  %-18s %12s %10s %8s %8s" % ("metric", "median", "spread",
                                             "bound", "ratio"))
        for metric, info in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            s = spread(values) if len(values) >= 2 else float("nan")
            ratio = s / info["bound"]
            if metric != "setup_s":
                worst = max(worst, ratio)
            print("  %-18s %12.5g %9.1f%% %7.0f%% %8.2f" % (
                metric, med, 100 * s, 100 * info["bound"], ratio))
        print(flush=True)
    print("largest spread/bound ratio (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
