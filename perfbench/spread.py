"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1]

For every workload it runs run.py once per seed (first-seed, first-seed+1,
...) with BENCHMARK.json's run_seconds, one run at a time, and prints per
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median beside a third of the metric's bound. The
share of failed operations is printed per workload. Exits 1 when a run
fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    status = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*SPEC["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)
                status = 1
                continue
            result = json.loads(last)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", flush=True)
                status = 1
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            ), flush=True)
        print(f"{workload}: failed share {sorted(shares)}")
        for metric in SPEC["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            print(f"  {metric['name']:12} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}  bound/3 {metric['bound'] / 3:.4f}"
                  f"  n={len(vals)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
