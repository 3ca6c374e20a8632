"""spamlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload user-bayes --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated from the seed
(inputs.py), the program is driven through its public API
(load_scenario, calibrate_spam_fraction, run_scenario), and every run's
output is checked against oracle.py. The last line of standard output is
one JSON object: correct, attempted, failed (classify operations) and the
metrics that BENCHMARK.json declares, end-to-end ones with --trace 0 and
per-layer ones with --trace 1.

A run repeats whole rounds until --seconds have passed (at least
MIN_ROUNDS). With --trace 0 a round is fresh processes timing
calibrate_spam_fraction for CALIBRATE_PER_ROUND_S, fresh interpreters
timing `import spamlab` plus load_scenario for SETUP_PER_ROUND_S, and one
run_scenario in a fresh process; each metric is the median over the run. With --trace 1 a round is one untraced and one traced
run_scenario process (layers.py).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
# Calibrations and set-ups are repeated for at least this long in each
# round: a single one is short enough for the host's speed to swing it by
# a quarter, and more samples steady their medians.
CALIBRATE_PER_ROUND_S = 2.0
SETUP_PER_ROUND_S = 0.6
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def _child(args, env) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[0]} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _disk_bytes(out: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files
    )


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in ("results.csv", "connections.log"):
        h.update((out / name).read_bytes())
    return h.hexdigest()


class Run:
    """State of one benchmark run: inputs, child environment, tallies."""

    def __init__(self, workload: inputs.Workload, seed: int, work: Path):
        self.workload = workload
        self.inputs = inputs.generate(workload, seed, work / "inputs")
        self.out = work / "out"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop(inputs.SPAWN_LOG_ENV, None)
        self.calibrated: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def calibrate(self) -> float:
        """Time one calibration in a fresh process; the first one's result
        becomes sim.cfg."""
        result = json.loads(_child(["calibrate", self.inputs.uncalibrated_path], self.env))
        if self.calibrated is None:
            self.calibrated = result["config"]
            inputs.write_kv(
                self.inputs.sim_path,
                {k: repr(v) if isinstance(v, float) else v for k, v in self.calibrated.items()},
            )
        elif result["config"] != self.calibrated:
            raise BenchmarkError("calibrate_spam_fraction gave two results for one config")
        return result["calibrate_s"]

    def setup(self) -> float:
        return float(_child(["setup", self.inputs.scenario_path], self.env))

    def run_scenario(self, traced: bool = False) -> dict:
        """One run_scenario in a fresh process on a fresh output directory."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.inputs.trainer_state.unlink(missing_ok=True)
        env = self.env
        if traced:
            spawns = self.out.parent / "spawns"
            spawns.unlink(missing_ok=True)
            env = dict(env, **{inputs.SPAWN_LOG_ENV: str(spawns)})
            args = ["trace", self.inputs.scenario_path, self.out, self.inputs.uncalibrated_path]
        else:
            args = ["run", self.inputs.scenario_path, self.out]
        result = json.loads(_child(args, env))
        result["disk_mb"] = _disk_bytes(self.out) / 1e6
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.digests.add(_digest(self.out))
        return result

    def check_outputs(self) -> list[str]:
        """Problems found in the outputs; empty when all checks pass."""
        problems = []
        if len(self.digests) != 1:
            problems.append("results.csv or connections.log differ between runs of one seed")
        import spamlab  # on sys.path once main() has added src/

        try:
            oracle.check_run(spamlab, self.inputs, self.workload, self.calibrated, self.out)
        except oracle.OracleMismatch as exc:
            problems.append(str(exc))
        return problems


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _rounds(seconds: float, minimum: int):
    """Count rounds until `minimum` are done and the next one would end
    after `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        yield rounds
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds:
            return


def _repeat(measure_once, seconds: float) -> list[float]:
    """Samples of measure_once, taken until `seconds` have passed."""
    samples: list[float] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(measure_once())
    return samples


def measure(run: Run, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {
        "run_s": [], "setup_s": [], "calibrate_s": [], "peak_rss_mb": [],
        "disk_mb": [], "write_calls": [],
    }
    for _ in _rounds(seconds, MIN_ROUNDS):
        samples["calibrate_s"].extend(_repeat(run.calibrate, CALIBRATE_PER_ROUND_S))
        samples["setup_s"].extend(_repeat(run.setup, SETUP_PER_ROUND_S))
        result = run.run_scenario()
        for key in ("run_s", "peak_rss_mb", "disk_mb", "write_calls"):
            samples[key].append(result[key])
    return samples


def measure_traced(run: Run, seconds: float):
    """(untraced run_s samples, per-layer samples incl. trace.run_s)."""
    run.calibrate()
    untraced: list[float] = []
    samples: dict[str, list[float]] = {"trace.run_s": []}
    for _ in _rounds(seconds, MIN_TRACE_ROUNDS):
        untraced.append(run.run_scenario()["run_s"])
        traced = run.run_scenario(traced=True)
        samples["trace.run_s"].append(traced["run_s"])
        for name, value in traced["layers"].items():
            samples.setdefault(name, []).append(value)
    return untraced, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spamlab" / "__init__.py").is_file():
        print(f"error: no spamlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # bytecode first, so that no timed child compiles spamlab
    compileall.compile_dir(SRC / "spamlab", quiet=1)

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _measure_and_check(args, work)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _measure_and_check(args, work: Path) -> int:
    run = Run(inputs.WORKLOADS[args.workload], args.seed, work)

    if args.trace:
        import layers  # imports spamlab

        untraced, samples = measure_traced(run, args.seconds)
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["trace.untraced_run_s"] = statistics.median(untraced)
        metrics["trace.overhead"] = metrics["trace.run_s"] / metrics["trace.untraced_run_s"] - 1
        idle = layers.check_working(args.workload, metrics)
        if idle:
            print(f"error: layers recorded no calls on {args.workload}: {', '.join(idle)}",
                  file=sys.stderr)
            return 3
        declared = SPEC["per_layer"]
        for m in declared:
            print(f"{m['name']:42} {metrics[m['name']]:.6g} {m['unit']}")
    else:
        samples = measure(run, args.seconds)
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        for name in ("disk_mb", "write_calls"):
            if len(set(samples[name])) != 1:
                print(f"error: {name} differs between runs of one seed: {samples[name]}",
                      file=sys.stderr)
                return 3
        declared = SPEC["end_to_end"]
        for name, values in samples.items():
            q1, q3 = _quartiles(values)
            print(f"{name:12} median {statistics.median(values):.6g}  q1 {q1:.6g}"
                  f"  q3 {q3:.6g}  n={len(values)}")

    problems = run.check_outputs()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    if not problems:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
