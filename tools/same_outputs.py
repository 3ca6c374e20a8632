"""Check that two spamlab checkouts give byte-identical outputs.

    python3 tools/same_outputs.py --parent OLD --change NEW --seeds 1 2 3
    python3 tools/same_outputs.py --parent OLD --change NEW --seeds 1 2 3 \
        --workloads server-bulk --set level=U --set "filters=bayes U; volume S"

OLD and NEW are checkout roots, each with src/spamlab. For every workload
of this checkout's perfbench/inputs.py (all three by default, or those
named with --workloads) and every seed, the inputs are generated with
inputs.generate, and each --set KEY=VALUE then sets or adds that key of
the generated scenario.cfg. Each tree then runs in a process of its own: it
calibrates the workload's sim config once with calibrate_spam_fraction,
writes the result as each seed's sim.cfg with write_sim_config, and runs
run_scenario on every seed. The two trees' results.csv, results.txt,
connections.log, farfrr.svg and calibrated sim.cfg are compared byte for
byte; one line per file says identical or different. The exit status is
1 when any file differs and 2 when a tree fails to run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("results.csv", "results.txt", "connections.log", "farfrr.svg")


def _inputs_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    return inputs


def _src(tree: str) -> Path:
    src = Path(tree).resolve() / "src"
    if not (src / "spamlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no spamlab source under {src}")
    return src


def _setting(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(f"{text!r} is not KEY=VALUE")
    return key.strip(), value.strip()


def override(inputs, scenario_path: Path, settings: list[tuple[str, str]]) -> None:
    """Set each (key, value) of settings in a scenario.cfg written by
    inputs.generate, in place of the key's line or after the last line."""
    values = dict(
        line.split(" = ", 1)
        for line in scenario_path.read_text(encoding="utf-8").splitlines()
    )
    values.update(settings)
    inputs.write_kv(scenario_path, values)


def run_tree(workload_dir: Path) -> None:
    """Calibrate once and run every seed under workload_dir, with the
    spamlab found on PYTHONPATH."""
    import spamlab
    from spamlab import evalcli, trafficgen

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(spamlab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: spamlab imported from {spamlab.__file__}, not {src}")
    seeds = sorted(workload_dir.iterdir())
    config = trafficgen.load_sim_config(seeds[0] / "inputs" / "sim.uncalibrated.cfg")
    calibrated = trafficgen.calibrate_spam_fraction(config)
    for seed_dir in seeds:
        inputs_dir = seed_dir / "inputs"
        trafficgen.write_sim_config(calibrated, inputs_dir / "sim.cfg")
        scenario = evalcli.load_scenario(inputs_dir / "scenario.cfg")
        evalcli.run_scenario(scenario, seed_dir / "out")


def compare(parent_dir: Path, change_dir: Path) -> list[tuple[str, bool]]:
    """(file name, identical) for each compared file of one seed's run."""
    pairs = [(name, Path("out", name)) for name in OUTPUTS]
    pairs.append(("sim.cfg", Path("inputs", "sim.cfg")))
    return [
        (name, (parent_dir / rel).read_bytes() == (change_dir / rel).read_bytes())
        for name, rel in pairs
    ]


def main(argv=None) -> int:
    inputs = _inputs_module()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout root of the old tree")
    parser.add_argument("--change", required=True, help="checkout root of the new tree")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(inputs.WORKLOADS),
        default=list(inputs.WORKLOADS),
    )
    parser.add_argument(
        "--set", type=_setting, action="append", default=[], metavar="KEY=VALUE",
        help="a scenario.cfg setting for every run (repeatable)",
    )
    args = parser.parse_args(argv)
    trees = {"parent": _src(args.parent), "change": _src(args.change)}

    different = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for name in args.workloads:
            dirs = {side: Path(tmp, side, name) for side in trees}
            for side, workload_dir in dirs.items():
                for seed in args.seeds:
                    made = inputs.generate(
                        inputs.WORKLOADS[name], seed, workload_dir / f"s{seed}" / "inputs"
                    )
                    if args.set:
                        override(inputs, made.scenario_path, args.set)
            procs = {
                side: subprocess.Popen(
                    [sys.executable, __file__, "--run-tree", str(dirs[side])],
                    env=dict(os.environ, PYTHONPATH=str(src)),
                )
                for side, src in trees.items()
            }
            failed = [side for side, proc in procs.items() if proc.wait() != 0]
            if failed:
                print(f"error: {name}: the {' and '.join(failed)} tree failed",
                      file=sys.stderr)
                return 2
            for seed in args.seeds:
                for file, same in compare(
                    dirs["parent"] / f"s{seed}", dirs["change"] / f"s{seed}"
                ):
                    different += not same
                    verdict = "identical" if same else "DIFFERENT"
                    print(f"{name:16} seed {seed}  {file:16} {verdict}")
    print(f"{different} file(s) differ")
    return 1 if different else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-tree"]:
        run_tree(Path(sys.argv[2]))
    else:
        sys.exit(main())
