"""One measured process of the benchmark; run.py starts it.

    python3 child.py setup SCENARIO
        times `import spamlab` plus load_scenario in this fresh interpreter
        and prints the seconds;
    python3 child.py calibrate SIM
        times calibrate_spam_fraction on the sim config and prints a JSON
        object with the seconds and the calibrated config;
    python3 child.py run SCENARIO OUT
        runs run_scenario once and prints a JSON object with its wall time,
        peak RSS, write system calls and classify operations;
    python3 child.py trace SCENARIO OUT SIM
        the same with every layer traced (see layers.py), after a traced
        calibrate_spam_fraction on SIM; adds the per-layer figures.

The spamlab package must come from the checkout's src directory, which
run.py puts on PYTHONPATH. Each mode imports what it needs itself, so that
the setup clock starts with nothing but os, sys and time loaded.
"""

import os
import sys
import time


def _check_origin(spamlab) -> None:
    src = os.path.realpath(os.environ["PYTHONPATH"])
    if os.path.dirname(os.path.dirname(os.path.realpath(spamlab.__file__))) != src:
        sys.exit(f"spamlab imported from {spamlab.__file__}, not from {src}")


def setup(scenario_path: str) -> None:
    # Only sys and time are loaded before the clock starts, so every module
    # spamlab needs is paid for inside the timed region.
    t0 = time.perf_counter()
    import spamlab
    from spamlab.evalcli import load_scenario

    load_scenario(scenario_path)
    elapsed = time.perf_counter() - t0
    _check_origin(spamlab)
    print(repr(elapsed))


def calibrate(sim_path: str) -> None:
    import json
    from dataclasses import asdict

    import spamlab
    from spamlab import trafficgen

    _check_origin(spamlab)
    config = trafficgen.load_sim_config(sim_path)
    t0 = time.perf_counter()
    calibrated = trafficgen.calibrate_spam_fraction(config)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"calibrate_s": elapsed, "config": asdict(calibrated)}))


def _syscw() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("syscw:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no syscw line")


def run(scenario_path: str, out: str, sim_path: str | None = None) -> None:
    import json
    import resource

    import spamlab
    from spamlab import evalcli, trafficgen

    _check_origin(spamlab)
    tracer = None
    if sim_path is not None:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        trafficgen.calibrate_spam_fraction(trafficgen.load_sim_config(sim_path))
    scenario = evalcli.load_scenario(scenario_path)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    writes0 = _syscw()
    t0 = time.perf_counter()
    ranked = evalcli.run_scenario(scenario, out)
    run_s = time.perf_counter() - t0
    writes = _syscw() - writes0
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "write_calls": writes,
        "attempted": sum(r.counts.n_spam + r.counts.n_ham + r.wrapper_errors for r in ranked),
        "failed": sum(r.wrapper_errors for r in ranked),
    }
    if tracer is not None:
        tracer.uninstall()
        child_cpu = (children1.ru_utime - children0.ru_utime) + (
            children1.ru_stime - children0.ru_stime
        )
        result["layers"] = tracer.summary(child_cpu, out)
    print(json.dumps(result))


def main(argv) -> None:
    mode = argv[1]
    if mode == "setup":
        setup(argv[2])
    elif mode == "calibrate":
        calibrate(argv[2])
    elif mode == "run":
        run(argv[2], argv[3])
    elif mode == "trace":
        run(argv[2], argv[3], argv[4])
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv)
