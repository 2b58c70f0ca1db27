#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<short-sha>.json.

Runs the benchmark of BENCHMARK.json (perfbench/run.py) on every workload
at seed 101, untraced and traced, each for the declared run_seconds, and
keeps the last JSON line of each run and the minor page faults of its
processes (getrusage RUSAGE_CHILDREN, before and after the run), also per
attempted operation: a faster change runs more passes in the same time,
so only the per-operation figure compares across runs.  Then it
imports the scipy modules that the library defers (recorded as import_s),
so that no criterion's seconds carry them, runs the acceptance suite
serially in this process and records each criterion's seconds.  The file
is written at the root of the checkout this script lives in, named for
its HEAD commit; "dirty" says whether the measured files (src/,
perfbench/, BENCHMARK.json) differ from HEAD.

Usage: python scripts/bench_record.py    (about five minutes)
"""

import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import scipy

from fractal_remez import acceptance

SEED = 101
# the scipy modules that fractal_remez imports inside functions, on first use
DEFERRED_IMPORTS = ("scipy.optimize", "scipy.sparse", "scipy.spatial",
                    "scipy.special")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sha = git("rev-parse", "--short", "HEAD")
    record = {
        "commit": sha,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no",
                          "--", "src", "perfbench", "BENCHMARK.json")),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "machine": platform.machine(),
                "cpus": os.cpu_count()},
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "benchmark": {},
        "minor_faults": {},
        "minor_faults_per_op": {},
    }
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            cmd = [*bench["command"], "--workload", name, "--seed", str(SEED),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            out = subprocess.run(cmd, cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout
            faults = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
                      - before)
            last = json.loads(out.strip().splitlines()[-1])
            key = f"{name}.trace{trace}"
            record["benchmark"][key] = last
            record["minor_faults"][key] = faults
            record["minor_faults_per_op"][key] = faults / last["attempted"]
            print(f"{name} --trace {trace}: correct={last['correct']}, "
                  f"{faults} minor faults", flush=True)
    start = time.perf_counter()
    for module in DEFERRED_IMPORTS:
        importlib.import_module(module)
    record["import_s"] = time.perf_counter() - start
    results = acceptance.run_all(1)
    record["acceptance"] = [{"number": r.number, "name": r.name,
                             "passed": r.passed, "seconds": r.seconds}
                            for r in results]
    record["acceptance_seconds"] = sum(r.seconds for r in results)
    path = os.path.join(ROOT, f"BENCH_{sha}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
