#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<short-sha>.json.

Runs the benchmark of BENCHMARK.json (perfbench/run.py) on every workload
at seed 101, untraced and traced, each for the declared run_seconds, and
keeps the last JSON line of each run.  Then runs the acceptance suite
serially in this process and records each criterion's seconds.  The file
is written at the root of the checkout this script lives in, named for
its HEAD commit; "dirty" says whether tracked files differ from HEAD.

Usage: python scripts/bench_record.py    (about five minutes)
"""

import json
import os
import platform
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import scipy

from fractal_remez import acceptance

SEED = 101


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sha = git("rev-parse", "--short", "HEAD")
    record = {
        "commit": sha,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "machine": platform.machine(),
                "cpus": os.cpu_count()},
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "benchmark": {},
    }
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            cmd = [*bench["command"], "--workload", name, "--seed", str(SEED),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout
            last = json.loads(out.strip().splitlines()[-1])
            record["benchmark"][f"{name}.trace{trace}"] = last
            print(f"{name} --trace {trace}: correct={last['correct']}",
                  flush=True)
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
