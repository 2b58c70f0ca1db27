"""Benchmark entry point for fractal_remez.

    python3 perfbench/run.py --workload {extension,cartan,survey}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds the details: environment, pass counts, the tail percentile and
its sample count, every failing operation and the scientific figures.

Exit codes: 0 when a result was printed (failed operations are reported
in the result, not through the exit code), 2 when the program cannot be
imported or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("extension", "cartan", "survey")

# One process, no worker threads: BLAS must not start its own pool.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
IMPORT_SAMPLES = 3
SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT = 60

IMPORT_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fractal_remez.cli, fractal_remez.extension\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> float:
    """Import the program from this checkout; returns the import seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import fractal_remez.cli  # noqa: F401
    import fractal_remez.extension  # noqa: F401

    seconds = time.perf_counter() - t0
    origin = os.path.dirname(os.path.abspath(fractal_remez.cli.__file__))
    if os.path.dirname(origin) != SRC:
        raise ImportError(f"fractal_remez was imported from {origin}, "
                          f"not from {SRC}")
    return seconds


def import_seconds_fresh() -> float:
    """Import time of the program in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return float(proc.stdout.strip().splitlines()[-1])


def fmt(metrics: dict) -> dict:
    return {name: {"value": float(v), "unit": unit}
            for name, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    try:
        own_import_s = import_program()
    except ImportError as exc:
        print(f"cannot import fractal_remez from {SRC}: {exc}",
              file=sys.stderr)
        return 2

    import harness
    import tracer as tracing
    import workloads

    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return run(args, own_import_s, run_dir, harness, tracing, workloads)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, own_import_s, run_dir, harness, tracing, workloads) -> int:
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds,
               "environment": harness.environment()}

    if args.trace == 0:
        reference = harness.Reference()
        reference.run()  # warm-up
        import_s, import_ref_s = [], []
        for _ in range(IMPORT_SAMPLES):
            seconds, _, ref = reference.time_call(import_seconds_fresh)
            import_s.append(seconds)
            import_ref_s.append(harness.at_reference_speed(seconds, ref))
        build_s, build_ref_s = [], []
        for _ in range(SETUP_SAMPLES):
            ops, seconds, ref = reference.time_call(
                lambda: workloads.setup(args.workload, args.seed, run_dir))
            build_s.append(seconds)
            build_ref_s.append(harness.at_reference_speed(seconds, ref))
        details["setup"] = {"own_import_s": own_import_s,
                            "import_s": import_s, "build_s": build_s,
                            "import_ref_s": import_ref_s,
                            "build_ref_s": build_ref_s}
        passes = harness.run_timed(ops, args.seconds, reference)
        metrics, more = harness.end_to_end(
            args.workload, passes,
            statistics.median(import_ref_s) + statistics.median(build_ref_s))
        details.update(more)
    else:
        metrics, passes = run_traced(args, run_dir, harness, tracing,
                                     workloads, details)

    attempted, failed, listing = harness.failures(passes)
    details["fail_frac"] = failed / attempted
    details["failures"] = listing
    details["figures"] = harness.figures(passes)
    for item in listing:
        print(f"FAILED {item['op']} x{item['count']}: {item['problems']}",
              file=sys.stderr)
    print(json.dumps(details, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": fmt(metrics)}))
    return 0


def run_traced(args, run_dir, harness, tracing, workloads, details):
    """Traced set-up, then untraced and traced passes in alternation.

    The wrappers are installed only for the traced set-up and the traced
    passes, so the untraced passes run the program exactly as without
    ``--trace``.
    """
    tr = tracing.Tracer()
    with tracing.installed(tr), tr.operation(-1):
        ops = workloads.setup(args.workload, args.seed, run_dir)
    setup_summary, setup_counters = tr.summary(), tr.counters.copy()
    span_sets = [tr.arrays()]
    tr.reset()

    reference = harness.Reference()
    plain, traced, samples = [], [], []
    t0 = time.perf_counter()
    plain.append(harness.run_pass(ops, reference=reference))  # warm-up
    while (not traced or len(plain) < 2
           or time.perf_counter() - t0 < args.seconds):
        with tracing.installed(tr):
            traced.append(harness.run_pass(ops, tracer=tr,
                                           reference=reference))
        summary = harness.merge_summaries(setup_summary, tr.summary())
        samples.append(harness.layer_metrics(
            summary, setup_counters + tr.counters))
        span_sets.append(tr.arrays())
        tr.reset()
        plain.append(harness.run_pass(ops, reference=reference))

    metrics = harness.median_metrics(samples)
    plain_wall = statistics.median(
        harness.pass_scaled_seconds(p) for p in harness.measured(plain))
    traced_wall = statistics.median(harness.pass_scaled_seconds(p)
                                    for p in traced)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0,
                                      "fraction")
    details.update({"traced_passes": len(traced),
                    "untraced_passes": len(plain),
                    "untraced_wall_ref_s": plain_wall,
                    "traced_wall_ref_s": traced_wall,
                    "spans_per_pass": [len(s["start"]) for s in span_sets[1:]],
                    "spans_file": write_spans(args, tr.names, span_sets)})
    return metrics, plain + traced


def write_spans(args, names, span_sets) -> str:
    """Write every recorded span (set-up is pass 0) as one .npz file."""
    import numpy as np

    path = os.path.join(OUT, f"spans-{args.workload}.npz")
    cols = {key: np.concatenate([s[key] for s in span_sets])
            for key in ("name_id", "start", "end", "parent", "op", "self")}
    cols["pass"] = np.concatenate([np.full(len(s["start"]), i, dtype=np.int32)
                                   for i, s in enumerate(span_sets)])
    np.savez_compressed(path, names=np.array(names), **cols)
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
