"""Pass runner, metrics and environment record for the benchmark.

A pass runs every operation of a workload once, in order.  An operation's
latency covers its ``run`` call only; its output check runs afterwards,
outside the timing and with tracing off.  The first pass of a run is a
warm-up (lazy imports inside scipy, the program's memo tables) and is
left out of the timing statistics, but its outputs are still checked.

Times that enter the end-to-end metrics are expressed in seconds at a
fixed reference speed.  The shared virtual machines this benchmark runs on
change speed by up to 1.7x within seconds and for minutes at a time,
because of load from other guests; no amount of sampling inside one run
averages that out.  A fixed reference kernel (`Reference`) is therefore
timed next to every timed piece of work, and each measured time is scaled
by ``REFERENCE_NOMINAL_S / reference time``.  The kernel is benchmark
code, identical on every commit, so a change to the program moves the
scaled times exactly as it moves the raw ones, while a slower machine
moves both the work and the kernel.  Raw times stay in the details line.
"""

from __future__ import annotations

import glob
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# Tail percentile per workload: the highest of 50/75/90/95/99 that keeps
# at least ten samples beyond it at the run length in BENCHMARK.json.  It
# is fixed, not chosen per run, so the same statistic is compared across
# commits even when a faster program completes more passes.
TAIL_PERCENTILE = {"extension": 75, "cartan": 90, "survey": 90}

# The reference kernel's time on the machine the benchmark was written on
# (2-vCPU Intel Xeon guest) in its fast state.  Any fixed value would do;
# this one keeps scaled times close to raw ones on a quiet machine.
REFERENCE_NOMINAL_S = 0.006


class Reference:
    """A fixed kernel whose time gauges the machine's current speed.

    Its mix follows what the program spends time on: an interpreter loop,
    numpy calls on small arrays (mask, normalise, small SVD) and one
    memory-bound sort.  Timed beside every operation for 2 to 10 minutes
    per workload, such kernels followed pass times through slow and fast
    machine states with per-pass correlations of 0.8 to 0.95; no single
    part did clearly better on all three workloads.  Its inputs are drawn
    from a fixed seed, never from the workload seed.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.matrix = rng.standard_normal((40, 10))
        self.points = rng.random((512, 2))
        self.values = rng.random(200_000)

    def run(self) -> None:
        s = 0
        for i in range(30_000):
            s += i * i
        for _ in range(40):
            mask = np.all((self.points >= 0.2) & (self.points <= 0.7), axis=1)
            inside = self.points[mask]
            inside[:, 0] / inside[:, 0].sum()
            np.linalg.svd(self.matrix, compute_uv=False)
        np.sort(self.values)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def time_call(self, fn) -> tuple:
        """(result, seconds, reference seconds) of ``fn()``.

        The kernel runs just before and just after the call; the reference
        seconds are the mean of the two.
        """
        ref_before = self.seconds()
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        return out, seconds, 0.5 * (ref_before + self.seconds())


def at_reference_speed(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured beside a reference run of ``ref_seconds``."""
    return seconds * REFERENCE_NOMINAL_S / ref_seconds


@dataclass
class OpResult:
    name: str
    seconds: float
    ref_seconds: float | None = None
    problems: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)


def run_pass(ops, tracer=None, reference=None) -> list:
    """Run each operation once; with a tracer, each inside a root span.

    With a reference, the kernel runs before the first operation and after
    every operation, and each result carries the mean of the two reference
    times around it.
    """
    results = []
    ref_before = reference.seconds() if reference is not None else None
    for i, op in enumerate(ops):
        out, problems, figures = None, [], {}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.operation(i):
                    out = op.run()
        except Exception as exc:  # an operation that raises has failed
            problems.append(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        ref_seconds = None
        if reference is not None:
            ref_after = reference.seconds()
            ref_seconds = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
        if not problems:
            try:
                problems, figures = op.check(out)
            except Exception as exc:  # so has one whose output is unusable
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        results.append(OpResult(op.name, seconds, ref_seconds,
                                list(problems), figures))
    return results


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


def scaled_seconds(r: OpResult) -> float:
    """An operation's latency at reference speed."""
    return at_reference_speed(r.seconds, r.ref_seconds)


def pass_scaled_seconds(results) -> float:
    return sum(scaled_seconds(r) for r in results)


def run_timed(ops, seconds: float, reference: Reference,
              limit: float = 150.0) -> list:
    """Passes until ``seconds`` have elapsed, at least two (warm-up + one).

    No new pass starts once another would likely end beyond ``limit``.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ops, reference=reference))
        elapsed = time.perf_counter() - t0
        last = pass_seconds(passes[-1])
        if len(passes) >= 2 and elapsed >= seconds:
            break
        if elapsed + last > limit:
            break
    return passes


def measured(passes: list) -> list:
    """Passes that enter the statistics: all but the warm-up."""
    return passes[1:] if len(passes) > 1 else passes


def end_to_end(workload: str, passes: list, setup_s: float) -> tuple:
    """End-to-end metrics plus the details that explain them.

    ``setup_s`` is already at reference speed; so are the pass and
    operation times the metrics take from ``passes``.
    """
    timed = measured(passes)
    lat_ms = np.array([scaled_seconds(r) for p in timed for r in p]) * 1e3
    raw_ms = np.array([r.seconds for p in timed for r in p]) * 1e3
    pct = TAIL_PERCENTILE[workload]
    beyond = int(np.sum(lat_ms > np.percentile(lat_ms, pct)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (statistics.median(pass_scaled_seconds(p)
                                         for p in timed), "s"),
        "op_p50_ref_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_tail_ref_ms": (float(np.percentile(lat_ms, pct)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {"passes": len(passes), "measured_passes": len(timed),
               "ops_per_pass": len(passes[0]),
               "op_tail": {"percentile": pct, "samples": int(len(lat_ms)),
                           "samples_beyond": beyond},
               "raw": {"wall_s": statistics.median(pass_seconds(p)
                                                   for p in timed),
                       "op_p50_ms": float(np.percentile(raw_ms, 50)),
                       "op_tail_ms": float(np.percentile(raw_ms, pct))},
               "reference_ms": [round(1e3 * statistics.median(
                   r.ref_seconds for r in p), 3) for p in passes],
               "pass_seconds": [round(pass_seconds(p), 6) for p in passes],
               "op_ms": {r.name: [round(p[i].seconds * 1e3, 3) for p in passes]
                         for i, r in enumerate(passes[0])},
               "op_ref_ms": {r.name: [round(scaled_seconds(p[i]) * 1e3, 3)
                                      for p in passes]
                             for i, r in enumerate(passes[0])}}
    return metrics, details


def failures(passes: list) -> tuple:
    """(attempted, failed, listing of distinct failures with counts)."""
    attempted = sum(len(p) for p in passes)
    failed = 0
    listing: dict = {}
    for p in passes:
        for r in p:
            if r.problems:
                failed += 1
                key = (r.name, "; ".join(r.problems))
                listing[key] = listing.get(key, 0) + 1
    return attempted, failed, [{"op": k[0], "problems": k[1], "count": v}
                               for k, v in listing.items()]


def figures(passes: list) -> dict:
    """Figures of the first pass, and whether every pass repeated them."""
    first = {r.name: r.figures for r in passes[0]}
    same = all({r.name: r.figures for r in p} == first for p in passes[1:])
    return {"per_op": first, "identical_across_passes": same}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics --------------------------------------------------------

Q_LABELS = ("q1", "q2", "qinf")
ETAS = ("0.1", "1")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced summary."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    fits = [f"campanato.local_best_approx.{q}" for q in Q_LABELS]
    fit_calls = sum(get(n, "calls") for n in fits)
    out["campanato.local_best_approx.calls"] = (fit_calls, "count")
    out["campanato.local_best_approx.self_s"] = (
        sum(get(n, "self_s") for n in fits), "s")
    out["campanato.local_best_approx.repeat_frac"] = (
        _frac(counters["campanato.local_best_approx.repeats"], fit_calls),
        "fraction")
    for q, n in zip(Q_LABELS, fits):
        out[f"campanato.local_best_approx.{q}.self_s"] = (get(n, "self_s"),
                                                          "s")
    out["campanato.local_best_approx.rank_deficient"] = (
        counters["campanato.local_best_approx.rank_deficient"], "count")
    for name in ("polynomials.compose_affine", "geometry.cube_contains",
                 "polynomials.eval_many", "covering.tau_many",
                 "fractals.ball_measure", "remez.sup_norm"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    out["polynomials.constructions"] = (
        counters["polynomials.constructions"], "count")
    for name in ("extension.build_chain", "extension.whitney_extend",
                 "covering.greedy_ball_cover",
                 "covering.cartan_exclusion_disks", "remez.markov_check"):
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("extension.build_chain", "extension.trace_tilde",
                 "extension.chain_seminorm", "extension.verify_extension",
                 "campanato.campanato_seminorm",
                 "campanato.build_cube_family",
                 "covering.potential_bound_verify",
                 "fractals.estimate_regularity", "remez.empirical_remez",
                 "cli.run"):
        out[f"{name}.total_s"] = (get(name, "total_s"), "s")
    out["extension.trace_tilde.calls"] = (
        get("extension.trace_tilde", "calls"), "count")
    out["cli.run.calls"] = (get("cli.run", "calls"), "count")
    out["extension.holes"] = (counters["extension.holes"], "count")
    for sfx in [""] + [f".eta_{e}" for e in ETAS]:
        probes = counters["covering.tau_many.probes" + sfx]
        out["covering.tau_many.probes" + sfx] = (probes, "count")
        out["covering.tau_many.in_reach_frac" + sfx] = (
            _frac(counters["covering.tau_many.in_reach" + sfx], probes),
            "fraction")
    out["fractals.ball_measure.large_cloud_frac"] = (
        _frac(counters["fractals.ball_measure.large_cloud"],
              get("fractals.ball_measure", "calls")), "fraction")
    out["reporting.bytes_written"] = (counters["reporting.bytes_written"],
                                      "bytes")
    return out


def merge_summaries(a: dict, b: dict) -> dict:
    out = {k: dict(v) for k, v in a.items()}
    for name, rec in b.items():
        tgt = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in rec.items():
            tgt[key] += value
    return out


def median_metrics(samples: list) -> dict:
    """Metric-wise median over per-pass metric dicts of the same keys."""
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


# -- environment --------------------------------------------------------------


def _openblas_threads():
    """Thread count of numpy's bundled scipy-openblas, or None if unknown."""
    import ctypes

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            fn = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    blas["threads"] = _openblas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "machine_level_tracing": "none: spans come only from in-process "
                                 "wrappers; no kernel or hardware counters "
                                 "are read",
    }
