"""Tests of the benchmark itself: generators, failure counting, tracing.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

import harness
import tracer as tracing
import workloads
from fractal_remez import campanato, extension, fractals
from fractal_remez.geometry import Cube
from fractal_remez.polynomials import Polynomial

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _digest(obj) -> str:
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(str(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif isinstance(x, np.ndarray):
            h.update(x.tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    assert _digest(gen(7)) == _digest(gen(7))
    assert _digest(gen(7)) != _digest(gen(8))


def _small_reproduce_op(coeffs):
    X = fractals.build_preset("cube:1", 5)
    fam = campanato.build_cube_family(X, center_budget=8)
    grid = extension.GridSpec((-0.25,), (1.25,), (17,))
    return workloads._reproduce_op(X, fam, grid, 3, Polynomial(1, 2, coeffs))


def _small_cartan_op(coeffs, eta):
    axis = np.linspace(-2.0, 2.0, 40)
    gx, gy = np.meshgrid(axis, axis)
    return workloads._cartan_op(Polynomial(1, len(coeffs) - 1, coeffs),
                                (gx + 1j * gy).ravel(), eta)


def test_injected_bad_outputs_are_counted_as_failed():
    good = _small_reproduce_op(np.array([0.3, -0.2, 0.5]))

    def corrupt(delta):
        def run():
            fld = good.run()
            fld.values = fld.values.copy()
            fld.values[3] += delta
            return fld
        return workloads.Op("corrupt", run, good.check)

    def boom():
        raise RuntimeError("solver blew up")

    ops = [good, corrupt(1e-6), corrupt(np.nan),
           workloads.Op("raises", boom, good.check)]
    passes = [harness.run_pass(ops)]
    attempted, failed, listing = harness.failures(passes)
    assert (attempted, failed) == (4, 3)
    failing = {item["op"]: item["problems"] for item in listing}
    assert set(failing) == {"corrupt", "raises"}
    problems = [r.problems for r in passes[0]]
    assert problems[0] == []
    assert "reproduction error" in problems[1][0]
    assert any("NaN" in p for p in problems[2])
    assert "RuntimeError" in problems[3][0]


def test_figures_repeat_exactly_for_one_seed():
    coeffs = workloads.generate_cartan(3)["coeffs"][2]
    runs = []
    for _ in range(2):
        ops = [_small_cartan_op(coeffs, eta) for eta in (0.1, 1.0)]
        runs.append(harness.figures([harness.run_pass(ops)])["per_op"])
    assert runs[0] == runs[1]
    assert all(math.isfinite(f["radius_sum_fraction"])
               for f in runs[0].values())


def test_traced_self_times_sum_to_traced_wall():
    tr = tracing.Tracer()
    originals = (Polynomial.eval_many, Cube.contains,
                 campanato.local_best_approx, extension.local_best_approx)
    with tracing.installed(tr):
        assert extension.local_best_approx is campanato.local_best_approx
        assert extension.local_best_approx is not originals[3]
        ops = [_small_reproduce_op(np.array([1.0, 0.5, -0.25])),
               _small_cartan_op(np.array([1.0, 0.4, -0.3, 0.2]), 0.1)]
        results = harness.run_pass(ops, tracer=tr)
        spans = tr.arrays()
        summary = tr.summary()
    assert (Polynomial.eval_many, Cube.contains, campanato.local_best_approx,
            extension.local_best_approx) == originals
    assert all(not r.problems for r in results)

    roots = spans["parent"] < 0
    traced_wall = float(np.sum(spans["duration"][roots]))
    assert int(np.sum(roots)) == len(ops)
    assert np.all(spans["self"] >= -1e-12)
    assert math.isclose(float(np.sum(spans["self"])), traced_wall,
                        rel_tol=1e-9)
    outside = harness.pass_seconds(results)
    assert traced_wall <= outside
    assert outside - traced_wall < 0.01 + 0.05 * outside
    assert summary["campanato.local_best_approx.q2"]["calls"] > 0
    assert summary["covering.tau_many"]["calls"] > 0
    assert tr.counters["covering.tau_many.probes.eta_0.1"] >= 1600


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layer = harness.layer_metrics({}, Counter())
    layer["trace.overhead_frac"] = (0.0, "fraction")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: u for k, (_, u) in layer.items()}
    results = [harness.OpResult("op", 0.1 * (i + 1), 0.006)
               for i in range(20)]
    metrics, _ = harness.end_to_end("cartan", [results, results], 1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: u for k, (_, u) in metrics.items()}
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_reference_times_every_operation():
    ops = [workloads.Op(f"op{i}", lambda: None, lambda out: ([], {}))
           for i in range(3)]
    results = harness.run_pass(ops, reference=harness.Reference())
    assert all(r.ref_seconds > 0 for r in results)
    r = results[0]
    assert harness.scaled_seconds(r) == pytest.approx(
        r.seconds * harness.REFERENCE_NOMINAL_S / r.ref_seconds)
    assert harness.run_pass(ops)[0].ref_seconds is None
