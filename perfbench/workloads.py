"""Seeded workloads: ``extension``, ``cartan`` and ``survey``.

Each workload has two halves:

* ``generate_<name>(seed)`` draws every random input from the seed with
  numpy alone and returns plain data (numbers, arrays, config dicts).  The
  same seed gives the same data; the program never sees the seed.
* ``build_<name>(inputs, out_dir)`` calls the program to build the sets,
  cube families, grids and function values the operations need, and
  returns the list of operations.  This is the set-up the benchmark times
  as ``setup_s``.

An operation is one user-level task: ``run`` calls the program and
returns its raw output, ``check`` verifies that output and returns
``(problems, figures)``.  A non-empty ``problems`` list, or an exception
from ``run`` or ``check``, counts the operation as failed.  ``figures``
are the scientific numbers the operation produced; they are recorded
beside the metrics so that a later change can show them unchanged.

Every pass runs the same operations in the same order, so per-pass work
is fixed by the seed, and the seeds only move the random coefficients,
kinks, centers and samples, never the sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from fractal_remez import campanato, cli, covering, extension, fractals, remez
from fractal_remez.polynomials import Polynomial

WORKLOADS = ("extension", "cartan", "survey")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


def _coeff_count(num_vars: int, degree: int) -> int:
    return math.comb(num_vars + degree, degree)


def _max_abs(values) -> float:
    """Plain max of |values|: a NaN anywhere makes the result NaN."""
    return float(np.max(np.abs(values)))


def _field_problems(fld) -> list:
    problems = []
    if fld.holes:
        problems.append(f"{len(fld.holes)} grid holes")
    if np.isnan(fld.values).any():
        problems.append(f"{int(np.isnan(fld.values).sum())} NaN field values")
    return problems


# -- extension ---------------------------------------------------------------
#
# A seeded criterion-10 mix.  Polynomial reproduction on cube:1 (depth 9)
# and dust2d:1/4 (depth 4) at k = 1..3, one linearity triple, and the two
# nonsmooth traces extended to 129- and 257-node grids.  Each cube family
# uses 48 centers, the program's own fixed subset, so the seed moves
# coefficients, kinks and the linear combination but never the cubes.

EXT_DEPTH_1D = 9
EXT_DEPTH_2D = 4
EXT_CENTERS = 48
REPRO_TOL = 1e-8
LINEARITY_TOL = 1e-9
STABILITY_RANGE = (0.5, 2.0)


def generate_extension(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    repro = []
    for set_id, n in (("cube:1", 1), ("dust2d:1/4", 2)):
        for k in (1, 2, 3):
            size = _coeff_count(n, max(k - 1, 0))
            repro.append({"set": set_id, "num_vars": n, "k": k,
                          "coeffs": rng.uniform(-1.0, 1.0, size)})
    return {
        "repro": repro,
        "linearity": {"a": float(rng.uniform(0.5, 1.5)),
                      "b": float(-rng.uniform(0.5, 1.5)),
                      "kink": float(rng.uniform(0.3, 0.7))},
        "abs_kink": float(rng.uniform(0.3, 0.7)),
    }


def _reproduce_op(X, fam, grid, k, P) -> Op:
    fv = np.real(P.eval_many(X.points))
    truth = np.real(P.eval_many(grid.nodes()))
    scale = max(1.0, _max_abs(truth))
    omega = campanato.Majorant.power(1.0, k)

    def run():
        chain = extension.build_chain(fv, X, fam, k, omega)
        return extension.whitney_extend(chain, X, grid)

    def check(fld):
        problems = _field_problems(fld)
        err = _max_abs(fld.values - truth) / scale
        if not err <= REPRO_TOL:
            problems.append(f"reproduction error {err:.3e} > {REPRO_TOL:g}")
        return problems, {"reproduction_err": err}

    return Op(f"reproduce[{X.ambient_dim}d,k={k}]", run, check)


def _linearity_op(X, fam, grid, spec) -> Op:
    x = X.points[:, 0]
    f = np.abs(x - spec["kink"])
    g = x ** 2
    a, b = spec["a"], spec["b"]
    fg = a * f + b * g
    omega = campanato.Majorant.power(1.0, 2)

    def run():
        return [extension.whitney_extend(
            extension.build_chain(v, X, fam, 2, omega), X, grid)
            for v in (f, g, fg)]

    def check(fields):
        problems = [p for fld in fields for p in _field_problems(fld)]
        v_f, v_g, v_fg = (fld.values for fld in fields)
        scale = max(1.0, _max_abs(v_fg))
        err = _max_abs(v_fg - (a * v_f + b * v_g)) / scale
        if not err <= LINEARITY_TOL:
            problems.append(f"linearity error {err:.3e} > {LINEARITY_TOL:g}")
        return problems, {"linearity_err": err}

    return Op("linearity", run, check)


def _nonsmooth_op(name, X, fam, fv, lo, hi) -> Op:
    omega = campanato.Majorant.power(1.0, 2)
    ga = extension.GridSpec(lo, hi, (129,))
    gb = extension.GridSpec(lo, hi, (257,))
    h_min = 4.0 * ga.spacing

    def run():
        chain = extension.build_chain(fv, X, fam, 2, omega)
        sem = extension.chain_seminorm(chain, fam)
        fields = [extension.whitney_extend(chain, X, g) for g in (ga, gb)]
        reps = [extension.verify_extension(fv, fld, X, 2, omega, family=fam,
                                           h_min=h_min) for fld in fields]
        return sem, fields, reps

    def check(out):
        sem, fields, reps = out
        problems = [p for fld in fields for p in _field_problems(fld)]
        ratios = [r.ratio for r in reps]
        stab = None
        if all(r is not None and math.isfinite(r) and r > 0 for r in ratios):
            stab = ratios[1] / ratios[0]
            if not STABILITY_RANGE[0] <= stab <= STABILITY_RANGE[1]:
                problems.append(f"stability factor {stab:.4g} outside "
                                f"{list(STABILITY_RANGE)}")
        else:
            problems.append(f"operator-norm proxies not finite: {ratios}")
        return problems, {"operator_norm_proxy_129": ratios[0],
                          "operator_norm_proxy_257": ratios[1],
                          "stability_factor": stab,
                          "chain_seminorm": sem.value,
                          "trace_err_257": reps[1].trace_error}

    return Op(f"nonsmooth[{name}]", run, check)


def build_extension(inputs: dict, out_dir: str) -> list:
    X1 = fractals.build_preset("cube:1", EXT_DEPTH_1D)
    X2 = fractals.build_preset("dust2d:1/4", EXT_DEPTH_2D)
    X1sym = fractals.transform(X1, 2.0, [-1.0])
    fam1 = campanato.build_cube_family(X1, center_budget=EXT_CENTERS)
    fam2 = campanato.build_cube_family(X2, center_budget=EXT_CENTERS)
    grid1 = extension.GridSpec((-0.25,), (1.25,), (65,))
    grid2 = extension.GridSpec((-0.25, -0.25), (1.25, 1.25), (21, 21))
    sets = {"cube:1": (X1, fam1, grid1), "dust2d:1/4": (X2, fam2, grid2)}
    ops = []
    for spec in inputs["repro"]:
        X, fam, grid = sets[spec["set"]]
        P = Polynomial(spec["num_vars"], max(spec["k"] - 1, 0), spec["coeffs"])
        ops.append(_reproduce_op(X, fam, grid, spec["k"], P))
    ops.append(_linearity_op(X1, fam1, grid1, inputs["linearity"]))
    x1 = X1.points[:, 0]
    xs = X1sym.points[:, 0]
    ops.append(_nonsmooth_op("abs", X1, fam1, np.abs(x1 - inputs["abs_kink"]),
                             (-0.25,), (1.25,)))
    famsym = campanato.build_cube_family(X1sym, center_budget=EXT_CENTERS)
    ops.append(_nonsmooth_op("xabs", X1sym, famsym, xs * np.abs(xs),
                             (-1.5,), (1.5,)))
    return ops


# -- cartan ------------------------------------------------------------------
#
# A seeded criterion-4 mix: random polynomials with f(0) = 1, R = 2, a
# 400 x 400 probe grid, each certified at eta = 0.1 and eta = 1.0.  Every
# degree 3..10 appears once per pass, so the seed moves coefficients only.

CARTAN_R = 2.0
CARTAN_GRID = 400
CARTAN_DEGREES = tuple(range(3, 11))
CARTAN_ETAS = (0.1, 1.0)


def generate_cartan(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    polys = []
    for deg in CARTAN_DEGREES:
        c = rng.uniform(-1.0, 1.0, deg + 1)
        c[0] = 1.0
        polys.append(c)
    return {"coeffs": polys}


def _cartan_op(f, grid, eta) -> Op:
    def run():
        return covering.cartan_exclusion_disks(f, CARTAN_R, eta, grid=grid)

    def check(rep):
        problems = []
        if not rep.ok:
            problems.append(
                f"certificate failed: radius_sum={rep.radius_sum:.6g} "
                f"(cap {4.0 * eta * CARTAN_R:g}), "
                f"{len(rep.violations)} grid violations, "
                f"half-disks cover zeros={rep.half_radius_covers_zeros}")
        return problems, {"worst_margin": rep.worst_margin,
                          "radius_sum_fraction":
                              rep.radius_sum / (4.0 * eta * CARTAN_R),
                          "zeros": int(len(rep.zeros)),
                          "disks": len(rep.disks)}

    return Op(f"cartan[deg={f.degree_bound},eta={eta:g}]", run, check)


def build_cartan(inputs: dict, out_dir: str) -> list:
    axis = np.linspace(-CARTAN_R, CARTAN_R, CARTAN_GRID)
    gx, gy = np.meshgrid(axis, axis)
    grid = (gx + 1j * gy).ravel()
    ops = []
    for c in inputs["coeffs"]:
        f = Polynomial(1, len(c) - 1, c)
        for eta in CARTAN_ETAS:
            ops.append(_cartan_op(f, grid, eta))
    return ops


# -- survey ------------------------------------------------------------------
#
# In-process ``fractal-remez run`` configs (remez on Cantor, dust and
# product sets; covering with many atoms and few probes; campanato at
# q = 1, 2, inf), Ahlfors-regularity estimates on a small cloud and on the
# 131,072-point cantor:1/3 depth-17 cloud (the only bucket-index
# ball_measure path), and gradient (Markov) ratios on two planar sets.
# Eleven operations, an odd count, keep the median and the 90th percentile
# of the latencies inside one operation's cluster of samples rather than on
# the edge between two.  The sizes also keep those two clusters apart from
# their neighbours: the 6th fastest operation (remez on cantor:1/3) holds
# the median, the 10th (campanato at q = inf) the 90th percentile, and the
# large-cloud regularity estimate and the q = 1 fit are sized to stay
# clear of them; where two clusters overlap, the percentile jumps between
# them from run to run.

SURVEY_REMEZ = (("cantor:1/3", 10, 4), ("dust2d:1/4", 5, 3),
                ("cantor:1/3*cantor:1/3", 5, 3))
SURVEY_COVERING_ATOMS = 256
SURVEY_COVERING_GRID = 12
SURVEY_CAMPANATO_DEPTH = 6
SURVEY_CAMPANATO_CENTERS = {"1": 12, "2": 8, "inf": 8}
SURVEY_REGULARITY = (("small", "cantor:1/3", 8, 400),
                     ("large", "cantor:1/3", 17, 96))
SURVEY_MARKOV_SETS = (("cantor:1/3*cantor:1/3", 6), ("dust2d:1/4", 5))
SURVEY_MARKOV_POLYS = 8
SURVEY_MARKOV_RADII = 5


def _stratified_radii(jitter: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Log-uniform radii with one sample per equal log-width stratum."""
    u = (np.arange(len(jitter)) + jitter) / len(jitter)
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def generate_survey(seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def config_seed():
        return int(rng.integers(0, 2 ** 31))

    configs = []
    for set_id, depth, k in SURVEY_REMEZ:
        configs.append({"experiment": "remez", "set": set_id, "depth": depth,
                        "seed": config_seed(),
                        "params": {"k": k, "q": "inf", "r": "inf"}})
    configs.append({"experiment": "covering", "seed": config_seed(),
                    "params": {"num_atoms": SURVEY_COVERING_ATOMS,
                               "grid_n": SURVEY_COVERING_GRID}})
    for q in ("1", "2", "inf"):
        configs.append({"experiment": "campanato", "set": "cantor:1/3",
                        "depth": SURVEY_CAMPANATO_DEPTH,
                        "seed": config_seed(),
                        "params": {"k": 2, "q": q, "function": "poly:3",
                                   "center_budget":
                                       SURVEY_CAMPANATO_CENTERS[q]}})
    regularity = []
    for label, set_id, depth, count in SURVEY_REGULARITY:
        regularity.append({"label": label, "set": set_id, "depth": depth,
                           "center_u": rng.random(count),
                           "radius_jitter": rng.random(count)})
    markov = [{"set": set_id, "depth": depth,
               "coeffs": rng.uniform(-1.0, 1.0, (SURVEY_MARKOV_POLYS,
                                                 _coeff_count(2, 3))),
               "center_u": rng.random(SURVEY_MARKOV_POLYS)}
              for set_id, depth in SURVEY_MARKOV_SETS]
    return {"configs": configs, "regularity": regularity, "markov": markov}


def _cli_op(config: dict, config_path: str, out: str) -> Op:
    argv = ["run", config_path, "--out", out]
    label = config["experiment"]
    if label == "campanato":
        label += f"[q={config['params']['q']}]"
    elif label == "remez":
        label += f"[{config['set']}]"

    def run():
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf_out), \
                contextlib.redirect_stderr(buf_err):
            code = cli.main(argv)
        return code, buf_err.getvalue()

    def check(result):
        code, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"], {}
        with open(os.path.join(out, "report.json")) as fh:
            res = json.load(fh)["result"]
        return _check_report(config["experiment"], config, res)

    return Op(label, run, check)


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _check_report(experiment: str, config: dict, res: dict) -> tuple:
    problems = []
    if experiment == "remez":
        ratio = res["empirical_ratio"]
        if not (_finite(ratio) and ratio > 0.0):
            problems.append(f"empirical ratio {ratio!r} not finite and > 0")
        return problems, {"empirical_ratio": ratio,
                          "bound_bg": res["bound_bg"], "lambda": res["lam"]}
    if experiment == "covering":
        cover = res["cover"]
        radii = cover["radii"]
        atoms = config["params"]["num_atoms"]
        if radii and not cover["budget_used"] < atoms:
            problems.append(f"budget {cover['budget_used']} >= total mass "
                            f"{atoms}")
        if any(b > a + 1e-12 for a, b in zip(radii, radii[1:])):
            problems.append("radii not nonincreasing")
        if len(radii) > atoms:
            problems.append(f"{len(radii)} balls > {atoms} atoms")
        if not res["radius_sum_s"] < res["radius_cap"]:
            problems.append("radius-sum cap exceeded")
        if res["num_violations"]:
            problems.append(f"{res['num_violations']} potential-bound "
                            f"violations")
        return problems, {"radius_sum_fraction":
                              res["radius_sum_s"] / res["radius_cap"],
                          "worst_margin": res["worst_margin"],
                          "balls": len(radii)}
    value = res["seminorm"]
    if not (_finite(value) and value >= 0.0):
        problems.append(f"seminorm {value!r} not finite and >= 0")
    if res["witness"]["radius"] <= 0:
        problems.append("witness cube has no radius")
    return problems, {"seminorm": value, "witness_radius":
                      res["witness"]["radius"]}


def _regularity_op(X, spec) -> Op:
    centers = X.points[np.minimum((spec["center_u"] * X.size).astype(int),
                                  X.size - 1)]
    radii = _stratified_radii(spec["radius_jitter"], 4.0 * X.cell_diam,
                              X.diam)

    def run():
        return fractals.estimate_regularity(X, samples=(centers, radii))

    def check(est):
        problems = []
        if not isinstance(est, fractals.RegularityEstimate):
            return [f"returned {type(est).__name__}"], {}
        if not (0.0 < est.b_hat <= est.a_hat < math.inf):
            problems.append(f"invalid constants a={est.a_hat} b={est.b_hat}")
        if est.num_samples != len(radii):
            problems.append(f"{est.num_samples} samples, expected "
                            f"{len(radii)}")
        return problems, {"a_hat": est.a_hat, "b_hat": est.b_hat,
                          "cloud_points": X.size}

    return Op(f"regularity[{spec['label']}]", run, check)


def _markov_op(F, spec) -> Op:
    polys = [Polynomial(2, 3, c) for c in spec["coeffs"]]
    probes = []
    for p, u in zip(polys, spec["center_u"]):
        x = F.points[int(u * F.size) % F.size]
        for j in range(1, SURVEY_MARKOV_RADII + 1):
            probes.append((p, x, F.diam * 2.0 ** -j))

    def run():
        return [remez.markov_check(p, F, x, r) for p, x, r in probes]

    def check(constants):
        c = np.array(constants)
        problems = []
        if not (np.all(np.isfinite(c)) and np.all(c >= 0.0)):
            problems.append("non-finite or negative gradient ratio")
        return problems, {"max_over_median": float(c.max() / np.median(c)),
                          "count": len(c)}

    return Op(f"markov[{spec['set']}]", run, check)


def build_survey(inputs: dict, out_dir: str) -> list:
    ops = []
    for i, config in enumerate(inputs["configs"]):
        run_dir = os.path.join(out_dir, f"run{i}")
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        ops.append(_cli_op(config, path, run_dir))
    for spec in inputs["regularity"]:
        X = fractals.build_preset(spec["set"], spec["depth"])
        if X.size >= fractals.BUCKET_THRESHOLD:
            # the bucket index is built lazily on the first query; users
            # pay that once per cloud, so it belongs to set-up
            fractals.ball_measure(X, X.points[0], X.diam)
        ops.append(_regularity_op(X, spec))
    for spec in inputs["markov"]:
        F = fractals.build_preset(spec["set"], spec["depth"])
        ops.append(_markov_op(F, spec))
    return ops


GENERATORS = {"extension": generate_extension, "cartan": generate_cartan,
              "survey": generate_survey}
MAKERS = {"extension": build_extension, "cartan": build_cartan,
            "survey": build_survey}


def setup(name: str, seed: int, out_dir: str) -> list:
    """Generate the seeded inputs and build the operations for a workload."""
    return MAKERS[name](GENERATORS[name](seed), out_dir)
