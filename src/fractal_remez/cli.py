"""Batch experiment driver.

    fractal-remez run <config.json> [--seed N] [--out DIR]
    fractal-remez suite acceptance
    fractal-remez list-sets
    fractal-remez list-majorants

A run executes one experiment described by a declarative JSON config and
writes report.json, summary.csv, and plot-data files into the output
directory.  Reports carry no timestamps, so identical config and seed give
byte-identical files.  Exit codes: 0 all assertions pass, 1 an assertion
failed (witnesses printed), 2 configuration error.

FRACTAL_REMEZ_THREADS caps suite parallelism.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import acceptance, campanato, covering, extension, fractals, remez
from .geometry import Ball, Cube
from .polynomials import Polynomial
from .reporting import (ensure_dir, write_csv_summary, write_json_report,
                        write_plot_data)

DEFAULT_DEPTH = 8
QR_VALUES = {"1": 1, "2": 2, "inf": math.inf, 1: 1, 2: 2}
_QR = {"enum": list(QR_VALUES)}
_DEGREE = {"type": "integer", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_NUMBER = {"type": "number"}
_FIT = {"k": _DEGREE, "omega": {"type": "string"},
        "function": {"type": "string"}, "center_budget": _COUNT}
# each experiment's params keys; the library checks gamma, H and s itself
PARAMS_PROPERTIES = {
    "remez": {"k": _DEGREE, "q": _QR, "r": _QR, "budget": _COUNT,
              "V": {"type": "object", "required": ["center", "radius"],
                    "additionalProperties": False, "properties": {
                        "kind": {"enum": ["ball", "cube"]},
                        "center": {"type": "array", "items": _NUMBER},
                        "radius": {"type": "number", "exclusiveMinimum": 0}}}},
    "covering": {"num_atoms": _COUNT, "H": _NUMBER, "s": _NUMBER,
                 "gamma": _NUMBER, "grid_n": _COUNT},
    "campanato": {**_FIT, "q": _QR},
    "extension": {**_FIT, "pad": {"type": "number", "minimum": 0},
                  "grid_nodes": {"type": "integer", "minimum": 4}},
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(PARAMS_PROPERTIES)},
        "seed": {"type": "integer"},
        "set": {"type": "string"},
        "depth": {"type": "integer", "minimum": 1},
        "polynomial": {
            "type": "object",
            "properties": {
                "seed": {"type": "integer"},
                "degree": _DEGREE,
                "num_vars": {"type": "integer", "minimum": 1},
                "coeffs": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "params": {"type": "object"},
    },
    "additionalProperties": False,
    "allOf": [{"if": {"required": ["experiment"],
                      "properties": {"experiment": {"const": name}}},
               "then": {"properties": {"params": {
                   "properties": props, "additionalProperties": False}}}}
              for name, props in PARAMS_PROPERTIES.items()],
}


class ConfigError(Exception):
    pass


def _resolve_polynomial(config: dict, num_vars: int, default_degree: int,
                        seed: int) -> Polynomial:
    spec = config.get("polynomial") or {}
    if "coeffs" in spec:
        try:
            coeffs = {}
            for key, val in spec["coeffs"].items():
                a = tuple(int(e) for e in key.strip("() ").split(",") if e)
                if a in coeffs:
                    raise ValueError(f"{key!r} repeats the multi-index {a}")
                coeffs[a] = float(val)
            return Polynomial.from_dict(spec.get("num_vars", num_vars), coeffs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad polynomial coeffs: {exc}")
    rng = np.random.default_rng(spec.get("seed", seed))
    return Polynomial.random(rng, spec.get("num_vars", num_vars),
                             spec.get("degree", default_degree))


def _resolve_set(config: dict):
    set_id = config.get("set", "cantor:1/3")
    depth = config.get("depth", DEFAULT_DEPTH)
    try:
        return fractals.build_preset(set_id, depth)
    except KeyError:
        raise ConfigError(f"unknown set id {set_id!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad set id {set_id!r}: {exc}")


def _resolve_majorant(params: dict, k: int) -> campanato.Majorant:
    omega_id = params.get("omega", "power:1")
    try:
        return campanato.Majorant.from_id(omega_id, k)
    except KeyError:
        raise ConfigError(f"unknown majorant id {omega_id!r}")
    except ValueError as exc:
        raise ConfigError(f"bad majorant id {omega_id!r}: {exc}")


def _resolve_function(fid: str, X, seed: int) -> np.ndarray:
    x1 = X.points[:, 0]
    if fid == "abs":
        return np.abs(x1 - 0.5)
    if fid == "xabs":
        return x1 * np.abs(x1)
    if fid == "square":
        return x1 ** 2
    if fid == "sinpi":
        return np.sin(math.pi * x1)
    name, colon, deg = fid.partition(":")
    if name == "poly":
        deg = deg if colon else "3"
        if not deg.isdecimal():
            raise ConfigError(f"function id {fid!r} needs a degree >= 0")
        p = Polynomial.random(np.random.default_rng(seed), X.ambient_dim,
                              int(deg))
        return np.real(p.eval_many(X.points))
    raise ConfigError(f"unknown function id {fid!r}")


# -- experiment runners -------------------------------------------------------


def _run_remez(config: dict, seed: int, out: str):
    params = config.get("params", {})
    X = _resolve_set(config)
    q = QR_VALUES[params.get("q", "inf")]
    r = QR_VALUES[params.get("r", "inf")]
    k = params.get("k", 4)
    p = _resolve_polynomial(config, X.ambient_dim, k, seed)

    vspec = params.get("V")
    if vspec is None:
        lo, hi = X.points.min(axis=0), X.points.max(axis=0)
        center = 0.5 * (lo + hi)
        radius = 0.5 * float(np.linalg.norm(hi - lo)) + 0.25 * X.diam
        V = Ball(tuple(center), radius)
    else:
        if len(vspec["center"]) != X.ambient_dim:
            raise ConfigError(f"V center has {len(vspec['center'])} "
                              f"coordinates, the set is {X.ambient_dim}-D")
        cls = Ball if vspec.get("kind", "ball") == "ball" else Cube
        V = cls(tuple(vspec["center"]), float(vspec["radius"]))

    try:
        rep = remez.empirical_remez(
            p, V, X, q, r, budget=params.get("budget", remez.SUP_BUDGET))
    except ValueError as exc:  # V does not contain the set
        raise ConfigError(str(exc))
    failures = []
    if rep.hypothesis_violated:
        failures.append("polynomial vanishes identically on omega")

    report = {"experiment": "remez", "config": config, "result": rep.to_json()}
    write_json_report(os.path.join(out, "report.json"), report)
    row = {"experiment_id": "remez", "n": rep.n, "k": rep.k, "s": rep.s,
           "lambda": rep.lam, "q": str(rep.q), "r": str(rep.r),
           "bound_bg": rep.bound_bg, "bound_simple": rep.bound_simple,
           "empirical_ratio": rep.empirical_ratio}
    write_csv_summary(os.path.join(out, "summary.csv"), [row])
    lams = np.linspace(0.01, 1.0, 100)
    for name, fn in (("bg", remez.bg_bound), ("simple", remez.simple_bound)):
        write_plot_data(os.path.join(out, f"bound_{name}_vs_lambda.dat"),
                        "lambda", f"bound_{name}",
                        lams, [fn(rep.n, rep.k, la) for la in lams])
    return failures


def _run_covering(config: dict, seed: int, out: str):
    params = config.get("params", {})
    rng = np.random.default_rng(seed)
    m = params.get("num_atoms", 32)
    H = params.get("H", 0.25)
    s = params.get("s", 1.0)
    gamma = params.get("gamma", covering.DEFAULT_GAMMA)
    grid_n = params.get("grid_n", 100)
    space = covering.DiscreteMeasureSpace(rng.random((m, 2)), np.ones(m))
    axis = np.linspace(-0.5, 1.5, grid_n)
    gx, gy = np.meshgrid(axis, axis)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    try:
        rep = covering.potential_bound_verify(space, H, s, gamma, grid=grid)
    except ValueError as exc:  # gamma, H or s out of range
        raise ConfigError(str(exc))
    failures = []
    if rep.radius_sum_s >= rep.radius_cap:
        failures.append(f"radius budget exceeded: {rep.radius_sum_s} >= "
                        f"{rep.radius_cap}")
    for v in rep.violations[:5]:
        failures.append(f"potential bound violated at {v['point']} "
                        f"(margin {v['margin']:.3e})")
    report = {"experiment": "covering", "config": config,
              "result": {"cover": rep.cover.to_json(),
                         "radius_sum_s": rep.radius_sum_s,
                         "radius_cap": rep.radius_cap,
                         "lower_bound": rep.lower_bound,
                         "num_checked": rep.num_checked,
                         "num_violations": len(rep.violations),
                         "worst_margin": rep.worst_margin}}
    write_json_report(os.path.join(out, "report.json"), report)
    write_csv_summary(os.path.join(out, "summary.csv"),
                      [{"experiment_id": "covering", "n": 2, "s": s,
                        "empirical_ratio": rep.radius_sum_s / rep.radius_cap}])
    with open(os.path.join(out, "violations.csv"), "w") as fh:
        fh.write("x1,x2,margin\n")
        for v in rep.violations:
            fh.write(f"{v['point'][0]!r},{v['point'][1]!r},{v['margin']!r}\n")
    radii = sorted(rep.cover.radii, reverse=True)
    write_plot_data(os.path.join(out, "ball_radii.dat"), "ball index",
                    "radius", range(1, len(radii) + 1), radii)
    return failures


def _run_campanato(config: dict, seed: int, out: str):
    params = config.get("params", {})
    X = _resolve_set(config)
    k = params.get("k", 2)
    q = QR_VALUES[params.get("q", 2)]
    omega = _resolve_majorant(params, k)
    fvals = _resolve_function(params.get("function", "abs"), X, seed)
    family = campanato.build_cube_family(
        X, center_budget=params.get("center_budget"))
    res = campanato.campanato_seminorm(fvals, family, k, q, omega)
    qp = campanato.quasipower_check(omega)
    report = {"experiment": "campanato", "config": config,
              "result": {"seminorm": res.value,
                         "seminorm_lower": res.lower,
                         "lp_fallbacks": res.fallbacks,
                         "witness": {"center": list(res.witness.center),
                                     "radius": res.witness.radius},
                         "num_cubes": res.num_cubes,
                         "omega_quasipower": qp.is_quasipower,
                         "C_omega": qp.C_omega if np.isfinite(qp.C_omega)
                         else None}}
    write_json_report(os.path.join(out, "report.json"), report)
    write_csv_summary(os.path.join(out, "summary.csv"),
                      [{"experiment_id": "campanato", "n": X.ambient_dim,
                        "k": k, "s": X.s, "q": str(q),
                        "empirical_ratio": res.value}])
    radii = np.array([Qc.radius for Qc in family.cubes])
    ratios = [max(res.ratios[radii == rad].tolist())
              for rad in family.radii]
    write_plot_data(os.path.join(out, "ratio_vs_radius.dat"),
                    "cube radius", "max E_k / omega", family.radii, ratios)
    return []


def _run_extension(config: dict, seed: int, out: str):
    params = config.get("params", {})
    X = _resolve_set(config)
    k = params.get("k", 2)
    omega = _resolve_majorant(params, k)
    fvals = _resolve_function(params.get("function", "abs"), X, seed)
    family = campanato.build_cube_family(
        X, center_budget=params.get("center_budget"))
    try:
        chain = extension.build_chain(fvals, X, family, k, omega)
    except ValueError as exc:  # a majorant or a set the chain cannot use
        raise ConfigError(str(exc))
    sem = extension.chain_seminorm(chain, family)
    pad = params.get("pad", 0.25)
    nodes = params.get("grid_nodes", 65)
    lo = tuple(X.points.min(axis=0) - pad * X.diam)
    hi = tuple(X.points.max(axis=0) + pad * X.diam)
    grid = extension.GridSpec(lo, hi, (nodes,) * X.ambient_dim)
    fld = extension.whitney_extend(chain, X, grid)
    rep = extension.verify_extension(fvals, fld, X, k, omega, family=family)
    failures = []
    if fld.holes:
        failures.append(f"{len(fld.holes)} grid nodes not covered at any scale")
    report = {"experiment": "extension", "config": config,
              "result": {"chain_seminorm": sem.value,
                         "chain_pairs_checked": sem.num_pairs,
                         "deficient_cubes": int(chain.deficient.sum()),
                         "trace_error": rep.trace_error,
                         "lipschitz_seminorm": rep.lipschitz,
                         "campanato_seminorm": rep.campanato,
                         "operator_norm_proxy": rep.ratio,
                         "field_meta": fld.meta_json()}}
    write_json_report(os.path.join(out, "report.json"), report)
    write_csv_summary(os.path.join(out, "summary.csv"),
                      [{"experiment_id": "extension", "n": X.ambient_dim,
                        "k": k, "s": X.s,
                        "empirical_ratio": rep.ratio}])
    fld.to_csv(os.path.join(out, "field.csv"))
    if X.ambient_dim == 1:
        write_plot_data(os.path.join(out, "field.dat"), "x", "T_k f(x)",
                        grid.nodes()[:, 0], fld.values)
    return failures


RUNNERS = {"remez": _run_remez, "covering": _run_covering,
           "campanato": _run_campanato, "extension": _run_extension}


# -- commands -----------------------------------------------------------------


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match
    error = best_match(Draft202012Validator(CONFIG_SCHEMA).iter_errors(config))
    if error is not None:
        print(f"config error: {error.json_path}: {error.message}",
              file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    config = {**config, "seed": seed}
    out = ensure_dir(args.out)
    try:
        failures = RUNNERS[config["experiment"]](config, seed, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"ok: reports written to {out}")
    return 0


def _max_workers() -> int:
    """FRACTAL_REMEZ_THREADS, at least 1, else the CPU count (1 if
    unknown); raises ConfigError on a value that is not an integer."""
    env = os.environ.get("FRACTAL_REMEZ_THREADS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            raise ConfigError(f"FRACTAL_REMEZ_THREADS={env!r} is not an "
                              f"integer") from None
    return os.cpu_count() or 1


def cmd_suite(args) -> int:
    if args.name != "acceptance":
        print(f"unknown suite {args.name!r}", file=sys.stderr)
        return 2
    try:
        workers = _max_workers()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    results = acceptance.run_all(max_workers=workers)
    width = max(len(r.name) for r in results)
    print(f"{'criterion':<{width + 5}} {'pass':<6} {'time':>8}  "
          f"measured | threshold")
    total = 0.0
    for r in results:
        total += r.seconds
        key_figs = ", ".join(f"{k}={v:.4g}" for k, v in r.measured.items()
                             if isinstance(v, (int, float)))
        print(f"[{r.number:2d}] {r.name:<{width}} "
              f"{'PASS' if r.passed else 'FAIL':<6} {r.seconds:7.2f}s  "
              f"{key_figs} | {r.threshold}")
        if not r.passed:
            print(f"     measured in full: {r.measured}")
    print(f"total criterion time: {total:.2f}s")
    return 0 if all(r.passed for r in results) else 1


def cmd_list_sets(_args) -> int:
    print("cantor:<ratio in (0,1/2)>", "dust2d:<ratio in (0,1/2]>",
          "cube:<dim 1..3>", "<id>*<id> (product)", sep="\n")
    return 0


def cmd_list_majorants(_args) -> int:
    print("power:<lam>   omega(t) = t^lam (quasipower iff lam <= k)")
    print("const:<c>     omega(t) = c (BMO-style; not quasipower)")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal-remez",
        description="Remez inequalities, covering lemmas, and extension "
                    "operators on fractal sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_suite = sub.add_parser("suite", help="run a named suite")
    p_suite.add_argument("name")
    p_suite.set_defaults(fn=cmd_suite)

    p_ls = sub.add_parser("list-sets", help="list preset set ids")
    p_ls.set_defaults(fn=cmd_list_sets)

    p_lm = sub.add_parser("list-majorants", help="list majorant ids")
    p_lm.set_defaults(fn=cmd_list_majorants)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)
