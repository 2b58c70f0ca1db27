import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fractal_remez import acceptance, campanato, cli


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_remez_report_schema(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "remez", "set": "cantor:1/3", "depth": 7, "seed": 1,
        "params": {"k": 3, "q": "inf", "r": "inf"},
    })
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    res = report["result"]
    for key in ("bound_bg", "bound_simple", "empirical_ratio", "lam"):
        assert key in res
    assert res["bound_bg"] > 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("experiment_id,n,k,s,lambda,q,r,bound_bg")
    assert len(summary) == 2
    for name in ("bg", "simple"):
        rows = (out / f"bound_{name}_vs_lambda.dat").read_text().splitlines()
        assert rows[0] == f"# x: lambda    y: bound_{name}"
        assert len(rows) == 101


def test_run_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "remez", "set": "cantor:1/3", "depth": 7, "seed": 9,
        "params": {"k": 2},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", cfg, "--out", str(out2)]) == 0
    for name in ("report.json", "summary.csv", "bound_bg_vs_lambda.dat",
                 "bound_simple_vs_lambda.dat"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("config, needle", [
    pytest.param({"experiment": "remez", "set": "cantorr:1/3"},
                 "cantorr:1/3", id="unknown-set"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"omega": "foo:1"}}, "foo:1",
                 id="unknown-majorant"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"omega": "power:-1"}}, "power:-1",
                 id="bad-majorant"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"omega": "power:nan"}}, "positive and finite",
                 id="nan-majorant"),
    pytest.param({"experiment": "extension", "set": "cube:1", "depth": 5,
                  "params": {"omega": "power:nan"}}, "positive and finite",
                 id="nan-majorant-extension"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"omega": "power:inf"}}, "positive and finite",
                 id="infinite-majorant"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"omega": "const:nan"}}, "positive and finite",
                 id="nan-constant-majorant"),
    pytest.param({"experiment": "covering", "params": {"s": float("inf")}},
                 "finite p > 0, s > 0", id="covering-infinite-s"),
    pytest.param({"experiment": "extension", "set": "cube:1", "depth": 5,
                  "params": {"omega": "const:1"}}, "quasipower",
                 id="not-quasipower"),
    pytest.param({"experiment": "extension",
                  "set": "cantor:1/3*cantor:1/3*cantor:1/3", "depth": 2},
                 "ladder rungs", id="short-ladder"),
    pytest.param({"experiment": "covering", "params": {"gamma": 0.4}},
                 "gamma", id="covering-gamma"),
    pytest.param({"experiment": "covering", "params": {"H": -1}},
                 "H, s > 0", id="covering-H"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"k": -1}}, "params.k", id="negative-k"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"center_budget": 0}}, "params.center_budget",
                 id="zero-center-budget"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"centre_budget": 4}}, "centre_budget",
                 id="unknown-param"),
    pytest.param({"experiment": "extension", "set": "cube:1", "depth": 5,
                  "params": {"grid_nodes": 1}}, "params.grid_nodes",
                 id="one-grid-node"),
    pytest.param({"experiment": "remez", "polynomial": {"degre": 7}},
                 "degre", id="unknown-polynomial-key"),
    pytest.param({"experiment": "extension", "set": "cube:1", "depth": 5,
                  "params": {"grid_nodes": 3}}, "params.grid_nodes",
                 id="empty-probe-box"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"function": "poly:x"}}, "poly:x",
                 id="poly-degree-not-a-number"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"function": "poly:-1"}}, "poly:-1",
                 id="poly-degree-negative"),
    pytest.param({"experiment": "campanato", "depth": 5,
                  "params": {"function": "polynomial"}}, "polynomial",
                 id="unknown-function"),
    pytest.param({"experiment": "remez", "depth": 5,
                  "params": {"V": {"center": [5.0], "radius": 0.1}}},
                 "not contained in V", id="V-misses-the-set"),
    pytest.param({"experiment": "remez", "depth": 5,
                  "params": {"V": {"center": [0.5, 0.5], "radius": 2.0}}},
                 "V center", id="V-center-dimension"),
    pytest.param({"experiment": "remez", "depth": 5,
                  "params": {"V": {"center": [], "radius": 2.0}}},
                 "V center", id="V-center-empty"),
    pytest.param({"experiment": "remez", "depth": 10 ** 12}, "exceed",
                 id="depth-beyond-cell-cap"),
    pytest.param({"experiment": "remez", "set": "cube:3*cube:3", "depth": 7},
                 "exceed", id="product-beyond-cell-cap"),
])
def test_run_unknown_set_exits_2(tmp_path, capsys, config, needle):
    cfg = write_config(tmp_path, config)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and needle in err


@pytest.mark.parametrize("polynomial", [
    pytest.param({"coeffs": {"()": 1}}, id="empty-multi-index"),
    pytest.param({"coeffs": {"(a)": 1}}, id="non-integer-exponent"),
    pytest.param({"coeffs": {"(-1)": 1}}, id="negative-exponent"),
    pytest.param({"num_vars": 2, "coeffs": {"(1)": 1}}, id="wrong-arity"),
    pytest.param({"coeffs": {"(1)": "x"}}, id="non-numeric-coefficient"),
    pytest.param({"coeffs": {"(1)": None}}, id="null-coefficient"),
])
def test_run_bad_polynomial_exits_2(tmp_path, capsys, polynomial):
    cfg = write_config(tmp_path, {"experiment": "remez", "set": "cantor:1/3",
                                  "depth": 5, "polynomial": polynomial})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: bad polynomial coeffs" in err


def test_run_multi_index_spelled_twice_exits_2(tmp_path, capsys):
    # "(1)" and "( 1 )" are both x; neither may silently win
    cfg = write_config(tmp_path, {
        "experiment": "remez", "set": "cantor:1/3", "depth": 4,
        "polynomial": {"coeffs": {"(1)": 1, "( 1 )": 2, "(0)": 1}}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: bad polynomial coeffs" in err and "(1,)" in err


@pytest.mark.parametrize("set_id, coeffs", [
    ("cantor:1/3", {"(0)": 1, "( 2 )": -1.5}),
    ("cantor:1/3*cantor:1/3", {"(0, 0)": 1, "(1,1)": 2, "(0, 3)": -1}),
])
def test_run_remez_with_given_coeffs(tmp_path, set_id, coeffs):
    cfg = write_config(tmp_path, {"experiment": "remez", "set": set_id,
                                  "depth": 4, "polynomial": {"coeffs": coeffs}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


def test_run_schema_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "frobnicate"})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_main_parses_each_call_independently(tmp_path, capsys):
    # the parser is built once; a --seed given to one call must not leak
    # into the next, and a bad config still exits with code 2
    config = {"experiment": "covering", "seed": 4,
              "params": {"num_atoms": 8, "grid_n": 6}}
    cfg = write_config(tmp_path, config)
    bad = write_config(tmp_path, {"experiment": "frobnicate"}, "bad.json")
    assert cli.main(["run", cfg, "--seed", "9", "--out",
                     str(tmp_path / "a")]) == 0
    assert cli.main(["run", bad, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli.main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    seeds = [json.loads((tmp_path / d / "report.json").read_text())
             ["config"]["seed"] for d in "ab"]
    assert seeds == [9, 4]
    assert cli.main(["list-sets"]) == 0
    assert cli._parser() is cli._parser()


def test_run_covering_experiment(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "covering", "seed": 4,
        "params": {"num_atoms": 20, "H": 0.25, "s": 1.0, "grid_n": 40},
    })
    out = tmp_path / "cov"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["num_violations"] == 0
    assert (out / "ball_radii.dat").exists()


def test_run_campanato_solves_each_cube_once(tmp_path, monkeypatch):
    config = {"experiment": "campanato", "set": "cantor:1/3", "depth": 6,
              "seed": 4, "params": {"k": 2, "q": 2, "function": "poly:3",
                                    "center_budget": 40}}
    cfg = write_config(tmp_path, config)
    plans = []

    class Counted(campanato.FitPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(campanato, "FitPlan", Counted)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()
    X = cli._resolve_set(config)
    fvals = cli._resolve_function("poly:3", X, 4)
    family = campanato.build_cube_family(X, center_budget=40)
    # one plan, which factors each distinct member set Q cap X once
    geometries = {tuple(np.flatnonzero(Q.contains(X.points)))
                  for Q in family.cubes}
    assert [len(p.radii) for p in plans] == [len(family.cubes)]
    assert [len(p.counts) for p in plans] == [len(geometries)]
    assert len(geometries) < len(family.cubes)
    solve = campanato.local_best_approx
    # the plot takes the max over every cube of each radius
    omega = campanato.Majorant.from_id("power:1", 2)
    want = []
    for rad in family.radii:
        cubes = [Q for Q in family.cubes if Q.radius == rad]
        want.append(max(solve(fvals, X, Q, 2, 2).value / float(omega(rad))
                        for Q in cubes))
    rows = (out / "ratio_vs_radius.dat").read_text().splitlines()[1:]
    assert [tuple(map(float, r.split())) for r in rows] == \
        list(zip(family.radii.tolist(), want))


def test_run_extension_experiment(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "extension", "set": "cube:1", "depth": 7, "seed": 2,
        "params": {"function": "abs", "k": 2, "omega": "power:1",
                   "grid_nodes": 33, "center_budget": 48},
    })
    out = tmp_path / "ext"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["operator_norm_proxy"] > 0
    assert (out / "field.csv").exists()
    lines = (out / "field.dat").read_text().splitlines()
    assert lines[0].startswith("#")
    x, y = lines[1].split()
    float(x), float(y)


def test_list_commands():
    assert cli.main(["list-sets"]) == 0
    assert cli.main(["list-majorants"]) == 0


def test_unknown_suite_exits_2(capsys):
    assert cli.main(["suite", "bogus"]) == 2


def test_suite_failure_names_criterion(monkeypatch, capsys):
    def broken():
        return acceptance.CriterionResult(99, "intentionally_broken",
                                          {"value": 1.0},
                                          "value <= 0", False)

    def quick():
        return acceptance.CriterionResult(98, "quick_pass", {"value": 0.0},
                                          "always", True)

    monkeypatch.setattr(acceptance, "CRITERIA", [quick, broken])
    assert cli.main(["suite", "acceptance"]) == 1
    out = capsys.readouterr().out
    assert "intentionally_broken" in out
    assert "FAIL" in out and "PASS" in out


def test_suite_all_pass_exit_zero(monkeypatch):
    def quick():
        return acceptance.CriterionResult(97, "quick", {"v": 0.0}, "always",
                                          True)

    monkeypatch.setattr(acceptance, "CRITERIA", [quick])
    assert cli.main(["suite", "acceptance"]) == 0


def quick_criterion():
    return acceptance.CriterionResult(96, "quick", {"v": 0.0}, "always", True)


@pytest.mark.parametrize("value", ["abc", "1.5", "4x"])
def test_suite_bad_thread_count_exits_2(monkeypatch, capsys, value):
    monkeypatch.setattr(acceptance, "CRITERIA", [quick_criterion])
    monkeypatch.setenv("FRACTAL_REMEZ_THREADS", value)
    assert cli.main(["suite", "acceptance"]) == 2
    assert "FRACTAL_REMEZ_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("env, cpus, want", [(None, None, 1), (None, 3, 3),
                                             ("0", None, 1), ("4", 2, 4)])
def test_suite_worker_count(monkeypatch, env, cpus, want):
    # an unknown CPU count (os.cpu_count() is None) runs serially
    seen = []
    run_all = acceptance.run_all

    def recorded(max_workers):
        seen.append(max_workers)
        return run_all(max_workers)

    monkeypatch.setattr(acceptance, "CRITERIA", [quick_criterion])
    monkeypatch.setattr(acceptance, "run_all", recorded)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    if env is None:
        monkeypatch.delenv("FRACTAL_REMEZ_THREADS", raising=False)
    else:
        monkeypatch.setenv("FRACTAL_REMEZ_THREADS", env)
    assert cli.main(["suite", "acceptance"]) == 0
    assert seen == [want]


def _fresh_run(code, *argv):
    """Run code in a fresh interpreter on this checkout; its last line."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                         text=True, capture_output=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


LOADED = ("print(sorted({m.split('.')[0] for m in sys.modules}"
          " & {'scipy', 'jsonschema'}))")


def test_importing_the_cli_leaves_scipy_stats_out():
    # scipy and jsonschema take most of a second to import; each function
    # that needs one imports it on first use, so neither the imports nor
    # a command that computes nothing load them
    code = ("import sys, fractal_remez.cli, fractal_remez.extension\n"
            "assert fractal_remez.cli.main(['list-sets']) == 0\n" + LOADED)
    assert _fresh_run(code) == "[]"


def test_sampling_leaves_scipy_stats_out(tmp_path):
    # the Sobol points are generated in numpy: a remez run, the extension
    # check and a 3-D ball sample never load scipy.stats
    cfg = write_config(tmp_path, {
        "experiment": "remez", "set": "cantor:1/3", "depth": 6, "seed": 1,
        "params": {"k": 3, "budget": 256}})
    code = """
import sys
import numpy as np
from fractal_remez import campanato, cli, extension, fractals, geometry
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
X = fractals.build_preset("cube:1", 6)
fam = campanato.build_cube_family(X, center_budget=4)
om = campanato.Majorant.power(1.0, 2)
fv = np.abs(X.points[:, 0] - 0.3)
chain = extension.build_chain(fv, X, fam, 2, om)
fld = extension.whitney_extend(chain, X, extension.GridSpec((-0.1,), (1.1,),
                                                            (17,)))
assert extension.verify_extension(fv, fld, X, 2, om, family=fam).lipschitz > 0
assert geometry.Ball((0.0, 0.0, 0.0), 1.0).sample(64).shape == (64, 3)
print("scipy.stats" in sys.modules)
"""
    assert _fresh_run(code, cfg, str(tmp_path / "o")) == "False"


def test_extension_run_leaves_scipy_interpolate_out(tmp_path):
    # the field's interpolant is numpy: an extension run and the extension
    # check load scipy.spatial and what it needs, never scipy.interpolate
    # with the scipy.optimize and scipy.fft that it would pull in
    cfg = write_config(tmp_path, {
        "experiment": "extension", "set": "cube:1", "depth": 6, "seed": 1,
        "params": {"function": "abs", "k": 2, "grid_nodes": 33,
                   "center_budget": 16}})
    code = """
import sys
import numpy as np
from fractal_remez import campanato, cli, extension, fractals
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
X = fractals.build_preset("cube:1", 6)
fam = campanato.build_cube_family(X, center_budget=4)
om = campanato.Majorant.power(1.0, 2)
fv = np.abs(X.points[:, 0] - 0.3)
chain = extension.build_chain(fv, X, fam, 2, om)
fld = extension.whitney_extend(chain, X, extension.GridSpec((-0.1,), (1.1,),
                                                            (17,)))
assert extension.verify_extension(fv, fld, X, 2, om, family=fam).lipschitz > 0
assert "scipy.spatial" in sys.modules
print([m for m in ("scipy.interpolate", "scipy.optimize", "scipy.fft")
       if m in sys.modules])
"""
    assert _fresh_run(code, cfg, str(tmp_path / "o")) == "[]"


def test_every_deferred_import_runs(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "frobnicate"})
    code = """
import sys
import numpy as np
from fractal_remez import campanato, cli, extension, fractals, geometry
X = fractals.build_preset("cube:1", 5)
assert fractals.ball_measure(X, [0.5], [0.25])[0] > 0
fam = campanato.build_cube_family(X, center_budget=4)
om = campanato.Majorant.power(1.0, 2)
fv = np.abs(X.points[:, 0] - 0.3)
assert campanato.campanato_seminorm(fv, fam, 2, 1, om).fallbacks == 0
chain = extension.build_chain(fv, X, fam, 2, om)
grid = extension.GridSpec((-0.1,), (1.1,), (9,))
fld = extension.whitney_extend(chain, X, grid)
assert np.isfinite(fld.as_callable()([[0.5]])).all()
assert np.isfinite(geometry.gaussian_directions(np.full((2, 3), 0.3))).all()
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 2
""" + LOADED
    assert _fresh_run(code, cfg, str(tmp_path / "o")) == \
        "['jsonschema', 'scipy']"
