import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fractal_remez.campanato import (CubeFamily, Majorant, build_cube_family,
                                     local_best_approx)
from fractal_remez.extension import (Chain, GridSpec, build_chain,
                                     chain_seminorm, trace_tilde,
                                     verify_extension, whitney_extend, _bump,
                                     _max_abs_deg2_square)
from fractal_remez.fractals import FractalSet, build_preset, transform
from fractal_remez.geometry import Cube
from fractal_remez.polynomials import (Polynomial, compose_affine_many,
                                       exponent_array, monomials,
                                       multi_indices)


def interval_set(depth=8):
    return build_preset("cube:1", depth)


def three_point_set():
    pts = np.array([[-1.0], [0.0], [1.0]])
    return FractalSet(points=pts, masses=np.ones(3) / 3, s=1.0, diam=2.0,
                      cell_diam=0.25, total_mass=1.0)


# -- projection ----------------------------------------------------------------


def l2_coefs(f_values, X, Q, k):
    """The q = 2 fit's coefficients in the monomials of (x - c_Q)/r_Q."""
    return local_best_approx(f_values, X, Q, k, 2).coefs


def test_project_reproduces_polynomials():
    X = interval_set()
    P = Polynomial.from_dict(1, {(0,): -0.4, (1,): 2.0})
    fv = np.real(P.eval_many(X.points))
    Q = Cube((0.5,), 0.5)
    # P(c_Q + r_Q z) in z
    want = compose_affine_many(P.coeffs[None, :], 1, 1, Q.radius,
                               np.array(Q.center))[0]
    assert np.max(np.abs(l2_coefs(fv, X, Q, 2) - want)) <= 1e-9


def test_project_idempotent():
    X = interval_set()
    rng = np.random.default_rng(0)
    fv = rng.uniform(-1, 1, X.size)
    Q = Cube((0.5,), 0.5)
    p1 = l2_coefs(fv, X, Q, 3)
    on_cloud = monomials((X.points - np.array(Q.center)) / Q.radius, 2) @ p1
    p2 = l2_coefs(on_cloud, X, Q, 3)
    assert np.max(np.abs(p1 - p2)) <= 1e-10


def test_project_weighted_mean_example():
    X = three_point_set()
    fv = X.points[:, 0] ** 2
    got = l2_coefs(fv, X, Cube((0.0,), 1.5), 1)
    assert got.tolist() == pytest.approx([2.0 / 3.0], abs=1e-12)


# -- trace ---------------------------------------------------------------------


def test_trace_exact_on_polynomials():
    X = interval_set(9)
    P = Polynomial.from_dict(1, {(0,): 0.2, (1,): 1.5})
    fv = np.real(P.eval_many(X.points))
    x = X.points[100]
    res = trace_tilde(fv, x, 2, X)
    assert res.value == pytest.approx(float(P.eval(x)), abs=1e-10)
    assert np.max(res.increments) <= 1e-10


def test_trace_approaches_function_value():
    X = interval_set(10)
    fv = np.sin(math.pi * X.points[:, 0])
    for idx in (17, 301, 900):
        x = X.points[idx]
        res = trace_tilde(fv, x, 1, X)
        assert res.value == pytest.approx(float(fv[idx]), abs=0.02)


def test_trace_increments_controlled_by_majorant():
    X = interval_set(10)
    fv = np.abs(X.points[:, 0] - 0.5)
    res = trace_tilde(fv, X.points[512], 2, X)
    # rung radii ascend; increments are O(omega(t_j)) = O(t_j)
    ratios = res.increments / res.radii[:-1]
    assert np.all(np.isfinite(ratios))
    assert ratios.max() < 10.0


def test_trace_needs_three_rungs():
    X = three_point_set()
    with pytest.raises(ValueError):
        trace_tilde(np.ones(3), X.points[0], 1, X)  # rungs 1 and 2 only


# -- chains ---------------------------------------------------------------------


def _in_frames(P, cubes):
    """Rows of the global polynomial P in the (x - c_Q)/r_Q frame of each
    cube: P(r_Q z + c_Q)."""
    centers = np.array([Q.center for Q in cubes])
    radii = np.array([[Q.radius] for Q in cubes])
    rows = np.tile(np.real(P.coeffs), (len(cubes), 1))
    return compose_affine_many(rows, P.num_vars, P.degree_bound, radii,
                               centers)


def test_chain_reproduces_polynomial_entries():
    X = interval_set()
    fam = build_cube_family(X, center_budget=64)
    P = Polynomial.from_dict(1, {(0,): 1.0, (1,): -3.0})
    fv = np.real(P.eval_many(X.points))
    om = Majorant.power(1.0, 2)
    chain = build_chain(fv, X, fam, 2, om)
    assert chain.coefs.shape == (len(fam.cubes), 2)
    assert np.max(np.abs(chain.coefs - _in_frames(P, chain.cubes))) <= 1e-9
    assert chain_seminorm(chain, fam).value <= 1e-9


def test_chain_interpolates_trace_at_centers():
    X = interval_set()
    fam = build_cube_family(X, center_budget=32)
    fv = np.abs(X.points[:, 0] - 0.5)
    om = Majorant.power(1.0, 2)
    chain = build_chain(fv, X, fam, 2, om)
    for Q, row in zip(chain.cubes, chain.coefs):
        t = trace_tilde(fv, Q.center, 2, X).value
        assert row[0] == pytest.approx(t, abs=1e-10)


def test_chain_solves_each_cube_once(monkeypatch):
    from fractal_remez import campanato

    X = interval_set()
    fam = build_cube_family(X, center_budget=16)
    om = Majorant.power(1.0, 2)
    fv = np.abs(X.points[:, 0] - 0.5)
    plans = []

    class Counted(campanato.FitPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(campanato, "FitPlan", Counted)
    build_chain(fv, X, fam, 2, om)
    geometries = {tuple(np.flatnonzero(Q.contains(X.points)))
                  for Q in fam.cubes}
    # the family's plan factors each distinct member set once, in one
    # stack per member count, and the anchor cube's plan its one set
    assert [len(p.radii) for p in plans] == [len(fam.cubes), 1]
    assert [len(p.counts) for p in plans] == [len(geometries), 1]
    assert len(geometries) < len(fam.cubes)
    plans.clear()
    build_chain(2.0 * fv, X, fam, 2, om)
    campanato.campanato_seminorm(fv, fam, 2, 2, om)
    # the family's plan is kept: only the anchor, all of X, is factored
    assert [p.counts.tolist() for p in plans] == [[X.size]]


def test_chain_rejects_another_set():
    X = interval_set()
    fam = build_cube_family(X, center_budget=16)
    other = transform(X, 1.0, [0.0])
    with pytest.raises(ValueError, match="base set"):
        build_chain(np.zeros(X.size), other, fam, 2, Majorant.power(1.0, 2))


def test_chain_rejects_a_center_without_a_deepest_rung_cube():
    X = build_preset("cube:1", 6)
    x = tuple(X.points[5])
    fam = CubeFamily(X, [Cube(x, 0.5), Cube(x, 0.25)])
    with pytest.raises(ValueError, match=r"no deepest-rung cube \(radius "
                                         r"0\.0625\) at the center \(0\."):
        build_chain(np.zeros(X.size), X, fam, 2, Majorant.power(1.0, 2))


def test_chain_rejects_an_empty_family():
    X = interval_set()
    with pytest.raises(ValueError, match="empty cube family"):
        build_chain(np.zeros(X.size), X, CubeFamily(X, ()), 2,
                    Majorant.power(1.0, 2))


def test_chain_needs_three_rungs():
    X = three_point_set()  # ladder radii 1 and 2 only
    fam = build_cube_family(X)
    with pytest.raises(ValueError, match="three resolvable ladder rungs"):
        build_chain(np.ones(3), X, fam, 1, Majorant.power(1.0, 1))


def test_chain_rejects_non_quasipower_majorant():
    X = interval_set()
    fam = build_cube_family(X, center_budget=16)
    with pytest.raises(ValueError):
        build_chain(np.zeros(X.size), X, fam, 2, Majorant.const(1.0, 2))


def test_chain_linearity():
    X = interval_set()
    fam = build_cube_family(X, center_budget=32)
    om = Majorant.power(1.0, 2)
    rng = np.random.default_rng(1)
    f = rng.uniform(-1, 1, X.size)
    g = rng.uniform(-1, 1, X.size)
    a, b = 1.7, -0.3
    cf = build_chain(f, X, fam, 2, om)
    cg = build_chain(g, X, fam, 2, om)
    cfg = build_chain(a * f + b * g, X, fam, 2, om)
    assert cfg.cubes == cf.cubes == cg.cubes
    assert np.max(np.abs(cfg.coefs - (a * cf.coefs + b * cg.coefs))) <= 1e-9


def test_chain_seminorm_two_cube_formula():
    X = interval_set()
    om = Majorant.power(1.0, 2)
    small = Cube((0.5,), 0.5)
    big = Cube((0.5,), 1.0)
    eps = 0.125
    chain = Chain(cubes=[small, big], coefs=np.array([[0.0, 0.0],
                                                      [eps, 0.0]]),
                  deficient=np.zeros(2, dtype=bool), k=2, omega=om)
    fam = CubeFamily(X, (small, big))
    res = chain_seminorm(chain, fam)
    assert res.value == pytest.approx(eps / 1.0, abs=1e-12)
    assert res.num_pairs == 1


def test_chain_seminorm_keeps_a_nan_from_the_data():
    X = interval_set(6)
    fam = build_cube_family(X, center_budget=16)
    fv = np.abs(X.points[:, 0] - 0.5)
    fv[5] = np.nan
    res = chain_seminorm(build_chain(fv, X, fam, 2, Majorant.power(1.0, 2)),
                         fam)
    assert math.isnan(res.value) and res.num_pairs > 0


def test_chain_seminorm_nan_not_replaced_by_a_later_pair():
    # radius pairs run (0.25, 0.5), (0.25, 1), (0.5, 1); only the pairs
    # with the small cube are NaN, and the last pair has a finite ratio
    X = interval_set()
    om = Majorant.power(1.0, 2)
    cubes = [Cube((0.5,), r) for r in (0.25, 0.5, 1.0)]
    chain = Chain(cubes=cubes,
                  coefs=np.array([[np.nan, 0.0], [0.0, 0.0], [0.5, 0.0]]),
                  deficient=np.zeros(3, dtype=bool), k=2, omega=om)
    fam = CubeFamily(X, cubes)
    res = chain_seminorm(chain, fam)
    assert math.isnan(res.value)
    assert res.witness == (cubes[0], cubes[1])
    assert res.num_pairs == 3


def test_chain_seminorm_shift_invariance():
    X = interval_set()
    fam = build_cube_family(X, center_budget=48)
    om = Majorant.power(1.0, 2)
    fv = np.abs(X.points[:, 0] - 0.5)
    chain = build_chain(fv, X, fam, 2, om)
    P = Polynomial.from_dict(1, {(0,): 3.0, (1,): -1.0})
    shifted = Chain(cubes=chain.cubes,
                    coefs=chain.coefs + _in_frames(P, chain.cubes),
                    deficient=chain.deficient, k=2, omega=om)
    a = chain_seminorm(chain, fam)
    b = chain_seminorm(shifted, fam)
    assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)


def test_chain_certificate_normalized_and_density_stable():
    # with the trace seminorm normalized to 1, the chain constant is a
    # recorded O(1); assert finiteness and factor-2 stability across two
    # family sampling densities
    from fractal_remez.campanato import campanato_seminorm

    X = interval_set(9)
    om = Majorant.power(1.0, 2)
    fv = np.abs(X.points[:, 0] - 0.5)
    fam_dense = build_cube_family(X)
    norm = campanato_seminorm(fv, fam_dense, 2, 2, om).value
    fv = fv / norm
    values = []
    for budget in (128, None):
        fam = build_cube_family(X, center_budget=budget) if budget else \
            fam_dense
        chain = build_chain(fv, X, fam, 2, om)
        values.append(chain_seminorm(chain, fam).value)
    assert all(np.isfinite(v) and v > 0 for v in values)
    ratio = max(values) / min(values)
    assert ratio < 2.0, values


def test_exact_quadratic_sup_oracle_1d():
    rng = np.random.default_rng(2)
    C = rng.uniform(-2, 2, (40, 3))
    sq = np.zeros((40, 6))
    sq[:, [0, 2, 5]] = C  # 1, t, t^2 as the square's 1, x, x^2
    exact = _max_abs_deg2_square(sq)
    ts = np.linspace(-1.0, 1.0, 20001)
    for c, e in zip(C, exact):
        dense = np.max(np.abs(c[0] + c[1] * ts + c[2] * ts ** 2))
        assert e >= dense - 1e-12
        assert e - dense <= 1e-6 * (1.0 + dense)


def test_exact_quadratic_sup_oracle_2d():
    rng = np.random.default_rng(3)
    idx = multi_indices(2, 2)
    for _ in range(25):
        C = rng.uniform(-2, 2, (1, 6))
        exact = _max_abs_deg2_square(C)[0]
        xs = np.linspace(-1.0, 1.0, 301)
        ys = np.linspace(-1.0, 1.0, 301)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        exps = np.array(idx)
        mono = np.prod(np.power(pts[:, None, :], exps[None, :, :]), axis=2)
        dense = np.max(np.abs(mono @ C[0]))
        assert exact >= dense - 1e-12
        assert exact - dense <= 1e-3 * (1.0 + dense)


# -- Whitney assembly -----------------------------------------------------------


def test_extension_reproduces_global_polynomial():
    X = interval_set()
    fam = build_cube_family(X, center_budget=96)
    P = Polynomial.from_dict(1, {(0,): 0.5, (1,): 1.0})
    fv = np.real(P.eval_many(X.points))
    om = Majorant.power(1.0, 2)
    chain = build_chain(fv, X, fam, 2, om)
    grid = GridSpec((-0.3,), (1.3,), (97,))
    fld = whitney_extend(chain, X, grid)
    truth = np.real(P.eval_many(grid.nodes()))
    assert len(fld.holes) == 0
    assert np.max(np.abs(fld.values - truth)) <= 1e-9


def test_zero_chain_gives_zero_field():
    X = interval_set()
    fam = build_cube_family(X, center_budget=48)
    om = Majorant.power(1.0, 2)
    chain = build_chain(np.zeros(X.size), X, fam, 2, om)
    fld = whitney_extend(chain, X, GridSpec((-0.3,), (1.3,), (65,)))
    assert np.nanmax(np.abs(fld.values)) <= 1e-12


def test_partition_of_unity_weights():
    X = interval_set()
    fam = build_cube_family(X, center_budget=48)
    om = Majorant.power(1.0, 2)
    # constant data: the weights of every covered node sum to one
    chain = build_chain(np.ones(X.size), X, fam, 2, om)
    fld = whitney_extend(chain, X, GridSpec((-0.3,), (1.3,), (65,)))
    covered = np.setdiff1d(np.arange(len(fld.values)), fld.holes)
    assert len(covered)
    assert np.max(np.abs(fld.values[covered] - 1.0)) <= 1e-12


def test_trace_consistency_at_grid_resolution():
    X = interval_set(9)
    fam = build_cube_family(X)
    fv = np.abs(X.points[:, 0] - 0.5)
    om = Majorant.power(1.0, 2)
    chain = build_chain(fv, X, fam, 2, om)
    grid = GridSpec((-0.25,), (1.25,), (129,))
    fld = whitney_extend(chain, X, grid)
    vals = fld.as_callable()(X.points)
    assert np.max(np.abs(vals - fv)) <= 5.0 * grid.spacing


def _whitney_per_node(chain, X, grid):
    """The Whitney assembly one node at a time, scanning every cube:
    the reference for the blocked `whitney_extend`."""
    nodes = grid.nodes()
    cubes = [Q for Q, bad in zip(chain.cubes, chain.deficient) if not bad]
    C = chain.coefs[~chain.deficient]
    exps = exponent_array(grid.dim, max(chain.k - 1, 0))
    centers = np.array([Q.center for Q in cubes])
    radii = np.array([Q.radius for Q in cubes])
    dist, _ = cKDTree(X.points).query(nodes)
    values = np.full(len(nodes), np.nan)
    holes, fallbacks = [], 0
    for i, y in enumerate(nodes):
        d = dist[i]
        supd = np.max(np.abs(centers - y), axis=1)
        in_double = supd <= 2.0 * radii
        sel = np.nonzero(in_double & (radii >= d) & (radii <= 4.0 * d))[0]
        if len(sel) == 0:
            fallbacks += 1
            for r in sorted(set(radii)):
                sel = np.nonzero(in_double & (radii == r))[0]
                if len(sel):
                    break
        if len(sel) == 0:
            holes.append(i)
            continue
        w = _bump(supd[sel] / (2.0 * radii[sel]))
        if w.sum() == 0.0:
            w = np.ones(len(sel))
        w = w / w.sum()
        z = (y - centers[sel]) / radii[sel, None]
        mono = np.prod(np.power(z[:, None, :], exps[None]), axis=2)
        values[i] = float(w @ np.sum(C[sel] * mono, axis=1))
    return values, holes, fallbacks


@pytest.mark.parametrize("preset,depth,grid,noise", [
    pytest.param("cantor:1/4", 4, GridSpec((-10.0,), (10.0,), (321,)), False,
                 id="cantor:1/4-4-grid0"),
    pytest.param("dust2d:1/4", 3,
                 GridSpec((-10.0, -10.0), (10.0, 10.0), (81, 81)), False,
                 id="dust2d:1/4-3-grid1"),
    # random data: the entries of small cubes are far from smooth
    pytest.param("cube:1", 9, GridSpec((-0.25,), (1.25,), (257,)), True,
                 id="cube:1-9-noise"),
])
def test_whitney_extend_matches_per_node_assembly(preset, depth, grid, noise):
    X = build_preset(preset, depth)
    fam = build_cube_family(X, center_budget=48)
    x = X.points
    if noise:
        fv = np.random.default_rng(0).uniform(-1, 1, X.size)
    else:
        fv = np.sin(3.0 * x[:, 0]) + np.abs(x[:, -1] - 0.3)
    chain = build_chain(fv, X, fam, 3, Majorant.power(1.0, 3))
    values, holes, fallbacks = _whitney_per_node(chain, X, grid)
    if not noise:
        # deficient cubes, on-set nodes (dyadic grid), band fallbacks, holes
        assert chain.deficient.any()
        on_set = cKDTree(x).query(grid.nodes())[0] == 0.0
        assert on_set.any() and fallbacks > on_set.sum() and holes
    fld = whitney_extend(chain, X, grid)
    assert fld.holes == holes
    assert np.array_equal(np.isnan(fld.values), np.isnan(values))
    ok = ~np.isnan(values)
    # relative to the value: quadratics far off the set reach about 200
    assert np.all(np.abs(fld.values[ok] - values[ok])
                  <= 1e-14 * np.maximum(1.0, np.abs(values[ok])))


def test_far_nodes_reported_as_holes():
    X = interval_set(6)
    fam = build_cube_family(X, center_budget=32)
    om = Majorant.power(1.0, 2)
    chain = build_chain(np.zeros(X.size), X, fam, 2, om)
    grid = GridSpec((-60.0,), (60.0,), (31,))
    fld = whitney_extend(chain, X, grid)
    assert len(fld.holes) > 0


# -- end-to-end verification -----------------------------------------------------


def test_verify_polynomial_input_not_applicable():
    X = interval_set()
    fam = build_cube_family(X, center_budget=64)
    P = Polynomial.from_dict(1, {(0,): 1.0, (1,): 0.5})
    fv = np.real(P.eval_many(X.points))
    om = Majorant.power(1.0, 2)
    chain = build_chain(fv, X, fam, 2, om)
    fld = whitney_extend(chain, X, GridSpec((-0.3,), (1.3,), (65,)))
    rep = verify_extension(fv, fld, X, 2, om, family=fam)
    assert rep.trace_error <= 1e-8
    assert rep.lipschitz <= 1e-8
    assert rep.ratio is None


def test_verify_scaling_doubles_seminorms():
    X = interval_set(9)
    fam = build_cube_family(X, center_budget=128)
    fv = np.abs(X.points[:, 0] - 0.5)
    om = Majorant.power(1.0, 2)
    grid = GridSpec((-0.25,), (1.25,), (129,))
    r1 = verify_extension(fv, whitney_extend(build_chain(fv, X, fam, 2, om),
                                             X, grid), X, 2, om, family=fam)
    f2 = 2.0 * fv
    r2 = verify_extension(f2, whitney_extend(build_chain(f2, X, fam, 2, om),
                                             X, grid), X, 2, om, family=fam)
    assert r2.lipschitz == pytest.approx(2.0 * r1.lipschitz, rel=1e-9)
    assert r2.campanato == pytest.approx(2.0 * r1.campanato, rel=1e-9)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)


def test_trace_recovery_improves_with_grid():
    X = interval_set(9)
    fam = build_cube_family(X)
    fv = np.sin(math.pi * X.points[:, 0])
    om = Majorant.power(1.0, 2)
    chain = build_chain(fv, X, fam, 2, om)
    errs = []
    for nodes in (65, 129, 257):
        fld = whitney_extend(chain, X, GridSpec((-0.25,), (1.25,), (nodes,)))
        errs.append(float(np.mean(np.abs(fld.as_callable()(X.points) - fv))))
    assert errs[1] <= 0.8 * errs[0]
    assert errs[2] <= 0.8 * errs[1]


@pytest.mark.parametrize("lo,hi,shape", [
    pytest.param((0.0,), (1.0,), (1,), id="one-node"),
    pytest.param((0.0, 0.0), (1.0, 1.0), (5, 1), id="one-node-axis"),
    pytest.param((1.0,), (1.0,), (5,), id="lo-equals-hi"),
    pytest.param((0.0, 1.0), (1.0, 0.0), (5, 5), id="lo-above-hi"),
    pytest.param((0.0,), (1.0, 1.0), (5, 5), id="short-lo"),
    pytest.param((0.0, 0.0), (1.0, 1.0), (5,), id="short-shape"),
    pytest.param((), (), (), id="no-axis"),
])
def test_grid_spec_rejects_unusable_grids(lo, hi, shape):
    with pytest.raises(ValueError, match="grid"):
        GridSpec(lo, hi, shape)


@pytest.mark.parametrize("nodes", [2, 3])
def test_verify_extension_rejects_an_empty_probe_box(nodes):
    X = interval_set(6)
    fam = build_cube_family(X, center_budget=8)
    fv = np.abs(X.points[:, 0] - 0.5)
    om = Majorant.power(1.0, 2)
    fld = whitney_extend(build_chain(fv, X, fam, 2, om), X,
                         GridSpec((-0.25,), (1.25,), (nodes,)))
    with pytest.raises(ValueError, match="probe box"):
        verify_extension(fv, fld, X, 2, om, family=fam)
