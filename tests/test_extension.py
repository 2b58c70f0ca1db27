import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fractal_remez.campanato import (CubeFamily, Majorant, build_cube_family,
                                     local_best_approx)
from fractal_remez.extension import (Chain, ExtensionField, GridSpec,
                                     build_chain, chain_seminorm, trace_tilde,
                                     verify_extension, whitney_extend, _bump,
                                     _max_abs_deg2_interval,
                                     _max_abs_deg2_square)
from fractal_remez.fractals import FractalSet, build_preset, transform
from fractal_remez.geometry import Cube
from fractal_remez.polynomials import (Polynomial, affine_matrices,
                                       compose_affine_many, exponent_array,
                                       monomials, multi_indices)
from fractal_remez.remez import sup_norm


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
    assert res.value == pytest.approx(float(P.eval_many(x)[0]), abs=1e-10)
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
    got = chain.coefs - _in_frames(P, chain.family.cubes)
    assert np.max(np.abs(got)) <= 1e-9
    assert chain_seminorm(chain, fam).value <= 1e-9


def test_chain_interpolates_trace_at_centers():
    X = interval_set()
    fam = build_cube_family(X, center_budget=32)
    fv = np.abs(X.points[:, 0] - 0.5)
    om = Majorant.power(1.0, 2)
    chain = build_chain(fv, X, fam, 2, om)
    for Q, row in zip(chain.family.cubes, chain.coefs):
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
    assert cfg.family.cubes == cf.family.cubes == cg.family.cubes
    assert np.max(np.abs(cfg.coefs - (a * cf.coefs + b * cg.coefs))) <= 1e-9


def _two_cube_chain():
    fam = CubeFamily(interval_set(), (Cube((0.5,), 0.5), Cube((0.5,), 1.0)))
    return Chain(coefs=np.array([[0.0, 0.0], [0.125, 0.0]]),
                 deficient=np.zeros(2, dtype=bool), k=2,
                 omega=Majorant.power(1.0, 2), family=fam)


def _three_cube_chain(small=np.nan):
    # radius pairs run (0.25, 0.5), (0.25, 1), (0.5, 1); with a NaN small
    # entry only the pairs with the small cube are NaN, and the last pair
    # has a finite ratio; with a zero one the last two pairs tie
    fam = CubeFamily(interval_set(),
                     [Cube((0.5,), r) for r in (0.25, 0.5, 1.0)])
    return Chain(coefs=np.array([[small, 0.0], [0.0, 0.0], [0.5, 0.0]]),
                 deficient=np.zeros(3, dtype=bool), k=2,
                 omega=Majorant.power(1.0, 2), family=fam)


def test_chain_seminorm_two_cube_formula():
    chain = _two_cube_chain()
    res = chain_seminorm(chain, chain.family)
    assert res.value == pytest.approx(0.125 / 1.0, abs=1e-12)
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
    chain = _three_cube_chain()
    res = chain_seminorm(chain, chain.family)
    assert math.isnan(res.value)
    assert res.witness == chain.family.cubes[:2]
    assert res.num_pairs == 3


def test_chain_seminorm_shift_invariance():
    X = interval_set()
    fam = build_cube_family(X, center_budget=48)
    om = Majorant.power(1.0, 2)
    fv = np.abs(X.points[:, 0] - 0.5)
    chain = build_chain(fv, X, fam, 2, om)
    P = Polynomial.from_dict(1, {(0,): 3.0, (1,): -1.0})
    shifted = Chain(coefs=chain.coefs + _in_frames(P, chain.family.cubes),
                    deficient=chain.deficient, k=2, omega=om, family=fam)
    a = chain_seminorm(chain, fam)
    b = chain_seminorm(shifted, fam)
    assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)


def _reference_chain_seminorm(chain, family):
    """The chain seminorm radius pair by radius pair, every pair and its
    re-expansion found afresh: the reference for the pair plan."""
    row = {Q: i for i, Q in enumerate(chain.family.cubes)}
    by_radius: dict = {}
    for Q in family.cubes:
        if Q in row:
            by_radius.setdefault(Q.radius, []).append(Q)
    if not by_radius:
        return 0.0, None, 0
    n = len(chain.family.cubes[0].center)
    deg = max(chain.k - 1, 0)
    radii = sorted(by_radius)
    exact = deg <= 2 and n <= 2
    unit = Cube((0.0,) * n, 1.0)
    best = []  # (largest ratio, witness pair) per radius pair
    num_pairs = 0
    coefs = {r: chain.coefs[[row[Q] for Q in by_radius[r]]] for r in radii}
    centers = {r: np.array([Q.center for Q in by_radius[r]]) for r in radii}
    for bi, r_big in enumerate(radii):
        for r_small in radii[max(0, bi - 2): bi]:
            if r_big > 4.0 * r_small * (1 + 1e-12):
                continue
            gap = np.abs(centers[r_big][:, None] - centers[r_small]).max(2)
            bj, si = np.nonzero(gap <= r_big - r_small + 1e-12)
            if not len(si):
                continue
            num_pairs += len(si)
            outer = compose_affine_many(
                coefs[r_big][bj], n, deg, r_small / r_big,
                (centers[r_small][si] - centers[r_big][bj]) / r_big)
            D = coefs[r_small][si] - outer
            if exact and n == 1:
                sups = _max_abs_deg2_interval(D)
            elif exact:
                sups = _max_abs_deg2_square(D)
            else:
                sups = np.array([sup_norm(Polynomial(n, deg, d), unit,
                                          budget=256) for d in D])
            ratios = sups / float(chain.omega(r_big))
            j = int(np.argmax(ratios))
            best.append((float(ratios[j]),
                         (by_radius[r_small][si[j]], by_radius[r_big][bj[j]])))
    if not best:
        return 0.0, None, 0
    value, witness = best[int(np.argmax([v for v, _ in best]))]
    return value, witness, num_pairs


def _built_chain(preset, depth, budget, k, data):
    X = build_preset(preset, depth)
    fam = build_cube_family(X, center_budget=budget)
    if data == "noise":
        fv = np.random.default_rng(0).uniform(-1, 1, X.size)
    else:
        fv = np.linalg.norm(X.points - 0.3, axis=1)
        if data == "nan":
            fv[5] = np.nan
    return build_chain(fv, X, fam, k, Majorant.power(1.0, k))


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda k=k, d=d: _built_chain("cube:1", 9, 48, k, d),
                   id=f"cube:1-k{k}-{d}")
      for k in (1, 2, 3) for d in ("abs", "noise")),
    *(pytest.param(lambda k=k: _built_chain("dust2d:1/4", 4, 48, k, "abs"),
                   id=f"dust2d:1/4-k{k}") for k in (2, 3)),
    pytest.param(lambda: _built_chain("cube:1", 9, 48, 2, "nan"), id="nan"),
    pytest.param(_two_cube_chain, id="two-cube"),
    pytest.param(_three_cube_chain, id="three-cube"),
    pytest.param(lambda: _three_cube_chain(0.0), id="three-cube-tie"),
    # degree 3: every pair's sup is sampled
    pytest.param(lambda: _built_chain("cube:1", 5, 2, 4, "abs"),
                 id="sampled"),
])
def test_chain_seminorm_equals_the_per_radius_pair_reference(make):
    chain = make()
    res = chain_seminorm(chain, chain.family)
    value, witness, num_pairs = _reference_chain_seminorm(chain,
                                                          chain.family)
    assert res.num_pairs == num_pairs > 0
    assert res.witness == witness
    assert (math.isnan(res.value) and math.isnan(value)
            or np.float64(res.value).tobytes() == np.float64(value).tobytes())


def test_chain_seminorm_rejects_another_family():
    X = interval_set(6)
    fam = build_cube_family(X, center_budget=16)
    chain = build_chain(np.abs(X.points[:, 0] - 0.5), X, fam, 2,
                        Majorant.power(1.0, 2))
    same_cubes = CubeFamily(X, fam.cubes)
    with pytest.raises(ValueError, match="own cube family"):
        chain_seminorm(chain, same_cubes)


def test_one_pair_plan_per_degree(monkeypatch):
    from fractal_remez import extension

    X = interval_set(9)
    fam = build_cube_family(X, center_budget=48)
    x = X.points[:, 0]
    first, second, cubic = (build_chain(v, X, fam, k, Majorant.power(1.0, k))
                            for v, k in ((np.abs(x - 0.5), 2), (x ** 2, 2),
                                         (x, 3)))
    calls = []

    def counted(*args):
        calls.append(args)
        return affine_matrices(*args)

    monkeypatch.setattr(extension, "affine_matrices", counted)
    chain_seminorm(first, fam)
    assert len(calls) == 1  # one call for every pair of the family
    chain_seminorm(second, fam)
    assert len(calls) == 1
    res = chain_seminorm(cubic, fam)
    assert len(calls) == 2 and res.num_pairs == len(calls[1][2])


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
    exact = _max_abs_deg2_interval(C)
    ts = np.linspace(-1.0, 1.0, 20001)
    for c, e in zip(C, exact):
        dense = np.max(np.abs(c[0] + c[1] * ts + c[2] * ts ** 2))
        assert e >= dense - 1e-12
        assert e - dense <= 1e-6 * (1.0 + dense)


def test_interval_sup_equals_the_padded_square_sup_bitwise():
    rng = np.random.default_rng(5)
    C = rng.uniform(-2, 2, (4000, 3))
    C[rng.uniform(size=C.shape) < 0.2] = 0.0  # zero entries and rows
    C[:50] *= 1e-150  # tiny rows: the vertex term underflows
    C[50:60, 2] = np.nan
    C[60:70, 2] = 1e-320  # the vertex -c/2f overflows
    for width in (1, 2, 3):
        sq = np.zeros((len(C), 6))
        sq[:, [0, 2, 5][:width]] = C[:, :width]  # 1, t, t^2 as 1, x, x^2
        got = _max_abs_deg2_interval(C[:, :width])
        want = _max_abs_deg2_square(sq)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
    assert np.isnan(got).sum() == 10


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
    cubes = [Q for Q, bad in zip(chain.family.cubes, chain.deficient)
             if not bad]
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


def _field_bits(fld):
    return fld.values.tobytes(), list(fld.holes)


@pytest.mark.parametrize("preset,depth,grid", [
    pytest.param("cube:1", 9, GridSpec((-0.25,), (1.25,), (65,)), id="cube:1"),
    pytest.param("dust2d:1/4", 4,
                 GridSpec((-0.25, -0.25), (1.25, 1.25), (21, 21)),
                 id="dust2d:1/4"),
    # rank-deficient cubes, on-set nodes, band fallbacks and holes
    pytest.param("cantor:1/4", 4, GridSpec((-10.0,), (10.0,), (321,)),
                 id="cantor:1/4-wide"),
    pytest.param("dust2d:1/4", 3,
                 GridSpec((-10.0, -10.0), (10.0, 10.0), (81, 81)),
                 id="dust2d:1/4-wide"),
])
def test_warm_plan_field_equals_a_fresh_family_field_bitwise(preset, depth,
                                                             grid):
    X = build_preset(preset, depth)
    warm = build_cube_family(X, center_budget=48)
    rng = np.random.default_rng(1)
    for k in (1, 2, 3):
        om = Majorant.power(1.0, k)
        # a field of other data builds the plan
        whitney_extend(build_chain(rng.uniform(-1, 1, X.size), X, warm, k,
                                   om), X, grid)
        fv = np.sin(3.0 * X.points[:, 0]) + np.abs(X.points[:, -1] - 0.3)
        fresh = build_cube_family(X, center_budget=48)
        a = whitney_extend(build_chain(fv, X, warm, k, om), X, grid)
        b = whitney_extend(build_chain(fv, X, fresh, k, om), X, grid)
        assert _field_bits(a) == _field_bits(b)
        if grid.hi[0] == 10.0 and k == 3:
            assert build_chain(fv, X, warm, k, om).deficient.any()
            assert a.holes


def test_one_whitney_plan_per_grid(monkeypatch):
    from fractal_remez import extension

    plans = []

    class Counted(extension.WhitneyPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(extension, "WhitneyPlan", Counted)
    X = interval_set(9)
    fam = build_cube_family(X, center_budget=48)
    om = Majorant.power(1.0, 2)
    x = X.points[:, 0]
    grid = GridSpec((-0.25,), (1.25,), (65,))
    for v in (np.abs(x - 0.5), x ** 2, 0.7 * np.abs(x - 0.5) - 1.3 * x ** 2):
        whitney_extend(build_chain(v, X, fam, 2, om), X, grid)
    assert len(plans) == 1
    chain = build_chain(x, X, fam, 2, om)
    whitney_extend(chain, X, GridSpec((-0.25,), (1.25,), (129,)))
    whitney_extend(chain, X, GridSpec([-0.25], [1.25], [129]))
    assert len(plans) == 2
    # column-major monomials: einsum sums the rows of a row-major table in
    # another order, which changes the last bits of the field
    assert all(p.mono.flags.f_contiguous for p in plans)


def test_each_field_owns_its_holes():
    X = interval_set(6)
    fam = build_cube_family(X, center_budget=32)
    chain = build_chain(np.zeros(X.size), X, fam, 2, Majorant.power(1.0, 2))
    grid = GridSpec((-60.0,), (60.0,), (31,))
    first = whitney_extend(chain, X, grid)
    holes = list(first.holes)
    first.holes.clear()
    assert whitney_extend(chain, X, grid).holes == holes != []


def test_a_grid_far_from_the_set_is_all_holes():
    X = interval_set(6)
    fam = build_cube_family(X, center_budget=32)
    chain = build_chain(np.ones(X.size), X, fam, 2, Majorant.power(1.0, 2))
    fld = whitney_extend(chain, X, GridSpec((1e3,), (1e3 + 1.0,), (5,)))
    assert fld.holes == list(range(5))
    assert np.isnan(fld.values).all()


def test_whitney_extend_rejects_another_set():
    X = interval_set(6)
    fam = build_cube_family(X, center_budget=16)
    chain = build_chain(np.ones(X.size), X, fam, 2, Majorant.power(1.0, 2))
    other = transform(X, 1.0, [0.0])
    with pytest.raises(ValueError, match="base set"):
        whitney_extend(chain, other, GridSpec((-0.3,), (1.3,), (65,)))


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
    pytest.param((0.0,), (math.inf,), (5,), id="infinite-hi"),
    pytest.param((math.nan,), (1.0,), (5,), id="nan-lo"),
    pytest.param((0.0,), (1.0, 1.0), (5, 5), id="short-lo"),
    pytest.param((0.0, 0.0), (1.0, 1.0), (5,), id="short-shape"),
    pytest.param((), (), (), id="no-axis"),
])
def test_grid_spec_rejects_unusable_grids(lo, hi, shape):
    with pytest.raises(ValueError, match="grid"):
        GridSpec(lo, hi, shape)


def test_grid_spec_normalizes_its_fields():
    a = GridSpec([0], [1.0], [np.int64(5)])
    b = GridSpec((0.0,), (1.0,), (5,))
    assert a == b and hash(a) == hash(b)
    assert type(a.lo[0]) is float and type(a.shape[0]) is int
    with pytest.raises(TypeError):
        GridSpec((0.0,), (1.0,), (5.5,))


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


# -- the field's interpolant -----------------------------------------------


def _random_field(rng, shape, holes):
    """A field of random values on a random box, with signed zeros and,
    if asked, NaN holes."""
    n = len(shape)
    grid = GridSpec(tuple(rng.uniform(-2.0, 0.0, n)),
                    tuple(rng.uniform(0.5, 3.0, n)), shape)
    values = rng.standard_normal(math.prod(shape))
    values[rng.random(values.size) < 0.05] = -0.0
    if holes:
        values[rng.random(values.size) < 0.05] = np.nan
        values[values.size // 2] = np.nan
    return ExtensionField(grid=grid, values=values, holes=[], chain_k=2)


def _scipy_interpolant(fld):
    from scipy.interpolate import RegularGridInterpolator
    return RegularGridInterpolator(tuple(fld.grid.axes()),
                                   fld.values.reshape(fld.grid.shape),
                                   method="linear")


@pytest.mark.parametrize("shape", [(129,), (2,), (65, 65), (21, 3),
                                   (17, 17, 17), (5, 4, 3)])
@pytest.mark.parametrize("holes", [False, True], ids=["full", "holes"])
def test_interpolant_is_bitwise_scipys(shape, holes):
    # random points, every grid node, and both faces of every axis; NaN
    # values propagate with scipy's payloads and -0.0 keeps scipy's sign
    rng = np.random.default_rng(sum(shape) + holes)
    fld = _random_field(rng, shape, holes)
    lo, hi, n = np.array(fld.grid.lo), np.array(fld.grid.hi), len(shape)
    parts = [rng.uniform(lo, hi, (4000, n)), fld.grid.nodes()]
    for i in range(n):
        for face in (lo[i], hi[i]):
            P = rng.uniform(lo, hi, (300, n))
            P[:, i] = face
            parts.append(P)
    P = np.concatenate(parts)
    got, want = fld.as_callable()(P), _scipy_interpolant(fld)(P)
    assert got.shape == want.shape == (len(P),)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(got).any() == holes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interpolant_raises_where_scipy_raises(n):
    fld = _random_field(np.random.default_rng(n), (5,) * n, False)
    lo, hi = np.array(fld.grid.lo), np.array(fld.grid.hi)
    mid = 0.5 * (lo + hi)
    bad = [np.zeros((1, n + 1)), np.full((1, n), np.nan)]
    for i in range(n):
        for edge, way in ((lo, -np.inf), (hi, np.inf)):
            P = mid.copy()
            P[i] = np.nextafter(edge[i], way)  # one ulp outside the box
            bad.append(P[None])
            P[i] = np.nan
            bad.append(P[None])
    for f in (fld.as_callable(), _scipy_interpolant(fld)):
        for P in bad:
            with pytest.raises(ValueError):
                f(P)
        assert np.isfinite(f(mid)).all()
