import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fractal_remez import campanato
from fractal_remez.campanato import (CubeFamily, FitPlan, Majorant,
                                     MajorantSumError, build_cube_family,
                                     campanato_seminorm,
                                     dyadic_radii, lipschitz_seminorm,
                                     local_best_approx, majorant_sum_check,
                                     quasipower_check)
from fractal_remez.campanato import _fit
from fractal_remez.fractals import FractalSet, build_preset
from fractal_remez.geometry import Cube, sobol_unit
from fractal_remez.polynomials import (Polynomial, affine_matrices,
                                       compose_affine_many, monomials)

INF = math.inf


def three_point_set():
    pts = np.array([[-1.0], [0.0], [1.0]])
    return FractalSet(points=pts, masses=np.ones(3) / 3, s=1.0, diam=2.0,
                      cell_diam=0.25, total_mass=1.0)


def in_cube_frame(P: Polynomial, Q: Cube) -> np.ndarray:
    """P's coefficients in the monomials of (x - c_Q)/r_Q: P(c_Q + r_Q z)."""
    return compose_affine_many(P.coeffs[None, :], P.num_vars, P.degree_bound,
                               Q.radius, np.asarray(Q.center, dtype=float))[0]


# -- cube families ------------------------------------------------------------


def test_dyadic_radii_are_powers_of_two():
    radii = dyadic_radii(0.03, 5.0)
    assert radii == [2.0 ** j for j in range(-5, 3)]
    for r in radii:
        assert math.log2(r) == round(math.log2(r))


def test_family_centers_on_cloud_and_radius_cap():
    X = build_preset("cantor:1/3", 7)
    fam = build_cube_family(X)
    cloud = {tuple(p) for p in X.points}
    assert all(q.center in cloud for q in fam.cubes)
    assert all(q.radius <= 4.0 * X.diam for q in fam.cubes)


def test_family_budget():
    X = build_preset("cantor:1/3", 9)  # 512 points
    fam = build_cube_family(X, center_budget=50)
    centers = {q.center for q in fam.cubes}
    assert len(centers) == 50


# -- local best approximation ---------------------------------------------------


def test_polynomial_reproduction_gives_zero():
    X = build_preset("cube:1", 7)
    Q = Cube((0.5,), 0.5)
    P = Polynomial.from_dict(1, {(0,): 0.3, (1,): -1.2})
    fv = np.real(P.eval_many(X.points))
    for q in (1, 2, INF):
        res = local_best_approx(fv, X, Q, 2, q)
        assert res.value <= 1e-9
        diff = res.coefs - in_cube_frame(P, Q)
        assert np.max(np.abs(diff)) <= 1e-9


def test_e0_is_the_norm():
    X = three_point_set()
    fv = np.full(3, -2.5)
    res = local_best_approx(fv, X, Cube((0.0,), 2.0), 0, 2)
    assert res.value == pytest.approx(2.5, abs=1e-12)
    assert res.coefs.tolist() == [0.0]  # the zero polynomial
    for q in (1, 2.0, INF, np.inf, "inf"):
        assert local_best_approx(fv, X, Cube((0.0,), 2.0), 0, q).value == \
            pytest.approx(2.5, abs=1e-12)
    # q is checked first, for every k: the far cube is never reached
    for q in (3, -1, 0.5, 0, "2", None):
        for k in (0, 1, 2):
            with pytest.raises(ValueError, match="q must be"):
                local_best_approx(fv, X, Cube((10.0,), 0.1), k, q)


def test_closed_form_least_squares_example():
    X = three_point_set()
    fv = X.points[:, 0] ** 2
    res = local_best_approx(fv, X, Cube((0.0,), 1.5), 1, 2)
    # best constant is the mean 2/3; E_1 = sqrt(2/9)
    assert res.value == pytest.approx(math.sqrt(2.0 / 9.0), abs=1e-12)
    assert res.coefs.tolist() == pytest.approx([2.0 / 3.0], abs=1e-12)


def test_minimax_example():
    X = three_point_set()
    fv = X.points[:, 0] ** 2
    res = local_best_approx(fv, X, Cube((0.0,), 1.5), 1, INF)
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_e_k_nonincreasing_in_k():
    X = build_preset("cube:1", 7)
    rng = np.random.default_rng(0)
    fv = np.sin(3.0 * X.points[:, 0]) + rng.normal(0, 0.01, X.size)
    Q = Cube((0.5,), 0.5)
    for q in (1, 2, INF):
        vals = [local_best_approx(fv, X, Q, k, q).value for k in range(5)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_homogeneity():
    X = three_point_set()
    rng = np.random.default_rng(1)
    fv = rng.uniform(-1, 1, 3)
    Q = Cube((0.0,), 1.5)
    for q in (1, 2, INF):
        base = local_best_approx(fv, X, Q, 2, q).value
        scaled = local_best_approx(-7.5 * fv, X, Q, 2, q).value
        assert scaled == pytest.approx(7.5 * base, rel=1e-12, abs=1e-14)


def test_empty_intersection_raises():
    X = build_preset("cantor:1/3", 5)
    with pytest.raises(ValueError):
        local_best_approx(np.zeros(X.size), X, Cube((10.0,), 0.1), 1, 2)


def test_rank_deficiency_flagged():
    pts = np.array([[0.0], [1.0]])
    X = FractalSet(points=pts, masses=np.ones(2) / 2, s=1.0, diam=1.0,
                   cell_diam=0.2, total_mass=1.0)
    res = local_best_approx(np.array([1.0, 2.0]), X, Cube((0.5,), 1.0), 3, 2)
    assert res.rank_deficient
    assert res.value <= 1e-12  # two points are interpolated exactly
    # a near-coincident pair still has full rank, as lstsq counts it
    X = FractalSet(points=np.array([[0.0], [1e-9], [1.0]]),
                   masses=np.ones(3) / 3, s=1.0, diam=1.0, cell_diam=0.2,
                   total_mass=1.0)
    res = local_best_approx(np.array([1.0, 2.0, 0.0]), X, Cube((0.5,), 1.0),
                            3, 2)
    assert not res.rank_deficient


def test_coefs_are_in_the_cube_frame():
    X = build_preset("cube:1", 7)
    Q = Cube((0.25,), 0.125)
    P = Polynomial.from_dict(1, {(0,): 0.3, (1,): -1.2, (2,): 0.5})
    fv = np.real(P.eval_many(X.points))
    res = local_best_approx(fv, X, Q, 3, 2)
    # P(c + r z) = 0.3 - 1.2 (c + r z) + 0.5 (c + r z)^2
    c, r = 0.25, 0.125
    want = [P.eval_many(np.array([c]))[0], (-1.2 + c) * r, 0.5 * r ** 2]
    assert np.max(np.abs(res.coefs - want)) <= 1e-12
    assert np.max(np.abs(res.coefs - in_cube_frame(P, Q))) <= 1e-12


def _lstsq_fit(X, Q, k, fv):
    """Reference q = 2 fit of one cube: coefficients, value, deficiency."""
    inside = Q.contains(X.points)
    w = X.masses[inside] / X.masses[inside].sum()
    if k == 0:
        return np.zeros(0), math.sqrt(np.sum(w * fv[inside] ** 2)), False
    A = monomials((X.points[inside] - np.asarray(Q.center)) / Q.radius, k - 1)
    sw = np.sqrt(w)
    coefs, _, rank, _ = np.linalg.lstsq(A * sw[:, None], fv[inside] * sw,
                                        rcond=None)
    value = math.sqrt(np.sum(w * (fv[inside] - A @ coefs) ** 2))
    return coefs, value, rank < A.shape[1]


@st.composite
def plan_cases(draw, max_n=3, max_k=4):
    """Points on the lattice (Z/4)^n, duplicates allowed, cubes centered on
    them: radius 1/8 holds one location, radii 2 and 4 hold every point."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, max_k))
    size = draw(st.integers(1, 12))
    cells = draw(st.lists(st.lists(st.integers(0, 4), min_size=n,
                                   max_size=n), min_size=size, max_size=size))
    pts = np.array(cells, dtype=float) / 4.0
    masses = np.array(draw(st.lists(st.integers(1, 4), min_size=size,
                                    max_size=size)), dtype=float)
    X = FractalSet(points=pts, masses=masses / masses.sum(), s=float(n),
                   diam=1.0, cell_diam=0.25, total_mass=1.0)
    centers = draw(st.lists(st.integers(0, size - 1), min_size=1,
                            max_size=6))
    radii = draw(st.lists(st.sampled_from([0.125, 0.25, 0.5, 2.0, 4.0]),
                          min_size=len(centers), max_size=len(centers)))
    cubes = [Cube(tuple(pts[i]), r) for i, r in zip(centers, radii)]
    fv = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size,
                                max_size=size)))
    return X, cubes, k, fv


@given(plan_cases())
@settings(max_examples=300, deadline=None)
def test_plan_matches_per_cube_lstsq(case):
    X, cubes, k, fv = case
    plan = FitPlan(X, cubes, k)
    coefs, values = plan.apply(fv)
    for j, Q in enumerate(cubes):
        want, value, deficient = _lstsq_fit(X, Q, k, fv)
        assert plan.deficient[j] == deficient
        assert abs(values[j] - value) <= 1e-12
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(coefs[j] - want), initial=0.0) <= 1e-12 * scale


def _factor(points, sqrt_w, k):
    """Reference factor of one member set, one SVD per set: the frame
    (bounding-box center and largest half-width, 1 for a single location)
    and, for k >= 1, the basis and the rows S V^T cut to the rank."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    center = 0.5 * (lo + hi)
    radius = float(np.max(0.5 * (hi - lo))) or 1.0
    if k == 0:
        return center, radius, np.zeros((len(points), 0)), np.zeros((0, 0))
    A = monomials((points - center) / radius, k - 1) * sqrt_w[:, None]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > np.finfo(float).eps * max(A.shape) * s[0]))
    return center, radius, U[:, :rank], s[:rank, None] * Vt[:rank]


def _per_set_factors(plan, X):
    """The plan's frames, ranks, basis, maps and deficient flags rebuilt
    with a loop over its member sets, one `_factor` call each."""
    n, k, ncols = X.ambient_dim, plan.k, len(plan.basis)
    frames = np.empty((len(plan.counts), n + 1))
    ranks = np.zeros(len(plan.counts), dtype=int)
    basis = np.zeros((ncols, len(plan.index)))
    rows = np.zeros((len(plan.counts), ncols, ncols))
    for j, (a, m) in enumerate(zip(plan.starts.tolist(),
                                   plan.counts.tolist())):
        c, r, U, SV = _factor(X.points[plan.index[a:a + m]],
                              plan.sqrt_w[a:a + m], k)
        frames[j], ranks[j] = (*c, r), len(SV)
        basis[:len(SV), a:a + m] = U.T
        rows[j, :len(SV)] = SV
    rank = ranks[plan.cube_set]
    maps = np.zeros((len(plan.cube_set), ncols, ncols))
    if ncols:
        f_c, f_r = np.split(frames[plan.cube_set], [n], axis=1)
        U, s, Vt = np.linalg.svd(rows[plan.cube_set] @ affine_matrices(
            n, k - 1, f_r / plan.radii[:, None],
            (f_c - plan.centers) / plan.radii[:, None]))
        inv = np.divide(1.0, s, out=np.zeros_like(s),
                        where=np.arange(ncols) < rank[:, None])
        maps = np.swapaxes(Vt, 1, 2) * inv[:, None, :] @ np.swapaxes(U, 1, 2)
    return frames, ranks, basis, maps, rank < ncols


def _assert_factors_bitwise(plan, X):
    want = _per_set_factors(plan, X)
    got = (plan.frames, plan.ranks, plan.basis, plan.maps, plan.deficient)
    for name, a, b in zip(("frames", "ranks", "basis", "maps", "deficient"),
                          got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@given(plan_cases())
@settings(max_examples=300, deadline=None)
def test_stacked_factors_match_the_per_set_loop_bitwise(case):
    X, cubes, k, _ = case
    _assert_factors_bitwise(FitPlan(X, cubes, k), X)


def test_stacked_factors_bitwise_on_deficient_sets():
    X = build_preset("dust2d:1/4", 4)
    fam = build_cube_family(X)
    plan = fam.fit_plan(3)
    # 85 sets in 4 stacks of equal counts, 64 of them rank-deficient
    assert len(plan.counts) == 85 and len(set(plan.counts.tolist())) == 4
    assert np.sum(plan.ranks < len(plan.basis)) == 64
    _assert_factors_bitwise(plan, X)


def _linprog_fit(X, Q, k, fv, q):
    """Reference q = 1 or q = inf value of one cube: the primal linear
    program min cost.t subject to |f - A c| <= slack t in the cube's
    frame, one slack per point at q = 1 and one for all at q = inf."""
    inside = Q.contains(X.points)
    f, w = fv[inside], X.masses[inside] / X.masses[inside].sum()
    res = f
    if k > 0:
        A = monomials((X.points[inside] - np.asarray(Q.center)) / Q.radius,
                      k - 1)
        m, d = A.shape
        cost, slack = ((w, np.eye(m)) if q == 1
                       else (np.ones(1), np.ones((m, 1))))
        lp = linprog(np.concatenate([np.zeros(d), cost]),
                     A_ub=np.block([[A, -slack], [-A, -slack]]),
                     b_ub=np.concatenate([f, -f]),
                     bounds=[(None, None)] * d + [(0, None)] * len(cost),
                     method="highs")
        assert lp.success
        res = f - A @ lp.x[:d]
    return float(np.sum(w * np.abs(res)) if q == 1 else np.max(np.abs(res)))


@given(plan_cases(max_n=2, max_k=3), st.sampled_from([1, INF]))
@settings(max_examples=150, deadline=None)
# the cube holds four points on a line, at three distinct places, so a
# quadratic interpolates f there and E_3 = 0; the dual's rounding left the
# q = 1 lower end at 2e-17, above the value
@example(case=(FractalSet(points=np.array([[0.0, 0.0], [0.0, 0.5],
                                           [0.0, 0.25], [0.0, 0.5],
                                           [0.0, 0.75]]),
                          masses=np.full(5, 0.2), s=2.0, diam=1.0,
                          cell_diam=0.25, total_mass=1.0),
               [Cube((0.0, 0.5), 0.25)], 3,
               np.array([0.0, 0.0, 0.0, 0.0, 1.0])), q=1)
def test_lp_fits_are_one_per_member_set(case, q):
    X, cubes, k, fv = case
    fam = CubeFamily(X, cubes)
    om = Majorant.power(1.0, k)
    ratios = campanato_seminorm(fv, fam, k, q, om).ratios
    _, values, lower, _ = _fit(fam.fit_plan(k), fv, q)
    assert np.array_equal(ratios, values / om([Q.radius for Q in cubes]))
    assert np.all(lower <= values)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(fv))))
    by_set = {}
    for j, Q in enumerate(cubes):
        _, one, one_lower, _ = _fit(FitPlan(X, (Q,), k), fv, q)
        assert local_best_approx(fv, X, Q, k, q).value == one[0]
        # both values are upper bounds, both lower ends lower bounds
        gap = max(values[j] - lower[j], one[0] - one_lower[0])
        assert abs(values[j] - one[0]) <= gap + tol
        members = tuple(np.flatnonzero(Q.contains(X.points)))
        assert by_set.setdefault(members, values[j]) == values[j]
        # HiGHS's feasibility tolerance
        assert abs(one[0] - _linprog_fit(X, Q, k, fv, q)) <= \
            1e-7 * max(1.0, float(np.max(np.abs(fv))))


def _assert_lp_coefficients(X, cubes, k, fv, q):
    """Each cube's q = 1 or q = inf coefficients reproduce its value on
    Q cap X and are the least-norm cube-frame ones with their values."""
    coefs, values, _, failed = _fit(FitPlan(X, cubes, k), fv, q)
    assert not failed.any()
    tol = 1e-12 * max(1.0, float(np.max(np.abs(fv))))
    for j, Q in enumerate(cubes):
        inside = Q.contains(X.points)
        w = X.masses[inside] / X.masses[inside].sum()
        A = monomials((X.points[inside] - np.asarray(Q.center)) / Q.radius,
                      max(k - 1, 0))[:, :coefs.shape[1]]
        res = fv[inside] - A @ coefs[j]
        # the coefficients reproduce the program's value on Q cap X ...
        got = np.sum(w * np.abs(res)) if q == 1 else np.max(np.abs(res))
        assert abs(got - values[j]) <= 1e-9 * max(tol, values[j]) + tol
        # ... and are the least-norm ones with their values there
        least = np.linalg.lstsq(A, A @ coefs[j], rcond=None)[0]
        scale = max(1.0, float(np.max(np.abs(least), initial=0.0)))
        assert np.max(np.abs(coefs[j] - least), initial=0.0) <= 1e-9 * scale


@given(plan_cases(max_n=2, max_k=3), st.sampled_from([1, INF]))
@settings(max_examples=150, deadline=None)
def test_lp_coefficients_are_minimum_norm_in_the_cube_frame(case, q):
    _assert_lp_coefficients(*case, q)


@pytest.mark.parametrize("q", [1, INF])
def test_lp_coefficients_on_rank_deficient_cubes(q):
    X = build_preset("cantor:1/3", 6)
    fam = build_cube_family(X, center_budget=12)
    assert fam.fit_plan(3).deficient.sum() == 5
    _assert_lp_coefficients(X, fam.cubes, 3, np.abs(X.points[:, 0] - 0.5), q)


def test_seminorm_solves_one_program_per_member_set(monkeypatch):
    X = build_preset("cantor:1/3", 6)
    fam = build_cube_family(X, center_budget=12)
    calls = []
    solve = linprog  # _fit imports scipy.optimize.linprog on each solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    sets = {tuple(np.flatnonzero(Q.contains(X.points))) for Q in fam.cubes}
    assert len(fam.cubes) == 120 and len(sets) == 61
    for q in (1, INF):
        calls.clear()
        res = campanato_seminorm(np.abs(X.points[:, 0] - 0.5), fam, 2, q,
                                 Majorant.power(1.0, 2))
        # one block program covers all 61 member sets
        assert len(calls) == 1 and res.fallbacks == 0


@pytest.mark.parametrize("q", [1, INF])
@pytest.mark.parametrize("depth", [6, 8])
def test_lp_values_are_bracketed(depth, q):
    X = build_preset("cantor:1/3", depth)
    fam = build_cube_family(X, center_budget=12)
    om = Majorant.power(1.0, 3)
    for fv in (np.abs(X.points[:, 0] - 0.5), 3 * X.points[:, 0] ** 3):
        tol = 1e-12 * max(1.0, float(np.max(np.abs(fv))))
        for k in (1, 2, 3):
            _, values, lower, failed = _fit(fam.fit_plan(k), fv, q)
            assert not failed.any()
            assert np.all(lower <= values)
            assert np.all(values - lower <= tol)
            res = campanato_seminorm(fv, fam, k, q, om)
            assert res.lower <= res.value
    exact = campanato_seminorm(fv, fam, 2, 2, om)
    assert exact.lower == exact.value


def test_plan_is_kept_and_reapplied_bitwise():
    X = build_preset("cube:1", 7)
    fam = build_cube_family(X, center_budget=16)
    fv = np.abs(X.points[:, 0] - 0.3)
    built = fam.fit_plan(2).apply(fv)  # builds the plan
    assert fam.fit_plan(2) is fam.fit_plan(2)
    again = fam.fit_plan(2).apply(fv)  # applies the kept plan
    fresh = FitPlan(X, fam.cubes, 2).apply(fv)
    for a, b, c in zip(built, again, fresh):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    # a one-cube fit gives each family cube's value bit for bit
    for j in (0, 5, len(fam.cubes) - 1):
        assert local_best_approx(fv, X, fam.cubes[j], 2, 2).value == \
            built[1][j]


def test_family_is_frozen():
    fam = build_cube_family(build_preset("cube:1", 5), center_budget=4)
    assert isinstance(fam.cubes, tuple)
    with pytest.raises(AttributeError):
        fam.cubes = ()


@pytest.mark.parametrize("q", [1, INF])
def test_lp_failure_is_flagged(monkeypatch, q):
    X = build_preset("cube:1", 6)
    Q = Cube((0.5,), 0.5)
    fv = np.abs(X.points[:, 0] - 0.3)
    assert not local_best_approx(fv, X, Q, 2, q).fallback
    l2 = local_best_approx(fv, X, Q, 2, 2)
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **kw: SimpleNamespace(success=False))
    res = local_best_approx(fv, X, Q, 2, q)
    assert res.fallback
    assert np.array_equal(res.coefs, l2.coefs)
    inside = X.points[Q.contains(X.points)]
    resid = fv[Q.contains(X.points)] - monomials(
        (inside - np.array(Q.center)) / Q.radius, 1) @ l2.coefs
    w = X.masses[Q.contains(X.points)]
    w = w / w.sum()
    want = (np.max(np.abs(resid)) if q == INF
            else float(np.sum(w * np.abs(resid))))
    assert res.value == pytest.approx(want, rel=1e-9)
    # the seminorm falls back set by set, to the same values
    fam = build_cube_family(X, center_budget=4)
    om = Majorant.power(1.0, 2)
    res = campanato_seminorm(fv, fam, 2, q, om)
    assert res.ratios.tolist() == [local_best_approx(fv, X, Qc, 2, q).value
                                   / om(Qc.radius) for Qc in fam.cubes]
    assert res.fallbacks == len(fam.fit_plan(2).starts)
    assert res.lower <= res.value


@pytest.mark.parametrize("q", [1, INF])
def test_failed_block_is_solved_set_by_set(monkeypatch, q):
    X = build_preset("cantor:1/3", 6)
    fam = build_cube_family(X, center_budget=6)
    fv = 3 * X.points[:, 0] ** 3 - X.points[:, 0]
    om = Majorant.power(1.0, 2)
    solve = linprog  # _fit imports scipy.optimize.linprog on each solve

    def one_set_only(*args, A_eq, **kwargs):  # k = 2 on a line: 2 rows a set
        if A_eq.shape[0] > 2:
            return SimpleNamespace(success=False)
        return solve(*args, A_eq=A_eq, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", one_set_only)
    res = campanato_seminorm(fv, fam, 2, q, om)
    assert res.fallbacks == 0
    assert res.ratios.tolist() == [local_best_approx(fv, X, Qc, 2, q).value
                                   / om(Qc.radius) for Qc in fam.cubes]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("q", [1, 2, INF])
def test_non_finite_datum_sinks_only_its_sets(q, bad):
    X = build_preset("cantor:1/3", 6)
    fam = build_cube_family(X, center_budget=8)
    om = Majorant.power(1.0, 2)
    fv = np.abs(X.points[:, 0] - 0.5)
    clean = campanato_seminorm(fv, fam, 2, q, om)
    fv[3] = bad
    res = campanato_seminorm(fv, fam, 2, q, om)
    holds = np.array([Q.contains(X.points[3:4])[0] for Q in fam.cubes])
    assert holds.any() and not holds.all()
    assert np.isnan(res.ratios[holds]).all()
    assert np.isnan(res.value) and np.isnan(res.lower)
    assert res.witness == fam.cubes[int(np.flatnonzero(holds)[0])]
    # the other sets keep their values (bit for bit at q = 2)
    tol = 0.0 if q == 2 else 1e-12
    assert np.max(np.abs(res.ratios[~holds] - clean.ratios[~holds])) <= tol
    coefs, values, lower, _ = _fit(fam.fit_plan(2), fv, q)
    assert np.isnan(coefs[holds]).all() and np.isfinite(coefs[~holds]).all()
    assert np.isnan(lower[holds]).all() and np.isfinite(lower[~holds]).all()
    coefs, values = fam.fit_plan(2).apply(fv)
    assert np.isnan(coefs[holds]).all() and np.isnan(values[holds]).all()
    assert np.isfinite(values[~holds]).all()


# -- seminorm -----------------------------------------------------------------


def test_seminorm_vanishes_on_polynomials():
    X = build_preset("cube:1", 7)
    fam = build_cube_family(X, center_budget=32)
    P = Polynomial.from_dict(1, {(1,): 2.0})
    fv = np.real(P.eval_many(X.points))
    om = Majorant.power(1.0, 2)
    assert campanato_seminorm(fv, fam, 2, 2, om).value <= 1e-9


def test_seminorm_invariant_under_polynomial_shift():
    X = build_preset("cube:1", 7)
    fam = build_cube_family(X, center_budget=32)
    om = Majorant.power(1.0, 2)
    fv = np.abs(X.points[:, 0] - 0.5)
    P = Polynomial.from_dict(1, {(0,): 0.7, (1,): -0.4})
    shifted = fv + np.real(P.eval_many(X.points))
    a = campanato_seminorm(fv, fam, 2, 2, om).value
    b = campanato_seminorm(shifted, fam, 2, 2, om).value
    assert b == pytest.approx(a, rel=1e-9)


def test_seminorm_keeps_a_nan_ratio():
    X = build_preset("cantor:1/3", 6)
    fam = build_cube_family(X, center_budget=8)
    fv = np.abs(X.points[:, 0] - 0.5)
    fv[3] = np.nan
    res = campanato_seminorm(fv, fam, 2, 2, Majorant.power(1.0, 2))
    assert math.isnan(res.value)
    first_nan = int(np.flatnonzero(np.isnan(res.ratios))[0])
    assert res.witness == fam.cubes[first_nan]


def test_negative_order_raises():
    X = three_point_set()
    with pytest.raises(ValueError):
        local_best_approx(np.zeros(3), X, Cube((0.0,), 1.0), -1, 2)


def test_negative_order_rejected_by_the_seminorm_and_the_plan():
    X = build_preset("cantor:1/3", 6)
    fam = build_cube_family(X, center_budget=8)
    fv = X.points[:, 0] ** 2
    with pytest.raises(ValueError, match="k non-negative") as lba:
        local_best_approx(fv, X, fam.cubes[0], -1, 2)
    for q in (1, 2, INF):
        with pytest.raises(ValueError) as err:
            campanato_seminorm(fv, fam, -1, q, Majorant.power(1.0, 1))
        assert str(err.value) == str(lba.value)
    for build in (lambda: fam.fit_plan(-1), lambda: FitPlan(X, fam.cubes, -1)):
        with pytest.raises(ValueError, match="k non-negative"):
            build()


def test_empty_family_rejected_by_the_plan():
    X = build_preset("cantor:1/3", 5)
    with pytest.raises(ValueError, match="empty cube family"):
        CubeFamily(X, ()).fit_plan(1)


def test_seminorm_stable_under_density_doubling(monkeypatch):
    X = build_preset("cube:1", 9)
    om = Majorant.power(1.0, 2)
    fv = np.abs(X.points[:, 0] - 0.5)
    monkeypatch.setattr(campanato, "FAMILY_SEED", 2)
    sparse = build_cube_family(X, center_budget=256)
    dense = build_cube_family(X)  # all 512 centers
    a = campanato_seminorm(fv, sparse, 2, 2, om).value
    b = campanato_seminorm(fv, dense, 2, 2, om).value
    assert b >= a - 1e-12  # sampled sup is a lower bound
    assert abs(b - a) / b < 0.2


# -- majorants ----------------------------------------------------------------


def test_quasipower_power_closed_form():
    for lam in (0.25, 0.5, 1.0):
        rep = quasipower_check(Majorant.power(lam, 2))
        assert rep.is_quasipower
        assert rep.C_omega == pytest.approx(1.0 / lam, abs=1e-12)


def test_constant_majorant_rejected():
    rep = quasipower_check(Majorant.const(1.0, 1))
    assert not rep.is_quasipower
    assert "omega(+0)" in rep.reason


def test_supercritical_power_rejected():
    rep = quasipower_check(Majorant.power(2.5, 2))
    assert not rep.is_quasipower
    assert "increasing" in rep.reason


def test_majorant_from_id():
    om = Majorant.from_id("power:0.5", 3)
    assert om.kind == "power" and om.param == 0.5 and om.k == 3
    assert Majorant.from_id("const:1", 1).kind == "constant"
    with pytest.raises(KeyError):
        Majorant.from_id("weird:2", 1)


def test_majorant_sum_identity_example():
    lhs, rhs, ratio = majorant_sum_check(Majorant.power(1.0, 1), -10, 0)
    assert rhs == 1.0
    assert lhs < 2.0
    assert ratio < 2.0


def test_majorant_sum_adjacent_rungs():
    lhs, rhs, ratio = majorant_sum_check(Majorant.power(1.0, 1), 3, 4)
    assert ratio <= 2.0


def test_majorant_sum_sqrt_limit():
    # geometric series with ratio 2^{-1/2}: 1 / (1 - 2^{-1/2}) ~ 3.414
    _, _, ratio = majorant_sum_check(Majorant.power(0.5, 1), -60, 0)
    assert ratio == pytest.approx(1.0 / (1.0 - 2.0 ** -0.5), rel=1e-6)


def test_majorant_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        majorant_sum_check(Majorant.const(1.0, 1), -5, 0)
    with pytest.raises(ValueError):
        majorant_sum_check(Majorant.power(1.0, 1), 3, 3)


def test_majorant_sum_cap_enforced():
    for lam in (0.25, 0.5, 1.0):
        for k in range(1, 5):
            if lam > k:
                continue
            om = Majorant.power(lam, k)
            cap = 2.0 ** k / lam / math.log(2.0)
            _, _, ratio = majorant_sum_check(om, -30, 0)
            assert ratio <= cap * (1 + 1e-6)


# -- Lipschitz seminorm ---------------------------------------------------------


def lipschitz_at(budget, *args, **kwargs):
    """lipschitz_seminorm with LIPSCHITZ_BUDGET set to budget."""
    with mock.patch.object(campanato, "LIPSCHITZ_BUDGET", budget):
        return lipschitz_seminorm(*args, **kwargs)


def test_lipschitz_vanishes_on_low_degree():
    P = Polynomial.from_dict(1, {(0,): 1.0, (1,): -2.0})
    g = lambda pts: np.real(P.eval_many(pts))
    om = Majorant.power(1.0, 2)
    est = lipschitz_at(2 ** 10, g, 2, om,
                       (np.array([-1.0]), np.array([1.0])), 4.0, 0.5)
    assert est.value <= 1e-9


def test_lipschitz_identity():
    g = lambda pts: pts[:, 0]
    om = Majorant.power(1.0, 1)
    est = lipschitz_at(2 ** 10, g, 1, om,
                       (np.array([-1.0]), np.array([1.0])), 4.0, 1.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_lipschitz_square():
    g = lambda pts: pts[:, 0] ** 2
    om = Majorant.power(2.0, 2)
    est = lipschitz_at(2 ** 11, g, 2, om,
                       (np.array([-1.0]), np.array([1.0])), 4.0, 0.5)
    assert est.value == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("n", [3, 4])
def test_lipschitz_probe_directions_are_finite(n):
    # Sobol row 1 is (1/2, ..., 1/2): its normal quantiles are all zero
    seen = []

    def g(pts):
        seen.append(pts.copy())
        return pts.sum(axis=1)

    box = (np.zeros(n), np.ones(n))
    est = lipschitz_at(64, g, 1, Majorant.power(1.0, 1), box, 4.0, 1e-9)
    assert all(np.all(np.isfinite(pts)) for pts in seen)
    # with steps this short, only base points on the boundary are dropped;
    # the first call of g receives the kept base points
    u = sobol_unit(2 * n + 1, 64)[:, :n]
    assert len(seen[0]) == np.sum(np.all((u > 0) & (u < 1), axis=1))
    assert est.value <= math.sqrt(n) * (1.0 + 1e-6)


def test_lipschitz_rejects_a_box_no_probe_fits():
    # one decade below h_max = 10: every step is longer than [0, 1]
    with pytest.raises(ValueError, match="no probe"):
        lipschitz_at(4, lambda pts: pts[:, 0], 1, Majorant.power(1.0, 1),
                     (np.array([0.0]), np.array([1.0])), h_decades=1.0,
                     h_max=10.0)


def test_lipschitz_monotone_in_budget():
    g = lambda pts: np.abs(pts[:, 0])
    om = Majorant.power(1.0, 1)
    box = (np.array([-1.0]), np.array([1.0]))
    vals = [lipschitz_at(2 ** b, g, 1, om, box, 4.0, 1.0).value
            for b in (8, 10, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_trace_seminorm_controlled_by_lipschitz():
    # the easy direction: restriction to X never inflates smoothness;
    # the constant is recorded, only finiteness is asserted
    X = build_preset("cube:1", 9)
    Y = FractalSet(points=X.points * 2.0 - 1.0, masses=X.masses * 2.0,
                   s=1.0, diam=2.0, cell_diam=X.cell_diam * 2,
                   total_mass=2.0)
    fam = build_cube_family(Y, center_budget=128)
    om = Majorant.power(1.0, 2)
    box = (np.array([-1.0]), np.array([1.0]))
    suite = [
        (np.abs(Y.points[:, 0]), lambda pts: np.abs(pts[:, 0])),
        (Y.points[:, 0] ** 2, lambda pts: pts[:, 0] ** 2),
        (np.sin(math.pi * Y.points[:, 0]),
         lambda pts: np.sin(math.pi * pts[:, 0])),
    ]
    recorded = []
    for fv, g in suite:
        trace = campanato_seminorm(fv, fam, 2, 2, om).value
        lip = lipschitz_seminorm(g, 2, om, box, 4.0, 0.5).value
        assert np.isfinite(trace) and np.isfinite(lip) and lip > 0
        recorded.append(trace / lip)
    assert all(np.isfinite(c) for c in recorded)
