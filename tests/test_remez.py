import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_remez import fractals, remez
from fractal_remez.fractals import FractalSet, build_preset, transform
from fractal_remez.geometry import Ball, Cube, golden_section_max
from fractal_remez.polynomials import Polynomial, chebyshev
from fractal_remez.remez import (REFINE_SWEEPS, _refine_coordinates,
                                 bg_bound, bmo_oscillation, empirical_remez,
                                 markov_check, reverse_holder, simple_bound,
                                 sup_norm)

INF = math.inf


# -- bounds -------------------------------------------------------------------


def test_bg_bound_k0():
    for n in (1, 2, 3):
        for lam in (0.1, 0.5, 1.0):
            assert bg_bound(n, 0, lam) == 1.0


def test_bg_bound_example():
    # beta = 1/2, (1+beta)/(1-beta) = 3, T_1(3) = 3
    assert bg_bound(1, 1, 0.5) == pytest.approx(3.0, rel=1e-12)


def test_bg_bound_full_measure():
    for k in (1, 4, 8):
        assert bg_bound(1, k, 1.0) == 1.0


def test_bg_bound_rejects_bad_lambda():
    with pytest.raises(ValueError):
        bg_bound(1, 2, 0.0)
    with pytest.raises(ValueError):
        bg_bound(1, 2, -0.1)


def test_simple_bound_examples():
    assert simple_bound(1, 0, 0.3) == 1.0
    assert simple_bound(2, 3, 0.5) == pytest.approx(4096.0)
    assert simple_bound(1, 5, 1.0) == pytest.approx(4.0 ** 5)


@given(st.integers(1, 3), st.integers(1, 8), st.floats(0.01, 1.0))
@settings(max_examples=200)
def test_bg_below_simple(n, k, lam):
    assert bg_bound(n, k, lam) <= simple_bound(n, k, lam) * (1 + 1e-12)


def test_bg_monotone_in_lambda_and_k():
    lams = np.linspace(0.05, 1.0, 40)
    for n in (1, 2):
        for k in (1, 3, 6):
            vals = [bg_bound(n, k, la) for la in lams]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for lam in (0.2, 0.7):
            by_k = [bg_bound(n, k, lam) for k in range(0, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(by_k, by_k[1:]))


# -- sup norms ----------------------------------------------------------------


def test_sup_norm_constant():
    c = Polynomial.constant(-3.5, 2)
    assert sup_norm(c, Ball((0.0, 0.0), 1.0)) == pytest.approx(3.5, abs=1e-12)
    X = build_preset("cantor:1/3", 5)
    assert sup_norm(Polynomial.constant(2.0, 1), X) == 2.0


@pytest.mark.parametrize("n", [3, 4])
def test_ball_sample_finite_and_inside(n):
    # the first sample row comes from the all-1/2 Sobol point
    ball = Ball(tuple(0.25 * np.arange(n)), 2.0)
    pts = ball.sample(256)
    assert np.all(np.isfinite(pts))
    dist = np.linalg.norm(pts - np.asarray(ball.center), axis=1)
    assert np.all(dist <= ball.radius * (1.0 + 1e-12))


def test_sup_norm_on_3d_ball_is_finite():
    p = Polynomial.random(np.random.default_rng(3), 3, 3)
    center = (0.5, 0.0, -0.25)
    val = sup_norm(p, Ball(center, 1.0))
    assert math.isfinite(val)
    assert val >= abs(p.eval_many(np.array([center]))[0])


def test_sup_norm_chebyshev_equioscillation():
    val = sup_norm(chebyshev(4), Ball((0.0,), 1.0))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_sup_norm_radial_on_ball():
    p = Polynomial.from_dict(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert sup_norm(p, Ball((0.0, 0.0), 1.0)) == pytest.approx(1.0, abs=1e-6)


def test_sup_norm_monotone_in_budget():
    p = Polynomial.random(np.random.default_rng(0), 2, 5)
    dom = Ball((0.2, -0.1), 1.3)
    vals = [sup_norm(p, dom, budget=2 ** b) for b in (7, 9, 11, 13)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_sup_norm_on_cube_domain():
    p = chebyshev(3)
    assert sup_norm(p, Cube((0.5,), 0.5)) == pytest.approx(1.0, abs=1e-9)


def _segment_reference(domain, x, i):
    """Scalar chord of the domain through x along axis i."""
    c = np.asarray(domain.center)
    if isinstance(domain, Cube):
        return c[i] - domain.radius, c[i] + domain.radius
    rest = np.delete(x - c, i)
    slack = domain.radius ** 2 - float(rest @ rest)
    if slack <= 0.0:
        return float(x[i]), float(x[i])
    w = math.sqrt(slack)
    return c[i] - w, c[i] + w


def _refine_reference(p, domain, x, sweeps=REFINE_SWEEPS):
    """The ascent one start and one trial point at a time."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x = x.copy()
    best = abs(p.eval_many(x[None])[0])
    for _ in range(sweeps):
        for i in range(domain.dim):
            a, b = _segment_reference(domain, x, i)
            if b <= a:
                continue
            for _ in range(24):
                c = b - invphi * (b - a)
                d = a + invphi * (b - a)
                xc, xd = x.copy(), x.copy()
                xc[i], xd[i] = c, d
                fc, fd = p.eval_many(xc[None])[0], p.eval_many(xd[None])[0]
                if abs(fc) > abs(fd):
                    b = d
                else:
                    a = c
            xm = x.copy()
            xm[i] = 0.5 * (a + b)
            v = abs(p.eval_many(xm[None])[0])
            if v > best:
                best, x = v, xm
    return best


def _eval_rowwise(p, points):
    """Polynomial.eval_many with one dot product per point."""
    monomials = np.power(points[:, None, :], p.exponents).prod(axis=2)
    return np.array([row @ p.coeffs for row in monomials])


@given(st.integers(1, 3), st.integers(0, 6), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_batched_ascent_matches_scalar_reference(n, deg, ball, seed):
    # BLAS may round a point's value differently in a 1-row and a 16-row
    # product.  On a ball's sphere the ascent can stall short of the max,
    # and a 1-ulp flip of one comparison then leaves a start at another
    # stall point (seen 7.7e-11 relative apart on a 3-D ball).  Evaluating
    # point by point takes the rounding out, so any difference left is
    # the batching.
    rng = np.random.default_rng(seed)
    p = Polynomial.random(rng, n, deg)
    # eighths keep the axis extremes exact: on a ball their chords along
    # the other axes are empty (b <= a), so those starts stay put there
    domain = (Ball if ball else Cube)(tuple(rng.integers(-8, 9, n) / 8),
                                      int(rng.integers(2, 17)) / 8)
    dirs = rng.normal(size=(6, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # then interior points and points on the sphere
    scale = domain.radius * np.concatenate([rng.uniform(0, 1, 3), np.ones(3)])
    starts = np.vstack([domain.axis_extremes(), np.asarray(domain.center)
                        + scale[:, None] * dirs])
    with mock.patch.object(Polynomial, "eval_many", _eval_rowwise), \
            mock.patch.object(remez, "REFINE_SWEEPS", 6):
        got = _refine_coordinates(p, domain, starts)
        want = np.array([_refine_reference(p, domain, x, sweeps=6)
                         for x in starts])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def _refine_all_sweeps(p, domain, X):
    """The ascent that always runs all REFINE_SWEEPS sweeps, reading
    golden_section_max off `remez` so that _golden_calls counts it."""
    X = np.array(X, dtype=float)
    best = np.abs(p.eval_many(X))
    for _ in range(REFINE_SWEEPS):
        for i in range(domain.dim):
            a, b = domain.coordinate_segments(X, i)
            rows = np.flatnonzero(b > a)
            if len(rows) == 0:
                continue
            trial = np.tile(X[rows], (2, 1))

            def abs_p(t):
                trial[:, i] = t.ravel()
                return np.abs(p.eval_many(trial)).reshape(t.shape)

            mid = X[rows]
            mid[:, i] = remez.golden_section_max(
                abs_p, a[rows], b[rows], 24)
            v = np.abs(p.eval_many(mid))
            up = v > best[rows]
            best[rows[up]] = v[up]
            X[rows[up]] = mid[up]
    return best


def _golden_calls(fn, *args):
    """fn(*args) and the number of golden_section_max calls it made."""
    calls = []

    def counted(*a):
        calls.append(None)
        return golden_section_max(*a)

    with mock.patch.object(remez, "golden_section_max", counted):
        return fn(*args), len(calls)


def _assert_sup_norm_matches_all_sweeps(p, domain):
    got = sup_norm(p, domain)
    with mock.patch.object(remez, "_refine_coordinates", _refine_all_sweeps):
        want = sup_norm(p, domain)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _survey_remez_inputs(seed):
    """The polynomial and ball of each remez run in the benchmark's survey
    workload, drawn as perfbench/workloads.py and `fractal-remez run` do."""
    rng = np.random.default_rng(seed)
    for set_id, depth, k in (("cantor:1/3", 10, 4), ("dust2d:1/4", 5, 3),
                             ("cantor:1/3*cantor:1/3", 5, 3)):
        X = build_preset(set_id, depth)
        p = Polynomial.random(np.random.default_rng(
            int(rng.integers(0, 2 ** 31))), X.ambient_dim, k)
        lo, hi = X.points.min(axis=0), X.points.max(axis=0)
        radius = 0.5 * float(np.linalg.norm(hi - lo)) + 0.25 * X.diam
        yield p, Ball(tuple(0.5 * (lo + hi)), radius)


@pytest.mark.parametrize("seed", [101, 7])
def test_sup_norm_matches_all_sweeps_on_survey(seed):
    for p, V in _survey_remez_inputs(seed):
        _assert_sup_norm_matches_all_sweeps(p, V)


def test_sup_norm_matches_all_sweeps_on_criterion_6():
    rng = np.random.default_rng(21)
    polys = [Polynomial.random(rng, 1, 3) for _ in range(50)]
    polys += [chebyshev(3).compose_affine(2.0 * 3.0 ** j, -1.0)
              for j in range(5)]
    for p in polys:
        _assert_sup_norm_matches_all_sweeps(p, Ball((0.5,), 0.5))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("body", [Ball, Cube])
def test_sup_norm_matches_all_sweeps_on_random_polynomials(n, body):
    rng = np.random.default_rng(40 + n)
    for deg in range(7):
        p = Polynomial.random(rng, n, deg)
        domain = body(tuple(rng.uniform(-1.0, 1.0, n)), rng.uniform(0.2, 2.0))
        _assert_sup_norm_matches_all_sweeps(p, domain)


def test_sup_norm_matches_all_sweeps_on_a_long_ascent():
    # a degree-4 polynomial whose starts on the 3-D ball keep moving for
    # several sweeps (six here), along the sphere where the ascent stalls
    p = Polynomial.random(np.random.default_rng(38), 3, 4)
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    _, calls = _golden_calls(sup_norm, p, ball)
    assert calls > 2 * ball.dim
    _assert_sup_norm_matches_all_sweeps(p, ball)


def test_nan_polynomial_ends_the_ascent_after_one_sweep():
    p = Polynomial.from_dict(2, {(0, 0): math.nan, (1, 0): 1.0})
    val, calls = _golden_calls(sup_norm, p, Ball((0.0, 0.0), 1.0))
    assert math.isnan(val) and calls == 2
    _assert_sup_norm_matches_all_sweeps(p, Ball((0.0, 0.0), 1.0))


@pytest.mark.parametrize("p, domain, start, sweeps, searches", [
    # on the sphere, where |x|^2 is already largest: one confirming sweep
    (Polynomial.from_dict(2, {(2, 0): 1.0, (0, 2): 1.0}),
     Ball((0.0, 0.0), 1.0), (0.6, 0.8), 1, 2),
    # a ball's axis extreme: the other axes' chords are empty, and x_0 is
    # already largest along its own axis
    (Polynomial.from_dict(3, {(1, 0, 0): 1.0}),
     Ball((0.0, 0.0, 0.0), 1.0), (1.0, 0.0, 0.0), 1, 1),
    # from the center to the corner in one sweep, then one to confirm
    (Polynomial.from_dict(2, {(1, 0): 1.0, (0, 1): 1.0}),
     Cube((0.0, 0.0), 1.0), (0.0, 0.0), 2, 2),
    (chebyshev(3), Ball((0.0,), 1.0), (0.0,), 2, 1),
    (Polynomial.from_dict(3, {(1, 0, 0): 1.0, (0, 1, 1): 0.5}),
     Ball((0.0, 0.0, 0.0), 1.0), (0.0, 0.0, 0.0), 2, 3),
], ids=["sphere", "axis-extreme", "cube-corner", "chebyshev", "ball-center"])
def test_ascent_stops_one_sweep_after_its_fixed_point(p, domain, start,
                                                      sweeps, searches):
    # searches: golden searches per sweep, one per axis with a chord
    X = np.array([start])
    got, calls = _golden_calls(_refine_coordinates, p, domain, X)
    want, all_calls = _golden_calls(_refine_all_sweeps, p, domain, X)
    assert calls == sweeps * searches
    assert all_calls == REFINE_SWEEPS * searches
    assert got.tobytes() == want.tobytes()


# -- empirical comparison -----------------------------------------------------


def test_empirical_constant_polynomial():
    X = build_preset("cantor:1/3", 6)
    V = Ball((0.5,), 0.5)
    one = Polynomial.constant(1.0, 1)
    for q in (1, 2, INF):
        for r in (1, 2, INF):
            rep = empirical_remez(one, V, X, q, r)
            assert rep.empirical_ratio == pytest.approx(1.0, rel=1e-9)


def test_empirical_extremal_matches_sharp_bound():
    eps = 0.25
    base = build_preset("cube:1", 11)
    omega = transform(base, 2.0 - eps, [-1.0])
    p = chebyshev(4).compose_affine(2.0 / (2.0 - eps), eps / (2.0 - eps))
    rep = empirical_remez(p, Ball((0.0,), 1.0), omega, INF, INF)
    assert rep.bound_bg == pytest.approx(bg_bound(1, 4, (2 - eps) / 2),
                                         rel=1e-12)
    assert rep.empirical_ratio == pytest.approx(rep.bound_bg, rel=0.01)


def test_empirical_scale_invariance():
    X = build_preset("cantor:1/3", 7)
    V = Ball((0.5,), 0.6)
    p = Polynomial.random(np.random.default_rng(1), 1, 3)
    r1 = empirical_remez(p, V, X, INF, INF).empirical_ratio
    r2 = empirical_remez(17.0 * p, V, X, INF, INF).empirical_ratio
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_empirical_translation_dilation_invariance():
    X = build_preset("cantor:1/3", 7)
    V = Ball((0.5,), 0.6)
    p = Polynomial.random(np.random.default_rng(2), 1, 3)
    sigma, t = 2.5, -1.75
    Xs = transform(X, sigma, [t])
    Vs = Ball((sigma * 0.5 + t,), sigma * 0.6)
    ps = p.compose_affine(1.0 / sigma, -t / sigma)
    r1 = empirical_remez(p, V, X, INF, INF)
    r2 = empirical_remez(ps, Vs, Xs, INF, INF)
    assert r2.empirical_ratio == pytest.approx(r1.empirical_ratio, rel=1e-9)
    assert r2.lam == pytest.approx(r1.lam, rel=1e-9)


def test_empirical_flags_vanishing_polynomial():
    pts = np.array([[0.0], [1.0]])
    X = FractalSet(points=pts, masses=np.ones(2) / 2, s=1.0, diam=1.0,
                   cell_diam=0.1, total_mass=1.0)
    p = Polynomial.from_dict(1, {(1,): 1.0, (2,): -1.0})  # x(1 - x)
    rep = empirical_remez(p, Ball((0.5,), 0.6), X, INF, INF)
    assert rep.hypothesis_violated
    assert rep.empirical_ratio == math.inf


def test_empirical_requires_containment():
    X = build_preset("cantor:1/3", 5)
    with pytest.raises(ValueError):
        empirical_remez(Polynomial.constant(1.0, 1), Ball((0.0,), 0.25), X,
                        INF, INF)


def test_empirical_full_measure_respects_power_bound():
    # the Lebesgue case s = n: measured sup ratios never exceed (4n/lam)^k
    omega = build_preset("cube:1", 10)  # [0, 1] with H_1 mass = length
    V = Ball((0.0,), 1.5)  # lam = 1 / 3
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = Polynomial.random(rng, 1, 3)
        rep = empirical_remez(p, V, omega, INF, INF)
        assert rep.lam == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rep.empirical_ratio <= rep.bound_simple * (1 + 1e-9)
        assert rep.empirical_ratio <= rep.bound_bg * (1 + 1e-6)


def test_empirical_integral_exponents_run():
    X = build_preset("cantor:1/3", 6)
    V = Ball((0.5,), 0.5)
    p = Polynomial.random(np.random.default_rng(3), 1, 2)
    for q, r in ((1, 2), (2, 2), (2, INF)):
        rep = empirical_remez(p, V, X, q, r)
        assert rep.empirical_ratio > 0.0
        assert rep.bound_bg is None or (q is INF and r is INF)


# -- gradient ratio -----------------------------------------------------------


def test_markov_constant_polynomial():
    X = build_preset("cube:1", 8)
    assert markov_check(Polynomial.constant(5.0, 1), X, [0.5], 0.25) == 0.0


def test_markov_identity_function():
    # cloud representatives stop at 1 - 2^-depth, so allow that gap
    X = build_preset("cube:1", 10)
    p = Polynomial.variable()
    c = markov_check(p, X, [0.0], 1.0)
    assert c == pytest.approx(1.0, rel=2.0 ** -10 * 1.5)


def test_markov_chebyshev_classical_constant():
    # on [-1, 1] with the ball of radius 1 at 0: c <= 2 k^2 + tolerance
    X = transform(build_preset("cube:1", 11), 2.0, [-1.0])
    for k in (2, 3, 5):
        c = markov_check(chebyshev(k), X, [0.0], 1.0)
        assert c <= 2 * k ** 2 + 0.1
        assert c == pytest.approx(k ** 2, rel=0.05)


def test_markov_zero_division():
    pts = np.array([[0.0], [1.0]])
    X = FractalSet(points=pts, masses=np.ones(2) / 2, s=1.0, diam=1.0,
                   cell_diam=0.1, total_mass=1.0)
    p = Polynomial.from_dict(1, {(1,): 1.0, (2,): -1.0})
    with pytest.raises(ZeroDivisionError):
        markov_check(p, X, [0.0], 1.0)


def test_markov_empty_ball():
    X = build_preset("cantor:1/3", 5)
    with pytest.raises(ValueError):
        markov_check(Polynomial.variable(), X, [0.5], 2.0)


# -- BMO and reverse Holder ---------------------------------------------------


def test_bmo_constant_polynomial_zero():
    X = build_preset("cantor:1/3", 7)
    p = Polynomial.constant(3.0 + 0.0j, 1)
    centers = X.points[np.random.default_rng(0).integers(0, X.size, 8)]
    rep = bmo_oscillation(p, X, [0.5, 1.0], centers=centers)
    assert rep.max_oscillation == pytest.approx(0.0, abs=1e-12)


def test_bmo_scaling_invariance():
    X = build_preset("cantor:1/3", 7)
    z = Polynomial(1, 1, np.array([0.0 + 0j, 1.0 + 0j]))
    centers = X.points[:16]
    r1 = bmo_oscillation(z, X, [0.3, 1.0], centers=centers)
    r2 = bmo_oscillation(2.0 * z, X, [0.3, 1.0], centers=centers)
    assert r2.max_oscillation == pytest.approx(r1.max_oscillation, abs=1e-12)


def test_bmo_excludes_zero_of_p():
    X = build_preset("cantor:1/3", 6)
    z = Polynomial(1, 1, np.array([0.0 + 0j, 1.0 + 0j]))
    rep = bmo_oscillation(z, X, [1.5], centers=X.points[:4])
    # the origin is a cloud point where ln|z| = -inf; every ball holds the
    # whole cloud, so the oscillation is that of ln x over the rest
    logs = np.log(X.points[X.points[:, 0] != 0.0, 0])
    assert len(logs) == X.size - 1
    want = np.mean(np.abs(logs - np.mean(logs)))
    assert rep.max_oscillation == pytest.approx(want, rel=1e-12)


def test_bmo_all_mass_excluded_raises():
    X = build_preset("cantor:1/3", 5)
    zero = Polynomial.constant(0.0 + 0.0j, 1)
    with pytest.raises(ValueError):
        bmo_oscillation(zero, X, [1.0], centers=X.points[:4])


def test_reverse_holder_constant():
    X = build_preset("cantor:1/3", 6)
    c = Polynomial.constant(2.0, 1)
    for l in (2, 4, INF):
        assert reverse_holder(c, X, [0.0], 2.0, l) == pytest.approx(1.0,
                                                                    rel=1e-12)


def test_reverse_holder_identity_on_whole_set():
    z = Polynomial(1, 1, np.array([0.0 + 0j, 1.0 + 0j]))
    vals = {}
    for depth in (8, 10):
        X = build_preset("cantor:1/3", depth)
        vals[depth] = reverse_holder(z, X, [0.0], 2.0, 2)
        assert vals[depth] < 10.0
    assert max(vals.values()) / min(vals.values()) < 2.0


def test_reverse_holder_at_least_one():
    X = build_preset("cantor:1/3", 7)
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = Polynomial.random(rng, 1, 3)
        val = reverse_holder(p, X, [0.5], 0.75, 2)
        assert val >= 1.0 - 1e-12


def test_reverse_holder_exponent_validation():
    X = build_preset("cantor:1/3", 5)
    with pytest.raises(ValueError):
        reverse_holder(Polynomial.constant(1.0, 1), X, [0.0], 1.0, 3)
