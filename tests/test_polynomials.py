import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_remez.polynomials import (Polynomial, chebyshev,
                                       compose_affine_many, exponent_array,
                                       finite_difference_many, monomials,
                                       multi_indices)


def test_eval_simple():
    p = Polynomial.from_dict(2, {(2, 0): 1.0, (0, 1): 1.0})  # x^2 + y
    assert p.eval_many((1.0, 2.0))[0] == 3.0


def test_eval_zero_polynomial():
    z = Polynomial(3, 0, np.zeros(1))
    for x in ([0.0, 0.0, 0.0], [1.0, -2.0, 7.0]):
        assert z.eval_many(x)[0] == 0.0


def test_eval_binomial_expansion_oracle():
    # (x + y)^3 expanded; oracle is the binomial theorem evaluated directly
    coeffs = {(j, 3 - j): float(math.comb(3, j)) for j in range(4)}
    p = Polynomial.from_dict(2, coeffs)
    x, y = 1.0, 1.0
    oracle = sum(math.comb(3, j) * x ** j * y ** (3 - j) for j in range(4))
    assert p.eval_many((x, y))[0] == pytest.approx(oracle, abs=1e-12)
    assert oracle == 8.0


def test_eval_dimension_mismatch():
    p = Polynomial.from_dict(2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        p.eval_many((1.0, 2.0, 3.0))


def test_multi_indices_graded_prefix():
    small = multi_indices(2, 2)
    big = multi_indices(2, 4)
    assert big[: len(small)] == small
    assert all(sum(a) <= 4 for a in big)


def test_exponent_array_is_shared_and_read_only():
    E = exponent_array(2, 3)
    assert E.tolist() == [list(a) for a in multi_indices(2, 3)]
    assert exponent_array(2, 3) is E
    assert Polynomial.random(np.random.default_rng(0), 2, 3).exponents is E
    with pytest.raises(ValueError):
        E[0, 0] = 1


_coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-4.0, 4.0))


@given(st.integers(1, 3), st.integers(0, 10), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_monomials_match_power_table(n, degree, complex_points, data):
    count = data.draw(st.integers(1, 5))
    size = count * n

    def coordinates():
        return np.array(data.draw(st.lists(_coordinate, min_size=size,
                                           max_size=size))).reshape(count, n)

    x = coordinates()
    if complex_points:
        x = x + 1j * coordinates()
    want = np.prod(np.power(x[:, None, :], exponent_array(n, degree)), axis=2)
    got = monomials(x, degree)
    assert got.shape == want.shape and got.dtype == want.dtype
    low = len(multi_indices(n, min(degree, 1)))
    assert np.array_equal(got[:, :low], want[:, :low])
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_monomials_rejects_flat_points():
    with pytest.raises(ValueError):
        monomials(np.zeros(3), 2)


def test_chebyshev_t0_constant():
    t0 = chebyshev(0)
    for x in (-2.0, 0.0, 5.0):
        assert t0.eval_many(np.array([x]))[0] == 1.0


def test_chebyshev_t3_at_2():
    # recurrence oracle: T_3(x) = 4x^3 - 3x
    assert chebyshev(3).eval_many(np.array([2.0]))[0] == pytest.approx(
        4 * 8 - 3 * 2, abs=1e-12)


def test_chebyshev_t4_root():
    # cos(4 * pi/8) = cos(pi/2) = 0
    val = chebyshev(4).eval_many(np.array([math.cos(math.pi / 8)]))[0]
    assert abs(val) < 1e-12


def test_chebyshev_trig_identity():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.0, math.pi, 200)
    for k in range(13):
        tk = chebyshev(k)
        vals = tk.eval_many(np.cos(thetas))
        assert np.max(np.abs(vals - np.cos(k * thetas))) < 1e-10


def test_gradient_power_rule():
    p = Polynomial.from_dict(2, {(2, 0): 1.0, (0, 2): 1.0})
    gx, gy = p.gradient()
    assert gx.eval_many((1.0, 1.0))[0] == 2.0
    assert gy.eval_many((1.0, 1.0))[0] == 2.0


def test_gradient_constant_is_zero():
    c = Polynomial.constant(7.0, 2)
    for g in c.gradient():
        assert np.all(g.coeffs == 0.0)


def test_gradient_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    expr = x ** 3 * y
    p = Polynomial.from_dict(2, {(3, 1): 1.0})
    pt = (2.0, 1.0)
    for i, v in enumerate((x, y)):
        expected = float(sympy.diff(expr, v).subs({x: pt[0], y: pt[1]}))
        assert p.partial(i).eval_many(pt)[0] == pytest.approx(expected,
                                                          abs=1e-12)
    assert p.partial(0).eval_many(pt)[0] == 12.0
    assert p.partial(1).eval_many(pt)[0] == 8.0


def test_gradient_matches_centered_differences():
    rng = np.random.default_rng(1)
    p = Polynomial.random(rng, 2, 4)
    grads = p.gradient()
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (p.eval_many(x + e)[0] - p.eval_many(x - e)[0]) / (2 * h)
            g = grads[i].eval_many(x)[0]
            assert fd == pytest.approx(g, rel=1e-5, abs=1e-7)


def test_finite_difference_annihilates_low_degree():
    rng = np.random.default_rng(2)
    for k in (1, 2, 3, 4):
        p = Polynomial.random(rng, 1, k - 1)
        scale = float(np.max(np.abs(p.coeffs))) + 1.0
        # the same draws, in the same order, as one point at a time
        x, h = np.array([(rng.uniform(-2, 2), rng.uniform(0.05, 1.0))
                         for _ in range(25)]).T[:, :, None]
        val = finite_difference_many(p.eval_many, k, x, h)
        assert np.all(np.abs(val) < 1e-9 * scale)


def test_finite_difference_square():
    # f(0) - 2 f(1) + f(2) = 0 - 2 + 4
    val = finite_difference_many(lambda pts: pts[:, 0] ** 2, 2,
                                 np.array([[0.0]]), np.array([[1.0]]))
    assert val[0] == pytest.approx(2.0, abs=1e-12)


def test_finite_difference_first_order():
    x, h = 0.3, 0.21
    val = finite_difference_many(lambda pts: np.sin(pts[:, 0]), 1,
                                 np.array([[x]]), np.array([[h]]))
    assert val[0] == pytest.approx(math.sin(x + h) - math.sin(x), abs=1e-14)


def test_multiplication_against_expansion():
    p = Polynomial.from_dict(1, {(0,): 1.0, (1,): 1.0})  # 1 + x
    cube = p * p * p
    assert multi_indices(1, cube.degree_bound) == ((0,), (1,), (2,), (3,))
    assert cube.coeffs.tolist() == [1.0, 3.0, 3.0, 1.0]
    for x in (-0.5, 0.3, 2.0):
        assert cube.eval_many(np.array([x]))[0] == pytest.approx((1 + x) ** 3,
                                                         rel=1e-12)


# The tuple loops that the column tables replace, kept as the reference:
# every product, partial and degree must match them bit for bit.


def _loop_product(p, q):
    d = p.degree_bound + q.degree_bound
    pos = {a: i for i, a in enumerate(multi_indices(p.num_vars, d))}
    out = np.zeros(len(pos), dtype=complex if (p.is_complex or q.is_complex)
                   else float)
    for a, ca in zip(multi_indices(p.num_vars, p.degree_bound), p.coeffs):
        if ca == 0:
            continue
        for b, cb in zip(multi_indices(q.num_vars, q.degree_bound), q.coeffs):
            if cb == 0:
                continue
            out[pos[tuple(ea + eb for ea, eb in zip(a, b))]] += ca * cb
    return out


def _loop_partial(p, i):
    d = max(p.degree_bound - 1, 0)
    pos = {a: j for j, a in enumerate(multi_indices(p.num_vars, d))}
    out = np.zeros(len(pos), dtype=p.coeffs.dtype)
    for a, c in zip(multi_indices(p.num_vars, p.degree_bound), p.coeffs):
        if c == 0 or a[i] == 0:
            continue
        out[pos[tuple(e - 1 if j == i else e for j, e in enumerate(a))]] += \
            c * a[i]
    return out


def _loop_degree(p):
    return max((sum(a) for a, c in zip(
        multi_indices(p.num_vars, p.degree_bound), p.coeffs) if c != 0),
        default=0)


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


_part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                  st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300))


def _draw_polynomial(data, n, complex_coeffs):
    degree = data.draw(st.integers(0, 6))
    m = len(multi_indices(n, degree))
    c = np.array(data.draw(st.lists(_part, min_size=m, max_size=m)))
    if complex_coeffs:
        c = c.astype(complex)
        c.imag = data.draw(st.lists(_part, min_size=m, max_size=m))
    return Polynomial(n, degree, c)


@given(st.integers(1, 3), st.booleans(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_product_partial_degree_match_tuple_loops(n, complex_p, complex_q,
                                                  data):
    p = _draw_polynomial(data, n, complex_p)
    q = _draw_polynomial(data, n, complex_q)
    assert _same_bits((p * q).coeffs, _loop_product(p, q))
    assert _same_bits((q * p).coeffs, _loop_product(q, p))
    for i in range(n):
        assert _same_bits(p.partial(i).coeffs, _loop_partial(p, i))
    for r in (p, q, p * q):
        assert r.degree() == _loop_degree(r)
        assert type(r.degree()) is int


def test_compose_affine():
    p = chebyshev(3)
    q = p.compose_affine(2.0, -1.0)  # T_3(2x - 1)
    for x in (0.0, 0.25, 0.8):
        assert q.eval_many(np.array([x]))[0] == pytest.approx(
            p.eval_many(np.array([2 * x - 1]))[0], rel=1e-12, abs=1e-12)


@given(st.integers(1, 3), st.integers(0, 6), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_compose_affine_many_matches_pointwise(n, deg, complex_coeffs, seed):
    rng = np.random.default_rng(seed)
    complex_coeffs = complex_coeffs and n == 1
    rows, count = 4, len(multi_indices(n, deg))
    coeffs = rng.uniform(-1, 1, (rows, count))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.uniform(-1, 1, (rows, count))
    scale = rng.uniform(-3, 3, (rows, n))
    offset = rng.uniform(-3, 3, (rows, n))
    out = compose_affine_many(coeffs, n, deg, scale, offset)
    assert np.iscomplexobj(out) == complex_coeffs
    x = rng.uniform(-2, 2, (5, n))
    exps = np.array(multi_indices(n, deg))
    for i in range(rows):
        y = scale[i] * x + offset[i]
        want = Polynomial(n, deg, coeffs[i]).eval_many(y)
        got = Polynomial(n, deg, out[i]).eval_many(x)
        # rounding is relative to the terms of the expansion, not to p
        bound = np.abs(scale[i] * x) + np.abs(offset[i])
        terms = np.prod(bound[:, None, :] ** exps[None], axis=2) @ np.abs(
            coeffs[i])
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + terms))


def test_compose_affine_keeps_degree_bound_and_kind():
    p = Polynomial(2, 2, np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
    assert p.compose_affine(2.0, 1.0).degree_bound == 2
    z = Polynomial(1, 1, np.array([1.0 + 1.0j, 2.0]))
    assert z.compose_affine(0.5, -1.0).is_complex


def test_immutability():
    p = Polynomial.constant(1.0)
    with pytest.raises(AttributeError):
        p.degree_bound = 5
    with pytest.raises(ValueError):
        p.coeffs[0] = 2.0
