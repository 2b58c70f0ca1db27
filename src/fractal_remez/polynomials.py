"""Dense multivariate polynomials with total-degree storage.

Carrier type for every polynomial quantity in the library: Chebyshev
polynomials T_k, gradients D^a p, and the k-th forward difference

    delta_h^k f(x) = sum_{j=0..k} (-1)^(k-j) C(k,j) f(x + j*h).

Coefficients are stored densely against the graded list of multi-indices
with |a| <= degree_bound; degrees stay small (<= ~12).  Real and complex
polynomials share the type; the scalar kind is the dtype of the
coefficient array (complex is used only for univariate polynomials here).

Which graded column holds the multi-index a is decided in one place, a
read-only dense table per (num_vars, degree) indexed by arrays of
exponents.  Products, partial derivatives, the monomial parents and the
affine re-expansion each read an index map from it, cached per shape.

Polynomials are evaluated through one kernel, `monomials(x, degree)`,
which builds the (N, m) table of every graded monomial at N points: the
constant and the linear columns are copied, and every column above them
is its parent column (one power of its last variable removed) times that
variable, one multiplication per column of degree >= 2, done one degree
block at a time.  `Polynomial.eval_many`, the design matrices of the
local fits, the Whitney assembly and the scale powers of
`compose_affine_many` all go through it.

All instances are immutable after construction and all operations are
pure; sharing across threads is safe.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "Polynomial",
    "multi_indices",
    "exponent_array",
    "chebyshev",
    "finite_difference_many",
    "compose_affine_many",
    "affine_matrices",
    "monomials",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, as every array kept in a cache here is."""
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def multi_indices(num_vars: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent multi-indices with |a| <= max_degree, graded-lex order.

    Graded order means the indices of degree <= d form a prefix of the
    list for any larger bound, which makes re-embedding coefficient
    arrays a zero-pad.
    """
    if num_vars < 1:
        raise ValueError("num_vars must be positive")
    # product() walks each block in lexicographic order
    return tuple(alpha for total in range(max_degree + 1)
                 for alpha in itertools.product(range(total + 1), repeat=num_vars)
                 if sum(alpha) == total)


@lru_cache(maxsize=None)
def exponent_array(num_vars: int, max_degree: int) -> np.ndarray:
    """multi_indices(num_vars, max_degree) as a read-only (m, n) int array,
    built once per (num_vars, max_degree) and shared by every caller."""
    return _frozen(np.array(multi_indices(num_vars, max_degree), dtype=int))


@lru_cache(maxsize=None)
def _column_table(num_vars: int, max_degree: int) -> np.ndarray:
    """Read-only dense table of (max_degree + 1)^num_vars entries: at an
    exponent tuple a, the graded column of a, or -1 if |a| > max_degree."""
    E = exponent_array(num_vars, max_degree)
    T = np.full((max_degree + 1,) * num_vars, -1, dtype=np.intp)
    T[tuple(E.T)] = np.arange(len(E))
    return _frozen(T)


def _columns(num_vars: int, max_degree: int, E: np.ndarray) -> np.ndarray:
    """Graded columns of the exponents along the last axis of E, read-only."""
    T = _column_table(num_vars, max_degree)
    return _frozen(T[tuple(np.moveaxis(E, -1, 0))])


def _as_slice(idx: np.ndarray):
    """idx as a slice when it is a run of consecutive columns, so that
    indexing with it gives a view; otherwise as it is."""
    if np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@lru_cache(maxsize=None)
def _monomial_parents(num_vars: int, degree: int) -> tuple:
    """Per degree d = 2..degree: the column slice of that degree block,
    and for each of its columns the column of its parent monomial and the
    column of the variable that multiplies it (the last variable with a
    positive exponent).  The degree-1 block holds x_{n-1}, ..., x_0."""
    E = exponent_array(num_vars, degree)
    last = num_vars - 1 - np.argmax(E[:, ::-1] > 0, axis=1)
    # clipped at zero for the constant, which has no parent
    parents = _columns(num_vars, degree,
                       np.maximum(E - np.eye(num_vars, dtype=int)[last], 0))
    factors = _frozen(num_vars - last)
    stops = np.searchsorted(E.sum(axis=1), np.arange(degree + 1),
                            side="right").tolist()
    return tuple((slice(a, b), _as_slice(parents[a:b]), _as_slice(factors[a:b]))
                 for a, b in zip(stops[1:-1], stops[2:]))


def monomials(x, degree: int) -> np.ndarray:
    """The (N, m) table of the graded monomials |a| <= degree at the rows
    of x, an (N, n) array of real or complex points.

    Columns follow multi_indices(n, degree).  The table is built one
    degree block at a time, one multiplication per column of degree >= 2,
    and returned as the transposed view of an (m, N) array.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"points must be an (N, n) array, got shape {x.shape}")
    num_points, n = x.shape
    table = np.empty((len(multi_indices(n, degree)), num_points),
                     dtype=complex if x.dtype.kind == "c" else float)
    table[0] = 1.0
    if degree >= 1:
        table[1:n + 1] = x.T[::-1]
    for cols, parents, factors in _monomial_parents(n, degree):
        np.multiply(table[parents], table[factors], out=table[cols])
    return table.T


class Polynomial:
    """Immutable dense polynomial sum_a c_a x^a with |a| <= degree_bound."""

    __slots__ = ("num_vars", "degree_bound", "coeffs")

    def __init__(self, num_vars: int, degree_bound: int, coeffs):
        if num_vars < 1:
            raise ValueError("num_vars must be positive")
        if degree_bound < 0:
            raise ValueError("degree_bound must be non-negative")
        idx = multi_indices(num_vars, degree_bound)
        if isinstance(coeffs, dict):
            arr = np.zeros(len(idx), dtype=complex)
            table = _column_table(num_vars, degree_bound)
            for alpha, c in coeffs.items():
                alpha = tuple(int(e) for e in alpha)
                if len(alpha) != num_vars:
                    raise ValueError(f"multi-index {alpha} has wrong arity")
                if any(e < 0 for e in alpha) or sum(alpha) > degree_bound:
                    raise ValueError(f"multi-index {alpha} outside degree bound")
                arr[table[alpha]] += c
            if np.all(arr.imag == 0.0):
                arr = arr.real.copy()
        else:
            arr = np.asarray(coeffs)
            if arr.shape != (len(idx),):
                raise ValueError(
                    f"expected {len(idx)} coefficients for n={num_vars}, "
                    f"degree<={degree_bound}, got shape {arr.shape}"
                )
            arr = arr.astype(complex if np.iscomplexobj(arr) else float)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "coeffs", arr)
        arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, num_vars: int = 1) -> "Polynomial":
        return cls(num_vars, 0, {(0,) * num_vars: value})

    @classmethod
    def variable(cls) -> "Polynomial":
        """The univariate polynomial x."""
        return cls(1, 1, {(1,): 1.0})

    @classmethod
    def from_dict(cls, num_vars: int, coeffs: dict) -> "Polynomial":
        deg = max((sum(a) for a in coeffs), default=0)
        return cls(num_vars, deg, coeffs)

    @classmethod
    def random(cls, rng, num_vars: int, degree: int) -> "Polynomial":
        m = len(multi_indices(num_vars, degree))
        return cls(num_vars, degree, rng.uniform(-1.0, 1.0, size=m))

    # -- views --------------------------------------------------------

    @property
    def exponents(self) -> np.ndarray:
        return exponent_array(self.num_vars, self.degree_bound)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.coeffs)

    def degree(self) -> int:
        """Actual total degree (0 for the zero polynomial)."""
        return int(self.exponents.sum(axis=1)[self.coeffs != 0].max(initial=0))

    # -- evaluation ---------------------------------------------------

    def eval_many(self, points) -> np.ndarray:
        """Evaluate at an (N, n) array of points (or (N,) when n == 1)."""
        x = np.asarray(points)
        if self.num_vars == 1 and x.ndim == 1:
            x = x[:, None]
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.num_vars:
            raise ValueError(
                f"points have dimension {x.shape[1]}, polynomial has "
                f"{self.num_vars} variables"
            )
        return monomials(x, self.degree_bound) @ self.coeffs

    # -- arithmetic ---------------------------------------------------

    def _embedded(self, degree_bound: int) -> np.ndarray:
        m = len(multi_indices(self.num_vars, degree_bound))
        out = np.zeros(m, dtype=self.coeffs.dtype)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        d = max(self.degree_bound, other.degree_bound)
        return Polynomial(self.num_vars, d, self._embedded(d) - other._embedded(d))

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(self.num_vars, self.degree_bound, self.coeffs * other)
        other = self._coerce(other)
        d = self.degree_bound + other.degree_bound
        terms = _outer(self.coeffs, other.coeffs)
        out = np.zeros(len(multi_indices(self.num_vars, d)), dtype=terms.dtype)
        # np.add.at adds the terms in row-major order (a, then b), and zero
        # terms leave a sum unchanged: each column sums as a loop over terms
        np.add.at(out, _product_columns(self.num_vars, self.degree_bound,
                                        other.degree_bound), terms)
        return Polynomial(self.num_vars, d, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("mixed numbers of variables")
            return other
        if np.isscalar(other):
            return Polynomial.constant(other, self.num_vars)
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    # -- calculus -----------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        d = max(self.degree_bound - 1, 0)
        dst, src, powers = _partial_map(self.num_vars, self.degree_bound, i)
        out = np.zeros(len(multi_indices(self.num_vars, d)), dtype=self.coeffs.dtype)
        out[dst] += self.coeffs[src] * powers
        return Polynomial(self.num_vars, d, out)

    def gradient(self) -> list:
        """Vector of partials; degree bound drops by one (0 for constants)."""
        return [self.partial(i) for i in range(self.num_vars)]

    def compose_affine(self, scale, offset) -> "Polynomial":
        """p(s * x + o) with per-coordinate scale s and offset o."""
        coeffs = compose_affine_many(self.coeffs[None, :], self.num_vars,
                                     self.degree_bound, scale, offset)[0]
        return Polynomial(self.num_vars, self.degree_bound, coeffs)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer(a, b), with complex products rounded as a scalar product
    rounds them: re = a_r b_r - a_i b_i, im = a_r b_i + a_i b_r, each
    product rounded on its own (numpy's vector loops may fuse them)."""
    if a.dtype.kind != "c" and b.dtype.kind != "c":
        return a[:, None] * b
    a, b = a.astype(complex)[:, None], b.astype(complex)
    out = np.empty((len(a), len(b)), dtype=complex)
    out.real, out.imag = (a.real * b.real - a.imag * b.imag,
                          a.real * b.imag + a.imag * b.real)
    return out


@lru_cache(maxsize=None)
def _product_columns(num_vars: int, deg_a: int, deg_b: int) -> np.ndarray:
    """(m_a, m_b) table: the graded column of a + b for every column a of
    degree <= deg_a and b of degree <= deg_b."""
    Ea, Eb = exponent_array(num_vars, deg_a), exponent_array(num_vars, deg_b)
    return _columns(num_vars, deg_a + deg_b, Ea[:, None] + Eb)


@lru_cache(maxsize=None)
def _partial_map(num_vars: int, degree: int, i: int) -> tuple:
    """The columns a with a_i > 0 (src), the columns of a - e_i in the
    degree - 1 table (dst) and the powers a_i."""
    E = exponent_array(num_vars, degree)
    src = _frozen(np.flatnonzero(E[:, i]))
    dst = _columns(num_vars, max(degree - 1, 0),
                   E[src] - np.eye(num_vars, dtype=int)[i])
    return dst, src, _frozen(E[src, i].astype(float))


@lru_cache(maxsize=None)
def _affine_structure(num_vars: int, degree: int):
    """Integer data of the affine re-expansion for |a| <= degree.

    Returns the binomial factors B[b, a] = prod_j C(a_j, b_j) and the
    column G[b, a] of the monomial a - b in the graded table, with a - b
    clipped at zero where some b_j > a_j (there B vanishes).
    """
    E = exponent_array(num_vars, degree)
    pascal = np.array([[math.comb(a, b) for b in range(degree + 1)]
                       for a in range(degree + 1)], dtype=float)
    B = np.prod(pascal[E[None, :, :], E[:, None, :]], axis=2)
    G = _columns(num_vars, degree, np.maximum(E[None, :, :] - E[:, None, :], 0))
    return _frozen(B), G


def affine_matrices(num_vars: int, degree: int, scale,
                    offset) -> np.ndarray:
    """The (rows, m, m) matrices M with M[i] @ c the coefficients of
    p(s_i * x + o_i) for p with coefficients c (graded order, |a| <=
    degree); `scale` and `offset` broadcast to (rows, num_vars).

    M[b, a] = prod_j C(a_j, b_j) s_j^b_j o_j^(a_j - b_j), with the powers
    of s and o read from their monomial tables; the integer data of M is
    built once per (num_vars, degree), on first use.
    """
    B, G = _affine_structure(num_vars, degree)
    s, o = np.broadcast_arrays(np.asarray(scale, dtype=float),
                               np.asarray(offset, dtype=float))
    s_pow = monomials(s, degree)
    o_pow = monomials(o, degree)[:, G]
    return B * s_pow[:, :, None] * o_pow


def compose_affine_many(coeffs, num_vars: int, degree: int, scale,
                        offset) -> np.ndarray:
    """Coefficients of p_i(s_i * x + o_i) for a batch of polynomials.

    `coeffs` holds one coefficient row per polynomial (graded order,
    |a| <= degree); `scale` and `offset` broadcast to (rows, num_vars).
    """
    coeffs = np.asarray(coeffs)
    shape = (len(coeffs), num_vars)
    M = affine_matrices(num_vars, degree, np.broadcast_to(scale, shape),
                        np.broadcast_to(offset, shape))
    return (M @ coeffs[:, :, None])[:, :, 0]


def chebyshev(k: int) -> Polynomial:
    """Chebyshev polynomial T_k via T_{k+1} = 2 x T_k - T_{k-1}."""
    if k < 0:
        raise ValueError("k must be non-negative")
    t_prev = Polynomial.constant(1.0)
    if k == 0:
        return t_prev
    t = Polynomial.variable()
    two_x = 2.0 * Polynomial.variable()
    for _ in range(k - 1):
        t_prev, t = t, two_x * t - t_prev
    return t


def finite_difference_many(g, k: int, X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Vectorized delta_h^k g(x) for batches of base points and steps.

    g must accept an (N, n) array of points and return (N,) values.
    """
    total = np.zeros(len(X))
    for j in range(k + 1):
        sign = -1.0 if (k - j) % 2 else 1.0
        total += sign * math.comb(k, j) * np.asarray(g(X + j * H), dtype=float)
    return total
