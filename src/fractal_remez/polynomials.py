"""Dense multivariate polynomials with total-degree storage.

Carrier type for every polynomial quantity in the library: Chebyshev
polynomials T_k, gradients D^a p, and the k-th forward difference

    delta_h^k f(x) = sum_{j=0..k} (-1)^(k-j) C(k,j) f(x + j*h).

Coefficients are stored densely against the graded list of multi-indices
with |a| <= degree_bound.  Real and complex polynomials share the type;
the scalar kind is the dtype of the coefficient array (complex is used
only for univariate polynomials here).  Degrees stay small (<= ~12), so
dense storage and naive convolution multiplication are the right tools.

Polynomials are evaluated through one kernel, `monomials(x, degree)`,
which builds the (N, m) table of every graded monomial at N points: the
constant and the linear columns are copied, and every column above them
is its parent column times one variable, where the parent multi-index
(the exponent with one power of that variable removed) and the variable
come from a table cached per (num_vars, degree).  So a table costs one
multiplication per column of degree >= 2, done one degree block at a
time.  `Polynomial.eval_many`, the design matrices of the local fits,
the Whitney assembly and the scale powers of `compose_affine_many` all
go through it.

All instances are immutable after construction and all operations are
pure; sharing across threads is safe.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

__all__ = [
    "Polynomial",
    "multi_indices",
    "exponent_array",
    "binomial",
    "chebyshev",
    "finite_difference",
    "finite_difference_many",
    "compose_affine_many",
    "monomials",
]

_PASCAL_MAX = 30


@lru_cache(maxsize=None)
def _pascal_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _pascal_row(n - 1)
    return tuple(
        (prev[j - 1] if j > 0 else 0) + (prev[j] if j < n else 0)
        for j in range(n + 1)
    )


def binomial(n: int, k: int) -> int:
    """C(n, k) by the Pascal recurrence, exact integers, n <= 30."""
    if n < 0 or n > _PASCAL_MAX:
        raise ValueError(f"binomial supports 0 <= n <= {_PASCAL_MAX}, got {n}")
    if k < 0 or k > n:
        return 0
    return _pascal_row(n)[k]


@lru_cache(maxsize=None)
def multi_indices(num_vars: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent multi-indices with |a| <= max_degree, graded-lex order.

    Graded order means the indices of degree <= d form a prefix of the
    list for any larger bound, which makes re-embedding coefficient
    arrays a zero-pad.
    """
    if num_vars < 1:
        raise ValueError("num_vars must be positive")
    out = []
    for total in range(max_degree + 1):
        block = [
            alpha
            for alpha in itertools.product(range(total + 1), repeat=num_vars)
            if sum(alpha) == total
        ]
        out.extend(sorted(block))
    return tuple(out)


@lru_cache(maxsize=None)
def exponent_array(num_vars: int, max_degree: int) -> np.ndarray:
    """multi_indices(num_vars, max_degree) as a read-only (m, n) int array,
    built once per (num_vars, max_degree) and shared by every caller."""
    E = np.array(multi_indices(num_vars, max_degree), dtype=int)
    E.setflags(write=False)
    return E


@lru_cache(maxsize=None)
def _index_positions(num_vars: int, max_degree: int) -> dict:
    return {a: i for i, a in enumerate(multi_indices(num_vars, max_degree))}


def _as_slice(idx: list):
    """idx as a slice when it is a run of consecutive columns, so that
    indexing with it gives a view; otherwise as an index array."""
    if idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.array(idx)


@lru_cache(maxsize=None)
def _monomial_parents(num_vars: int, degree: int) -> tuple:
    """Per degree d = 2..degree: the column slice of that degree block,
    and for each of its columns the column of its parent monomial and the
    column of the variable that multiplies it (the last variable with a
    positive exponent).  The degree-1 block holds x_{n-1}, ..., x_0."""
    idx = multi_indices(num_vars, degree)
    pos = _index_positions(num_vars, degree)
    blocks = []
    start = num_vars + 1
    for d in range(2, degree + 1):
        stop = start + sum(1 for a in idx[start:] if sum(a) == d)
        parents, factors = [], []
        for a in idx[start:stop]:
            j = max(i for i, e in enumerate(a) if e > 0)
            parents.append(pos[a[:j] + (a[j] - 1,) + a[j + 1:]])
            factors.append(num_vars - j)
        blocks.append((slice(start, stop), _as_slice(parents),
                       _as_slice(factors)))
        start = stop
    return tuple(blocks)


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
            pos = _index_positions(num_vars, degree_bound)
            for alpha, c in coeffs.items():
                alpha = tuple(int(e) for e in alpha)
                if len(alpha) != num_vars:
                    raise ValueError(f"multi-index {alpha} has wrong arity")
                if any(e < 0 for e in alpha) or sum(alpha) > degree_bound:
                    raise ValueError(f"multi-index {alpha} outside degree bound")
                arr[pos[alpha]] += c
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
    def zero(cls, num_vars: int = 1) -> "Polynomial":
        return cls(num_vars, 0, np.zeros(1))

    @classmethod
    def constant(cls, value, num_vars: int = 1) -> "Polynomial":
        return cls(num_vars, 0, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, i: int = 0, num_vars: int = 1) -> "Polynomial":
        alpha = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, 1, {alpha: 1.0})

    @classmethod
    def from_dict(cls, num_vars: int, coeffs: dict) -> "Polynomial":
        deg = max((sum(a) for a in coeffs), default=0)
        return cls(num_vars, deg, coeffs)

    @classmethod
    def random(cls, rng, num_vars: int, degree: int, scale: float = 1.0,
               complex_coeffs: bool = False) -> "Polynomial":
        m = len(multi_indices(num_vars, degree))
        c = rng.uniform(-scale, scale, size=m)
        if complex_coeffs:
            c = c + 1j * rng.uniform(-scale, scale, size=m)
        return cls(num_vars, degree, c)

    # -- views --------------------------------------------------------

    @property
    def exponents(self) -> np.ndarray:
        return exponent_array(self.num_vars, self.degree_bound)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.coeffs)

    def coeffs_dict(self, tol: float = 0.0) -> dict:
        idx = multi_indices(self.num_vars, self.degree_bound)
        return {a: c for a, c in zip(idx, self.coeffs) if abs(c) > tol}

    def degree(self) -> int:
        """Actual total degree (0 for the zero polynomial)."""
        idx = multi_indices(self.num_vars, self.degree_bound)
        deg = 0
        for a, c in zip(idx, self.coeffs):
            if c != 0:
                deg = max(deg, sum(a))
        return deg

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

    def eval(self, x):
        """Evaluate at a single point (scalar for n == 1)."""
        x = np.atleast_1d(np.asarray(x))
        if x.shape != (self.num_vars,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.num_vars},)"
            )
        return self.eval_many(x[None, :])[0]

    __call__ = eval

    # -- arithmetic ---------------------------------------------------

    def _embedded(self, degree_bound: int) -> np.ndarray:
        m = len(multi_indices(self.num_vars, degree_bound))
        out = np.zeros(m, dtype=self.coeffs.dtype)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def __add__(self, other):
        other = self._coerce(other)
        d = max(self.degree_bound, other.degree_bound)
        return Polynomial(self.num_vars, d, self._embedded(d) + other._embedded(d))

    def __sub__(self, other):
        other = self._coerce(other)
        d = max(self.degree_bound, other.degree_bound)
        return Polynomial(self.num_vars, d, self._embedded(d) - other._embedded(d))

    def __neg__(self):
        return Polynomial(self.num_vars, self.degree_bound, -self.coeffs)

    def __rmul__(self, c):
        return self.__mul__(c)

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(self.num_vars, self.degree_bound, self.coeffs * other)
        other = self._coerce(other)
        d = self.degree_bound + other.degree_bound
        pos = _index_positions(self.num_vars, d)
        dtype = complex if (self.is_complex or other.is_complex) else float
        out = np.zeros(len(multi_indices(self.num_vars, d)), dtype=dtype)
        idx_a = multi_indices(self.num_vars, self.degree_bound)
        idx_b = multi_indices(other.num_vars, other.degree_bound)
        for a, ca in zip(idx_a, self.coeffs):
            if ca == 0:
                continue
            for b, cb in zip(idx_b, other.coeffs):
                if cb == 0:
                    continue
                key = tuple(ea + eb for ea, eb in zip(a, b))
                out[pos[key]] += ca * cb
        return Polynomial(self.num_vars, d, out)

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
        pos = _index_positions(self.num_vars, d)
        out = np.zeros(len(multi_indices(self.num_vars, d)), dtype=self.coeffs.dtype)
        for a, c in zip(multi_indices(self.num_vars, self.degree_bound), self.coeffs):
            if c == 0 or a[i] == 0:
                continue
            b = tuple(e - 1 if j == i else e for j, e in enumerate(a))
            out[pos[b]] += c * a[i]
        return Polynomial(self.num_vars, d, out)

    def gradient(self) -> list:
        """Vector of partials; degree bound drops by one (0 for constants)."""
        return [self.partial(i) for i in range(self.num_vars)]

    def compose_affine(self, scale, offset) -> "Polynomial":
        """p(s * x + o) with per-coordinate scale s and offset o."""
        coeffs = compose_affine_many(self.coeffs[None, :], self.num_vars,
                                     self.degree_bound, scale, offset)[0]
        return Polynomial(self.num_vars, self.degree_bound, coeffs)


@lru_cache(maxsize=None)
def _affine_structure(num_vars: int, degree: int):
    """Integer data of the affine re-expansion for |a| <= degree.

    Returns the binomial factors B[b, a] = prod_j C(a_j, b_j) and the
    column G[b, a] of the monomial a - b in the graded table, with a - b
    clipped at zero where some b_j > a_j (there B vanishes).
    """
    E = exponent_array(num_vars, degree)
    pascal = np.array([[binomial(a, b) for b in range(degree + 1)]
                       for a in range(degree + 1)], dtype=float)
    B = np.prod(pascal[E[None, :, :], E[:, None, :]], axis=2)
    pos = _index_positions(num_vars, degree)
    D = np.maximum(E[None, :, :] - E[:, None, :], 0)
    G = np.array([[pos[tuple(d)] for d in row] for row in D.tolist()])
    for arr in (B, G):
        arr.setflags(write=False)
    return B, G


def compose_affine_many(coeffs, num_vars: int, degree: int, scale,
                        offset) -> np.ndarray:
    """Coefficients of p_i(s_i * x + o_i) for a batch of polynomials.

    `coeffs` holds one coefficient row per polynomial (graded order,
    |a| <= degree); `scale` and `offset` broadcast to (rows, num_vars).
    Each row is mapped by M[b, a] = prod_j C(a_j, b_j) s_j^b_j
    o_j^(a_j - b_j), with the powers of s and o read from their monomial
    tables; the integer data of M is built once per (num_vars, degree),
    on first use.
    """
    coeffs = np.asarray(coeffs)
    B, G = _affine_structure(num_vars, degree)
    shape = (len(coeffs), num_vars)
    s = np.broadcast_to(np.asarray(scale, dtype=float), shape)
    o = np.broadcast_to(np.asarray(offset, dtype=float), shape)
    s_pow = monomials(s, degree)
    o_pow = monomials(o, degree)[:, G]
    M = B * s_pow[:, :, None] * o_pow
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
        total += sign * binomial(k, j) * np.asarray(g(X + j * H), dtype=float)
    return total


def finite_difference(f, k: int, x, h) -> float:
    """k-th forward difference of f at x with step vector h.

    f takes one point, a scalar when x has one coordinate.  Annihilates
    polynomials of degree <= k - 1 exactly.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if x.shape != h.shape:
        raise ValueError("x and h must have the same dimension")

    def g(points):
        return [float(f(p if len(p) > 1 else p[0])) for p in points]

    return float(finite_difference_many(g, k, x[None, :], h[None, :])[0])
