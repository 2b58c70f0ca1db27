"""Local polynomial approximation and Morrey-Campanato-type seminorms.

The central quantity is the local best approximation of order k over a
cube Q = Q_r(x) with center on the set X,

    E_k(f; Q) = inf_{p of degree k-1} { (1/mu(Q cap X))
                 int_{Q cap X} |f - p|^q dmu }^(1/q),

with E_0 the normalized L_q norm of f itself.  The seminorm of the
generalized Morrey-Campanato space is sup_Q E_k(f; Q) / omega(r_Q) over a
family of cubes with dyadic radii up to 4 diam X.

Smoothness moduli omega are "quasipower k-majorants" when omega(+0) = 0,
omega(t)/t^k is nonincreasing, and the Dini constant

    C_omega = sup_t (1/omega(t)) int_0^t omega(u)/u du

is finite; for omega(t) = t^lam this is 1/lam.  The companion Lipschitz
seminorm sup |delta_h^k g(x)| / omega(|h|) is estimated by quasi-random
probing with |h| log-uniform across several decades.

Best approximations: q = 2 is a weighted least-squares solve (minimum-norm
on rank-deficient cubes), the same bit for bit from any plan; q = 1 and
q = infinity are linear programs, bracketed by weak duality.  Results are
in the monomials of (x - c_Q)/r_Q: `ApproxResult.coefs` with the cube,
and `ApproxResult.poly`, a global view converted on first access.

E_k(f; Q) depends on Q only through Q cap X, so every fit reads a
`FitPlan`: the sets Q cap X, and each distinct set's frame, rank and
orthonormal factor.  q = 2 applies the factor to the data; q = 1 and
q = infinity solve one sparse block-diagonal dual program per call over
every set, bit for bit the same within a call.  A `CubeFamily` owns one
plan per order k, built on first use; `campanato_seminorm` and the
extension chain read it, and `local_best_approx` is a one-cube plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array, hstack

from .fractals import FractalSet
from .geometry import Cube, gaussian_directions, sobol_unit
from .polynomials import (Polynomial, affine_matrices, compose_affine_many,
                          finite_difference_many, monomials, multi_indices)

LN2 = math.log(2.0)


# -- cube families -------------------------------------------------------


@dataclass(frozen=True)
class CubeFamily:
    """Cubes over one set.  The q = 2 fit plan of each order k is built on
    first use and lives as long as the family, which is frozen so that
    the plan cannot go stale."""

    base_set: FractalSet
    cubes: tuple
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cubes", tuple(self.cubes))

    @property
    def radii(self) -> np.ndarray:
        return np.array(sorted({q.radius for q in self.cubes}))

    def fit_plan(self, k: int) -> "FitPlan":
        if k not in self._plans:
            self._plans[k] = FitPlan(self.base_set, self.cubes, k)
        return self._plans[k]


def dyadic_radii(r_min: float, r_max: float) -> list[float]:
    """Powers of two 2^j covering [r_min, r_max]."""
    if not 0 < r_min <= r_max:
        raise ValueError("need 0 < r_min <= r_max")
    j_lo = math.ceil(math.log2(r_min) - 1e-12)
    j_hi = math.floor(math.log2(r_max) + 1e-12)
    return [2.0 ** j for j in range(j_lo, max(j_hi, j_lo) + 1)]


def build_cube_family(X: FractalSet, center_budget: int | None = None,
                      rng=None) -> CubeFamily:
    """Cubes centered at cloud points with dyadic radii up to 4 diam X.

    All cloud points serve as centers below 1000 points (or within the
    given budget); otherwise a seeded random subset.  Because the family
    is a sample, any sup over it is a certified lower bound.
    """
    radii = dyadic_radii(4.0 * X.cell_diam, 4.0 * X.diam)
    centers = X.points
    budget = center_budget if center_budget is not None else 1000
    if X.size > budget:
        if rng is None:
            rng = np.random.default_rng(0)
        idx = rng.choice(X.size, size=budget, replace=False)
        centers = X.points[np.sort(idx)]
    cubes = [Cube(tuple(c), r) for c in centers for r in radii]
    return CubeFamily(base_set=X, cubes=cubes)


# -- smoothness moduli -----------------------------------------------------


@dataclass(frozen=True)
class Majorant:
    """Modulus omega(t) of kind power t^lam, constant, or table."""

    kind: str
    param: object
    k: int

    @classmethod
    def power(cls, lam: float, k: int) -> "Majorant":
        if lam <= 0:
            raise ValueError("power exponent must be positive")
        return cls("power", float(lam), k)

    @classmethod
    def const(cls, value: float, k: int) -> "Majorant":
        if value <= 0:
            raise ValueError("constant majorant must be positive")
        return cls("constant", float(value), k)

    @classmethod
    def table(cls, ts, vals, k: int) -> "Majorant":
        ts = tuple(float(t) for t in ts)
        vals = tuple(float(v) for v in vals)
        if len(ts) != len(vals) or len(ts) < 2:
            raise ValueError("table needs matching ts/vals, length >= 2")
        return cls("table", (ts, vals), k)

    @classmethod
    def from_id(cls, text: str, k: int) -> "Majorant":
        name, _, arg = text.partition(":")
        if name == "power":
            return cls.power(float(arg), k)
        if name == "const":
            return cls.const(float(arg), k)
        raise KeyError(f"unknown majorant id {text!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return t ** self.param
        if self.kind == "constant":
            return np.full_like(t, self.param)
        ts, vals = self.param
        return np.interp(t, ts, vals)


@dataclass(frozen=True)
class QuasipowerReport:
    is_quasipower: bool
    C_omega: float
    reason: str = ""


def quasipower_check(omega: Majorant, grid_lo: float = 1e-8,
                     grid_hi: float = 1e4) -> QuasipowerReport:
    """Verify omega(+0) = 0, monotonicity, omega(t)/t^k nonincreasing, and
    compute C_omega (closed form for powers, log-grid quadrature otherwise)."""
    k = omega.k
    if omega.kind == "power":
        lam = omega.param
        if lam > k:
            return QuasipowerReport(False, math.inf,
                                    f"omega(t)/t^{k} increasing (lam={lam:g})")
        return QuasipowerReport(True, 1.0 / lam)
    if omega.kind == "constant":
        return QuasipowerReport(False, math.inf, "omega(+0) != 0")
    ts = np.exp(np.linspace(math.log(grid_lo), math.log(grid_hi), 400))
    vals = omega(ts)
    # omega(+0) = 0 checked as decay across the lower half of the log grid
    if vals[0] > 0.5 * vals[len(vals) // 2]:
        return QuasipowerReport(False, math.inf, "omega(+0) != 0")
    if np.any(np.diff(vals) < -1e-12 * vals.max()):
        return QuasipowerReport(False, math.inf, "omega not nondecreasing")
    ratio = vals / ts ** k
    if np.any(np.diff(ratio) > 1e-9 * ratio[:-1]):
        return QuasipowerReport(False, math.inf, f"omega(t)/t^{k} increasing")
    # C_omega = sup_t (1/omega(t)) int_0^t omega(u)/u du on the log grid
    # omega(u)/u du = omega d(ln u), by the trapezoid rule
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1])
                                           * np.diff(np.log(ts)))])
    with np.errstate(divide="ignore", invalid="ignore"):
        sup = np.nanmax(np.where(vals > 0, cum / vals, 0.0))
    return QuasipowerReport(bool(np.isfinite(sup)), float(sup))


class MajorantSumError(AssertionError):
    """Dyadic sum exceeded the quasipower cap 2^k C_omega / ln 2."""


def majorant_sum_check(omega: Majorant, i: int,
                       i_prime: int) -> tuple[float, float, float]:
    """Sum of omega over the dyadic ladder 2^i .. 2^i' against omega(2^i').

    Returns (lhs, rhs, ratio) and raises if ratio exceeds the cap
    2^k C_omega / ln 2 that the quasipower property forces.
    """
    if i >= i_prime:
        raise ValueError("need i < i_prime")
    rep = quasipower_check(omega)
    if not rep.is_quasipower:
        raise ValueError(f"majorant is not quasipower: {rep.reason}")
    js = np.arange(i, i_prime + 1)
    lhs = float(np.sum(omega(2.0 ** js)))
    rhs = float(omega(2.0 ** i_prime))
    ratio = lhs / rhs
    cap = 2.0 ** omega.k * rep.C_omega / LN2
    if ratio > cap * (1.0 + 1e-6):
        raise MajorantSumError(
            f"dyadic sum ratio {ratio:.6g} exceeds cap {cap:.6g}")
    return lhs, rhs, ratio


# -- local best approximation ---------------------------------------------


@dataclass
class ApproxResult:
    """A local best approximation over Q cap X.

    `coefs` are the coefficients of the achieved polynomial of degree
    `degree` in the monomials of (x - c_Q)/r_Q, in graded order, so
    coefs[0] is its value at c_Q.  `poly` is the same polynomial in global
    monomials, built on first access.  At q = 1 and q = infinity, plans
    agree within their weak-duality bracket gaps, not bit for bit.
    `fallback` marks such a fit whose linear program failed, in its block
    and alone; its coefficients are the L2 fit's.
    """

    value: float
    coefs: np.ndarray
    cube: Cube
    degree: int
    rank_deficient: bool
    fallback: bool = False

    @cached_property
    def poly(self) -> Polynomial:
        c = np.asarray(self.cube.center, dtype=float)
        r = self.cube.radius
        g = compose_affine_many(self.coefs[None, :], len(c), self.degree,
                                1.0 / r, -c / r)
        return Polynomial(len(c), self.degree, g[0])


# member masks of a fit plan are built in blocks of about this many entries
_MASK_ENTRIES = 2 ** 20


def _factor(points: np.ndarray, sqrt_w: np.ndarray, k: int):
    """SVD of the weighted design of one member set, cut to its rank.

    The design is taken in the set's own frame: the center and the largest
    half-width of its bounding box (1 for a single location).  The frame
    depends only on the set, so every cube with these members shares the
    factor bit for bit.  Returns the frame center and radius, the basis
    U (members x rank) of the column space and the rows S V^T that map
    frame coefficients into it, the rank counted as np.linalg.lstsq
    counts it.
    """
    lo, hi = points.min(axis=0), points.max(axis=0)
    center = 0.5 * (lo + hi)
    radius = float(np.max(0.5 * (hi - lo))) or 1.0
    A = monomials((points - center) / radius, k - 1) * sqrt_w[:, None]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > np.finfo(float).eps * max(A.shape) * s[0]))
    return center, radius, U[:, :rank], s[:rank, None] * Vt[:rank]


class FitPlan:
    """The data-independent half of the fits of a list of cubes at one
    order k.

    The plan finds Q cap X for every cube with the test of Cube.contains,
    one radius at a time, and factors each distinct member set once in
    the set's frame (`_factor`; `frames` holds its center and radius).
    Per cube it keeps a (columns x columns) map from the set's orthonormal
    basis to coefficients in the cube's frame (x - c_Q)/r_Q, minimum-norm
    on rank-deficient cubes (flagged in `deficient`) as lstsq's are.
    `apply(f)` then fits every cube at q = 2 without a per-cube loop.
    Memory is one basis per distinct member set (members x columns
    floats) plus the per-cube maps; cubes that hold the same points, such
    as every cube larger than the set, share a basis.
    """

    def __init__(self, X: FractalSet, cubes, k: int):
        n = X.ambient_dim
        ncols = len(multi_indices(n, k - 1)) if k > 0 else 0
        centers = np.array([Q.center for Q in cubes], dtype=float)
        self.radii = np.array([Q.radius for Q in cubes], dtype=float)
        set_of: dict = {}  # packed member mask -> set number
        sets = []
        self.cube_set = np.empty(len(cubes), dtype=np.intp)
        step = max(1, _MASK_ENTRIES // (X.size * n))
        for r in sorted(set(self.radii.tolist())):
            at = np.flatnonzero(self.radii == r)
            for lo in range(0, len(at), step):
                block = at[lo:lo + step]
                inside = np.max(np.abs(X.points - centers[block, None]),
                                axis=2) <= r
                for j, row, key in zip(block.tolist(), inside,
                                       np.packbits(inside, axis=1)):
                    j_set = set_of.setdefault(key.tobytes(), len(sets))
                    if j_set == len(sets):
                        sets.append(np.flatnonzero(row))
                    self.cube_set[j] = j_set
        if any(len(idx) == 0 for idx in sets):
            raise ValueError("cube does not meet the cloud")
        self.counts = np.array([len(idx) for idx in sets])
        self.index = np.concatenate(sets)
        self.starts = np.concatenate([[0], np.cumsum(self.counts)[:-1]])
        w = X.masses[self.index]
        self.sqrt_w = np.sqrt(w / np.repeat(np.add.reduceat(w, self.starts),
                                            self.counts))

        self.k, self.points, self.centers = k, X.points, centers
        self.basis = np.zeros((ncols, len(self.index)))
        self.maps = np.zeros((len(cubes), ncols, ncols))
        self.deficient = np.zeros(len(cubes), dtype=bool)
        self.frames = np.empty((len(sets), n + 1))  # center, radius; k >= 1
        if ncols == 0:
            return
        ranks = np.empty(len(sets), dtype=int)
        rows = np.zeros((len(sets), ncols, ncols))  # S V^T of each set
        for j, (a, m) in enumerate(zip(self.starts.tolist(),
                                       self.counts.tolist())):
            c, r, U, SV = _factor(X.points[self.index[a:a + m]],
                                  self.sqrt_w[a:a + m], k)
            self.frames[j], ranks[j] = (*c, r), len(SV)
            self.basis[:len(SV), a:a + m] = U.T
            rows[j, :len(SV)] = SV
        rank = ranks[self.cube_set]
        self.deficient = rank < ncols
        # the cube's design in its set's basis: S V^T times the change of
        # frame, (x - c_Q)/r_Q = (r z + c - c_Q)/r_Q in the set's frame z
        f_c, f_r = np.split(self.frames[self.cube_set], [n], axis=1)
        U, s, Vt = np.linalg.svd(rows[self.cube_set] @ affine_matrices(
            n, k - 1, f_r / self.radii[:, None],
            (f_c - centers) / self.radii[:, None]))
        # its pseudo-inverse cut at the set's rank: minimum norm in the
        # cube's frame, as lstsq's
        inv = np.divide(1.0, s, out=np.zeros_like(s),
                        where=np.arange(ncols) < rank[:, None])
        self.maps = np.swapaxes(Vt, 1, 2) * inv[:, None, :] @ \
            np.swapaxes(U, 1, 2)

    def apply(self, f_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of every cube's fit in its own frame (cubes x
        columns) and every E_k(f; Q) for q = 2.

        Each cube's numbers depend only on its member set's rows, so a
        cube gets the same value bit for bit from any plan that holds it.
        """
        z, res = self.project(self.sqrt_w
                              * np.asarray(f_values, dtype=float)[self.index])
        values = np.sqrt(np.add.reduceat(res * res, self.starts))
        coefs = (self.maps @ z[self.cube_set, :, None])[:, :, 0]
        return coefs, values[self.cube_set]

    def project(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of y (one entry per member, in `index` order) in
        each set's orthonormal basis, and the rest of y off the basis."""
        z = np.empty((len(self.starts), len(self.basis)))
        fit = np.zeros_like(y)
        for c, u in enumerate(self.basis):
            z[:, c] = np.add.reduceat(u * y, self.starts)
            fit += u * np.repeat(z[:, c], self.counts)
        return z, y - fit


def local_best_approx(f_values: np.ndarray, X: FractalSet, Q: Cube, k: int,
                      q) -> ApproxResult:
    """E_k(f; Q) over the cloud measure, with the achieved polynomial.

    k = 0 approximates by the zero polynomial, so the value is the
    normalized L_q norm of f.  This is the fit of a one-cube FitPlan, and
    the plan's rank flag: on a rank-deficient cube the q = 2 solve returns
    the minimum-norm coefficient vector, so results stay reproducible.
    """
    if q not in (1, 2, math.inf, "inf") or k < 0:
        raise ValueError("q must be 1, 2, or infinity, and k non-negative")
    plan = FitPlan(X, (Q,), k)
    coefs, values, _, failed = _fit(plan, f_values, q)
    return ApproxResult(float(values[0]), coefs[0] if k else np.zeros(1), Q,
                        max(k - 1, 0), bool(plan.deficient[0]),
                        bool(failed[0]))


# HiGHS tolerances: at the defaults (1e-7), block values drift up to 4e-8
_HIGHS = {"primal_feasibility_tolerance": 1e-10,
          "dual_feasibility_tolerance": 1e-10}


def _fit(plan: FitPlan, f_values: np.ndarray, q):
    """Every cube's coefficients in its own frame, E_k(f; Q), a lower bound
    on it, and each member set's linear program failure flag.

    q = 2 is `plan.apply`.  q = 1 and q = infinity solve one sparse dual
    over the sets with finite data (the rest get NaN): max f.u subject to
    A_j^T u_j = 0 and |u_i| <= w_i, or ||u_j||_1 <= 1 with u = u+ - u-.
    The negated equality marginals are the primal coefficients.  If the
    block fails, each set is solved alone; a set that fails again keeps
    the q = 2 fit.  The lower bound is weak duality on u (w f if failed)
    projected off the set's basis, less a bound on its rounding.
    """
    coefs, values = plan.apply(f_values)
    sets, st, sw = len(plan.starts), plan.starts, plan.sqrt_w
    failed = np.zeros(sets, dtype=bool)
    if q == 2:
        return coefs, values, values, failed
    n, d = plan.centers.shape[1], len(plan.basis)
    fv, w = np.asarray(f_values, dtype=float)[plan.index], sw ** 2
    seg = np.repeat(np.arange(sets), plan.counts)
    finite = np.logical_and.reduceat(np.isfinite(fv), st)
    set_coefs, u, A = np.zeros((sets, d)), w * fv, np.zeros((len(fv), 1))
    if d:
        A = monomials((plan.points[plan.index] - plan.frames[seg, :n])
                      / plan.frames[seg, n:], plan.k - 1)

    def solve(ids):  # the sets ids as one block
        at = np.isin(seg, ids)
        m, j, b = int(at.sum()), np.searchsorted(ids, seg[at]), len(ids)
        At = csr_array((A[at].ravel(), ((j[:, None] * d + np.arange(d))
                                        .ravel(), np.repeat(np.arange(m), d))))
        if q == 1:
            res = linprog(-fv[at], A_eq=At, b_eq=np.zeros(b * d),
                          bounds=np.column_stack([-w[at], w[at]]),
                          method="highs", options=_HIGHS)
        else:
            res = linprog(np.concatenate([-fv[at], fv[at]]), A_ub=csr_array(
                (np.ones(2 * m), (np.tile(j, 2), np.arange(2 * m)))),
                b_ub=np.ones(b), A_eq=hstack([At, -At]), b_eq=np.zeros(b * d),
                bounds=(0, None), method="highs", options=_HIGHS)
        if res.success:
            set_coefs[ids] = -res.eqlin.marginals.reshape(b, d)
            u[at] = res.x if q == 1 else res.x[:m] - res.x[m:]
        return res.success

    live = np.flatnonzero(finite)
    if d and len(live) and not solve(live):
        failed[live] = [not solve(ids) for ids in live[:, None]]
    solved, dual = finite & ~failed, sw * plan.project(u / sw)[1]
    Ac = A * set_coefs[seg]
    res = np.where(solved[seg], fv - np.sum(Ac, axis=1), dual / w)
    if q == 1:
        values = np.add.reduceat(w * np.abs(res), st)
        scale = np.maximum.reduceat(np.abs(dual) / w, st)
    else:
        values = np.maximum.reduceat(np.abs(res), st)
        scale = np.add.reduceat(np.abs(dual), st)
    # f.u' less a bound on the rounding of f.u', of A^T u' and of f - A c
    err = plan.counts * np.finfo(float).eps * np.add.reduceat(
        np.abs(dual) * (np.abs(fv) + np.sum(np.abs(Ac), axis=1)), st)
    lower = (np.add.reduceat(fv * dual, st) - err) / np.maximum(scale, 1.0)
    lower = lower if d else values
    values[~finite] = lower[~finite] = np.nan
    if d:  # set frame z = (r_Q y + c_Q - c) / r, cube frame y
        f_c, f_r = np.split(plan.frames[plan.cube_set], [n], axis=1)
        coefs = np.where(solved[plan.cube_set, None],
                         compose_affine_many(set_coefs[plan.cube_set], n,
                                             plan.k - 1,
                                             plan.radii[:, None] / f_r,
                                             (plan.centers - f_c) / f_r),
                         coefs)
    return coefs, values[plan.cube_set], lower[plan.cube_set], failed


# -- seminorms -------------------------------------------------------------


@dataclass
class SeminormResult:
    """The sup with its witness cube; `ratios[j]` is E_k / omega(r) on
    family.cubes[j], `lower` the sup of their certified lower bounds, and
    `fallbacks` counts the sets whose linear program failed (`_fit`)."""

    value: float
    witness: Cube | None
    num_cubes: int
    ratios: np.ndarray
    lower: float
    fallbacks: int


def campanato_seminorm(f_values: np.ndarray, family: CubeFamily, k: int, q,
                       omega: Majorant) -> SeminormResult:
    """sup over the family of E_k(f; Q) / omega(r_Q), with the witness cube
    and every cube's ratio.

    Over a sampled family this is a certified lower bound for the full sup.
    The first NaN ratio (its cube holds a datum that is not finite), if
    any, is the sup and its cube the witness.
    """
    if not family.cubes:
        raise ValueError("empty cube family")
    if q not in (1, 2, math.inf, "inf"):
        raise ValueError("q must be 1, 2, or infinity")
    _, values, lower, failed = _fit(family.fit_plan(k), f_values, q)
    om = omega(np.array([Qc.radius for Qc in family.cubes]))
    ratios = values / om
    j = int(np.argmax(ratios))
    return SeminormResult(value=float(ratios[j]), witness=family.cubes[j],
                          num_cubes=len(family.cubes), ratios=ratios,
                          lower=float(np.max(lower / om)),
                          fallbacks=int(np.sum(failed)))


@dataclass
class LipschitzEstimate:
    value: float
    num_probes: int


def lipschitz_seminorm(g, k: int, omega: Majorant, box,
                       budget: int = 2 ** 12,
                       h_decades: float = 4.0,
                       h_max: float | None = None) -> LipschitzEstimate:
    """sup |delta_h^k g(x)| / omega(|h|) over quasi-random probes.

    g must accept an (N, n) array and return (N,).  Base points x are
    kept inside the probe box together with x + k h, and |h| is
    log-uniform over `h_decades` decades below h_max.  Nested Sobol
    prefixes make the estimate monotone nondecreasing in the budget.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    n = len(lo)
    span = float(np.min(hi - lo))
    if h_max is None:
        h_max = span / (2.0 * k)
    u = sobol_unit(2 * n + 1, budget)
    x = lo + u[:, :n] * (hi - lo)
    if n == 1:
        dirs = np.where(u[:, n:n + 1] < 0.5, -1.0, 1.0)
    elif n == 2:
        th = 2.0 * math.pi * u[:, n]
        dirs = np.column_stack([np.cos(th), np.sin(th)])
    else:
        dirs = gaussian_directions(u[:, n:2 * n])
    mags = h_max * 10.0 ** (-h_decades * u[:, -1])
    Hs = dirs * mags[:, None]
    inside = np.all((x + k * Hs >= lo) & (x + k * Hs <= hi), axis=1)
    x, Hs, mags = x[inside], Hs[inside], mags[inside]
    if not len(x):
        raise ValueError(f"no probe of length up to h_max = {h_max} fits "
                         f"{k} steps inside the box")
    ratios = np.abs(finite_difference_many(g, k, x, Hs)) / omega(mags)
    return LipschitzEstimate(float(np.max(ratios)), len(ratios))
