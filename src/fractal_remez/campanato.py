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

is finite.  The moduli are powers t^lam, quasipower iff lam <= k, with
C_omega = 1/lam, and constants, which never are.  The companion Lipschitz
seminorm sup |delta_h^k g(x)| / omega(|h|) is estimated by quasi-random
probing with |h| log-uniform across several decades.

Best approximations: q = 2 is a weighted least-squares solve (minimum-norm
on rank-deficient cubes), the same bit for bit from any plan; q = 1 and
q = infinity are linear programs, bracketed by weak duality.  Results are
in the monomials of (x - c_Q)/r_Q (`ApproxResult.coefs`).

E_k(f; Q) depends on Q only through Q cap X, so every fit reads a
`FitPlan`: the sets Q cap X, each distinct set's frame, design and
orthonormal factor (one SVD per stack of sets of equal size), and a map
per cube from its set's factor into its frame.  q = 2 applies the
factors; q = 1 and q = infinity solve one sparse block-diagonal dual
program per call over every set, mapped by the same maps.  A `CubeFamily`
owns one plan per order k; `local_best_approx` is a one-cube plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fractals import FractalSet
from .geometry import Cube, gaussian_directions, sobol_unit
from .polynomials import (affine_matrices, finite_difference_many, monomials,
                          multi_indices)

LN2 = math.log(2.0)
LIPSCHITZ_BUDGET = 2 ** 12
FAMILY_SEED = 0  # draws the centers of a family over a large cloud


# -- cube families -------------------------------------------------------


@dataclass(frozen=True)
class CubeFamily:
    """Cubes over one set.  Plans that depend on the cubes but not on the
    data (the q = 2 fit plan of each order k, and the extension's) are
    built on first use and live as long as the family, which is frozen so
    that no plan can go stale."""

    base_set: FractalSet
    cubes: tuple
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cubes", tuple(self.cubes))

    @property
    def radii(self) -> np.ndarray:
        return np.array(sorted({q.radius for q in self.cubes}))

    def plan(self, key, build):
        """The plan kept under key, made by build() on first use."""
        if key not in self._plans:
            self._plans[key] = build()
        return self._plans[key]

    def fit_plan(self, k: int) -> "FitPlan":
        return self.plan(k, lambda: FitPlan(self.base_set, self.cubes, k))


def dyadic_radii(r_min: float, r_max: float) -> list[float]:
    """Powers of two 2^j covering [r_min, r_max]."""
    if not 0 < r_min <= r_max:
        raise ValueError("need 0 < r_min <= r_max")
    j_lo = math.ceil(math.log2(r_min) - 1e-12)
    j_hi = math.floor(math.log2(r_max) + 1e-12)
    return [2.0 ** j for j in range(j_lo, max(j_hi, j_lo) + 1)]


def build_cube_family(X: FractalSet,
                      center_budget: int | None = None) -> CubeFamily:
    """Cubes centered at cloud points with dyadic radii up to 4 diam X.

    All cloud points serve as centers below 1000 points (or within the
    given budget); otherwise a random subset drawn with FAMILY_SEED.  As
    the family is a sample, any sup over it is a certified lower bound.
    """
    radii = dyadic_radii(4.0 * X.cell_diam, 4.0 * X.diam)
    centers = X.points
    budget = center_budget if center_budget is not None else 1000
    if X.size > budget:
        rng = np.random.default_rng(FAMILY_SEED)
        idx = rng.choice(X.size, size=budget, replace=False)
        centers = X.points[np.sort(idx)]
    cubes = [Cube(tuple(c), r) for c in centers for r in radii]
    return CubeFamily(base_set=X, cubes=cubes)


# -- smoothness moduli -----------------------------------------------------


@dataclass(frozen=True)
class Majorant:
    """Modulus omega(t) of kind power t^lam or constant."""

    kind: str
    param: object
    k: int

    @classmethod
    def power(cls, lam: float, k: int) -> "Majorant":
        if not 0.0 < lam < math.inf:
            raise ValueError("power exponent must be positive and finite")
        return cls("power", float(lam), k)

    @classmethod
    def const(cls, value: float, k: int) -> "Majorant":
        if not 0.0 < value < math.inf:
            raise ValueError("constant majorant must be positive and finite")
        return cls("constant", float(value), k)

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
        return np.full_like(t, self.param)


@dataclass(frozen=True)
class QuasipowerReport:
    is_quasipower: bool
    C_omega: float
    reason: str = ""


def quasipower_check(omega: Majorant) -> QuasipowerReport:
    """Whether omega(+0) = 0 and omega(t)/t^k is nonincreasing, with
    C_omega in closed form: 1/lam for t^lam."""
    if omega.kind == "constant":
        return QuasipowerReport(False, math.inf, "omega(+0) != 0")
    k, lam = omega.k, omega.param
    if lam > k:
        return QuasipowerReport(False, math.inf,
                                f"omega(t)/t^{k} increasing (lam={lam:g})")
    return QuasipowerReport(True, 1.0 / lam)


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
    k - 1 (zero at k = 0) in the monomials of (x - c_Q)/r_Q, graded, so
    coefs[0] is its value at c_Q; minimum-norm, with these values on
    Q cap X, on a rank-deficient cube.  Plans agree at q = 1 and q = inf
    within their weak-duality bracket gaps; `fallback` marks such a fit
    whose linear program failed, with the L2 fit's coefficients.
    """

    value: float
    coefs: np.ndarray
    rank_deficient: bool
    fallback: bool


# member masks of a fit plan are built in blocks of about this many entries
_MASK_ENTRIES = 2 ** 20


def _check_args(k: int, q=2):  # of FitPlan and both fit entry points
    if q not in (1, 2, math.inf, "inf") or k < 0:
        raise ValueError("q must be 1, 2, or infinity, and k non-negative")


class FitPlan:
    """The data-independent half of the fits of a list of cubes at order k.

    The plan finds Q cap X for every cube with the test of Cube.contains,
    one radius at a time.  Each distinct member set has a frame (`frames`:
    the center and largest half-width of its bounding box, 1 for a single
    location), in which `design` builds every member's row.  One SVD per
    stack of sets with equal member counts factors the weighted designs,
    cut to the rank np.linalg.lstsq counts (`ranks`), so every cube with
    the same members shares the factor bit for bit.  `maps` takes each
    cube's set basis to coefficients in the cube's frame (x - c_Q)/r_Q,
    minimum-norm where `deficient`, as lstsq's; it is the only change of
    frame.  Memory is one basis per distinct set (members x columns
    floats) plus the per-cube maps.
    """

    def __init__(self, X: FractalSet, cubes, k: int):
        _check_args(k)
        if not cubes:
            raise ValueError("empty cube family")
        n = X.ambient_dim
        ncols = len(multi_indices(n, k - 1)) if k > 0 else 0
        centers = np.array([Q.center for Q in cubes], dtype=float)
        self.radii = np.array([Q.radius for Q in cubes], dtype=float)
        set_of: dict = {}  # packed member mask -> set number
        sets = []
        self.cube_set = np.empty(len(cubes), dtype=np.intp)
        step = max(1, _MASK_ENTRIES // (X.size * n))
        for r in sorted(set(self.radii.tolist())):
            at = (self.radii == r).nonzero()[0]
            for lo in range(0, len(at), step):
                block = at[lo:lo + step]
                inside = np.abs(X.points - centers[block, None]).max(
                    axis=2) <= r
                for j, row, key in zip(block.tolist(), inside,
                                       np.packbits(inside, axis=1)):
                    j_set = set_of.setdefault(key.tobytes(), len(sets))
                    if j_set == len(sets):
                        sets.append(row.nonzero()[0])
                    self.cube_set[j] = j_set
        self.counts = np.array([len(idx) for idx in sets])
        if not self.counts.all():
            raise ValueError("cube does not meet the cloud")
        self.index = np.concatenate(sets)
        self.starts = np.cumsum(self.counts) - self.counts
        w = X.masses[self.index]
        self.sqrt_w = np.sqrt(w / np.repeat(np.add.reduceat(w, self.starts),
                                            self.counts))
        self.k, self.points, self.centers = k, X.points, centers
        members = X.points[self.index]
        lo = np.minimum.reduceat(members, self.starts)
        hi = np.maximum.reduceat(members, self.starts)
        half = (0.5 * (hi - lo)).max(axis=1, keepdims=True)
        self.frames = np.concatenate([0.5 * (lo + hi), half + (half == 0)], 1)

        self.basis = np.zeros((ncols, len(self.index)))
        self.maps = np.zeros((len(cubes), ncols, ncols))
        self.deficient = np.zeros(len(cubes), dtype=bool)
        self.ranks = np.zeros(len(sets), dtype=int)
        if ncols == 0:
            return
        A = self.design() * self.sqrt_w[:, None]
        rows = np.zeros((len(sets), ncols, ncols))  # S V^T of each set
        for m in sorted(set(self.counts.tolist())):  # one stack per count
            at = (self.counts == m).nonzero()[0]
            cols = (self.starts[at, None] + np.arange(m) if len(at) > 1
                    else slice(self.starts[at[0]], self.starts[at[0]] + m))
            U, s, Vt = np.linalg.svd(A[cols], full_matrices=False)
            self.ranks[at] = (s > np.finfo(float).eps * max(m, ncols)
                              * s[..., :1]).sum(axis=-1)
            self.basis.T[cols, :s.shape[-1]] = U
            rows[at, :s.shape[-1]] = s[..., None] * Vt
        rank = self.ranks[self.cube_set]
        self.deficient = rank < ncols
        if self.deficient.any():  # zero the factors beyond each set's rank
            cut = np.arange(ncols) >= self.ranks[:, None]
            rows[cut] = 0.0
            self.basis[cut.repeat(self.counts, axis=0).T] = 0.0
        # the cube's design in its set's basis: S V^T times the change of
        # frame, (x - c_Q)/r_Q = (r z + c - c_Q)/r_Q in the set's frame z
        f = self.frames[self.cube_set]
        U, s, Vt = np.linalg.svd(rows[self.cube_set] @ affine_matrices(
            n, k - 1, f[:, n:] / self.radii[:, None],
            (f[:, :n] - centers) / self.radii[:, None]))
        # its pseudo-inverse cut at the set's rank: minimum norm in the
        # cube's frame, as lstsq's
        inv = np.divide(1.0, s, out=np.zeros(s.shape),
                        where=np.arange(ncols) < rank[:, None])
        self.maps = Vt.transpose(0, 2, 1) * inv[:, None, :] @ \
            U.transpose(0, 2, 1)

    def design(self) -> np.ndarray:
        """The unweighted design in each set's frame, rows in `index`."""
        f = self.frames.repeat(self.counts, axis=0)
        return monomials((self.points[self.index] - f[:, :-1]) / f[:, -1:],
                         self.k - 1)

    def apply(self, f_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every cube's q = 2 coefficients in its own frame (cubes x
        columns) and E_k(f; Q), the same bits from any plan holding the
        cube; NaN where its set holds a datum that is not finite."""
        f = np.asarray(f_values, dtype=float)
        return self.fit(np.where(np.isinf(f), np.nan, f)[self.index])

    def fit(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`apply` to y given in `index` order; a NaN makes its set NaN."""
        z, res = self.project(self.sqrt_w * y)
        values = np.sqrt(np.add.reduceat(res * res, self.starts))
        coefs = (self.maps @ z[self.cube_set, :, None])[:, :, 0]
        return coefs, values[self.cube_set]

    def project(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of y (one entry per member, in `index` order) in
        each set's orthonormal basis, and the rest of y off the basis."""
        z = np.empty((len(self.starts), len(self.basis)))
        fit = np.zeros(len(y))
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
    _check_args(k, q)
    plan = FitPlan(X, (Q,), k)
    coefs, values, _, failed = _fit(plan, f_values, q)
    return ApproxResult(float(values[0]), coefs[0] if k else np.zeros(1),
                        bool(plan.deficient[0]), bool(failed[0]))


# HiGHS tolerances: at the defaults (1e-7), block values drift up to 4e-8
_HIGHS = {"primal_feasibility_tolerance": 1e-10,
          "dual_feasibility_tolerance": 1e-10}


def _fit(plan: FitPlan, f_values: np.ndarray, q):
    """Every cube's coefficients in its own frame, E_k(f; Q), a lower bound
    on it, and each member set's linear program failure flag.

    q = 2 is `plan.apply`.  q = 1 and q = infinity solve one sparse dual
    over the sets with finite data (the rest get NaN): max f.u subject to
    A_j^T u_j = 0 and |u_i| <= w_i, or ||u_j||_1 <= 1 with u = u+ - u-,
    in the set's frame.  The negated equality marginals are the primal
    coefficients; the plan's q = 2 fit of their values on Q cap X gives
    them in the cube's frame.  A failed block is solved set by set, and a
    set that fails again keeps the q = 2 fit.  The lower bound is weak
    duality on u (w f if failed) off the set's basis, less its rounding.
    """
    fv = np.asarray(f_values, dtype=float)
    fv = np.where(np.isinf(fv), np.nan, fv)[plan.index]  # inf -> NaN: quiet
    coefs, values = plan.fit(fv)
    sets, st, sw = len(plan.starts), plan.starts, plan.sqrt_w
    failed = np.zeros(sets, dtype=bool)
    if q == 2:
        return coefs, values, values, failed
    d, seg = len(plan.basis), np.repeat(np.arange(sets), plan.counts)
    finite, w = np.logical_and.reduceat(~np.isnan(fv), st), sw ** 2
    set_coefs, u = np.zeros((sets, d)), w * fv
    A = plan.design() if d else np.zeros((len(fv), 0))

    def solve(ids):  # the sets ids as one block
        from scipy.optimize import linprog
        from scipy.sparse import csr_array, hstack
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
    # a value is attained, so a lower end above it is rounding; NaN stays
    lower = np.minimum(lower, values) if d else values
    coefs = np.where(solved[plan.cube_set, None],
                     plan.fit(np.sum(Ac, axis=1))[0], coefs)
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
    _check_args(k, q)
    _, values, lower, failed = _fit(family.fit_plan(k), f_values, q)
    om = omega(np.array([Qc.radius for Qc in family.cubes]))
    ratios = values / om
    j = int(np.argmax(ratios))
    return SeminormResult(value=float(ratios[j]), witness=family.cubes[j],
                          num_cubes=len(family.cubes), ratios=ratios,
                          lower=float(np.max(lower / om)),
                          fallbacks=int(np.sum(failed)))


def lipschitz_seminorm(g, k: int, omega: Majorant, box, h_decades: float,
                       h_max: float) -> float:
    """sup |delta_h^k g(x)| / omega(|h|) over LIPSCHITZ_BUDGET Sobol probes.

    g must accept an (N, n) array and return (N,).  Base points x are
    kept inside the probe box together with x + k h, and |h| is
    log-uniform over `h_decades` decades below h_max.  Nested Sobol
    prefixes make the estimate monotone nondecreasing in the budget.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    n = len(lo)
    u = sobol_unit(2 * n + 1, LIPSCHITZ_BUDGET)
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
    return float(np.max(ratios))
