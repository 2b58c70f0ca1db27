"""Whitney-type extension of functions from fractal sets to the ambient space.

The pipeline realizes a linear extension operator in four steps:

  1. projection:  P_Q(f) is the mass-weighted L2 projection of f onto
     polynomials of degree k-1 over Q cap X (linear, idempotent, exact on
     its range), the q = 2 fit of a campanato.FitPlan.
  2. trace_tilde:  the pointwise trace value at a cloud point x is the
     limit of P_Q(f)(x) along shrinking dyadic cubes centered at x; the
     deepest resolvable rung is used and the Cauchy increments are
     reported.  Fits come back in the cube's frame (x - c_Q)/r_Q, so
     P_Q(f)(x) is the constant term of the deepest-rung fit.
  3. build_chain:  each cube receives the recentered polynomial
     P~_Q = P_Q(f) - P_Q(f)(c_Q) + trace(c_Q), so P~_Q(c_Q) interpolates
     the trace; in Q's own frame this replaces the constant term by the
     trace value.  Cubes larger than diam X borrow the projection over a
     fixed cube of radius 2 diam X.  Every fit comes from the family's
     q = 2 fit plan (campanato.FitPlan), built once per family and order
     k and reused by every later chain and by the seminorm of
     verify_extension; every entry stays in its cube's frame, and
     nothing is converted to global monomials.  The map f -> chain is
     linear.
  4. whitney_extend:  an ambient grid node y at distance d from X blends
     the chain polynomials of cubes with radius in [d, 4d] whose doubled
     cubes contain y, with smooth bump weights normalized to sum one;
     nodes on X fall back to the smallest covering cubes.  None of this
     depends on f, so the family keeps it as a WhitneyPlan per order, grid
     and set of kept cubes, and each field applies it to a chain's rows.

The chain seminorm is the max over nested cube pairs Q inside Q', with
radii within two rungs of the same dyadic window, of max_Q |P_Q - P_Q'| /
omega(r_Q'), P_Q' re-expanded into Q's frame so that the inner max runs
over [-1, 1]^n; the family keeps the pairs and re-expansions as a plan.
For entries of degree <= 2 in dimension n <= 2 it is computed exactly
from corner, edge-vertex, and interior critical values; higher degrees or
dimensions fall back to sampling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .campanato import (CubeFamily, Majorant, campanato_seminorm,
                        dyadic_radii, lipschitz_seminorm, local_best_approx,
                        quasipower_check)
from .fractals import FractalSet
from .geometry import Cube
from .polynomials import Polynomial, affine_matrices, monomials
from .remez import sup_norm


@dataclass
class TraceResult:
    value: float
    increments: np.ndarray
    radii: np.ndarray


def _ladder(X: FractalSet) -> list:
    """Dyadic rung radii of the trace ladder, ascending; at least three."""
    min_radius = 4.0 * X.cell_diam
    radii = dyadic_radii(min_radius, max(X.diam, 2.0 * min_radius))
    if len(radii) < 3:
        raise ValueError("fewer than three resolvable ladder rungs")
    return radii


def trace_tilde(f_values: np.ndarray, x, k: int, X: FractalSet) -> TraceResult:
    """Pointwise trace at a cloud point via shrinking dyadic cubes.

    Returns the deepest-rung projection value P_Q(f)(x) together with the
    per-rung increments |P_{j+1}(x) - P_j(x)| as convergence diagnostics.
    Each rung cube is centered at x, so P_Q(f)(x) is the constant term of
    its local fit.  Requires at least three resolvable rungs above cell
    resolution.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    radii = _ladder(X)
    vals = np.array([  # ascending; the deepest rung is first
        local_best_approx(f_values, X, Cube(tuple(x), r), k, 2).coefs[0]
        for r in radii])
    return TraceResult(value=float(vals[0]), increments=np.abs(np.diff(vals)),
                       radii=np.array(radii))


@dataclass
class Chain:
    """Cube-indexed family of degree-(k-1) polynomials in cube frames.

    Row i of `coefs` is the entry of cubes[i] in the graded monomials of
    (x - c_Q)/r_Q, so coefs[i, 0] is its value at c_Q.  `deficient[i]`
    marks a cube whose local system was rank-deficient (too few cloud
    points, or degenerate geometry, for the polynomial space); its
    minimum-norm entry interpolates the data but does not determine the
    polynomial, so the Whitney assembly skips it.  `family` is the cube
    family whose cubes these are; its cache holds the Whitney and pair
    plans.
    """

    coefs: np.ndarray
    deficient: np.ndarray
    k: int
    omega: Majorant
    family: CubeFamily


def build_chain(f_values: np.ndarray, X: FractalSet, family: CubeFamily,
                k: int, omega: Majorant) -> Chain:
    """Recentered projection chain; linear in f throughout.

    Every family cube is fitted by the family's q = 2 fit plan.  The trace
    at c_Q is the constant term of the fit over the deepest ladder rung
    centered at c_Q, itself a family cube, and the entry of Q is its fit,
    in its own frame, with the constant term replaced by that trace.
    Cubes with radius above diam X all borrow the projection over the
    fixed cube of radius 2 diam X centered at the first cloud point,
    re-expanded in their own frames, so only the interpolated constant
    varies across them.  X must be the family's own set.
    """
    qp = quasipower_check(omega)
    if not qp.is_quasipower:
        raise ValueError(f"chain construction needs a quasipower majorant: "
                         f"{qp.reason}")
    if X is not family.base_set:
        raise ValueError("build_chain needs the family's own base set")
    rung = family.plan("rungs", lambda: _rung_rows(family))
    cubes = family.cubes
    plan = family.fit_plan(k)
    fits, _ = plan.apply(f_values)
    rows = fits.copy()
    deficient = plan.deficient.copy()
    big = np.flatnonzero(plan.radii > X.diam)
    if len(big):
        anchor = Cube(tuple(X.points[0]), 2.0 * X.diam)
        deg = max(k - 1, 0)
        # anchor frame -> Q's frame: z_anchor = (r_Q z + c_Q - c_a) / r_a
        offsets = np.array([cubes[i].center for i in big]) - anchor.center
        coefs = local_best_approx(f_values, X, anchor, k, 2).coefs
        rows[big] = affine_matrices(X.ambient_dim, deg,
                                    plan.radii[big, None] / anchor.radius,
                                    offsets / anchor.radius) @ coefs
        deficient[big] = False
    rows[:, 0] = fits[rung, 0]
    return Chain(coefs=rows, deficient=deficient, k=k, omega=omega,
                 family=family)


def _rung_rows(family: CubeFamily) -> np.ndarray:
    """Row of the deepest-rung cube at the center of each family cube."""
    deepest = _ladder(family.base_set)[0]
    cubes = family.cubes
    rung = {Q.center: i for i, Q in enumerate(cubes) if Q.radius == deepest}
    missing = [Q.center for Q in cubes if Q.center not in rung]
    if missing:
        raise ValueError(f"no deepest-rung cube (radius {deepest}) at "
                         f"the center {missing[0]}")
    return np.array([rung[Q.center] for Q in cubes], dtype=np.intp)


# -- exact sup of low-degree polynomials over [-1, 1]^n -----------------------


def _max_abs_deg2_square(C: np.ndarray) -> np.ndarray:
    """Exact max of |quadratic| over [-1, 1]^2, rowwise.

    Basis order follows multi_indices(2, 2):
    1, y, x, y^2, xy, x^2.
    """
    a, by, cx, dyy, exy, fxx = (C[:, j] if j < C.shape[1]
                                else np.zeros(len(C)) for j in range(6))

    def val(x, y):
        return np.abs(a + by * y + cx * x + dyy * y ** 2 + exy * x * y
                      + fxx * x ** 2)

    best = np.max([val(x, y) for x in (-1.0, 1.0) for y in (-1.0, 1.0)],
                  axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for x in (-1.0, 1.0):  # edges x fixed, vertex in y
            ystar = -(by + exy * x) / (2.0 * dyy)
            ok = np.isfinite(ystar) & (np.abs(ystar) <= 1.0)
            best = np.maximum(best, np.where(ok, val(x, ystar), -np.inf))
        for y in (-1.0, 1.0):  # edges y fixed, vertex in x
            xstar = -(cx + exy * y) / (2.0 * fxx)
            ok = np.isfinite(xstar) & (np.abs(xstar) <= 1.0)
            best = np.maximum(best, np.where(ok, val(xstar, y), -np.inf))
        det = 4.0 * fxx * dyy - exy ** 2
        xstar = (-2.0 * dyy * cx + exy * by) / det
        ystar = (exy * cx - 2.0 * fxx * by) / det
        ok = (np.isfinite(xstar) & np.isfinite(ystar)
              & (np.abs(xstar) <= 1.0) & (np.abs(ystar) <= 1.0))
        best = np.maximum(best, np.where(ok, val(xstar, ystar), -np.inf))
    return best


def _max_abs_deg2_interval(C: np.ndarray) -> np.ndarray:
    """Exact max of |a + c t + f t^2| over [-1, 1], rowwise; C holds the
    columns a, c, f, or a prefix of them."""
    a, c, f = (C[:, j] if j < C.shape[1] else np.zeros(len(C))
               for j in range(3))

    def val(t):
        return np.abs((a + c * t) + f * t ** 2)

    best = np.maximum(val(-1.0), val(1.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tstar = -c / (2.0 * f)
        ok = np.isfinite(tstar) & (np.abs(tstar) <= 1.0)
        return np.maximum(best, np.where(ok, val(tstar), -np.inf))


@dataclass
class ChainSeminormResult:
    value: float
    witness: tuple | None
    num_pairs: int


def _pair_plan(family: CubeFamily, deg: int) -> tuple:
    """The chain seminorm less the data: the admissible pairs Q in Q' as
    rows of family.cubes (inner, outer) radius pair by radius pair, the
    matrices M that take P_Q' into Q's frame, the family's distinct radii
    and the index there of each outer radius."""
    radii = family.radii
    n = family.base_set.ambient_dim
    centers = np.array([Q.center for Q in family.cubes]).reshape(-1, n)
    cube_r = np.array([Q.radius for Q in family.cubes])
    rows = [np.flatnonzero(cube_r == r) for r in radii]
    parts = [(np.empty(0, dtype=np.intp),) * 3]  # inner, outer, big
    for bi, r_big in enumerate(radii):
        for si in range(max(0, bi - 2), bi):
            if r_big > 4.0 * radii[si] * (1 + 1e-12):
                continue
            # Q inside Q' when max |c_Q' - c_Q| <= r_Q' - r_Q
            gap = np.abs(centers[rows[bi], None] - centers[rows[si]]).max(2)
            bj, sj = np.nonzero(gap <= r_big - radii[si] + 1e-12)
            parts.append((rows[si][sj], rows[bi][bj], np.full(len(sj), bi)))
    inner, outer, big = (np.concatenate(p) for p in zip(*parts))
    # (x - c_Q')/r_Q' = (r_Q z + c_Q - c_Q')/r_Q' with z in Q's frame
    r = cube_r[outer, None]
    M = affine_matrices(n, deg, cube_r[inner, None] / r,
                        (centers[inner] - centers[outer]) / r)
    return inner, outer, M, radii, big


def chain_seminorm(chain: Chain, family: CubeFamily) -> ChainSeminormResult:
    """Max over admissible nested pairs of max_Q |P_Q - P_Q'| / omega(r_Q').

    Admissible means Q inside Q' with dyadic radii at most two rungs apart
    (the two-rung window t_i <= r_Q < r_Q' <= t_{i+2} for family radii that
    are exact powers of two), kept with their re-expansion matrices as the
    family's pair plan, built on first use.  A NaN ratio makes the result NaN.
    """
    if family is not chain.family:
        raise ValueError("chain_seminorm needs the chain's own cube family")
    deg = max(chain.k - 1, 0)
    inner, outer, M, radii, big = family.plan(
        ("pairs", deg), lambda: _pair_plan(family, deg))
    if not len(inner):
        return ChainSeminormResult(0.0, None, 0)
    n = family.base_set.ambient_dim
    D = chain.coefs[inner] - np.einsum("pij,pj->pi", M, chain.coefs[outer])
    if deg > 2 or n > 2:
        sups = np.array([sup_norm(Polynomial(n, deg, d), Cube((0.0,) * n, 1.0),
                                  budget=256) for d in D])
    else:
        sups = (_max_abs_deg2_interval if n == 1 else _max_abs_deg2_square)(D)
    ratios = sups / np.array([float(chain.omega(r)) for r in radii])[big]
    # argmax picks the first maximum, or the first NaN
    j = int(np.argmax(ratios))
    witness = (family.cubes[inner[j]], family.cubes[outer[j]])
    return ChainSeminormResult(float(ratios[j]), witness, len(inner))


# -- Whitney assembly --------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Regular grid with `shape` nodes from `lo` to `hi`; hashable, so that
    it keys the Whitney plans."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        for name, kind in (("lo", float), ("hi", float),
                           ("shape", operator.index)):
            object.__setattr__(self, name,
                               tuple(kind(v) for v in getattr(self, name)))
        if not len(self.lo) == len(self.hi) == len(self.shape) > 0:
            raise ValueError(f"grid lo, hi and shape differ in length: "
                             f"{self.lo}, {self.hi}, {self.shape}")
        if min(self.shape) < 2:
            raise ValueError(f"every grid axis needs two nodes: {self.shape}")
        if not all(-math.inf < a < b < math.inf
                   for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"grid needs finite lo < hi on every axis: "
                             f"{self.lo}, {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    def axes(self) -> list:
        return [np.linspace(self.lo[i], self.hi[i], self.shape[i])
                for i in range(self.dim)]

    def nodes(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    @property
    def spacing(self) -> float:
        return max((self.hi[i] - self.lo[i]) / (self.shape[i] - 1)
                   for i in range(self.dim))


@dataclass
class ExtensionField:
    grid: GridSpec
    values: np.ndarray
    holes: list
    chain_k: int

    def as_callable(self):
        from scipy.interpolate import RegularGridInterpolator
        interp = RegularGridInterpolator(tuple(self.grid.axes()),
                                         self.values.reshape(self.grid.shape),
                                         method="linear")
        return lambda pts: interp(np.atleast_2d(np.asarray(pts, dtype=float)))

    def to_csv(self, path) -> None:
        nodes = self.grid.nodes()
        header = ",".join(f"x{i+1}" for i in range(self.grid.dim)) + ",value"
        np.savetxt(path, np.column_stack([nodes, self.values]),
                   delimiter=",", header=header, comments="")

    def meta_json(self) -> dict:
        return {
            "grid": {"lo": list(self.grid.lo), "hi": list(self.grid.hi),
                     "shape": list(self.grid.shape)},
            "holes": len(self.holes),
            "k": self.chain_k,
        }


def _bump(t: np.ndarray) -> np.ndarray:
    """Smooth compactly supported profile exp(-1/(1-t^2)) on |t| < 1."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


# node-cube tables of one block of nodes hold about this many entries
_BLOCK_ENTRIES = 2 ** 15


class WhitneyPlan:
    """The Whitney assembly less the data, for one family, order, grid and
    set of kept (full-rank) cubes: every selected node-cube pair in node
    order, with the chain row of its cube (`rows`), its normalized bump
    weight (`w`) and the monomials of (y - c_Q)/r_Q (`mono`); the first
    pair of each covered node (`starts`) and that node (`nodes`); and the
    nodes no cube covers (`holes`).  Nodes are handled in blocks of about
    _BLOCK_ENTRIES node-cube pairs, every step one array operation."""

    def __init__(self, family: CubeFamily, keep: np.ndarray, deg: int,
                 grid: GridSpec):
        from scipy.spatial import cKDTree
        nodes = grid.nodes()
        centers = np.array([family.cubes[i].center for i in keep])
        radii = np.array([family.cubes[i].radius for i in keep])
        dist, _ = cKDTree(family.base_set.points).query(nodes)
        self.size = len(nodes)
        self.holes: list = []
        parts = []  # rows, w, mono, starts and nodes of each block of nodes
        pairs = 0
        step = max(1, _BLOCK_ENTRIES // len(keep))
        for lo in range(0, len(nodes), step):
            y = nodes[lo:lo + step]
            d = dist[lo:lo + step, None]
            supd = np.abs(y[:, :1] - centers[:, 0])
            for i in range(1, grid.dim):
                np.maximum(supd, np.abs(y[:, i:i + 1] - centers[:, i]),
                           out=supd)
            in_double = supd <= 2.0 * radii
            band = in_double & (radii >= d) & (radii <= 4.0 * d)
            # on-set nodes and band gaps: the covering cubes of smallest radius
            r_min = np.where(in_double, radii, np.inf).min(axis=1,
                                                           keepdims=True)
            sel = np.where(band.any(axis=1, keepdims=True), band,
                           in_double & (radii == r_min))
            self.holes.extend((lo + np.flatnonzero(~sel.any(axis=1))).tolist())
            rows, cols = np.nonzero(sel)
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            counts = np.diff(starts, append=len(rows))
            w = _bump(supd[rows, cols] / (2.0 * radii[cols]))
            total = np.add.reduceat(w, starts)
            flat = total == 0.0  # every bump vanishes: equal weights
            w[np.repeat(flat, counts)] = 1.0
            total[flat] = counts[flat]
            w /= np.repeat(total, counts)
            local = (y[rows] - centers[cols]) / radii[cols, None]
            parts.append((keep[cols], w, monomials(local, deg),
                          pairs + starts, lo + rows[starts]))
            pairs += len(rows)
        self.rows, self.w, mono, self.starts, self.nodes = (
            np.concatenate(chunks) for chunks in zip(*parts))
        # column-major, as monomials returns it: einsum sums the terms of a
        # row in another order, and so to other bits, on a row-major table
        self.mono = np.asfortranarray(mono)

    def apply(self, coefs: np.ndarray) -> np.ndarray:
        """Field values from the chain's coefficient rows; NaN at holes."""
        values = np.full(self.size, np.nan)
        vals = np.einsum("ij,ij->i", self.mono, coefs[self.rows])
        values[self.nodes] = np.add.reduceat(self.w * vals, self.starts)
        return values


def whitney_extend(chain: Chain, X: FractalSet, grid: GridSpec) -> ExtensionField:
    """Blend chain polynomials over an ambient grid with Whitney scaling.

    The blend is the family's Whitney plan for the chain's order, the grid
    and the chain's full-rank cubes, built on first use and kept with the
    family; X must be the family's own set.
    """
    family = chain.family
    if X is not family.base_set:
        raise ValueError("whitney_extend needs the chain family's base set")
    keep = ~chain.deficient
    if not keep.any():
        raise ValueError("chain has no full-rank entries to blend")
    plan = family.plan(
        ("whitney", chain.k, grid, keep.tobytes()),
        lambda: WhitneyPlan(family, np.flatnonzero(keep),
                            max(chain.k - 1, 0), grid))
    return ExtensionField(grid=grid, values=plan.apply(chain.coefs),
                          holes=list(plan.holes), chain_k=chain.k)


# -- end-to-end verification --------------------------------------------------


@dataclass
class ExtensionReport:
    trace_error: float
    lipschitz: float
    campanato: float
    ratio: float | None


def verify_extension(f_values: np.ndarray, fld: ExtensionField, X: FractalSet,
                     k: int, omega: Majorant, family: CubeFamily,
                     h_min: float | None = None) -> ExtensionReport:
    """Trace error, Lipschitz seminorm of the field, and the operator-norm
    proxy ratio against the trace seminorm of f over the family (q = 2).

    The Lipschitz probe keeps |h| in [h_min, h_max], where h_max is the
    shortest side of the probe box (the grid box less one spacing at each
    end) over 2k and h_min defaults to four grid spacings.  When comparing
    fields across grid refinements, pass the same explicit h_min so both
    runs probe the same smallest scale.
    """
    g = fld.as_callable()
    trace_err = float(np.max(np.abs(g(X.points) - np.asarray(f_values))))

    lo = np.asarray(fld.grid.lo) + fld.grid.spacing
    hi = np.asarray(fld.grid.hi) - fld.grid.spacing
    if not np.all(lo < hi):
        raise ValueError(f"the probe box (the grid less one spacing at each "
                         f"end) is empty: {fld.grid.shape} grid nodes")
    hm = float(np.min(hi - lo)) / (2.0 * k)
    hmin = h_min if h_min is not None else 4.0 * fld.grid.spacing
    decades = max(math.log10(hm / hmin), 0.5)
    lip = lipschitz_seminorm(g, k, omega, (lo, hi), h_decades=decades,
                             h_max=hm)
    camp = campanato_seminorm(f_values, family, k, 2, omega).value

    scale = float(np.max(np.abs(f_values))) if len(f_values) else 1.0
    ratio = None if camp <= 1e-12 * max(scale, 1.0) else lip / camp
    return ExtensionReport(trace_error=trace_err, lipschitz=lip,
                           campanato=camp, ratio=ratio)
