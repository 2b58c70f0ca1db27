"""Executable Cartan-type covering machinery on finite measure spaces.

Given a finite atomic measure and a majorant phi (continuous, strictly
increasing, phi(0) = 0, eventually exceeding the total mass A), the
threshold

    tau(x) = sup { t : xi(closed ball B_t(x)) >= phi(t) }

splits points into regular (tau = 0) and irregular.  For atomic measures
xi(B_t(x)) is a right-continuous step function of t, so tau is computed
exactly by scanning the finite set of jump radii.

greedy_ball_cover implements the exclusion-ball construction: repeatedly
take the point of largest tau among those not yet covered, emit the ball
of radius BETA * tau around it, and stop when every remaining candidate
is regular.  With the fixed constants ALPHA = 0.9 and BETA = 2.5, the
emitted balls B_k satisfy, for any gamma < ALPHA / BETA,

    sum_k phi(gamma * t_k) < A,    t_k nonincreasing,

and every candidate outside their union is regular.  For atomic measures
the number of balls never exceeds the number of atoms (each ball of radius
tau_k around its witness carries positive mass; these are pairwise disjoint).
The construction computes tau only for candidates that no ball covers yet,
and with equal masses it emits a witness of the largest possible tau as
soon as one is scanned (see greedy_ball_cover).

The two corollaries turn this into quantitative statements about the
log-potential u(x) = sum m_i ln d(x, x_i): a radius-sum budget with a
pointwise lower bound on u off the balls, and, for a univariate f with
f(0) = 1, exclusion disks outside which ln|f| >= -H(eta) ln M(2eR) with
H(eta) = 2 + ln(3e / (2 eta)), which holds for gamma = 1/3.

Every distance d here is the space's metric, Euclidean by default: tau,
the greedy cover and its audit, the potentials, and the ball and disk
membership tests all go through _atom_distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import golden_section_max
from .polynomials import Polynomial

DEFAULT_GAMMA = 1.0 / 3.0
ALPHA = 0.9
BETA = 2.5
MAX_CARTAN_DEGREE = 50
FLOOR_RTOL = 1e-9  # relative grace of the off-ball floors
BLOCK_ENTRIES = 1 << 18  # distances per tau block: 2 MB of float64


# -- measure spaces ----------------------------------------------------


@dataclass
class DiscreteMeasureSpace:
    """Finite weighted point set with a (pseudo)metric; A is the total mass.

    The metric defaults to Euclidean distance.  A custom pseudometric is
    spot-checked for symmetry and the triangle inequality on 100 random
    triples at construction.
    """

    points: np.ndarray
    masses: np.ndarray
    metric: object = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.masses = np.asarray(self.masses, dtype=float)
        if len(self.masses) != len(self.points):
            raise ValueError("points and masses must have equal length")
        if not (np.all(np.isfinite(self.points))
                and np.all(np.isfinite(self.masses))):
            raise ValueError("points and masses must be finite")
        if np.any(self.masses < 0):
            raise ValueError("masses must be non-negative")
        if self.metric is not None and len(self.points) >= 2:
            _spot_check_pseudometric(self)

    @classmethod
    def from_complex(cls, zs) -> "DiscreteMeasureSpace":
        zs = np.asarray(zs, dtype=complex)
        return cls(np.column_stack([zs.real, zs.imag]), np.ones(len(zs)))

    @property
    def A(self) -> float:
        return float(np.sum(self.masses))

    @property
    def size(self) -> int:
        return len(self.points)

    def extent(self) -> float:
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))


def _spot_check_pseudometric(space: DiscreteMeasureSpace):
    rng = np.random.default_rng(0)
    n = space.size
    d = space.metric
    for _ in range(100):
        i, j, k = rng.integers(0, n, size=3)
        x, y, z = space.points[i], space.points[j], space.points[k]
        if abs(d(x, y) - d(y, x)) > 1e-9 * (1.0 + abs(d(x, y))):
            raise ValueError("pseudometric is not symmetric")
        if d(x, z) > d(x, y) + d(y, z) + 1e-9:
            raise ValueError("pseudometric violates the triangle inequality")


# -- majorants ----------------------------------------------------------


@dataclass(frozen=True)
class MajorantFn:
    """The threshold phi(t) = (p t)^s: strictly increasing, phi(0) = 0,
    with a nondecreasing inverse, which the tau prune relies on."""

    p: float
    s: float

    @classmethod
    def power(cls, p: float, s: float) -> "MajorantFn":
        if not (0.0 < p < math.inf and 0.0 < s < math.inf):
            raise ValueError("power majorant needs finite p > 0, s > 0")
        return cls(float(p), float(s))

    def __call__(self, t):
        return (self.p * np.asarray(t, dtype=float)) ** self.s

    def inverse(self, y):
        return np.asarray(y, dtype=float) ** (1.0 / self.s) / self.p

    def validate(self, total_mass: float, diam: float) -> None:
        if float(self(0.0)) != 0.0:
            raise ValueError("majorant must vanish at 0")
        # the limit condition phi(t) > A for large t, checked at the larger
        # of 10*diam and a hair past phi^{-1}(A)
        horizon = max(10.0 * diam, 1.01 * float(self.inverse(total_mass)),
                      1e-12)
        if float(self(horizon)) <= total_mass:
            raise ValueError("majorant never exceeds the total mass")


# -- distances and the regularity threshold tau --------------------------


def _distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Euclidean distances as a (points x queries) array.

    Summing the squared coordinate differences one coordinate at a time and
    taking the square root in place rounds exactly like
    np.linalg.norm(queries[:, None] - points[None], axis=2).T, without
    holding the (queries, points, n) difference tensor.
    """
    D = np.subtract.outer(points[:, 0], queries[:, 0])
    D *= D
    for j in range(1, points.shape[1]):
        diff = np.subtract.outer(points[:, j], queries[:, j])
        diff *= diff
        D += diff
    return np.sqrt(D, out=D)


def _atom_distances(space: DiscreteMeasureSpace, atoms: np.ndarray,
                    queries: np.ndarray) -> np.ndarray:
    """(atoms x queries) distances under the space's metric, which is
    called as metric(query, atom)."""
    if space.metric is None:
        return _distances(atoms, queries)
    D = np.array([[space.metric(q, a) for a in atoms] for q in queries])
    return np.ascontiguousarray(D.reshape(len(queries), len(atoms)).T)


def _in_balls(space: DiscreteMeasureSpace, centers: np.ndarray,
              radii: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of points lying in the union of the closed balls.

    One distance row per ball: a single (balls x points) array is slower
    on large grids.
    """
    mask = np.zeros(len(points), dtype=bool)
    for c, r in zip(centers, radii):
        mask |= _atom_distances(space, c[None, :], points)[0] <= r
    return mask


def _step_scan(D: np.ndarray, masses: np.ndarray,
               phi: MajorantFn) -> np.ndarray:
    """Exact tau for each column of an (atoms x probes) distance array.

    xi(B_t(x)) jumps only at the atom distances; on each step interval
    [d_j, d_{j+1}) the condition xi >= phi(t) holds up to phi^{-1}(level_j),
    so tau is the largest valid min(phi^{-1}(level_j), d_{j+1}).  With equal
    masses every column gathers the same masses, so a plain sort and one
    level vector (the same sequential sums) give the argsort path's bits;
    NaN sorts last in both.
    """
    if np.all(masses == masses[:1]):
        Ds = np.sort(D, axis=0)
        # np.cumsum adds a 1-D vector sequentially, like the loop below
        inv = phi.inverse(np.cumsum(masses))[:, None]
    else:
        order = np.argsort(D, axis=0)
        Ds = np.take_along_axis(D, order, axis=0)
        levels = masses[order]
        del order
        # the same sequential additions as np.cumsum(levels, axis=0)
        for j in range(1, len(levels)):
            levels[j] += levels[j - 1]
        inv = phi.inverse(levels)
        del levels
    invalid = ~(inv >= Ds)
    # min(phi^{-1}(level_j), d_{j+1}), with d_{j+1} = inf on the last row
    cand = np.empty(Ds.shape)
    np.minimum(inv[:-1], Ds[1:], out=cand[:-1])
    cand[-1:] = inv[-1:]
    del Ds
    np.copyto(cand, 0.0, where=invalid)
    return np.max(cand, axis=0, initial=0.0)


def _finite_points(space: DiscreteMeasureSpace, points,
                   what: str) -> np.ndarray:
    """Points as a float array, rejected unless finite and of the space's
    dimension."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{what} points must be finite")
    if points.shape[1] != space.points.shape[1]:
        raise ValueError(f"{what} points are {points.shape[1]}-dimensional, "
                         f"the space's {space.points.shape[1]}-dimensional")
    return points


def tau_many(space: DiscreteMeasureSpace, phi: MajorantFn,
             queries: np.ndarray) -> np.ndarray:
    """Exact tau at each query point: distances, prune, step scan.

    Queries stream in blocks of about BLOCK_ENTRIES distances, so each
    (atoms x block) array stays in cache; every entry is computed as it
    would be in one array.  The prune is exact.  Every step level is a
    partial sum of the masses, so it is at most the total mass A and
    phi^{-1}(level) <= phi^{-1}(A).  A query whose nearest atom lies
    farther than phi^{-1}(A) fails phi^{-1}(level_j) >= d_j at every jump
    and has tau = 0, so it skips the scan.  The reach is widened by the
    rounding of the running sums (m eps relative) and a few ulps of
    phi^{-1}: the prune may keep extra queries but never drops one whose
    tau is positive.  Queries must be finite and have the space's
    dimension, and phi^{-1} of the smallest positive mass must not
    underflow below the normal range: at 0 the scan would read an
    irregular atom as regular, and a subnormal radius has too few bits for
    the cover's budget audit.
    """
    queries = _finite_points(space, queries, "query")
    keep = space.masses > 0
    atoms = space.points[keep]
    masses = space.masses[keep]
    out = np.zeros(len(queries))
    if len(atoms) == 0:
        return out
    # phi^{-1} is nondecreasing, so the smallest mass decides
    if float(phi.inverse(masses.min())) < np.finfo(float).tiny:
        raise ValueError("phi^{-1} of the smallest positive mass underflows; "
                         "rescale the masses")
    slack = 1.0 + 4.0 * len(masses) * np.finfo(float).eps + 1e-12
    reach = float(phi.inverse(np.sum(masses) * slack)) * slack
    step = max(1, BLOCK_ENTRIES // len(atoms))
    for lo in range(0, len(queries), step):
        D = _atom_distances(space, atoms, queries[lo:lo + step])
        # "not beyond", so that a NaN distance is scanned, not dropped
        live = ~(D.min(axis=0) > reach)
        out[lo:lo + step][live] = _step_scan(np.compress(live, D, axis=1),
                                             masses, phi)
    return out


# -- the greedy exclusion-ball construction -----------------------------


@dataclass
class CoverOutput:
    """Balls emitted by the greedy construction, with its audit trail."""

    centers: np.ndarray
    radii: np.ndarray
    taus: np.ndarray
    gamma: float
    budget_used: float

    @property
    def count(self) -> int:
        return len(self.radii)

    def to_json(self) -> dict:
        return {
            "centers": [list(map(float, c)) for c in self.centers],
            "radii": [float(r) for r in self.radii],
            "taus": [float(t) for t in self.taus],
            "gamma": self.gamma,
            "alpha": ALPHA,
            "beta": BETA,
            "budget_used": self.budget_used,
        }


def _candidates(space: DiscreteMeasureSpace,
                probes: np.ndarray) -> np.ndarray:
    """The atoms followed by the probe points, which must be finite."""
    if len(probes) == 0:
        return space.points
    return np.concatenate([space.points,
                           _finite_points(space, probes, "probe")])


def greedy_ball_cover(space: DiscreteMeasureSpace, phi: MajorantFn,
                      gamma: float = DEFAULT_GAMMA, *,
                      probes: np.ndarray) -> CoverOutput:
    """Cover all irregular candidate points by exclusion balls.

    Candidates are the atoms plus any caller-supplied probe points; for
    atomic measures this makes the construction exact at the atoms, and
    probes extend the regularity guarantee to off-atom points.  The
    witness at each step is the candidate of maximal tau, ties broken by
    lowest index, so runs are reproducible.

    Candidates stream in index order in tau_many's blocks, and tau is
    computed only for those no ball covers yet.  With equal positive
    masses no tau exceeds top, the largest entry of the level vector
    phi^{-1}(cumsum(masses)) that the step scan reads, so an uncovered
    candidate whose tau equals top is the next witness and is emitted as
    soon as its block is scanned.  The argmax loop then runs on the known
    taus.  The balls are the same bits as the argmax loop's over every tau.
    """
    if not 0.0 < gamma < ALPHA / BETA:
        raise ValueError(f"gamma must lie in (0, {ALPHA / BETA:g})")
    phi.validate(space.A, space.extent())

    cands = _candidates(space, probes)
    masses = space.masses[space.masses > 0]
    top = (float(np.max(phi.inverse(np.cumsum(masses))))
           if len(masses) and np.all(masses == masses[0]) else np.inf)
    uncovered = np.ones(len(cands), dtype=bool)
    centers, radii, taus = [], [], []

    def emit(x_k, tau_k, points):
        """Record the ball around x_k; mask of the points it leaves out."""
        t_k = BETA * tau_k
        centers.append(x_k)
        radii.append(t_k)
        taus.append(tau_k)
        return _atom_distances(space, x_k[None], points)[0] > t_k

    # A regular candidate is never a witness and nothing reads whether it
    # is covered, so only the irregular ones are kept, in index order so
    # that the lowest-index tie-break still holds.
    irregular, irregular_taus = [np.zeros(0, dtype=int)], [np.zeros(0)]
    step = max(1, BLOCK_ENTRIES // max(1, len(masses)))
    for lo in range(0, len(cands), step):
        live = uncovered[lo:lo + step]
        if not np.any(live):
            continue
        queries = cands[lo:lo + step]
        if not np.all(live):
            queries = np.compress(live, queries, axis=0)
        block_taus = tau_many(space, phi, queries)
        ids = lo + np.flatnonzero(live)
        irregular.append(ids[block_taus > 0.0])
        irregular_taus.append(block_taus[block_taus > 0.0])
        witnesses = ids[block_taus == top]
        while len(witnesses):
            k = witnesses[0]
            uncovered &= emit(cands[k], top, cands)
            witnesses = witnesses[uncovered[witnesses]]

    irregular = np.concatenate(irregular)
    left = uncovered[irregular]
    cands = cands[irregular[left]]
    taus_all = np.concatenate(irregular_taus)[left]
    uncovered = np.ones(len(cands), dtype=bool)
    for _ in range(len(cands) + 1):
        if not np.any(uncovered):
            break
        k = int(np.argmax(np.where(uncovered, taus_all, -np.inf)))
        uncovered &= emit(cands[k], taus_all[k], cands)

    centers = np.array(centers) if centers else np.zeros((0, cands.shape[1]))
    radii = np.array(radii)
    taus = np.array(taus)
    budget = float(np.sum(phi(gamma * radii))) if len(radii) else 0.0
    return CoverOutput(centers=centers, radii=radii, taus=taus, gamma=gamma,
                       budget_used=budget)


def verify_cover(space: DiscreteMeasureSpace, phi: MajorantFn,
                 cover: CoverOutput, probes: np.ndarray) -> dict:
    """Audit the construction's postconditions on a finished cover."""
    checks = {
        "budget_below_total_mass": (cover.budget_used < space.A
                                    if cover.count else True),
        "radii_nonincreasing": bool(np.all(np.diff(cover.radii) <= 1e-12))
        if cover.count else True,
        "ball_count_le_atoms": cover.count <= int(np.sum(space.masses > 0)),
    }
    cands = _candidates(space, probes)
    outside = ~_in_balls(space, cover.centers, cover.radii, cands)
    # recompute tau with the unpruned scan in one block, independently of
    # tau_many's blocks and prune
    keep = space.masses > 0
    support = space.points[keep]
    taus_out = _step_scan(_atom_distances(space, support, cands[outside]),
                          space.masses[keep], phi)
    checks["uncovered_points_regular"] = bool(np.all(taus_out == 0.0))
    # each tau-ball around its witness carries positive mass
    D = _atom_distances(space, cover.centers, support)
    checks["tau_balls_meet_support"] = bool(np.all(np.any(
        D <= cover.taus[:, None] + 1e-12, axis=1)))
    checks["emitted_balls_cover_support"] = bool(np.all(
        _in_balls(space, cover.centers, cover.radii, support)))
    return checks


# -- log-potentials ------------------------------------------------------


def potential_many(space: DiscreteMeasureSpace,
                   queries: np.ndarray) -> np.ndarray:
    """u(x) = sum m_i ln d(x, x_i) at each query point under the space's
    metric, -inf where positive mass sits at x; queries must be finite and
    have the space's dimension."""
    queries = _finite_points(space, queries, "query")
    keep = space.masses > 0
    if not np.any(keep):
        return np.zeros(len(queries))
    D = _atom_distances(space, space.points[keep], queries).T
    out = np.full(len(queries), -np.inf)
    ok = np.all(D > 0.0, axis=1)
    with np.errstate(divide="ignore"):
        out[ok] = np.log(D[ok]) @ space.masses[keep]
    return out


def _off_ball_floor(space: DiscreteMeasureSpace, centers: np.ndarray,
                    radii: np.ndarray, points: np.ndarray, values,
                    bound: float) -> tuple:
    """Check values(x) >= bound at the points outside the closed balls.

    values is called with the mask of those points among `points`.
    Returns (number checked, violations, worst margin).  A point violates
    the floor when its margin falls below -FLOOR_RTOL (1 + |bound|); the
    worst margin is None when no point is checked.
    """
    off = ~_in_balls(space, centers, radii, points)
    margins = values(off) - bound
    worst = float(margins.min()) if len(margins) else None
    bad = margins < -FLOOR_RTOL * (1.0 + abs(bound))
    violations = [{"point": list(map(float, pt)), "margin": float(m)}
                  for pt, m in zip(points[np.flatnonzero(off)[bad]],
                                   margins[bad])]
    return len(margins), violations, worst


# -- corollary: radius-sum budget + potential lower bound -----------------


@dataclass
class PotentialBoundReport:
    cover: CoverOutput
    radius_sum_s: float
    radius_cap: float
    lower_bound: float
    num_checked: int
    violations: list
    worst_margin: float | None

    @property
    def ok(self) -> bool:
        return self.radius_sum_s < self.radius_cap and not self.violations


def potential_bound_verify(space: DiscreteMeasureSpace, H: float, s: float,
                           gamma: float = DEFAULT_GAMMA, *,
                           grid: np.ndarray) -> PotentialBoundReport:
    """Emit exclusion balls for the total mass k and certify on a grid that

        sum r_j^s < (H / gamma)^s / s   and   u(x) >= k ln(H / e)

    at every grid point outside the balls.  The majorant is (p t)^s with
    p = (k s)^{1/s} / H; grid points are included among the construction's
    candidates so every uncovered grid point is certifiably regular.
    """
    if not (H > 0.0 and s > 0.0 and 0.0 < gamma < ALPHA / BETA):
        raise ValueError(f"need H, s > 0 and 0 < gamma < {ALPHA / BETA:g}")
    grid = _finite_points(space, grid, "grid")
    k = space.A
    cap = (H / gamma) ** s / s
    if k == 0.0:
        empty = CoverOutput(np.zeros((0, space.points.shape[1])),
                            np.zeros(0), np.zeros(0), gamma, 0.0)
        return PotentialBoundReport(empty, 0.0, cap, 0.0, len(grid), [], None)
    p = (k * s) ** (1.0 / s) / H
    phi = MajorantFn.power(p, s)
    cover = greedy_ball_cover(space, phi, gamma=gamma, probes=grid)
    radius_sum_s = float(np.sum(cover.radii ** s))
    bound = k * math.log(H / math.e)
    checked, violations, worst = _off_ball_floor(
        space, cover.centers, cover.radii, grid,
        lambda off: potential_many(space, np.compress(off, grid, axis=0)),
        bound)
    return PotentialBoundReport(cover=cover, radius_sum_s=radius_sum_s,
                                radius_cap=cap, lower_bound=bound,
                                num_checked=checked, violations=violations,
                                worst_margin=worst)


# -- corollary: exclusion disks for univariate polynomials ---------------


def polynomial_zeros(f: Polynomial) -> np.ndarray:
    """Zeros of a univariate polynomial via the companion matrix, polished
    by three Newton steps."""
    if f.num_vars != 1:
        raise ValueError("zeros are computed for univariate polynomials only")
    deg = f.degree()
    if deg == 0:
        return np.zeros(0, dtype=complex)
    if deg > MAX_CARTAN_DEGREE:
        raise ValueError(f"degree {deg} exceeds the cap {MAX_CARTAN_DEGREE}")
    roots = np.roots(np.asarray(f.coeffs[: deg + 1], dtype=complex)[::-1])
    df = f.partial(0)
    for _ in range(3):
        fz = f.eval_many(roots)
        dfz = df.eval_many(roots)
        ok = np.abs(dfz) > 1e-14
        roots[ok] = roots[ok] - fz[ok] / dfz[ok]
    return roots


def _circle_max_abs(f: Polynomial, radius: float) -> float:
    samples = 4096
    th = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = np.abs(f.eval_many(radius * np.exp(1j * th)))
    j = int(np.argmax(vals))

    def abs_f(theta):
        return np.abs(f.eval_many(radius * np.exp(1j * theta.ravel()))
                      ).reshape(theta.shape)

    step = 2.0 * math.pi / samples
    theta = golden_section_max(abs_f, [th[j] - step], [th[j] + step], 40)
    return max(float(vals.max()), float(abs_f(theta)[0]))


@dataclass
class CartanDiskReport:
    disks: list                # (complex center, radius) pairs
    zeros: np.ndarray
    eta: float
    R: float
    H_eta: float
    log_max: float             # ln M(2eR)
    lower_bound: float         # -H(eta) * ln M(2eR)
    radius_sum: float
    num_checked: int
    violations: list
    worst_margin: float | None
    half_radius_covers_zeros: bool

    @property
    def ok(self) -> bool:
        return (self.radius_sum <= 4.0 * self.eta * self.R
                and not self.violations and self.half_radius_covers_zeros)


def cartan_exclusion_disks(f: Polynomial, R: float, eta: float,
                           grid: np.ndarray) -> CartanDiskReport:
    """Exclusion disks for ln|f| on |z| <= R, for univariate f with f(0) = 1.

    The zeros of f in |z| <= 2R carry unit masses and the ball construction
    runs with gamma = 1/3, phi(t) = (p t) and p = (#zeros) / (4 gamma eta R),
    so the disk radii satisfy sum r_i <= 4 eta R.  Off the disks the
    potential bound chains into

        ln|f(z)| >= -H(eta) ln M(2eR),   H(eta) = 2 + ln(3e / (2 eta)),

    which is verified on the supplied grid, a 1-D array of complex points
    (grid points participate as construction candidates, so uncovered ones
    are certifiably regular).
    """
    if f.num_vars != 1:
        raise ValueError("univariate polynomials only")
    if not 0.0 < eta <= 1.5 * math.e:
        raise ValueError("eta must lie in (0, 3e/2]")
    if R <= 0:
        raise ValueError("R must be positive")
    grid = np.asarray(grid)
    if grid.ndim != 1 or not np.iscomplexobj(grid):
        raise ValueError("grid must be a 1-D array of complex points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    f0 = f.eval_many(np.array([0.0 + 0.0j]))[0]
    if abs(f0 - 1.0) > 1e-12:
        raise ValueError(f"f(0) must equal 1 (got {f0}); normalize caller-side")

    H_eta = 2.0 + math.log(1.5 * math.e / eta)
    M = _circle_max_abs(f, 2.0 * math.e * R)
    M = max(M, 1.0)  # f(0) = 1 forces M >= 1; guard sampling slack
    log_max = math.log(M)
    lower = -H_eta * log_max

    roots = polynomial_zeros(f)
    zeros_in = roots[np.abs(roots) <= 2.0 * R]

    space = DiscreteMeasureSpace.from_complex(zeros_in)
    centers, radii = np.zeros((0, 2)), np.zeros(0)
    radius_sum = 0.0
    if len(zeros_in):
        H_c = 4.0 * DEFAULT_GAMMA * eta * R
        phi = MajorantFn.power(len(zeros_in) / H_c, 1.0)
        cover = greedy_ball_cover(
            space, phi, probes=np.column_stack([grid.real, grid.imag]))
        centers, radii = cover.centers, cover.radii
        radius_sum = float(np.sum(radii))
        # A ball can swallow a zero in its outer half, where the halved
        # disk misses it.  Such zeros get their own disks, paid for out
        # of the strict slack left in the radius-sum budget; excluding
        # more points never weakens the off-disk lower bound.
        stranded = space.points[~_in_balls(space, centers, radii / 2.0,
                                           space.points)]
        slack = 4.0 * eta * R - radius_sum
        if len(stranded) and slack > 0.0:
            share = 0.5 * slack / len(stranded)
            r_extra = np.minimum(BETA * tau_many(space, phi, stranded), share)
            centers = np.concatenate([centers, stranded])
            radii = np.concatenate([radii, r_extra])
            for r in r_extra:
                radius_sum += float(r)

    zs = np.compress(np.abs(grid) <= R, grid)

    def log_abs_f(off):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(f.eval_many(np.compress(off, zs))))

    checked, violations, worst = _off_ball_floor(
        space, centers, radii, np.column_stack([zs.real, zs.imag]),
        log_abs_f, lower)

    half_ok = bool(np.all(_in_balls(space, centers, radii / 2.0 + 1e-12,
                                    space.points)))
    disks = [(complex(c[0], c[1]), float(r)) for c, r in zip(centers, radii)]

    return CartanDiskReport(disks=disks, zeros=zeros_in, eta=eta, R=R,
                            H_eta=H_eta, log_max=log_max, lower_bound=lower,
                            radius_sum=radius_sum, num_checked=checked,
                            violations=violations, worst_margin=worst,
                            half_radius_covers_zeros=half_ok)
