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
With equal masses the witnesses of the largest possible tau are found by
their farthest atom, and tau is taken once for the candidates they leave.

The two corollaries turn this into quantitative statements about the
log-potential u(x) = sum m_i ln d(x, x_i): a radius-sum budget with a
pointwise lower bound on u off the balls, and, for a univariate f with
f(0) = 1, exclusion disks outside which ln|f| >= -H(eta) ln M(2eR) with
H(eta) = 2 + ln(3e / (2 eta)), which holds for gamma = 1/3.  The N = 4096
samples of f on |z| = 2eR are one FFT of the a_k (2eR)^k, and their max
M_N <= M sets the floor, which only makes the check stricter.  T = |f|^2 on
the circle is a trigonometric polynomial of degree d, so Bernstein's
|T''| <= d^2 max T, with T' = 0 at the max, certifies
M <= M_N / sqrt(1 - (pi d / N)^2 / 2), M_N widened by the FFT's rounding.
Both floors take one ball mask over the grid per call, then walk it in
pieces, and the off-disk ln|f| is Horner's rule in place on each piece, so
no floor temporary but that bool mask grows with grid or degree.  When one
disk has |c| + R < r (1 - 1e-12), the Cartan floor skips the walk: a grid
point of computed |z| <= R has computed distance to c at most
(|c| + R)(1 + a few ulps) <= r, so the walk would check none of them.

Every distance d here is Euclidean: tau, the greedy cover and its audit,
the potentials and the ball and disk membership tests use _distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial

DEFAULT_GAMMA = 1.0 / 3.0
ALPHA = 0.9
BETA = 2.5
MAX_CARTAN_DEGREE = 50
CIRCLE_SAMPLES = 4096  # FFT length of the circle maximum M(2eR)
FFT_ROUNDING = 8.0 * math.log2(CIRCLE_SAMPLES) * np.finfo(float).eps
FLOOR_RTOL = 1e-9  # relative grace of the off-ball floors
BLOCK_ENTRIES = 1 << 18  # distances per tau block: 2 MB of float64
BOX = 1024  # consecutive points per bounding box of the ball queries


# -- measure spaces ----------------------------------------------------


@dataclass
class DiscreteMeasureSpace:
    """Finite weighted point set in Euclidean space; A is the total mass."""

    points: np.ndarray
    masses: np.ndarray
    metric = None  # not a field; read only by perfbench/tracer.py's tau hook

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

    @property
    def A(self) -> float:
        return float(np.sum(self.masses))

    def extent(self) -> float:
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))


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


def _near_blocks(centers: np.ndarray, radii: np.ndarray,
                 points: np.ndarray) -> np.ndarray:
    """(centers x blocks) mask of the BOX-point blocks of points whose
    bounding box meets each closed ball.  Box gaps add up in _distances'
    order and rounding is monotone, so a missed block holds no point whose
    computed distance is within r."""
    n, blocks = points.shape[1], -(-len(points) // BOX)
    pad = np.repeat(points[-1:].T, -len(points) % BOX, axis=1)
    P = np.hstack([points.T, pad]).reshape(n, blocks, BOX)  # contiguous rows
    lo, hi, G = P.min(axis=2), P.max(axis=2), np.zeros((len(centers), blocks))
    for c, lo_j, hi_j in zip(centers.T[:, :, None], lo, hi):
        G += np.maximum(np.maximum(lo_j - c, c - hi_j), 0.0) ** 2
    return np.sqrt(G, out=G) <= radii[:, None]


def _runs(centers: np.ndarray, radii: np.ndarray, points: np.ndarray) -> list:
    """Point slices (start, stop, near) of about BLOCK_ENTRIES distances
    that cut each run of BOX-point blocks met by one nonempty set of the
    closed balls (_near_blocks); near masks that set."""
    near = _near_blocks(centers, radii, points)
    edges = np.flatnonzero(np.any(near[:, 1:] != near[:, :-1], axis=0)) + 1
    cuts, pieces = [0, *edges.tolist(), near.shape[1]], []
    for a, b in zip(cuts, cuts[1:]):
        if a < b and np.any(near[:, a]):  # no blocks: cuts == [0, 0]
            stop = min(b * BOX, len(points))
            step = max(1, BLOCK_ENTRIES // int(np.count_nonzero(near[:, a])))
            pieces += [(lo, min(lo + step, stop), near[:, a])
                       for lo in range(a * BOX, stop, step)]
    return pieces


def _in_balls(centers: np.ndarray, radii: np.ndarray,
              points: np.ndarray) -> np.ndarray:
    """Mask of points in the union of the closed balls.  Each run of _runs
    takes distances only to the balls that meet its boxes, so the work
    scales with those (ball, box) pairs; a ball left out holds none of the
    run's points, so the bits are those of one distance row per ball."""
    mask = np.zeros(len(points), dtype=bool)
    for lo, hi, near in _runs(centers, radii, points):
        D = _distances(centers[near], points[lo:hi])
        mask[lo:hi] = np.any(D <= radii[near, None], axis=0)
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

    The prune is exact.  Every step level is a partial sum of the masses,
    so it is at most the total mass A and phi^{-1}(level) <= phi^{-1}(A).
    A query whose nearest atom lies farther than phi^{-1}(A) fails
    phi^{-1}(level_j) >= d_j at every jump, so tau = 0 and it skips the
    scan.  The reach is widened by the rounding of the running sums (m eps
    relative) and a few ulps of phi^{-1}: the prune may keep extra queries
    but never drops one whose tau is positive.  Each run of _runs takes
    distances only to the atoms in reach of its boxes, so the work scales
    with those (atom, box) pairs.  A run is scanned in place against its
    near atoms if they are all atoms or all masses are equal: a far atom
    lies past reach and every level, so a full scan adds it only as an
    invalid row or a d_{j+1} that loses the min to its level, and equal
    masses make the near levels the full ones' first entries.  Unequal
    masses may reorder tied atoms' running sums, so other runs only mark
    live queries, scanned against every atom afterwards; each scanned
    column has the bits of one unpruned array.  Queries must be finite and
    have the space's dimension, and neither the smallest positive mass
    nor its phi^{-1} may underflow below the normal range: at 0 the scan
    would read an irregular atom as regular, and a subnormal mass or
    radius has too few bits for the cover's budget audit.
    """
    queries = _finite_points(space, queries, "query")
    keep = space.masses > 0
    atoms, masses = space.points[keep], space.masses[keep]
    out = np.zeros(len(queries))
    if len(atoms) == 0:
        return out
    # phi^{-1} is nondecreasing, so the smallest mass decides
    if min(masses.min(), phi.inverse(masses.min())) < np.finfo(float).tiny:
        raise ValueError("the smallest positive mass or its phi^{-1} "
                         "underflows; rescale the masses")
    slack = 1.0 + 4.0 * len(masses) * np.finfo(float).eps + 1e-12
    reach = float(phi.inverse(np.sum(masses) * slack)) * slack
    deferred = [np.zeros(0, dtype=int)]
    for lo, hi, near in _runs(atoms, np.full(len(atoms), reach), queries):
        D = _distances(atoms[near], queries[lo:hi])
        # "not beyond", so that a NaN distance is scanned, not dropped
        live = ~(D.min(axis=0) > reach)
        if np.all(near) or np.all(masses == masses[0]):
            out[lo:hi][live] = _step_scan(np.compress(live, D, axis=1),
                                          masses[near], phi)
        else:
            deferred.append(lo + np.flatnonzero(live))
    deferred = np.concatenate(deferred)
    step = max(1, BLOCK_ENTRIES // len(atoms))
    for lo in range(0, len(deferred), step):
        ids = deferred[lo:lo + step]
        out[ids] = _step_scan(_distances(atoms, queries[ids]), masses, phi)
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
        return {"centers": [list(map(float, c)) for c in self.centers],
                "radii": [float(r) for r in self.radii],
                "taus": [float(t) for t in self.taus], "gamma": self.gamma,
                "alpha": ALPHA, "beta": BETA, "budget_used": self.budget_used}


def greedy_ball_cover(space: DiscreteMeasureSpace, phi: MajorantFn,
                      gamma: float = DEFAULT_GAMMA, *,
                      probes: np.ndarray) -> CoverOutput:
    """Cover all irregular candidate points by exclusion balls.

    Candidates are the atoms plus any caller-supplied probe points; for
    atomic measures this makes the construction exact at the atoms, and
    probes extend the regularity guarantee to off-atom points.  The
    witness at each step is the candidate of maximal tau, ties broken by
    lowest index, so runs are reproducible.

    tau is taken in one call for the atoms, then in one for the probes
    no ball covers yet (two arrays, never joined).  With equal positive
    masses no tau exceeds top, the largest level phi^{-1}(cumsum(masses))
    of the step scan, so an uncovered candidate of tau top is the next
    witness, emitted in index order: atoms first, then probes.  If every
    other level is below top, tau(x) == top exactly when all atoms lie
    within top of x, so probes are tested by their farthest atom (unless
    two atoms are over 2 top apart).  The argmax loop then runs on the
    irregular candidates left, and the balls are its bits over every tau.
    """
    if not 0.0 < gamma < ALPHA / BETA:
        raise ValueError(f"gamma must lie in (0, {ALPHA / BETA:g})")
    phi.validate(space.A, space.extent())

    atoms = space.points
    probes = (_finite_points(space, probes, "probe") if len(probes)
              else atoms[:0])
    m = len(atoms)
    support, masses = atoms[space.masses > 0], space.masses[space.masses > 0]
    levels = phi.inverse(np.cumsum(masses))
    equal = len(masses) and np.all(masses == masses[0])
    top = float(np.max(levels)) if equal else np.inf
    uncovered = np.ones(m + len(probes), dtype=bool)
    centers, taus = [], []

    def emit(x_k, tau_k, *parts):
        """Record the ball around x_k; mask of parts' points outside it."""
        centers.append(x_k)
        taus.append(tau_k)
        return np.concatenate([_distances(x_k[None], p)[0] > BETA * tau_k
                               for p in parts])

    def emit_top(witnesses):
        """Emit, in index order, each top-valued witness left uncovered."""
        while len(witnesses):
            k = witnesses[0]
            uncovered[:] &= emit(atoms[k] if k < m else probes[k - m], top,
                                 atoms, probes)
            witnesses = witnesses[uncovered[witnesses]]

    atom_taus = tau_many(space, phi, atoms)
    emit_top(np.flatnonzero(atom_taus == top))
    if equal and np.max(levels[:-1], initial=0.0) < top and (
            _distances(support[:1], support).max() / 2.0
            <= top * (1.0 + 1e-12)):
        step = max(1, BLOCK_ENTRIES // len(masses))
        for lo in range(0, len(probes), step):
            live = uncovered[m + lo:m + lo + step]
            queries = np.compress(live, probes[lo:lo + step], axis=0)
            far = _distances(support, queries).max(axis=0)
            emit_top(m + lo + np.flatnonzero(live)[far <= top])
    live = uncovered[m:]
    probe_taus = tau_many(space, phi, probes if np.all(live)
                          else probes[live]) if np.any(live) else np.zeros(0)
    a, p = uncovered[:m] & (atom_taus > 0.0), probe_taus > 0.0
    cands = np.concatenate([atoms[a], probes[np.flatnonzero(live)[p]]])
    taus_all = np.concatenate([atom_taus[a], probe_taus[p]])
    uncovered = np.ones(len(cands), dtype=bool)
    while np.any(uncovered):  # each ball covers its own witness
        k = int(np.argmax(np.where(uncovered, taus_all, -np.inf)))
        uncovered &= emit(cands[k], taus_all[k], cands)

    centers = np.array(centers) if centers else np.zeros((0, atoms.shape[1]))
    radii = BETA * np.array(taus)
    return CoverOutput(centers, radii, np.array(taus), gamma,
                       float(np.sum(phi(gamma * radii))))


def verify_cover(space: DiscreteMeasureSpace, phi: MajorantFn,
                 cover: CoverOutput, probes: np.ndarray) -> dict:
    """Audit the construction's postconditions on a finished cover."""
    checks = {
        "budget_below_total_mass": (cover.budget_used < space.A
                                    if cover.count else True),
        "radii_nonincreasing": bool(np.all(np.diff(cover.radii) <= 1e-12)),
        "ball_count_le_atoms": cover.count <= int(np.sum(space.masses > 0)),
    }
    probes = (_finite_points(space, probes, "probe") if len(probes)
              else space.points[:0])
    outside = np.concatenate([p[~_in_balls(cover.centers, cover.radii, p)]
                              for p in (space.points, probes)])
    # recompute tau with the unpruned scan in one block, independently of
    # tau_many's blocks and prune
    keep = space.masses > 0
    support = space.points[keep]
    taus_out = _step_scan(_distances(support, outside), space.masses[keep],
                          phi)
    checks["uncovered_points_regular"] = bool(np.all(taus_out == 0.0))
    # each tau-ball around its witness carries positive mass
    D = _distances(cover.centers, support)
    checks["tau_balls_meet_support"] = bool(np.all(np.any(
        D <= cover.taus[:, None] + 1e-12, axis=1)))
    checks["emitted_balls_cover_support"] = bool(np.all(
        _in_balls(cover.centers, cover.radii, support)))
    return checks


# -- log-potentials ------------------------------------------------------


def potential_many(space: DiscreteMeasureSpace,
                   queries: np.ndarray) -> np.ndarray:
    """u(x) = sum m_i ln |x - x_i| at each query point, -inf where
    positive mass sits at x; queries must be finite and have the space's
    dimension."""
    queries = _finite_points(space, queries, "query")
    keep = space.masses > 0
    if not np.any(keep):
        return np.zeros(len(queries))
    D = _distances(space.points[keep], queries).T
    out = np.full(len(queries), -np.inf)
    ok = np.all(D > 0.0, axis=1)
    with np.errstate(divide="ignore"):
        out[ok] = np.log(D[ok]) @ space.masses[keep]
    return out


def _off_ball_floor(centers: np.ndarray, radii: np.ndarray,
                    points: np.ndarray, values, bound: float,
                    within=lambda p: np.ones(len(p), dtype=bool)) -> tuple:
    """Check values(p) >= bound at the points p within (all by default)
    and outside the closed balls: one ball mask over all the points, then
    pieces of BLOCK_ENTRIES // 16 points (a multiple of BOX), each with its
    own selection, values and margins.  Returns (number checked, violations
    in point order, worst margin or None); margins below
    -FLOOR_RTOL (1 + |bound|) fail."""
    checked, violations, lows = 0, [], []
    step = max(1, BLOCK_ENTRIES // 16)
    outside = ~_in_balls(centers, radii, points)
    for lo in range(0, len(points), step):
        piece = points[lo:lo + step]
        piece = np.compress(within(piece) & outside[lo:lo + step], piece,
                            axis=0)
        margins = values(piece) - bound
        lows.append(margins.min(initial=np.inf))
        bad = np.flatnonzero(margins < -FLOOR_RTOL * (1.0 + abs(bound)))
        violations += [{"point": list(map(float, piece[i])),
                        "margin": float(margins[i])} for i in bad]
        checked += len(piece)
    return checked, violations, float(np.min(lows)) if checked else None


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
    bound = k * math.log(H / math.e) + 0.0  # k = 0 gives 0.0, not -0.0
    cover = CoverOutput(np.zeros((0, space.points.shape[1])), np.zeros(0),
                        np.zeros(0), gamma, 0.0)  # no mass: u = 0, no balls
    if k > 0.0:
        phi = MajorantFn.power((k * s) ** (1.0 / s) / H, s)
        cover = greedy_ball_cover(space, phi, gamma=gamma, probes=grid)
    checked, violations, worst = _off_ball_floor(
        cover.centers, cover.radii, grid,
        lambda piece: potential_many(space, piece), bound)
    return PotentialBoundReport(cover, float(np.sum(cover.radii ** s)),
                                (H / gamma) ** s / s, bound, checked,
                                violations, worst)


# -- corollary: exclusion disks for univariate polynomials ---------------


def polynomial_zeros(f: Polynomial) -> np.ndarray:
    """Zeros of a univariate polynomial via the companion matrix, polished
    by three Newton steps."""
    if f.num_vars != 1:
        raise ValueError("zeros are computed for univariate polynomials only")
    deg = f.degree()
    if deg == 0:
        return np.zeros(0, dtype=complex)
    roots = np.roots(np.asarray(f.coeffs[: deg + 1], dtype=complex)[::-1])
    df = f.partial(0)
    for _ in range(3):
        fz = f.eval_many(roots)
        dfz = df.eval_many(roots)
        ok = np.abs(dfz) > 1e-14
        roots[ok] = roots[ok] - fz[ok] / dfz[ok]
    return roots


def _circle_max_abs(f: Polynomial, radius: float) -> tuple:
    """(M_N, M_up), M_N <= max |f| on |z| = radius <= M_up (module docstring):
    M_up widens M_N by FFT_ROUNDING sum |a_k| radius^k; needs pi d < 1.41 N."""
    d = f.degree()
    a = f.coeffs[: d + 1] * radius ** np.arange(d + 1)
    M_N = float(np.abs(np.fft.fft(a, CIRCLE_SAMPLES)).max())
    slack = FFT_ROUNDING * float(np.abs(a).sum())
    return M_N, (M_N + slack) / math.sqrt(
        1.0 - 0.5 * (math.pi * d / CIRCLE_SAMPLES) ** 2)


def _horner(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k a_k z^k at each z by Horner's rule, in place on one array."""
    acc = np.full(len(z), a[-1], dtype=complex)
    for a_k in a[-2::-1]:
        acc *= z
        acc += a_k
    return acc


@dataclass
class CartanDiskReport:
    disks: list                # (complex center, radius) pairs
    zeros: np.ndarray
    eta: float
    R: float
    lower_bound: float         # -H(eta) * ln M_N
    M_bracket: tuple           # (M_N, certified upper end) of M(2eR)
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
    are certifiably regular).  The floor takes M(2eR)'s sample max M_N, and
    M_bracket = (M_N, certified upper end); deg f <= MAX_CARTAN_DEGREE.
    """
    if f.num_vars != 1 or f.degree() > MAX_CARTAN_DEGREE:
        raise ValueError(f"univariate f of degree <= {MAX_CARTAN_DEGREE} only")
    if not 0.0 < eta <= 1.5 * math.e:
        raise ValueError("eta must lie in (0, 3e/2]")
    if R <= 0:
        raise ValueError("R must be positive")
    grid = np.asarray(grid)
    if grid.ndim != 1 or not np.iscomplexobj(grid):
        raise ValueError("grid must be a 1-D array of complex points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    pts = np.ascontiguousarray(grid, complex).view(float).reshape(-1, 2)
    f0 = f.eval_many(np.array([0.0 + 0.0j]))[0]
    if abs(f0 - 1.0) > 1e-12:
        raise ValueError(f"f(0) must equal 1 (got {f0}); normalize caller-side")

    # M_N <= M raises the floor; f(0) = 1 forces M >= 1; 0.0 - 0.0 = +0.0
    M_N, M_up = _circle_max_abs(f, 2.0 * math.e * R)
    lower = 0.0 - (2.0 + math.log(1.5 * math.e / eta)) * math.log(max(M_N, 1))

    roots = polynomial_zeros(f)
    zeros_in = roots[np.abs(roots) <= 2.0 * R]

    space = DiscreteMeasureSpace(zeros_in.view(float).reshape(-1, 2),
                                 np.ones(len(zeros_in)))
    centers, radii, radius_sum = np.zeros((0, 2)), np.zeros(0), 0.0
    if len(zeros_in):
        H_c = 4.0 * DEFAULT_GAMMA * eta * R
        phi = MajorantFn.power(len(zeros_in) / H_c, 1.0)
        cover = greedy_ball_cover(space, phi, probes=pts)
        centers, radii = cover.centers, cover.radii
        radius_sum = float(np.sum(radii))
        # A ball can swallow a zero in its outer half, where the halved
        # disk misses it.  Such zeros get their own disks, paid for out
        # of the strict slack left in the radius-sum budget; excluding
        # more points never weakens the off-disk lower bound.
        stranded = space.points[~_in_balls(centers, radii / 2.0, space.points)]
        slack = 4.0 * eta * R - radius_sum
        if len(stranded) and slack > 0.0:
            share = 0.5 * slack / len(stranded)
            r_extra = np.minimum(BETA * tau_many(space, phi, stranded), share)
            centers = np.concatenate([centers, stranded])
            radii = np.concatenate([radii, r_extra])
            for r in r_extra:
                radius_sum += float(r)

    a = f.coeffs[: f.degree() + 1]
    checked, violations, worst = 0, [], None
    # a disk holding all of |z| <= R leaves the walk nothing (module doc)
    if not np.any(np.hypot(*centers.T) + R < radii * (1.0 - 1e-12)):
        with np.errstate(divide="ignore"):  # ln 0 = -inf at a zero of f
            checked, violations, worst = _off_ball_floor(
                centers, radii, pts,
                lambda p: np.log(np.abs(_horner(a, p.view(complex)[:, 0]))),
                lower, within=lambda p: np.abs(p.view(complex)[:, 0]) <= R)

    half_ok = bool(np.all(_in_balls(centers, radii / 2.0 + 1e-12,
                                    space.points)))
    disks = [(complex(c[0], c[1]), float(r)) for c, r in zip(centers, radii)]

    return CartanDiskReport(disks=disks, zeros=zeros_in, eta=eta, R=R,
                            lower_bound=lower, M_bracket=(M_N, M_up),
                            radius_sum=radius_sum, num_checked=checked,
                            violations=violations, worst_margin=worst,
                            half_radius_covers_zeros=half_ok)
