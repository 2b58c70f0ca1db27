"""Remez-type bounds and their empirical counterparts on generated sets.

Theoretical side: for a polynomial of degree k on a convex body V and a
measurable subset w with Lebesgue ratio lam,

    sup_V |p| <= T_k((1 + b)/(1 - b)) sup_w |p|,   b = (1 - lam)^(1/n),

and the weaker but handier (4n / lam)^k.  Empirical side: both sides of
the normalized L_r / L_q comparison

    (1/|V| int_V |p|^r)^(1/r) <= C (1/mu(w) int_w |p|^q dmu)^(1/q)

are computed on point clouds (the fractal measure side) and quasi-random
samples (the volume side), with L_infinity realized by sup_norm.  The
measure ratio is lam = mu(w)^(n/s) / vol(V); its overall normalization is
unknowable for fractal measures, so only ratios across experiments are
ever asserted, never absolute constants.

Also here: the gradient (Markov) ratio on s-sets, mean oscillation of
ln|p| (the BMO witness), and reverse Holder ratios of |p| means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .fractals import FractalSet
from .geometry import golden_section_max
from .polynomials import Polynomial

SUP_BUDGET = 2 ** 14
REFINE_STARTS = 8
REFINE_SWEEPS = 20
LOG_FLOOR = 1e-300


def bg_bound(n: int, k: int, lam: float) -> float:
    """Sharp Chebyshev-form Remez constant T_k((1+b)/(1-b)), b=(1-lam)^(1/n)."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    if k < 0 or n < 1:
        raise ValueError("need k >= 0, n >= 1")
    beta = (1.0 - lam) ** (1.0 / n)
    if beta == 0.0:
        return 1.0
    arg = (1.0 + beta) / (1.0 - beta)
    return math.cosh(k * math.acosh(arg))


def simple_bound(n: int, k: int, lam: float) -> float:
    """The power-form Remez constant (4n / lam)^k."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    return (4.0 * n / lam) ** k


# -- sup norms -----------------------------------------------------------


def _refine_coordinates(p: Polynomial, domain, X: np.ndarray) -> np.ndarray:
    """Per-coordinate golden-section ascent of |p| from each row of X, for
    at most REFINE_SWEEPS sweeps: one that moves no start ends it, as the
    next would repeat it exactly.

    All starts move together, each with its own bracket and running best,
    only to a strictly larger value and never along an empty chord.
    Returns each start's best value, which on a sphere can miss the max.
    """
    X = np.array(X, dtype=float)
    best = np.abs(p.eval_many(X))
    for _ in range(REFINE_SWEEPS):
        start = best.copy()
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
            mid[:, i] = golden_section_max(abs_p, a[rows], b[rows], 24)
            v = np.abs(p.eval_many(mid))
            up = v > best[rows]
            best[rows[up]] = v[up]
            X[rows[up]] = mid[up]
        if np.array_equal(best, start, equal_nan=True):  # no start moved
            break
    return best


def sup_norm(p: Polynomial, domain, budget: int = SUP_BUDGET) -> float:
    """Max of |p| over a FractalSet cloud (exact) or a ball/cube.

    Continuous domains use a Sobol sample of the given budget plus the
    center and axis extremes, then a golden-section ascent, one coordinate
    at a time, from the REFINE_STARTS best sample points, moved together
    (one evaluation of 2 * REFINE_STARTS points a step) for at most
    REFINE_SWEEPS sweeps, to a coordinate-wise fixed point that can miss
    the max on a ball's sphere: a sampled lower bound for the true sup,
    nondecreasing in the budget, as larger ones extend the Sobol prefix.
    """
    if isinstance(domain, FractalSet):
        if domain.size == 0:
            raise ValueError("empty domain")
        return float(np.max(np.abs(p.eval_many(domain.points))))
    pts = np.vstack([domain.sample(budget), domain.axis_extremes()])
    vals = np.abs(p.eval_many(pts))
    order = np.argsort(vals)[::-1][:REFINE_STARTS]
    return max(float(vals.max()),
               float(_refine_coordinates(p, domain, pts[order]).max()))


def _normalized_lq_cloud(p: Polynomial, X: FractalSet, q) -> float:
    vals = np.abs(p.eval_many(X.points))
    if q in (np.inf, math.inf):
        return float(vals.max())
    w = X.masses / X.masses.sum()
    return float(np.sum(w * vals ** q) ** (1.0 / q))


def _normalized_lr_volume(p: Polynomial, domain, r, budget: int) -> float:
    if r in (np.inf, math.inf):
        return sup_norm(p, domain, budget)
    vals = np.abs(p.eval_many(domain.sample(budget)))
    return float(np.mean(vals ** r) ** (1.0 / r))


# -- empirical comparison ---------------------------------------------------


@dataclass
class RemezReport:
    """One measured L_r(V) vs L_q(omega) comparison with its bounds."""

    bound_bg: float | None
    bound_simple: float | None
    empirical_ratio: float
    lam: float
    k: int
    n: int
    s: float
    q: object
    r: object
    lhs: float
    rhs: float
    hypothesis_violated: bool = False

    def to_json(self) -> dict:
        d = asdict(self)
        d["q"] = "inf" if d["q"] in (np.inf, math.inf) else d["q"]
        d["r"] = "inf" if d["r"] in (np.inf, math.inf) else d["r"]
        return d


def measure_ratio(omega: FractalSet, V) -> float:
    """lam = mu(omega)^(n/s) / vol(V) in the cloud measure normalization."""
    return omega.total_mass ** (V.dim / omega.s) / V.volume


def empirical_remez(p: Polynomial, V, omega: FractalSet, q, r,
                    budget: int = SUP_BUDGET) -> RemezReport:
    """Measure both sides of the comparison and attach theoretical bounds.

    V is a Ball or Cube, omega a FractalSet inside V (checked to cloud
    tolerance).  The theoretical bounds are filled for q = r = infinity
    and lam <= 1, where they are comparable with the measured ratio.
    """
    if omega.size == 0:
        raise ValueError("omega is empty")
    grown = type(V)(V.center, V.radius * (1.0 + 1e-9))
    if not np.all(grown.contains(omega.points)):
        raise ValueError("omega is not contained in V")
    if q not in (1, 2, np.inf, math.inf) or r not in (1, 2, np.inf, math.inf):
        raise ValueError("q and r are restricted to {1, 2, inf}")

    lhs = _normalized_lr_volume(p, V, r, budget)
    rhs = _normalized_lq_cloud(p, omega, q)
    violated = rhs == 0.0 and lhs > 0.0
    ratio = math.inf if violated else (0.0 if rhs == 0.0 else lhs / rhs)

    lam = measure_ratio(omega, V)
    k = p.degree()
    n = V.dim
    is_sup = q in (np.inf, math.inf) and r in (np.inf, math.inf)
    bb = bg_bound(n, k, lam) if (is_sup and 0 < lam <= 1.0) else None
    sb = simple_bound(n, k, lam) if (is_sup and 0 < lam <= 1.0) else None
    return RemezReport(bound_bg=bb, bound_simple=sb, empirical_ratio=ratio,
                       lam=lam, k=k, n=n, s=omega.s, q=q, r=r,
                       lhs=lhs, rhs=rhs, hypothesis_violated=violated)


# -- gradient (Markov) ratio -------------------------------------------------


def markov_check(p: Polynomial, F: FractalSet, x, r: float) -> float:
    """r * max_{F cap B}|grad p| / max_{F cap B}|p| over the closed ball."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if r <= 0 or r > F.diam * (1 + 1e-9):
        raise ValueError("radius must lie in (0, diam]")
    mask = np.linalg.norm(F.points - x, axis=1) <= r
    if not np.any(mask):
        raise ValueError("ball does not meet the set")
    pts = F.points[mask]
    grads = np.column_stack([g.eval_many(pts) for g in p.gradient()])
    num = float(np.max(np.linalg.norm(grads, axis=1)))
    den = float(np.max(np.abs(p.eval_many(pts))))
    if den == 0.0:
        raise ZeroDivisionError("p vanishes on F cap B")
    return r * num / den


# -- BMO and reverse Holder witnesses ----------------------------------------


@dataclass
class OscillationReport:
    max_oscillation: float
    num_samples: int


def _cloud_as_complex(X: FractalSet) -> np.ndarray:
    if X.ambient_dim == 1:
        return X.points[:, 0].astype(complex)
    if X.ambient_dim == 2:
        return X.points[:, 0] + 1j * X.points[:, 1]
    raise ValueError("complex identification needs ambient dimension 1 or 2")


def bmo_oscillation(p: Polynomial, X: FractalSet, scales,
                    centers: np.ndarray) -> OscillationReport:
    """Max mean oscillation of ln|p| over the balls of the given centers
    and radii under the cloud measure.

    Points with |p| below 1e-300 are excluded from the averages; the zero
    set carries no measure in the regime where the statement applies, so
    the exclusion only guards the logarithm.
    The same centers make runs comparable across refinement depths.
    """
    if p.num_vars != 1:
        raise ValueError("univariate complex polynomials only")
    zs = _cloud_as_complex(X)
    vals = np.abs(p.eval_many(zs))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    best = -math.inf
    count = 0
    for x in centers:
        d = np.linalg.norm(X.points - x, axis=1)
        for r in scales:
            good = (d < r) & (vals >= LOG_FLOOR)
            if not np.any(good):
                continue
            w = X.masses[good] / X.masses[good].sum()
            logs = np.log(vals[good])
            mean = float(np.sum(w * logs))
            osc = float(np.sum(w * np.abs(logs - mean)))
            count += 1
            best = max(best, osc)
    if count == 0:
        raise ValueError("all mass excluded at every sampled ball")
    return OscillationReport(max_oscillation=best, num_samples=count)


def reverse_holder(p: Polynomial, X: FractalSet, x, r: float, l) -> float:
    """((1/mu B) int_B |p|^l dmu)^(1/l) / ((1/mu B) int_B |p| dmu)."""
    if l not in (2, 4, np.inf, math.inf):
        raise ValueError("l must be 2, 4, or infinity")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mask = np.linalg.norm(X.points - x, axis=1) < r
    if not np.any(mask):
        raise ValueError("ball does not meet the set")
    if p.num_vars == 1 and (p.is_complex or X.ambient_dim == 2):
        vals = np.abs(p.eval_many(_cloud_as_complex(X)[mask]))
    else:
        vals = np.abs(p.eval_many(X.points[mask]))
    w = X.masses[mask] / X.masses[mask].sum()
    mean1 = float(np.sum(w * vals))
    if mean1 == 0.0:
        raise ZeroDivisionError("p vanishes on the ball in L1 mean")
    if l in (np.inf, math.inf):
        return float(vals.max()) / mean1
    return float(np.sum(w * vals ** l) ** (1.0 / l)) / mean1
