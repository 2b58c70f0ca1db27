"""Self-similar s-sets generated by iterated function systems.

A FractalSet is a weighted point cloud standing in for an Ahlfors-regular
set X together with its natural self-similar measure: one representative
point per depth-d cell carrying the cell's measure.  For open-set-condition
presets this measure is a constant multiple of the s-dimensional Hausdorff
measure restricted to X, and every inequality verified downstream is
invariant under that normalization.

Representatives are the orbit of the fixed point of the first map, so the
cloud at depth d is a subset of the cloud at depth d+1 and the measure is
refined exactly: a parent cell's mass is the sum of its children's.

Shipped presets: "cantor:R" (two maps, ratio R in (0,1/2), on [0,1]),
"dust2d:R" (four corner maps in the unit square), "cube:N" (the unit
N-cube, s = N, carrying Lebesgue mass), and products joined with "*",
e.g. "cantor:1/3*cantor:1/3".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MAX_CELLS = 10 ** 7
# no program code reads this; only the benchmark's large_cloud_frac split
BUCKET_THRESHOLD = 10 ** 5
REGULARITY_SAMPLES = 1000


class CellCountError(ValueError):
    """Requested refinement would exceed the cell budget."""


@dataclass(frozen=True)
class Similarity:
    """Contracting similarity x -> ratio * x + translation."""

    ratio: float
    translation: tuple

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("similarity ratio must lie in (0, 1)")
        object.__setattr__(self, "translation",
                           tuple(float(t) for t in self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.ratio * points + np.asarray(self.translation)

    def fixed_point(self) -> np.ndarray:
        return np.asarray(self.translation) / (1.0 - self.ratio)


def solve_similarity_dim(ratios) -> float:
    """Solve sum r_i^s = 1 for s by bisection to residual <= 1e-12."""
    r = np.asarray(ratios, dtype=float)
    if len(r) < 2:
        raise ValueError("need at least two maps")

    def g(s):
        return float(np.sum(r ** s)) - 1.0

    lo, hi = 1e-12, 1.0
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("similarity dimension did not bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if abs(g(mid)) <= 1e-12:
            return mid
    s = 0.5 * (lo + hi)
    if abs(g(s)) > 1e-12:
        raise ValueError("similarity dimension bisection did not converge")
    return s


@dataclass(frozen=True)
class IFS:
    maps: tuple
    similarity_dim: float

    @classmethod
    def from_maps(cls, maps) -> "IFS":
        maps = tuple(maps)
        if len({len(m.translation) for m in maps}) != 1:
            raise ValueError("maps have inconsistent ambient dimensions")
        s = solve_similarity_dim([m.ratio for m in maps])
        return cls(maps=maps, similarity_dim=s)


@dataclass
class FractalSet:
    """Weighted point cloud approximating (X, H_s) at a fixed depth."""

    points: np.ndarray
    masses: np.ndarray
    s: float
    diam: float
    cell_diam: float
    total_mass: float
    # the k-d tree of `points` (a scipy cKDTree), built on the first query
    _tree: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def build_set(ifs: IFS, depth: int, diam: float) -> FractalSet:
    """Refine the IFS to the given depth; diam is the set's diameter.

    Cell representatives are S_w(x0) with x0 the fixed point of map 0, and
    the cell mass is prod p_i over the word (total mass 1), where p_i = 1/m
    for equal ratios (exact dyadic masses for the shipped presets) and
    p_i = r_i^s otherwise.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    m = len(ifs.maps)
    if m ** depth > MAX_CELLS:
        raise CellCountError(f"{m}^{depth} cells exceed the {MAX_CELLS} cap")

    ratios = np.array([mp.ratio for mp in ifs.maps])
    if np.all(ratios == ratios[0]):
        probs = np.full(m, 1.0 / m)
    else:
        probs = ratios ** ifs.similarity_dim
        probs = probs / probs.sum()

    points = ifs.maps[0].fixed_point()[None, :]
    masses = np.array([1.0])
    for _ in range(depth):
        points = np.concatenate([mp.apply(points) for mp in ifs.maps])
        masses = np.concatenate([p * masses for p in probs])
    cell_diam = diam * float(ratios.max()) ** depth
    return FractalSet(points=points, masses=masses, s=ifs.similarity_dim,
                      diam=diam, cell_diam=cell_diam, total_mass=1.0)


# -- ball queries ------------------------------------------------------


def ball_measure(X: FractalSet, centers, radii) -> np.ndarray:
    """Masses of the open balls B_r(x) under the cloud measure, one per
    (center, radius) pair; a single center with one radius is a batch of one.

    A k-d tree, built on the first query, counts the points within
    r(1 - 1e-9) and r(1 + 1e-9) of each center.  If the masses are equal and
    the counts agree, no point lies near the sphere and the ball holds that
    many masses; any other ball filters the widened candidates by d < r.
    Both sum as a scan of the whole cloud does, bitwise.  Centers and radii
    must be finite, the radii positive, and as many radii as centers.
    """
    x = np.asarray(centers, dtype=float).reshape(-1, X.ambient_dim)
    r = np.asarray(radii, dtype=float).reshape(-1)
    if len(x) != len(r):
        raise ValueError(f"{len(x)} centers for {len(r)} radii")
    if not (np.isfinite(x).all() and np.all((r > 0.0) & (r < math.inf))):
        raise ValueError("need finite centers and finite radii > 0")
    if X._tree is None:
        from scipy.spatial import cKDTree
        X._tree = cKDTree(X.points)
    inner = X._tree.query_ball_point(x, r * (1.0 - 1e-9), return_length=True)
    outer = X._tree.query_ball_point(x, r * (1.0 + 1e-9), return_length=True)
    counted = (inner == outer) & bool(np.all(X.masses == X.masses[0]))
    sums = {n: float(np.sum(np.full(n, X.masses[0])))
            for n in set(inner[counted].tolist())}
    out = np.array([sums.get(n, 0.0) for n in inner.tolist()])
    for i in np.flatnonzero(~counted):
        cand = np.asarray(X._tree.query_ball_point(
            x[i], r[i] * (1.0 + 1e-9), return_sorted=True), dtype=np.int64)
        d = np.linalg.norm(X.points[cand] - x[i], axis=1)
        out[i] = np.sum(X.masses[cand[d < r[i]]])
    return out


@dataclass(frozen=True)
class RegularityEstimate:
    """Extremes of mu(B_r(x)) / r^s over samples: a_hat bounds the upper
    Ahlfors constant from below, b_hat the lower one from above."""

    a_hat: float
    b_hat: float
    s: float
    num_samples: int

    def __post_init__(self):
        if not (0.0 < self.b_hat <= self.a_hat < math.inf):
            raise ValueError("regularity estimate must satisfy 0 < b <= a < inf")


def regularity_samples(X: FractalSet, num_samples: int, radius_range,
                       rng) -> tuple[np.ndarray, np.ndarray]:
    """Sample (center, radius) pairs: centers at cloud points, radii
    log-uniform over radius_range = (r_min, r_max), 0 < r_min < r_max."""
    r_min, r_max = radius_range
    if not 0.0 < r_min < r_max:
        raise ValueError(f"degenerate radius range {radius_range}")
    idx = rng.integers(0, X.size, size=num_samples)
    centers = X.points[idx]
    radii = np.exp(rng.uniform(math.log(r_min), math.log(r_max),
                               size=num_samples))
    return centers, radii


def estimate_regularity(X: FractalSet, samples) -> RegularityEstimate:
    """Empirical Ahlfors constants: extremes of ball_measure / r^s over the
    (centers, radii) samples, one center per radius.  a_hat is a sampled
    lower bound on the upper Ahlfors constant, b_hat a sampled upper bound
    on the lower one.

    Radii must lie between 4 cell diameters and diam X; beneath cell
    resolution the cloud no longer represents the measure.
    """
    if X.size < 2:
        raise ValueError("degenerate set: need at least two cloud points")
    centers, radii = samples
    rad = np.asarray(radii, dtype=float)
    if not np.all((rad > 0.0) & (rad <= X.diam * (1 + 1e-9))):
        raise ValueError("radii must be positive and at most diam X")
    if not np.all(rad >= 4.0 * X.cell_diam * (1 - 1e-9)):
        raise ValueError("radii extend below 4x cell resolution")
    # scalar pow per sample: numpy's vectorized pow may differ in the last bit
    ratios = np.array([m / r ** X.s for m, r in
                       zip(ball_measure(X, centers, rad).tolist(), radii)])
    return RegularityEstimate(a_hat=float(ratios.max()),
                              b_hat=float(ratios.min()),
                              s=X.s, num_samples=len(radii))


# -- constructions on sets ---------------------------------------------


def product_set(X1: FractalSet, X2: FractalSet) -> FractalSet:
    """Tensor product: dims and similarity dimensions add, masses multiply."""
    if X1.size * X2.size > MAX_CELLS:
        raise CellCountError("product cloud exceeds the cell cap")
    n1 = X1.ambient_dim
    pts = np.empty((X1.size * X2.size, n1 + X2.ambient_dim))
    pts[:, :n1] = np.repeat(X1.points, X2.size, axis=0)
    pts[:, n1:] = np.tile(X2.points, (X1.size, 1))
    masses = np.outer(X1.masses, X2.masses).ravel()
    return FractalSet(points=pts, masses=masses, s=X1.s + X2.s,
                      diam=math.hypot(X1.diam, X2.diam),
                      cell_diam=math.hypot(X1.cell_diam, X2.cell_diam),
                      total_mass=X1.total_mass * X2.total_mass)


def transform(X: FractalSet, scale: float, offset) -> FractalSet:
    """Dilation plus translation; mass rescales by scale^s."""
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    offset = np.broadcast_to(np.asarray(offset, dtype=float),
                             (X.ambient_dim,))
    if not np.all(np.isfinite(offset)):
        raise ValueError("offset must be finite")
    factor = scale ** X.s
    return FractalSet(points=scale * X.points + offset,
                      masses=X.masses * factor,
                      s=X.s, diam=X.diam * scale, cell_diam=X.cell_diam * scale,
                      total_mass=X.total_mass * factor)


# -- preset registry ----------------------------------------------------


def _cantor_ifs(ratio: float) -> IFS:
    if not 0.0 < ratio < 0.5:
        raise ValueError(f"cantor ratio must lie in (0, 1/2), got {ratio}")
    maps = (Similarity(ratio, (0.0,)), Similarity(ratio, (1.0 - ratio,)))
    return IFS.from_maps(maps)

def _dust2d_ifs(ratio: float) -> IFS:
    if not 0.0 < ratio <= 0.5:
        raise ValueError(f"dust ratio must lie in (0, 1/2], got {ratio}")
    c = 1.0 - ratio
    maps = tuple(Similarity(ratio, t) for t in
                 ((0.0, 0.0), (c, 0.0), (0.0, c), (c, c)))
    return IFS.from_maps(maps)

def _cube_ifs(n: int) -> IFS:
    if not 1 <= n <= 3:
        raise ValueError(f"cube dimension must be 1..3, got {n}")
    maps = tuple(Similarity(0.5, t)
                 for t in itertools.product((0.0, 0.5), repeat=n))
    return IFS.from_maps(maps)


def build_preset(set_id: str, depth: int) -> FractalSet:
    """Build a preset cloud by string id, e.g. "cantor:1/3" or "cube:1"."""
    set_id = set_id.strip()
    if "*" in set_id:
        parts = set_id.split("*")
        X = build_preset(parts[0], depth)
        for part in parts[1:]:
            X = product_set(X, build_preset(part, depth))
        return X
    if ":" not in set_id:
        raise KeyError(f"unknown set id {set_id!r}")
    name, _, param = set_id.partition(":")
    if name == "cantor":
        return build_set(_cantor_ifs(float(Fraction(param))), depth, diam=1.0)
    if name == "dust2d":
        return build_set(_dust2d_ifs(float(Fraction(param))), depth,
                         diam=math.sqrt(2.0))
    if name == "cube":
        n = int(param)
        return build_set(_cube_ifs(n), depth, diam=math.sqrt(n))
    raise KeyError(f"unknown set id {set_id!r}")
