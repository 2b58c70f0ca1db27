"""Euclidean balls and sup-metric cubes used as polynomial domains.

Cubes follow the closed-cube convention: Q_r(x) = {y : max_i |y_i - x_i| <= r}
with r the half side-length ("radius").  Equal-measure quasi-random samples
come from an unscrambled Sobol sequence, so sample prefixes are nested and
anything computed as a max over samples is monotone in the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sobol_unit(dim: int, count: int, skip_zero: bool = False) -> np.ndarray:
    """First `count` points of the unscrambled Sobol sequence in [0,1]^dim."""
    from scipy.stats import qmc  # scipy.stats is slow to import
    eng = qmc.Sobol(d=dim, scramble=False)
    if skip_zero:
        eng.fast_forward(1)
    return eng.random(count)


def gaussian_directions(u: np.ndarray) -> np.ndarray:
    """Unit vectors from rows of uniforms in [0, 1]^n.

    Each row goes through the normal quantile (clipped away from 0 and 1)
    and is divided by its norm, so equidistributed rows give directions
    equidistributed on the sphere.  A row that maps to the zero vector
    (every entry 1/2, as in the second Sobol point) gets e_1 instead of
    0/0.
    """
    from scipy.special import ndtri
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    length = np.linalg.norm(z, axis=1, keepdims=True)
    zero = length[:, 0] == 0.0
    z[zero, 0] = 1.0
    length[zero] = 1.0
    return z / length


def golden_section_max(fn, a, b, steps: int) -> np.ndarray:
    """Golden-section ascent of fn on the brackets [a_j, b_j], side by side.

    Each step hands fn a (2, m) array with the lower and the upper trial
    point of every bracket (fn must not keep it: it is reused) and fn
    returns their values in the same shape.  A bracket keeps its lower
    part when the lower trial is strictly larger, else its upper part.
    Returns the midpoints of the final brackets.
    """
    ab = np.array([a, b], dtype=float)
    trial = np.empty_like(ab)
    for _ in range(steps):
        w = GOLDEN * (ab[1] - ab[0])
        np.subtract(ab[1], w, out=trial[0])
        np.add(ab[0], w, out=trial[1])
        v = fn(trial)
        lower = v[0] > v[1]
        np.copyto(ab[0], trial[0], where=~lower)
        np.copyto(ab[1], trial[1], where=lower)
    return 0.5 * (ab[0] + ab[1])


class _Body:
    """What cubes and balls share: a center and a positive radius."""

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"{type(self).__name__.lower()} radius must be "
                             f"positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def axis_extremes(self) -> np.ndarray:
        """The center, then center - r e_i and center + r e_i for each i."""
        c = np.asarray(self.center)
        shifts = self.radius * np.eye(self.dim)
        return np.vstack([c, np.stack([c - shifts, c + shifts], axis=1)
                          .reshape(-1, self.dim)])


@dataclass(frozen=True)
class Cube(_Body):
    """Closed axis-aligned cube with center c and radius r (half side)."""

    center: tuple
    radius: float

    @property
    def volume(self) -> float:
        return (2.0 * self.radius) ** self.dim

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c = np.asarray(self.center)
        return np.max(np.abs(pts - c), axis=1) <= self.radius

    def sample(self, count: int) -> np.ndarray:
        lo, hi = self.bounds()
        u = sobol_unit(self.dim, count)
        return lo + u * (hi - lo)

    def coordinate_segments(self, X: np.ndarray,
                            i: int) -> tuple[np.ndarray, np.ndarray]:
        """Ends of the cube's chords through the rows of X along axis i."""
        return (np.full(len(X), self.center[i] - self.radius),
                np.full(len(X), self.center[i] + self.radius))


@dataclass(frozen=True)
class Ball(_Body):
    """Closed Euclidean ball."""

    center: tuple
    radius: float

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius ** self.dim

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c = np.asarray(self.center)
        return np.linalg.norm(pts - c, axis=1) <= self.radius

    def sample(self, count: int) -> np.ndarray:
        """Equal-measure Sobol sample of the ball."""
        c = np.asarray(self.center)
        if self.dim == 1:
            u = sobol_unit(1, count)[:, 0]
            return (c[0] - self.radius + 2.0 * self.radius * u)[:, None]
        if self.dim == 2:
            u = sobol_unit(2, count)
            r = self.radius * np.sqrt(u[:, 0])
            th = 2.0 * math.pi * u[:, 1]
            return c + np.column_stack([r * np.cos(th), r * np.sin(th)])
        u = sobol_unit(self.dim + 1, count, skip_zero=True)
        z = gaussian_directions(u[:, : self.dim])
        r = self.radius * u[:, self.dim] ** (1.0 / self.dim)
        return c + z * r[:, None]

    def coordinate_segments(self, X: np.ndarray,
                            i: int) -> tuple[np.ndarray, np.ndarray]:
        """Ends of the ball's chords through the rows of X along axis i; a
        row whose other coordinates reach the sphere gets [X_i, X_i]."""
        c = np.asarray(self.center)
        rest = np.delete(X - c, i, axis=1)
        # one dot product per row, rounded as rest @ rest is for one row
        slack = self.radius ** 2 - (rest[:, None, :] @ rest[:, :, None])[:, 0, 0]
        w = np.sqrt(np.maximum(slack, 0.0))
        empty = slack <= 0.0
        return (np.where(empty, X[:, i], c[i] - w),
                np.where(empty, X[:, i], c[i] + w))
