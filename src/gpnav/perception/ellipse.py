"""Minimum-area enclosing ellipses for point clusters.

Uses Khachiyan's barycentric-coordinate ascent with away steps (the plain
ascent converges too slowly to reach tight tolerances within a bounded
iteration budget). Rank-deficient clusters (single points, collinear cells)
are padded to a minimum minor axis instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_MIN_MINOR = 0.1   # m, padding for rank-deficient clusters
_HALF_PI = np.pi / 2.0


def _wrap_orientation(angle: float) -> float:
    """Wrap an ellipse orientation into [-pi/2, pi/2)."""
    wrapped = (angle + _HALF_PI) % np.pi - _HALF_PI
    return -_HALF_PI if wrapped >= _HALF_PI else wrapped


@dataclass
class Ellipse:
    """Axis lengths are semi-axes with semi_major >= semi_minor > 0.

    fit_gap records the Khachiyan duality gap at termination (0 for
    degenerate fits) and is diagnostic only.
    """

    center: np.ndarray
    semi_major: float
    semi_minor: float
    angle: float
    fit_gap: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=float)
        if not self.semi_major >= self.semi_minor > 0.0:
            raise ValueError("ellipse axes must satisfy semi_major >= semi_minor > 0")

    def as_vector(self) -> np.ndarray:
        """[cx, cy, semi_major, semi_minor, angle]."""
        return np.array([self.center[0], self.center[1],
                         self.semi_major, self.semi_minor, self.angle])

    def quadratic_form(self, points) -> np.ndarray:
        """(p-c)^T A (p-c) per point; <= 1 means inside the ellipse."""
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        c, s = np.cos(self.angle), np.sin(self.angle)
        u = pts @ np.array([c, s])
        v = pts @ np.array([-s, c])
        return (u / self.semi_major) ** 2 + (v / self.semi_minor) ** 2

    def contains(self, points, scale: float = 1.0) -> np.ndarray:
        """Whether each point lies inside the ellipse inflated by scale."""
        return self.quadratic_form(points) <= scale * scale

    def area(self) -> float:
        return float(np.pi * self.semi_major * self.semi_minor)


def fit_mvee(points, tolerance: float = 1e-4, max_iter: int = 1000,
             min_minor: float = DEFAULT_MIN_MINOR) -> Ellipse:
    """Fit the minimum-area enclosing ellipse of a non-empty cluster.

    Terminates once the duality gap max_j q_j^T V^-1 q_j / (d+1) - 1 falls
    to the tolerance; every input point then lies inside the ellipse scaled
    by (1 + 10 * tolerance). A fit that exhausts max_iter first has both
    semi-axes grown until every point lies inside, and keeps its true gap.
    Clusters of rank < 2 get a segment-aligned ellipse padded with min_minor.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot fit an ellipse to an empty cluster")

    mean = pts.mean(axis=0)
    centered = pts - mean
    sv = np.linalg.svd(centered, compute_uv=False) if n > 1 else np.zeros(2)
    if n < 3 or sv[1] <= max(1e-9, 1e-7 * sv[0]):
        return _degenerate_fit(pts, mean, centered, min_minor)

    try:
        u, gap = _khachiyan_weights(pts, tolerance, max_iter)
        center = pts.T @ u
        shape = pts.T @ (u[:, None] * pts) - np.outer(center, center)
        form = np.linalg.inv(shape) / 2.0   # (p-c)^T form (p-c) <= 1
    except np.linalg.LinAlgError:
        return _degenerate_fit(pts, mean, centered, min_minor)

    eigvals, eigvecs = np.linalg.eigh(form)
    if eigvals[0] <= 0.0:
        return _degenerate_fit(pts, mean, centered, min_minor)
    semi_major = 1.0 / np.sqrt(eigvals[0])
    semi_minor = 1.0 / np.sqrt(eigvals[1])
    angle = _wrap_orientation(float(np.arctan2(eigvecs[1, 0], eigvecs[0, 0])))
    ellipse = Ellipse(center=center, semi_major=float(semi_major),
                      semi_minor=float(semi_minor), angle=angle, fit_gap=gap)
    if gap > tolerance:
        grow = float(np.sqrt(ellipse.quadratic_form(pts).max()))
        ellipse.semi_major *= grow
        ellipse.semi_minor *= grow
    return ellipse


def _khachiyan_weights(pts: np.ndarray, tolerance: float,
                       max_iter: int) -> tuple[np.ndarray, float]:
    """Barycentric weights of the MVEE via ascent with away steps."""
    n, dim = pts.shape
    lifted = np.vstack([pts.T, np.ones(n)])           # (d+1, n)
    u = np.full(n, 1.0 / n)
    dp1 = float(dim + 1)
    gap = np.inf
    for _ in range(max_iter):
        scatter = lifted @ (u[:, None] * lifted.T)
        sol = np.linalg.solve(scatter, lifted)
        scores = np.einsum("ij,ij->j", lifted, sol)
        j_hi = int(np.argmax(scores))
        hi = scores[j_hi]
        gap = hi / dp1 - 1.0
        if gap <= tolerance:
            break
        support = np.where(u > 1e-12, scores, np.inf)
        j_lo = int(np.argmin(support))
        lo = support[j_lo]
        if hi - dp1 >= dp1 - lo or lo <= 1.0 + 1e-12:
            step = (hi - dp1) / (dp1 * (hi - 1.0))
            u *= 1.0 - step
            u[j_hi] += step
        else:
            step = (lo - dp1) / (dp1 * (lo - 1.0))   # negative: move weight away
            step = max(step, -u[j_lo] / (1.0 - u[j_lo]))
            u *= 1.0 - step
            u[j_lo] += step
            np.maximum(u, 0.0, out=u)
    return u, float(gap)


def _degenerate_fit(pts: np.ndarray, mean: np.ndarray, centered: np.ndarray,
                    min_minor: float) -> Ellipse:
    """Segment-aligned padded ellipse for clusters of rank 0 or 1."""
    if len(pts) == 1 or not np.any(np.abs(centered) > 0.0):
        return Ellipse(center=mean.copy(), semi_major=min_minor,
                       semi_minor=min_minor, angle=0.0)
    _, _, vt = np.linalg.svd(centered)
    direction = vt[0]
    offsets = centered @ direction
    lo, hi = float(offsets.min()), float(offsets.max())
    center = mean + direction * (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    angle = _wrap_orientation(float(np.arctan2(direction[1], direction[0])))
    return Ellipse(center=center, semi_major=half + min_minor,
                   semi_minor=min_minor, angle=angle)
