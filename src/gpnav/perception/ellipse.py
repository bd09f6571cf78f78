"""Minimum-area enclosing ellipses for point clusters.

Uses Khachiyan's barycentric-coordinate ascent with away steps (the plain
ascent converges too slowly to reach tight tolerances within a bounded
iteration budget), run on the cluster's convex-hull vertices only and written
in Python floats: at a few dozen points a 3x3 adjugate per iteration costs
less than the numpy calls it replaces. Rank-deficient clusters (single
points, collinear cells), found from the closed-form eigenvalues of the
2x2 Gram matrix, are padded to a minimum minor axis instead of failing.
"""

from __future__ import annotations

import math
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

    center is kept as a pair of Python floats. fit_gap records the Khachiyan
    duality gap at termination (0 for degenerate fits) and is diagnostic
    only.
    """

    center: tuple[float, float]
    semi_major: float
    semi_minor: float
    angle: float
    fit_gap: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        x, y = self.center
        self.center = (float(x), float(y))
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


def fit_mvee(points, tolerance: float = 1e-4, max_iter: int = 1000) -> Ellipse:
    """Fit the minimum-area enclosing ellipse of a non-empty (n, 2) cluster.

    The ascent runs on the strict convex-hull vertices only: an ellipse that
    holds the hull holds every point, and the largest score over the points
    is taken at a vertex, so the gap is the gap over all points. It stops
    once the duality gap max_j q_j^T V^-1 q_j / (d+1) - 1 falls to the
    tolerance; every input point then lies inside the ellipse scaled by
    (1 + 10 * tolerance). A fit that exhausts max_iter first has both
    semi-axes grown until every point lies inside, and keeps its true gap.
    Clusters of rank < 2 get a segment-aligned ellipse padded with
    DEFAULT_MIN_MINOR.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot fit an ellipse to an empty cluster")

    # the prelude runs in Python floats: row by row, the sum rounds as
    # pts.mean(axis=0) does over a C-ordered (n, 2) array
    rows = pts.tolist()
    mx, my = rows[0]
    for x, y in rows[1:]:
        mx += x
        my += y
    mx, my = mx / n, my / n
    centered = [(x - mx, y - my) for x, y in rows]
    if n < 3 or _rank_deficient(centered):
        return _degenerate_fit(pts, (mx, my), centered)

    try:
        moments, gap = _khachiyan_moments(_hull_vertices(centered), tolerance,
                                          max_iter)
    except np.linalg.LinAlgError:
        return _degenerate_fit(pts, (mx, my), centered)
    sx, sy, sxx, sxy, syy = moments
    a, b, c = sxx - sx * sx, sxy - sx * sy, syy - sy * sy   # covariance S
    # (p-c)^T S^-1 (p-c) <= 2: semi-axes sqrt(2 * eig(S))
    major_eig = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    minor_eig = (a * c - b * b) / major_eig
    if not minor_eig > 0.0:
        return _degenerate_fit(pts, (mx, my), centered)
    ellipse = Ellipse(center=(mx + sx, my + sy),
                      semi_major=math.sqrt(2.0 * major_eig),
                      semi_minor=math.sqrt(2.0 * min(minor_eig, major_eig)),
                      angle=_wrap_orientation(0.5 * math.atan2(2.0 * b, a - c)),
                      fit_gap=gap)
    if gap > tolerance:
        grow = float(np.sqrt(ellipse.quadratic_form(pts).max()))
        ellipse.semi_major *= grow
        ellipse.semi_minor *= grow
    return ellipse


def _rank_deficient(centered) -> bool:
    """Whether centred (x, y) pairs span less than a plane.

    The eigenvalues of the 2x2 Gram matrix C^T C are the squared singular
    values of C, so the test sigma_min <= max(1e-9, 1e-7 * sigma_max) reads
    lambda_min <= max(1e-18, 1e-14 * lambda_max), in closed form.
    """
    a = b = c = 0.0
    for x, y in centered:
        a += x * x
        b += x * y
        c += y * y
    mid, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    return mid - radius <= max(1e-18, 1e-14 * (mid + radius))


def _hull_vertices(pts) -> list[tuple[float, float]]:
    """Strict convex-hull vertices, counter-clockwise from the lowest (x, y).

    Andrew's monotone chain over the (x, y) pairs of pts sorted by (x, y);
    points on a hull edge and repeated points are dropped.
    """
    ordered = sorted(map(tuple, pts))

    def chain(seq):
        out: list[tuple[float, float]] = []
        for x, y in seq:
            while len(out) >= 2:
                (x0, y0), (x1, y1) = out[-2], out[-1]
                if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0.0:
                    break
                out.pop()
            out.append((x, y))
        return out

    lower, upper = chain(ordered), chain(reversed(ordered))
    return lower[:-1] + upper[:-1]


def _khachiyan_moments(pts: list[tuple[float, float]], tolerance: float,
                       max_iter: int) -> tuple[tuple[float, ...], float]:
    """MVEE by barycentric ascent with away steps, in Python floats.

    Each iteration rebuilds the weighted moments of the lifted points
    q = (x, y, 1), scores every point by q^T M^-1 q through the adjugate of
    the 3x3 scatter M, and moves weight toward the highest score or away
    from the lowest supported one. Returns the weighted moments
    (sx, sy, sxx, sxy, syy) and the duality gap of the final weights.

    At hull sizes of a few points the per-call overhead outweighs the
    arithmetic, so each iteration makes one pass for the six moments (each
    summed in point order, from 0.0) and one pass that scores the points
    and keeps the first highest and the first lowest supported one.
    """
    n = len(pts)
    rows = [(x, y, x * x, x * y, y * y) for x, y in pts]
    u = [1.0 / n] * n
    dp1 = 3.0                                         # d + 1 for d = 2
    inf = math.inf
    for iteration in range(max_iter + 1):
        s = sx = sy = sxx = sxy = syy = 0.0
        for w, (x, y, xx, xy, yy) in zip(u, rows):
            s += w
            sx += w * x
            sy += w * y
            sxx += w * xx
            sxy += w * xy
            syy += w * yy
        # adjugate of M = [[sxx, sxy, sx], [sxy, syy, sy], [sx, sy, s]]
        a00 = syy * s - sy * sy
        a01 = sx * sy - sxy * s
        a02 = sxy * sy - syy * sx
        a11 = sxx * s - sx * sx
        a12 = sxy * sx - sxx * sy
        a22 = sxx * syy - sxy * sxy
        det = sxx * a00 + sxy * a01 + sx * a02
        if not det > 0.0:
            raise np.linalg.LinAlgError("lifted scatter is singular")
        b00, b01, b02 = a00 / det, 2.0 * a01 / det, 2.0 * a02 / det
        b11, b12, b22 = a11 / det, 2.0 * a12 / det, a22 / det
        hi, lo, j_hi, j_lo = -inf, inf, 0, 0
        for k, (x, y) in enumerate(pts):
            score = (b00 * x + b01 * y + b02) * x + (b11 * y + b12) * y + b22
            if score > hi:
                hi, j_hi = score, k
            if score < lo and u[k] > 1e-12:
                lo, j_lo = score, k
        gap = hi / dp1 - 1.0
        if gap <= tolerance or iteration == max_iter:
            break
        if hi - dp1 >= dp1 - lo or lo <= 1.0 + 1e-12:
            j, step = j_hi, (hi - dp1) / (dp1 * (hi - 1.0))
        else:
            j = j_lo
            step = (lo - dp1) / (dp1 * (lo - 1.0))   # negative: move weight away
            step = max(step, -u[j] / (1.0 - u[j]))
        keep = 1.0 - step
        u = list(map(keep.__mul__, u))
        u[j] = max(u[j] + step, 0.0)
    return (sx, sy, sxx, sxy, syy), gap


def _degenerate_fit(pts: np.ndarray, mean: tuple[float, float],
                    centered: list[tuple[float, float]]) -> Ellipse:
    """Segment-aligned padded ellipse for clusters of rank 0 or 1."""
    centered = np.array(centered)
    if len(pts) == 1 or not np.any(np.abs(centered) > 0.0):
        return Ellipse(center=mean, semi_major=DEFAULT_MIN_MINOR,
                       semi_minor=DEFAULT_MIN_MINOR, angle=0.0)
    mean = np.array(mean)
    _, _, vt = np.linalg.svd(centered)
    direction = vt[0]
    offsets = centered @ direction
    lo, hi = float(offsets.min()), float(offsets.max())
    center = mean + direction * (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    angle = _wrap_orientation(float(np.arctan2(direction[1], direction[0])))
    return Ellipse(center=center, semi_major=half + DEFAULT_MIN_MINOR,
                   semi_minor=DEFAULT_MIN_MINOR, angle=angle)
