"""Frame-to-frame centre association and per-obstacle Kalman tracking.

Each track estimates the centre's position, velocity and acceleration under
a constant-acceleration model, as a (3, 2) state: rows pos, vel, acc and
columns x, y. The noise densities are shared by both axes and a detection
measures one position per axis, so the 6x6 covariance over [cx, cy, vx, vy,
ax, ay] stays one 3x3 block P over (position, velocity, acceleration), shared
by x and y. Association is an exact minimum-cost assignment on centre
distances with a gate; gated-out pairs spawn new tracks and record misses.
Only the centre velocity leaves the tracker, for the barrier's time
derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipse import Ellipse


@dataclass(frozen=True)
class TrackerParams:
    """Association gate, lifecycle limits, and filter noise densities."""

    d_max: float = 1.0             # m, association gate on center distance
    max_misses: int = 5            # consecutive predict-only frames before drop
    min_velocity_age: int = 2      # updates before a track reports velocity
    min_speed: float = 0.0         # m/s, report zero below this (spike guard)
    q_pos: float = 1e-4
    q_vel: float = 1e-2
    q_acc: float = 1e-1
    r_center: float = 4e-4         # (2 cm)^2

    def __post_init__(self) -> None:
        for name in ("d_max", "max_misses"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("min_speed", "q_pos", "q_vel", "q_acc", "r_center"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.q_pos + self.r_center == 0.0:
            raise ValueError("q_pos + r_center must be > 0")


@dataclass
class TrackedObstacle:
    """One tracked obstacle centre; age counts absorbed measurement updates."""

    track_id: int
    state: np.ndarray              # (3, 2): rows pos, vel, acc; cols x, y
    motion_cov: np.ndarray         # (3, 3) symmetric PSD, shared by x and y
    age: int = 0
    misses: int = 0

    @property
    def center(self) -> np.ndarray:
        return self.state[0]

    def velocity(self, min_age: int = 2, min_speed: float = 0.0) -> np.ndarray:
        """Estimated center velocity; zero until the track has warmed up.

        Speeds below min_speed also report zero, so near-static obstacles do
        not inject phantom motion into the barrier's time derivative.
        """
        if self.age < min_age:
            return np.zeros(2)
        estimate = self.state[1]
        if math.hypot(*estimate.tolist()) < min_speed:
            return np.zeros(2)
        return estimate.copy()


def new_track(track_id: int, detection: Ellipse, params: TrackerParams) -> TrackedObstacle:
    """Start a track from a detection with unknown velocity and acceleration."""
    state = np.zeros((3, 2))
    state[0] = detection.center
    return TrackedObstacle(track_id=track_id, state=state,
                           motion_cov=np.diag([params.r_center, 1.0, 1.0]))


def affinity_matrix(tracks: np.ndarray, detections: np.ndarray) -> np.ndarray:
    """Center Euclidean distances, rows = tracks, cols = detections."""
    ct = np.asarray(tracks, dtype=float).reshape(-1, 2)
    cd = np.asarray(detections, dtype=float).reshape(-1, 2)
    return np.linalg.norm(ct[:, None] - cd[None], axis=2)


def min_cost_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum-cost assignment of an (n, m) matrix of finite costs.

    Returns (rows, cols): min(n, m) pairs, rows ascending, as
    scipy.optimize.linear_sum_assignment does. Non-finite costs raise
    ValueError.

    Every assignment pays at least each row's minimum (each column's when
    n > m). So if the nearest columns of the rows are pairwise distinct,
    taking them is optimal, and that settles most tracker frames. Otherwise
    the rows that lost their nearest column are placed by shortest
    augmenting paths (_augment).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D array")
    # 0 * c is 0 for every finite c, and NaN for NaN and for +-inf
    flat = cost.ravel()
    if not math.isfinite(flat.dot(np.zeros(flat.size))):
        raise ValueError("cost must be finite")
    if cost.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    by_column = cost.shape[0] > cost.shape[1]
    nearest = cost.argmin(axis=0 if by_column else 1)
    listed = nearest.tolist()
    if len(set(listed)) < len(listed):
        nearest = np.array(_augment(cost.T if by_column else cost, listed),
                           dtype=np.intp)
    if by_column:
        order = nearest.argsort()
        return nearest[order], order
    return np.arange(len(listed)), nearest


def _augment(cost: np.ndarray, nearest: list[int]) -> list[int]:
    """Column of each row of an (n, m) cost with n <= m, at minimum total cost.

    Shortest augmenting paths (Jonker-Volgenant, in the rectangular form of
    Crouse, IEEE TAES 2016, which scipy uses), warm-started from the nearest
    columns: duals u = row minima and v = 0, and each row takes its nearest
    column where that column is still free. That start is dual feasible
    (every reduced cost c - u - v >= 0, zero on each pair, v = 0 on free
    columns), so only the rows left without a column are augmented, each by
    one Dijkstra over the reduced costs, one vectorised step per column it
    scans.
    """
    n, m = cost.shape
    u = cost.min(axis=1)
    v = np.zeros(m)
    row4col = [-1] * m
    col4row = [-1] * n
    for i, j in enumerate(nearest):
        if row4col[j] < 0:
            row4col[j] = i
            col4row[i] = j
    for start in [i for i in range(n) if col4row[i] < 0]:
        reduced = cost - u[:, None]
        reduced -= v
        lengths = np.empty((n, m))     # path lengths through each reached row
        dist = np.full(m, np.inf)      # shortest length to each unscanned column
        rows, scanned, reach = [], [], []
        i, low = start, 0.0
        while True:
            length = lengths[len(rows)]
            rows.append(i)
            np.add(reduced[i], low, out=length)
            np.minimum(dist, length, out=dist)
            j = int(dist.argmin())
            low = float(dist[j])
            scanned.append(j)
            reach.append(low)
            reduced[:, j] = np.inf     # a scanned column is final
            dist[j] = np.inf
            i = row4col[j]
            if i < 0:
                break
        # keep the reduced costs >= 0 and zero along the new pairs
        u[start] += low
        if len(rows) > 1:
            shift = low - np.array(reach[:-1])
            u[rows[1:]] += shift
            v[scanned[:-1]] -= shift
        # each column's predecessor is the first row that reached it at its
        # final length; flip the pairs along the path back to the start
        via = lengths[:len(rows)].argmin(axis=0).tolist()
        j = scanned[-1]
        while True:
            i = rows[via[j]]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def associate(tracks: np.ndarray, detections: np.ndarray,
              d_max: float) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost assignment on center distance, gated at d_max.

    tracks and detections are (n, 2) and (m, 2) arrays of centres.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    Pairs whose distance exceeds the gate are severed: the detection becomes
    a new track and the track records a miss.
    """
    if len(tracks) == 0 or len(detections) == 0:
        return [], list(range(len(tracks))), list(range(len(detections)))
    cost = affinity_matrix(tracks, detections)
    rows, cols = min_cost_assignment(cost)
    matches = []
    matched_tracks: set[int] = set()
    matched_dets: set[int] = set()
    for i, j in zip(rows, cols):
        if cost[i, j] > d_max:
            continue
        matches.append((int(i), int(j)))
        matched_tracks.add(int(i))
        matched_dets.add(int(j))
    unmatched_tracks = [i for i in range(len(tracks)) if i not in matched_tracks]
    unmatched_dets = [j for j in range(len(detections)) if j not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


def kalman_step(track: TrackedObstacle, detection: Ellipse | None, dt: float,
                params: TrackerParams) -> TrackedObstacle:
    """Predict with the constant-acceleration model, then update if measured.

    An absent detection is a predict-only step: the miss counter increments
    and the covariance grows by the process noise. Only detection.center is
    measured.

    With F = [[1, dt, dt^2/2], [0, 1, dt], [0, 0, 1]] the step is x' = F x,
    P' = F P F^T + Q, then the scalar-gain update k = P'[:, 0] / (P'_00 + r).
    At 3x3 it is written out in Python floats over the six distinct entries
    of the symmetric P, which costs less than the numpy calls it replaces.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    half = 0.5 * dt * dt
    (px, py), (vx, vy), (ax, ay) = track.state.tolist()
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = track.motion_cov.tolist()
    px, py = px + dt * vx + half * ax, py + dt * vy + half * ay
    vx, vy = vx + dt * ax, vy + dt * ay
    # F P F^T: first the rows of F P, then the columns of (F P) F^T
    a00 = p00 + dt * p01 + half * p02
    a01 = p01 + dt * p11 + half * p12
    a02 = p02 + dt * p12 + half * p22
    a11, a12 = p11 + dt * p12, p12 + dt * p22
    c00 = a00 + dt * a01 + half * a02 + params.q_pos
    c01, c02 = a01 + dt * a02, a02
    c11, c12, c22 = a11 + dt * a12 + params.q_vel, a12, p22 + params.q_acc

    if detection is None:
        track.misses += 1
    else:
        innovation_var = c00 + params.r_center
        k0, k1, k2 = c00 / innovation_var, c01 / innovation_var, c02 / innovation_var
        zx, zy = detection.center.tolist()
        ex, ey = zx - px, zy - py
        px, py = px + k0 * ex, py + k0 * ey
        vx, vy = vx + k1 * ex, vy + k1 * ey
        ax, ay = ax + k2 * ex, ay + k2 * ey
        c00, c01, c02, c11, c12, c22 = (
            c00 - k0 * c00, c01 - k0 * c01, c02 - k0 * c02,
            c11 - k1 * c01, c12 - k1 * c02, c22 - k2 * c02)
        track.age += 1
        track.misses = 0
    track.state[:] = ((px, py), (vx, vy), (ax, ay))
    track.motion_cov = np.array([[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]])
    return track


class ObstacleTracker:
    """Owns the track list: association, filtering, lifecycle, fresh ids."""

    def __init__(self, params: TrackerParams | None = None) -> None:
        self.params = params or TrackerParams()
        self.tracks: list[TrackedObstacle] = []
        self._next_id = 0

    def step(self, detections: list[Ellipse], dt: float) -> dict[int, TrackedObstacle]:
        """Advance all tracks one frame; returns detection index -> track."""
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        matches, unmatched_tracks, unmatched_dets = associate(
            [t.center for t in self.tracks], [d.center for d in detections],
            self.params.d_max)

        assignment: dict[int, TrackedObstacle] = {}
        for ti, dj in matches:
            assignment[dj] = kalman_step(self.tracks[ti], detections[dj],
                                         dt, self.params)
        for ti in unmatched_tracks:
            kalman_step(self.tracks[ti], None, dt, self.params)
        self.tracks = [t for t in self.tracks
                       if t.misses < self.params.max_misses]
        for dj in unmatched_dets:
            track = new_track(self._next_id, detections[dj], self.params)
            self._next_id += 1
            self.tracks.append(track)
            assignment[dj] = track
        return assignment
