"""Frame-to-frame centre association and per-obstacle Kalman tracking.

Each track estimates the centre's position, velocity and acceleration under
a constant-acceleration model, as six floats [px, py, vx, vy, ax, ay]. The
noise densities are shared by both axes and a detection measures one
position per axis, so the 6x6 covariance over that state stays one 3x3
block P over (position, velocity, acceleration), shared by x and y, and a
track keeps only its six distinct entries. Association is scipy's exact
linear sum assignment (Crouse's shortest augmenting paths, IEEE TAES 2016)
on centre distances, over one stacked array of centres per frame, with a
gate; gated-out pairs spawn new tracks and record misses. Only the centre
velocity leaves the tracker, for the barrier's time derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._scipy import extension
from .ellipse import Ellipse

linear_sum_assignment = extension("scipy.optimize._lsap").linear_sum_assignment

MAX_MISSES = 5         # consecutive predict-only frames before a track is dropped
MIN_VELOCITY_AGE = 2   # updates before a track reports velocity


@dataclass(frozen=True)
class TrackerParams:
    """Association gate, velocity spike guard, and filter noise densities."""

    d_max: float = 1.0             # m, association gate on center distance
    min_speed: float = 0.0         # m/s, report zero below this (spike guard)
    q_pos: float = 1e-4
    q_vel: float = 1e-2
    q_acc: float = 1e-1
    r_center: float = 4e-4         # (2 cm)^2

    def __post_init__(self) -> None:
        if not self.d_max > 0.0:
            raise ValueError("d_max must be > 0")
        for name in ("min_speed", "q_pos", "q_vel", "q_acc", "r_center"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.q_pos + self.r_center == 0.0:
            raise ValueError("q_pos + r_center must be > 0")


@dataclass(slots=True)
class TrackedObstacle:
    """One tracked obstacle centre; age counts absorbed measurement updates.

    The filter lives in Python floats: the state as six fields and the
    shared 3x3 covariance block as its six distinct entries
    (p00, p01, p02, p11, p12, p22) over (position, velocity, acceleration).
    """

    track_id: int
    px: float
    py: float
    cov: tuple[float, float, float, float, float, float]
    vx: float = 0.0
    vy: float = 0.0
    ax: float = 0.0
    ay: float = 0.0
    age: int = 0
    misses: int = 0

    def velocity(self, min_age: int = MIN_VELOCITY_AGE,
                 min_speed: float = 0.0) -> tuple[float, float]:
        """Estimated center velocity; zero until the track has warmed up.

        Speeds below min_speed also report zero, so near-static obstacles do
        not inject phantom motion into the barrier's time derivative.
        """
        if self.age < min_age or math.hypot(self.vx, self.vy) < min_speed:
            return (0.0, 0.0)
        return (self.vx, self.vy)


def new_track(track_id: int, detection: Ellipse, params: TrackerParams) -> TrackedObstacle:
    """Start a track from a detection with unknown velocity and acceleration."""
    px, py = detection.center
    return TrackedObstacle(track_id=track_id, px=px, py=py,
                           cov=(params.r_center, 0.0, 0.0, 1.0, 0.0, 1.0))


def affinity_matrix(tracks: np.ndarray, detections: np.ndarray) -> np.ndarray:
    """Center Euclidean distances, rows = tracks, cols = detections.

    Computed as sqrt(dx * dx + dy * dy), which rounds exactly as
    np.linalg.norm over the last axis of the (n, m, 2) differences.
    """
    ct = np.asarray(tracks, dtype=float).reshape(-1, 2)
    cd = np.asarray(detections, dtype=float).reshape(-1, 2)
    dx = ct[:, 0, None] - cd[:, 0]
    dy = ct[:, 1, None] - cd[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def associate(tracks: np.ndarray, detections: np.ndarray,
              d_max: float) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost assignment on center distance, gated at d_max.

    tracks and detections are (n, 2) and (m, 2) arrays of centres.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    Pairs whose distance exceeds the gate are severed: the detection becomes
    a new track and the track records a miss.
    """
    n, m = len(tracks), len(detections)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    cost = affinity_matrix(tracks, detections)
    rows, cols = linear_sum_assignment(cost)
    gated = (cost[rows, cols] <= d_max).tolist()
    matches = [pair for pair, keep in zip(zip(rows.tolist(), cols.tolist()), gated)
               if keep]
    track_free, det_free = [True] * n, [True] * m
    for i, j in matches:
        track_free[i] = det_free[j] = False
    return (matches, [i for i in range(n) if track_free[i]],
            [j for j in range(m) if det_free[j]])


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
    px, py, vx, vy, ax, ay = (track.px, track.py, track.vx, track.vy,
                              track.ax, track.ay)
    p00, p01, p02, p11, p12, p22 = track.cov
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
        zx, zy = detection.center
        ex, ey = zx - px, zy - py
        px, py = px + k0 * ex, py + k0 * ey
        vx, vy = vx + k1 * ex, vy + k1 * ey
        ax, ay = ax + k2 * ex, ay + k2 * ey
        c00, c01, c02, c11, c12, c22 = (
            c00 - k0 * c00, c01 - k0 * c01, c02 - k0 * c02,
            c11 - k1 * c01, c12 - k1 * c02, c22 - k2 * c02)
        track.age += 1
        track.misses = 0
    track.px, track.py, track.vx, track.vy, track.ax, track.ay = (
        px, py, vx, vy, ax, ay)
    track.cov = (c00, c01, c02, c11, c12, c22)
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
        tracks = self.tracks
        # two coordinate rows, viewed as (n, 2): faster than n (x, y) pairs
        centres = np.array([[t.px for t in tracks], [t.py for t in tracks]]).T
        measured = np.array([[d.center[0] for d in detections],
                             [d.center[1] for d in detections]]).T
        matches, unmatched_tracks, unmatched_dets = associate(
            centres, measured, self.params.d_max)

        assignment: dict[int, TrackedObstacle] = {}
        for ti, dj in matches:
            assignment[dj] = kalman_step(tracks[ti], detections[dj], dt,
                                         self.params)
        for ti in unmatched_tracks:
            kalman_step(tracks[ti], None, dt, self.params)
        self.tracks = [t for t in tracks if t.misses < MAX_MISSES]
        for dj in unmatched_dets:
            track = new_track(self._next_id, detections[dj], self.params)
            self._next_id += 1
            self.tracks.append(track)
            assignment[dj] = track
        return assignment
