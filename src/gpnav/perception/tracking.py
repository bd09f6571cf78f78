"""Frame-to-frame ellipse association and per-obstacle Kalman tracking.

Each track carries a 9-state filter [cx, cy, vx, vy, ax, ay, semi_major,
semi_minor, angle]: constant acceleration on the center, random walk on the
shape. Association is a minimum-cost assignment on center distances with a
gate; gated-out pairs spawn new tracks and record misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .ellipse import Ellipse, _wrap_orientation

STATE_DIM = 9
_MEAS_IDX = np.array([0, 1, 6, 7, 8])   # measured entries: center + shape


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
    q_shape: float = 1e-4
    r_center: float = 4e-4         # (2 cm)^2
    r_shape: float = 1e-3

    def __post_init__(self) -> None:
        if self.d_max <= 0.0:
            raise ValueError("d_max must be > 0")
        if self.max_misses < 1:
            raise ValueError("max_misses must be >= 1")

    def process_noise(self) -> np.ndarray:
        return np.diag([self.q_pos, self.q_pos, self.q_vel, self.q_vel,
                        self.q_acc, self.q_acc, self.q_shape, self.q_shape,
                        self.q_shape])

    def measurement_noise(self) -> np.ndarray:
        return np.diag([self.r_center, self.r_center, self.r_shape,
                        self.r_shape, self.r_shape])


@dataclass
class TrackedObstacle:
    """One tracked ellipse; age counts absorbed measurement updates."""

    track_id: int
    state: np.ndarray              # (9,)
    covariance: np.ndarray         # (9, 9) symmetric PSD
    age: int = 0
    misses: int = 0

    @property
    def center(self) -> np.ndarray:
        return self.state[:2]

    def velocity(self, min_age: int = 2, min_speed: float = 0.0) -> np.ndarray:
        """Estimated center velocity; zero until the track has warmed up.

        Speeds below min_speed also report zero, so near-static obstacles do
        not inject phantom motion into the barrier's time derivative.
        """
        if self.age < min_age:
            return np.zeros(2)
        estimate = self.state[2:4]
        if float(np.linalg.norm(estimate)) < min_speed:
            return np.zeros(2)
        return estimate.copy()

    def ellipse(self) -> Ellipse:
        semi_major = max(self.state[6], 1e-3)
        semi_minor = min(max(self.state[7], 1e-3), semi_major)
        return Ellipse(center=self.state[:2].copy(), semi_major=float(semi_major),
                       semi_minor=float(semi_minor),
                       angle=_wrap_orientation(float(self.state[8])))


def new_track(track_id: int, detection: Ellipse, params: TrackerParams) -> TrackedObstacle:
    """Start a track from a detection with unknown velocity and acceleration."""
    state = np.zeros(STATE_DIM)
    state[:2] = detection.center
    state[6] = detection.semi_major
    state[7] = detection.semi_minor
    state[8] = detection.angle
    cov = np.diag([params.r_center, params.r_center, 1.0, 1.0, 1.0, 1.0,
                   params.r_shape, params.r_shape, params.r_shape])
    return TrackedObstacle(track_id=track_id, state=state, covariance=cov)


def affinity_matrix(tracks: list[Ellipse], detections: list[Ellipse]) -> np.ndarray:
    """Center Euclidean distances, rows = tracks, cols = detections."""
    ct = np.array([track.center for track in tracks], dtype=float).reshape(-1, 2)
    cd = np.array([det.center for det in detections], dtype=float).reshape(-1, 2)
    return np.linalg.norm(ct[:, None] - cd[None], axis=2)


def associate(tracks: list[Ellipse], detections: list[Ellipse],
              d_max: float) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost assignment on center distance, gated at d_max.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    Pairs whose distance exceeds the gate are severed: the detection becomes
    a new track and the track records a miss.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    cost = affinity_matrix(tracks, detections)
    rows, cols = linear_sum_assignment(cost)
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
    and the covariance grows by the process noise. The angle innovation is
    wrapped to (-pi/2, pi/2] to respect the ellipse's half-turn symmetry.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    transition = np.eye(STATE_DIM)
    transition[0, 2] = transition[1, 3] = dt
    transition[2, 4] = transition[3, 5] = dt
    transition[0, 4] = transition[1, 5] = 0.5 * dt * dt

    track.state = transition @ track.state
    track.covariance = (transition @ track.covariance @ transition.T
                        + params.process_noise())

    if detection is None:
        track.misses += 1
        return track

    measured = np.array([detection.center[0], detection.center[1],
                         detection.semi_major, detection.semi_minor,
                         detection.angle])
    innovation = measured - track.state[_MEAS_IDX]
    angle_err = (innovation[4] + np.pi / 2.0) % np.pi - np.pi / 2.0
    if angle_err == -np.pi / 2.0:
        angle_err = np.pi / 2.0
    innovation[4] = angle_err

    cov_meas = track.covariance[np.ix_(_MEAS_IDX, _MEAS_IDX)] + params.measurement_noise()
    cross = track.covariance[:, _MEAS_IDX]
    gain = np.linalg.solve(cov_meas, cross.T).T
    track.state = track.state + gain @ innovation
    track.state[8] = _wrap_orientation(float(track.state[8]))
    identity_less = np.eye(STATE_DIM)
    identity_less[np.arange(STATE_DIM)[:, None], _MEAS_IDX] -= gain
    track.covariance = identity_less @ track.covariance
    track.covariance = 0.5 * (track.covariance + track.covariance.T)
    track.age += 1
    track.misses = 0
    return track


class ObstacleTracker:
    """Owns the track list: association, filtering, lifecycle, fresh ids."""

    def __init__(self, params: TrackerParams | None = None) -> None:
        self.params = params or TrackerParams()
        self.tracks: list[TrackedObstacle] = []
        self._next_id = 0

    def step(self, detections: list[Ellipse], dt: float) -> dict[int, TrackedObstacle]:
        """Advance all tracks one frame; returns detection index -> track."""
        track_ellipses = [t.ellipse() for t in self.tracks]
        matches, unmatched_tracks, unmatched_dets = associate(
            track_ellipses, detections, self.params.d_max)

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
