"""Deterministic 2D world: unicycle integration, moving circular obstacles,
and a planar ray-cast range sensor."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from functools import lru_cache

import numpy as np

from ._bounds import bounded, check_bounds


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((theta + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass
class RobotState:
    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        self.theta = wrap_angle(self.theta)

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


MOTION_KINDS = ("static", "velocity", "sinusoid")

# m; a larger radius could overflow the LiDAR cast and radius**2
OBSTACLE_RADIUS = "(0, 1e3]"


@dataclass(frozen=True)
class MotionSpec:
    """Obstacle motion: static, constant velocity, or sinusoidal oscillation."""

    kind: str = "static"
    velocity: tuple[float, float] = bounded((0.0, 0.0), "[-1e3, 1e3]")  # as u_max
    axis: tuple[float, float] = (1.0, 0.0)
    amplitude: float = bounded(0.0, "[0, 1e6]")     # as a coordinate
    period: float = bounded(1.0, "[1e-3, inf)")     # keeps 2 pi t / period finite

    def __post_init__(self) -> None:
        if self.kind not in MOTION_KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}")
        check_bounds(self)
        # a direction has no scale; this keeps np.linalg.norm in _unit finite
        if not 1e-6 <= math.hypot(*self.axis) <= 1e6:
            raise ValueError("axis length must be in [1e-6, 1e6]")


@dataclass
class Obstacle:
    """Circular obstacle description; spawn is the center at t = 0.

    A World reads it once and moves its own copy of the centres.
    """

    obstacle_id: str
    radius: float = bounded(MISSING, OBSTACLE_RADIUS)
    spawn: np.ndarray
    motion: MotionSpec = field(default_factory=MotionSpec)

    def __post_init__(self) -> None:
        check_bounds(self)
        self.spawn = np.asarray(self.spawn, dtype=float)


def _pairs(rows) -> np.ndarray:
    """A list of (x, y) pairs as a (K, 2) float array, (0, 2) when empty."""
    return np.array(rows, dtype=float).reshape(-1, 2)


def _unit(axis) -> np.ndarray:
    """The direction of a nonzero (x, y) axis as a unit vector."""
    axis = np.asarray(axis, dtype=float)
    return axis / np.linalg.norm(axis)


class World:
    """Owns the obstacles' state and the simulation clock.

    On construction it stacks, from the obstacles' spawns, centres (K, 2),
    radii and radius_sq (K,), and one row per obstacle of each motion
    parameter: velocity (zero unless constant velocity), reach = unit axis
    times amplitude (zero unless sinusoid) and period. It keeps no Obstacle
    and writes none. advance sets every centre at the new time t to
    spawn + velocity t + reach sin(2 pi t / period), so nothing drifts.
    """

    def __init__(self, obstacles: list[Obstacle] | None = None) -> None:
        obstacles = obstacles or []
        self.time = 0.0
        self._spawn = _pairs([ob.spawn for ob in obstacles])
        self.centres = self._spawn.copy()
        self.radii = np.array([ob.radius for ob in obstacles], dtype=float)
        self.radius_sq = np.array([ob.radius**2 for ob in obstacles],
                                  dtype=float)      # libm pow, not r * r
        self._radius_list = self.radii.tolist()
        motions = [ob.motion for ob in obstacles]
        self._velocity = _pairs([m.velocity if m.kind == "velocity" else (0.0, 0.0)
                                 for m in motions])
        self._reach = _pairs([_unit(m.axis) * m.amplitude
                              if m.kind == "sinusoid" else (0.0, 0.0)
                              for m in motions])
        self._period = np.array([m.period for m in motions], dtype=float)

    def advance(self, dt: float) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        self.time += dt
        phase = 2.0 * np.pi * self.time / self._period
        self.centres = (self._spawn + self._velocity * self.time
                        + self._reach * np.sin(phase)[:, None])

    def clearance(self, point) -> float:
        """Distance from a point to the nearest obstacle boundary (inf if none)."""
        if not self._radius_list:
            return float("inf")
        offsets = np.asarray(point, dtype=float) - self.centres
        # (K, 1, 2) @ (K, 2, 1) rounds as np.linalg.norm's own dot product does
        squared = np.matmul(offsets[:, None, :], offsets[:, :, None]).ravel().tolist()
        return min(math.sqrt(sq) - r for sq, r in zip(squared, self._radius_list))


@dataclass(frozen=True)
class LidarSpec:
    beam_count: int = bounded(360, "(0, 7200]")      # 0.05 degrees apart
    max_range: float = bounded(6.0, "(0, 1e6]")      # m, the coordinate bound
    noise_sigma: float = bounded(0.0, "[0, inf)")    # m, Gaussian range noise on hits

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class LidarScan:
    """One range per beam; range == max_range marks a miss.

    directions holds each beam's (B, 2) unit vector in the world frame,
    (cos, sin) of robot heading + the beam's robot-frame angle.
    """

    ranges: np.ndarray
    hits: np.ndarray
    directions: np.ndarray


def step_dynamics(state: RobotState, control, dt: float) -> RobotState:
    """Integrate the unicycle one step with RK4 under a held control input.

    control provides .v (m/s) and .omega (rad/s). The heading is wrapped
    after the step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    v, omega = float(control.v), float(control.omega)
    th = state.theta
    # the heading rate is constant, so the stage headings are known up front
    # and the two middle stages are equal
    mid = th + 0.5 * dt * omega
    end = th + dt * omega
    x1, x2, x4 = v * math.cos(th), v * math.cos(mid), v * math.cos(end)
    y1, y2, y4 = v * math.sin(th), v * math.sin(mid), v * math.sin(end)
    h = dt / 6.0
    # ((k1 + 2 k2) + 2 k3) + k4: the golden outputs pin this summation order
    x = float(state.x) + h * (((x1 + 2.0 * x2) + 2.0 * x2) + x4)
    y = float(state.y) + h * (((y1 + 2.0 * y2) + 2.0 * y2) + y4)
    theta = th + h * (((omega + 2.0 * omega) + 2.0 * omega) + omega)
    return RobotState(x=x, y=y, theta=wrap_angle(theta))


@lru_cache(maxsize=8)
def _beam_angles(beams: int) -> np.ndarray:
    """Robot-frame angles of beams evenly spaced over a full turn, read-only."""
    angles = 2.0 * np.pi * np.arange(beams) / beams
    angles.setflags(write=False)
    return angles


def cast_lidar(world: World, robot: RobotState, spec: LidarSpec,
               rng: np.random.Generator | None = None) -> LidarScan:
    """Exact ray-circle intersection for every beam; nearest positive root wins.

    Optional Gaussian range noise is drawn from the provided generator and
    applied to hit ranges only, clipped so a noisy hit can never turn into a
    max-range miss.
    """
    world_angles = robot.theta + _beam_angles(spec.beam_count)
    dirs = np.stack([np.cos(world_angles), np.sin(world_angles)], axis=1)
    to_center = world.centres - robot.position
    radii, radius_sq = world.radii, world.radius_sq
    # (K, 1, 2) @ (K, 2, 1) and (1, B, 2) @ (K, 2, 1) round exactly as one
    # obstacle's own dot products; a 2-D (B, 2) @ (2, K) product does not
    center_sq = np.matmul(to_center[:, None, :], to_center[:, :, None])[:, 0, 0]
    # an obstacle whose nearest boundary is out of range makes no hit; the
    # margin keeps one whose computed root rounds below max_range
    reach = spec.max_range * (1.0 + 1e-9) + radii
    in_range = center_sq < reach * reach
    to_center = to_center[in_range]
    closest_sq = center_sq[in_range] - radius_sq[in_range]
    along = np.matmul(dirs[None], to_center[:, :, None])[:, :, 0]   # (K, B)
    disc = np.multiply(along, along)
    disc -= closest_sq[:, None]
    feasible = disc >= 0.0
    root = np.sqrt(disc, out=disc, where=feasible)
    near = np.subtract(along, root, out=np.full_like(along, np.inf),
                       where=feasible)                 # inf where beams miss
    far = np.add(along, root, out=along)
    dist = np.where(far > 1e-9, far, np.inf)
    np.copyto(dist, near, where=near > 1e-9)
    best = dist.min(axis=0, initial=np.inf)

    hits = best < spec.max_range
    ranges = np.where(hits, best, spec.max_range)
    if spec.noise_sigma > 0.0 and rng is not None and np.any(hits):
        noisy = ranges[hits] + rng.normal(0.0, spec.noise_sigma, int(hits.sum()))
        ranges[hits] = np.clip(noisy, 1e-6, np.nextafter(spec.max_range, 0.0))
    return LidarScan(ranges=ranges, hits=hits, directions=dirs)
