"""Deterministic 2D world: unicycle integration, moving circular obstacles,
and a planar ray-cast range sensor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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


@dataclass(frozen=True)
class MotionSpec:
    """Obstacle motion: static, constant velocity, or sinusoidal oscillation."""

    kind: str = "static"
    velocity: tuple[float, float] = (0.0, 0.0)
    axis: tuple[float, float] = (1.0, 0.0)
    amplitude: float = 0.0
    period: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MOTION_KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if not self.amplitude >= 0.0:
            raise ValueError("amplitude must be >= 0")
        if not self.period > 0.0:
            raise ValueError("period must be > 0")
        if not math.hypot(*self.axis) > 0.0:
            raise ValueError("axis must be nonzero")


@dataclass
class Obstacle:
    """Circular obstacle; spawn is the center at t = 0."""

    obstacle_id: str
    radius: float
    spawn: np.ndarray
    motion: MotionSpec = field(default_factory=MotionSpec)
    center: np.ndarray | None = None
    # the frozen motion's velocity and unit sinusoid axis, built once
    _velocity: np.ndarray = field(init=False, repr=False, compare=False)
    _unit_axis: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("obstacle radius must be > 0")
        self.spawn = np.asarray(self.spawn, dtype=float)
        if self.center is None:
            self.center = self.spawn.copy()
        self._velocity = np.asarray(self.motion.velocity)
        self._unit_axis = None
        if self.motion.kind == "sinusoid":
            axis = np.asarray(self.motion.axis, dtype=float)
            self._unit_axis = axis / np.linalg.norm(axis)

    def advance(self, t_next: float, dt: float) -> None:
        if self.motion.kind == "velocity":
            self.center = self.center + self._velocity * dt
        elif self.motion.kind == "sinusoid":
            phase = 2.0 * np.pi * t_next / self.motion.period
            # closed-form position so long episodes accumulate no drift
            self.center = (self.spawn
                           + self._unit_axis * self.motion.amplitude * np.sin(phase))


class World:
    """Owns the obstacles and the simulation clock."""

    def __init__(self, obstacles: list[Obstacle] | None = None) -> None:
        self.obstacles = obstacles or []
        self.time = 0.0

    def advance(self, dt: float) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        t_next = self.time + dt
        for obstacle in self.obstacles:
            obstacle.advance(t_next, dt)
        self.time = t_next

    def clearance(self, point) -> float:
        """Distance from a point to the nearest obstacle boundary (inf if none)."""
        obstacles = self.obstacles
        if not obstacles:
            return float("inf")
        offsets = (np.asarray(point, dtype=float)
                   - np.array([ob.center for ob in obstacles]))
        # (K, 1, 2) @ (K, 2, 1) rounds as np.linalg.norm's own dot product does
        squared = np.matmul(offsets[:, None, :], offsets[:, :, None]).ravel().tolist()
        return min(math.sqrt(sq) - ob.radius for sq, ob in zip(squared, obstacles))


@dataclass(frozen=True)
class LidarSpec:
    beam_count: int = 360
    max_range: float = 6.0
    noise_sigma: float = 0.0       # m, Gaussian range noise on hits

    def __post_init__(self) -> None:
        if not self.beam_count > 0:
            raise ValueError("beam_count must be > 0")
        if not self.beam_count <= 7200:            # 0.05 degrees apart
            raise ValueError("beam_count must be <= 7200")
        if not self.max_range > 0.0:
            raise ValueError("max_range must be > 0")
        if not self.noise_sigma >= 0.0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass
class LidarScan:
    """Beam angles are in the robot frame; range == max_range marks a miss."""

    angles: np.ndarray
    ranges: np.ndarray
    hits: np.ndarray


def step_dynamics(state: RobotState, control, dt: float) -> RobotState:
    """Integrate the unicycle one step with RK4 under a held control input.

    control provides .v (m/s) and .omega (rad/s). The heading is wrapped
    after the step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    v, omega = float(control.v), float(control.omega)

    def deriv(theta: float) -> np.ndarray:
        return np.array([v * np.cos(theta), v * np.sin(theta), omega])

    y0 = np.array([state.x, state.y, state.theta])
    k1 = deriv(y0[2])
    k2 = deriv(y0[2] + 0.5 * dt * k1[2])
    k3 = deriv(y0[2] + 0.5 * dt * k2[2])
    k4 = deriv(y0[2] + dt * k3[2])
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return RobotState(x=float(y1[0]), y=float(y1[1]), theta=wrap_angle(float(y1[2])))


def cast_lidar(world: World, robot: RobotState, spec: LidarSpec,
               rng: np.random.Generator | None = None) -> LidarScan:
    """Exact ray-circle intersection for every beam; nearest positive root wins.

    Optional Gaussian range noise is drawn from the provided generator and
    applied to hit ranges only, clipped so a noisy hit can never turn into a
    max-range miss.
    """
    beams = spec.beam_count
    angles = 2.0 * np.pi * np.arange(beams) / beams
    dirs = np.stack([np.cos(robot.theta + angles), np.sin(robot.theta + angles)], axis=1)
    obstacles = world.obstacles
    to_center = (np.array([ob.center for ob in obstacles]).reshape(-1, 2)
                 - robot.position)
    radii = np.array([ob.radius for ob in obstacles])
    radius_sq = np.array([ob.radius**2 for ob in obstacles])   # libm pow, not r * r
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
    return LidarScan(angles=angles, ranges=ranges, hits=hits)
