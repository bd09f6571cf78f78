"""Robot-centered occupancy grid and per-cell velocities from range scans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the local grid window (cells and meters per cell)."""

    width: int = 60
    height: int = 60
    resolution: float = 0.2

    def __post_init__(self) -> None:
        for name in ("width", "height", "resolution"):
            if not getattr(self, name) > 0:
                raise ValueError(f"grid {name} must be > 0")
        for name in ("width", "height"):          # 200 m at 0.2 m per cell
            if not getattr(self, name) <= 1000:
                raise ValueError(f"grid {name} must be <= 1000")
        if not self.resolution >= 1e-3:
            raise ValueError("grid resolution must be >= 1e-3")
        if not self.resolution <= 1e3:
            raise ValueError("grid resolution must be <= 1e3")


def grid_origin(robot_position, spec: GridSpec) -> np.ndarray:
    """World coordinates of the (0, 0) cell corner for a robot-centered window.

    The window center is snapped to the cell lattice so a static obstacle
    keeps producing the same cell centers while the robot moves.
    """
    res = spec.resolution
    x, y = robot_position
    # Python's round is half-to-even, as np.round is
    return np.array([round(x / res) * res - res * spec.width / 2.0,
                     round(y / res) * res - res * spec.height / 2.0])


@dataclass
class ObstacleGridMap:
    """Binary occupancy over the local window, rebuilt every frame.

    The occupied cells are found once, on construction: cells holds their
    (M, 2) integer indices and points their (M, 2) world centres, both in
    row-major order. Every per-cell array of the frame aligns with them.

    cells is laid out in memory column-major, as np.argwhere returns it,
    and points inherits that layout. Keep it: points become the GP's
    training points, and numpy reductions over them (gp.mean_terms) round
    their last bits by memory layout, so C-ordered cells move the barrier
    gradient by ~1e-15 and the logged constraint slack with it.
    """

    spec: GridSpec
    origin: np.ndarray            # world xy of the (0, 0) cell corner
    occupied: np.ndarray          # (width, height) bool
    cells: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        flat = np.flatnonzero(self.occupied)
        cells = np.empty((2, len(flat)), dtype=np.intp)
        np.divmod(flat, self.occupied.shape[1], out=(cells[0], cells[1]))
        self.cells = cells.T              # column-major, as np.argwhere's
        self.points = self.origin + self.spec.resolution * (self.cells + 0.5)


def update_obstacle_grid(scan, robot, spec: GridSpec) -> ObstacleGridMap:
    """Mark the cells containing this frame's ray endpoints.

    Only returning beams (range < max range) mark cells; max-range misses
    contribute nothing. Endpoints outside the window are dropped.
    """
    origin = grid_origin((robot.x, robot.y), spec)
    occupied = np.zeros((spec.width, spec.height), dtype=bool)
    hits = scan.hits
    if np.any(hits):
        endpoints = robot.position + scan.ranges[hits, None] * scan.directions[hits]
        cells = np.floor((endpoints - origin) / spec.resolution).astype(int)
        inside = ((cells[:, 0] >= 0) & (cells[:, 0] < spec.width)
                  & (cells[:, 1] >= 0) & (cells[:, 1] < spec.height))
        cells = cells[inside]
        occupied[cells[:, 0], cells[:, 1]] = True
    return ObstacleGridMap(spec=spec, origin=origin, occupied=occupied)


def build_velocity_grid(labels: np.ndarray, cluster_velocities) -> np.ndarray:
    """Per-cell velocities, (M, 2), aligned with the labels' cells.

    cluster_velocities holds one (2,) velocity per cluster id 0..C-1. Each
    cell reads its cluster's row of a (C + 1, 2) table whose last row is
    zero, so NOISE (-1) cells get zero velocity.
    """
    table = np.array([*cluster_velocities, (0.0, 0.0)])
    return table[labels]
