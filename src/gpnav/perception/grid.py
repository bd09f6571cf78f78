"""Robot-centered occupancy and velocity grid maps built from range scans."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the local grid window (cells and meters per cell)."""

    width: int = 60
    height: int = 60
    resolution: float = 0.2

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid width and height must be > 0")
        if self.resolution <= 0.0:
            raise ValueError("grid resolution must be > 0")


def grid_origin(robot_position, spec: GridSpec) -> np.ndarray:
    """World coordinates of the (0, 0) cell corner for a robot-centered window.

    The window center is snapped to the cell lattice so a static obstacle
    keeps producing the same cell centers while the robot moves.
    """
    res = spec.resolution
    center = np.round(np.asarray(robot_position, dtype=float) / res) * res
    return center - res * np.array([spec.width, spec.height]) / 2.0


@dataclass
class ObstacleGridMap:
    """Binary occupancy over the local window; rebuilt from scratch each frame."""

    spec: GridSpec
    origin: np.ndarray            # world xy of the (0, 0) cell corner
    occupied: np.ndarray          # (width, height) bool

    def world_to_cell(self, point) -> tuple[int, int] | None:
        """Cell index containing a world point, or None when outside the window."""
        rel = (np.asarray(point, dtype=float) - self.origin) / self.spec.resolution
        ix, iy = int(np.floor(rel[0])), int(np.floor(rel[1]))
        if 0 <= ix < self.spec.width and 0 <= iy < self.spec.height:
            return ix, iy
        return None

    def cell_center(self, ix: int, iy: int) -> np.ndarray:
        return self.origin + self.spec.resolution * (np.array([ix, iy], dtype=float) + 0.5)

    def occupied_cells(self) -> np.ndarray:
        """Indices of occupied cells, (M, 2) int, in row-major order."""
        return np.argwhere(self.occupied)

    def occupied_points(self) -> np.ndarray:
        """World centers of occupied cells, (M, 2), in row-major order."""
        cells = self.occupied_cells()
        return self.origin + self.spec.resolution * (cells.astype(float) + 0.5)


@dataclass
class VelocityGridMap:
    """Per-cell 2D obstacle velocity, aligned with an ObstacleGridMap."""

    spec: GridSpec
    origin: np.ndarray
    velocities: np.ndarray        # (width, height, 2) m/s

    def velocities_at(self, cells: np.ndarray) -> np.ndarray:
        """Velocity vectors for an (M, 2) array of cell indices."""
        if len(cells) == 0:
            return np.zeros((0, 2))
        return self.velocities[cells[:, 0], cells[:, 1]]


def update_obstacle_grid(scan, robot, spec: GridSpec) -> ObstacleGridMap:
    """Mark the cells containing this frame's ray endpoints.

    Only returning beams (range < max range) mark cells; max-range misses
    contribute nothing. Endpoints outside the window are dropped.
    """
    origin = grid_origin(robot.position, spec)
    occupied = np.zeros((spec.width, spec.height), dtype=bool)
    hits = scan.hits
    if np.any(hits):
        world_angles = robot.theta + scan.angles[hits]
        endpoints = robot.position + scan.ranges[hits, None] * np.stack(
            [np.cos(world_angles), np.sin(world_angles)], axis=1)
        cells = np.floor((endpoints - origin) / spec.resolution).astype(int)
        inside = ((cells[:, 0] >= 0) & (cells[:, 0] < spec.width)
                  & (cells[:, 1] >= 0) & (cells[:, 1] < spec.height))
        cells = cells[inside]
        occupied[cells[:, 0], cells[:, 1]] = True
    return ObstacleGridMap(spec=spec, origin=origin, occupied=occupied)


def build_velocity_grid(grid: ObstacleGridMap, labels: np.ndarray,
                        velocity_by_cluster: dict[int, np.ndarray]) -> VelocityGridMap:
    """Broadcast each cluster's tracked velocity onto its occupied cells.

    labels align with grid.occupied_cells() order; clusters missing from the
    mapping (noise, unmatched or newly created tracks) get zero velocity.
    """
    velocities = np.zeros((grid.spec.width, grid.spec.height, 2))
    cells = grid.occupied_cells()
    for label, vel in velocity_by_cluster.items():
        own = cells[labels == label]
        velocities[own[:, 0], own[:, 1]] = vel
    return VelocityGridMap(spec=grid.spec, origin=grid.origin, velocities=velocities)
