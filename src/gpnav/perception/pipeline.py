"""Per-frame perception: scan -> occupancy grid -> clusters -> tracked ellipses.

The pipeline is a single-owner sequential stage; it mutates only its own
track store and fit memo, and returns an immutable snapshot of everything
the barrier needs for the current frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._bounds import bounded, check_bounds
from .clustering import dbscan
from .ellipse import Ellipse, fit_mvee
from .grid import (GridSpec, ObstacleGridMap, build_velocity_grid,
                   update_obstacle_grid)
from .tracking import ObstacleTracker, TrackerParams

FIT_MEMO_CAPACITY = 4096   # distinct cell patterns kept before the memo is cleared


@dataclass(frozen=True)
class ClusteringParams:
    eps: float = bounded(0.35, "(0, inf)")   # m; above the 0.283 m cell diagonal so
    min_pts: int = bounded(2, "(0, inf)")    # adjacent cells of one obstacle connect

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class PerceptionParams:
    grid: GridSpec = field(default_factory=GridSpec)
    clustering: ClusteringParams = field(default_factory=ClusteringParams)
    mvee_tolerance: float = bounded(1e-4, "(0, inf)")
    tracker: TrackerParams = field(default_factory=TrackerParams)
    dataset_cap: int = bounded(60, "(0, inf)")

    def __post_init__(self) -> None:
        check_bounds(self)
        # dbscan's stencil grows with (eps / resolution)^2 cells
        if not self.clustering.eps <= 10.0 * self.grid.resolution:
            raise ValueError("clustering.eps must be <= 10 * grid.resolution")


@dataclass
class PerceptionFrame:
    """Snapshot of one frame's perception outputs."""

    obstacle_grid: ObstacleGridMap
    velocity_grid: np.ndarray      # (M, 2) tracked velocity per occupied cell
    points: np.ndarray             # (M, 2) occupied cell centers
    labels: np.ndarray             # (M,) cluster ids, NOISE for outliers
    ellipses: list[Ellipse]
    cluster_ids: list[int]         # cluster id per ellipse
    track_ids: list[int]           # track id per ellipse


class PerceptionPipeline:
    def __init__(self, params: PerceptionParams | None = None) -> None:
        self.params = params or PerceptionParams()
        self.tracker = ObstacleTracker(self.params.tracker)
        # local cell pattern -> local fit (cx, cy, semi_major, semi_minor,
        # angle, fit_gap)
        self._fits: dict[bytes, tuple[float, ...]] = {}

    def process(self, scan, robot, dt: float) -> PerceptionFrame:
        """Run one full perception frame and refresh the track store.

        Every per-cell array (points, labels, velocities) aligns with
        grid.cells. One stable sort by label lays each cluster's cells out
        as one slice, still in row-major order.
        """
        params = self.params
        grid = update_obstacle_grid(scan, robot, params.grid)
        labels = dbscan(grid, params.clustering.eps, params.clustering.min_pts)
        count = int(labels.max()) + 1 if len(labels) else 0
        sizes = np.bincount(labels + 1, minlength=count + 1)   # noise first
        clustered = grid.cells[np.argsort(labels, kind="stable")[sizes[0]:]]
        ends = np.cumsum(sizes[1:]).tolist()
        starts = ([0] + ends)[:count]
        lows = np.minimum.reduceat(clustered, starts)         # (C, 2)
        local = clustered - np.repeat(lows, sizes[1:], axis=0)
        shifts = (grid.origin + grid.spec.resolution * lows).tolist()
        patterns, width = local.tobytes(), 2 * local.itemsize   # C order
        ellipses = [self._fit_cluster(patterns[width * start:width * end],
                                      local, start, end, shift)
                    for start, end, shift in zip(starts, ends, shifts)]

        assignment = self.tracker.step(ellipses, dt)
        min_speed = params.tracker.min_speed
        velocity_grid = build_velocity_grid(labels, [
            assignment[j].velocity(min_speed=min_speed) for j in range(count)])
        return PerceptionFrame(obstacle_grid=grid, velocity_grid=velocity_grid,
                               points=grid.points, labels=labels,
                               ellipses=ellipses, cluster_ids=list(range(count)),
                               track_ids=[assignment[j].track_id
                                          for j in range(count)])

    def _fit_cluster(self, key: bytes, local: np.ndarray, start: int, end: int,
                     shift: list[float]) -> Ellipse:
        """MVEE of a cluster's cell centres, fitted once per cell pattern.

        local[start:end] holds the cluster's cells in row-major order, less
        their lowest index, and key is their bytes: cells come row-major,
        so one set, one key. shift is the world position of the lowest
        cell's corner. The fit is made in the pattern's own frame and
        translated by shift, so a pattern gives the same axes, angle and gap
        wherever it appears. A memo hit makes no numpy call.
        """
        fit = self._fits.get(key)
        if fit is None:
            if len(self._fits) >= FIT_MEMO_CAPACITY:
                self._fits.clear()
            res = self.params.grid.resolution
            ellipse = fit_mvee(res * (local[start:end] + 0.5),
                               tolerance=self.params.mvee_tolerance)
            fit = self._fits[key] = (*ellipse.center, ellipse.semi_major,
                                     ellipse.semi_minor, ellipse.angle,
                                     ellipse.fit_gap)
        cx, cy, semi_major, semi_minor, angle, fit_gap = fit
        return Ellipse(center=(cx + shift[0], cy + shift[1]),
                       semi_major=semi_major, semi_minor=semi_minor,
                       angle=angle, fit_gap=fit_gap)

    def debug_record(self, frame: PerceptionFrame, t: float) -> dict:
        """JSON-serializable dump of one frame for golden-file regression."""
        return {
            "t": round(t, 6),
            "origin": frame.obstacle_grid.origin.tolist(),
            "resolution": frame.obstacle_grid.spec.resolution,
            "occupied_cells": frame.obstacle_grid.cells.tolist(),
            "labels": frame.labels.tolist(),
            "ellipses": [e.as_vector().tolist() for e in frame.ellipses],
            "fit_gaps": [e.fit_gap for e in frame.ellipses],
            "cluster_ids": frame.cluster_ids,
            "track_ids": frame.track_ids,
            "tracks": [{
                "id": tr.track_id,
                "state": [tr.px, tr.py, tr.vx, tr.vy, tr.ax, tr.ay],
                "age": tr.age,
                "misses": tr.misses,
            } for tr in self.tracker.tracks],
        }
