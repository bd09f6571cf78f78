"""Per-frame perception: scan -> occupancy grid -> clusters -> tracked ellipses.

The pipeline is a single-owner sequential stage; it mutates only its own
track store and fit memo, and returns an immutable snapshot of everything
the barrier needs for the current frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import NOISE, dbscan
from .ellipse import Ellipse, fit_mvee
from .grid import (GridSpec, ObstacleGridMap, VelocityGridMap,
                   build_velocity_grid, update_obstacle_grid)
from .tracking import ObstacleTracker, TrackerParams

FIT_MEMO_CAPACITY = 4096   # distinct cell patterns kept before the memo is cleared


@dataclass(frozen=True)
class PerceptionParams:
    grid: GridSpec = field(default_factory=GridSpec)
    eps: float = 0.35              # m; above the 0.283 m cell diagonal so
    min_pts: int = 2               # adjacent cells of one obstacle connect
    mvee_tolerance: float = 1e-4
    tracker: TrackerParams = field(default_factory=TrackerParams)
    dataset_cap: int = 60

    def __post_init__(self) -> None:
        if self.eps <= 0.0:
            raise ValueError("eps must be > 0")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if self.dataset_cap < 1:
            raise ValueError("dataset_cap must be >= 1")


@dataclass
class PerceptionFrame:
    """Snapshot of one frame's perception outputs."""

    obstacle_grid: ObstacleGridMap
    velocity_grid: VelocityGridMap
    points: np.ndarray             # (M, 2) occupied cell centers
    labels: np.ndarray             # (M,) cluster ids, NOISE for outliers
    ellipses: list[Ellipse]
    cluster_ids: list[int]         # cluster id per ellipse
    track_ids: list[int]           # track id per ellipse


class PerceptionPipeline:
    def __init__(self, params: PerceptionParams | None = None) -> None:
        self.params = params or PerceptionParams()
        self.tracker = ObstacleTracker(self.params.tracker)
        self._fits: dict[bytes, Ellipse] = {}   # local cell pattern -> local fit

    def process(self, scan, robot, dt: float) -> PerceptionFrame:
        """Run one full perception frame and refresh the track store."""
        params = self.params
        grid = update_obstacle_grid(scan, robot, params.grid)
        cells = grid.occupied_cells()
        points = grid.occupied_points()
        if len(points) > 0:
            labels = dbscan(points, params.eps, params.min_pts)
        else:
            labels = np.zeros(0, dtype=int)

        cluster_ids = sorted(int(c) for c in np.unique(labels) if c != NOISE)
        ellipses = [self._fit_cluster(grid, cells[labels == cid])
                    for cid in cluster_ids]

        assignment = self.tracker.step(ellipses, dt)
        tracker_params = params.tracker
        velocity_by_cluster = {
            cid: assignment[j].velocity(tracker_params.min_velocity_age,
                                        tracker_params.min_speed)
            for j, cid in enumerate(cluster_ids) if j in assignment
        }
        velocity_grid = build_velocity_grid(grid, labels, velocity_by_cluster)
        track_ids = [assignment[j].track_id if j in assignment else -1
                     for j in range(len(ellipses))]
        return PerceptionFrame(obstacle_grid=grid, velocity_grid=velocity_grid,
                               points=points, labels=labels, ellipses=ellipses,
                               cluster_ids=cluster_ids, track_ids=track_ids)

    def _fit_cluster(self, grid: ObstacleGridMap, cells: np.ndarray) -> Ellipse:
        """MVEE of a cluster's cell centres, fitted once per cell pattern.

        The fit is made in the pattern's own frame, with its lowest cell
        index at the origin, and translated onto the grid, so a pattern gives
        the same axes, angle and gap wherever it appears.
        """
        res = grid.spec.resolution
        low = cells.min(axis=0)
        local = cells - low
        key = local.tobytes()     # cells come row-major, so one set, one key
        fit = self._fits.get(key)
        if fit is None:
            if len(self._fits) >= FIT_MEMO_CAPACITY:
                self._fits.clear()
            fit = fit_mvee(res * (local + 0.5), tolerance=self.params.mvee_tolerance)
            self._fits[key] = fit
        return replace(fit, center=fit.center + (grid.origin + res * low))

    def debug_record(self, frame: PerceptionFrame, t: float) -> dict:
        """JSON-serializable dump of one frame for golden-file regression."""
        return {
            "t": round(t, 6),
            "origin": frame.obstacle_grid.origin.tolist(),
            "resolution": frame.obstacle_grid.spec.resolution,
            "occupied_cells": frame.obstacle_grid.occupied_cells().tolist(),
            "labels": frame.labels.tolist(),
            "ellipses": [e.as_vector().tolist() for e in frame.ellipses],
            "fit_gaps": [e.fit_gap for e in frame.ellipses],
            "cluster_ids": frame.cluster_ids,
            "track_ids": frame.track_ids,
            "tracks": [{
                "id": tr.track_id,
                "state": tr.state.ravel().tolist(),   # cx, cy, vx, vy, ax, ay
                "age": tr.age,
                "misses": tr.misses,
            } for tr in self.tracker.tracks],
        }
