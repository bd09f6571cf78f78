"""Per-layer tracing from outside the program.

Wrappers are installed at the names the callers look the layers up by
(``gpnav.episode.cast_lidar``, ``gpnav.perception.pipeline.fit_mvee``,
``gpnav.barrier.build_model``, ...). Each call becomes a span (id, layer,
start, end, parent); a layer's self time is its span minus the spans of its
children. Spans stay in memory until the run ends and are then written out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []     # [span id, time covered by children]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace owner.attr by a traced wrapper; count(counts, args, result)."""
        inner = getattr(owner, attr)
        stack, spans, self_s = self._stack, self.spans, self.self_s
        counts = self.counts

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            entry = [span_id, 0.0]
            stack.append(entry)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spent = end - start
                spans.append((span_id, layer, start, end, parent))
                self_s[layer] += spent - entry[1]
                if stack:
                    stack[-1][1] += spent
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, inner))

    def uninstall(self) -> None:
        for owner, attr, inner in reversed(self._installed):
            setattr(owner, attr, inner)
        self._installed.clear()

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w") as handle:
            handle.write("id,layer,start_s,end_s,parent\n")
            for span_id, layer, start, end, parent in sorted(self.spans):
                handle.write(f"{span_id},{layer},{start - origin:.9f},"
                             f"{end - origin:.9f},{parent}\n")


def _count_grid(counts, args, grid) -> None:
    counts["grid.cells"] += int(np.count_nonzero(grid.occupied))


def _count_clustering(counts, args, labels) -> None:
    counts["clustering.points"] += len(labels)


def _count_fit(counts, args, ellipse) -> None:
    counts["ellipse.fits"] += 1
    counts["ellipse.points"] += len(args[0])


def _count_tracker(counts, args, assignment) -> None:
    counts["tracking.tracks"] += len(args[0].tracks)


def _count_new_track(counts, args, track) -> None:
    counts["tracking.new_tracks"] += 1


def _count_dataset(counts, args, result) -> None:
    grid, cap = args[0], args[2]
    counts["barrier.dataset_size"] += len(result[0])
    counts["barrier.capped_frames"] += int(np.count_nonzero(grid.occupied) > cap)


def _count_build(counts, args, model) -> None:
    counts["gp.builds"] += 1


def _count_export(counts, args, rows) -> None:
    counts["barrier.field_points"] += rows


def _count_control(counts, args, result) -> None:
    diag = result[2]
    counts["controller.active_steps"] += int(diag.constraint_active)
    counts["controller.saturated_steps"] += int(diag.saturated)
    if diag.fallback:
        counts[f"controller.fallback_{diag.fallback}"] += 1


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary that the three workloads cross."""
    from gpnav import barrier, controller, episode, simworld
    from gpnav.perception import pipeline, tracking

    tracer.wrap(episode, "run_episode", "episode")
    tracer.wrap(episode, "cast_lidar", "simworld.lidar")
    tracer.wrap(simworld, "cast_lidar", "simworld.lidar")
    tracer.wrap(episode, "step_dynamics", "simworld.step")
    tracer.wrap(simworld.World, "advance", "simworld.step")
    tracer.wrap(simworld.World, "clearance", "simworld.step")
    tracer.wrap(pipeline.PerceptionPipeline, "process", "pipeline")
    tracer.wrap(pipeline, "update_obstacle_grid", "grid", _count_grid)
    tracer.wrap(pipeline, "build_velocity_grid", "grid")
    tracer.wrap(pipeline, "dbscan", "clustering", _count_clustering)
    tracer.wrap(pipeline, "fit_mvee", "ellipse", _count_fit)
    tracer.wrap(tracking.ObstacleTracker, "step", "tracking", _count_tracker)
    tracer.wrap(tracking, "new_track", "tracking", _count_new_track)
    tracer.wrap(barrier, "build_datasets", "barrier.dataset", _count_dataset)
    tracer.wrap(barrier, "build_model", "gp.build", _count_build)
    tracer.wrap(barrier, "evaluate_full", "barrier.eval")
    tracer.wrap(barrier, "export_field", "barrier.export", _count_export)
    tracer.wrap(episode, "control_step", "controller", _count_control)
    tracer.wrap(controller, "control_step", "controller", _count_control)


# per-layer metric -> (layer whose self time it reports)
TIME_METRICS = {
    "simworld.lidar_ms": "simworld.lidar",
    "simworld.step_ms": "simworld.step",
    "grid.ms": "grid",
    "clustering.ms": "clustering",
    "ellipse.ms": "ellipse",
    "tracking.ms": "tracking",
    "pipeline.self_ms": "pipeline",
    "barrier.dataset_ms": "barrier.dataset",
    "gp.build_ms": "gp.build",
    "barrier.eval_ms": "barrier.eval",
    "barrier.export_ms": "barrier.export",
    "controller.self_ms": "controller",
    "episode.self_ms": "episode",
}

COUNT_METRICS = (
    "grid.cells", "clustering.points", "ellipse.fits", "tracking.tracks",
    "tracking.new_tracks", "barrier.dataset_size", "barrier.capped_frames",
    "gp.builds", "barrier.field_points", "controller.active_steps",
    "controller.saturated_steps", "controller.fallback_empty",
    "controller.fallback_clamped", "controller.fallback_brake",
)


def layer_metrics(tracer: Tracer, ops: int, wall_s: float) -> dict[str, dict]:
    """Self time per operation of each layer, and counts per operation."""
    metrics = {name: {"value": tracer.self_s[layer] * 1e3 / ops, "unit": "ms"}
               for name, layer in TIME_METRICS.items()}
    for name in COUNT_METRICS:
        metrics[name] = {"value": tracer.counts[name] / ops, "unit": "count/op"}
    fits = tracer.counts["ellipse.fits"]
    metrics["ellipse.points_per_fit"] = {
        "value": tracer.counts["ellipse.points"] / fits if fits else 0.0,
        "unit": "count/fit"}
    attributed = sum(tracer.self_s[layer] for layer in TIME_METRICS.values())
    metrics["trace.op_ms"] = {"value": wall_s * 1e3 / ops, "unit": "ms"}
    metrics["trace.unattributed_ms"] = {
        "value": (wall_s - attributed) * 1e3 / ops, "unit": "ms"}
    return metrics
