"""Episode orchestration: sense -> perceive -> filter -> step, plus metrics.

Every episode is deterministic for a fixed (scenario, seed); wall-clock
timing fields are the only nondeterministic values, so they are excluded
from the comparison output used for reproducibility checks.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import barrier
from .controller import control_step
from .perception.pipeline import PerceptionPipeline
from .scenario import ScenarioConfig, ValidationError, build_world, with_variant
from .simworld import RobotState, cast_lidar, step_dynamics

def _csv(spec: str):
    """A trajectory.csv column written with format(value, spec)."""
    return field(metadata={"csv": spec})


@dataclass
class TrajectoryStep:
    """One control step; each field is a trajectory.csv column, in order.

    A bool under "d" is written as 1 or 0. fallback names the controller
    fallback that fired ("empty", "clamped", "brake"), empty when none did.
    """

    t: float = _csv(".4f")
    px: float = _csv(".9f")
    py: float = _csv(".9f")
    theta: float = _csv(".9f")
    v: float = _csv(".9f")
    omega: float = _csv(".9f")
    h: float = _csv(".9f")
    dh_dt: float = _csv(".9f")
    mu: float = _csv(".12e")
    clearance: float = _csv(".9f")
    dataset_size: int = _csv("d")
    constraint_active: bool = _csv("d")
    constraint_slack: float = _csv(".9e")
    saturated: bool = _csv("d")
    barrier_time_ms: float = _csv(".4f")
    qp_time_ms: float = _csv(".4f")
    fallback: str = field(default="", metadata={"csv": ""})


_CSV_HEADER = ",".join(f.name for f in fields(TrajectoryStep)) + "\n"
_CSV_ROW = ",".join(f"{{0.{f.name}:{f.metadata['csv']}}}"
                    for f in fields(TrajectoryStep)) + "\n"


@dataclass
class TrajectoryLog:
    steps: list[TrajectoryStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.steps], dtype=float)

    def write_csv(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(_CSV_HEADER)
            handle.writelines(_CSV_ROW.format(s) for s in self.steps)


def _json(digits: int, timing: bool = False):
    """A metrics.json number rounded to digits; inf is written as null."""
    return field(metadata={"digits": digits, "timing": timing})


@dataclass
class Metrics:
    """Episode-level summary; each field is a metrics.json key.

    mean_barrier_time_ms is wall-clock timing, left out of the
    deterministic comparison output.
    """

    min_clearance: float = _json(9)
    arrival_time: float | None = _json(4)
    linear_speed_variance: float = _json(9)
    angular_speed_variance: float = _json(9)
    collision: bool
    timed_out: bool
    steps: int
    mean_barrier_time_ms: float = _json(4, timing=True)

    def to_dict(self, include_timing: bool = True) -> dict:
        data = {}
        for f in fields(self):
            if f.metadata.get("timing") and not include_timing:
                continue
            value = getattr(self, f.name)
            digits = f.metadata.get("digits")
            if digits is not None and value is not None:
                value = None if math.isinf(value) else round(value, digits)
            data[f.name] = value
        return data


def run_episode(cfg: ScenarioConfig, out_dir=None, dump_field: bool = False,
                dump_perception: bool = False) -> tuple[TrajectoryLog, Metrics]:
    """Run one closed-loop episode until collision, arrival or timeout.

    Each step checks them in that order, after logging the step.

    With out_dir set, writes trajectory.csv and metrics.json, plus the
    optional barrier-field grid (final frame's model) and per-frame
    perception JSON-lines. When no frame saw an obstacle there is no model
    to export: the field is not written, and a warning says so on stderr.
    """
    world = build_world(cfg)
    robot = RobotState(x=cfg.robot.start[0], y=cfg.robot.start[1],
                       theta=cfg.robot.heading)
    pipeline = PerceptionPipeline(cfg.perception)
    rng = np.random.default_rng(cfg.seed)
    goal = np.asarray(cfg.goal.position, dtype=float)

    log = TrajectoryLog()
    perception_records: list[dict] = []
    last_model = None
    arrival_time: float | None = None

    max_steps = int(round(cfg.max_time / cfg.dt))
    for step in range(max_steps + 1):
        t = step * cfg.dt
        position = robot.position
        clearance = world.clearance(position)
        to_goal = goal - position
        goal_distance = math.sqrt(np.dot(to_goal, to_goal))   # rounds as np.linalg.norm

        scan = cast_lidar(world, robot, cfg.sensor, rng)
        frame = pipeline.process(scan, robot, cfg.dt)
        if dump_perception:
            perception_records.append(pipeline.debug_record(frame, t))

        build_start = time.perf_counter()
        points, velocities = barrier.build_datasets(
            frame.obstacle_grid, frame.velocity_grid, cfg.perception.dataset_cap)
        model = barrier.model_from_datasets(points, cfg.kernel)
        build_ms = (time.perf_counter() - build_start) * 1e3
        if model is not None:
            last_model = model

        control, evaluation, diag = control_step(
            robot, model, velocities, cfg.barrier, cfg.controller, goal)

        log.steps.append(TrajectoryStep(
            t=t, px=robot.x, py=robot.y, theta=robot.theta,
            v=control.v, omega=control.omega,
            h=evaluation.value if evaluation else float("nan"),
            dh_dt=evaluation.time_derivative if evaluation else float("nan"),
            mu=evaluation.mu if evaluation else float("nan"),
            clearance=clearance,
            dataset_size=model.size if model is not None else 0,
            constraint_active=diag.constraint_active,
            constraint_slack=diag.constraint_slack,
            saturated=diag.saturated,
            barrier_time_ms=build_ms + diag.barrier_ms,
            qp_time_ms=diag.qp_ms,
            fallback=diag.fallback,
        ))

        if clearance <= 0.0:
            break
        if goal_distance <= cfg.goal.arrival_radius:
            arrival_time = t
            break
        if t >= cfg.max_time:
            break

        robot = step_dynamics(robot, control, cfg.dt)
        world.advance(cfg.dt)

    metrics = compute_metrics(log, arrival_time)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log.write_csv(out / "trajectory.csv")
        (out / "metrics.json").write_text(
            json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
        if dump_field and last_model is None:
            print("warning: barrier_field.csv not written: no frame of the "
                  "episode observed an obstacle, so there is no barrier model "
                  "to export", file=sys.stderr)
        elif dump_field:
            lo = np.min(last_model.points, axis=0) - 2.0
            hi = np.max(last_model.points, axis=0) + 2.0
            barrier.export_field(last_model, cfg.barrier, out / "barrier_field.csv",
                                 (float(lo[0]), float(hi[0])),
                                 (float(lo[1]), float(hi[1])), resolution=0.1)
        if dump_perception:
            with open(out / "perception.jsonl", "w") as handle:
                for record in perception_records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
    return log, metrics


def compute_metrics(log: TrajectoryLog,
                    arrival_time: float | None = None) -> Metrics:
    """Summarize a trajectory log; the episode loop decides the outcome.

    The loop stops at the first step with clearance <= 0 (a collision, so
    collision is min clearance <= 0), else at the first step within the
    arrival radius (arrival_time is that step's t), else at max_time (a
    timeout: neither collided nor arrived).
    """
    if len(log) == 0:
        raise ValueError("cannot compute metrics for an empty log")
    min_clearance = float(np.min(log.column("clearance")))
    collided = min_clearance <= 0.0

    barrier_times = np.array([s.barrier_time_ms for s in log.steps
                              if s.dataset_size > 0])
    mean_barrier = float(barrier_times.mean()) if len(barrier_times) else 0.0
    return Metrics(
        min_clearance=min_clearance,
        arrival_time=arrival_time,
        linear_speed_variance=float(np.var(log.column("v"))),
        angular_speed_variance=float(np.var(log.column("omega"))),
        collision=collided,
        timed_out=arrival_time is None and not collided,
        steps=len(log),
        mean_barrier_time_ms=mean_barrier,
    )


def compare(cfg: ScenarioConfig, variants: list[str]) -> dict[str, Metrics]:
    """Run each controller variant on the identically seeded scenario."""
    if len(variants) < 2:
        raise ValidationError("compare requires at least 2 variants")
    results: dict[str, Metrics] = {}
    for variant in variants:
        _, metrics = run_episode(with_variant(cfg, variant))
        results[variant] = metrics
    return results


def comparison_json(results: dict[str, Metrics]) -> str:
    """Deterministic JSON for a comparison table (timing excluded)."""
    payload = {variant: metrics.to_dict(include_timing=False)
               for variant, metrics in results.items()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def comparison_table(results: dict[str, Metrics]) -> str:
    """Plain-text side-by-side table of the per-variant metrics."""
    header = (f"{'variant':<14} {'min_clear':>10} {'arrival_s':>10} "
              f"{'var_v':>10} {'var_omega':>10} {'collision':>9}")
    lines = [header, "-" * len(header)]
    for variant, m in results.items():
        clear = "inf" if math.isinf(m.min_clearance) else f"{m.min_clearance:.3f}"
        arrival = "timeout" if m.arrival_time is None else f"{m.arrival_time:.2f}"
        lines.append(f"{variant:<14} {clear:>10} {arrival:>10} "
                     f"{m.linear_speed_variance:>10.4f} "
                     f"{m.angular_speed_variance:>10.4f} "
                     f"{str(m.collision):>9}")
    return "\n".join(lines)
