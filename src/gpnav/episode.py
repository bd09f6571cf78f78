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
from .gp import GpModel
from .perception.pipeline import PerceptionPipeline
from .scenario import ScenarioConfig, ValidationError, build_world, with_variant
from .simworld import RobotState, cast_lidar, step_dynamics

FIELD_MAX_ROWS = 1_000_000   # barrier_field.csv rows; a larger window is skipped


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


def run_episode(cfg: ScenarioConfig, on_step=None) -> tuple[TrajectoryLog, Metrics]:
    """Run one closed-loop episode until collision, arrival or timeout.

    Each step checks them in that order, after logging the step. on_step,
    when given, is called once per logged step as
    on_step(step, pipeline, frame, model), with the TrajectoryStep just
    logged and the step's barrier model (None when no obstacle was seen).
    """
    world = build_world(cfg)
    robot = RobotState(x=cfg.robot.start[0], y=cfg.robot.start[1],
                       theta=cfg.robot.heading)
    pipeline = PerceptionPipeline(cfg.perception)
    rng = np.random.default_rng(cfg.seed)
    goal = np.asarray(cfg.goal.position, dtype=float)

    log = TrajectoryLog()
    arrival_time: float | None = None

    for step in range(cfg.max_steps + 1):
        t = step * cfg.dt
        position = robot.position
        clearance = world.clearance(position)
        to_goal = goal - position
        goal_distance = math.sqrt(np.dot(to_goal, to_goal))   # rounds as np.linalg.norm

        scan = cast_lidar(world, robot, cfg.sensor, rng)
        frame = pipeline.process(scan, robot, cfg.dt)

        build_start = time.perf_counter()
        points, velocities = barrier.build_datasets(
            frame.obstacle_grid, frame.velocity_grid, cfg.perception.dataset_cap)
        model = barrier.model_from_datasets(points, cfg.kernel)
        build_ms = (time.perf_counter() - build_start) * 1e3

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
        if on_step is not None:
            on_step(log.steps[-1], pipeline, frame, model)

        if clearance <= 0.0:
            break
        if goal_distance <= cfg.goal.arrival_radius:
            arrival_time = t
            break
        if t >= cfg.max_time:
            break

        robot = step_dynamics(robot, control, cfg.dt)
        world.advance(cfg.dt)

    return log, compute_metrics(log, arrival_time)


@dataclass
class RunFiles:
    """A run's out-dir: trajectory.csv, metrics.json and, when asked,
    barrier_field.csv (the last model's points +- 2 m at 0.1 m; skipped with
    one line on stderr when there is no model or over FIELD_MAX_ROWS rows)
    and perception.jsonl. As run_episode's on_step it keeps what they need."""

    dump_field: bool = False
    dump_perception: bool = False
    last_model: GpModel | None = None
    perception_records: list[dict] = field(default_factory=list)

    def __call__(self, step: TrajectoryStep, pipeline, frame, model) -> None:
        if self.dump_perception:
            self.perception_records.append(pipeline.debug_record(frame, step.t))
        if model is not None:
            self.last_model = model

    def write(self, out_dir, cfg: ScenarioConfig, log: TrajectoryLog,
              metrics: Metrics) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "trajectory.csv", "w") as handle:
            handle.write(_CSV_HEADER)
            handle.writelines(_CSV_ROW.format(s) for s in log.steps)
        (out / "metrics.json").write_text(
            json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
        model = self.last_model
        if self.dump_field and model is None:
            print("warning: barrier_field.csv not written: no frame of the "
                  "episode observed an obstacle, so there is no barrier model "
                  "to export", file=sys.stderr)
        elif self.dump_field:
            lo = (np.min(model.points, axis=0) - 2.0).tolist()
            hi = (np.max(model.points, axis=0) + 2.0).tolist()
            # the lengths of export_field's np.arange axes, without building them
            rows = math.prod(math.ceil((b + 0.5 * 0.1 - a) / 0.1)
                             for a, b in zip(lo, hi))
            if rows > FIELD_MAX_ROWS:
                print(f"warning: barrier_field.csv not written: its window would "
                      f"hold {rows:,} rows, over {FIELD_MAX_ROWS:,}", file=sys.stderr)
            else:
                barrier.export_field(model, cfg.barrier, out / "barrier_field.csv",
                                     (lo[0], hi[0]), (lo[1], hi[1]), resolution=0.1)
        if self.dump_perception:
            with open(out / "perception.jsonl", "w") as handle:
                handle.writelines(json.dumps(record, sort_keys=True) + "\n"
                                  for record in self.perception_records)


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
    """Run each controller variant on the identically seeded scenario.

    Every variant is checked before the first episode runs.
    """
    for i, variant in enumerate(variants):
        if variant in variants[:i]:
            raise ValidationError(f"compare: variant {variant!r} is given twice")
    if len(variants) < 2:
        raise ValidationError("compare requires at least 2 variants")
    configs = [with_variant(cfg, variant) for variant in variants]
    return {variant: run_episode(config)[1]
            for variant, config in zip(variants, configs)}


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
