"""Episode orchestration: sense -> perceive -> filter -> step, plus metrics.

Every episode is deterministic for a fixed (scenario, seed); wall-clock
timing fields are the only nondeterministic values, so they are excluded
from the comparison output used for reproducibility checks.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import barrier
from .controller import control_step
from .perception.pipeline import PerceptionPipeline
from .scenario import ScenarioConfig, ValidationError, build_world, with_variant
from .simworld import RobotState, cast_lidar, step_dynamics

CSV_COLUMNS = [
    "t", "px", "py", "theta", "v", "omega", "h", "dh_dt", "mu", "clearance",
    "dataset_size", "constraint_active", "constraint_slack", "saturated",
    "barrier_time_ms", "qp_time_ms",
]


@dataclass
class TrajectoryStep:
    t: float
    px: float
    py: float
    theta: float
    v: float
    omega: float
    h: float
    dh_dt: float
    mu: float
    clearance: float
    dataset_size: int
    constraint_active: bool
    constraint_slack: float
    saturated: bool
    barrier_time_ms: float
    qp_time_ms: float


@dataclass
class TrajectoryLog:
    steps: list[TrajectoryStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.steps], dtype=float)

    def write_csv(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(",".join(CSV_COLUMNS) + "\n")
            for s in self.steps:
                handle.write(
                    f"{s.t:.4f},{s.px:.9f},{s.py:.9f},{s.theta:.9f},"
                    f"{s.v:.9f},{s.omega:.9f},{s.h:.9f},{s.dh_dt:.9f},"
                    f"{s.mu:.12e},{s.clearance:.9f},{s.dataset_size},"
                    f"{int(s.constraint_active)},{s.constraint_slack:.9e},"
                    f"{int(s.saturated)},{s.barrier_time_ms:.4f},"
                    f"{s.qp_time_ms:.4f}\n")


@dataclass
class Metrics:
    """Episode-level summary; collision holds iff min clearance <= 0."""

    min_clearance: float
    arrival_time: float | None
    linear_speed_variance: float
    angular_speed_variance: float
    collision: bool
    timed_out: bool
    mean_barrier_time_ms: float
    steps: int

    def to_dict(self, include_timing: bool = True) -> dict:
        data = {
            "min_clearance": None if math.isinf(self.min_clearance)
            else round(self.min_clearance, 9),
            "arrival_time": None if self.arrival_time is None
            else round(self.arrival_time, 4),
            "linear_speed_variance": round(self.linear_speed_variance, 9),
            "angular_speed_variance": round(self.angular_speed_variance, 9),
            "collision": self.collision,
            "timed_out": self.timed_out,
            "steps": self.steps,
        }
        if include_timing:
            data["mean_barrier_time_ms"] = round(self.mean_barrier_time_ms, 4)
        return data


def run_episode(cfg: ScenarioConfig, out_dir=None, dump_field: bool = False,
                dump_perception: bool = False) -> tuple[TrajectoryLog, Metrics]:
    """Run one closed-loop episode until arrival, collision, or timeout.

    With out_dir set, writes trajectory.csv and metrics.json, plus the
    optional barrier-field grid (final frame's model) and per-frame
    perception JSON-lines.
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
    collided = False

    max_steps = int(round(cfg.max_time / cfg.dt))
    for step in range(max_steps + 1):
        t = step * cfg.dt
        clearance = world.clearance(robot.position)
        goal_distance = float(np.linalg.norm(goal - robot.position))

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
        ))

        if clearance <= 0.0:
            collided = True
            break
        if goal_distance <= cfg.goal.arrival_radius:
            arrival_time = t
            break
        if t >= cfg.max_time:
            break

        robot = step_dynamics(robot, control, cfg.dt)
        world.advance(cfg.dt)

    metrics = compute_metrics(log, cfg, arrival_time=arrival_time,
                              collided=collided)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log.write_csv(out / "trajectory.csv")
        (out / "metrics.json").write_text(
            json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
        if dump_field and last_model is not None:
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


def compute_metrics(log: TrajectoryLog, cfg: ScenarioConfig,
                    arrival_time: float | None = None,
                    collided: bool | None = None) -> Metrics:
    """Summarize a trajectory log.

    arrival_time and collision are recomputed from the log when not supplied
    by the episode loop (first step within the arrival radius; any step with
    clearance <= 0).
    """
    if len(log) == 0:
        raise ValueError("cannot compute metrics for an empty log")
    clearances = log.column("clearance")
    min_clearance = float(np.min(clearances))
    if collided is None:
        collided = bool(min_clearance <= 0.0)
    if arrival_time is None:
        goal = np.asarray(cfg.goal.position, dtype=float)
        px, py = log.column("px"), log.column("py")
        dist = np.hypot(px - goal[0], py - goal[1])
        inside = np.flatnonzero(dist <= cfg.goal.arrival_radius)
        if len(inside) > 0:
            arrival_time = float(log.steps[int(inside[0])].t)

    barrier_times = np.array([s.barrier_time_ms for s in log.steps
                              if s.dataset_size > 0])
    mean_barrier = float(barrier_times.mean()) if len(barrier_times) else 0.0
    return Metrics(
        min_clearance=min_clearance,
        arrival_time=arrival_time,
        linear_speed_variance=float(np.var(log.column("v"))),
        angular_speed_variance=float(np.var(log.column("omega"))),
        collision=bool(collided),
        timed_out=arrival_time is None and not collided,
        mean_barrier_time_ms=mean_barrier,
        steps=len(log),
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
