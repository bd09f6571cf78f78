"""Scenario files: schema-versioned YAML describing world, robot and params.

Loading is strict: unknown keys are rejected and every limit violation is
reported with its field path, so a typo in a tuning key fails loudly instead
of silently falling back to a default.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .barrier import VARIANTS, BarrierParams
from .controller import ControllerParams
from .gp import KernelParams
from .perception.grid import GridSpec
from .perception.pipeline import PerceptionParams
from .perception.tracking import TrackerParams
from .simworld import MotionSpec, Obstacle, World, LidarSpec

SCHEMA_VERSION = 1


class ParseError(Exception):
    """Scenario file is missing or not well-formed YAML."""


class ValidationError(Exception):
    """Scenario contents violate the schema; message carries the field path."""


@dataclass(frozen=True)
class RobotConfig:
    start: tuple[float, float] = (-8.0, 3.0)
    heading: float = 0.0


@dataclass(frozen=True)
class GoalConfig:
    position: tuple[float, float]
    arrival_radius: float = 0.05


@dataclass(frozen=True)
class ObstacleConfig:
    obstacle_id: str
    radius: float
    center: tuple[float, float]
    motion: MotionSpec = field(default_factory=MotionSpec)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    goal: GoalConfig
    robot: RobotConfig = field(default_factory=RobotConfig)
    obstacles: tuple[ObstacleConfig, ...] = ()
    seed: int = 0
    dt: float = 0.05
    max_time: float = 60.0
    controller: ControllerParams = field(default_factory=ControllerParams)
    barrier: BarrierParams = field(default_factory=BarrierParams)
    kernel: KernelParams = field(default_factory=KernelParams)
    perception: PerceptionParams = field(default_factory=PerceptionParams)
    sensor: LidarSpec = field(default_factory=LidarSpec)


def with_variant(cfg: ScenarioConfig, variant: str) -> ScenarioConfig:
    """Copy of the scenario running a different controller variant."""
    if variant not in VARIANTS:
        raise ValidationError(f"controller.variant: unknown variant {variant!r}")
    return replace(cfg, controller=replace(cfg.controller, variant=variant))


def build_world(cfg: ScenarioConfig) -> World:
    """Fresh mutable world from the immutable scenario description."""
    return World([Obstacle(obstacle_id=o.obstacle_id, radius=o.radius,
                           spawn=np.asarray(o.center, dtype=float), motion=o.motion)
                  for o in cfg.obstacles])


def canonical_scenarios() -> dict[str, Path]:
    """Name -> path of the scenario files shipped with the package."""
    base = resources.files("gpnav") / "scenarios"
    return {p.name.removesuffix(".yaml"): Path(str(p))
            for p in sorted(base.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".yaml")}


def resolve_scenario(name_or_path: str) -> Path:
    """Accept either a filesystem path or the name of a shipped scenario."""
    path = Path(name_or_path)
    if path.exists():
        return path
    shipped = canonical_scenarios()
    if name_or_path in shipped:
        return shipped[name_or_path]
    raise ParseError(f"scenario {name_or_path!r} is neither a file nor one of "
                     f"{sorted(shipped)}")


def load_scenario(path) -> ScenarioConfig:
    """Load and fully validate a scenario file."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"scenario file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return scenario_from_dict(data, default_name=path.stem)


def scenario_from_dict(data: dict, default_name: str = "scenario") -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed mapping."""
    section = _Section(dict(data), "")
    schema = section.take_int("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"schema: unsupported version {schema}")
    name = section.take_str("name", default_name)
    default = _field_defaults(ScenarioConfig)
    seed = section.take_int("seed", default["seed"])
    dt = section.take_float("dt", default["dt"], positive=True)
    max_time = section.take_float("max_time", default["max_time"], positive=True)

    robot = _parse_robot(section.take_section("robot"))
    goal = _parse_goal(section.take_section("goal", required=True))
    obstacles = _parse_obstacles(section.take_list("obstacles"))
    controller = _parse_controller(section.take_section("controller"))
    barrier_params = _parse_barrier(section.take_section("barrier"))
    kernel = _parse_kernel(section.take_section("kernel"))
    perception = _parse_perception(section.take_section("perception"))
    sensor = _parse_sensor(section.take_section("sensor"))
    section.finish()

    return ScenarioConfig(name=name, goal=goal, robot=robot, obstacles=obstacles,
                          seed=seed, dt=dt, max_time=max_time,
                          controller=controller, barrier=barrier_params,
                          kernel=kernel, perception=perception, sensor=sensor)


def _field_defaults(cls) -> dict:
    """Plain field defaults of a dataclass that has required fields."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


class _Section:
    """Mapping wrapper that tracks consumed keys and reports field paths."""

    def __init__(self, data: dict, prefix: str) -> None:
        if not isinstance(data, dict):
            raise ValidationError(f"{prefix or 'top level'}: expected a mapping")
        self.data = dict(data)
        self.prefix = prefix

    def _path(self, key: str) -> str:
        return f"{self.prefix}.{key}" if self.prefix else key

    def take(self, key: str, default):
        return self.data.pop(key, default)

    def take_str(self, key: str, default: str) -> str:
        value = self.take(key, default)
        if not isinstance(value, str):
            raise ValidationError(f"{self._path(key)}: expected a string")
        return value

    def take_bool(self, key: str, default: bool) -> bool:
        value = self.take(key, default)
        if not isinstance(value, bool):
            raise ValidationError(f"{self._path(key)}: expected a boolean")
        return value

    def take_int(self, key: str, default: int, positive: bool = False) -> int:
        value = self.take(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{self._path(key)}: expected an integer")
        if positive and value <= 0:
            raise ValidationError(f"{self._path(key)}: must be > 0")
        return value

    def take_float(self, key: str, default: float | None, positive: bool = False,
                   nonnegative: bool = False) -> float:
        value = self.take(key, default)
        if value is None:
            raise ValidationError(f"{self._path(key)}: field is required")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{self._path(key)}: expected a number")
        value = float(value)
        if positive and value <= 0.0:
            raise ValidationError(f"{self._path(key)}: must be > 0")
        if nonnegative and value < 0.0:
            raise ValidationError(f"{self._path(key)}: must be >= 0")
        return value

    def take_pair(self, key: str, default) -> tuple[float, float]:
        value = self.take(key, default)
        if value is None:
            raise ValidationError(f"{self._path(key)}: field is required")
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in value)):
            raise ValidationError(f"{self._path(key)}: expected [x, y] numbers")
        return float(value[0]), float(value[1])

    def take_section(self, key: str, required: bool = False) -> "_Section":
        value = self.take(key, None)
        if value is None:
            if required:
                raise ValidationError(f"{self._path(key)}: section is required")
            value = {}
        return _Section(value, self._path(key))

    def take_list(self, key: str) -> list:
        value = self.take(key, [])
        if not isinstance(value, list):
            raise ValidationError(f"{self._path(key)}: expected a list")
        return value

    def finish(self) -> None:
        if self.data:
            key = sorted(self.data)[0]
            raise ValidationError(f"{self.prefix or 'top level'}: "
                                  f"unknown key {key!r}")


def _parse_robot(sec: _Section) -> RobotConfig:
    default = RobotConfig()
    start = sec.take_pair("start", default.start)
    heading = sec.take_float("heading", default.heading)
    sec.finish()
    return RobotConfig(start=start, heading=heading)


def _parse_goal(sec: _Section) -> GoalConfig:
    position = sec.take_pair("position", None)
    radius = sec.take_float("arrival_radius",
                            _field_defaults(GoalConfig)["arrival_radius"],
                            positive=True)
    sec.finish()
    return GoalConfig(position=position, arrival_radius=radius)


def _parse_obstacles(entries: list) -> tuple[ObstacleConfig, ...]:
    obstacles = []
    seen: set[str] = set()
    for index, entry in enumerate(entries):
        sec = _Section(entry, f"obstacles[{index}]")
        obstacle_id = sec.take_str("id", f"obstacle{index}")
        if obstacle_id in seen:
            raise ValidationError(f"obstacles[{index}].id: duplicate id "
                                  f"{obstacle_id!r}")
        seen.add(obstacle_id)
        radius = sec.take_float("radius", None, positive=True)
        center = sec.take_pair("center", None)
        motion = _parse_motion(sec.take_section("motion"), f"obstacles[{index}].motion")
        sec.finish()
        obstacles.append(ObstacleConfig(obstacle_id=obstacle_id, radius=radius,
                                        center=center, motion=motion))
    return tuple(obstacles)


def _parse_motion(sec: _Section, path: str) -> MotionSpec:
    default = MotionSpec()
    kind = sec.take_str("type", default.kind)
    if kind == "static":
        sec.finish()
        return MotionSpec(kind="static")
    if kind == "velocity":
        velocity = sec.take_pair("velocity", None)
        sec.finish()
        return MotionSpec(kind="velocity", velocity=velocity)
    if kind == "sinusoid":
        axis = sec.take_pair("axis", default.axis)
        amplitude = sec.take_float("amplitude", default.amplitude, nonnegative=True)
        period = sec.take_float("period", None, positive=True)
        sec.finish()
        return MotionSpec(kind="sinusoid", axis=axis, amplitude=amplitude,
                          period=period)
    raise ValidationError(f"{path}.type: unknown motion type {kind!r}")


def _parse_controller(sec: _Section) -> ControllerParams:
    default = ControllerParams()
    variant = sec.take_str("variant", default.variant)
    if variant not in VARIANTS:
        raise ValidationError(f"controller.variant: unknown variant {variant!r}; "
                              f"expected one of {list(VARIANTS)}")
    params = ControllerParams(
        variant=variant,
        alpha_slope=sec.take_float("alpha_slope", default.alpha_slope,
                                   positive=True),
        lead_offset=sec.take_float("lead_offset", default.lead_offset,
                                   positive=True),
        u_max=sec.take_float("u_max", default.u_max, positive=True),
        v_max=sec.take_float("v_max", default.v_max, positive=True),
        omega_max=sec.take_float("omega_max", default.omega_max, positive=True),
        goal_deadband=sec.take_float("goal_deadband", default.goal_deadband,
                                     nonnegative=True),
        evaluate_at_lead=sec.take_bool("evaluate_at_lead",
                                       default.evaluate_at_lead),
    )
    sec.finish()
    return params


def _parse_barrier(sec: _Section) -> BarrierParams:
    default = BarrierParams()
    params = BarrierParams(
        scale=sec.take_float("scale", default.scale, positive=True),
        margin_shift=sec.take_float("margin_shift", default.margin_shift,
                                    positive=True),
        mu_floor=sec.take_float("mu_floor", default.mu_floor, positive=True),
        linear_prior=sec.take_float("linear_prior", default.linear_prior),
    )
    sec.finish()
    if params.mu_floor > 1e-9:
        raise ValidationError("barrier.mu_floor: must be <= 1e-9")
    return params


def _parse_kernel(sec: _Section) -> KernelParams:
    default = KernelParams()
    params = KernelParams(
        length_scale=sec.take_float("length_scale", default.length_scale,
                                    positive=True),
        jitter=sec.take_float("jitter", default.jitter, nonnegative=True),
    )
    sec.finish()
    return params


def _parse_perception(sec: _Section) -> PerceptionParams:
    default = PerceptionParams()
    grid_sec = sec.take_section("grid")
    grid = GridSpec(
        width=grid_sec.take_int("width", default.grid.width, positive=True),
        height=grid_sec.take_int("height", default.grid.height, positive=True),
        resolution=grid_sec.take_float("resolution", default.grid.resolution,
                                       positive=True),
    )
    grid_sec.finish()

    cluster_sec = sec.take_section("clustering")
    eps = cluster_sec.take_float("eps", default.eps, positive=True)
    min_pts = cluster_sec.take_int("min_pts", default.min_pts, positive=True)
    cluster_sec.finish()

    tracker = _parse_tracker(sec.take_section("tracker"))
    params = PerceptionParams(
        grid=grid, eps=eps, min_pts=min_pts,
        mvee_tolerance=sec.take_float("mvee_tolerance", default.mvee_tolerance,
                                      positive=True),
        tracker=tracker,
        dataset_cap=sec.take_int("dataset_cap", default.dataset_cap,
                                 positive=True),
    )
    sec.finish()
    return params


def _parse_tracker(sec: _Section) -> TrackerParams:
    default = TrackerParams()
    q_pos = sec.take_float("q_pos", default.q_pos, nonnegative=True)
    r_center = sec.take_float("r_center", default.r_center, nonnegative=True)
    if q_pos + r_center == 0.0:
        raise ValidationError(f"{sec.prefix}: q_pos + r_center must be > 0")
    params = TrackerParams(
        d_max=sec.take_float("d_max", default.d_max, positive=True),
        max_misses=sec.take_int("max_misses", default.max_misses, positive=True),
        min_velocity_age=sec.take_int("min_velocity_age", default.min_velocity_age),
        min_speed=sec.take_float("min_speed", default.min_speed, nonnegative=True),
        q_pos=q_pos,
        q_vel=sec.take_float("q_vel", default.q_vel, nonnegative=True),
        q_acc=sec.take_float("q_acc", default.q_acc, nonnegative=True),
        r_center=r_center,
    )
    sec.finish()
    return params


def _parse_sensor(sec: _Section) -> LidarSpec:
    default = LidarSpec()
    spec = LidarSpec(
        beam_count=sec.take_int("beams", default.beam_count, positive=True),
        max_range=sec.take_float("max_range", default.max_range, positive=True),
        noise_sigma=sec.take_float("noise_sigma", default.noise_sigma,
                                   nonnegative=True),
    )
    sec.finish()
    return spec
