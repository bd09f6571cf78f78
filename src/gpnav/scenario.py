"""Scenario files: schema-versioned YAML describing world, robot and params.

Loading is strict: unknown keys and non-finite numbers are rejected, and
every limit violation is reported with its field path, so a typo in a tuning
key fails loudly instead of silently falling back to a default. The limits
themselves live on the params dataclasses; the reader builds each section
from the fields of its class.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import get_type_hints

import numpy as np
import yaml

from ._bounds import bounded, check_bounds
from .barrier import BarrierParams
from .controller import ControllerParams
from .gp import KernelParams
from .perception.pipeline import PerceptionParams
from .simworld import OBSTACLE_RADIUS, MotionSpec, Obstacle, World, LidarSpec

SCHEMA_VERSION = 1

# Control steps one episode may take; the shipped scenarios take 1,200.
MAX_STEPS = 100_000


class ParseError(Exception):
    """Scenario file is missing, unreadable or not well-formed YAML."""


class ValidationError(Exception):
    """Scenario contents violate the schema; message carries the field path."""


# far beyond any scene; keeps position / resolution and the steps' arithmetic finite
_COORDINATE = "[-1e6, 1e6]"


@dataclass(frozen=True)
class RobotConfig:
    start: tuple[float, float] = bounded((-8.0, 3.0), _COORDINATE)
    heading: float = 0.0

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class GoalConfig:
    position: tuple[float, float] = bounded(MISSING, _COORDINATE)
    arrival_radius: float = bounded(0.05, "(0, inf)")

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class ObstacleConfig:
    obstacle_id: str
    radius: float = bounded(MISSING, OBSTACLE_RADIUS)
    center: tuple[float, float] = bounded(MISSING, _COORDINATE)
    motion: MotionSpec = field(default_factory=MotionSpec)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    goal: GoalConfig
    robot: RobotConfig = field(default_factory=RobotConfig)
    obstacles: tuple[ObstacleConfig, ...] = ()
    seed: int = bounded(0, "[0, inf)")
    dt: float = bounded(0.05, "(0, 1]")
    max_time: float = bounded(60.0, "(0, inf)")
    controller: ControllerParams = field(default_factory=ControllerParams)
    barrier: BarrierParams = field(default_factory=BarrierParams)
    kernel: KernelParams = field(default_factory=KernelParams)
    perception: PerceptionParams = field(default_factory=PerceptionParams)
    sensor: LidarSpec = field(default_factory=LidarSpec)

    def __post_init__(self) -> None:
        check_bounds(self)
        # the quotient overflows to inf before round() could refuse it
        if not (self.max_time / self.dt < MAX_STEPS + 1
                and self.max_steps <= MAX_STEPS):
            raise ValueError(f"max_time / dt must be <= {MAX_STEPS} steps")

    @property
    def max_steps(self) -> int:
        """Steps of dt from t = 0 to max_time, as the episode loop counts them."""
        return int(round(self.max_time / self.dt))


def with_variant(cfg: ScenarioConfig, variant: str) -> ScenarioConfig:
    """Copy of the scenario running a different controller variant."""
    try:
        return replace(cfg, controller=replace(cfg.controller, variant=variant))
    except ValueError as exc:
        raise ValidationError(f"controller: {exc}") from None


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
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return scenario_from_dict(data, default_name=path.stem)


def scenario_from_dict(data: dict, default_name: str = "scenario") -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed mapping."""
    data = _mapping(data, "")
    schema = _int(data.pop("schema", SCHEMA_VERSION), "schema")
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"schema: unsupported version {schema}")
    data.setdefault("name", default_name)
    return _read(ScenarioConfig, data, "")


def _read(cls, value, path: str):
    """Build a params dataclass from one YAML section.

    Each init field is one key, named as the field unless _RENAMES says
    otherwise, read by its annotation and left to the field's default when
    absent. The class checks its own bounds; a ValueError it raises is
    reported under the section's path.
    """
    data = _mapping(value, path)
    kwargs = {}
    hints = get_type_hints(cls)
    renames = _RENAMES.get(cls, {})
    for f in fields(cls):
        key = renames.get(f.name, f.name)
        if key in data:
            kwargs[f.name] = _value(hints[f.name], data.pop(key), _join(path, key))
        elif f.default is MISSING and f.default_factory is MISSING:
            what = "section" if is_dataclass(hints[f.name]) else "field"
            raise ValidationError(f"{_join(path, key)}: {what} is required")
    _refuse_unknown(data, path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        for name, key in renames.items():   # report a field by its YAML key
            message = message.replace(name, key)
        raise ValidationError(f"{path}: {message}" if path else message) from None


def _value(hint, value, path: str):
    if hint in _READERS:
        return _READERS[hint](value, path)
    return _read(hint, value, path)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _mapping(value, path: str) -> dict:
    """Copy of a section's mapping; an absent or null section is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{path or 'top level'}: expected a mapping")
    return dict(value)


def _refuse_unknown(keys, path: str) -> None:
    if keys:
        raise ValidationError(f"{path or 'top level'}: "
                              f"unknown key {sorted(keys)[0]!r}")


def _float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:   # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{path}: expected a finite number, got {number}")
    return number


def _exactly(kind: type, what: str):
    """Reader that takes only values of exactly this type (no bool for int)."""
    def read(value, path: str):
        if type(value) is not kind:
            raise ValidationError(f"{path}: expected {what}")
        return value
    return read


_int = _exactly(int, "an integer")
_bool = _exactly(bool, "a boolean")
_str = _exactly(str, "a string")


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{path}: expected [x, y] numbers")
    return _float(value[0], path), _float(value[1], path)


def _obstacles(value, path: str) -> tuple[ObstacleConfig, ...]:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list")
    obstacles: list[ObstacleConfig] = []
    for index, entry in enumerate(value):
        entry_path = f"{path}[{index}]"
        data = _mapping(entry, entry_path)
        data.setdefault("id", f"obstacle{index}")
        obstacle = _read(ObstacleConfig, data, entry_path)
        if any(o.obstacle_id == obstacle.obstacle_id for o in obstacles):
            raise ValidationError(f"{entry_path}.id: duplicate id "
                                  f"{obstacle.obstacle_id!r}")
        obstacles.append(obstacle)
    return tuple(obstacles)


# keys each motion type takes besides `type`; the first one listed is required
_MOTION_KEYS = {"static": (), "velocity": ("velocity",),
                "sinusoid": ("period", "axis", "amplitude")}


def _motion(value, path: str) -> MotionSpec:
    data = _mapping(value, path)
    kind = _str(data.get("type", MotionSpec.kind), f"{path}.type")
    if kind not in _MOTION_KEYS:
        raise ValidationError(f"{path}.type: unknown motion type {kind!r}")
    keys = _MOTION_KEYS[kind]
    _refuse_unknown(data.keys() - {"type", *keys}, path)
    if keys and keys[0] not in data:
        raise ValidationError(f"{path}.{keys[0]}: field is required")
    return _read(MotionSpec, data, path)


# YAML keys that differ from the field they fill
_RENAMES = {ObstacleConfig: {"obstacle_id": "id"}, MotionSpec: {"kind": "type"},
            LidarSpec: {"beam_count": "beams"}}

# readers by field annotation; any other annotation must be a params dataclass
_READERS = {float: _float, int: _int, bool: _bool, str: _str,
            tuple[float, float]: _pair,
            tuple[ObstacleConfig, ...]: _obstacles,
            MotionSpec: _motion}
