"""Scenario loading: defaults, strict validation, and the shipped files."""

import copy
import io
import math
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gpnav import scenario
from gpnav.barrier import VARIANTS, BarrierParams
from gpnav.cli import main
from gpnav.controller import ControllerParams
from gpnav.gp import KernelParams
from gpnav.perception.grid import GridSpec
from gpnav.perception.pipeline import ClusteringParams, PerceptionParams
from gpnav.perception.tracking import TrackerParams
from gpnav.scenario import (GoalConfig, ObstacleConfig, ParseError, RobotConfig,
                            ScenarioConfig, ValidationError, build_world,
                            canonical_scenarios, load_scenario, resolve_scenario,
                            scenario_from_dict, with_variant)
from gpnav.simworld import MOTION_KINDS, LidarSpec, MotionSpec

MINIMAL = {
    "goal": {"position": [10.0, -2.0]},
    "obstacles": [
        {"id": "rock", "radius": 0.5, "center": [1.0, 1.0]},
    ],
}


class TestDefaults:
    def test_minimal_file_gets_reference_defaults(self, tmp_path):
        path = tmp_path / "minimal.yaml"
        path.write_text(
            "goal:\n  position: [10.0, -2.0]\n"
            "obstacles:\n  - {id: rock, radius: 0.5, center: [1.0, 1.0]}\n")
        cfg = load_scenario(path)
        assert cfg.robot.start == (-8.0, 3.0)
        assert cfg.barrier.scale == 1.0
        assert cfg.barrier.margin_shift == 0.1
        assert cfg.kernel.length_scale == 0.9
        assert cfg.controller.alpha_slope == 0.2
        assert cfg.controller.variant == "dlgp"
        assert cfg.dt == 0.05
        assert cfg.perception.grid.resolution == 0.2
        assert cfg.sensor.beam_count == 360

    @pytest.mark.parametrize("section", [{}, None], ids=["empty", "null"])
    def test_empty_tracker_and_sensor_take_the_dataclass_defaults(self, section):
        cfg = scenario_from_dict({**MINIMAL, "perception": {"tracker": section},
                                  "sensor": section})
        assert cfg.perception.tracker == TrackerParams()
        assert cfg.sensor == LidarSpec()

    @pytest.mark.parametrize("section", [{}, None], ids=["empty", "null"])
    def test_empty_sections_take_the_dataclass_defaults(self, section):
        cfg = scenario_from_dict({
            "goal": {"position": [10.0, -2.0]}, "robot": section,
            "controller": section, "barrier": section, "kernel": section,
            "perception": {"grid": section, "clustering": section,
                           "tracker": section}})
        assert cfg.robot == RobotConfig()
        assert cfg.controller == ControllerParams()
        assert cfg.barrier == BarrierParams()
        assert cfg.kernel == KernelParams()
        assert cfg.perception == PerceptionParams()
        assert cfg.goal == GoalConfig(position=(10.0, -2.0))
        assert cfg == ScenarioConfig(name="scenario", goal=cfg.goal)

    def test_shipped_tracker_and_sensor_configs(self):
        # every field written out, so a moved default shows here
        tracker = TrackerParams(d_max=1.0, min_speed=0.12, q_pos=1e-4,
                                q_vel=1e-3, q_acc=1e-3, r_center=1e-2)
        sensor = LidarSpec(beam_count=360, max_range=6.0, noise_sigma=0.0)
        shipped = canonical_scenarios()
        assert len(shipped) == 5
        for path in shipped.values():
            cfg = load_scenario(path)
            assert cfg.perception.tracker == tracker
            assert cfg.sensor == sensor

    def test_static_motion_default(self):
        cfg = scenario_from_dict(MINIMAL)
        assert cfg.obstacles[0].motion.kind == "static"


class TestValidation:
    def test_negative_margin_shift_names_field(self):
        data = {**MINIMAL, "barrier": {"margin_shift": -0.1}}
        with pytest.raises(ValidationError, match="margin_shift"):
            scenario_from_dict(data)

    def test_duplicate_obstacle_ids(self):
        data = {**MINIMAL, "obstacles": [
            {"id": "a", "radius": 0.5, "center": [0.0, 0.0]},
            {"id": "a", "radius": 0.5, "center": [1.0, 0.0]},
        ]}
        with pytest.raises(ValidationError, match="duplicate"):
            scenario_from_dict(data)

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            scenario_from_dict({**MINIMAL, "gravity": 9.8})

    def test_unknown_nested_key_with_path(self):
        data = {**MINIMAL, "controller": {"turbo": True}}
        with pytest.raises(ValidationError, match="controller"):
            scenario_from_dict(data)

    def test_missing_goal(self):
        with pytest.raises(ValidationError, match="goal"):
            scenario_from_dict({"obstacles": []})

    def test_bad_schema_version(self):
        with pytest.raises(ValidationError, match="schema"):
            scenario_from_dict({**MINIMAL, "schema": 99})

    def test_unknown_variant(self):
        data = {**MINIMAL, "controller": {"variant": "mpc"}}
        with pytest.raises(ValidationError, match="variant"):
            scenario_from_dict(data)

    def test_unknown_motion_type(self):
        data = {**MINIMAL, "obstacles": [
            {"id": "x", "radius": 0.5, "center": [0.0, 0.0],
             "motion": {"type": "warp"}}]}
        with pytest.raises(ValidationError, match="motion"):
            scenario_from_dict(data)

    def test_zero_dt_rejected(self):
        with pytest.raises(ValidationError, match="dt"):
            scenario_from_dict({**MINIMAL, "dt": 0.0})

    def test_malformed_yaml_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("goal: [unclosed\n  nope")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "absent.yaml")


class TestShippedScenarios:
    def test_five_canonical_names(self):
        names = set(canonical_scenarios())
        assert names == {"static_slalom", "head_on", "crossing", "mixed_field",
                         "narrow_gap"}

    def test_all_load_and_validate(self):
        for name, path in canonical_scenarios().items():
            cfg = load_scenario(path)
            assert isinstance(cfg, ScenarioConfig)
            assert cfg.name == name
            assert len(cfg.obstacles) >= 1

    def test_resolve_by_name_and_path(self):
        by_name = resolve_scenario("head_on")
        by_path = resolve_scenario(str(by_name))
        assert by_name == by_path
        with pytest.raises(ParseError):
            resolve_scenario("no_such_scenario")


def test_with_variant_replaces_only_variant():
    cfg = scenario_from_dict(MINIMAL)
    alt = with_variant(cfg, "gp-linear")
    assert alt.controller.variant == "gp-linear"
    assert alt.controller.alpha_slope == cfg.controller.alpha_slope
    assert cfg.controller.variant == "dlgp"
    with pytest.raises(ValidationError):
        with_variant(cfg, "bogus")


def test_build_world_fresh_instances():
    cfg = scenario_from_dict(MINIMAL)
    world_a = build_world(cfg)
    world_b = build_world(cfg)
    world_a.centres[0] += 1.0
    assert world_b.centres[0][0] == 1.0


# every key of the schema, each set away from its default
FULL = {
    "schema": 1, "name": "full", "seed": 7, "dt": 0.04, "max_time": 0.5,
    "robot": {"start": [-2.0, 0.5], "heading": 0.1},
    "goal": {"position": [4.0, -0.5], "arrival_radius": 0.25},
    "obstacles": [
        {"id": "rock", "radius": 0.4, "center": [1.0, 1.1],
         "motion": {"type": "static"}},
        {"id": "mover", "radius": 0.35, "center": [3.0, -2.0],
         "motion": {"type": "velocity", "velocity": [0.0, 0.3]}},
        {"id": "swing", "radius": 0.3, "center": [2.0, 2.0],
         "motion": {"type": "sinusoid", "axis": [0.0, 1.0], "amplitude": 0.5,
                    "period": 4.0}},
    ],
    "controller": {"alpha_slope": 0.3, "lead_offset": 0.25, "u_max": 0.7,
                   "v_max": 0.9, "omega_max": 1.5, "variant": "gp-linear"},
    "barrier": {"scale": 2.0, "margin_shift": 0.2, "mu_floor": 1.0e-11},
    "kernel": {"length_scale": 0.8, "jitter": 1.0e-7},
    "perception": {"grid": {"width": 50, "height": 40, "resolution": 0.25},
                   "clustering": {"eps": 0.4, "min_pts": 3},
                   "mvee_tolerance": 1.0e-3, "dataset_cap": 50,
                   "tracker": {"d_max": 0.9, "min_speed": 0.1, "q_pos": 2.0e-4,
                               "q_vel": 2.0e-2, "q_acc": 0.2, "r_center": 5.0e-4}},
    "sensor": {"beams": 90, "max_range": 5.0, "noise_sigma": 0.01},
}


def sections(instance, data, path=""):
    """(YAML path, mapping, params instance) of a section of FULL and of
    every section below it, obstacles included; keys follow _RENAMES."""
    yield path, data, instance
    renames = scenario._RENAMES.get(type(instance), {})
    for f in fields(instance):
        key = renames.get(f.name, f.name)
        value = getattr(instance, f.name)
        if is_dataclass(value):
            yield from sections(value, data.get(key, {}), scenario._join(path, key))
        elif f.name == "obstacles":
            for index, (entry, obstacle) in enumerate(zip(data[key], value)):
                yield from sections(obstacle, entry, f"{key}[{index}]")


def first_keys():
    """(section path, key, params instance, field) of every field of FULL,
    each field taken at its first key (a motion field on the obstacle whose
    motion type takes it)."""
    seen = set()
    for path, data, instance in sections(scenario_from_dict(FULL), FULL):
        renames = scenario._RENAMES.get(type(instance), {})
        for f in fields(instance):
            key = renames.get(f.name, f.name)
            if key in data and (type(instance), f.name) not in seen:
                seen.add((type(instance), f.name))
                yield path, key, instance, f


# the float keys of FULL, as an error message names them
FLOAT_KEYS = [scenario._join(path, key) for path, key, instance, f in first_keys()
              if get_type_hints(type(instance))[f.name] is float]


def with_value(key, value):
    """Copy of FULL with the key (as an error message names it) set to value."""
    data = copy.deepcopy(FULL)
    *parents, leaf = [int(p) if p.isdigit() else p
                      for p in re.split(r"[.\[\]]+", key) if p]
    node = data
    for part in parents:
        node = node[part]
    node[leaf] = value
    return data


def run_file(tmp_path, data, *flags):
    path = tmp_path / "case.yaml"
    path.write_text(yaml.safe_dump(data))
    return main(["run", str(path), *flags])


def test_every_key_lands_in_its_field(tmp_path):
    motions = (MotionSpec(), MotionSpec(kind="velocity", velocity=(0.0, 0.3)),
               MotionSpec(kind="sinusoid", axis=(0.0, 1.0), amplitude=0.5,
                          period=4.0))
    obstacles = tuple(
        ObstacleConfig(obstacle_id, radius, center, motion)
        for (obstacle_id, radius, center), motion in zip(
            [("rock", 0.4, (1.0, 1.1)), ("mover", 0.35, (3.0, -2.0)),
             ("swing", 0.3, (2.0, 2.0))], motions))
    expected = ScenarioConfig(
        name="full", goal=GoalConfig((4.0, -0.5), 0.25),
        robot=RobotConfig((-2.0, 0.5), 0.1), obstacles=obstacles, seed=7,
        dt=0.04, max_time=0.5,
        controller=ControllerParams(0.3, 0.25, 0.7, 0.9, 1.5, "gp-linear"),
        barrier=BarrierParams(2.0, 0.2, 1e-11),
        kernel=KernelParams(0.8, 1e-7),
        perception=PerceptionParams(
            GridSpec(50, 40, 0.25), ClusteringParams(0.4, 3), 1e-3,
            TrackerParams(0.9, 0.1, 2e-4, 2e-2, 0.2, 5e-4), 50),
        sensor=LidarSpec(90, 5.0, 0.01))
    assert scenario_from_dict(FULL) == expected
    path = tmp_path / "full.yaml"
    path.write_text(yaml.safe_dump(FULL))
    assert load_scenario(path) == expected


def schema_classes() -> set[type]:
    """ScenarioConfig and every params class reachable from its annotations."""
    seen, todo = set(), [ScenarioConfig]
    while todo:
        cls = todo.pop()
        seen.add(cls)
        for hint in get_type_hints(cls).values():
            todo += [t for t in (hint, *get_args(hint))
                     if is_dataclass(t) and t not in seen]
    return seen


def test_every_schema_annotation_has_a_reader():
    # a field whose annotation the reader cannot read fails here, not on load
    seen = schema_classes()
    for cls in seen:
        for name, hint in get_type_hints(cls).items():
            assert hint in scenario._READERS or is_dataclass(hint), \
                f"{cls.__name__}.{name}: no reader for {hint}"
    assert seen == {ScenarioConfig, GoalConfig, RobotConfig, ObstacleConfig,
                    MotionSpec, ControllerParams, BarrierParams, KernelParams,
                    PerceptionParams, ClusteringParams, GridSpec, TrackerParams,
                    LidarSpec}
    # settable values: every field that is not a section; obstacles, a list
    # of ObstacleConfig sections, is not one
    leaves = [name for cls in seen for name, hint in get_type_hints(cls).items()
              if not is_dataclass(hint) and hint != tuple[ObstacleConfig, ...]]
    assert len(leaves) == 43


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_is_refused_by_key(key, tmp_path, capsys):
    assert len(FLOAT_KEYS) == 28
    assert run_file(tmp_path, with_value(key, float("nan"))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: expected a finite number")
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("max_time", float("inf")),
    ("robot.heading", float("-inf")),
    ("goal.position", [0.0, float("inf")]),
    ("obstacles[1].motion.velocity", [float("nan"), 0.0]),
    ("dt", 10 ** 400),
    ("perception.tracker.q_pos", 10 ** 400),
])
def test_non_finite_numbers_are_refused_by_key(key, value, tmp_path, capsys):
    assert run_file(tmp_path, with_value(key, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: expected a finite number")
    assert "Traceback" not in err


# the checks that span more than one value; every single-field bound is
# checked from its declaration by test_each_declared_end_is_refused_just_past_it
@pytest.mark.parametrize("key, value, message", [
    ("obstacles[2].motion.axis", [0.0, 0.0],
     "obstacles[2].motion: axis length must be in [1e-6, 1e6]"),
    ("obstacles[2].motion.axis", [1.0e6, 1.0],
     "obstacles[2].motion: axis length must be in [1e-6, 1e6]"),
    ("obstacles[2].motion.axis", [0.0, 0.999999e-6],
     "obstacles[2].motion: axis length must be in [1e-6, 1e6]"),
    ("perception.clustering.eps", 2.6,
     "perception: clustering.eps must be <= 10 * grid.resolution"),
    ("dt", 1.0e-9, "max_time / dt must be <= 100000 steps"),
])
def test_class_bounds_exit_two_with_section_and_field(key, value, message,
                                                      tmp_path, capsys):
    assert run_file(tmp_path, with_value(key, value)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


def just_past(bound, integer):
    """(end name, value) just outside each finite end of an interval: the end
    itself when open, else the next integer or float beyond it."""
    for name, end, closed, away in (("low", bound.low, bound.low_closed, -1),
                                    ("high", bound.high, bound.high_closed, 1)):
        if math.isinf(end):
            continue
        if not closed:
            yield name, int(end) if integer else end
        else:
            yield name, (int(end) + away if integer
                         else math.nextafter(end, away * math.inf))


def declared_cases():
    """One case per finite end of every declared interval, at the field's
    first key in FULL."""
    cases = []
    for path, key, instance, f in first_keys():
        bound = f.metadata.get("bound")
        if bound is None:
            continue
        value = getattr(instance, f.name)
        pair = isinstance(value, tuple)
        full_key = scenario._join(path, key)
        for end, past in just_past(bound, isinstance(value, int)):
            # a pair is pushed out on its first coordinate only
            past_value = (past, value[1]) if pair else past
            cases.append(pytest.param(
                instance, f.name, full_key, past_value,
                f"{key} {bound.rule}" + (" on each axis" if pair else ""),
                id=f"{full_key}-{end}"))
    return cases


DECLARED_CASES = declared_cases()


def test_the_derived_cases_cover_every_declared_bound():
    declared = {(cls, f.name) for cls in schema_classes() for f in fields(cls)
                if "bound" in f.metadata}
    covered = {(type(case.values[0]), case.values[1]) for case in DECLARED_CASES}
    assert covered == declared


@pytest.mark.parametrize("instance, name, key, value, message", DECLARED_CASES)
def test_each_declared_end_is_refused_just_past_it(instance, name, key, value,
                                                   message, tmp_path, capsys):
    section = key.rpartition(".")[0]
    yaml_value = list(value) if isinstance(value, tuple) else value
    assert run_file(tmp_path, with_value(key, yaml_value)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {section + ': ' if section else ''}{message}\n"
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        replace(instance, **{name: value})


def test_readme_bounds_table_equals_the_declarations():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", readme, re.MULTILINE)
    declared = {(re.sub(r"\[\d+\]", "[i]", case.values[2]),
                 case.values[4].split(" must be ")[1].removeprefix("in ")
                 .removesuffix(" on each axis"))
                for case in DECLARED_CASES}
    assert len(rows) == len(set(rows))
    assert set(rows) == declared


def test_every_bound_at_its_limit_runs_without_a_traceback(tmp_path, capsys):
    # coordinates, grid resolution, speeds, obstacle motion, sensor range,
    # barrier scale, kernel length scale and dt each at the bound that keeps
    # position / resolution and the step arithmetic finite, with no numpy
    # overflow warning
    data = with_value("dt", 1.0)
    data["max_time"] = 3.0
    data["robot"]["start"] = [1.0e6, -1.0e6]
    data["goal"]["position"] = [-1.0e6, -1.0e6]
    for obstacle, center in zip(data["obstacles"], (
            [1.0e6, -1.0e6 + 2.0], [1.0e6 - 2.0, -1.0e6], [-1.0e6, 1.0e6])):
        obstacle["center"] = center
    data["controller"].update(u_max=1.0e3, v_max=1.0e3)
    data["perception"]["grid"]["resolution"] = 1.0e-3
    data["perception"]["clustering"]["eps"] = 1.0e-2
    data["sensor"]["max_range"] = 1.0e6
    data["barrier"]["scale"] = 1.0e6
    data["kernel"]["length_scale"] = 1.0e-3
    data["obstacles"][1]["motion"]["velocity"] = [1.0e3, -1.0e3]
    data["obstacles"][2]["motion"].update(axis=[-1.0e6, 0.0], amplitude=1.0e6,
                                          period=1.0e-3)
    data["obstacles"].append({"id": "short_axis", "radius": 0.3,
                              "center": [1.0e6, 1.0e6],
                              "motion": {"type": "sinusoid", "axis": [0.0, 1.0e-6],
                                         "amplitude": 0.5, "period": 4.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_file(tmp_path, data) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


# the largest finite double and the least positive one, a subnormal
HUGE = sys.float_info.max
TINY = 5e-324


def log_uniform(low, high):
    """Floats in [low, high], 0 < low, whose logarithm is uniform."""
    return st.floats(math.log(low), math.log(high)).map(
        lambda x: min(high, max(low, math.exp(x))))


def positive(high=HUGE):
    return log_uniform(TINY, high)


def nonnegative(high=HUGE):
    return st.one_of(st.just(0.0), positive(high))


def signed(high):
    return st.builds(lambda x, negative: -x if negative else x,
                     nonnegative(high), st.booleans())


def inside(cls, name):
    """Values inside a field's declared interval: integers uniform up to 2**64;
    floats log-uniform on (0, high], with 0 when the interval is closed there,
    or on [low, high] above 0, and a signed magnitude when it is symmetric."""
    f = cls.__dataclass_fields__[name]
    bound = f.metadata["bound"]
    if f.type == "int":
        return st.integers(int(bound.low) + (not bound.low_closed),
                           2**64 if math.isinf(bound.high) else int(bound.high))
    high = min(bound.high, HUGE)
    if bound.low == -bound.high:
        return signed(high)
    if bound.low == 0.0:
        return nonnegative(high) if bound.low_closed else positive(high)
    return log_uniform(bound.low, high)


@st.composite
def in_bound_scenarios(draw):
    """A scenario with every value inside its declared bound, each float
    drawn log-uniform across its range; sizes, obstacles and episode length
    fit a small budget, and each obstacle's edge lies within 4 m of the start."""
    def drawn(cls, *names):
        return {name: draw(inside(cls, name)) for name in names}

    dt = draw(inside(ScenarioConfig, "dt"))
    q_pos = draw(inside(TrackerParams, "q_pos"))
    resolution = draw(inside(GridSpec, "resolution"))
    start = [draw(inside(RobotConfig, "start")) for _ in range(2)]

    def motion():
        kind = draw(st.sampled_from(MOTION_KINDS))
        if kind == "velocity":
            return {"type": kind,
                    "velocity": [draw(inside(MotionSpec, "velocity"))
                                 for _ in range(2)]}
        if kind == "static":
            return {"type": kind}
        angle = draw(st.floats(-math.pi, math.pi))
        length = draw(log_uniform(1e-6, 1e6))
        return {"type": kind, "period": draw(inside(MotionSpec, "period")),
                "axis": [length * math.cos(angle), length * math.sin(angle)],
                "amplitude": draw(inside(MotionSpec, "amplitude"))}

    def obstacle(index):
        # the edge lies 0.1 to 4 m from the start
        radius = draw(inside(ObstacleConfig, "radius"))
        angle = draw(st.floats(-math.pi, math.pi))
        distance = radius + draw(st.floats(0.1, 4.0))
        limit = ObstacleConfig.__dataclass_fields__["center"].metadata["bound"].high
        center = [min(limit, max(-limit, c + distance * f(angle)))
                  for c, f in zip(start, (math.cos, math.sin))]
        return {"id": f"o{index}", "radius": radius, "center": center,
                "motion": motion()}

    obstacles = [obstacle(index) for index in range(draw(st.integers(1, 4)))]
    return {
        "schema": 1, "name": "drawn", "seed": draw(inside(ScenarioConfig, "seed")),
        # 1 to 40 steps of dt, and at most 1 s
        "dt": dt, "max_time": min(1.0, draw(st.integers(1, 40)) * dt),
        "robot": {"start": start, "heading": draw(signed(HUGE))},
        "goal": {"position": [draw(inside(GoalConfig, "position"))
                              for _ in range(2)],
                 **drawn(GoalConfig, "arrival_radius")},
        "obstacles": obstacles,
        "controller": {**drawn(ControllerParams, "alpha_slope", "lead_offset",
                               "u_max", "v_max", "omega_max"),
                       "variant": draw(st.sampled_from(VARIANTS))},
        "barrier": drawn(BarrierParams, "scale", "margin_shift", "mu_floor"),
        "kernel": drawn(KernelParams, "length_scale", "jitter"),
        "perception": {
            "grid": {"width": draw(st.integers(1, 120)),
                     "height": draw(st.integers(1, 120)),
                     "resolution": resolution},
            "clustering": {"eps": draw(positive(10.0 * resolution)),
                           **drawn(ClusteringParams, "min_pts")},
            **drawn(PerceptionParams, "mvee_tolerance"),
            "dataset_cap": draw(st.integers(1, 100)),
            "tracker": {**drawn(TrackerParams, "d_max", "min_speed"),
                        "q_pos": q_pos, **drawn(TrackerParams, "q_vel", "q_acc"),
                        # q_pos + r_center must be > 0
                        "r_center": draw(inside(TrackerParams, "r_center")
                                         if q_pos else positive())}},
        "sensor": {"beams": draw(st.integers(1, 720)),
                   # half the draws reach 4 m, so that the GP sees obstacles
                   "max_range": draw(st.one_of(inside(LidarSpec, "max_range"),
                                               log_uniform(4.0, 1e6))),
                   **drawn(LidarSpec, "noise_sigma")},
    }


@settings(max_examples=200)
@given(in_bound_scenarios())
def test_every_in_bound_scenario_ends_as_an_outcome(data):
    # numpy's RuntimeWarnings are errors in this suite, so an overflow or a
    # division by zero fails here as well as a traceback does
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "drawn.yaml"
        path.write_text(yaml.safe_dump(data))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["run", str(path)]) in (0, 1, 3)


def test_episode_length_bound_counts_steps_as_the_episode_does():
    goal = GoalConfig((1.0, 0.0))
    at_bound = ScenarioConfig("s", goal, dt=0.001, max_time=100.0)
    assert at_bound.max_steps == 100_000
    with pytest.raises(ValueError, match=r"max_time / dt must be <= 100000 steps"):
        ScenarioConfig("s", goal, dt=0.001, max_time=100.001)
    # a quotient that overflows is refused, not an OverflowError from round()
    with pytest.raises(ValueError, match=r"max_time / dt"):
        ScenarioConfig("s", goal, dt=1e-300, max_time=1e300)


def test_negative_seed_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "head_on", "--seed", "-3"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --seed: -3 is not >= 0" in err
    assert "Traceback" not in err


# the checks that span more than one value, and NaN, which lies past no end
@pytest.mark.parametrize("build, field_name", [
    (lambda: ControllerParams(u_max=float("nan")), "u_max"),
    (lambda: TrackerParams(min_speed=float("nan")), "min_speed"),
    (lambda: PerceptionParams(clustering=ClusteringParams(eps=2.01)),
     "clustering.eps must be <= 10"),
    (lambda: ObstacleConfig("a", 1.0, (float("nan"), 0.0)), "center must be in"),
    (lambda: MotionSpec("sinusoid", axis=(-1.0e6, 1.0)), "axis length must be in"),
    (lambda: MotionSpec("sinusoid", axis=(0.999999e-6, 0.0)), "axis length must be in"),
])
def test_direct_construction_enforces_the_schema_bounds(build, field_name):
    with pytest.raises(ValueError, match=field_name):
        build()


@pytest.mark.parametrize("change, message", [
    ({"sensor": {"beam_count": 90}}, "sensor: unknown key 'beam_count'"),
    ({"obstacles": [{"id": "a", "radius": 0.5, "center": [0.0, 0.0],
                     "motion": {"type": "static", "velocity": [1.0, 0.0]}}]},
     "obstacles[0].motion: unknown key 'velocity'"),
    ({"perception": {"eps": 0.3}}, "perception: unknown key 'eps'"),
    ({"perception": {"clustering": {"mvee_tolerance": 1.0e-3}}},
     "perception.clustering: unknown key 'mvee_tolerance'"),
    ({"controller": {"evaluate_at_lead": False}},
     "controller: unknown key 'evaluate_at_lead'"),
    # module constants now, so even their former defaults are refused
    ({"controller": {"goal_deadband": 0.05}},
     "controller: unknown key 'goal_deadband'"),
    ({"barrier": {"linear_prior": 0.9}}, "barrier: unknown key 'linear_prior'"),
    ({"perception": {"tracker": {"min_velocity_age": 2}}},
     "perception.tracker: unknown key 'min_velocity_age'"),
    ({"perception": {"tracker": {"max_misses": 5}}},
     "perception.tracker: unknown key 'max_misses'"),
])
def test_unknown_keys_are_refused(change, message):
    with pytest.raises(ValidationError) as info:
        scenario_from_dict({**MINIMAL, **change})
    assert str(info.value) == message
