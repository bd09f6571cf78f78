"""Scenario loading: defaults, strict validation, and the shipped files."""

import copy
import re
import warnings
from dataclasses import is_dataclass
from typing import get_args, get_type_hints

import pytest
import yaml

from gpnav import scenario
from gpnav.barrier import BarrierParams
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
from gpnav.simworld import LidarSpec, MotionSpec

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

# the float keys of FULL, as an error message names them
FLOAT_KEYS = [
    "dt", "max_time", "robot.heading", "goal.arrival_radius",
    "obstacles[0].radius", "obstacles[2].motion.amplitude",
    "obstacles[2].motion.period",
    *(f"controller.{k}" for k in ("alpha_slope", "lead_offset", "u_max", "v_max",
                                  "omega_max")),
    *(f"barrier.{k}" for k in ("scale", "margin_shift", "mu_floor")),
    "kernel.length_scale", "kernel.jitter", "perception.grid.resolution",
    "perception.clustering.eps", "perception.mvee_tolerance",
    *(f"perception.tracker.{k}" for k in ("d_max", "min_speed", "q_pos", "q_vel",
                                          "q_acc", "r_center")),
    "sensor.max_range", "sensor.noise_sigma",
]


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


def test_every_schema_annotation_has_a_reader():
    # a field whose annotation the reader cannot read fails here, not on load
    seen, todo = set(), [ScenarioConfig]
    while todo:
        cls = todo.pop()
        seen.add(cls)
        for name, hint in get_type_hints(cls).items():
            assert hint in scenario._READERS or is_dataclass(hint), \
                f"{cls.__name__}.{name}: no reader for {hint}"
            todo += [t for t in (hint, *get_args(hint))
                     if is_dataclass(t) and t not in seen]
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


@pytest.mark.parametrize("key, value, message", [
    ("barrier.mu_floor", 1.0e-3, "barrier: mu_floor must be in (0, 1e-9]"),
    ("obstacles[2].motion.axis", [0.0, 0.0],
     "obstacles[2].motion: axis length must be in [1e-6, 1e6]"),
    ("seed", -1, "seed must be >= 0"),
    ("sensor.beams", 0, "sensor: beams must be > 0"),
    ("sensor.beams", 7201, "sensor: beams must be <= 7200"),
    ("perception.grid.width", 1001, "perception.grid: grid width must be <= 1000"),
    ("perception.grid.height", 1001,
     "perception.grid: grid height must be <= 1000"),
    ("kernel.length_scale", 1.0e300, "kernel: length_scale must be <= 1e3"),
    ("kernel.jitter", 1.0000000000000002, "kernel: jitter must be <= 1"),
    ("obstacles[0].radius", 1.0e160, "obstacles[0]: radius must be <= 1e3"),
    ("perception.grid.resolution", 1.0e300,
     "perception.grid: grid resolution must be <= 1e3"),
    ("perception.clustering.eps", -0.5, "perception.clustering: eps must be > 0"),
    ("perception.clustering.min_pts", 0,
     "perception.clustering: min_pts must be > 0"),
    ("perception.clustering.eps", 2.6,
     "perception: clustering.eps must be <= 10 * grid.resolution"),
    ("dt", 1.0e-9, "max_time / dt must be <= 100000 steps"),
    ("robot.start", [1.0e308, 3.0],
     "robot: start must be in [-1e6, 1e6] on each axis"),
    ("goal.position", [0.0, -1.000001e6],
     "goal: position must be in [-1e6, 1e6] on each axis"),
    ("obstacles[1].center", [1.000001e6, 0.0],
     "obstacles[1]: center must be in [-1e6, 1e6] on each axis"),
    ("perception.grid.resolution", 1.0e-308,
     "perception.grid: grid resolution must be >= 1e-3"),
    ("controller.u_max", 1.0e308, "controller: u_max must be <= 1e3"),
    ("controller.v_max", 1000.001, "controller: v_max must be <= 1e3"),
    ("dt", 1.0e306, "dt must be <= 1"),
    ("obstacles[1].motion.velocity", [0.0, -1000.001],
     "obstacles[1].motion: velocity must be in [-1e3, 1e3] on each axis"),
    ("obstacles[2].motion.amplitude", 1.000001e6,
     "obstacles[2].motion: amplitude must be in [0, 1e6]"),
    ("obstacles[2].motion.axis", [1.0e6, 1.0],
     "obstacles[2].motion: axis length must be in [1e-6, 1e6]"),
    ("obstacles[2].motion.axis", [0.0, 0.999999e-6],
     "obstacles[2].motion: axis length must be in [1e-6, 1e6]"),
    ("barrier.scale", 1.0e160, "barrier: scale must be <= 1e6"),
    ("sensor.max_range", 1.000001e6, "sensor: max_range must be <= 1e6"),
])
def test_class_bounds_exit_two_with_section_and_field(key, value, message,
                                                      tmp_path, capsys):
    assert run_file(tmp_path, with_value(key, value)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


def test_every_bound_at_its_limit_runs_without_a_traceback(tmp_path, capsys):
    # coordinates, grid resolution, speeds, obstacle motion, sensor range,
    # barrier scale and dt each at the bound that keeps position / resolution
    # and the step arithmetic finite, with no numpy overflow warning
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
    data["obstacles"][1]["motion"]["velocity"] = [1.0e3, -1.0e3]
    data["obstacles"][2]["motion"].update(axis=[-1.0e6, 0.0], amplitude=1.0e6)
    data["obstacles"].append({"id": "short_axis", "radius": 0.3,
                              "center": [1.0e6, 1.0e6],
                              "motion": {"type": "sinusoid", "axis": [0.0, 1.0e-6],
                                         "amplitude": 0.5, "period": 4.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_file(tmp_path, data) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


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


@pytest.mark.parametrize("build, field_name", [
    (lambda: TrackerParams(q_vel=-1.0), "q_vel"),
    (lambda: ControllerParams(alpha_slope=0.0), "alpha_slope"),
    (lambda: PerceptionParams(mvee_tolerance=0.0), "mvee_tolerance"),
    (lambda: MotionSpec("sinusoid", amplitude=-1.0), "amplitude"),
    (lambda: GoalConfig((0.0, 0.0), arrival_radius=0.0), "arrival_radius"),
    (lambda: ObstacleConfig("a", 0.0, (0.0, 0.0)), "radius"),
    (lambda: ScenarioConfig("s", GoalConfig((1.0, 0.0)), dt=0.0), "dt"),
    (lambda: ControllerParams(u_max=float("nan")), "u_max"),
    (lambda: TrackerParams(min_speed=float("nan")), "min_speed"),
    (lambda: KernelParams(length_scale=1.0e300), "length_scale must be <= 1e3"),
    (lambda: KernelParams(jitter=float("inf")), "jitter must be <= 1"),
    (lambda: ObstacleConfig("a", 1.0e160, (0.0, 0.0)), "radius must be <= 1e3"),
    (lambda: GridSpec(resolution=1.0e300), "resolution must be <= 1e3"),
    (lambda: GridSpec(width=1001), "width must be <= 1000"),
    (lambda: GridSpec(height=1001), "height must be <= 1000"),
    (lambda: LidarSpec(beam_count=7201), "beam_count must be <= 7200"),
    (lambda: ClusteringParams(eps=0.0), "eps must be > 0"),
    (lambda: ClusteringParams(min_pts=0), "min_pts must be > 0"),
    (lambda: PerceptionParams(clustering=ClusteringParams(eps=2.01)),
     "clustering.eps must be <= 10"),
    (lambda: RobotConfig(start=(1.0e308, 3.0)), "start must be in"),
    (lambda: GoalConfig((0.0, -1.0e7)), "position must be in"),
    (lambda: ObstacleConfig("a", 1.0, (float("nan"), 0.0)), "center must be in"),
    (lambda: GridSpec(resolution=1.0e-308), "resolution must be >= 1e-3"),
    (lambda: ControllerParams(u_max=1.0e308), "u_max must be <= 1e3"),
    (lambda: ControllerParams(v_max=1.0e300), "v_max must be <= 1e3"),
    (lambda: ScenarioConfig("s", GoalConfig((1.0, 0.0)), dt=1.0e306,
                            max_time=2.0e306), "dt must be <= 1"),
    (lambda: MotionSpec("velocity", velocity=(1000.001, 0.0)), "velocity must be in"),
    (lambda: MotionSpec("sinusoid", amplitude=1.000001e6), r"amplitude must be in \[0, 1e6\]"),
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
