"""Scenario loading: defaults, strict validation, and the shipped files."""

import pytest

from gpnav.barrier import BarrierParams
from gpnav.controller import ControllerParams
from gpnav.gp import KernelParams
from gpnav.perception.pipeline import PerceptionParams
from gpnav.perception.tracking import TrackerParams
from gpnav.scenario import (GoalConfig, ParseError, RobotConfig, ScenarioConfig,
                            ValidationError, build_world, canonical_scenarios,
                            load_scenario, resolve_scenario, scenario_from_dict,
                            with_variant)
from gpnav.simworld import LidarSpec

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
        tracker = TrackerParams(d_max=1.0, max_misses=5, min_velocity_age=2,
                                min_speed=0.12, q_pos=1e-4, q_vel=1e-3,
                                q_acc=1e-3, r_center=1e-2)
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
    world_a.obstacles[0].center += 1.0
    assert world_b.obstacles[0].center[0] == 1.0
