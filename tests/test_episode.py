"""Closed-loop episodes: arrival, timeout, metrics, and determinism."""

import json
import math

import numpy as np
import pytest

from gpnav.episode import (TrajectoryLog, TrajectoryStep, compare,
                           comparison_json, comparison_table, compute_metrics,
                           run_episode)
from gpnav.scenario import ValidationError, scenario_from_dict

EMPTY_WORLD = {
    "robot": {"start": [-8.0, 3.0],
              "heading": math.atan2(-5.0, 18.0)},
    "goal": {"position": [10.0, -2.0], "arrival_radius": 0.05},
    "obstacles": [],
}


def synthetic_log(values_v, values_omega=None, clearances=None):
    log = TrajectoryLog()
    n = len(values_v)
    values_omega = values_omega if values_omega is not None else [0.0] * n
    clearances = clearances if clearances is not None else [1.0] * n
    for k in range(n):
        log.steps.append(TrajectoryStep(
            t=0.05 * k, px=0.0, py=0.0, theta=0.0, v=values_v[k],
            omega=values_omega[k], h=1.0, dh_dt=0.0, mu=0.5,
            clearance=clearances[k], dataset_size=3, constraint_active=False,
            constraint_slack=0.0, saturated=False, barrier_time_ms=0.1,
            qp_time_ms=0.01))
    return log


class TestRunEpisode:
    def test_empty_world_straight_line_arrival(self):
        # start aligned with the goal bearing: distance 18.6815 m at 0.8 m/s
        # reaches the 0.05 m arrival radius at the 466th step (t = 23.30 s),
        # within two control periods of the 23.35 s point estimate
        cfg = scenario_from_dict(EMPTY_WORLD)
        log, metrics = run_episode(cfg)
        assert metrics.collision is False
        assert metrics.arrival_time is not None
        assert abs(metrics.arrival_time - 23.35) <= 2 * cfg.dt + 1e-9
        assert math.isinf(metrics.min_clearance)

    def test_arrival_time_is_step_index_times_dt(self):
        cfg = scenario_from_dict(EMPTY_WORLD)
        log, metrics = run_episode(cfg)
        arrival_step = len(log) - 1
        assert metrics.arrival_time == arrival_step * cfg.dt
        assert [s.t for s in log.steps] == [k * cfg.dt for k in range(len(log))]

    def test_wall_across_goal_times_out_without_collision(self):
        wall = [{"id": f"w{i}", "radius": 0.6,
                 "center": [4.0 + 0.15 * (i % 2), -4.0 + 1.0 * i]}
                for i in range(9)]
        cfg = scenario_from_dict({
            "robot": {"start": [-2.0, 0.0], "heading": 0.0},
            "goal": {"position": [8.0, 0.0], "arrival_radius": 0.2},
            "max_time": 20.0,
            "obstacles": wall,
        })
        log, metrics = run_episode(cfg)
        assert metrics.arrival_time is None
        assert metrics.timed_out
        assert not metrics.collision
        assert metrics.min_clearance > 0.0

    def test_deterministic_repeat_identical_logs(self):
        cfg = scenario_from_dict({
            "seed": 42,
            "robot": {"start": [-4.0, 1.0], "heading": 0.0},
            "goal": {"position": [6.0, -1.0], "arrival_radius": 0.3},
            "max_time": 30.0,
            "obstacles": [
                {"id": "m", "radius": 0.4, "center": [2.0, 0.5],
                 "motion": {"type": "velocity", "velocity": [-0.3, 0.1]}},
            ],
        })
        log_a, _ = run_episode(cfg)
        log_b, _ = run_episode(cfg)
        assert len(log_a) == len(log_b)
        assert np.all(np.diff(log_a.column("t")) > 0)
        deterministic = [c for c in ("t", "px", "py", "theta", "v", "omega",
                                     "h", "dh_dt", "mu", "clearance")]
        for column in deterministic:
            assert np.array_equal(log_a.column(column), log_b.column(column),
                                  equal_nan=True)

    def test_output_files(self, tmp_path):
        cfg = scenario_from_dict({
            "robot": {"start": [-2.0, 0.0], "heading": 0.0},
            "goal": {"position": [3.0, 0.0], "arrival_radius": 0.3},
            "max_time": 12.0,
            "obstacles": [{"id": "r", "radius": 0.4, "center": [0.5, 1.2]}],
        })
        out = tmp_path / "run"
        run_episode(cfg, out_dir=out, dump_field=True, dump_perception=True)
        assert (out / "trajectory.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "barrier_field.csv").exists()
        assert (out / "perception.jsonl").exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.split(",")[:6] == ["t", "px", "py", "theta", "v", "omega"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert "min_clearance" in metrics and "arrival_time" in metrics
        first_frame = json.loads(
            (out / "perception.jsonl").read_text().splitlines()[0])
        assert {"t", "occupied_cells", "labels", "ellipses",
                "track_ids", "tracks"} <= set(first_frame)


@pytest.fixture(scope="module")
def head_on_run(tmp_path_factory):
    from gpnav.scenario import load_scenario, resolve_scenario
    cfg = load_scenario(resolve_scenario("head_on"))
    out = tmp_path_factory.mktemp("head_on")
    return run_episode(cfg, out_dir=out, dump_perception=True), out


class TestClosedLoopInvariants:
    def test_constraint_slack_on_unsaturated_steps(self, head_on_run):
        (log, _), _ = head_on_run
        for step in log.steps:
            if step.dataset_size > 0 and not step.saturated \
                    and not math.isnan(step.constraint_slack):
                assert step.constraint_slack >= -1e-6

    def test_time_derivative_negative_during_approach(self, head_on_run):
        # while the obstacle closes in, dh/dt dips negative, and the first
        # active-constraint step precedes the clearance minimum
        (log, metrics), _ = head_on_run
        clear = log.column("clearance")
        dh_dt = log.column("dh_dt")
        active = log.column("constraint_active")
        t_min_clear = int(np.argmin(clear))
        approach = [i for i in range(t_min_clear)
                    if log.steps[i].dataset_size > 0]
        assert len(approach) > 20
        assert np.min(dh_dt[approach]) < -0.1
        first_active = int(np.argmax(active > 0))
        assert 0 < first_active < t_min_clear

    def test_track_id_stable_while_continuously_detected(self, head_on_run):
        _, out = head_on_run
        records = [json.loads(line) for line in
                   (out / "perception.jsonl").read_text().splitlines()]
        previous_ids = None
        for record in records:
            ids = record["track_ids"]
            if previous_ids is not None and len(previous_ids) == 1 \
                    and len(ids) == 1:
                assert ids[0] == previous_ids[0]
            previous_ids = ids if ids else None


class TestComputeMetrics:
    def test_constant_speed_zero_variance(self):
        cfg = scenario_from_dict(EMPTY_WORLD)
        metrics = compute_metrics(synthetic_log([1.0] * 10), cfg)
        assert metrics.linear_speed_variance == 0.0
        assert metrics.angular_speed_variance == 0.0

    def test_population_variance_hand_computed(self):
        # v = (0.5, 1.0, 1.5): population variance 1/6
        cfg = scenario_from_dict(EMPTY_WORLD)
        metrics = compute_metrics(synthetic_log([0.5, 1.0, 1.5]), cfg)
        assert metrics.linear_speed_variance == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert metrics.linear_speed_variance == pytest.approx(0.16667, abs=1e-5)

    def test_touching_boundary_sets_collision(self):
        cfg = scenario_from_dict(EMPTY_WORLD)
        metrics = compute_metrics(
            synthetic_log([1.0, 1.0, 1.0], clearances=[0.5, 0.0, 0.4]), cfg)
        assert metrics.min_clearance == 0.0
        assert metrics.collision

    def test_empty_log_rejected(self):
        cfg = scenario_from_dict(EMPTY_WORLD)
        with pytest.raises(ValueError):
            compute_metrics(TrajectoryLog(), cfg)


class TestCompare:
    CFG = {
        "seed": 9,
        "robot": {"start": [-4.0, 1.0], "heading": 0.0},
        "goal": {"position": [5.0, -1.0], "arrival_radius": 0.3},
        "max_time": 30.0,
        "obstacles": [
            {"id": "m", "radius": 0.4, "center": [2.0, 0.3],
             "motion": {"type": "velocity", "velocity": [-0.25, 0.0]}},
        ],
    }

    def test_single_variant_rejected(self):
        cfg = scenario_from_dict(self.CFG)
        with pytest.raises(ValidationError):
            compare(cfg, ["dlgp"])

    def test_all_variants_run(self):
        cfg = scenario_from_dict(self.CFG)
        results = compare(cfg, ["dlgp", "dlgp-no-dhdt", "gp-linear"])
        assert set(results) == {"dlgp", "dlgp-no-dhdt", "gp-linear"}
        table = comparison_table(results)
        assert "dlgp-no-dhdt" in table

    def test_comparison_json_deterministic(self):
        cfg = scenario_from_dict(self.CFG)
        first = comparison_json(compare(cfg, ["dlgp", "dlgp-no-dhdt"]))
        second = comparison_json(compare(cfg, ["dlgp", "dlgp-no-dhdt"]))
        assert first == second
        payload = json.loads(first)
        assert "mean_barrier_time_ms" not in payload["dlgp"]
