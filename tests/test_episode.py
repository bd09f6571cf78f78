"""Closed-loop episodes: arrival, timeout, metrics, and determinism."""

import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from gpnav.episode import (RunFiles, TrajectoryLog, TrajectoryStep, compare,
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
        assert metrics.to_dict()["min_clearance"] is None   # inf -> null

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

    def test_start_inside_an_obstacle_within_the_arrival_radius(self):
        # the loop stops on the collision at step 0, so the goal is not reached
        cfg = scenario_from_dict({
            "robot": {"start": [0.0, 0.0], "heading": 0.0},
            "goal": {"position": [0.1, 0.0], "arrival_radius": 0.3},
            "obstacles": [{"id": "r", "radius": 0.5, "center": [0.0, 0.0]}],
        })
        log, metrics = run_episode(cfg)
        metrics = metrics.to_dict()
        assert len(log) == 1
        assert metrics["collision"] is True
        assert metrics["arrival_time"] is None
        assert metrics["timed_out"] is False

    def test_output_files(self, tmp_path):
        cfg = scenario_from_dict({
            "robot": {"start": [-2.0, 0.0], "heading": 0.0},
            "goal": {"position": [3.0, 0.0], "arrival_radius": 0.3},
            "max_time": 12.0,
            "obstacles": [{"id": "r", "radius": 0.4, "center": [0.5, 1.2]}],
        })
        out = tmp_path / "run"
        files = RunFiles(dump_field=True, dump_perception=True)
        log, metrics = run_episode(cfg, on_step=files)
        files.write(out, cfg, log, metrics)
        assert (out / "trajectory.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "barrier_field.csv").exists()
        assert (out / "perception.jsonl").exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.split(",")[:6] == ["t", "px", "py", "theta", "v", "omega"]
        written = json.loads((out / "metrics.json").read_text())
        assert "min_clearance" in written and "arrival_time" in written
        records = (out / "perception.jsonl").read_text().splitlines()
        assert len(records) == len(log)
        first_frame = json.loads(records[0])
        assert {"t", "occupied_cells", "labels", "ellipses",
                "track_ids", "tracks"} <= set(first_frame)

    def test_sideways_start_flags_every_clipped_turn(self):
        # an empty world (the "empty" fallback on every step) with the goal
        # abeam: the nominal turn rate exceeds omega_max, and each step whose
        # command the box clipped is flagged saturated
        cfg = scenario_from_dict({
            "robot": {"start": [0.0, 0.0], "heading": math.pi / 2},
            "goal": {"position": [5.0, 0.0]},
            "max_time": 3.0,
            "obstacles": [],
        })
        log, _ = run_episode(cfg)
        omega_max = cfg.controller.omega_max
        clipped = [s for s in log.steps if abs(s.omega) == omega_max]
        assert len(clipped) >= 8
        assert all(s.fallback == "empty" and s.saturated for s in clipped)

    def test_on_step_observer_leaves_the_run_unchanged(self):
        cfg = scenario_from_dict(TestCompare.CFG)
        seen = []

        def observe(step, pipeline, frame, model):
            seen.append((step, model))
            pipeline.debug_record(frame, step.t)

        log, metrics = run_episode(cfg, on_step=observe)
        plain_log, plain_metrics = run_episode(cfg)
        timing = {"barrier_time_ms", "qp_time_ms"}
        assert len(seen) == len(log)
        assert all(a is b for (a, _), b in zip(seen, log.steps))
        assert any(model is not None for _, model in seen)
        assert len(log) == len(plain_log)
        for a, b in zip(log.steps, plain_log.steps):
            for f in fields(TrajectoryStep):
                if f.name not in timing:
                    assert repr(getattr(a, f.name)) == repr(getattr(b, f.name))
        assert (metrics.to_dict(include_timing=False)
                == plain_metrics.to_dict(include_timing=False))


@pytest.fixture(scope="module")
def head_on_run(tmp_path_factory):
    from gpnav.scenario import load_scenario, resolve_scenario
    cfg = load_scenario(resolve_scenario("head_on"))
    out = tmp_path_factory.mktemp("head_on")
    files = RunFiles(dump_perception=True)
    log, metrics = run_episode(cfg, on_step=files)
    files.write(out, cfg, log, metrics)
    return (log, metrics), out


class TestClosedLoopInvariants:
    def test_trajectory_csv_round_trips_every_step(self, head_on_run):
        (log, _), out = head_on_run
        with open(out / "trajectory.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        columns = fields(TrajectoryStep)
        assert header == [f.name for f in columns]
        assert len(rows) == len(log)
        for step, row in zip(log.steps, rows):
            assert len(row) == len(columns)
            for column, cell in zip(columns, row):
                value = getattr(step, column.name)
                spec = column.metadata["csv"]
                if spec == "":
                    assert cell == value
                elif spec == "d":
                    assert int(cell) == value
                else:   # within half a unit of the last written digit
                    half = 0.501 * 10.0 ** -int(spec[1:-1])
                    rel, absolute = (0.0, half) if spec.endswith("f") \
                        else (half, 0.0)
                    assert float(cell) == pytest.approx(
                        value, rel=rel, abs=absolute, nan_ok=True), column.name
        fallbacks = {row[-1] for row in rows}
        assert "" in fallbacks and len(fallbacks) > 1

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
        metrics = compute_metrics(synthetic_log([1.0] * 10))
        assert metrics.linear_speed_variance == 0.0
        assert metrics.angular_speed_variance == 0.0

    def test_population_variance_hand_computed(self):
        # v = (0.5, 1.0, 1.5): population variance 1/6
        metrics = compute_metrics(synthetic_log([0.5, 1.0, 1.5]))
        assert metrics.linear_speed_variance == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert metrics.linear_speed_variance == pytest.approx(0.16667, abs=1e-5)

    def test_touching_boundary_sets_collision(self):
        metrics = compute_metrics(
            synthetic_log([1.0, 1.0, 1.0], clearances=[0.5, 0.0, 0.4]))
        assert metrics.min_clearance == 0.0
        assert metrics.collision

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(TrajectoryLog())


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
