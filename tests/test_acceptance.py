"""Acceptance suite: every release criterion, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion (each test also prints a PASS summary with its measured
numbers). Closed-loop criteria share one set of cached episode runs.
"""

import itertools
import json
import time

import numpy as np
import pytest

from gpnav.barrier import BarrierParams, evaluate, evaluate_full
from gpnav.bench import bench_barrier, check_gradients
from gpnav.episode import RunFiles, compare, comparison_json, run_episode
from gpnav.gp import KernelParams, build_model
from gpnav.perception.ellipse import Ellipse
from gpnav.perception.tracking import (TrackerParams, kalman_step,
                                       linear_sum_assignment, new_track)
from gpnav.scenario import load_scenario, resolve_scenario, with_variant

from conftest import pipeline_datasets

KERNEL = KernelParams(length_scale=0.9, jitter=1e-8)
EXACT_KERNEL = KernelParams(length_scale=0.9, jitter=0.0)
BARRIER = BarrierParams(scale=1.0, margin_shift=0.1)
SUITE = ("static_slalom", "head_on", "crossing", "mixed_field", "narrow_gap")
TREND_SCENARIOS = ("head_on", "crossing", "mixed_field")


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """One cached episode per (scenario, variant) needed by criteria 6, 8, 9."""
    root = tmp_path_factory.mktemp("suite")
    runs = {}
    for name in SUITE:
        cfg = load_scenario(resolve_scenario(name))
        out = root / name
        files = RunFiles(dump_perception=True)
        runs[(name, "dlgp")] = run_episode(cfg, on_step=files)
        files.write(out, cfg, *runs[(name, "dlgp")])
        runs[(name, "dlgp", "out_dir")] = out
    for name in TREND_SCENARIOS:
        cfg = with_variant(load_scenario(resolve_scenario(name)), "dlgp-no-dhdt")
        runs[(name, "dlgp-no-dhdt")] = run_episode(cfg)
    return runs


def test_criterion_01_boundary_value_on_pipeline_datasets():
    # max |h(training point) + margin_shift| <= 1e-4 over 50 datasets, < 5 s
    start = time.perf_counter()
    datasets = pipeline_datasets(50)
    assert len(datasets) >= 50
    worst = 0.0
    for points, _ in datasets[:50]:
        model = build_model(points, params=KERNEL)
        for point in points:
            worst = max(worst, abs(evaluate(model, BARRIER, point) + 0.1))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 5.0
    print(f"PASS criterion 1: boundary max deviation {worst:.2e} "
          f"over 50 pipeline datasets in {elapsed:.2f}s")


def test_criterion_02_derivative_consistency():
    # 100 random cases per derivative vs central differences, < 10 s
    start = time.perf_counter()
    report = check_gradients(cases=100, seed=0)
    elapsed = time.perf_counter() - start
    assert report["spatial_max_rel_err"] <= 1e-5
    assert report["time_max_rel_err"] <= 1e-5
    assert elapsed < 10.0
    print(f"PASS criterion 2: spatial {report['spatial_max_rel_err']:.2e}, "
          f"time {report['time_max_rel_err']:.2e} in {elapsed:.2f}s")


def test_criterion_03_single_point_closed_forms():
    model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
    value = evaluate(model, BARRIER, (0.9, 0.0))
    result = evaluate_full(model, BARRIER, (0.9, 0.0),
                           np.array([[1.0, 0.0]]))
    third = 1.0 / 0.81 * 0.9
    assert value == pytest.approx(0.4, abs=1e-9)
    assert result.grad_state[0] == pytest.approx(third, abs=1e-9)
    assert result.grad_state[0] == pytest.approx(1.11111, abs=1e-5)
    assert result.grad_state[1] == pytest.approx(0.0, abs=1e-9)
    assert result.time_derivative == pytest.approx(-third, abs=1e-9)
    assert result.time_derivative == pytest.approx(-1.11111, abs=1e-5)
    print("PASS criterion 3: h=0.4, grad=(1.11111, 0), dh/dt=-1.11111 "
          "matched to 1e-9")


def test_criterion_04_qp_grid_search_oracle():
    # 1000 random QPs: feasibility slack >= -1e-12 and cost no worse than the
    # dense grid optimum + 1e-4; < 30 s
    from gpnav.controller import SafetyConstraint, solve_safety_qp
    start = time.perf_counter()
    grid_axis = np.arange(-2.0, 2.0 + 0.005, 0.01)
    gx, gy = np.meshgrid(grid_axis, grid_axis)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    # |g - u_nom|^2 = |g|^2 - 2 g.u_nom + |u_nom|^2, with |g|^2 formed once
    # and one (2, 2) @ grid.T product per QP for g.a and g.u_nom
    grid_sq = np.sum(grid ** 2, axis=1)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        angle = rng.uniform(-np.pi, np.pi)
        a = rng.uniform(0.3, 1.5) * np.array([np.cos(angle), np.sin(angle)])
        # keep the constraint boundary within the oracle's search box
        b = rng.uniform(-1.5, 1.5) * float(np.linalg.norm(a))
        u_nom = rng.uniform(-1.0, 1.0, 2)
        u = solve_safety_qp(u_nom, SafetyConstraint(a=a, b=b, feasible=True))
        slack = float(a @ u + b)
        assert slack >= -1e-12
        along_a, along_u = np.stack([a, u_nom]) @ grid.T
        feasible = along_a + b >= 0.0
        assert np.any(feasible)
        costs = np.where(feasible, grid_sq - 2.0 * along_u, np.inf)
        best = float(costs.min()) + float(u_nom @ u_nom)
        assert float(np.sum((u - u_nom) ** 2)) <= best + 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 4: 1000 QPs feasible and at or below the "
          f"grid optimum in {elapsed:.2f}s")


def test_criterion_05_assignment_brute_force_oracle():
    # 200 random matrices up to 6x6: optimal cost matches permutation minimum
    rng = np.random.default_rng(6)
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 10.0, (rows, cols))
        ri, ci = linear_sum_assignment(cost)
        total = float(cost[ri, ci].sum())
        if rows <= cols:
            best = min(sum(cost[i, p[i]] for i in range(rows))
                       for p in itertools.permutations(range(cols), rows))
        else:
            best = min(sum(cost[p[j], j] for j in range(cols))
                       for p in itertools.permutations(range(rows), cols))
        assert total == pytest.approx(best, abs=1e-9)
    print("PASS criterion 5: 200 assignments match the brute-force minimum")


def test_criterion_06_mvee_containment_across_suite(suite_runs):
    # every frame of every suite episode: cluster points inside the
    # (1 + 1e-3)-scaled ellipse and fit gap <= 1e-4
    frames = 0
    checked = 0
    worst_gap = 0.0
    for name in SUITE:
        records = (suite_runs[(name, "dlgp", "out_dir")]
                   / "perception.jsonl").read_text().splitlines()
        for line in records:
            record = json.loads(line)
            frames += 1
            if not record["ellipses"]:
                continue
            origin = np.asarray(record["origin"])
            res = record["resolution"]
            cells = np.asarray(record["occupied_cells"], dtype=float)
            points = origin + res * (cells + 0.5)
            labels = np.asarray(record["labels"])
            for vec, gap, cid in zip(record["ellipses"], record["fit_gaps"],
                                     record["cluster_ids"]):
                ellipse = Ellipse(center=np.array(vec[:2]), semi_major=vec[2],
                                  semi_minor=vec[3], angle=vec[4])
                cluster = points[labels == cid]
                assert np.all(ellipse.contains(cluster, scale=1.0 + 1e-3)), \
                    f"{name}: containment failed at t={record['t']}"
                assert gap <= 1e-4
                worst_gap = max(worst_gap, gap)
                checked += 1
    assert checked > 100
    print(f"PASS criterion 6: {checked} ellipse fits over {frames} frames, "
          f"max duality gap {worst_gap:.2e}")


def test_criterion_07_kalman_velocity_accuracy():
    # constant velocity (1.0, 0.5), center noise sigma = 0.02 m, 20 updates
    # at dt = 0.05: velocity error <= 0.1 m/s
    params = TrackerParams()
    rng = np.random.default_rng(7)
    dt, v_true = 0.05, np.array([1.0, 0.5])
    detection = Ellipse(center=np.zeros(2), semi_major=0.3, semi_minor=0.3,
                        angle=0.0)
    track = new_track(0, detection, params)
    for k in range(1, 21):
        center = v_true * dt * k + rng.normal(0.0, 0.02, 2)
        meas = Ellipse(center=center, semi_major=0.3, semi_minor=0.3, angle=0.0)
        kalman_step(track, meas, dt, params)
    error = float(np.linalg.norm(track.velocity(min_age=2) - v_true))
    assert error <= 0.1
    print(f"PASS criterion 7: velocity error {error:.3f} m/s after 20 updates")


def test_criterion_08_closed_loop_safety(suite_runs):
    # all five scenarios arrive with positive clearance; the barrier at the
    # leading point stays nonnegative after the first step
    summary = []
    for name in SUITE:
        log, metrics = suite_runs[(name, "dlgp")]
        assert metrics.arrival_time is not None, f"{name} did not arrive"
        assert not metrics.collision, f"{name} collided"
        assert metrics.min_clearance > 0.0
        h_values = np.array([s.h for s in log.steps[1:] if s.dataset_size > 0])
        assert len(h_values) > 0
        assert h_values.min() >= 0.0, f"{name}: h(p_lead) dipped below 0"
        summary.append(f"{name} arr={metrics.arrival_time:.1f}s "
                       f"clear={metrics.min_clearance:.2f} "
                       f"min_h={h_values.min():.3f}")
    print("PASS criterion 8: " + "; ".join(summary))


def test_criterion_09_trend_vs_reactive_ablation(suite_runs):
    # scenarios 2-4: larger min clearance in >= 2 of 3 and angular-velocity
    # variance no larger in >= 2 of 3, matching the reported ordering
    clearance_wins = 0
    omega_wins = 0
    lines = []
    for name in TREND_SCENARIOS:
        _, full = suite_runs[(name, "dlgp")]
        _, reactive = suite_runs[(name, "dlgp-no-dhdt")]
        clearance_wins += full.min_clearance > reactive.min_clearance
        omega_wins += (full.angular_speed_variance
                       <= reactive.angular_speed_variance)
        lines.append(f"{name} clear {full.min_clearance:.3f}/"
                     f"{reactive.min_clearance:.3f} omega-var "
                     f"{full.angular_speed_variance:.4f}/"
                     f"{reactive.angular_speed_variance:.4f}")
    assert clearance_wins >= 2, lines
    assert omega_wins >= 2, lines
    print(f"PASS criterion 9: clearance wins {clearance_wins}/3, "
          f"angular-variance wins {omega_wins}/3 (" + "; ".join(lines) + ")")


def test_criterion_10_barrier_evaluation_timing():
    # one full evaluation (model + h + both derivatives) at N = 30 must
    # average below the 21 ms real-time budget
    rows = bench_barrier([30], repetitions=50, seed=3)
    mean_ms = rows[0].mean_ms
    assert mean_ms <= 21.0
    print(f"PASS criterion 10: N=30 full evaluation mean {mean_ms:.3f} ms "
          f"(budget 21 ms)")


def test_criterion_11_compare_determinism():
    # two invocations with the same seed produce byte-identical metrics JSON
    cfg = load_scenario(resolve_scenario("head_on"))
    first = comparison_json(compare(cfg, ["dlgp", "dlgp-no-dhdt"]))
    second = comparison_json(compare(cfg, ["dlgp", "dlgp-no-dhdt"]))
    assert first.encode() == second.encode()
    print("PASS criterion 11: comparison JSON byte-identical across runs")
