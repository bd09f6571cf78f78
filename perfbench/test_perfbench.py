"""Self-tests of the benchmark: seeded inputs and checkers that bite.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gpnav import barrier, episode  # noqa: E402


# --------------------------------------------------------------------------
# inputs


def test_clutter_same_seed_same_inputs():
    assert workloads.make_clutter(7) == workloads.make_clutter(7)
    assert workloads.make_clutter(7) != workloads.make_clutter(8)


def test_clutter_circles_stay_off_the_path_and_apart():
    for drive in workloads.make_clutter(3):
        assert len(drive) == workloads.CLUTTER_CIRCLES
        for x, y, r, motion in drive:
            assert abs(y) - r >= workloads.CLUTTER_PATH_GAP - 1e-12
            # motion only along x, so the distance to the path never changes
            assert motion.velocity[1] == 0.0 and motion.axis[1] == 0.0
        for i, (x1, y1, r1, _) in enumerate(drive):
            for x2, y2, r2, _ in drive[i + 1:]:
                assert np.hypot(x1 - x2, y1 - y2) >= r1 + r2


def test_field_same_seed_same_inputs():
    first, again, other = (workloads.make_field(s) for s in (5, 5, 6))
    for (p1, v1), (p2, v2) in zip(first, again):
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(v1, v2)
    assert any(not np.array_equal(p1, p2) for (p1, _), (p2, _) in zip(first, other))


def test_field_point_sets_sit_on_the_lattice():
    for size, (points, velocities) in zip(workloads.FIELD_SIZES,
                                          workloads.make_field(2)):
        assert points.shape == (size, 2) and velocities.shape == (size, 2)
        cells = points / workloads.FIELD_CELL - 0.5
        np.testing.assert_allclose(cells, np.round(cells), atol=1e-9)
        assert len({tuple(c) for c in np.round(cells)}) == size
    assert len(workloads.field_axis()) ** 2 == 1681


def test_suite_seed_only_rotates_the_shipped_scenarios():
    names = [c.name for c in workloads.Suite(0).configs]
    assert [c.name for c in workloads.Suite(0).configs] == names
    assert sorted(c.name for c in workloads.Suite(2).configs) == sorted(names)
    assert [c.name for c in workloads.Suite(2).configs] == names[2:] + names[:2]


# --------------------------------------------------------------------------
# checkers reject perturbed outputs


@pytest.fixture(scope="module")
def head_on():
    cfg = next(c for c in workloads.Suite(0).configs if c.name == "head_on")
    log, metrics = episode.run_episode(cfg)
    return cfg, log, metrics


def test_episode_checker_accepts_then_rejects(head_on):
    cfg, log, metrics = head_on
    checks.check_episode(cfg, log, metrics)

    moved = copy.deepcopy(log)
    moved.steps[100].clearance += 1e-6
    with pytest.raises(checks.CheckFailure, match="clearance"):
        checks.check_episode(cfg, moved, metrics)

    fast = copy.deepcopy(log)
    fast.steps[50].v = cfg.controller.v_max + 1e-9
    with pytest.raises(checks.CheckFailure, match="actuator"):
        checks.check_episode(cfg, fast, metrics)

    with pytest.raises(checks.CheckFailure, match="min_clearance"):
        checks.check_episode(cfg, log, replace(metrics,
                                               min_clearance=metrics.min_clearance + 1e-6))
    with pytest.raises(checks.CheckFailure, match="arrive"):
        checks.check_episode(cfg, log, replace(metrics, timed_out=True))


@pytest.fixture(scope="module")
def clutter_frames():
    bench = workloads.Clutter(1)
    frames = [out for _, _, out in bench.frames(limit=8)]
    return bench, [f for f in frames if f.evaluation is not None][-1]


def _check_clutter(bench, out, evaluate=barrier.evaluate):
    checks.check_clutter_frame(out, bench.perception, bench.kernel, bench.barrier,
                               bench.controller.lead_offset, evaluate)


def test_clutter_checker_accepts_a_real_frame(clutter_frames):
    bench, out = clutter_frames
    _check_clutter(bench, out)


@pytest.mark.parametrize("field, change", [
    ("value", lambda v: v + 1e-5),
    ("grad_state", lambda g: g + np.array([1e-3, 0.0, 0.0])),
    ("time_derivative", lambda d: d * 1.01 + 1e-3),
])
def test_clutter_checker_rejects_a_perturbed_barrier(clutter_frames, field, change):
    bench, out = clutter_frames
    bad = copy.copy(out)
    bad.evaluation = replace(out.evaluation,
                             **{field: change(getattr(out.evaluation, field))})
    with pytest.raises(checks.CheckFailure):
        _check_clutter(bench, bad)


def test_clutter_checker_rejects_a_shrunken_ellipse(clutter_frames):
    bench, out = clutter_frames
    frame = copy.copy(out.frame)
    frame.ellipses = [copy.copy(e) for e in out.frame.ellipses]
    biggest = max(frame.ellipses, key=lambda e: e.semi_major)
    biggest.semi_major *= 0.9
    biggest.semi_minor = min(biggest.semi_minor, biggest.semi_major)
    with pytest.raises(checks.CheckFailure, match="ellipse"):
        _check_clutter(bench, replace(out, frame=frame))


def test_clutter_checker_rejects_an_uncapped_dataset(clutter_frames):
    bench, out = clutter_frames
    cap = bench.perception.dataset_cap
    many = np.repeat(out.points, cap // len(out.points) + 1, axis=0)
    with pytest.raises(checks.CheckFailure, match="cap"):
        _check_clutter(bench, replace(out, points=many))


def test_clutter_checker_rejects_a_wrong_boundary_value(clutter_frames):
    bench, out = clutter_frames

    def shifted(model, params, position):
        return barrier.evaluate(model, params, position) + 2e-4

    with pytest.raises(checks.CheckFailure, match="training point"):
        _check_clutter(bench, out, shifted)


@pytest.fixture()
def field_export(tmp_path):
    bench = workloads.Field(4, tmp_path)
    points, _ = bench.sets[29]
    path = bench.next_path()
    rows = bench.export(points, path)
    return bench, path, points, rows


def _check_field(bench, path, rows, points):
    checks.check_field_csv(path, rows, points, workloads.field_axis(),
                           bench.kernel, bench.barrier)


def test_field_checker_accepts_then_rejects(field_export):
    bench, path, points, rows = field_export
    _check_field(bench, path, rows, points)

    with pytest.raises(checks.CheckFailure, match="rows"):
        _check_field(bench, path, rows - 1, points)

    lines = path.read_text().splitlines()
    x, y, h = lines[700].split(",")
    lines[700] = f"{x},{y},{float(h) + 1e-6:.9f}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailure, match="row 699"):
        _check_field(bench, path, rows, points)

    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.CheckFailure, match="shape"):
        _check_field(bench, path, rows, points)


def test_round_medians_leave_a_stalled_round_alone():
    # Rounds of three ops; a stall in one round leaves the medians alone.
    rounds = [[0.01, 0.02, 0.03], [0.01, 0.5, 0.03], [0.01, 0.02, 0.03]]
    assert run.round_medians(rounds) == pytest.approx([0.01, 0.02, 0.03])
    assert run.round_medians(rounds, 2) == pytest.approx([0.03, 0.03])
    assert run.round_medians(rounds[:1], 2) == pytest.approx([0.03, 0.03])
    # Unequal rounds are one long round.
    assert run.round_medians([[0.01, 0.01], [0.02]], 2) == pytest.approx([0.02, 0.02])
