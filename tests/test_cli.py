"""Command-line interface: subcommands, outputs, and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpnav
from gpnav.bench import max_dataset_size
from gpnav.cli import main
from gpnav.scenario import resolve_scenario

QUICK_SCENARIO = """\
schema: 1
name: quick
seed: 1
max_time: 15.0
robot:
  start: [-2.0, 0.0]
  heading: 0.0
goal:
  position: [4.0, 0.0]
  arrival_radius: 0.3
obstacles:
  - id: rock
    radius: 0.4
    center: [1.0, 1.1]
    motion: {type: static}
"""

COLLISION_SCENARIO = """\
schema: 1
name: doomed
max_time: 2.0
robot:
  start: [-0.2, 0.0]
  heading: 0.0
goal:
  position: [4.0, 0.0]
  arrival_radius: 0.3
obstacles:
  - id: wall
    radius: 0.5
    center: [0.8, 0.0]
    motion:
      type: velocity
      velocity: [-2.5, 0.0]
"""


@pytest.fixture
def quick_scenario(tmp_path):
    path = tmp_path / "quick.yaml"
    path.write_text(QUICK_SCENARIO)
    return path


def test_run_writes_outputs_and_exits_zero(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(quick_scenario), "--out-dir", str(out),
                 "--dump-field", "--dump-perception"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["collision"] is False
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:6] == ["t", "px", "py", "theta", "v", "omega"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert "min_clearance" in metrics and "arrival_time" in metrics
    assert (out / "barrier_field.csv").read_bytes().startswith(b"x,y,h\r\n")
    first_frame = json.loads(
        (out / "perception.jsonl").read_text().splitlines()[0])
    assert {"t", "occupied_cells", "labels", "ellipses",
            "track_ids", "tracks"} <= set(first_frame)


def test_dump_field_skips_a_window_over_the_row_limit(tmp_path, monkeypatch,
                                                      capsys):
    # a 2 km window at 10 m cells, obstacles near two corners and a LiDAR
    # that reaches them: the field would span about 2e8 rows at 0.1 m, so
    # it is skipped before export_field could allocate it
    path = tmp_path / "wide.yaml"
    path.write_text(QUICK_SCENARIO.split("obstacles:")[0]
                    .replace("max_time: 15.0", "max_time: 0.05") + """\
sensor: {max_range: 1500.0}
perception:
  grid: {width: 200, height: 200, resolution: 10.0}
obstacles:
  - {id: ne, radius: 20.0, center: [700.0, 700.0]}
  - {id: sw, radius: 20.0, center: [-700.0, -700.0]}
""")

    def refuse(*args, **kwargs):
        raise AssertionError("export_field called on an oversized window")

    monkeypatch.setattr("gpnav.barrier.export_field", refuse)
    out = tmp_path / "out"
    code = main(["run", str(path), "--out-dir", str(out), "--dump-field"])
    captured = capsys.readouterr()
    assert code == 1   # timed out: the exit code stays outcome-based
    assert json.loads(captured.out)["timed_out"] is True
    assert (out / "trajectory.csv").exists()
    assert not (out / "barrier_field.csv").exists()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("warning: barrier_field.csv not written: ")
    assert re.search(r"its window would hold [\d,]{11,} rows, over 1,000,000$",
                     captured.err.strip())


def test_dump_field_without_obstacles_says_why(tmp_path, capsys):
    # no frame sees an obstacle, so there is no barrier model to export
    path = tmp_path / "open.yaml"
    path.write_text(QUICK_SCENARIO.split("obstacles:")[0] + "obstacles: []\n")
    out = tmp_path / "out"
    code = main(["run", str(path), "--out-dir", str(out), "--dump-field"])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["collision"] is False
    assert (out / "trajectory.csv").exists()
    assert not (out / "barrier_field.csv").exists()
    assert captured.err.count("\n") == 1
    assert "barrier_field.csv not written" in captured.err
    assert "no frame" in captured.err


def test_run_by_shipped_name(capsys):
    code = main(["run", "head_on", "--variant", "dlgp"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["collision"] is False


def test_run_collision_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "doomed.yaml"
    path.write_text(COLLISION_SCENARIO)
    code = main(["run", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["collision"] is True


def test_run_timeout_exits_one(tmp_path, capsys):
    path = tmp_path / "short.yaml"
    path.write_text(QUICK_SCENARIO.replace("max_time: 15.0", "max_time: 1.0"))
    code = main(["run", str(path)])
    assert code == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["timed_out"] is True


def test_factorization_failure_exits_three(tmp_path, capsys):
    # a long length scale with zero jitter leaves the GP covariance singular
    path = tmp_path / "singular.yaml"
    path.write_text(resolve_scenario("narrow_gap").read_text()
                    + "kernel: {length_scale: 3.0, jitter: 0.0}\n")
    code = main(["run", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not positive definite" in err
    assert "Traceback" not in err


def test_jitter_at_its_bound_still_arrives_on_head_on(tmp_path, capsys):
    # far above the kernel's unit variance the jitter flattens the barrier
    # (head_on collides at jitter 100); at the bound of 1 the run arrives
    path = tmp_path / "jittered.yaml"
    path.write_text(resolve_scenario("head_on").read_text()
                    + "kernel: {jitter: 1.0}\n")
    assert main(["run", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["collision"] is False


def test_zero_center_noise_exits_two(tmp_path, capsys):
    # with no position noise at all the Kalman gain divides zero by zero
    path = tmp_path / "rigid.yaml"
    text = resolve_scenario("crossing").read_text()
    path.write_text(text.replace(
        "tracker: {r_center: 1.0e-2, q_vel: 1.0e-3, q_acc: 1.0e-3, min_speed: 0.12}",
        "tracker: {q_pos: 0.0, q_vel: 0.0, q_acc: 0.0, r_center: 0.0, min_speed: 0.12}"))
    code = main(["run", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "q_pos + r_center" in err
    assert "Traceback" not in err


def test_shape_noise_is_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "shaped.yaml"
    text = resolve_scenario("head_on").read_text()
    path.write_text(text.replace("min_speed: 0.12}",
                                 "min_speed: 0.12, q_shape: 1.0e-4}"))
    code = main(["run", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "perception.tracker: unknown key 'q_shape'" in err
    assert "Traceback" not in err


def test_run_unknown_scenario_exits_two(capsys):
    code = main(["run", "does_not_exist"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run"],
                                  ["compare", "--variants", "dlgp,gp-linear"]],
                         ids=["run", "compare"])
@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
def test_unreadable_scenario_path_exits_two(argv, unreadable, tmp_path, capsys):
    path = tmp_path / "scenario"
    if unreadable == "directory":
        path.mkdir()
        reason = "cannot read"
    else:
        path.write_bytes(QUICK_SCENARIO.replace("quick", "qu\xefck").encode("latin-1"))
        reason = "not UTF-8 text"
    code = main([*argv, str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {reason}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_run_seed_override(quick_scenario, capsys):
    code = main(["run", str(quick_scenario), "--seed", "123"])
    assert code == 0


def test_compare_table_and_json(quick_scenario, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(quick_scenario),
                 "--variants", "dlgp,dlgp-no-dhdt", "--out-dir", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "dlgp" in table and "min_clear" in table
    payload = json.loads((out / "comparison.json").read_text())
    assert set(payload) == {"dlgp", "dlgp-no-dhdt"}


def test_compare_single_variant_errors(quick_scenario, capsys):
    code = main(["compare", str(quick_scenario), "--variants", "dlgp"])
    assert code == 2
    assert "variant" in capsys.readouterr().err


def test_compare_duplicate_variant_errors(quick_scenario, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(quick_scenario), "--variants", "dlgp,dlgp",
                 "--out-dir", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: compare: variant 'dlgp' is given twice\n"
    assert not out.exists()


def _refuse_episodes(monkeypatch):
    """Make every episode of the CLI fail the test if it starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("an episode started")

    monkeypatch.setattr("gpnav.cli.run_episode", refuse)
    monkeypatch.setattr("gpnav.episode.run_episode", refuse)


def test_run_out_dir_naming_a_file_exits_two_before_the_episode(
        tmp_path, monkeypatch, capsys):
    _refuse_episodes(monkeypatch)
    target = tmp_path / "taken"
    target.write_text("keep")
    code = main(["run", "head_on", "--out-dir", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --out-dir {target}: {target} exists and "
                            "is not a directory\n")
    assert target.read_text() == "keep"


def test_compare_out_dir_under_a_file_exits_two_before_any_episode(
        tmp_path, monkeypatch, capsys):
    _refuse_episodes(monkeypatch)
    target = tmp_path / "taken"
    target.write_text("keep")
    code = main(["compare", "head_on", "--variants", "dlgp,gp-linear",
                 "--out-dir", str(target / "cmp")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --out-dir {target / 'cmp'}: {target} "
                            "exists and is not a directory\n")
    assert target.read_text() == "keep"


def test_compare_unknown_variant_exits_two_before_any_episode(monkeypatch, capsys):
    _refuse_episodes(monkeypatch)
    code = main(["compare", "head_on", "--variants", "dlgp,foo"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: controller: unknown variant 'foo'")


def test_check_gradients_reports(capsys):
    code = main(["check-gradients", "--cases", "12"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spatial_max_rel_err"] <= 1e-5
    assert report["time_max_rel_err"] <= 1e-5


def test_bench_prints_rows(capsys):
    code = main(["bench", "--sizes", "1,5", "--reps", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_ms" in out
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "0"], "argument --sizes: 0 is not >= 1"),
    (["--sizes", "x"], "argument --sizes: 'x' is not an integer"),
    (["--reps", "0"], "argument --reps: 0 is not >= 1"),
])
def test_bench_rejects_bad_input_with_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", *argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_bench_refuses_sizes_over_the_placement_bound(capsys):
    limit = max_dataset_size()
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--sizes", f"5,{limit + 1}", "--reps", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --sizes: {limit + 1} is over the dataset size limit {limit}"
            in captured.err)


def test_python_dash_m_runs_the_cli():
    src = str(Path(gpnav.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "gpnav", "bench", "--sizes", "1", "--reps", "1"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "mean_ms" in done.stdout


@pytest.mark.parametrize("cases", ["0", "-4"])
def test_check_gradients_rejects_too_few_cases(cases, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check-gradients", "--cases", cases])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --cases: {cases} is not >= 1" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", ["--dump-field", "--dump-perception"])
def test_run_dump_without_out_dir_exits_two(quick_scenario, flag, capsys):
    code = main(["run", str(quick_scenario), flag])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--out-dir" in captured.err
