"""Perception pipeline: the per-pipeline memo of cell-pattern ellipse fits."""

import itertools

import numpy as np
import pytest

from gpnav.perception import pipeline as pipeline_module
from gpnav.perception.ellipse import Ellipse
from gpnav.perception.grid import GridSpec, grid_origin
from gpnav.perception.pipeline import FIT_MEMO_CAPACITY, PerceptionPipeline
from gpnav.scenario import build_world, load_scenario, resolve_scenario
from gpnav.simworld import LidarScan, RobotState, cast_lidar

SPEC = GridSpec()
DT = 0.05


def random_pattern(rng, size):
    """A random 8-connected set of lattice cells with its lowest index at 0."""
    cells = [(0, 0)]
    while len(cells) < size:
        x, y = cells[rng.integers(len(cells))]
        dx, dy = rng.integers(-1, 2, 2)
        cell = (int(x + dx), int(y + dy))
        if cell not in cells:
            cells.append(cell)
    pattern = np.array(sorted(cells))
    return pattern - pattern.min(axis=0)


def scan_marking(cells, robot):
    """A scan whose beams end at the centres of the given grid cells."""
    centres = grid_origin(robot.position, SPEC) + SPEC.resolution * (cells + 0.5)
    rel = centres - robot.position
    angles = np.arctan2(rel[:, 1], rel[:, 0]) - robot.theta
    world_angles = robot.theta + angles
    return LidarScan(ranges=np.linalg.norm(rel, axis=1),
                     hits=np.ones(len(cells), dtype=bool),
                     directions=np.stack([np.cos(world_angles),
                                          np.sin(world_angles)], axis=1))


def scenario_frames(name, count):
    """(scan, robot) pairs along a shipped scenario's start-goal line."""
    cfg = load_scenario(resolve_scenario(name))
    world = build_world(cfg)
    robot = RobotState(cfg.robot.start[0], cfg.robot.start[1], 0.0)
    direction = np.asarray(cfg.goal.position) - robot.position
    direction /= np.linalg.norm(direction)
    frames = []
    for _ in range(count):
        frames.append((cast_lidar(world, robot, cfg.sensor), robot))
        pos = robot.position + 0.2 * direction
        robot = RobotState(pos[0], pos[1], robot.theta)
        world.advance(cfg.dt)
    return cfg.perception, frames


@pytest.fixture
def fit_calls(monkeypatch):
    """Count the fits the pipeline makes through its module-level fit_mvee."""
    calls = []
    fit = pipeline_module.fit_mvee

    def counted(points, **kwargs):
        calls.append(len(points))
        return fit(points, **kwargs)

    monkeypatch.setattr(pipeline_module, "fit_mvee", counted)
    return calls


def test_fit_is_translation_equivariant():
    pattern = random_pattern(np.random.default_rng(7), 12)
    placements = [((10, 12), (0.0, 0.0)), ((31, 5), (0.0, 0.0)),
                  ((3, 40), (13.4, -7.8)), ((22, 22), (-101.2, 55.6))]
    fits = []
    for offset, position in placements:
        robot = RobotState(position[0], position[1], 0.0)
        frame = PerceptionPipeline().process(
            scan_marking(pattern + offset, robot), robot, DT)
        assert len(frame.ellipses) == 1
        shift = grid_origin(robot.position, SPEC) + SPEC.resolution * np.array(offset)
        fits.append((frame.ellipses[0], shift))
    ref, ref_shift = fits[0]
    for ellipse, shift in fits[1:]:
        assert ellipse.semi_major == ref.semi_major
        assert ellipse.semi_minor == ref.semi_minor
        assert ellipse.angle == ref.angle
        assert ellipse.fit_gap == ref.fit_gap
        assert np.max(np.abs((ellipse.center - shift) - (ref.center - ref_shift))) <= 1e-12


def test_hit_equals_miss(fit_calls):
    params, frames = scenario_frames("mixed_field", 40)
    fresh = [PerceptionPipeline(params).process(scan, robot, DT)
             for scan, robot in frames]
    warmed = PerceptionPipeline(params)
    for scan, robot in frames:
        warmed.process(scan, robot, DT)
    misses = len(fit_calls)
    repeat = [warmed.process(scan, robot, DT) for scan, robot in frames]
    assert len(fit_calls) == misses          # every fit of the repeat is a hit
    assert sum(len(f.ellipses) for f in repeat) > 0
    for a, b in zip(fresh, repeat):
        assert len(a.ellipses) == len(b.ellipses)
        for ea, eb in zip(a.ellipses, b.ellipses):
            assert np.array_equal(ea.as_vector(), eb.as_vector())
            assert ea.fit_gap == eb.fit_gap


def test_memo_is_bounded(monkeypatch):
    # skyline patterns: six columns of 1-5 cells standing on one full row,
    # each pattern its own cluster, 25 to a frame and 8 cells apart
    skylines = itertools.islice(itertools.product(range(1, 6), repeat=6),
                                FIT_MEMO_CAPACITY + 200)
    patterns = [np.array([(x, y) for x, h in enumerate(heights) for y in range(h)])
                for heights in skylines]
    slots = 5 + 8 * np.array([(i, j) for i in range(5) for j in range(5)])
    robot = RobotState(0.0, 0.0, 0.0)
    pipeline = PerceptionPipeline()
    sizes = []

    def fit(points, **kwargs):
        sizes.append(len(pipeline._fits))    # memo size before this miss is kept
        return Ellipse(center=points.mean(axis=0), semi_major=1.0,
                       semi_minor=1.0, angle=0.0)

    monkeypatch.setattr(pipeline_module, "fit_mvee", fit)
    for start in range(0, len(patterns), len(slots)):
        batch = patterns[start:start + len(slots)]
        cells = np.concatenate([p + s for p, s in zip(batch, slots)])
        frame = pipeline.process(scan_marking(cells, robot), robot, DT)
        assert len(frame.ellipses) == len(batch)
    assert len(sizes) == len(patterns)
    assert max(sizes) == FIT_MEMO_CAPACITY - 1
    assert 0 in sizes[1:]


def test_pipelines_share_no_memo(fit_calls):
    params, frames = scenario_frames("static_slalom", 30)
    first = PerceptionPipeline(params)
    for scan, robot in frames:
        first.process(scan, robot, DT)
    misses = len(fit_calls)
    assert misses > 0
    second = PerceptionPipeline(params)
    for scan, robot in frames:
        second.process(scan, robot, DT)
    assert len(fit_calls) == 2 * misses
    assert first._fits is not second._fits
