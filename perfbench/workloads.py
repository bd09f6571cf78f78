"""Seeded inputs and the timed operation of each benchmark workload.

Every workload runs in whole rounds: a round is a fixed list of operations
derived from the seed, and a run repeats rounds until its time is up, so
every run measures the same mix of work. The program is reached only through
module attributes (``episode.run_episode``, ``simworld.cast_lidar``,
``barrier.export_field``, ...), so the wrappers that ``tracing.py`` installs
at those names see every call.

Every operation is timed on two clocks: the CPU time of this (single)
thread, which the latency percentiles use, and wall time, which throughput
uses. On a shared virtual machine the CPU is taken away now and then for
3-20 ms, which lands on a few percent of operations at random; wall-clock
percentiles would then measure the host's scheduler more than the program.

``run_round(checker)`` calls checker on each operation's output between
operations; the time spent checking counts on neither clock.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gpnav import barrier, controller, episode, scenario, simworld
from gpnav.barrier import BarrierParams
from gpnav.controller import ControllerParams
from gpnav.gp import KernelParams
from gpnav.perception.pipeline import PerceptionParams, PerceptionPipeline
from gpnav.perception.tracking import TrackerParams
from gpnav.simworld import LidarSpec, MotionSpec, Obstacle, RobotState, World

# Tracker tuning shared by all five shipped scenarios.
SHIPPED_TRACKER = TrackerParams(r_center=1e-2, q_vel=1e-3, q_acc=1e-3,
                                min_speed=0.12)


@dataclass
class RoundResult:
    """Per-operation CPU and wall times (s) and timing-free outputs of a round."""

    latencies: list[float]
    walls: list[float]
    failed: int
    digest: list


# --------------------------------------------------------------------------
# suite: the shipped scenarios in closed loop, round-robin


class Suite:
    """One round is one episode of each shipped scenario with ``dlgp``.

    The seed only rotates the order in which the scenarios run; the episodes
    themselves are the shipped, deterministic ones. One operation is one
    control step of ``run_episode``: a step starts when the episode loop
    calls ``cast_lidar`` and ends when it calls it again (or returns).
    """

    name = "suite"
    window = 200                 # steps per throughput window

    def __init__(self, seed: int) -> None:
        shipped = scenario.canonical_scenarios()
        configs = [scenario.with_variant(scenario.load_scenario(path), "dlgp")
                   for path in shipped.values()]
        shift = seed % len(configs)
        self.configs = configs[shift:] + configs[:shift]
        self._marks: list[tuple[float, float]] = []

    def _install_step_marker(self):
        """CPU and wall stamps at every loop iteration's own cast_lidar call."""
        inner = episode.cast_lidar
        marks = self._marks

        def marked(*args, **kwargs):
            marks.append((time.thread_time(), time.perf_counter()))
            return inner(*args, **kwargs)

        episode.cast_lidar = marked
        return inner

    def warm_up(self) -> None:
        for cfg in self.configs:
            episode.run_episode(replace(cfg, max_time=0.5))

    def run_round(self, checker=None) -> RoundResult:
        """checker(cfg, log, metrics) runs after each episode."""
        latencies: list[float] = []
        walls: list[float] = []
        digest = []
        failed = 0
        inner = self._install_step_marker()
        try:
            for cfg in self.configs:
                self._marks.clear()
                try:
                    log, metrics = episode.run_episode(cfg)
                except Exception:  # counted as one failed step, run goes on
                    traceback.print_exc()
                    failed += 1
                    log = metrics = None
                marks = self._marks + [(time.thread_time(), time.perf_counter())]
                for a, b in zip(marks[:-1], marks[1:]):
                    latencies.append(b[0] - a[0])
                    walls.append(b[1] - a[1])
                if metrics is not None:
                    digest.append((cfg.name, metrics.to_dict(include_timing=False)))
                    if checker is not None:
                        checker(cfg, log, metrics)
        finally:
            episode.cast_lidar = inner
        return RoundResult(latencies, walls, failed, digest)


# --------------------------------------------------------------------------
# clutter: a dense moving field beside a scripted straight path

CLUTTER_DRIVES = 4           # independent fields per round
CLUTTER_CIRCLES = 40         # per field
CLUTTER_FRAMES = 100         # per drive
CLUTTER_DT = 0.05
CLUTTER_SPEED = 1.0          # m/s along +x, the scripted robot path y = 0
CLUTTER_PATH_GAP = 0.6       # m, least distance from any circle to the path
CLUTTER_LENGTH = CLUTTER_SPEED * CLUTTER_DT * (CLUTTER_FRAMES - 1)
CLUTTER_GOAL = np.array([CLUTTER_LENGTH + 5.0, 0.0])

# One circle: centre x, centre y, radius and motion.
Circle = tuple[float, float, float, MotionSpec]


def make_clutter(seed: int) -> tuple[tuple[Circle, ...], ...]:
    """The independent fields of one round, one per drive."""
    rng = np.random.default_rng([seed, 2])
    return tuple(make_drive(rng) for _ in range(CLUTTER_DRIVES))


def make_drive(rng: np.random.Generator) -> tuple[Circle, ...]:
    """Non-overlapping circles on both sides of the path y = 0.

    The path, extended by the LiDAR range at both ends, is cut into equal
    bins that each get one circle per side, so every seed spreads the same
    number of circles evenly along the drive and only their exact places
    change. Circles are a third static, a third constant-velocity and a
    third sinusoid, all moving along x, so their distance to the path never
    changes and the robot never meets them.
    """
    x_lo, x_hi = -6.0, CLUTTER_LENGTH + 6.0
    bin_width = (x_hi - x_lo) / (CLUTTER_CIRCLES // 2)
    # Every seed uses the same radii, shuffled, so the seed moves work around
    # but hardly changes its amount.
    radii = rng.permutation(np.linspace(0.2, 0.45, CLUTTER_CIRCLES))
    placed: list[tuple[float, float, float]] = []
    while len(placed) < CLUTTER_CIRCLES:
        k = len(placed)
        side = 1.0 if k % 2 == 0 else -1.0
        left = x_lo + bin_width * (k // 2)
        r = float(radii[k])
        x = float(rng.uniform(left, left + bin_width))
        y = side * float(rng.uniform(CLUTTER_PATH_GAP + r, 5.5))
        if all(np.hypot(x - px, y - py) >= r + pr + 0.3 for px, py, pr in placed):
            placed.append((x, y, r))
    obstacles = []
    for index, (x, y, r) in enumerate(placed):
        kind = index % 3
        if kind == 0:
            motion = MotionSpec(kind="static")
        elif kind == 1:
            speed = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4))
            motion = MotionSpec(kind="velocity", velocity=(speed, 0.0))
        else:
            motion = MotionSpec(kind="sinusoid", axis=(1.0, 0.0),
                                amplitude=float(rng.uniform(0.2, 0.8)),
                                period=float(rng.uniform(2.0, 6.0)))
        obstacles.append((x, y, r, motion))
    return tuple(obstacles)


@dataclass
class ClutterFrame:
    """What one clutter operation produced, as handed to the checker."""

    frame: object
    points: np.ndarray
    velocities: np.ndarray
    model: object
    evaluation: object
    control: object
    robot: RobotState


class Clutter:
    """One round drives the scripted path once through each field.

    One operation is one frame: cast_lidar -> PerceptionPipeline.process ->
    build_datasets -> model_from_datasets -> control_step, then the world
    advances. The command is computed but not applied.
    """

    name = "clutter"
    window = CLUTTER_FRAMES      # one drive per throughput window

    def __init__(self, seed: int) -> None:
        self.drives = make_clutter(seed)
        self.perception = PerceptionParams(tracker=SHIPPED_TRACKER)
        self.sensor = LidarSpec()
        self.kernel = KernelParams()
        self.barrier = BarrierParams()
        self.controller = ControllerParams()

    def frames(self, limit: int | None = None):
        """Yield (cpu_s, wall_s, ClutterFrame) for the frames of one round."""
        for circles in self.drives:
            yield from self._drive(circles, limit)

    def _drive(self, circles: tuple[Circle, ...], limit: int | None):
        world = World([Obstacle(obstacle_id=f"c{i}", radius=r,
                                spawn=np.array([x, y]), motion=motion)
                       for i, (x, y, r, motion) in enumerate(circles)])
        pipeline = PerceptionPipeline(self.perception)
        cap = self.perception.dataset_cap
        for k in range(CLUTTER_FRAMES if limit is None else limit):
            robot = RobotState(x=CLUTTER_SPEED * CLUTTER_DT * k, y=0.0, theta=0.0)
            start = time.thread_time()
            wall_start = time.perf_counter()
            try:
                scan = simworld.cast_lidar(world, robot, self.sensor, None)
                frame = pipeline.process(scan, robot, CLUTTER_DT)
                points, velocities = barrier.build_datasets(
                    frame.obstacle_grid, frame.velocity_grid, cap)
                model = barrier.model_from_datasets(points, self.kernel)
                control, evaluation, _ = controller.control_step(
                    robot, model, velocities, self.barrier, self.controller,
                    CLUTTER_GOAL)
            except Exception:  # a failed frame is counted; the drive goes on
                traceback.print_exc()
                out = None
            else:
                out = ClutterFrame(frame, points, velocities, model, evaluation,
                                   control, robot)
            world.advance(CLUTTER_DT)
            yield (time.thread_time() - start, time.perf_counter() - wall_start,
                   out)

    def warm_up(self) -> None:
        for _ in self.frames(limit=10):
            pass

    def run_round(self, checker=None) -> RoundResult:
        """checker(frame_output) runs after each frame."""
        latencies: list[float] = []
        walls: list[float] = []
        digest = []
        for latency, wall, out in self.frames():
            latencies.append(latency)
            walls.append(wall)
            digest.append(clutter_digest(out))
            if checker is not None and out is not None:
                checker(out)
        failed = sum(item is None for item in digest)
        return RoundResult(latencies, walls, failed, digest)


def clutter_digest(out: ClutterFrame | None) -> tuple | None:
    """Timing-free summary of one frame, compared across rounds."""
    if out is None:
        return None
    ev = out.evaluation
    return (len(out.frame.ellipses), len(out.points),
            None if ev is None else (ev.value, ev.time_derivative),
            out.control.v, out.control.omega)


# --------------------------------------------------------------------------
# field: one model queried over a fixed window

FIELD_SIZES = tuple(range(1, 61))    # one point set per N, every round
FIELD_CELL = 0.2                     # m, the perception grid lattice
FIELD_WINDOW = (-2.0, 2.0)           # m, both axes
FIELD_RESOLUTION = 0.1               # m -> 41 x 41 = 1,681 rows


def field_axis() -> np.ndarray:
    """Query coordinates along one axis, computed as export_field does."""
    lo, hi = FIELD_WINDOW
    return np.arange(lo, hi + 0.5 * FIELD_RESOLUTION, FIELD_RESOLUTION)


def make_point_set(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """size lattice-cell centres on the boundaries of a few circles.

    Cells whose centres lie within half a cell of a circle's edge form its
    boundary, as the occupancy grid sees a circle; each circle's cells share
    one velocity. Circles are added until there are enough cells, then size
    of them are kept, in row-major order like the grid enumerates them.
    """
    cells: dict[tuple[int, int], np.ndarray] = {}
    idx = np.arange(-9, 9)                       # cell centres -1.7 ... 1.7 m
    gx, gy = np.meshgrid(idx, idx, indexing="ij")
    centres = np.column_stack([gx.ravel(), gy.ravel()])
    coords = (centres + 0.5) * FIELD_CELL
    while len(cells) < size:
        centre = rng.uniform(-1.0, 1.0, 2)
        radius = rng.uniform(0.3, 0.8)
        velocity = rng.uniform(-0.5, 0.5, 2)
        dist = np.hypot(*(coords - centre).T)
        for cell in centres[np.abs(dist - radius) <= 0.5 * FIELD_CELL]:
            cells.setdefault((int(cell[0]), int(cell[1])), velocity)
    keys = sorted(cells)
    keep = np.sort(rng.choice(len(keys), size=size, replace=False))
    chosen = [keys[k] for k in keep]
    points = (np.array(chosen, dtype=float) + 0.5) * FIELD_CELL
    velocities = np.array([cells[k] for k in chosen])
    return points, velocities


def make_field(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng([seed, 3])
    return [make_point_set(rng, size) for size in FIELD_SIZES]


class Field:
    """One round exports the barrier of every point set once.

    One operation is one model_from_datasets plus one export_field over the
    fixed window. Perception does no work here; the point velocities are
    part of each input but the exported field carries h only.

    Every export writes a new file, which is removed after its check. Had
    the exports overwritten one file, each open would truncate a file the
    kernel may still be writing back to disk, and wait for the disk: that
    put stalls of up to 100 ms into the wall time.
    """

    name = "field"
    window = len(FIELD_SIZES)    # one round per throughput window: cost grows with N

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.sets = make_field(seed)
        self.out_dir = out_dir
        self.kernel = KernelParams()
        self.barrier = BarrierParams()
        self._exports = 0

    def next_path(self) -> Path:
        """A CSV path in out_dir that no earlier export of this run used."""
        self._exports += 1
        return self.out_dir / f"field_{os.getpid()}_{self._exports}.csv"

    def export(self, points: np.ndarray, path: Path) -> int:
        model = barrier.model_from_datasets(points, self.kernel)
        return barrier.export_field(model, self.barrier, path,
                                    FIELD_WINDOW, FIELD_WINDOW, FIELD_RESOLUTION)

    def warm_up(self) -> None:
        for points, _ in self.sets[:3]:
            path = self.next_path()
            self.export(points, path)
            path.unlink()

    def run_round(self, checker=None) -> RoundResult:
        """checker(path, rows, points) runs after each export, on the written CSV."""
        latencies: list[float] = []
        walls: list[float] = []
        digest = []
        failed = 0
        for points, _ in self.sets:
            path = self.next_path()
            op_start = time.thread_time()
            wall_start = time.perf_counter()
            try:
                rows = self.export(points, path)
            except Exception:  # a failed export is counted; the round goes on
                traceback.print_exc()
                rows = None
                failed += 1
            latencies.append(time.thread_time() - op_start)
            walls.append(time.perf_counter() - wall_start)
            digest.append(rows)
            if checker is not None and rows is not None:
                checker(path, rows, points)
            path.unlink(missing_ok=True)
        return RoundResult(latencies, walls, failed, digest)
