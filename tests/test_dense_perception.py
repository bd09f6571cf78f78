"""One perception pipeline over a dense moving field, frame by frame against
tests/golden/dense_perception.jsonl.

About 30 circles cross the sensor window in all directions while the robot
drives past, so every frame clusters, fits and tracks a few dozen obstacles,
and crossing obstacles compete for the same tracks. A change that alters perception output on purpose regenerates the
file with ``PYTHONPATH=src python tests/test_dense_perception.py`` and
states the diff in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from gpnav.perception.pipeline import PerceptionParams, PerceptionPipeline
from gpnav.perception.tracking import TrackerParams
from gpnav.simworld import (LidarSpec, MotionSpec, Obstacle, RobotState, World,
                            cast_lidar)

GOLDEN = Path(__file__).parent / "golden" / "dense_perception.jsonl"
SEED = 19
CIRCLES = 30
FRAMES = 50
DT = 0.05
ROBOT_SPEED = 0.5            # m/s along +x from the origin
TRACKER = TrackerParams(r_center=1e-2, q_vel=1e-3, q_acc=1e-3, min_speed=0.12)


def dense_world(seed: int = SEED) -> World:
    """Circles 1.5-5.5 m from the start that stay in sensor range: the even
    ones drive across the line of sight, the odd ones oscillate along their
    own axes, so neighbours cross and their detections swap order."""
    rng = np.random.default_rng(seed)
    obstacles = []
    for index in range(CIRCLES):
        distance = rng.uniform(1.5, 5.5)
        bearing = rng.uniform(-np.pi, np.pi)
        heading = rng.uniform(-np.pi, np.pi)
        radius = float(rng.uniform(0.15, 0.4))
        if index % 2:
            motion = MotionSpec(kind="sinusoid",
                                axis=(np.cos(heading), np.sin(heading)),
                                amplitude=float(rng.uniform(0.2, 0.8)),
                                period=float(rng.uniform(1.5, 4.0)))
        else:
            speed = rng.uniform(0.2, 0.8)
            course = bearing + 0.5 * np.pi * rng.choice([-1.0, 1.0])
            motion = MotionSpec(kind="velocity",
                                velocity=(speed * np.cos(course),
                                          speed * np.sin(course)))
        obstacles.append(Obstacle(
            obstacle_id=f"d{index}", radius=radius,
            spawn=distance * np.array([np.cos(bearing), np.sin(bearing)]),
            motion=motion))
    return World(obstacles)


def dense_records() -> list[str]:
    """The pipeline's debug_record of every frame, one JSON line each."""
    world = dense_world()
    pipeline = PerceptionPipeline(PerceptionParams(tracker=TRACKER))
    sensor = LidarSpec()
    lines = []
    for k in range(FRAMES):
        robot = RobotState(x=ROBOT_SPEED * DT * k, y=0.0, theta=0.0)
        frame = pipeline.process(cast_lidar(world, robot, sensor), robot, DT)
        lines.append(json.dumps(pipeline.debug_record(frame, k * DT),
                                sort_keys=True) + "\n")
        world.advance(DT)
    return lines


def test_dense_field_matches_golden_frame_by_frame():
    lines = dense_records()
    golden = GOLDEN.read_text().splitlines(keepends=True)
    assert len(lines) == len(golden) == FRAMES
    for k, (line, expected) in enumerate(zip(lines, golden)):
        assert line == expected, (
            f"frame {k}: debug_record differs from {GOLDEN}. If the change "
            "alters perception on purpose, regenerate it with `PYTHONPATH=src "
            "python tests/test_dense_perception.py` and state the diff in "
            "CHANGES.md.")


if __name__ == "__main__":
    GOLDEN.write_text("".join(dense_records()))
