"""Shared helpers: harvesting frame datasets from the real perception stack,
and the one hypothesis profile of the suite."""

import numpy as np
from hypothesis import settings

from gpnav.barrier import build_datasets
from gpnav.perception.pipeline import PerceptionPipeline
from gpnav.scenario import build_world, load_scenario, resolve_scenario
from gpnav.simworld import RobotState, cast_lidar

# every property test draws the same examples on each run and keeps no
# example database, so a failure shows on every run, not on some
settings.register_profile("reproducible", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("reproducible")

SUITE_NAMES = ("static_slalom", "head_on", "crossing", "mixed_field",
               "narrow_gap")


def pipeline_datasets(count, scenario_names=SUITE_NAMES):
    """Drive the robot along each scenario's start-goal line (no control) and
    collect the (points, velocities) datasets the barrier would see."""
    datasets = []
    for name in scenario_names:
        cfg = load_scenario(resolve_scenario(name))
        pipeline = PerceptionPipeline(cfg.perception)
        robot = RobotState(cfg.robot.start[0], cfg.robot.start[1], 0.0)
        goal = np.asarray(cfg.goal.position)
        direction = goal - robot.position
        direction = direction / np.linalg.norm(direction)
        world = build_world(cfg)
        for step_index in range(90):
            scan = cast_lidar(world, robot, cfg.sensor)
            frame = pipeline.process(scan, robot, cfg.dt)
            points, velocities = build_datasets(
                frame.obstacle_grid, frame.velocity_grid,
                cfg.perception.dataset_cap)
            if len(points) >= 1 and step_index % 3 == 0:
                datasets.append((points, velocities))
            pos = robot.position + 0.2 * direction
            robot = RobotState(pos[0], pos[1], robot.theta)
            world.advance(cfg.dt)
            if len(datasets) >= count:
                return datasets
    return datasets
