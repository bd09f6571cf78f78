"""Occupancy grid construction and the per-cell velocity lookup."""

import numpy as np
import pytest

from gpnav.perception.clustering import NOISE
from gpnav.perception.grid import (GridSpec, ObstacleGridMap, build_velocity_grid,
                                   grid_origin, update_obstacle_grid)
from gpnav.simworld import (LidarSpec, LidarScan, Obstacle, RobotState, World,
                            _beam_angles, cast_lidar)

SPEC = GridSpec(width=60, height=60, resolution=0.2)


def scan_with_hits(hits_world, robot, max_range=6.0, beams=8):
    """Synthesize a scan whose hit endpoints land at given world points."""
    angles, ranges, flags = [], [], []
    for point in hits_world:
        rel = np.asarray(point, float) - robot.position
        angles.append(np.arctan2(rel[1], rel[0]) - robot.theta)
        ranges.append(np.linalg.norm(rel))
        flags.append(True)
    while len(angles) < beams:
        angles.append(0.0)
        ranges.append(max_range)
        flags.append(False)
    world_angles = robot.theta + np.array(angles)
    return LidarScan(ranges=np.array(ranges), hits=np.array(flags),
                     directions=np.stack([np.cos(world_angles),
                                          np.sin(world_angles)], axis=1))


class TestObstacleGrid:
    def test_single_hit_marks_exactly_one_cell(self):
        robot = RobotState(0.0, 0.0, 0.0)
        grid = update_obstacle_grid(scan_with_hits([(1.0, 1.0)], robot), robot, SPEC)
        assert len(grid.cells) == 1 and len(grid.points) == 1
        center = grid.points[0]
        assert np.max(np.abs(center - [1.0, 1.0])) <= SPEC.resolution / 2 + 1e-12

    def test_all_misses_leave_grid_empty(self):
        robot = RobotState(2.0, -3.0, 0.5)
        grid = update_obstacle_grid(scan_with_hits([], robot), robot, SPEC)
        assert not np.any(grid.occupied)

    def test_two_hits_same_cell_idempotent(self):
        robot = RobotState(0.0, 0.0, 0.0)
        grid = update_obstacle_grid(
            scan_with_hits([(1.01, 1.01), (1.05, 1.04)], robot), robot, SPEC)
        assert len(grid.cells) == 1

    def test_grid_recenters_on_robot(self):
        far_robot = RobotState(40.0, -25.0, 0.0)
        grid = update_obstacle_grid(scan_with_hits([(41.0, -25.0)], far_robot),
                                    far_robot, SPEC)
        assert len(grid.cells) == 1
        # window center tracks the robot to within one cell
        window_center = grid.origin + SPEC.resolution * np.array([30.0, 30.0])
        assert np.max(np.abs(window_center - far_robot.position)) <= SPEC.resolution

    def test_origin_snaps_to_lattice(self):
        # static world point keeps the same cell center as the robot moves
        point = (1.0, 1.0)
        centers = []
        for x in np.linspace(-0.3, 0.3, 7):
            robot = RobotState(x, 0.05 * x, 0.0)
            grid = update_obstacle_grid(scan_with_hits([point], robot), robot, SPEC)
            centers.append(grid.points[0])
        assert np.allclose(centers, centers[0], atol=1e-12)

    def test_endpoint_outside_window_dropped(self):
        robot = RobotState(0.0, 0.0, 0.0)
        # 60 cells * 0.2 m = 12 m window; a 7 m endpoint is outside its half
        scan = scan_with_hits([(7.0, 0.0)], robot, max_range=8.0)
        grid = update_obstacle_grid(scan, robot, SPEC)
        assert not np.any(grid.occupied)

    def test_world_cell_roundtrip_error_bound(self):
        # each hit lands in the cell whose centre lies within half a cell
        rng = np.random.default_rng(0)
        robot = RobotState(0.0, 0.0, 0.0)
        for _ in range(200):
            point = rng.uniform(-5.5, 5.5, 2)
            grid = update_obstacle_grid(scan_with_hits([point], robot), robot, SPEC)
            assert len(grid.cells) == 1
            center = grid.points[0]
            assert np.all(np.abs(center - point) <= SPEC.resolution / np.sqrt(2))
            expected = grid.origin + SPEC.resolution * (grid.cells[0] + 0.5)
            assert np.allclose(center, expected)

    def test_cells_and_points_are_row_major_and_aligned(self):
        occupied = np.zeros((SPEC.width, SPEC.height), dtype=bool)
        occupied[[7, 2, 2, 40], [1, 9, 3, 0]] = True
        grid = ObstacleGridMap(spec=SPEC, origin=np.array([1.0, -2.0]),
                               occupied=occupied)
        assert grid.cells.tolist() == [[2, 3], [2, 9], [7, 1], [40, 0]]
        assert np.array_equal(grid.points, grid.origin + 0.2 * (grid.cells + 0.5))

    def test_cells_keep_argwhere_values_order_and_layout(self):
        # points inherit the layout of cells and become the GP's training
        # points, whose column sums round by memory layout, so cells must
        # match np.argwhere in strides as well as in values
        rng = np.random.default_rng(21)
        for width, height, density in ((60, 60, 0.03), (7, 13, 0.5),
                                       (13, 7, 1.0), (5, 5, 0.0), (1, 9, 0.5)):
            for _ in range(20):
                spec = GridSpec(width=width, height=height, resolution=0.2)
                occupied = rng.random((width, height)) < density
                grid = ObstacleGridMap(spec=spec, origin=np.zeros(2),
                                       occupied=occupied)
                expected = np.argwhere(occupied)
                assert grid.cells.dtype == expected.dtype
                assert grid.cells.shape == expected.shape
                assert grid.cells.tolist() == expected.tolist()
                assert grid.cells.strides == expected.strides
                assert grid.points.strides == (expected + 0.5).strides


class TestVelocityGrid:
    def test_static_scene_all_zero(self):
        robot = RobotState(0.0, 0.0, 0.0)
        grid = update_obstacle_grid(
            scan_with_hits([(1.0, 0.0), (1.2, 0.0)], robot), robot, SPEC)
        labels = np.zeros(len(grid.cells), dtype=int)
        velocities = build_velocity_grid(labels, [np.zeros(2)])
        assert velocities.shape == (len(grid.cells), 2)
        assert not np.any(velocities)

    def test_cluster_velocity_broadcast(self):
        robot = RobotState(0.0, 0.0, 0.0)
        grid = update_obstacle_grid(
            scan_with_hits([(1.0, 0.0), (1.2, 0.0), (-2.0, 1.0)], robot),
            robot, SPEC)
        labels = np.where(grid.points[:, 0] > 0, 0, 1)
        vels = build_velocity_grid(labels, [np.array([1.0, 0.0]), np.zeros(2)])
        assert np.allclose(vels[labels == 0], [1.0, 0.0])
        assert np.allclose(vels[labels == 1], 0.0)

    def test_unmapped_cluster_gets_zero(self):
        # noise cells read the table's zero last row
        robot = RobotState(0.0, 0.0, 0.0)
        grid = update_obstacle_grid(
            scan_with_hits([(1.0, 0.0), (0.0, 2.0)], robot), robot, SPEC)
        velocities = build_velocity_grid(np.array([NOISE, 0]), [np.array([0.3, 0.4])])
        assert not np.any(velocities[0])
        assert np.array_equal(velocities[1], [0.3, 0.4])
        assert not np.any(build_velocity_grid(np.array([NOISE]), []))
        assert build_velocity_grid(grid.cells[:0, 0], []).shape == (0, 2)

    def test_nonzero_velocity_only_on_occupied(self):
        robot = RobotState(0.0, 0.0, 0.0)
        grid = update_obstacle_grid(
            scan_with_hits([(1.0, 0.0), (0.0, 2.0)], robot), robot, SPEC)
        labels = np.zeros(2, dtype=int)
        velocities = build_velocity_grid(labels, [np.array([0.3, 0.4])])
        speeds = np.linalg.norm(velocities, axis=1)
        assert np.count_nonzero(speeds) == len(grid.cells)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(width=0)
    with pytest.raises(ValueError):
        GridSpec(resolution=-0.1)


def test_origin_is_lattice_aligned():
    for pos in [(0.0, 0.0), (3.33, -1.27), (100.4, 55.5)]:
        origin = grid_origin(pos, SPEC)
        assert np.allclose(origin / SPEC.resolution,
                           np.round(origin / SPEC.resolution), atol=1e-9)


def _rounded_origin(robot_position, spec):
    """grid_origin in its former array form, with np.round."""
    res = spec.resolution
    center = np.round(np.asarray(robot_position, dtype=float) / res) * res
    return center - res * np.array([spec.width, spec.height]) / 2.0


ORIGIN_SPECS = [SPEC, GridSpec(width=41, height=7, resolution=0.05),
                GridSpec(width=1, height=1000, resolution=0.25),
                GridSpec(width=33, height=60, resolution=0.3)]


@pytest.mark.parametrize("spec", ORIGIN_SPECS)
def test_float_origin_matches_np_round_form(spec):
    rng = np.random.default_rng(spec.width)
    res = spec.resolution
    positions = list(rng.uniform(-500.0, 500.0, (2000, 2)))
    positions += list(rng.uniform(-2.0 * res, 2.0 * res, (500, 2)))
    # exact half-cell ties, which round to the even neighbour
    halves = (rng.integers(-3000, 3000, 4000) + 0.5) * res
    ties = halves[halves / res == np.floor(halves / res) + 0.5]
    assert len(ties) > 100
    positions += list(ties[:len(ties) // 2 * 2].reshape(-1, 2))
    # signed zeros, and values that round to -0.0 (np.round) or 0 (round)
    positions += [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-0.25 * res, 0.1 * res),
                  (-0.5 * res, -0.5 * res), (0.5 * res, -1e-300)]
    for position in positions:
        want = _rounded_origin(position, spec).tobytes()
        assert grid_origin(tuple(position), spec).tobytes() == want
        assert grid_origin(np.asarray(position), spec).tobytes() == want


def _angle_grid(scan, robot, spec):
    """update_obstacle_grid in its former form: endpoints from cos/sin of the
    hit beams' world angles. Returns (origin, occupied)."""
    origin = _rounded_origin(robot.position, spec)
    occupied = np.zeros((spec.width, spec.height), dtype=bool)
    hits = scan.hits
    if np.any(hits):
        world_angles = robot.theta + _beam_angles(len(hits))[hits]
        endpoints = robot.position + scan.ranges[hits, None] * np.stack(
            [np.cos(world_angles), np.sin(world_angles)], axis=1)
        cells = np.floor((endpoints - origin) / spec.resolution).astype(int)
        inside = ((cells[:, 0] >= 0) & (cells[:, 0] < spec.width)
                  & (cells[:, 1] >= 0) & (cells[:, 1] < spec.height))
        cells = cells[inside]
        occupied[cells[:, 0], cells[:, 1]] = True
    return origin, occupied


@pytest.mark.parametrize("seed", range(4))
def test_grid_from_scan_directions_matches_hit_angle_form(seed):
    rng = np.random.default_rng(seed)
    spec = ORIGIN_SPECS[seed]
    lidar = LidarSpec(beam_count=int(rng.choice([7, 90, 360, 1440])),
                      noise_sigma=float(rng.choice([0.0, 0.03])))
    for _ in range(40):
        robot = RobotState(*rng.uniform(-30.0, 30.0, 2), rng.uniform(-np.pi, np.pi))
        world = World([Obstacle(f"o{i}", rng.uniform(0.1, 1.0),
                                robot.position + rng.uniform(-7.0, 7.0, 2))
                       for i in range(int(rng.integers(0, 25)))])
        scan = cast_lidar(world, robot, lidar, rng)
        grid = update_obstacle_grid(scan, robot, spec)
        origin, occupied = _angle_grid(scan, robot, spec)
        assert grid.origin.tobytes() == origin.tobytes()
        assert np.array_equal(grid.occupied, occupied)
