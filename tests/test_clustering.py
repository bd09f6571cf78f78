"""Lattice DBSCAN: semantics on cell sets, independence from the grid's
placement, and equality with the float point DBSCAN it replaces."""

import math

import numpy as np
import pytest

from gpnav.perception.clustering import NOISE, dbscan
from gpnav.perception.grid import (GridSpec, ObstacleGridMap, grid_origin,
                                   update_obstacle_grid)
from gpnav.simworld import (LidarSpec, MotionSpec, Obstacle, RobotState, World,
                            cast_lidar)

SPEC = GridSpec(width=60, height=60, resolution=0.2)
OFF_LATTICE_EPS = (0.21, 0.29, 0.35, 0.45, 0.61)   # no cell distance equals one


def float_dbscan(points, eps, min_pts):
    """Reference: DBSCAN over float points with an O(n^2) distance matrix.

    A core point holds at least min_pts points within eps, itself included;
    clusters grow breadth-first from each unvisited core point in input
    order, and a border point keeps the first cluster that reaches it.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    diff = pts[:, None, :] - pts[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= eps * eps
    core = within.sum(axis=1) >= min_pts
    cluster = 0
    visited = np.zeros(n, dtype=bool)
    for start in range(n):
        if visited[start] or not core[start]:
            continue
        labels[start] = cluster
        visited[start] = True
        frontier = list(np.flatnonzero(within[start]))
        while frontier:
            idx = frontier.pop()
            if labels[idx] == NOISE:
                labels[idx] = cluster
            if visited[idx]:
                continue
            visited[idx] = True
            labels[idx] = cluster
            if core[idx]:
                frontier.extend(np.flatnonzero(within[idx]))
        cluster += 1
    return labels


def grid_of(cells, spec=SPEC, origin=(0.0, 0.0)):
    """A grid with the given (i, j) cells occupied."""
    occupied = np.zeros((spec.width, spec.height), dtype=bool)
    cells = np.asarray(cells, dtype=int).reshape(-1, 2)
    occupied[cells[:, 0], cells[:, 1]] = True
    return ObstacleGridMap(spec=spec, origin=np.asarray(origin, dtype=float),
                           occupied=occupied)


def partition(cells, labels):
    """Clusters as frozensets of cell tuples, ignoring noise."""
    groups = {}
    for cell, label in zip(map(tuple, cells), labels):
        if label != NOISE:
            groups.setdefault(label, set()).add(cell)
    return {frozenset(g) for g in groups.values()}


def eps_graph_components(cells, eps, resolution=SPEC.resolution):
    """Connected components of the eps-adjacency graph (independent oracle).

    With min_pts = 2 every non-isolated cell is a core cell, so DBSCAN
    clusters must equal these components exactly.
    """
    cells = np.asarray(cells)
    n = len(cells)
    diff = cells[:, None, :] - cells[None, :, :]
    adj = resolution * resolution * (diff ** 2).sum(axis=2) <= eps * eps
    seen = np.zeros(n, dtype=bool)
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack, members = [start], set()
        while stack:
            i = stack.pop()
            if seen[i]:
                continue
            seen[i] = True
            members.add(i)
            stack.extend(np.flatnonzero(adj[i]))
        if len(members) > 1:
            components.append(frozenset(tuple(cells[i]) for i in members))
    return set(components)


def random_cells(rng, spec=SPEC):
    """Between 5 and 120 distinct random cells, clumped so clusters form."""
    count = int(rng.integers(5, 121))
    centres = rng.integers(0, [spec.width, spec.height], (int(rng.integers(1, 8)), 2))
    cells = (centres[rng.integers(len(centres), size=count)]
             + rng.integers(-3, 4, (count, 2)))
    inside = np.all((cells >= 0) & (cells < [spec.width, spec.height]), axis=1)
    return np.unique(cells[inside], axis=0)


def test_two_well_separated_groups():
    group_a = np.array([[0, 0], [1, 0], [2, 0], [1, 1], [0, 1]])
    group_b = group_a + np.array([17, 0])
    labels = dbscan(grid_of(np.vstack([group_a, group_b])), eps=0.35, min_pts=2)
    assert len(set(labels)) == 2
    assert NOISE not in labels
    assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1


def test_chain_connects_into_one_cluster():
    chain = np.stack([np.arange(12), np.zeros(12, dtype=int)], axis=1)
    labels = dbscan(grid_of(chain), eps=0.35, min_pts=2)
    assert set(labels) == {0}
    assert partition(chain, labels) == eps_graph_components(chain, 0.35)


def test_isolated_point_is_noise():
    grid = grid_of([[0, 0], [1, 0], [25, 25]])
    labels = dbscan(grid, eps=0.35, min_pts=2)
    assert tuple(grid.cells[2]) == (25, 25)
    assert labels[2] == NOISE
    assert labels[0] == labels[1] != NOISE


def test_single_point_min_pts_one_is_cluster():
    labels = dbscan(grid_of([[5, 5]]), eps=0.5, min_pts=1)
    assert labels[0] == 0


def test_empty_input():
    labels = dbscan(grid_of([]), eps=0.5, min_pts=2)
    assert labels.shape == (0,)


def test_matches_eps_graph_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(30):
        grid = grid_of(random_cells(rng))
        labels = dbscan(grid, eps=0.35, min_pts=2)
        assert partition(grid.cells, labels) == eps_graph_components(grid.cells, 0.35)


def test_permutation_invariance_as_sets():
    # the flipped grid enumerates the same cells in reverse row-major order
    rng = np.random.default_rng(1)
    for _ in range(20):
        cells = random_cells(rng)
        base = partition(cells, dbscan(grid_of(cells), eps=0.4, min_pts=2))
        flip = np.array([SPEC.width - 1, SPEC.height - 1])
        flipped = grid_of(flip - cells)
        labels = dbscan(flipped, eps=0.4, min_pts=2)
        assert partition(flip - flipped.cells, labels) == base


def test_min_pts_three_leaves_sparse_pairs_as_noise():
    cells = np.array([[0, 0], [1, 0],                # pair: too sparse
                      [15, 0], [15, 1], [16, 0]])    # triple: dense
    labels = dbscan(grid_of(cells), eps=0.3, min_pts=3)
    assert labels[0] == NOISE and labels[1] == NOISE
    assert labels[2] == labels[3] == labels[4] != NOISE


def test_parameter_validation():
    with pytest.raises(ValueError):
        dbscan(grid_of([[0, 0]]), eps=0.0, min_pts=2)
    with pytest.raises(ValueError):
        dbscan(grid_of([[0, 0]]), eps=0.5, min_pts=0)


@pytest.mark.parametrize("eps, pair", [(0.2, (1, 0)),
                                       (0.2 * math.sqrt(2), (1, 1)),
                                       (0.4, (2, 0))])
def test_labels_do_not_depend_on_where_the_grid_lies(eps, pair):
    # eps equals the distance of one cell pair; the pair is a cluster at
    # every grid origin and every place in the window, and a cell one step
    # further out stays noise
    pattern = np.array([(0, 0), pair, (10, 10), (10 + pair[0] + 1, 10 + pair[1])])
    rng = np.random.default_rng(3)
    seen = set()
    for robot in rng.uniform(-200.0, 200.0, (120, 2)):
        origin = grid_origin(robot, SPEC)
        offset = rng.integers(0, 40, 2)
        labels = dbscan(grid_of(pattern + offset, origin=origin), eps, 2)
        seen.add(tuple(labels.tolist()))
    assert seen == {(0, 0, NOISE, NOISE)}


@pytest.mark.parametrize("eps", OFF_LATTICE_EPS)
def test_matches_float_dbscan_on_random_cell_sets(eps):
    rng = np.random.default_rng(int(eps * 100))
    for _ in range(30):
        origin = grid_origin(rng.uniform(-50, 50, 2), SPEC)
        grid = grid_of(random_cells(rng), origin=origin)
        for min_pts in range(1, 6):
            expected = float_dbscan(grid.points, eps, min_pts)
            assert np.array_equal(dbscan(grid, eps, min_pts), expected)


def clutter_grids(frames=100, seed=5):
    """Grids of a drive along y = 0 past 40 static and moving circles."""
    rng = np.random.default_rng(seed)
    obstacles = []
    for k in range(40):
        radius = float(rng.uniform(0.2, 0.45))
        centre = np.array([rng.uniform(-6.0, 11.0),
                           (1 if k % 2 else -1) * rng.uniform(0.6 + radius, 5.5)])
        speed = float(rng.uniform(-0.4, 0.4))
        motion = (MotionSpec(kind="velocity", velocity=(speed, 0.0))
                  if k % 3 else MotionSpec())
        obstacles.append(Obstacle(obstacle_id=f"c{k}", radius=radius,
                                  spawn=centre, motion=motion))
    world = World(obstacles)
    grids = []
    for k in range(frames):
        robot = RobotState(0.05 * k, 0.0, 0.0)
        scan = cast_lidar(world, robot, LidarSpec())
        grids.append(update_obstacle_grid(scan, robot, SPEC))
        world.advance(0.05)
    return grids


def test_matches_float_dbscan_on_a_clutter_drive():
    grids = clutter_grids()
    assert min(len(g.cells) for g in grids) > 40
    for grid in grids:
        assert np.array_equal(dbscan(grid, 0.35, 2), float_dbscan(grid.points, 0.35, 2))
    for grid in grids[::5]:
        for eps in OFF_LATTICE_EPS:
            for min_pts in range(1, 6):
                assert np.array_equal(dbscan(grid, eps, min_pts),
                                      float_dbscan(grid.points, eps, min_pts))


def test_huge_eps_clips_the_stencil_to_the_window():
    # every cell lies within 1e6 m of every other: one cluster, promptly
    rng = np.random.default_rng(4)
    grid = grid_of(random_cells(rng))
    labels = dbscan(grid, 1e6, 2)
    assert np.array_equal(labels, float_dbscan(grid.points, 1e6, 2))
    assert set(labels.tolist()) == {0}
    corners = grid_of([[0, 0], [SPEC.width - 1, SPEC.height - 1]])
    assert dbscan(corners, 1e6, 2).tolist() == [0, 0]
