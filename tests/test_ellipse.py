"""Minimum-area enclosing ellipse fits, including degenerate clusters."""

import numpy as np
import pytest

from gpnav.perception.ellipse import (Ellipse, _hull_vertices, _rank_deficient,
                                      fit_mvee)

CONTAIN_SCALE = 1.0 + 10 * 1e-4


def random_enclosing_ellipses(rng, points, count=200):
    """Random ellipses that contain all points (minimality oracle).

    Each candidate uses a random center near the cloud and random orientation;
    axes are grown until every point fits, then the area is recorded.
    """
    areas = []
    center_base = points.mean(axis=0)
    for _ in range(count):
        center = center_base + rng.uniform(-0.3, 0.3, 2)
        angle = rng.uniform(-np.pi / 2, np.pi / 2)
        ratio = rng.uniform(0.3, 1.0)
        c, s = np.cos(angle), np.sin(angle)
        rel = points - center
        u = rel @ np.array([c, s])
        v = rel @ np.array([-s, c])
        # smallest a with this center/angle/aspect that covers all points
        a = np.sqrt(np.max(u**2 + (v / ratio) ** 2)) + 1e-12
        areas.append(np.pi * a * (a * ratio))
    return np.array(areas)


class TestDegenerate:
    def test_single_point_padded_circle(self):
        ellipse = fit_mvee([[2.0, -1.0]])
        assert np.allclose(ellipse.center, [2.0, -1.0])
        assert ellipse.semi_major == pytest.approx(0.1)
        assert ellipse.semi_minor == pytest.approx(0.1)

    def test_collinear_pair_distance_two(self):
        ellipse = fit_mvee([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(ellipse.center, [1.0, 0.0])
        assert ellipse.semi_major == pytest.approx(1.0 + 0.1)
        assert ellipse.semi_minor == pytest.approx(0.1)
        assert ellipse.angle == pytest.approx(0.0, abs=1e-12)

    def test_collinear_diagonal_orientation(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        ellipse = fit_mvee(pts)
        assert ellipse.angle == pytest.approx(np.pi / 4, abs=1e-9)
        assert np.all(ellipse.contains(pts, scale=CONTAIN_SCALE))

    def test_uneven_collinear_centered_on_extent(self):
        pts = np.array([[0.0, 0.0], [0.4, 0.0], [3.0, 0.0]])
        ellipse = fit_mvee(pts)
        assert np.allclose(ellipse.center, [1.5, 0.0])
        assert np.all(ellipse.contains(pts, scale=CONTAIN_SCALE))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            fit_mvee(np.zeros((0, 2)))


class TestRectangle:
    def test_axis_aligned_rectangle(self):
        corners = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        ellipse = fit_mvee(corners, tolerance=1e-6, max_iter=2000)
        assert np.allclose(ellipse.center, [1.0, 0.5], atol=1e-3)
        assert abs(ellipse.angle) < 1e-3
        assert np.all(ellipse.contains(corners, scale=CONTAIN_SCALE))
        # analytic MVEE of a rectangle: semi-axes (w/2, h/2) * sqrt(2)
        assert ellipse.semi_major == pytest.approx(np.sqrt(2.0), rel=1e-3)
        assert ellipse.semi_minor == pytest.approx(np.sqrt(2.0) / 2, rel=1e-3)

    def test_rectangle_beats_random_enclosing_ellipses(self):
        rng = np.random.default_rng(0)
        corners = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        ellipse = fit_mvee(corners)
        areas = random_enclosing_ellipses(rng, corners)
        assert np.pi * ellipse.semi_major * ellipse.semi_minor <= areas.min() + 1e-6


class TestRandomClusters:
    def test_containment_and_gap(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            points = rng.uniform(-1, 1, (n, 2)) * rng.uniform(0.2, 2.0, 2)
            ellipse = fit_mvee(points)
            assert np.all(ellipse.contains(points, scale=CONTAIN_SCALE))
            assert ellipse.fit_gap <= 1e-4
            assert ellipse.semi_major >= ellipse.semi_minor > 0.0

    def test_minimality_vs_random_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(4, 20))
            points = rng.normal(0.0, 0.5, (n, 2))
            ellipse = fit_mvee(points)
            areas = random_enclosing_ellipses(rng, points, count=200)
            assert np.pi * ellipse.semi_major * ellipse.semi_minor <= areas.min() + 1e-9

    def test_arc_cluster_like_lidar(self):
        rng = np.random.default_rng(3)
        angles = np.linspace(-0.9, 0.9, 15)
        arc = np.stack([0.5 * np.cos(angles), 0.5 * np.sin(angles)], axis=1)
        arc = np.round(arc / 0.2) * 0.2 + rng.normal(0, 1e-6, arc.shape)
        ellipse = fit_mvee(np.unique(arc, axis=0))
        assert np.all(ellipse.contains(arc, scale=CONTAIN_SCALE))
        assert ellipse.fit_gap <= 1e-4

    def test_orientation_range(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            points = rng.normal(0, 1, (10, 2))
            ellipse = fit_mvee(points)
            assert -np.pi / 2 <= ellipse.angle < np.pi / 2


# A lattice cluster from a dense drive on which the ascent needs ~500
# iterations; at 200 its duality gap is still ~2e-3.
SLOW_PATTERN = np.array([(0, 3), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1),
                         (2, 2), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 0),
                         (6, 1), (6, 2)])


@pytest.mark.parametrize("pattern", [
    SLOW_PATTERN,
    SLOW_PATTERN[~np.all(SLOW_PATTERN == (4, 2), axis=1)],
], ids=["16_cells", "15_cells"])
class TestSlowLatticePattern:
    def test_converges_within_default_budget(self, pattern):
        points = 0.2 * (pattern + 0.5)
        ellipse = fit_mvee(points)
        assert ellipse.fit_gap <= 1e-4
        assert np.all(ellipse.contains(points, scale=CONTAIN_SCALE))

    def test_exhausted_budget_still_encloses(self, pattern):
        points = 0.2 * (pattern + 0.5)
        ellipse = fit_mvee(points, max_iter=200)
        assert ellipse.fit_gap > 1e-4
        assert np.all(ellipse.contains(points, scale=1.0 + 1e-12))


def reference_mvee(points, tolerance=1e-4, max_iter=1000):
    """Khachiyan ascent with away steps over every point, in numpy.

    Returns (area, gap) of the ellipse (p-c)^T (S^-1 / 2) (p-c) <= 1.
    """
    n = len(points)
    lifted = np.vstack([points.T, np.ones(n)])
    u = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        sol = np.linalg.solve(lifted @ (u[:, None] * lifted.T), lifted)
        scores = np.einsum("ij,ij->j", lifted, sol)
        j_hi = int(np.argmax(scores))
        hi = scores[j_hi]
        if hi / 3.0 - 1.0 <= tolerance:
            break
        support = np.where(u > 1e-12, scores, np.inf)
        j_lo = int(np.argmin(support))
        lo = support[j_lo]
        if hi - 3.0 >= 3.0 - lo or lo <= 1.0 + 1e-12:
            step = (hi - 3.0) / (3.0 * (hi - 1.0))
            u *= 1.0 - step
            u[j_hi] += step
        else:
            step = max((lo - 3.0) / (3.0 * (lo - 1.0)), -u[j_lo] / (1.0 - u[j_lo]))
            u *= 1.0 - step
            u[j_lo] += step
            np.maximum(u, 0.0, out=u)
    center = points.T @ u
    shape = points.T @ (u[:, None] * points) - np.outer(center, center)
    return np.pi * 2.0 * np.sqrt(np.linalg.det(shape)), hi / 3.0 - 1.0


def random_lattice_pattern(rng, size):
    """A connected set of `size` cells grown from one cell by random steps."""
    cells = {(0, 0)}
    frontier = [(0, 0)]
    while len(cells) < size:
        x, y = frontier[int(rng.integers(len(frontier)))]
        dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[int(rng.integers(4))]
        if (x + dx, y + dy) not in cells:
            cells.add((x + dx, y + dy))
            frontier.append((x + dx, y + dy))
    return np.array(sorted(cells))


@pytest.mark.parametrize("seed", range(4))
def test_lattice_fits_match_reference_ascent(seed):
    rng = np.random.default_rng(seed)
    fitted = 0
    for _ in range(12):
        cells = random_lattice_pattern(rng, int(rng.integers(3, 101)))
        points = 0.2 * (cells + 0.5)
        if np.linalg.matrix_rank(points - points.mean(axis=0)) < 2:
            continue                      # a straight bar: the padded fallback
        ellipse = fit_mvee(points)
        ref_area, ref_gap = reference_mvee(points)
        assert ref_gap <= 1e-4
        assert ellipse.fit_gap <= 1e-4
        assert np.all(ellipse.contains(points, scale=CONTAIN_SCALE))
        area = np.pi * ellipse.semi_major * ellipse.semi_minor
        assert area == pytest.approx(ref_area, rel=1e-5)
        fitted += 1
    assert fitted >= 8


def svd_rank_deficient(points):
    """The reference rank test: sigma_min <= max(1e-9, 1e-7 * sigma_max)."""
    sv = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return bool(sv[1] <= max(1e-9, 1e-7 * sv[0]))


def rank_test_clusters(rng):
    """(kind, points): lattice bars, L-shapes and random patterns as the
    pipeline fits them, and near-collinear or tiny float clusters."""
    for length in (3, 4, 9, 40):
        for step in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)):
            bar = np.arange(length)[:, None] * np.array(step)
            foot = bar[-1] + (-step[1], step[0])
            for cells, kind in ((bar, "bar"), (np.vstack([bar, foot]), "L")):
                yield kind, 0.2 * (cells - cells.min(axis=0) + 0.5)
                yield kind, 0.2 * (cells + rng.integers(-300, 300, 2) + 0.5)
    for size in range(3, 60):
        yield "pattern", 0.2 * (random_lattice_pattern(rng, size) + 0.5)
    for offset in (1e-2, 1e-4, 1e-5, 1e-9, 1e-11, 1e-14, 0.0):
        for count in (3, 10, 50):
            along = rng.uniform(-2.0, 2.0, count)
            across = offset * rng.normal(size=count)
            angle = rng.uniform(-np.pi, np.pi)
            axes = np.array([[np.cos(angle), np.sin(angle)],
                             [-np.sin(angle), np.cos(angle)]])
            yield "float", (np.column_stack([along, across]) @ axes
                            + rng.uniform(-50.0, 50.0, 2))
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for scale in (1e-6, 1e-10):
        yield "tiny", scale * square
    yield "repeated", np.full((5, 2), 0.7)


def test_closed_form_rank_test_matches_svd():
    decisions = {}
    for kind, points in rank_test_clusters(np.random.default_rng(9)):
        expected = svd_rank_deficient(points)
        assert _rank_deficient(points - points.mean(axis=0)) == expected, kind
        decisions.setdefault(kind, set()).add(expected)
    assert decisions["bar"] == decisions["repeated"] == {True}
    assert decisions["L"] == decisions["pattern"] == {False}
    assert decisions["float"] == decisions["tiny"] == {True, False}


def test_hull_drops_edge_points_and_ignores_order():
    rng = np.random.default_rng(5)
    corners = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
    edge = [(1.0, 0.0), (0.5, 0.0), (2.0, 0.5), (1.5, 1.0), (0.0, 0.25)]
    inside = [(1.0, 0.5), (0.3, 0.7)]
    points = np.array(corners + edge + inside + corners[:2])   # two repeats
    for _ in range(5):
        hull = _hull_vertices(rng.permutation(points))
        assert sorted(hull) == sorted(corners)
        assert len(hull) == 4


def test_hull_matches_qhull_on_random_points():
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(6)
    for _ in range(20):
        points = rng.normal(size=(int(rng.integers(3, 60)), 2))
        expected = sorted(map(tuple, points[ConvexHull(points).vertices].tolist()))
        assert sorted(_hull_vertices(points)) == expected


def test_rejects_points_not_in_the_plane():
    with pytest.raises(ValueError):
        fit_mvee(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        fit_mvee(np.zeros((2, 2, 2)))


def test_ellipse_vector_roundtrip():
    ellipse = Ellipse(center=np.array([1.0, 2.0]), semi_major=0.8,
                      semi_minor=0.3, angle=0.7)
    assert np.allclose(ellipse.as_vector(), [1.0, 2.0, 0.8, 0.3, 0.7])
    with pytest.raises(ValueError):
        Ellipse(center=np.zeros(2), semi_major=0.2, semi_minor=0.5, angle=0.0)
