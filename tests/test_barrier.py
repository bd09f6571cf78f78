"""Barrier value, derivatives, dataset assembly, and the field export."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpnav import barrier
from gpnav.barrier import (BarrierParams, EmptyDataset, build_datasets,
                           evaluate, evaluate_full, export_field)
from gpnav.gp import GpModel, KernelParams, build_model, grid_mean
from gpnav.perception.grid import GridSpec, ObstacleGridMap, build_velocity_grid
from gpnav.perception.pipeline import PerceptionParams

CAP = PerceptionParams().dataset_cap
KERNEL = KernelParams(length_scale=0.9, jitter=1e-8)
EXACT_KERNEL = KernelParams(length_scale=0.9, jitter=0.0)
PARAMS = BarrierParams(scale=1.0, margin_shift=0.1)


def grad_h(model, position):
    return evaluate_full(model, PARAMS, position, np.zeros((model.size, 2))).grad_state


def dh_dt(model, position, velocities):
    return evaluate_full(model, PARAMS, position, velocities).time_derivative


def grid_with_cells(cells, spec=GridSpec(width=20, height=20, resolution=0.2),
                    origin=(0.0, 0.0)):
    occupied = np.zeros((spec.width, spec.height), dtype=bool)
    for ix, iy in cells:
        occupied[ix, iy] = True
    return ObstacleGridMap(spec=spec, origin=np.asarray(origin, float),
                           occupied=occupied)


def grid_of_points(points, resolution=0.2):
    """The grid whose occupied cell centres are the given lattice points."""
    origin = points.min(axis=0) - 0.5 * resolution
    cells = np.rint((points - origin) / resolution - 0.5).astype(int)
    width, height = cells.max(axis=0) + 1
    grid = grid_with_cells(cells, GridSpec(int(width), int(height), resolution),
                           origin)
    assert np.allclose(grid.points, points, atol=1e-9)
    return grid


def zero_velocity_grid(grid):
    return np.zeros((len(grid.cells), 2))


class TestBuildDatasets:
    def test_single_cell_maps_to_world_center(self):
        grid = grid_with_cells([(4, 7)], origin=(1.0, -2.0))
        points, velocities = build_datasets(grid, zero_velocity_grid(grid), CAP)
        assert points.shape == (1, 2)
        # center of cell (4, 7) at resolution 0.2 from origin (1, -2)
        assert np.allclose(points[0], [1.0 + 0.9, -2.0 + 1.5])
        assert np.allclose(velocities, 0.0)

    def test_empty_grid_yields_empty_sets(self):
        grid = grid_with_cells([])
        points, velocities = build_datasets(grid, zero_velocity_grid(grid), CAP)
        assert len(points) == 0 and len(velocities) == 0

    def test_stride_subsample_120_to_60(self):
        spec = GridSpec(width=12, height=10, resolution=0.2)
        cells = [(i, j) for i in range(12) for j in range(10)]
        grid = grid_with_cells(cells, spec=spec)
        all_points = grid.points
        points, _ = build_datasets(grid, zero_velocity_grid(grid), cap=60)
        assert len(points) == 60
        # stride rule: every 2nd cell in row-major occupied order
        assert np.allclose(points, all_points[::2])

    def test_velocities_stay_index_aligned(self):
        grid = grid_with_cells([(1, 1), (5, 5), (9, 9)])
        labels = np.array([0, 1, 2])
        vgrid = build_velocity_grid(labels, [np.zeros(2), np.array([0.5, -0.5]),
                                             np.zeros(2)])
        points, velocities = build_datasets(grid, vgrid, CAP)
        assert np.allclose(velocities[0], 0.0)
        assert np.allclose(velocities[1], [0.5, -0.5])
        assert np.allclose(velocities[2], 0.0)


class TestEvaluate:
    def test_at_training_point_equals_minus_margin(self):
        model = build_model([[1.0, 2.0]], params=EXACT_KERNEL)
        assert evaluate(model, PARAMS, (1.0, 2.0)) == pytest.approx(-0.1, abs=1e-9)

    def test_single_point_closed_form_at_length_scale(self):
        # h = r^2 / (2 l^2) - margin = 0.5 - 0.1
        model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
        assert evaluate(model, PARAMS, (0.9, 0.0)) == pytest.approx(0.4, abs=1e-9)

    def test_far_field_large_and_unclamped(self):
        # queries stay within sensing reach (max range 6 m), where the mean
        # never falls to the clamp floor and h is already far above zero
        rng = np.random.default_rng(0)
        points = rng.uniform(-1, 1, (30, 2))
        model = build_model(points, params=KERNEL)
        query = np.array([4.2, 4.2])  # about 4.5 m past the nearest point
        result = evaluate_full(model, PARAMS, query, np.zeros((30, 2)))
        assert result.value >= 2.0
        assert not result.clamped

    def test_zero_level_radius(self):
        # h = 0 at r = l * sqrt(2 * margin / scale)
        model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
        radius = 0.9 * np.sqrt(0.2)
        assert radius == pytest.approx(0.402492, abs=1e-6)
        assert evaluate(model, PARAMS, (radius, 0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            evaluate(None, PARAMS, (0.0, 0.0))

    def test_clamp_engages_far_out(self):
        model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
        result = evaluate_full(model, PARAMS, (50.0, 0.0), np.zeros((1, 2)))
        assert result.clamped
        assert result.value == pytest.approx(
            -np.log(PARAMS.mu_floor) - 0.1, abs=1e-9)
        moving = evaluate_full(model, PARAMS, (50.0, 0.0), [[1.0, 0.0]])
        assert moving.clamped
        assert np.all(moving.grad_state == 0.0)
        assert moving.time_derivative == 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BarrierParams(scale=0.0)
        with pytest.raises(ValueError):
            BarrierParams(margin_shift=-0.1)
        with pytest.raises(ValueError):
            BarrierParams(mu_floor=1e-6)


class TestSpatialGradient:
    def test_single_point_closed_form(self):
        # grad h = (q - d) / l^2 for one training point
        model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
        grad = grad_h(model, (0.9, 0.0))
        assert grad[0] == pytest.approx(1.1111111111111112, abs=1e-9)
        assert grad[1] == pytest.approx(0.0, abs=1e-12)
        assert grad[2] == 0.0

    def test_zero_at_training_point(self):
        model = build_model([[0.3, 0.7]], params=EXACT_KERNEL)
        assert np.allclose(grad_h(model, (0.3, 0.7)), 0.0,
                           atol=1e-12)

    def test_heading_component_always_zero(self):
        rng = np.random.default_rng(1)
        model = build_model(rng.uniform(-2, 2, (10, 2)), params=KERNEL)
        for _ in range(20):
            grad = grad_h(model, rng.uniform(-3, 3, 2))
            assert grad[2] == 0.0

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(200 + n)
        step = 1e-5
        for _ in range(34):
            model = build_model(rng.uniform(-3, 3, (n, 2)), params=KERNEL)
            query = rng.uniform(-3, 3, 2)
            grad = grad_h(model, query)
            for axis in range(2):
                offset = np.zeros(2)
                offset[axis] = step
                numeric = (evaluate(model, PARAMS, query + offset)
                           - evaluate(model, PARAMS, query - offset)) / (2 * step)
                assert abs(grad[axis] - numeric) / max(abs(numeric), 1e-8) <= 1e-5


class TestTimeDerivative:
    def test_static_scene_is_zero(self):
        rng = np.random.default_rng(2)
        model = build_model(rng.uniform(-2, 2, (8, 2)), params=KERNEL)
        assert dh_dt(model, (0.0, 0.0), np.zeros((8, 2))) == 0.0

    def test_single_point_approach_closed_form(self):
        # dh/dt = -(q - d) . v / l^2 = -0.9 / 0.81 for a head-on approach
        model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
        rate = dh_dt(model, (0.9, 0.0), [[1.0, 0.0]])
        assert rate == pytest.approx(-1.1111111111111112, abs=1e-9)

    def test_uniform_translation_identity(self):
        # all points sharing velocity v: dh/dt == -grad h . v
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 20))
            model = build_model(rng.uniform(-2, 2, (n, 2)), params=KERNEL)
            v = rng.uniform(-1, 1, 2)
            query = rng.uniform(-2.5, 2.5, 2)
            rate = dh_dt(model, query, np.tile(v, (n, 1)))
            grad = grad_h(model, query)
            assert abs(rate + grad[:2] @ v) <= 1e-8

    def test_matches_finite_difference_along_motion(self):
        rng = np.random.default_rng(4)
        delta = 1e-5
        for _ in range(40):
            n = int(rng.integers(1, 25))
            points = rng.uniform(-3, 3, (n, 2))
            vel = rng.uniform(-1, 1, (n, 2))
            query = rng.uniform(-3, 3, 2)
            model = build_model(points, params=KERNEL)
            rate = dh_dt(model, query, vel)
            h_plus = evaluate(build_model(points + delta * vel, params=KERNEL),
                              PARAMS, query)
            h_minus = evaluate(build_model(points - delta * vel, params=KERNEL),
                               PARAMS, query)
            numeric = (h_plus - h_minus) / (2 * delta)
            assert abs(rate - numeric) / max(abs(numeric), 1e-8) <= 1e-5


class TestVariants:
    def test_no_dhdt_zeroes_only_the_time_term(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-2, 2, (10, 2))
        vel = rng.uniform(-1, 1, (10, 2))
        model = build_model(points, params=KERNEL)
        full = evaluate_full(model, PARAMS, (0.5, 0.5), vel, variant="dlgp")
        reactive = evaluate_full(model, PARAMS, (0.5, 0.5), vel,
                                 variant="dlgp-no-dhdt")
        assert reactive.time_derivative == 0.0
        assert reactive.value == full.value
        assert np.allclose(reactive.grad_state, full.grad_state)

    def test_linear_variant_saturates_far_away(self):
        # at the sensing horizon the linear barrier has flattened at its prior
        # (gradient < 1e-6) while the log barrier keeps a usable gradient;
        # already at 3 m the log gradient dwarfs 1e-3
        model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
        zeros = np.zeros((1, 2))
        lin_mid = evaluate_full(model, PARAMS, (3.0, 0.0), zeros, variant="gp-linear")
        lin_far = evaluate_full(model, PARAMS, (6.0, 0.0), zeros, variant="gp-linear")
        log_far = evaluate_full(model, PARAMS, (6.0, 0.0), zeros, variant="dlgp")
        log_mid = evaluate_full(model, PARAMS, (3.0, 0.0), zeros, variant="dlgp")
        assert lin_far.value == pytest.approx(barrier.LINEAR_PRIOR, abs=1e-9)
        assert np.linalg.norm(lin_far.grad_state[:2]) < 1e-6
        assert not log_far.clamped
        assert np.linalg.norm(log_far.grad_state[:2]) > 1e-3
        assert np.linalg.norm(log_mid.grad_state[:2]) > 1e-3
        assert lin_mid.value == pytest.approx(
            barrier.LINEAR_PRIOR - np.exp(-9.0 / 1.62), abs=1e-9)

    def test_unknown_variant_rejected(self):
        model = build_model([[0.0, 0.0]], params=KERNEL)
        with pytest.raises(ValueError):
            evaluate_full(model, PARAMS, (0.0, 0.0), np.zeros((1, 2)),
                          variant="mpc")


class TestBoundaryIdentity:
    def test_boundary_value_on_grid_like_datasets(self):
        # |h(training point) + margin| <= 1e-4 under jitter and 0.2 m spacing
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            base = rng.uniform(-4, 4, 2)
            offsets = rng.integers(-6, 7, (n, 2)) * 0.2
            points = np.unique(base + offsets, axis=0)
            model = build_model(points, params=KERNEL)
            worst = max(abs(evaluate(model, PARAMS, p) + 0.1) for p in points)
            assert worst <= 1e-4

    def test_single_point_h_strictly_increasing_in_distance(self):
        model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
        radii = np.linspace(0.0, 4.0, 60)
        values = [evaluate(model, PARAMS, (r, 0.0)) for r in radii]
        assert np.all(np.diff(values) > 0.0)

    def test_radial_growth_on_single_cluster_pipeline_datasets(self):
        # along 16 rays from the centroid, h never decreases while moving
        # outward beyond one length scale, for single-cluster frame datasets.
        # Multi-cluster frames genuinely violate this (a second cluster's
        # aggregate contribution can grow while the nearest-point distance
        # grows), so the check conditions on one connected cluster.
        from conftest import pipeline_datasets
        from gpnav.perception.clustering import NOISE, dbscan

        checked_rays = 0
        for points, _ in pipeline_datasets(40):
            labels = dbscan(grid_of_points(points), 0.35, 2)
            if NOISE in labels or len(set(labels)) != 1:
                continue
            model = build_model(points, params=KERNEL)
            centroid = points.mean(axis=0)
            for k in range(16):
                angle = 2 * np.pi * k / 16
                direction = np.array([np.cos(angle), np.sin(angle)])
                queries = centroid + np.linspace(0, 8, 81)[:, None] * direction
                d_min = np.array([np.min(np.linalg.norm(points - q, axis=1))
                                  for q in queries])
                values = np.array([evaluate(model, PARAMS, q) for q in queries])
                outward = ((d_min[:-1] > 0.9) & (d_min[1:] > 0.9)
                           & (np.diff(d_min) >= 0))
                assert np.all(np.diff(values)[outward] >= -1e-9)
                checked_rays += 1
        assert checked_rays >= 16 * 10


def test_export_field_writes_grid(tmp_path):
    model = build_model([[0.0, 0.0]], params=EXACT_KERNEL)
    path = tmp_path / "field.csv"
    rows = export_field(model, PARAMS, path, (-1.0, 1.0), (-1.0, 1.0),
                        resolution=0.5)
    with open(path) as handle:
        reader = list(csv.reader(handle))
    assert reader[0] == ["x", "y", "h"]
    assert len(reader) - 1 == rows == 25
    # spot-check the center row against the closed form
    center = [r for r in reader[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert float(center[0][2]) == pytest.approx(-0.1, abs=1e-6)


def test_export_field_rows_match_evaluate(tmp_path):
    rng = np.random.default_rng(7)
    model = build_model(rng.uniform(-1.5, 1.5, (12, 2)), params=KERNEL)
    path = tmp_path / "field.csv"
    rows = export_field(model, PARAMS, path, (-2.0, 2.5), (-1.0, 3.0),
                        resolution=0.25)
    xs = np.arange(-2.0, 2.5 + 0.125, 0.25)
    ys = np.arange(-1.0, 3.0 + 0.125, 0.25)
    with open(path) as handle:
        reader = list(csv.reader(handle))
    assert rows == len(reader) - 1 == len(xs) * len(ys)
    # x-major: y runs fastest
    for index, (x_text, y_text, h_text) in enumerate(reader[1:]):
        x, y = xs[index // len(ys)], ys[index % len(ys)]
        assert (x_text, y_text) == (f"{x:.6f}", f"{y:.6f}")
        assert abs(float(h_text) - evaluate(model, PARAMS, (x, y))) <= 5e-10


def test_export_field_bytes_follow_csv_writer(tmp_path):
    model = build_model([[0.3, -0.2], [1.1, 0.4]], params=KERNEL)
    path = tmp_path / "field.csv"
    rows = export_field(model, PARAMS, path, (-1.0, 1.5), (-0.5, 0.5),
                        resolution=0.5)
    data = path.read_bytes()
    assert data.startswith(b"x,y,h\r\n")
    lines = data.split(b"\r\n")
    assert lines[-1] == b""
    assert len(lines) - 2 == rows == 6 * 3
    # every row ends in \r\n: no bare \n or \r is left inside a line
    assert all(b"\n" not in line and b"\r" not in line for line in lines)
    assert all(len(line.split(b",")) == 3 for line in lines[:-1])


def per_row_export(model, params, path, x_range, y_range, resolution=0.1):
    """export_field with one f-string per row: the oracle for its array pass."""
    xs = np.arange(x_range[0], x_range[1] + 0.5 * resolution, resolution)
    ys = np.arange(y_range[0], y_range[1] + 0.5 * resolution, resolution)
    values = barrier._log_value(grid_mean(model, xs, ys), params)
    x_text = [f"{x:.6f}" for x in xs.tolist()]
    y_text = [f",{y:.6f}," for y in ys.tolist()]
    rows = [f"{xc}{yc}{h:.9f}\r\n"
            for xc, column in zip(x_text, values.tolist())
            for yc, h in zip(y_text, column)]
    with open(path, "w", newline="") as handle:
        handle.write("x,y,h\r\n" + "".join(rows))
    return len(rows)


def assert_export_matches_per_row(tmp_path, model, params, x_range, y_range,
                                  resolution=0.1):
    rows = export_field(model, params, tmp_path / "field.csv", x_range, y_range,
                        resolution)
    expected = per_row_export(model, params, tmp_path / "oracle.csv", x_range,
                              y_range, resolution)
    data = (tmp_path / "field.csv").read_bytes()
    assert rows == expected
    assert data == (tmp_path / "oracle.csv").read_bytes()
    return data


class TestExportFieldBytes:
    """export_field byte for byte against the per-row f-string oracle."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        model = build_model(rng.uniform(-1.5, 1.5, (int(rng.integers(1, 40)), 2)),
                            params=KERNEL)
        params = BarrierParams(scale=float(rng.choice([0.01, 1.0, 250.0])))
        assert_export_matches_per_row(tmp_path, model, params, (-2.5, 2.0),
                                      (-2.0, 3.5))

    def test_empty_window_writes_the_header_only(self, tmp_path):
        model = build_model([[0.0, 0.0]], params=KERNEL)
        for x_range, y_range in [((1.0, 0.0), (-1.0, 1.0)), ((-1.0, 1.0), (1.0, 0.0))]:
            data = assert_export_matches_per_row(tmp_path, model, PARAMS,
                                                 x_range, y_range)
            assert data == b"x,y,h\r\n"

    def test_one_point_window(self, tmp_path):
        model = build_model([[0.3, -0.2]], params=KERNEL)
        data = assert_export_matches_per_row(tmp_path, model, PARAMS,
                                             (0.5, 0.5), (0.25, 0.25))
        assert data.count(b"\r\n") == 2

    def test_large_scale_takes_the_per_row_fallback(self, tmp_path):
        # far from the data mu hits mu_floor and h = 27.6 * scale > 4.5e6 at
        # the largest scale the schema accepts
        model = build_model([[0.0, 0.0]], params=KERNEL)
        params = BarrierParams(scale=1e6)
        data = assert_export_matches_per_row(tmp_path, model, params,
                                             (-20.0, 20.0), (-1.0, 1.0), 0.5)
        h = [float(line.split(b",")[2]) for line in data.split(b"\r\n")[1:-1]]
        assert max(map(abs, h)) >= barrier._FIXED9_LIMIT
        assert min(map(abs, h)) < barrier._FIXED9_LIMIT


DERANDOMIZED = settings(max_examples=150)
LIMIT = barrier._FIXED9_LIMIT
# odd multiples of 2**-10 have ten decimals ending in 5: exact ties at nine
TIES = st.integers(-2**31, 2**31 - 1).map(lambda k: (2 * k + 1) / 1024)


def array_pass_text(values):
    """f"{h:.9f}" of each value, from the array pass alone."""
    columns = barrier._fixed9_columns(np.asarray(values, dtype=float))
    return [bytes(column[column != 0]).decode() for column in columns.T]


def field_rows_text(values):
    """The h column of _field_rows, whichever path it takes, one row per value."""
    values = np.asarray(values, dtype=float)
    text = barrier._field_rows([""], [""] * len(values), values[None, :])
    return text.decode().split("\r\n")[:-1]


class TestFixed9Format:
    """The array pass against Python's own f"{h:.9f}"."""

    @DERANDOMIZED
    @given(st.lists(TIES, min_size=1, max_size=40))
    def test_exact_ties_round_half_even(self, values):
        assert array_pass_text(values) == [f"{h:.9f}" for h in values]

    @DERANDOMIZED
    @given(st.lists(TIES, min_size=1, max_size=40))
    def test_doubles_beside_the_ties(self, ties):
        values = np.concatenate([np.nextafter(ties, -np.inf),
                                 np.nextafter(ties, np.inf)]).tolist()
        assert array_pass_text(values) == [f"{h:.9f}" for h in values]

    @DERANDOMIZED
    @given(st.lists(st.floats(min_value=-5e-10, max_value=-0.0), min_size=1,
                    max_size=40))
    @example([-0.0, -5e-10, np.nextafter(-5e-10, 0.0), -1e-300, -5e-324])
    def test_negatives_that_round_to_zero_keep_their_sign(self, values):
        assert array_pass_text(values) == [f"{h:.9f}" for h in values]

    @DERANDOMIZED
    @given(st.lists(st.floats(min_value=-1e7, max_value=1e7), min_size=1,
                    max_size=40))
    def test_any_finite_value(self, values):
        assert field_rows_text(values) == [f"{h:.9f}" for h in values]

    @DERANDOMIZED
    @given(st.floats(min_value=LIMIT / 2, max_value=2 * LIMIT), st.booleans())
    @example(np.nextafter(LIMIT, 0.0), False)
    @example(LIMIT, False)
    @example(np.nextafter(LIMIT, np.inf), True)
    def test_both_sides_of_the_exact_range(self, magnitude, negative):
        value = -magnitude if negative else magnitude
        assert field_rows_text([value]) == [f"{value:.9f}"]
        if magnitude < LIMIT:
            assert array_pass_text([value]) == [f"{value:.9f}"]

    @DERANDOMIZED
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=20),
           st.sampled_from([np.inf, -np.inf, np.nan]), st.integers(0, 20))
    def test_non_finite_values_take_the_per_row_path(self, values, bad, at):
        values.insert(min(at, len(values)), bad)
        assert field_rows_text(values) == [f"{h:.9f}" for h in values]


@pytest.mark.parametrize("model", [
    None,
    GpModel(points=np.empty((0, 2)), params=KERNEL, cov=np.empty((0, 0)),
            chol_lower=np.empty((0, 0)), alpha=np.empty(0)),
], ids=["none", "size-0"])
def test_export_field_refuses_an_empty_model(tmp_path, model):
    path = tmp_path / "field.csv"
    with pytest.raises(EmptyDataset):
        export_field(model, PARAMS, path, (-1.0, 1.0), (-1.0, 1.0))
    assert not path.exists()
