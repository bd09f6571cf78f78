"""GP regression: kernel, model construction, and the mean-and-derivatives pass."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpnav.bench import random_dataset
from gpnav.gp import (_RATE_PAIRING, FactorizationFailure, KernelParams,
                      build_model, grid_mean, mean_terms)

PARAMS = KernelParams(length_scale=0.9, jitter=1e-8)
EXACT = KernelParams(length_scale=0.9, jitter=0.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def random_model(rng, n, spread=3.0, params=PARAMS):
    points = rng.uniform(-spread, spread, (n, 2))
    return build_model(points, params=params)


def mean(model, query):
    return mean_terms(model, query)[0]


def mean_grad(model, query):
    return mean_terms(model, query)[1]


def mean_rate(model, query, velocities):
    return mean_terms(model, query, velocities)[2]


# Dense single-query forms of the mean and its derivatives, kept here as the
# reference that mean_terms is checked against: an explicit kernel vector, the
# full N x N covariance rate matrix and a solve against the kernel vector.

def dense_kernel_column(model, query):
    diff = model.points - np.asarray(query, dtype=float)
    sq = np.einsum("ij,ij->i", diff, diff)
    return np.exp(-sq / (2.0 * model.params.length_scale**2))


def dense_cov_rate(model, velocities):
    """Kdot_ij = -(1/l^2) K_ij (d_i - d_j)^T (v_i - v_j)."""
    v = np.asarray(velocities, dtype=float)
    dpos = model.points[:, None, :] - model.points[None, :, :]
    dvel = v[:, None, :] - v[None, :, :]
    l2 = model.params.length_scale**2
    return -(model.cov * np.einsum("ijk,ijk->ij", dpos, dvel)) / l2


def dense_query_rate(model, query, velocities):
    """kdot_r = (1/l^2) k(q, d_r) (q - d_r)^T v_r."""
    q = np.asarray(query, dtype=float)
    diff = q[None, :] - model.points
    return (dense_kernel_column(model, q) * np.einsum("ij,ij->i", diff, velocities)
            / model.params.length_scale**2)


def dense_terms(model, query, velocities):
    """(mu, dmu/dq, dmu/dt) with dmu/dt = kdot^T alpha - (A^-1 k)^T Kdot alpha."""
    q = np.asarray(query, dtype=float)
    kv = dense_kernel_column(model, q)
    mu = float(kv @ model.alpha)
    l2 = model.params.length_scale**2
    grad = -((model.alpha * kv) @ (q[None, :] - model.points)) / l2
    rate = float(dense_query_rate(model, q, velocities) @ model.alpha
                 - model.solve(kv) @ (dense_cov_rate(model, velocities) @ model.alpha))
    return mu, grad, rate


class TestKernel:
    # the SE kernel as build_model writes it into cov and mean_terms applies
    # it to queries: one length-scale-0.9 kernel, k(p, q) = exp(-|p-q|^2 / 1.62)

    def test_zero_distance_is_one(self):
        p = (1.3, -2.7)
        model = build_model([p], params=EXACT)
        assert model.cov[0, 0] == 1.0
        assert mean(model, p) == 1.0

    def test_value_at_one_length_scale(self):
        # exp(-0.81 / (2 * 0.81)) = exp(-1/2)
        model = build_model([[0.0, 0.0], [0.9, 0.0]], params=PARAMS)
        assert model.cov[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert model.cov[0, 1] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_value_at_ten_length_scales(self):
        model = build_model([[0.0, 0.0], [0.0, 9.0]], params=PARAMS)
        assert model.cov[0, 1] == pytest.approx(np.exp(-50.0), rel=1e-12)
        assert model.cov[0, 1] < 2e-22

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, q = rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)
            assert mean(build_model([p], params=EXACT), q) == \
                mean(build_model([q], params=EXACT), p)
            cov = build_model([p, q], params=PARAMS).cov
            assert cov[0, 1] == cov[1, 0]

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            val = build_model([p, q], params=PARAMS).cov[0, 1]
            assert 0.0 < val <= 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KernelParams(length_scale=0.0)
        with pytest.raises(ValueError):
            KernelParams(jitter=-1e-9)


class TestBuildModel:
    def test_single_point_no_jitter(self):
        model = build_model([[0.0, 0.0]], params=KernelParams(0.9, 0.0))
        assert model.cov.shape == (1, 1)
        assert model.cov[0, 0] == 1.0
        assert model.alpha[0] == pytest.approx(1.0, abs=1e-12)

    def test_far_pair_is_near_identity(self):
        # separation 20 length scales: off-diagonal exp(-200)
        model = build_model([[0.0, 0.0], [18.0, 0.0]], params=PARAMS)
        assert model.cov[0, 1] < 1e-80
        assert np.allclose(model.alpha, [1.0, 1.0], atol=1e-7)

    def test_duplicate_points_zero_jitter_fails(self):
        with pytest.raises(FactorizationFailure):
            build_model([[1.0, 2.0], [1.0, 2.0]], params=KernelParams(0.9, 0.0))

    def test_factor_reconstructs_jittered_cov(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 25)
        rebuilt = model.chol_lower @ model.chol_lower.T
        target = model.cov + PARAMS.jitter * np.eye(25)
        assert np.max(np.abs(rebuilt - target)) <= 1e-10 * np.max(np.abs(target))

    def test_alpha_solves_system(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 12)
        target = model.cov + PARAMS.jitter * np.eye(12)
        assert np.allclose(target @ model.alpha, np.ones(12), atol=1e-9)

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0], [np.nan, 1.0]],
        [[0.0, 0.0], [1.0, np.inf]],
    ], ids=["nan-point", "inf-point"])
    def test_non_finite_input_is_refused(self, points):
        with pytest.raises(ValueError, match="finite"):
            build_model(points, params=PARAMS)


class TestPredictiveMean:
    def test_training_point_single(self):
        model = build_model([[2.0, -1.0]], params=KernelParams(0.9, 0.0))
        assert mean(model, (2.0, -1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_far_query_vanishes(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 10, spread=1.0)
        assert abs(mean(model, (100.0, 100.0))) < 1e-6

    def test_single_point_closed_form(self):
        model = build_model([[0.0, 0.0]], params=KernelParams(0.9, 0.0))
        assert mean(model, (0.9, 0.0)) == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_interpolation_at_grid_spacing(self):
        # 0.2 m spaced line, jitter 1e-8: |mu - 1| at any training point <= 1e-4
        points = np.stack([np.arange(40) * 0.2, np.zeros(40)], axis=1)
        model = build_model(points, params=PARAMS)
        for point in points:
            assert abs(mean(model, point) - 1.0) <= 1e-4


class TestMeanGradient:
    def test_zero_at_kernel_extremum(self):
        model = build_model([[0.5, -0.5]], params=KernelParams(0.9, 0.0))
        assert np.allclose(mean_grad(model, (0.5, -0.5)), 0.0, atol=1e-14)

    def test_single_point_closed_form(self):
        # d mu/dq = -mu (q - d) / l^2 = -(exp(-1/2) * 0.9 / 0.81, 0)
        model = build_model([[0.0, 0.0]], params=KernelParams(0.9, 0.0))
        grad = mean_grad(model, (0.9, 0.0))
        assert grad[0] == pytest.approx(-0.6739229552362593, abs=1e-12)
        assert grad[1] == pytest.approx(0.0, abs=1e-15)

    def test_mirror_symmetry(self):
        model = build_model([[0.0, 1.0], [0.0, -1.0]], params=PARAMS)
        grad = mean_grad(model, (2.0, 0.0))
        assert grad[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(100 + n)
        step = 1e-5
        for _ in range(34):
            model = random_model(rng, n)
            query = rng.uniform(-3, 3, 2)
            grad = mean_grad(model, query)
            for axis in range(2):
                offset = np.zeros(2)
                offset[axis] = step
                numeric = (mean(model, query + offset)
                           - mean(model, query - offset)) / (2 * step)
                denom = max(abs(numeric), 1e-9)
                assert abs(grad[axis] - numeric) / denom <= 1e-6


class TestTimeDerivatives:
    def test_uniform_translation_zeroes_cov_rate(self):
        # a rigid translation leaves K unchanged, so dmu/dt = kdot^T alpha,
        # which is -grad mu . v
        rng = np.random.default_rng(7)
        model = random_model(rng, 15)
        velocity = np.tile([0.7, -0.3], (15, 1))
        assert np.all(dense_cov_rate(model, velocity) == 0.0)
        for query in rng.uniform(-3, 3, (10, 2)):
            _, grad, rate = mean_terms(model, query, velocity)
            assert rate == pytest.approx(-grad @ [0.7, -0.3], rel=1e-12,
                                         abs=1e-18)

    def test_zero_velocity_zeroes_both(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 6)
        zeros = np.zeros((6, 2))
        assert np.all(dense_cov_rate(model, zeros) == 0.0)
        assert np.all(dense_query_rate(model, (0.0, 0.0), zeros) == 0.0)
        for query in rng.uniform(-3, 3, (5, 2)):
            assert mean_rate(model, query, zeros) == 0.0

    def test_cov_rate_symmetric(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 10)
        vel = rng.uniform(-1, 1, (10, 2))
        kdot = dense_cov_rate(model, vel)
        assert np.allclose(kdot, kdot.T, atol=1e-15)

    def test_cov_rate_matches_finite_difference(self):
        rng = np.random.default_rng(10)
        delta = 1e-5
        for _ in range(20):
            n = rng.integers(2, 12)
            points = rng.uniform(-3, 3, (n, 2))
            vel = rng.uniform(-1, 1, (n, 2))
            model = build_model(points, params=PARAMS)
            kdot = dense_cov_rate(model, vel)
            plus = build_model(points + delta * vel, params=PARAMS).cov
            minus = build_model(points - delta * vel, params=PARAMS).cov
            numeric = (plus - minus) / (2 * delta)
            scale = max(np.max(np.abs(numeric)), 1e-9)
            assert np.max(np.abs(kdot - numeric)) / scale <= 1e-6

    def test_query_rate_single_point_closed_form(self):
        # mirror image of the mean gradient for a point moving along +x
        model = build_model([[0.0, 0.0]], params=KernelParams(0.9, 0.0))
        assert mean_rate(model, (0.9, 0.0), [[1.0, 0.0]]) == pytest.approx(
            0.6739229552362593, abs=1e-12)

    def test_query_rate_orthogonal_motion(self):
        model = build_model([[0.0, 0.0]], params=PARAMS)
        assert mean_rate(model, (2.0, 0.0), [[0.0, 1.4]]) == pytest.approx(0.0, abs=1e-15)

    def test_query_rate_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        delta = 1e-5
        for _ in range(20):
            n = rng.integers(1, 12)
            points = rng.uniform(-3, 3, (n, 2))
            vel = rng.uniform(-1, 1, (n, 2))
            query = rng.uniform(-3, 3, 2)
            model = build_model(points, params=PARAMS)
            rate = dense_query_rate(model, query, vel)
            plus = build_model(points + delta * vel, params=PARAMS)
            minus = build_model(points - delta * vel, params=PARAMS)
            kv_plus = dense_kernel_column(plus, query)
            kv_minus = dense_kernel_column(minus, query)
            numeric = (kv_plus - kv_minus) / (2 * delta)
            scale = max(np.max(np.abs(numeric)), 1e-9)
            assert np.max(np.abs(rate - numeric)) / scale <= 1e-6

    def test_velocity_shape_mismatch(self):
        model = build_model([[0.0, 0.0]], params=PARAMS)
        with pytest.raises(ValueError):
            mean_terms(model, (0.0, 0.0), [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_velocity_is_refused(self, bad):
        model = build_model([[0.0, 0.0], [0.5, 0.2]], params=PARAMS)
        with pytest.raises(ValueError, match="finite"):
            mean_terms(model, (0.3, 0.0), [[1.0, 0.0], [0.0, bad]])


def test_mean_time_rate_matches_finite_difference():
    # d/dt mu(q, D + V t) at t=0
    rng = np.random.default_rng(12)
    delta = 1e-5
    for _ in range(25):
        n = int(rng.integers(1, 15))
        points = rng.uniform(-3, 3, (n, 2))
        vel = rng.uniform(-1, 1, (n, 2))
        query = rng.uniform(-2, 2, 2)
        analytic = mean_rate(build_model(points, params=PARAMS), query, vel)
        mu_plus = mean(build_model(points + delta * vel, params=PARAMS), query)
        mu_minus = mean(build_model(points - delta * vel, params=PARAMS), query)
        numeric = (mu_plus - mu_minus) / (2 * delta)
        assert abs(analytic - numeric) / max(abs(numeric), 1e-8) <= 1e-5


def check_against_dense_forms(n, shift=(0.0, 0.0)):
    # point sets as bench_barrier draws them (0.2 m minimum spacing over a
    # 10 m square), moved by shift
    rng = np.random.default_rng(300 + n)

    def rel(value, ref):
        return np.max(np.abs(value - ref) / np.maximum(np.abs(ref), 1e-12))

    for _ in range(10):
        points, vel = random_dataset(rng, n)
        model = build_model(points + shift, params=PARAMS)
        for query in rng.uniform(-6, 6, (20, 2)) + shift:
            mu, grad, rate = mean_terms(model, query, vel)
            assert isinstance(mu, float) and isinstance(rate, float)
            assert grad.shape == (2,)
            ref_mu, ref_grad, ref_rate = dense_terms(model, query, vel)
            assert rel(mu, ref_mu) <= 1e-9
            assert rel(grad, ref_grad) <= 1e-9
            assert rel(rate, ref_rate) <= 1e-9


class TestMeanTerms:
    @pytest.mark.parametrize("n", [1, 5, 30, 60])
    def test_matches_dense_forms(self, n):
        check_against_dense_forms(n)

    @pytest.mark.parametrize("n", [1, 5, 30, 60])
    def test_matches_dense_forms_far_from_origin(self, n):
        # the rate expansion centres the points at their mean; on raw
        # coordinates 1.4 km out it loses 1.7e-9 relative in dmu/dt at
        # N = 60, past the bound
        check_against_dense_forms(n, shift=(1e3, -1e3))

    def test_without_velocities_skips_only_the_rate(self):
        rng = np.random.default_rng(13)
        points, vel = random_dataset(rng, 12, spread=2.0)
        model = build_model(points, params=PARAMS)
        for query in rng.uniform(-3, 3, (7, 2)):
            mu, grad, rate = mean_terms(model, query)
            assert rate is None
            moving = mean_terms(model, query, vel)
            assert mu == moving[0]
            np.testing.assert_array_equal(grad, moving[1])

    @pytest.mark.parametrize("moving", [False, True],
                             ids=["without-velocities", "with-velocities"])
    def test_one_point_equals_batched_forms_bit_for_bit(self, moving):
        # each reference is a (1, 2) batch, the one point the barrier asks
        # about; a longer batch can round the products differently
        rng = np.random.default_rng(14)
        for n in range(1, 61):
            points, vel = random_dataset(rng, n)
            model = build_model(points, params=PARAMS)
            velocities = vel if moving else None
            queries = np.concatenate([rng.uniform(-6, 6, (3, 2)),
                                      points[:1] + rng.uniform(-0.3, 0.3, (1, 2))])
            for query in queries:
                mu, grad, rate = mean_terms(model, query, velocities)
                ref_mu, ref_grad, ref_rate = batched_terms(model, query, velocities)
                assert mu == ref_mu[0]
                np.testing.assert_array_equal(grad, ref_grad[0])
                if moving:
                    assert rate == ref_rate[0]
                else:
                    assert rate is None


def batched_terms(model, queries, velocities=None):
    """The batched form of mean_terms over a (Q, 2) batch of queries, the
    reference that the one-point form reproduces bit for bit."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    l2 = model.params.length_scale**2
    diff = q[:, None, :] - model.points[None, :, :]
    sq = np.einsum("...k,...k->...", diff, diff)
    k = np.exp(-sq / (2.0 * l2))
    mu = k @ model.alpha
    dmu_dq = -np.einsum("qi,qik->qk", k * model.alpha, diff) / l2
    if velocities is None:
        return mu, dmu_dq, None
    v = np.asarray(velocities, dtype=float)
    d = model.points - model.points.sum(axis=0) / model.size
    rows = np.empty((model.size, 6))
    rows[:, 0] = 1.0
    rows[:, 1:3] = v
    rows[:, 3:5] = d
    rows[:, 5] = np.einsum("ik,ik->i", d, v)
    p = model.cov @ (rows * model.alpha[:, None])
    kdot_alpha = -np.einsum("ij,ij->i", rows @ _RATE_PAIRING, p) / l2
    beta = model.solve(kdot_alpha)
    kdot = k * np.einsum("qik,ik->qi", diff, v) / l2
    return mu, dmu_dq, kdot @ model.alpha - k @ beta


# Rectangles as (x_range, y_range, resolution): non-square and off-centre, a
# single row, a single column, and a step that does not divide the range.
GRID_WINDOWS = [
    ((-3.7, 1.2), (0.4, 4.9), 0.3),
    ((1.3, 1.3), (-4.0, 4.0), 0.25),
    ((-4.5, 3.5), (-0.7, -0.7), 0.2),
    ((-2.0, 2.0), (-2.0, 2.0), 0.35),
]


@pytest.mark.parametrize("n", [1, 5, 30, 60])
def test_grid_mean_matches_mean_terms(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        points, _ = random_dataset(rng, n)
        model = build_model(points, params=PARAMS)
        for (x_lo, x_hi), (y_lo, y_hi), res in GRID_WINDOWS:
            xs = np.arange(x_lo, x_hi + 0.5 * res, res)
            ys = np.arange(y_lo, y_hi + 0.5 * res, res)
            mu = grid_mean(model, xs, ys)
            assert mu.shape == (len(xs), len(ys))
            queries = np.stack(np.meshgrid(xs, ys, indexing="ij"),
                               axis=-1).reshape(-1, 2)
            reference = np.array([mean(model, query) for query in queries])
            rel = np.abs(mu.ravel() - reference) / np.abs(reference)
            assert np.max(rel) <= 1e-11


def run_fresh(*lines):
    """Run the lines in a fresh interpreter that imports gpnav from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "\n".join(lines)],
                   env={**os.environ, "PYTHONPATH": path}, check=True)


# each compiled scipy module gpnav loads: the gpnav module that takes
# functions from it, the public scipy module that exports them, their names
EXTENSIONS = {
    "scipy.linalg._flapack": ("gpnav.gp", "scipy.linalg.lapack",
                              ("dpotrf", "dpotrs")),
    "scipy.optimize._lsap": ("gpnav.perception.tracking", "scipy.optimize",
                             ("linear_sum_assignment",)),
}


def same_functions(ours, public, names):
    """Lines asserting that the gpnav module holds the public functions."""
    return [f"import {ours} as ours, {public} as public",
            *(f"assert ours.{name} is public.{name}" for name in names)]


class TestColdStart:
    def test_no_gpnav_module_loads_scipy_linalg_optimize_or_f2py(self):
        run_fresh(
            "import importlib, pkgutil, sys",
            "import gpnav, gpnav.perception",
            "for package in (gpnav, gpnav.perception):",
            "    for info in pkgutil.iter_modules(package.__path__):",
            "        if info.name != '__main__':",
            "            importlib.import_module(f'{package.__name__}.{info.name}')",
            "assert 'gpnav.perception.tracking' in sys.modules",
            "loaded = [name for name in sys.modules if name.split('.')[:2] in",
            "          (['scipy', 'linalg'], ['scipy', 'optimize'], ['numpy', 'f2py'])",
            f"          and name not in {sorted(EXTENSIONS)}]",
            "assert not loaded, loaded")

    @pytest.mark.parametrize("extension", sorted(EXTENSIONS),
                             ids=lambda name: name.rsplit(".", 1)[1])
    @pytest.mark.parametrize("gpnav_first", [True, False],
                             ids=["gpnav-first", "scipy-first"])
    def test_one_copy_of_each_extension_in_either_order(self, extension,
                                                        gpnav_first):
        ours, public, names = EXTENSIONS[extension]
        first, second = (ours, public) if gpnav_first else (public, ours)
        run_fresh(
            f"import {first}, sys",
            f"assert {extension!r} in sys.modules",
            f"import {second}",
            *same_functions(ours, public, names),
            f"module = sys.modules[{extension!r}]",
            *(f"assert module.{name} is ours.{name}" for name in names))

    def test_falls_back_to_the_public_module_without_the_file(self):
        run_fresh(
            "import importlib.machinery, sys",
            "importlib.machinery.EXTENSION_SUFFIXES = ['.missing']",
            "import gpnav.gp as gp, gpnav.perception.tracking as tracking",
            *(f"assert {public!r} in sys.modules"
              for _, public, _ in EXTENSIONS.values()),
            *(line for ours, public, names in EXTENSIONS.values()
              for line in same_functions(ours, public, names)),
            "model = gp.build_model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])",
            "assert model.chol_lower.shape == (3, 3) and model.alpha.all()",
            "rows, cols = tracking.linear_sum_assignment([[1.0, 2.0], [1.0, 9.0]])",
            "assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]")
