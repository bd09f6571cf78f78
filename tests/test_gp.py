"""GP regression: kernel, model construction, and the mean-and-derivatives pass."""

import numpy as np
import pytest

from gpnav.bench import random_dataset
from gpnav.gp import FactorizationFailure, KernelParams, build_model, mean_terms

PARAMS = KernelParams(length_scale=0.9, jitter=1e-8)
EXACT = KernelParams(length_scale=0.9, jitter=0.0)


def random_model(rng, n, spread=3.0, params=PARAMS):
    points = rng.uniform(-spread, spread, (n, 2))
    return build_model(points, params=params)


def mean(model, query):
    return mean_terms(model, query)[0][0]


def mean_grad(model, query):
    return mean_terms(model, query)[1][0]


def mean_rate(model, query, velocities):
    return mean_terms(model, query, velocities)[2][0]


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
        assert np.allclose(target @ model.alpha, model.labels, atol=1e-9)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            build_model([[0.0, 0.0]], labels=[1.0, 1.0], params=PARAMS)


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
        mu, _, _ = mean_terms(model, points)
        assert np.max(np.abs(mu - 1.0)) <= 1e-4


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
            assert rate[0] == pytest.approx(-grad[0] @ [0.7, -0.3], rel=1e-12,
                                            abs=1e-18)

    def test_zero_velocity_zeroes_both(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 6)
        zeros = np.zeros((6, 2))
        assert np.all(dense_cov_rate(model, zeros) == 0.0)
        assert np.all(dense_query_rate(model, (0.0, 0.0), zeros) == 0.0)
        _, _, rate = mean_terms(model, rng.uniform(-3, 3, (5, 2)), zeros)
        assert np.all(rate == 0.0)

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


class TestMeanTerms:
    @pytest.mark.parametrize("n", [1, 5, 30, 60])
    def test_matches_dense_forms(self, n):
        # point sets as bench_barrier draws them (0.2 m minimum spacing over a
        # 10 m square); all queries of a model go through one mean_terms call
        rng = np.random.default_rng(300 + n)

        def rel(value, ref):
            return np.max(np.abs(value - ref) / np.maximum(np.abs(ref), 1e-12))

        for _ in range(10):
            points, vel = random_dataset(rng, n)
            model = build_model(points, params=PARAMS)
            queries = rng.uniform(-6, 6, (20, 2))
            mu, grad, rate = mean_terms(model, queries, vel)
            assert mu.shape == (20,) and grad.shape == (20, 2) and rate.shape == (20,)
            for i, query in enumerate(queries):
                ref_mu, ref_grad, ref_rate = dense_terms(model, query, vel)
                assert rel(mu[i], ref_mu) <= 1e-9
                assert rel(grad[i], ref_grad) <= 1e-9
                assert rel(rate[i], ref_rate) <= 1e-9

    def test_without_velocities_skips_only_the_rate(self):
        rng = np.random.default_rng(13)
        points, vel = random_dataset(rng, 12, spread=2.0)
        model = build_model(points, params=PARAMS)
        queries = rng.uniform(-3, 3, (7, 2))
        mu, grad, rate = mean_terms(model, queries)
        assert rate is None
        moving = mean_terms(model, queries, vel)
        np.testing.assert_array_equal(mu, moving[0])
        np.testing.assert_array_equal(grad, moving[1])
