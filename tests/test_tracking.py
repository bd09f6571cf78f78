"""Association against a brute-force oracle, the contract of scipy's
assignment solver that association relies on, Kalman velocity estimation, and
the per-axis filter against the dense 6-state filter it reduces to."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpnav.perception.ellipse import Ellipse
from gpnav.perception.tracking import (ObstacleTracker, TrackerParams,
                                       affinity_matrix, associate, kalman_step,
                                       linear_sum_assignment, new_track)

PARAMS = TrackerParams()
SRC = Path(__file__).resolve().parents[1] / "src"


def circle(x, y, r=0.3):
    return Ellipse(center=np.array([x, y]), semi_major=r, semi_minor=r, angle=0.0)


def random_centers(rng, count, bound):
    return rng.uniform(-bound, bound, (count, 2))


def brute_force_min_cost(cost):
    """Minimum assignment cost by enumerating permutations (n, m <= 6)."""
    rows, cols = cost.shape
    if rows <= cols:
        return min(sum(cost[i, p[i]] for i in range(rows))
                   for p in itertools.permutations(range(cols), rows))
    return min(sum(cost[p[j], j] for j in range(cols))
               for p in itertools.permutations(range(rows), cols))


def random_detection(rng, near):
    """An ellipse of random shape near a center."""
    semi_major = float(rng.uniform(0.1, 2.0))
    return Ellipse(center=near + rng.normal(0.0, 0.05, 2), semi_major=semi_major,
                   semi_minor=semi_major * float(rng.uniform(0.2, 1.0)),
                   angle=float(rng.uniform(-np.pi / 2, np.pi / 2)))


def state_vector(track):
    """[cx, cy, vx, vy, ax, ay] of a track."""
    return np.array([track.px, track.py, track.vx, track.vy, track.ax, track.ay])


def cov_matrix(track):
    """The symmetric 3x3 block P from a track's six distinct entries."""
    p00, p01, p02, p11, p12, p22 = track.cov
    return np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])


def dense_step(state, cov, detection, dt, params):
    """Reference: the full 6-state predict/update over [cx, cy, vx, vy, ax,
    ay], with a 6x6 covariance."""
    measured_idx = np.array([0, 1])
    transition = np.eye(6)
    transition[0, 2] = transition[1, 3] = dt
    transition[2, 4] = transition[3, 5] = dt
    transition[0, 4] = transition[1, 5] = 0.5 * dt * dt
    q = np.diag([params.q_pos] * 2 + [params.q_vel] * 2 + [params.q_acc] * 2)
    r = np.diag([params.r_center] * 2)
    state = transition @ state
    cov = transition @ cov @ transition.T + q
    if detection is None:
        return state, cov
    innovation = detection.center - state[measured_idx]
    gain = np.linalg.solve(cov[np.ix_(measured_idx, measured_idx)] + r,
                           cov[:, measured_idx].T).T
    state = state + gain @ innovation
    identity_less = np.eye(6)
    identity_less[np.arange(6)[:, None], measured_idx] -= gain
    cov = identity_less @ cov
    return state, 0.5 * (cov + cov.T)


def block_step(state, cov, detection, dt, params):
    """Reference: the (3, 2) state and shared 3x3 block filter in numpy."""
    transition = np.array([[1.0, dt, 0.5 * dt * dt],
                           [0.0, 1.0, dt],
                           [0.0, 0.0, 1.0]])
    state = transition @ state
    cov = (transition @ cov @ transition.T
           + np.diag([params.q_pos, params.q_vel, params.q_acc]))
    if detection is None:
        return state, cov
    gain = cov[:, 0] / (cov[0, 0] + params.r_center)
    state = state + np.outer(gain, detection.center - state[0])
    cov = cov - np.outer(gain, cov[0])
    return state, 0.5 * (cov + cov.T)


class TestAssociate:
    def test_identical_lists_identity_matching(self):
        items = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]])
        matches, missed, fresh = associate(items, items.copy(), d_max=1.0)
        assert sorted(matches) == [(0, 0), (1, 1), (2, 2)]
        assert missed == [] and fresh == []

    def test_swap_cost_matrix(self):
        # cost [[1, 2], [2, 1]] -> diagonal matching, total 2
        tracks = np.array([[0.0, 0.0], [3.0, 0.0]])
        dets = np.array([[1.0, 0.0], [2.0, 0.0]])
        matches, _, _ = associate(tracks, dets, d_max=5.0)
        assert sorted(matches) == [(0, 0), (1, 1)]

    def test_gate_severs_distant_pair(self):
        matches, missed, fresh = associate(np.zeros((1, 2)), np.array([[1.5, 0.0]]),
                                           d_max=1.0)
        assert matches == []
        assert missed == [0] and fresh == [0]

    def test_empty_lists(self):
        none, one = np.zeros((0, 2)), np.zeros((1, 2))
        matches, missed, fresh = associate(none, one, d_max=1.0)
        assert matches == [] and missed == [] and fresh == [0]
        matches, missed, fresh = associate(one, none, d_max=1.0)
        assert matches == [] and missed == [0] and fresh == []

    def test_optimal_cost_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            tracks = random_centers(rng, rows, 5)
            dets = random_centers(rng, cols, 5)
            cost = affinity_matrix(tracks, dets)
            matches, _, _ = associate(tracks, dets, d_max=np.inf)
            total = sum(cost[i, j] for i, j in matches)
            assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)

    def test_affinity_entries_nonnegative(self):
        rng = np.random.default_rng(1)
        tracks = random_centers(rng, 4, 3)
        dets = random_centers(rng, 5, 3)
        assert np.all(affinity_matrix(tracks, dets) >= 0.0)

    def test_affinity_matches_pairwise_loop(self):
        rng = np.random.default_rng(2)
        tracks = random_centers(rng, 20, 8)
        dets = random_centers(rng, 18, 8)
        reference = np.zeros((20, 18))
        for i, track in enumerate(tracks):
            for j, det in enumerate(dets):
                reference[i, j] = float(np.linalg.norm(track - det))
        assert np.max(np.abs(affinity_matrix(tracks, dets) - reference)) <= 1e-14

    @settings(max_examples=300)
    @given(st.integers(0, 25), st.integers(0, 25), st.data())
    def test_affinity_equals_norm_bit_for_bit(self, n, m, data):
        coordinates = st.floats(-1e6, 1e6, allow_nan=False)
        ct = data.draw(arrays(float, (n, 2), elements=coordinates))
        cd = data.draw(arrays(float, (m, 2), elements=coordinates))
        reference = np.linalg.norm(ct[:, None] - cd[None], axis=2)
        # the tracker passes its centres as the transpose of a (2, n) array
        for tracks in (ct, np.array(ct.T).T):
            assert np.array_equal(affinity_matrix(tracks, cd), reference)

    def test_affinity_of_empty_lists(self):
        none, one = np.zeros((0, 2)), np.zeros((1, 2))
        assert affinity_matrix(none, one).shape == (0, 1)
        assert affinity_matrix(one, none).shape == (1, 0)
        assert affinity_matrix(none, none).shape == (0, 0)


class TestMinCostAssignment:
    """The contract of tracking.linear_sum_assignment that associate relies on."""

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_non_finite_costs_raise(self, bad, shape):
        cost = np.arange(6.0).reshape(shape)
        cost[1, 1] = bad
        with pytest.raises(ValueError, match="invalid numeric entries"):
            linear_sum_assignment(cost)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_plus_inf_is_a_forbidden_pair(self, shape):
        cost = np.arange(6.0).reshape(shape)
        cost[1, 1] = np.inf
        rows, cols = linear_sum_assignment(cost)
        assert (1, 1) not in zip(rows.tolist(), cols.tolist())
        assert cost[rows, cols].sum() == brute_force_min_cost(cost)
        with pytest.raises(ValueError, match="infeasible"):
            linear_sum_assignment(np.full(shape, np.inf))

    def test_huge_finite_costs_are_accepted(self):
        cost = np.array([[1e200, 1e300], [1e300, 1e200]])
        with np.errstate(all="raise"):
            rows, cols = linear_sum_assignment(cost)
        assert rows.tolist() == [0, 1] and cols.tolist() == [0, 1]

    def test_empty_and_non_matrix_input(self):
        for shape in ((0, 0), (0, 3), (3, 0)):
            rows, cols = linear_sum_assignment(np.zeros(shape))
            assert rows.size == cols.size == 0
        with pytest.raises(ValueError, match="2-D"):
            linear_sum_assignment([1.0, 2.0])

    def test_no_gpnav_import_loads_scipy_optimize(self):
        # the solver comes from the compiled _lsap module alone; the public
        # scipy.optimize package and its dependencies stay unloaded
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", "import gpnav, gpnav.cli, sys; "
             "import gpnav.perception.tracking; "
             "assert 'scipy.optimize' not in sys.modules"],
            env={**os.environ, "PYTHONPATH": path}, check=True)


class TestKalman:
    def test_noise_free_constant_velocity_exact_after_three_updates(self):
        # with (near-)zero noise the filter interpolates the measurements, so
        # a linear path gives the exact velocity once three updates are in
        params = TrackerParams(q_pos=0.0, q_vel=0.0, q_acc=0.0, r_center=1e-14)
        dt, v_true = 0.1, np.array([0.6, -0.4])
        track = new_track(0, circle(0.0, 0.0), params)
        for k in range(1, 4):
            pos = v_true * dt * k
            kalman_step(track, circle(pos[0], pos[1]), dt, params)
        assert np.allclose(track.velocity(min_age=0), v_true, atol=1e-6)

    def test_noise_free_matches_finite_difference_of_measurements(self):
        # a quadratic path is fit exactly by the constant-acceleration model,
        # so the filter velocity must equal the second-order backward
        # difference of the measurements (both give the instantaneous value)
        params = TrackerParams(q_pos=0.0, q_vel=0.0, q_acc=0.0, r_center=1e-14)
        dt = 0.05
        rng = np.random.default_rng(2)
        v0, acc = rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2)
        times = dt * np.arange(4)
        centers = v0 * times[:, None] + 0.5 * acc * times[:, None] ** 2
        track = new_track(0, circle(*centers[0]), params)
        for c in centers[1:]:
            kalman_step(track, circle(*c), dt, params)
        backward_diff = (1.5 * centers[3] - 2.0 * centers[2]
                         + 0.5 * centers[1]) / dt
        assert np.allclose(backward_diff, v0 + acc * times[3], atol=1e-12)
        assert np.allclose(track.velocity(min_age=0), backward_diff, atol=1e-5)

    def test_predict_only_grows_covariance_trace(self):
        track = new_track(0, circle(1.0, 1.0), PARAMS)
        before = np.trace(cov_matrix(track))
        kalman_step(track, None, 0.05, PARAMS)
        assert np.trace(cov_matrix(track)) > before
        assert track.misses == 1

    def test_seeded_noisy_velocity_within_tolerance(self):
        # constant velocity (1.0, 0.5), center noise sigma = 0.02, 20 updates
        rng = np.random.default_rng(7)
        dt, v_true = 0.05, np.array([1.0, 0.5])
        track = new_track(0, circle(0.0, 0.0), PARAMS)
        for k in range(1, 21):
            pos = v_true * dt * k + rng.normal(0.0, 0.02, 2)
            kalman_step(track, circle(pos[0], pos[1]), dt, PARAMS)
        err = np.linalg.norm(track.velocity(min_age=2) - v_true)
        assert err <= 0.1

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(3)
        track = new_track(0, circle(0.0, 0.0), PARAMS)
        for k in range(30):
            det = circle(*rng.uniform(-0.1, 0.1, 2)) if k % 4 else None
            kalman_step(track, det, 0.05, PARAMS)
            assert np.linalg.eigvalsh(cov_matrix(track)).min() >= -1e-12

    def test_matches_dense_six_state_filter(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            noise = 10.0 ** rng.uniform(-6.0, 0.0, 4)
            params = TrackerParams(q_pos=noise[0], q_vel=noise[1], q_acc=noise[2],
                                   r_center=noise[3])
            center = np.zeros(2)
            track = new_track(0, random_detection(rng, center), params)
            state = state_vector(track)
            cov = np.diag([params.r_center] * 2 + [1.0] * 4)
            for _ in range(40):
                dt = float(rng.uniform(0.01, 0.3))
                center = center + rng.normal(0.0, 0.2, 2)
                detection = (random_detection(rng, center)
                             if rng.random() < 0.7 else None)
                kalman_step(track, detection, dt, params)
                state, cov = dense_step(state, cov, detection, dt, params)
                denom = np.maximum(np.abs(state), 1.0)
                assert np.max(np.abs(state_vector(track) - state) / denom) <= 1e-9
                reduced = np.kron(cov_matrix(track), np.eye(2))
                scale = np.max(np.abs(cov))
                assert np.max(np.abs(reduced - cov)) <= 1e-9 * scale

    def test_matches_numpy_block_filter(self):
        # the float step and the numpy form round differently; over these
        # noise densities (1e-6 to 1) each lies up to ~2e-12 from the same
        # filter run in long double, so the bound leaves room above that
        rng = np.random.default_rng(12)
        for _ in range(300):
            noise = 10.0 ** rng.uniform(-6.0, 0.0, 4)
            params = TrackerParams(q_pos=noise[0], q_vel=noise[1], q_acc=noise[2],
                                   r_center=noise[3])
            center = np.zeros(2)
            track = new_track(0, random_detection(rng, center), params)
            state, cov = state_vector(track).reshape(3, 2), cov_matrix(track)
            for _ in range(40):
                dt = float(rng.uniform(0.01, 0.3))
                center = center + rng.normal(0.0, 0.2, 2)
                detection = (random_detection(rng, center)
                             if rng.random() < 0.7 else None)
                kalman_step(track, detection, dt, params)
                state, cov = block_step(state, cov, detection, dt, params)
                assert np.max(np.abs(state_vector(track).reshape(3, 2) - state)
                              / np.maximum(np.abs(state), 1.0)) <= 1e-10
                assert (np.max(np.abs(cov_matrix(track) - cov))
                        <= 1e-10 * np.max(np.abs(cov)))

    def test_dt_validation(self):
        track = new_track(0, circle(0.0, 0.0), PARAMS)
        with pytest.raises(ValueError):
            kalman_step(track, None, 0.0, PARAMS)

    def test_params_reject_zero_center_noise(self):
        # the gain P[:, 0] / (P[0, 0] + r_center) would divide zero by zero
        with pytest.raises(ValueError, match="q_pos \\+ r_center"):
            TrackerParams(q_pos=0.0, r_center=0.0)
        TrackerParams(q_pos=0.0, r_center=1e-14)
        TrackerParams(q_pos=1e-14, r_center=0.0)


class TestTracker:
    def test_stable_id_for_slow_obstacle(self):
        tracker = ObstacleTracker(TrackerParams(d_max=1.0))
        positions = [(0.02 * k, 0.01 * k) for k in range(60)]
        ids = set()
        for x, y in positions:
            assignment = tracker.step([circle(x, y)], dt=0.05)
            ids.add(assignment[0].track_id)
        assert len(ids) == 1

    def test_new_track_zero_velocity_until_warm(self):
        tracker = ObstacleTracker(PARAMS)
        assignment = tracker.step([circle(0.0, 0.0)], dt=0.05)
        track = assignment[0]
        assert track.age == 0
        assert np.allclose(track.velocity(min_age=2), 0.0)
        tracker.step([circle(0.05, 0.0)], dt=0.05)
        assert track.age == 1
        assert np.allclose(track.velocity(min_age=2), 0.0)
        tracker.step([circle(0.10, 0.0)], dt=0.05)
        assert track.age == 2
        assert np.any(np.asarray(track.velocity(min_age=2)) != 0.0)

    def test_min_speed_gate_suppresses_slow_estimates(self):
        params = TrackerParams(min_speed=0.2)
        track = new_track(0, circle(0.0, 0.0), params)
        track.age = 5
        track.vx, track.vy = 0.05, 0.05
        assert np.allclose(track.velocity(2, params.min_speed), 0.0)
        track.vx, track.vy = 0.5, 0.0
        assert np.allclose(track.velocity(2, params.min_speed), [0.5, 0.0])

    def test_track_dropped_after_five_misses(self):
        tracker = ObstacleTracker(PARAMS)
        tracker.step([circle(0.0, 0.0)], dt=0.05)
        assert len(tracker.tracks) == 1
        for _ in range(5):
            tracker.step([], dt=0.05)
        assert len(tracker.tracks) == 0

    def test_ids_never_reused(self):
        tracker = ObstacleTracker(PARAMS)
        first = tracker.step([circle(0.0, 0.0)], dt=0.05)[0].track_id
        for _ in range(5):
            tracker.step([], dt=0.05)
        second = tracker.step([circle(0.0, 0.0)], dt=0.05)[0].track_id
        assert second != first

    def test_step_rejects_nonpositive_dt_with_or_without_tracks(self):
        tracker = ObstacleTracker(PARAMS)
        for dt in (0.0, -0.05):
            with pytest.raises(ValueError, match="dt must be > 0"):
                tracker.step([circle(0.0, 0.0)], dt)
        assert tracker.tracks == []
        tracker.step([circle(0.0, 0.0)], dt=0.05)
        with pytest.raises(ValueError, match="dt must be > 0"):
            tracker.step([circle(0.0, 0.0)], 0.0)

    def test_far_detection_spawns_new_track(self):
        tracker = ObstacleTracker(TrackerParams(d_max=1.0))
        tracker.step([circle(0.0, 0.0)], dt=0.05)
        assignment = tracker.step([circle(3.0, 0.0)], dt=0.05)
        assert len(tracker.tracks) == 2
        assert assignment[0].age == 0
