"""Association against a brute-force oracle, and Kalman velocity estimation."""

import itertools

import numpy as np
import pytest

from gpnav.perception.ellipse import Ellipse
from gpnav.perception.tracking import (ObstacleTracker, TrackerParams,
                                       affinity_matrix, associate, kalman_step,
                                       new_track)

PARAMS = TrackerParams()


def circle(x, y, r=0.3):
    return Ellipse(center=np.array([x, y]), semi_major=r, semi_minor=r, angle=0.0)


def brute_force_min_cost(cost):
    """Minimum assignment cost by enumerating permutations (n, m <= 6)."""
    rows, cols = cost.shape
    if rows <= cols:
        return min(sum(cost[i, p[i]] for i in range(rows))
                   for p in itertools.permutations(range(cols), rows))
    return min(sum(cost[p[j], j] for j in range(cols))
               for p in itertools.permutations(range(rows), cols))


class TestAssociate:
    def test_identical_lists_identity_matching(self):
        items = [circle(0, 0), circle(2, 1), circle(-1, 3)]
        matches, missed, fresh = associate(items, list(items), d_max=1.0)
        assert sorted(matches) == [(0, 0), (1, 1), (2, 2)]
        assert missed == [] and fresh == []

    def test_swap_cost_matrix(self):
        # cost [[1, 2], [2, 1]] -> diagonal matching, total 2
        tracks = [circle(0, 0), circle(3, 0)]
        dets = [circle(1, 0), circle(2, 0)]
        matches, _, _ = associate(tracks, dets, d_max=5.0)
        assert sorted(matches) == [(0, 0), (1, 1)]

    def test_gate_severs_distant_pair(self):
        matches, missed, fresh = associate([circle(0, 0)], [circle(1.5, 0)],
                                           d_max=1.0)
        assert matches == []
        assert missed == [0] and fresh == [0]

    def test_empty_lists(self):
        matches, missed, fresh = associate([], [circle(0, 0)], d_max=1.0)
        assert matches == [] and missed == [] and fresh == [0]
        matches, missed, fresh = associate([circle(0, 0)], [], d_max=1.0)
        assert matches == [] and missed == [0] and fresh == []

    def test_optimal_cost_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            tracks = [circle(*rng.uniform(-5, 5, 2)) for _ in range(rows)]
            dets = [circle(*rng.uniform(-5, 5, 2)) for _ in range(cols)]
            cost = affinity_matrix(tracks, dets)
            matches, _, _ = associate(tracks, dets, d_max=np.inf)
            total = sum(cost[i, j] for i, j in matches)
            assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)

    def test_affinity_entries_nonnegative(self):
        rng = np.random.default_rng(1)
        tracks = [circle(*rng.uniform(-3, 3, 2)) for _ in range(4)]
        dets = [circle(*rng.uniform(-3, 3, 2)) for _ in range(5)]
        assert np.all(affinity_matrix(tracks, dets) >= 0.0)

    def test_affinity_matches_pairwise_loop(self):
        rng = np.random.default_rng(2)
        tracks = [circle(*rng.uniform(-8, 8, 2)) for _ in range(20)]
        dets = [circle(*rng.uniform(-8, 8, 2)) for _ in range(18)]
        reference = np.zeros((20, 18))
        for i, track in enumerate(tracks):
            for j, det in enumerate(dets):
                reference[i, j] = float(np.linalg.norm(track.center - det.center))
        assert np.max(np.abs(affinity_matrix(tracks, dets) - reference)) <= 1e-14

    def test_affinity_of_empty_lists(self):
        assert affinity_matrix([], [circle(0, 0)]).shape == (0, 1)
        assert affinity_matrix([circle(0, 0)], []).shape == (1, 0)
        assert affinity_matrix([], []).shape == (0, 0)


class TestKalman:
    def test_noise_free_constant_velocity_exact_after_three_updates(self):
        # with (near-)zero noise the filter interpolates the measurements, so
        # a linear path gives the exact velocity once three updates are in
        params = TrackerParams(q_pos=0.0, q_vel=0.0, q_acc=0.0, q_shape=0.0,
                               r_center=1e-14, r_shape=1e-14)
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
        params = TrackerParams(q_pos=0.0, q_vel=0.0, q_acc=0.0, q_shape=0.0,
                               r_center=1e-14, r_shape=1e-14)
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
        before = np.trace(track.covariance)
        kalman_step(track, None, 0.05, PARAMS)
        assert np.trace(track.covariance) > before
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

    def test_angle_innovation_wraps_half_turn(self):
        # measurement angle near +pi/2 with state near -pi/2: equivalent
        # orientations must not produce a near-pi innovation jump
        params = TrackerParams()
        track = new_track(0, Ellipse(center=np.zeros(2), semi_major=0.5,
                                     semi_minor=0.2, angle=-1.5), params)
        kalman_step(track, Ellipse(center=np.zeros(2), semi_major=0.5,
                                   semi_minor=0.2, angle=1.5), 0.05, params)
        assert -np.pi / 2 <= track.state[8] < np.pi / 2
        assert abs(track.state[8]) > 1.3   # stayed near the shared orientation

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(3)
        track = new_track(0, circle(0.0, 0.0), PARAMS)
        for k in range(30):
            det = circle(*rng.uniform(-0.1, 0.1, 2)) if k % 4 else None
            kalman_step(track, det, 0.05, PARAMS)
            assert np.allclose(track.covariance, track.covariance.T, atol=1e-12)
            assert np.linalg.eigvalsh(track.covariance).min() >= -1e-12

    def test_dt_validation(self):
        track = new_track(0, circle(0.0, 0.0), PARAMS)
        with pytest.raises(ValueError):
            kalman_step(track, None, 0.0, PARAMS)


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
        assert np.any(track.velocity(min_age=2) != 0.0)

    def test_min_speed_gate_suppresses_slow_estimates(self):
        params = TrackerParams(min_speed=0.2)
        track = new_track(0, circle(0.0, 0.0), params)
        track.age = 5
        track.state[2:4] = [0.05, 0.05]
        assert np.allclose(track.velocity(2, params.min_speed), 0.0)
        track.state[2:4] = [0.5, 0.0]
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

    def test_far_detection_spawns_new_track(self):
        tracker = ObstacleTracker(TrackerParams(d_max=1.0))
        tracker.step([circle(0.0, 0.0)], dt=0.05)
        assignment = tracker.step([circle(3.0, 0.0)], dt=0.05)
        assert len(tracker.tracks) == 2
        assert assignment[0].age == 0
