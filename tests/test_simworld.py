"""Unicycle integration, obstacle motion, and ray-cast sensor geometry."""

import math

import numpy as np
import pytest

from gpnav.controller import ControlInput
from gpnav.simworld import (LidarSpec, MotionSpec, Obstacle, RobotState, World,
                            _beam_angles, cast_lidar, step_dynamics, wrap_angle)


class TestDynamics:
    def test_straight_line_unit_step(self):
        state = step_dynamics(RobotState(0.0, 0.0, 0.0), ControlInput(1.0, 0.0), 1.0)
        assert state.x == pytest.approx(1.0, abs=1e-12)
        assert state.y == pytest.approx(0.0, abs=1e-12)
        assert state.theta == pytest.approx(0.0, abs=1e-15)

    def test_zero_input_keeps_state(self):
        start = RobotState(2.0, -1.0, 0.7)
        state = step_dynamics(start, ControlInput(0.0, 0.0), 0.05)
        assert (state.x, state.y, state.theta) == (start.x, start.y, start.theta)

    def test_full_circle_returns_to_start(self):
        # v = omega = 1 for a total time of 2*pi: unit circle; integrate in
        # 126 RK4 substeps so the fourth-order error stays below 1e-6
        steps = 126
        dt = 2.0 * np.pi / steps
        state = RobotState(0.0, 0.0, 0.0)
        for _ in range(steps):
            state = step_dynamics(state, ControlInput(1.0, 1.0), dt)
        assert abs(state.x) <= 1e-6 and abs(state.y) <= 1e-6

    def test_heading_constant_without_omega(self):
        state = RobotState(0.0, 0.0, 0.3)
        for _ in range(100):
            state = step_dynamics(state, ControlInput(0.8, 0.0), 0.05)
        assert state.theta == pytest.approx(0.3, abs=1e-15)

    def test_heading_wraps(self):
        state = RobotState(0.0, 0.0, 3.0)
        state = step_dynamics(state, ControlInput(0.0, 2.0), 0.2)
        assert -np.pi <= state.theta < np.pi

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            step_dynamics(RobotState(0, 0, 0), ControlInput(1.0, 0.0), 0.0)


class TestObstacles:
    def test_static_unchanged(self):
        world = World([Obstacle("s", 0.5, np.array([1.0, 2.0]))])
        world.advance(0.05)
        assert np.allclose(world.centres[0], [1.0, 2.0])

    def test_constant_velocity_step(self):
        world = World([Obstacle("m", 0.5, np.array([0.0, 0.0]),
                                MotionSpec(kind="velocity", velocity=(1.0, 0.0)))])
        world.advance(0.05)
        assert np.allclose(world.centres[0], [0.05, 0.0])

    def test_sinusoid_closed_form_no_drift(self):
        motion = MotionSpec(kind="sinusoid", axis=(0.0, 1.0), amplitude=1.0,
                            period=4.0)
        world = World([Obstacle("b", 0.5, np.array([2.0, 0.0]), motion)])
        for _ in range(20):     # 20 x 0.05 = 1.0 s
            world.advance(0.05)
        # displacement amplitude * sin(2 pi t / T) = 1.0 at t = 1, T = 4
        assert np.allclose(world.centres[0], [2.0, 1.0], atol=1e-12)

    def test_worlds_from_one_list_start_at_the_spawns(self):
        """A World moves its own centres and writes nothing into its inputs."""
        obstacles = [
            Obstacle("m", 0.5, np.array([0.0, 0.0]),
                     MotionSpec(kind="velocity", velocity=(1.0, 0.0))),
            Obstacle("b", 0.5, np.array([2.0, 0.0]),
                     MotionSpec(kind="sinusoid", axis=(0.0, 1.0), amplitude=1.0,
                                period=4.0)),
        ]

        def fields_of(obs):
            return [{name: value.tolist() if isinstance(value, np.ndarray) else value
                     for name, value in vars(ob).items()} for ob in obs]

        before = fields_of(obstacles)
        first = World(obstacles)
        for _ in range(20):     # 1 s
            first.advance(0.05)
        assert np.allclose(first.centres, [[1.0, 0.0], [2.0, 1.0]], atol=1e-12)
        second = World(obstacles)
        assert second.centres.tolist() == [[0.0, 0.0], [2.0, 0.0]]
        assert fields_of(obstacles) == before

    def test_clearance(self):
        world = World([Obstacle("a", 0.5, np.array([0.0, 0.0])),
                       Obstacle("b", 1.0, np.array([5.0, 0.0]))])
        assert world.clearance((2.0, 0.0)) == pytest.approx(1.5)
        assert World([]).clearance((0.0, 0.0)) == np.inf

    @pytest.mark.parametrize("seed", range(3))
    def test_clearance_matches_per_obstacle_norm(self, seed):
        """Bit for bit np.linalg.norm taken one obstacle at a time."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            obstacles = [Obstacle(f"o{i}", rng.uniform(0.05, 1.5),
                                  rng.uniform(-20.0, 20.0, 2))
                         for i in range(int(rng.integers(1, 12)))]
            world = World(obstacles)
            point = rng.uniform(-20.0, 20.0, 2) * rng.choice([1e-3, 1.0, 1e3])
            reference = min(float(np.linalg.norm(point - centre)) - ob.radius
                            for ob, centre in zip(obstacles, world.centres))
            assert world.clearance(point) == reference

    def test_motion_validation(self):
        with pytest.raises(ValueError):
            MotionSpec(kind="teleport")
        with pytest.raises(ValueError):
            MotionSpec(kind="sinusoid", period=0.0)
        with pytest.raises(ValueError):
            Obstacle("bad", 0.0, np.zeros(2))


class TestLidar:
    SPEC = LidarSpec(beam_count=360, max_range=6.0)

    def test_circle_dead_ahead(self):
        world = World([Obstacle("c", 0.5, np.array([2.0, 0.0]))])
        scan = cast_lidar(world, RobotState(0.0, 0.0, 0.0), self.SPEC)
        assert scan.hits[0]
        assert scan.ranges[0] == pytest.approx(1.5, abs=1e-12)

    def test_empty_world_all_misses(self):
        scan = cast_lidar(World([]), RobotState(0.0, 0.0, 0.0), self.SPEC)
        assert not np.any(scan.hits)
        assert np.all(scan.ranges == self.SPEC.max_range)

    def test_obstacle_behind_does_not_hit_forward_beam(self):
        world = World([Obstacle("c", 0.5, np.array([-2.0, 0.0]))])
        scan = cast_lidar(world, RobotState(0.0, 0.0, 0.0), self.SPEC)
        assert not scan.hits[0]
        assert scan.ranges[0] == self.SPEC.max_range
        back = 180
        assert scan.hits[back]
        assert scan.ranges[back] == pytest.approx(1.5, abs=1e-12)

    def test_miss_iff_max_range(self):
        world = World([Obstacle("c", 0.8, np.array([3.0, 1.0]))])
        scan = cast_lidar(world, RobotState(0.0, 0.0, 0.4), self.SPEC)
        assert np.all((scan.ranges == self.SPEC.max_range) == ~scan.hits)

    def test_heading_rotates_beam_frame(self):
        world = World([Obstacle("c", 0.5, np.array([0.0, 2.0]))])
        # robot facing +y: the obstacle sits on beam 0
        scan = cast_lidar(world, RobotState(0.0, 0.0, np.pi / 2), self.SPEC)
        assert scan.hits[0]
        assert scan.ranges[0] == pytest.approx(1.5, abs=1e-12)

    def test_inside_circle_returns_exit_distance(self):
        world = World([Obstacle("c", 2.0, np.array([0.0, 0.0]))])
        scan = cast_lidar(world, RobotState(0.5, 0.0, 0.0), self.SPEC)
        assert scan.ranges[0] == pytest.approx(1.5, abs=1e-12)

    def test_matches_ray_march_oracle(self):
        rng = np.random.default_rng(0)
        world = World([Obstacle(f"o{i}", rng.uniform(0.3, 1.0),
                                rng.uniform(-4, 4, 2)) for i in range(5)])
        spec = LidarSpec(beam_count=40, max_range=6.0)
        angles = _beam_angles(spec.beam_count)
        checked = 0
        for _ in range(25):
            robot = RobotState(*rng.uniform(-3, 3, 2), rng.uniform(-np.pi, np.pi))
            if world.clearance(robot.position) <= 0.05:
                continue
            scan = cast_lidar(world, robot, spec)
            for b in range(spec.beam_count):
                marched = _ray_march(world, robot.position,
                                     robot.theta + angles[b], spec.max_range)
                assert abs(scan.ranges[b] - marched) <= 1e-3
                checked += 1
        assert checked >= 900

    def test_noise_clipped_below_max_range(self):
        world = World([Obstacle("c", 0.5, np.array([5.9, 0.0]))])
        spec = LidarSpec(beam_count=4, max_range=6.0, noise_sigma=0.5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            scan = cast_lidar(world, RobotState(0.0, 0.0, 0.0), spec, rng)
            assert np.all((scan.ranges == spec.max_range) == ~scan.hits)
            assert np.all(scan.ranges > 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_obstacle_loop(self, seed):
        """Bit for bit the ranges and hits of one obstacle at a time."""
        rng = np.random.default_rng(seed)
        spec = LidarSpec(beam_count=int(rng.choice([1, 7, 360])), max_range=6.0)
        for trial in range(60):
            robot = RobotState(*rng.uniform(-2, 2, 2), rng.uniform(-np.pi, np.pi))
            world = _random_world(rng, robot, spec, count=int(rng.integers(0, 30)),
                                  around=trial % 3 == 1)
            if trial == 0:
                world = World([])
            scan = cast_lidar(world, robot, spec)
            ranges, hits = _per_obstacle_cast(world, robot, spec)
            assert np.array_equal(scan.ranges, ranges)
            assert np.array_equal(scan.hits, hits)

    def test_deterministic_without_noise(self):
        world = World([Obstacle("c", 0.5, np.array([2.0, 1.0]))])
        robot = RobotState(0.0, 0.0, 0.2)
        a = cast_lidar(world, robot, self.SPEC)
        b = cast_lidar(world, robot, self.SPEC)
        assert np.array_equal(a.ranges, b.ranges)


def _per_obstacle_cast(world, robot, spec):
    """Reference cast: the nearest positive root, one obstacle at a time."""
    angles = 2.0 * np.pi * np.arange(spec.beam_count) / spec.beam_count
    dirs = np.stack([np.cos(robot.theta + angles),
                     np.sin(robot.theta + angles)], axis=1)
    best = np.full(spec.beam_count, np.inf)
    for center, radius in zip(world.centres, world.radii.tolist()):
        to_center = center - robot.position
        along = dirs @ to_center
        disc = along * along - (float(to_center @ to_center) - radius**2)
        feasible = disc >= 0.0
        root = np.sqrt(disc[feasible])
        near = along[feasible] - root
        far = along[feasible] + root
        dist = np.where(near > 1e-9, near, np.where(far > 1e-9, far, np.inf))
        best[feasible] = np.minimum(best[feasible], dist)
    hits = best < spec.max_range
    return np.where(hits, best, spec.max_range), hits


def _random_world(rng, robot, spec, count, around):
    """Circles anywhere around the robot, plus the edge cases of the cast:
    nearest boundaries on a beam within 1e-9 of max_range on either side, a
    circle holding the robot (if around; it hides everything past it), one
    whose boundary passes through the robot, and circles tangent to a beam."""
    origin = robot.position

    def beam_bearing():
        return robot.theta + 2.0 * np.pi * rng.integers(spec.beam_count) / spec.beam_count

    def at(distance, bearing):
        return origin + distance * np.array([np.cos(bearing), np.sin(bearing)])

    obstacles = [Obstacle(f"o{i}", rng.uniform(0.05, 1.5),
                          origin + rng.uniform(-9.0, 9.0, 2))
                 for i in range(count)]
    for i, offset in enumerate((-1e-9, -5e-10, -1e-12, 0.0, 1e-12, 5e-10, 1e-9)):
        radius = rng.uniform(0.1, 1.0)
        obstacles.append(Obstacle(f"edge{i}", radius, at(
            spec.max_range * (1.0 + offset) + radius, beam_bearing())))
    if around:
        radius = rng.uniform(0.5, 2.0)
        obstacles.append(Obstacle("around", radius,
                                  origin + rng.uniform(-0.3, 0.3, 2) * radius))
    radius = rng.uniform(0.1, 1.0)
    obstacles.append(Obstacle("touching", radius, at(radius, beam_bearing())))
    for i in range(3):
        radius = rng.uniform(0.1, 1.0)
        distance = rng.uniform(radius + 0.5, spec.max_range)
        bearing = beam_bearing() + np.arcsin(radius / distance) * rng.choice([-1.0, 1.0])
        obstacles.append(Obstacle(f"tangent{i}", radius, at(distance, bearing)))
    order = rng.permutation(len(obstacles))
    return World([obstacles[k] for k in order])


def _ray_march(world, origin, angle, max_range, step=1e-4):
    """Brute-force reference: walk the ray until entering any obstacle."""
    direction = np.array([np.cos(angle), np.sin(angle)])
    # coarse-to-fine: sample every 1 cm at once, then bisect the first
    # coarse step that ends inside an obstacle down to 1e-4
    coarse = 0.01
    starts = np.arange(0.0, max_range, coarse)
    points = origin + (starts + coarse)[:, None] * direction
    clearance = np.min(np.linalg.norm(points[:, None] - world.centres[None], axis=2)
                       - world.radii, axis=1)
    inside = np.flatnonzero(clearance <= 0.0)
    if len(inside) == 0:
        return max_range
    lo = float(starts[inside[0]])
    hi = lo + coarse
    while hi - lo > step / 2:
        mid = (lo + hi) / 2
        if world.clearance(origin + mid * direction) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_wrap_angle_range():
    for theta in np.linspace(-10, 10, 101):
        wrapped = wrap_angle(theta)
        assert -np.pi <= wrapped < np.pi
        assert abs((wrapped - theta) % (2 * np.pi)) < 1e-9


class _ReferenceObstacle:
    """One obstacle moved by its own closed form, one numpy update per step."""

    def __init__(self, obstacle):
        self.radius = obstacle.radius
        self.motion = obstacle.motion
        self.spawn = np.asarray(obstacle.spawn, dtype=float)
        self.center = self.spawn.copy()
        self.velocity = np.asarray(obstacle.motion.velocity)
        axis = np.asarray(obstacle.motion.axis, dtype=float)
        self.unit_axis = axis / np.linalg.norm(axis)

    def advance(self, t_next, dt):
        if self.motion.kind == "velocity":
            self.center = self.center + self.velocity * dt
        elif self.motion.kind == "sinusoid":
            phase = 2.0 * np.pi * t_next / self.motion.period
            self.center = (self.spawn
                           + self.unit_axis * self.motion.amplitude * np.sin(phase))


def _stacked_reference_cast(obstacles, robot, spec, rng=None):
    """cast_lidar with its arrays stacked from the obstacles on every call."""
    beams = spec.beam_count
    angles = 2.0 * np.pi * np.arange(beams) / beams
    dirs = np.stack([np.cos(robot.theta + angles), np.sin(robot.theta + angles)], axis=1)
    to_center = (np.array([ob.center for ob in obstacles]).reshape(-1, 2)
                 - robot.position)
    radii = np.array([ob.radius for ob in obstacles])
    radius_sq = np.array([ob.radius**2 for ob in obstacles])
    center_sq = np.matmul(to_center[:, None, :], to_center[:, :, None])[:, 0, 0]
    reach = spec.max_range * (1.0 + 1e-9) + radii
    in_range = center_sq < reach * reach
    to_center = to_center[in_range]
    closest_sq = center_sq[in_range] - radius_sq[in_range]
    along = np.matmul(dirs[None], to_center[:, :, None])[:, :, 0]
    disc = np.multiply(along, along)
    disc -= closest_sq[:, None]
    feasible = disc >= 0.0
    root = np.sqrt(disc, out=disc, where=feasible)
    near = np.subtract(along, root, out=np.full_like(along, np.inf), where=feasible)
    far = np.add(along, root, out=along)
    dist = np.where(far > 1e-9, far, np.inf)
    np.copyto(dist, near, where=near > 1e-9)
    best = dist.min(axis=0, initial=np.inf)
    hits = best < spec.max_range
    ranges = np.where(hits, best, spec.max_range)
    if spec.noise_sigma > 0.0 and rng is not None and np.any(hits):
        noisy = ranges[hits] + rng.normal(0.0, spec.noise_sigma, int(hits.sum()))
        ranges[hits] = np.clip(noisy, 1e-6, np.nextafter(spec.max_range, 0.0))
    return ranges, hits


def _random_motion(rng):
    kind = rng.choice(["static", "velocity", "sinusoid"])
    if kind == "velocity":
        return MotionSpec(kind="velocity",
                          velocity=tuple(rng.uniform(-1.5, 1.5, 2).tolist()))
    if kind == "sinusoid":
        axis = rng.uniform(-2.0, 2.0, 2) * rng.choice([1e-3, 1.0, 1e3])
        return MotionSpec(kind="sinusoid", axis=tuple(axis.tolist()),
                          amplitude=float(rng.uniform(0.0, 2.0)),
                          period=float(rng.uniform(0.3, 8.0)))
    return MotionSpec()


@pytest.mark.parametrize("seed", range(4))
def test_stacked_world_matches_per_obstacle_closed_form(seed):
    """Stacked centres, cast_lidar and clearance, bit for bit the
    per-obstacle updates and the per-call stacking of the arrays."""
    rng = np.random.default_rng([seed, 21])
    count = int(rng.integers(10, 45))
    obstacles = [Obstacle(f"o{i}", float(rng.uniform(0.05, 1.0)),
                          rng.uniform(-6.0, 6.0, 2), _random_motion(rng))
                 for i in range(count)]
    reference = [_ReferenceObstacle(ob) for ob in obstacles]
    world = World(obstacles)
    spec = LidarSpec(beam_count=90, max_range=6.0, noise_sigma=0.02 * (seed % 2))
    cast_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    dt, t = float(rng.choice([0.05, 0.04, 0.013])), 0.0
    for _ in range(240):
        world.advance(dt)
        t += dt
        for ref in reference:
            ref.advance(t, dt)
        expected = np.array([ref.center for ref in reference])
        assert world.time == t
        assert world.centres.tobytes() == expected.tobytes()
        robot = RobotState(*rng.uniform(-4.0, 4.0, 2), rng.uniform(-np.pi, np.pi))
        scan = cast_lidar(world, robot, spec, cast_rng)
        ranges, hits = _stacked_reference_cast(reference, robot, spec, reference_rng)
        assert scan.ranges.tobytes() == ranges.tobytes()
        assert scan.hits.tobytes() == hits.tobytes()
        offsets = robot.position - expected
        squared = np.matmul(offsets[:, None, :], offsets[:, :, None]).ravel().tolist()
        assert world.clearance(robot.position) == min(
            math.sqrt(sq) - ref.radius for sq, ref in zip(squared, reference))


def _array_rk4(state, control, dt):
    """step_dynamics in its former array form: the oracle for the float form."""
    v, omega = float(control.v), float(control.omega)

    def deriv(theta):
        return np.array([v * np.cos(theta), v * np.sin(theta), omega])

    y0 = np.array([state.x, state.y, state.theta])
    k1 = deriv(y0[2])
    k2 = deriv(y0[2] + 0.5 * dt * k1[2])
    k3 = deriv(y0[2] + 0.5 * dt * k2[2])
    k4 = deriv(y0[2] + dt * k3[2])
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return RobotState(x=float(y1[0]), y=float(y1[1]), theta=wrap_angle(float(y1[2])))


def test_float_rk4_matches_array_form_bit_for_bit():
    rng = np.random.default_rng(22)
    count = 10_000
    poses = rng.uniform([-60.0, -60.0, -np.pi], [60.0, 60.0, np.pi], (count, 3))
    controls = rng.uniform([-2.0, -6.0], [2.0, 6.0], (count, 2))
    controls[::7, 1] = 0.0                                 # straight runs
    controls[3::11, 0] = 0.0                               # turns in place
    dts = np.where(rng.random(count) < 0.5, 0.05, rng.uniform(1e-4, 1.0, count))
    for (x, y, theta), (v, omega), dt in zip(poses.tolist(), controls.tolist(),
                                             dts.tolist()):
        state = RobotState(x, y, theta)
        control = ControlInput(v, omega)
        got = step_dynamics(state, control, dt)
        want = _array_rk4(state, control, dt)
        assert (np.array([got.x, got.y, got.theta]).tobytes()
                == np.array([want.x, want.y, want.theta]).tobytes())
        assert type(got.x) is type(got.y) is type(got.theta) is float


@pytest.mark.parametrize("beams", [1, 7, 360])
def test_scan_directions_are_the_world_frame_beam_vectors(beams):
    """directions is (cos, sin) of heading + beam angle, bit for bit."""
    rng = np.random.default_rng(beams)
    spec = LidarSpec(beam_count=beams)
    world = World([Obstacle("c", 0.5, np.array([2.0, 1.0]))])
    angles = _beam_angles(beams)
    assert angles.tobytes() == (2.0 * np.pi * np.arange(beams) / beams).tobytes()
    for _ in range(40):
        robot = RobotState(*rng.uniform(-3.0, 3.0, 2), rng.uniform(-np.pi, np.pi))
        scan = cast_lidar(world, robot, spec)
        world_angles = robot.theta + angles
        expected = np.stack([np.cos(world_angles), np.sin(world_angles)], axis=1)
        assert scan.directions.shape == (beams, 2)
        assert scan.directions.tobytes() == expected.tobytes()
    # the cached angles are shared between scans, so nothing may write them
    assert _beam_angles(beams) is angles
    assert not angles.flags.writeable
