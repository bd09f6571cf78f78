"""Nominal controller, constraint assembly, QP projection, and the lead map."""

import numpy as np
import pytest

from gpnav.barrier import BarrierEvaluation, BarrierParams
from gpnav.controller import (SATURATION_RTOL, ControllerParams,
                              InfeasibleConstraint, SafetyConstraint,
                              build_constraint, control_step, lead_point,
                              lead_to_unicycle, nominal_goal, solve_safety_qp)
from gpnav.gp import KernelParams, build_model
from gpnav.simworld import RobotState


def make_eval(grad_xy, dh_dt, h, mu=0.5, clamped=False):
    return BarrierEvaluation(value=h,
                             grad_state=np.array([grad_xy[0], grad_xy[1], 0.0]),
                             time_derivative=dh_dt, mu=mu, clamped=clamped)


# the oracle's grid over [-2, 2]^2 at 0.01, with |g|^2 formed once
GRID_AXIS = np.arange(-2.0, 2.0 + 0.005, 0.01)
GRID = np.stack([g.ravel() for g in np.meshgrid(GRID_AXIS, GRID_AXIS)], axis=1)
GRID_SQ = np.sum(GRID ** 2, axis=1)


def grid_search_qp(a, b, u_nom):
    """Dense-grid reference minimum of ||u - u_nom||^2 s.t. a.u + b >= 0.

    |g - u_nom|^2 = |g|^2 - 2 g.u_nom + |u_nom|^2, with one (2, 2) @ GRID.T
    product for g.a and g.u_nom.
    """
    along_a, along_u = np.stack([a, u_nom]) @ GRID.T
    costs = np.where(along_a + b >= 0.0, GRID_SQ - 2.0 * along_u, np.inf)
    return float(costs.min()) + float(u_nom @ u_nom)


def clip_to_box(control, v_max, omega_max):
    """(v, omega) of a command clipped into the box, by np.clip."""
    return (float(np.clip(control.v, -v_max, v_max)),
            float(np.clip(control.omega, -omega_max, omega_max)))


class TestNominalGoal:
    def test_deadband_at_goal(self):
        assert np.allclose(nominal_goal((1.0, 1.0), (1.0, 1.0), 0.8), 0.0)
        assert np.allclose(nominal_goal((1.0, 1.0), (1.03, 1.0), 0.8), 0.0)

    def test_start_to_goal_direction(self):
        # from (-8, 3) toward (10, -2): normalize (18, -5)
        command = nominal_goal((-8.0, 3.0), (10.0, -2.0), 0.8)
        norm = np.linalg.norm([18.0, -5.0])
        assert command[0] == pytest.approx(0.8 * 18.0 / norm, abs=1e-9)
        assert command[1] == pytest.approx(0.8 * (-5.0) / norm, abs=1e-9)
        assert command[0] == pytest.approx(0.770814, abs=1e-6)
        assert command[1] == pytest.approx(-0.214115, abs=1e-6)

    def test_axis_aligned(self):
        command = nominal_goal((0.0, 0.0), (0.0, 5.0), 0.8)
        assert np.allclose(command, [0.0, 0.8], atol=1e-12)

    def test_magnitude_is_u_max(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, g = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            if np.linalg.norm(g - p) > 0.05:
                assert np.linalg.norm(nominal_goal(p, g, 0.8)) == pytest.approx(0.8)


class TestBuildConstraint:
    def test_static_scene_offset(self):
        constraint = build_constraint(make_eval((1.0, 0.0), 0.0, 0.4), 0.2)
        assert constraint.b == pytest.approx(0.08, abs=1e-12)
        assert constraint.feasible

    def test_infeasible_zero_gradient_negative_offset(self):
        constraint = build_constraint(make_eval((0.0, 0.0), -0.52, 0.1), 0.2)
        assert not constraint.feasible

    def test_boundary_approaching_forces_active_constraint(self):
        # h at the data boundary with a closing obstacle: b < 0, so any move
        # along the inward gradient direction is rejected
        constraint = build_constraint(make_eval((2.0, 0.0), -0.5, -0.1), 0.2)
        assert constraint.b < 0.0
        toward = np.array([-1.0, 0.0]) * 0.8
        assert constraint.a @ toward + constraint.b < 0.0


class TestSolveQp:
    def test_inactive_returns_nominal(self):
        constraint = SafetyConstraint(a=np.array([1.0, 0.0]), b=0.08, feasible=True)
        u = solve_safety_qp((0.5, 0.0), constraint)
        assert np.allclose(u, [0.5, 0.0])

    def test_projection_closed_form(self):
        constraint = SafetyConstraint(a=np.array([1.0, 0.0]), b=-1.0, feasible=True)
        u = solve_safety_qp((0.0, 0.0), constraint)
        assert np.allclose(u, [1.0, 0.0], atol=1e-12)

    def test_infeasible_raises(self):
        constraint = SafetyConstraint(a=np.zeros(2), b=-0.5, feasible=False)
        with pytest.raises(InfeasibleConstraint):
            solve_safety_qp((0.1, 0.1), constraint)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.uniform(-1.5, 1.5, 2)
            if np.linalg.norm(a) < 0.2:
                a = a + 0.3
            b = rng.uniform(-1.0, 1.0)
            u_nom = rng.uniform(-1.0, 1.0, 2)
            constraint = SafetyConstraint(a=a, b=b, feasible=True)
            u = solve_safety_qp(u_nom, constraint)
            assert a @ u + b >= -1e-12
            oracle_cost = grid_search_qp(a, b, u_nom)
            cost = float(np.sum((u - u_nom) ** 2))
            assert cost <= oracle_cost + 1e-4

    def test_kkt_random_batch(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a = rng.uniform(-2, 2, 2)
            if np.linalg.norm(a) < 1e-3:
                continue
            b = rng.uniform(-2, 2)
            u_nom = rng.uniform(-2, 2, 2)
            u = solve_safety_qp(u_nom, SafetyConstraint(a=a, b=b, feasible=True))
            slack = a @ u + b
            assert slack >= -1e-12
            # stationarity: u - u_nom is colinear with a, with multiplier >= 0
            deviation = u - u_nom
            if np.linalg.norm(deviation) > 1e-12:
                multiplier = deviation @ a / (a @ a)
                assert multiplier >= 0.0
                assert np.allclose(deviation, multiplier * a, atol=1e-10)
                assert abs(slack) <= 1e-10   # complementary slackness


class TestLeadMap:
    def test_aligned_heading(self):
        control = lead_to_unicycle((1.0, 0.0), 0.0, 0.5)
        assert control.v == pytest.approx(1.0)
        assert control.omega == pytest.approx(0.0)

    def test_perpendicular_command(self):
        control = lead_to_unicycle((0.0, 1.0), 0.0, 0.5)
        assert control.v == pytest.approx(0.0, abs=1e-12)
        assert control.omega == pytest.approx(2.0)

    def test_rotated_frame(self):
        control = lead_to_unicycle((0.0, 1.0), np.pi / 2, 0.5)
        assert control.v == pytest.approx(1.0)
        assert control.omega == pytest.approx(0.0, abs=1e-12)

    def test_saturation(self):
        # control_step's box: the lead velocity (3, 3) at heading 0 maps to
        # (v, omega) = (3, 10) and leaves clipped to (v_max, omega_max)
        control, _, diag = control_step(
            RobotState(0.0, 0.0, 0.0), None, np.zeros((0, 2)), BarrierParams(),
            ControllerParams(u_max=3.0 * np.sqrt(2.0)), (10.0, 10.0))
        assert control.v == 0.8
        assert control.omega == 2.0
        assert diag.saturated

    def test_forward_kinematics_roundtrip(self):
        # unsaturated (v, omega) must reproduce the lead-point velocity:
        # u = R(theta) [v, l*omega]
        rng = np.random.default_rng(3)
        for _ in range(100):
            u_lead = rng.uniform(-2, 2, 2)
            theta = rng.uniform(-np.pi, np.pi)
            offset = rng.uniform(0.1, 1.0)
            control = lead_to_unicycle(u_lead, theta, offset)
            c, s = np.cos(theta), np.sin(theta)
            rebuilt = np.array([c * control.v - s * offset * control.omega,
                                s * control.v + c * offset * control.omega])
            assert np.max(np.abs(rebuilt - u_lead)) <= 1e-12


class TestControlStep:
    KERNEL = KernelParams(0.9, 1e-8)
    BARRIER = BarrierParams()
    CONTROLLER = ControllerParams()

    def test_empty_world_pure_go_to_goal(self):
        robot = RobotState(-8.0, 3.0, 0.0)
        control, evaluation, diag = control_step(
            robot, None, np.zeros((0, 2)), self.BARRIER, self.CONTROLLER,
            (10.0, -2.0))
        assert evaluation is None
        assert diag.fallback == "empty"
        expected = nominal_goal(robot.position, (10.0, -2.0), 0.8)
        rebuilt = clip_to_box(lead_to_unicycle(expected, 0.0, 0.3), 0.8, 2.0)
        assert control.v == pytest.approx(rebuilt[0])
        assert control.omega == pytest.approx(rebuilt[1])

    def test_blocking_obstacle_activates_constraint(self):
        robot = RobotState(0.0, 0.0, 0.0)
        # obstacle boundary points 0.5 m ahead of the lead point
        model = build_model([[0.8, -0.1], [0.8, 0.1]], params=self.KERNEL)
        control, evaluation, diag = control_step(
            robot, model, np.zeros((2, 2)), self.BARRIER, self.CONTROLLER,
            (10.0, 0.0))
        assert diag.constraint_active
        nominal = lead_to_unicycle(nominal_goal(robot.position, (10.0, 0.0), 0.8),
                                   0.0, 0.3)
        assert (control.v, control.omega) != clip_to_box(nominal, 0.8, 2.0)

    def test_receding_obstacle_leaves_nominal(self):
        robot = RobotState(0.0, 0.0, 0.0)
        model = build_model([[2.4, 0.0]], params=self.KERNEL)
        # obstacle fleeing forward much faster than the robot closes
        control, evaluation, diag = control_step(
            robot, model, np.array([[2.0, 0.0]]), self.BARRIER, self.CONTROLLER,
            (10.0, 0.0))
        assert not diag.constraint_active
        assert control.v == pytest.approx(0.8)

    def test_clamped_region_falls_back_to_nominal(self):
        robot = RobotState(0.0, 0.0, 0.0)
        model = build_model([[0.0, 50.0]], params=self.KERNEL)
        control, evaluation, diag = control_step(
            robot, model, np.zeros((1, 2)), self.BARRIER, self.CONTROLLER,
            (10.0, 0.0))
        assert evaluation.clamped
        assert diag.fallback == "clamped"
        assert control.v == pytest.approx(0.8)

    def test_constraint_slack_nonnegative_when_solved(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            robot = RobotState(*rng.uniform(-1, 1, 2), rng.uniform(-np.pi, np.pi))
            points = robot.position + rng.uniform(-2.5, 2.5, (8, 2))
            model = build_model(points, params=self.KERNEL)
            velocities = rng.uniform(-0.5, 0.5, (8, 2))
            _, evaluation, diag = control_step(
                robot, model, velocities, self.BARRIER, self.CONTROLLER,
                (10.0, -2.0))
            if diag.fallback == "":
                assert diag.constraint_slack >= -1e-12

    def test_exit_clips_into_the_box_and_flags_real_clips_only(self):
        # the "empty" fallback leaves with the nominal command as its lead
        # velocity: random headings, offsets, commands and boxes; every
        # third box puts v or omega exactly on a bound, and the cases of
        # test_saturated_ignores_rounding_at_the_speed_limit come last
        rng = np.random.default_rng(8)
        cases = []
        for index in range(1500):
            theta = float(rng.uniform(-np.pi, np.pi))
            position = rng.uniform(-5.0, 5.0, 2)
            angle = rng.uniform(-np.pi, np.pi)
            goal = position + rng.uniform(0.5, 10.0) * np.array([np.cos(angle),
                                                                 np.sin(angle)])
            offset, u_max = rng.uniform(0.05, 1.0), rng.uniform(0.05, 3.0)
            raw = lead_to_unicycle(nominal_goal(position, goal, u_max), theta, offset)
            v_max, omega_max = rng.uniform(0.05, 2.0), rng.uniform(0.1, 4.0)
            if index % 3 == 1:
                v_max = abs(raw.v)
            elif index % 3 == 2:
                omega_max = abs(raw.omega)
            cases.append((RobotState(*position, theta), goal, ControllerParams(
                lead_offset=float(offset), u_max=float(u_max), v_max=float(v_max),
                omega_max=float(omega_max))))
        for theta in np.linspace(-3.0, 3.0, 61):
            heading = np.array([np.cos(theta), np.sin(theta)])
            cases.append((RobotState(0.0, 0.0, theta), 10.0 * heading,
                          self.CONTROLLER))

        seen = {"saturated": 0, "v = v_max": 0, "v = -v_max": 0,
                "|omega| = omega_max": 0, "rounded over": 0}
        for robot, goal, params in cases:
            v_max, omega_max = params.v_max, params.omega_max
            raw = lead_to_unicycle(nominal_goal((robot.x, robot.y), goal, params.u_max),
                                   robot.theta, params.lead_offset)
            control, _, diag = control_step(robot, None, np.zeros((0, 2)),
                                            self.BARRIER, params, goal)
            assert diag.fallback == "empty"
            assert abs(control.v) <= v_max and abs(control.omega) <= omega_max
            clipped = clip_to_box(raw, v_max, omega_max)
            assert (control.v, control.omega) == clipped
            moved = (abs(raw.v - clipped[0]) > SATURATION_RTOL * v_max
                     or abs(raw.omega - clipped[1]) > SATURATION_RTOL * omega_max)
            assert diag.saturated == moved
            inside = abs(raw.v) <= v_max and abs(raw.omega) <= omega_max
            if not diag.saturated and inside:
                assert (control.v, control.omega) == (raw.v, raw.omega)
            seen["saturated"] += diag.saturated
            seen["v = v_max"] += raw.v == v_max
            seen["v = -v_max"] += raw.v == -v_max
            seen["|omega| = omega_max"] += abs(raw.omega) == omega_max
            # unsaturated yet outside the box: clipped by rounding only
            seen["rounded over"] += not diag.saturated and not inside
        assert min(seen.values()) > 0, seen

    def test_saturated_ignores_rounding_at_the_speed_limit(self):
        # a nominal command of norm u_max = v_max along the heading maps to
        # v = v_max up to rounding; 1e-4 more is real saturation
        rounded_up = 0
        for theta in np.linspace(-3.0, 3.0, 61):
            robot = RobotState(0.0, 0.0, theta)
            heading = np.array([np.cos(theta), np.sin(theta)])
            goal = 10.0 * heading
            # a single point behind the robot: inactive constraint
            model = build_model([-2.0 * heading], params=self.KERNEL)
            raw = lead_to_unicycle(nominal_goal(robot.position, goal, 0.8), theta, 0.3)
            rounded_up += raw.v > 0.8
            at_limit = control_step(robot, model, np.zeros((1, 2)), self.BARRIER,
                                    self.CONTROLLER, goal)[2]
            over = control_step(robot, model, np.zeros((1, 2)), self.BARRIER,
                                ControllerParams(u_max=0.8 + 1e-4), goal)[2]
            assert at_limit.fallback == over.fallback == ""
            assert not at_limit.constraint_active and not over.constraint_active
            assert not at_limit.saturated
            assert over.saturated
        assert rounded_up > 0

    def test_lead_point_geometry(self):
        robot = RobotState(1.0, 2.0, np.pi / 2)
        point = lead_point(robot, 0.3)
        assert np.allclose(point, [1.0, 2.3], atol=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ControllerParams(lead_offset=0.0)
        with pytest.raises(ValueError):
            ControllerParams(variant="other")
