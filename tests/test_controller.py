"""Nominal controller, constraint assembly, QP projection, and the lead map."""

import numpy as np
import pytest

from gpnav.barrier import BarrierEvaluation, BarrierParams
from gpnav.controller import (AlphaFunction, ControllerParams,
                              InfeasibleConstraint, SafetyConstraint,
                              build_constraint, control_step, lead_point,
                              lead_to_unicycle, nominal_goal, solve_safety_qp)
from gpnav.gp import KernelParams, build_model
from gpnav.simworld import RobotState


def make_eval(grad_xy, dh_dt, h, mu=0.5, clamped=False):
    return BarrierEvaluation(value=h,
                             grad_state=np.array([grad_xy[0], grad_xy[1], 0.0]),
                             time_derivative=dh_dt, mu=mu, clamped=clamped)


def grid_search_qp(a, b, u_nom, lo=-2.0, hi=2.0, step=0.01):
    """Dense-grid reference minimizer of ||u - u_nom||^2 s.t. a.u + b >= 0."""
    grid = np.arange(lo, hi + step / 2, step)
    best, best_cost = None, np.inf
    for ux in grid:
        for uy in grid:
            if a[0] * ux + a[1] * uy + b >= 0.0:
                cost = (ux - u_nom[0]) ** 2 + (uy - u_nom[1]) ** 2
                if cost < best_cost:
                    best, best_cost = (ux, uy), cost
    return best, best_cost


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
        constraint = build_constraint(make_eval((1.0, 0.0), 0.0, 0.4),
                                      AlphaFunction(0.2))
        assert constraint.b == pytest.approx(0.08, abs=1e-12)
        assert constraint.feasible

    def test_infeasible_zero_gradient_negative_offset(self):
        constraint = build_constraint(make_eval((0.0, 0.0), -0.52, 0.1),
                                      AlphaFunction(0.2))
        assert not constraint.feasible

    def test_boundary_approaching_forces_active_constraint(self):
        # h at the data boundary with a closing obstacle: b < 0, so any move
        # along the inward gradient direction is rejected
        constraint = build_constraint(make_eval((2.0, 0.0), -0.5, -0.1),
                                      AlphaFunction(0.2))
        assert constraint.b < 0.0
        toward = np.array([-1.0, 0.0]) * 0.8
        assert constraint.a @ toward + constraint.b < 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            AlphaFunction(0.0)


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
            _, oracle_cost = grid_search_qp(a, b, u_nom)
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
        control = lead_to_unicycle((3.0, 3.0), 0.0, 0.3, v_max=0.8, omega_max=2.0)
        assert control.v == 0.8
        assert control.omega == 2.0

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
        rebuilt = lead_to_unicycle(expected, 0.0, 0.3, 0.8, 2.0)
        assert control.v == pytest.approx(rebuilt.v)
        assert control.omega == pytest.approx(rebuilt.omega)

    def test_blocking_obstacle_activates_constraint(self):
        robot = RobotState(0.0, 0.0, 0.0)
        # obstacle boundary points 0.5 m ahead of the lead point
        model = build_model([[0.8, -0.1], [0.8, 0.1]], params=self.KERNEL)
        control, evaluation, diag = control_step(
            robot, model, np.zeros((2, 2)), self.BARRIER, self.CONTROLLER,
            (10.0, 0.0))
        assert diag.constraint_active
        nominal = lead_to_unicycle(nominal_goal(robot.position, (10.0, 0.0), 0.8),
                                   0.0, 0.3, 0.8, 2.0)
        assert (control.v, control.omega) != (nominal.v, nominal.omega)

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

    def test_evaluate_at_lead_switch(self):
        robot = RobotState(0.0, 0.0, 0.0)
        model = build_model([[1.0, 0.0]], params=self.KERNEL)
        at_lead = control_step(robot, model, np.zeros((1, 2)), self.BARRIER,
                               self.CONTROLLER, (10.0, 0.0))[1]
        at_center = control_step(
            robot, model, np.zeros((1, 2)), self.BARRIER,
            ControllerParams(evaluate_at_lead=False), (10.0, 0.0))[1]
        # lead point sits 0.3 m closer to the data: lower barrier value
        assert at_lead.value < at_center.value

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
