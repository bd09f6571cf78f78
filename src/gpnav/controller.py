"""Safety-filtered go-to-goal control through a leading point.

The barrier constraint is linear in the leading point's velocity (single
integrator), so the QP min ||u - u_nom||^2 subject to a u + b >= 0 has the
closed-form halfspace-projection solution. The resulting lead velocity maps
to unicycle (v, omega) through a near-identity diffeomorphism, which removes
the relative-degree problem of steering through omega directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import barrier
from .barrier import BarrierEvaluation, BarrierParams
from .gp import GpModel
from .simworld import RobotState


# Relative overshoot of the (v, omega) box that still counts as inside it:
# rounding in the lead-point map can turn a command of norm v_max along the
# heading into v = v_max (1 + 2.2e-16), which is not saturation.
SATURATION_RTOL = 1e-9


class InfeasibleConstraint(Exception):
    """The safety halfspace is empty (zero gradient with negative offset)."""


@dataclass
class ControlInput:
    v: float = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class AlphaFunction:
    """Linear class-K gain on the barrier value: alpha(h) = slope * h."""

    slope: float = 0.2

    def __post_init__(self) -> None:
        if self.slope <= 0.0:
            raise ValueError("alpha slope must be > 0")

    def __call__(self, h: float) -> float:
        return self.slope * h


@dataclass
class SafetyConstraint:
    """Halfspace a . u + b >= 0 on the lead-point velocity."""

    a: np.ndarray
    b: float
    feasible: bool


@dataclass(frozen=True)
class ControllerParams:
    alpha_slope: float = 0.2
    lead_offset: float = 0.3       # m, leading point ahead of the robot
    u_max: float = 0.8             # m/s, nominal command magnitude
    v_max: float = 0.8             # m/s, linear saturation
    omega_max: float = 2.0         # rad/s, angular saturation
    goal_deadband: float = 0.05    # m
    evaluate_at_lead: bool = True  # barrier query point: lead vs robot center
    variant: str = "dlgp"

    def __post_init__(self) -> None:
        if self.lead_offset <= 0.0:
            raise ValueError("lead_offset must be > 0")
        if min(self.u_max, self.v_max, self.omega_max) <= 0.0:
            raise ValueError("u_max, v_max and omega_max must be > 0")
        if self.variant not in barrier.VARIANTS:
            raise ValueError(f"unknown controller variant {self.variant!r}")


@dataclass
class ControlDiagnostics:
    """Per-step bookkeeping for logs and closed-loop checks."""

    constraint_active: bool = False
    constraint_slack: float = float("nan")   # a . u_lead + b before saturation
    saturated: bool = False
    fallback: str = ""                       # "", "empty", "clamped", "brake"
    barrier_ms: float = 0.0
    qp_ms: float = 0.0


def nominal_goal(position, goal, u_max: float, deadband: float = 0.05) -> np.ndarray:
    """Unit-direction go-to-goal command scaled to u_max; zero inside the deadband."""
    if u_max <= 0.0:
        raise ValueError("u_max must be > 0")
    offset = np.asarray(goal, dtype=float) - np.asarray(position, dtype=float)
    distance = float(np.linalg.norm(offset))
    if distance <= deadband:
        return np.zeros(2)
    return u_max * offset / distance


def build_constraint(evaluation: BarrierEvaluation,
                     alpha: AlphaFunction) -> SafetyConstraint:
    """Assemble the halfspace from a barrier evaluation.

    With single-integrator lead dynamics the input gradient is the position
    part of dh/dx and the offset collects dh/dt + alpha(h). Infeasible only
    when the gradient vanishes while the offset is negative.
    """
    a = np.asarray(evaluation.grad_state[:2], dtype=float)
    b = float(evaluation.time_derivative + alpha(evaluation.value))
    feasible = bool(np.linalg.norm(a) > 1e-9 or b >= 0.0)
    return SafetyConstraint(a=a, b=b, feasible=feasible)


def solve_safety_qp(u_nominal, constraint: SafetyConstraint) -> np.ndarray:
    """Minimum-deviation command satisfying the halfspace, in closed form.

    Inactive constraint returns the nominal unchanged; otherwise the nominal
    is projected onto the constraint boundary, which satisfies the KKT
    conditions of the single-constraint QP exactly.
    """
    if not constraint.feasible:
        raise InfeasibleConstraint("safety halfspace is empty; brake")
    u = np.asarray(u_nominal, dtype=float)
    slack = float(constraint.a @ u + constraint.b)
    if slack >= 0.0:
        return u.copy()
    gain = -slack / float(constraint.a @ constraint.a)
    return u + gain * constraint.a


def lead_to_unicycle(u_lead, theta: float, lead_offset: float,
                     v_max: float = np.inf, omega_max: float = np.inf) -> ControlInput:
    """Map a lead-point velocity to saturated unicycle (v, omega) commands."""
    if lead_offset <= 0.0:
        raise ValueError("lead_offset must be > 0")
    ux, uy = float(u_lead[0]), float(u_lead[1])
    c, s = np.cos(theta), np.sin(theta)
    v = c * ux + s * uy
    omega = (-s * ux + c * uy) / lead_offset
    return ControlInput(v=float(np.clip(v, -v_max, v_max)),
                        omega=float(np.clip(omega, -omega_max, omega_max)))


def lead_point(robot: RobotState, lead_offset: float) -> np.ndarray:
    """Virtual leading point ahead of the robot along its heading."""
    return robot.position + lead_offset * np.array([np.cos(robot.theta),
                                                    np.sin(robot.theta)])


def control_step(robot: RobotState, model: GpModel | None, velocities,
                 barrier_params: BarrierParams, params: ControllerParams,
                 goal) -> tuple[ControlInput, BarrierEvaluation | None, ControlDiagnostics]:
    """One safety-filtered control cycle from the frame's perception snapshot.

    Falls back to the nominal command when there is no data or the query sits
    in a clamped region (safe by distance), and to braking when the
    constraint is infeasible.
    """
    diag = ControlDiagnostics()
    u_nom = nominal_goal(robot.position, goal, params.u_max, params.goal_deadband)

    if model is None or model.size == 0:
        diag.fallback = "empty"
        control = lead_to_unicycle(u_nom, robot.theta, params.lead_offset,
                                   params.v_max, params.omega_max)
        return control, None, diag

    query = lead_point(robot, params.lead_offset) if params.evaluate_at_lead \
        else robot.position
    start = time.perf_counter()
    evaluation = barrier.evaluate_full(model, barrier_params, query,
                                       velocities, variant=params.variant)
    diag.barrier_ms = (time.perf_counter() - start) * 1e3

    if evaluation.clamped:
        diag.fallback = "clamped"
        control = lead_to_unicycle(u_nom, robot.theta, params.lead_offset,
                                   params.v_max, params.omega_max)
        return control, evaluation, diag

    alpha = AlphaFunction(slope=params.alpha_slope)
    constraint = build_constraint(evaluation, alpha)
    start = time.perf_counter()
    try:
        u_lead = solve_safety_qp(u_nom, constraint)
    except InfeasibleConstraint:
        diag.qp_ms = (time.perf_counter() - start) * 1e3
        diag.fallback = "brake"
        return ControlInput(0.0, 0.0), evaluation, diag
    diag.qp_ms = (time.perf_counter() - start) * 1e3

    diag.constraint_active = bool(float(constraint.a @ u_nom + constraint.b) < 0.0)
    diag.constraint_slack = float(constraint.a @ u_lead + constraint.b)
    control = lead_to_unicycle(u_lead, robot.theta, params.lead_offset,
                               params.v_max, params.omega_max)
    raw = lead_to_unicycle(u_lead, robot.theta, params.lead_offset)
    diag.saturated = bool(
        abs(raw.v - control.v) > SATURATION_RTOL * params.v_max
        or abs(raw.omega - control.omega) > SATURATION_RTOL * params.omega_max)
    return control, evaluation, diag
