"""Safety-filtered go-to-goal control through a leading point.

The barrier constraint is linear in the leading point's velocity (single
integrator), so the QP min ||u - u_nom||^2 subject to a u + b >= 0 has the
closed-form halfspace-projection solution. The resulting lead velocity maps
to unicycle (v, omega) through a near-identity diffeomorphism, which removes
the relative-degree problem of steering through omega directly.
"""

from __future__ import annotations

import math
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

# Distance to the goal inside which the nominal command is zero.
GOAL_DEADBAND = 0.05               # m


class InfeasibleConstraint(Exception):
    """The safety halfspace is empty (zero gradient with negative offset)."""


@dataclass
class ControlInput:
    v: float = 0.0
    omega: float = 0.0


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
    variant: str = "dlgp"

    def __post_init__(self) -> None:
        for name in ("alpha_slope", "lead_offset", "u_max", "v_max", "omega_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("u_max", "v_max"):
            if not getattr(self, name) <= 1e3:
                raise ValueError(f"{name} must be <= 1e3")
        if self.variant not in barrier.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"expected one of {list(barrier.VARIANTS)}")


@dataclass
class ControlDiagnostics:
    """Per-step bookkeeping for logs and closed-loop checks."""

    constraint_active: bool = False
    constraint_slack: float = float("nan")   # a . u_lead + b before saturation
    saturated: bool = False
    fallback: str = ""                       # "", "empty", "clamped", "brake"
    barrier_ms: float = 0.0
    qp_ms: float = 0.0


def nominal_goal(position, goal, u_max: float) -> np.ndarray:
    """Unit-direction go-to-goal command scaled to u_max; zero inside the deadband."""
    if u_max <= 0.0:
        raise ValueError("u_max must be > 0")
    dx = float(goal[0]) - float(position[0])
    dy = float(goal[1]) - float(position[1])
    distance = math.hypot(dx, dy)
    if distance <= GOAL_DEADBAND:
        return np.zeros(2)
    return np.array([u_max * dx / distance, u_max * dy / distance])


def build_constraint(evaluation: BarrierEvaluation,
                     alpha_slope: float) -> SafetyConstraint:
    """Assemble the halfspace from a barrier evaluation.

    With single-integrator lead dynamics the input gradient is the position
    part of dh/dx and the offset collects dh/dt + alpha(h), with the linear
    class-K gain alpha(h) = alpha_slope * h. Infeasible only when the
    gradient vanishes while the offset is negative.
    """
    a = np.asarray(evaluation.grad_state[:2], dtype=float)
    b = float(evaluation.time_derivative + alpha_slope * evaluation.value)
    feasible = bool(math.hypot(a[0], a[1]) > 1e-9 or b >= 0.0)
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
    # BLAS ddot fuses multiply-adds; a0*u0 + a1*u1 in floats rounds differently
    slack = float(constraint.a @ u + constraint.b)
    if slack >= 0.0:
        return u.copy()
    gain = -slack / float(constraint.a @ constraint.a)
    return u + gain * constraint.a


def lead_to_unicycle(u_lead, theta: float, lead_offset: float) -> ControlInput:
    """Map a lead-point velocity to unicycle (v, omega) commands."""
    if lead_offset <= 0.0:
        raise ValueError("lead_offset must be > 0")
    ux, uy = float(u_lead[0]), float(u_lead[1])
    c, s = math.cos(theta), math.sin(theta)
    return ControlInput(v=c * ux + s * uy, omega=(-s * ux + c * uy) / lead_offset)


def lead_point(robot: RobotState, lead_offset: float) -> np.ndarray:
    """Virtual leading point ahead of the robot along its heading."""
    return np.array([robot.x + lead_offset * math.cos(robot.theta),
                     robot.y + lead_offset * math.sin(robot.theta)])


def control_step(robot: RobotState, model: GpModel | None, velocities,
                 barrier_params: BarrierParams, params: ControllerParams,
                 goal) -> tuple[ControlInput, BarrierEvaluation | None, ControlDiagnostics]:
    """One safety-filtered control cycle from the frame's perception snapshot.

    Falls back to the nominal command when there is no data or the query sits
    in a clamped region (safe by distance), and to braking when the
    constraint is infeasible. Every other command leaves through one exit:
    the lead velocity mapped to (v, omega), clipped and flagged if clipped.
    """
    diag = ControlDiagnostics()
    u_nom = u_lead = nominal_goal((robot.x, robot.y), goal, params.u_max)
    evaluation = None
    if model is None or model.size == 0:
        diag.fallback = "empty"
    else:
        start = time.perf_counter()
        evaluation = barrier.evaluate_full(model, barrier_params,
                                           lead_point(robot, params.lead_offset),
                                           velocities, variant=params.variant)
        diag.barrier_ms = (time.perf_counter() - start) * 1e3
        if evaluation.clamped:
            diag.fallback = "clamped"

    if not diag.fallback:
        constraint = build_constraint(evaluation, params.alpha_slope)
        if not constraint.feasible:
            diag.fallback = "brake"
            return ControlInput(0.0, 0.0), evaluation, diag
        start = time.perf_counter()
        u_lead = solve_safety_qp(u_nom, constraint)
        diag.qp_ms = (time.perf_counter() - start) * 1e3
        diag.constraint_active = bool(float(constraint.a @ u_nom + constraint.b) < 0.0)
        diag.constraint_slack = float(constraint.a @ u_lead + constraint.b)

    raw = lead_to_unicycle(u_lead, robot.theta, params.lead_offset)
    v_max, omega_max = params.v_max, params.omega_max
    control = ControlInput(v=min(max(raw.v, -v_max), v_max),
                           omega=min(max(raw.omega, -omega_max), omega_max))
    diag.saturated = bool(
        abs(raw.v - control.v) > SATURATION_RTOL * v_max
        or abs(raw.omega - control.omega) > SATURATION_RTOL * omega_max)
    return control, evaluation, diag
