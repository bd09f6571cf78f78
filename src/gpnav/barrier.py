"""Log-GP barrier synthesis: value, spatial gradient, and time derivative.

The barrier is h = -scale * log(mu) - margin_shift, where mu is the GP
posterior mean over obstacle boundary points labeled 1. The log transform
keeps the value and gradient informative far from data, where a plain GP
mean saturates toward its prior. Obstacle motion enters through the time
derivative of mu along the tracked per-point velocities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import GpModel, KernelParams, build_model, grid_mean, mean_terms
from .perception.grid import ObstacleGridMap


class EmptyDataset(Exception):
    """Barrier queried without any training data; caller falls back to nominal."""


VARIANTS = ("dlgp", "dlgp-no-dhdt", "gp-linear")


@dataclass(frozen=True)
class BarrierParams:
    """Barrier shaping parameters.

    scale multiplies the log term, margin_shift shifts the zero level to
    carve a safety margin around the data, and mu_floor bounds the mean away
    from zero before the logarithm (far from all data the posterior mean can
    round to or below zero). linear_prior is the offset used by the non-log
    ablation variant, h = linear_prior - mu.
    """

    scale: float = 1.0
    margin_shift: float = 0.1
    mu_floor: float = 1e-12
    linear_prior: float = 0.9

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError("scale must be > 0")
        if self.margin_shift <= 0.0:
            raise ValueError("margin_shift must be > 0")
        if not 0.0 < self.mu_floor <= 1e-9:
            raise ValueError("mu_floor must be in (0, 1e-9]")


@dataclass
class BarrierEvaluation:
    """Barrier value and derivatives at one query position.

    grad_state is (dh/dx, dh/dy, dh/dheading); the heading component is
    exactly zero because the barrier depends on position only.
    """

    value: float
    grad_state: np.ndarray
    time_derivative: float
    mu: float
    clamped: bool


def build_datasets(obstacle_grid: ObstacleGridMap, velocity_grid: np.ndarray,
                   cap: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Turn occupied cells into training points with index-aligned velocities.

    Points are cell centers in world coordinates, enumerated in row-major
    occupied order; velocity_grid holds one (2,) velocity per occupied cell,
    in the same order. When the occupied count exceeds the cap, every
    stride-th cell is kept (stride = ceil(count / cap)), so repeated runs
    subsample identically. An empty grid yields empty arrays.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    points, velocities = obstacle_grid.points, velocity_grid
    count = len(points)
    if count > cap:
        stride = int(np.ceil(count / cap))
        points = points[::stride]
        velocities = velocities[::stride]
    return points, velocities


def _require_points(model: GpModel | None) -> GpModel:
    """The model itself, refusing a missing or empty one."""
    if model is None or model.size == 0:
        raise EmptyDataset("barrier evaluated without training points")
    return model


def _gp_terms(model: GpModel | None, queries, velocities=None):
    """gp.mean_terms, refusing a missing or empty model."""
    return mean_terms(_require_points(model), queries, velocities)


def _log_value(mu, params: BarrierParams):
    """-scale * log(max(mu, mu_floor)) - margin_shift, elementwise."""
    return -params.scale * np.log(np.maximum(mu, params.mu_floor)) - params.margin_shift


def evaluate(model: GpModel, params: BarrierParams, position) -> float:
    """Barrier value at one position."""
    mu, _, _ = _gp_terms(model, position)
    return float(_log_value(mu[0], params))


def evaluate_full(model: GpModel, params: BarrierParams, position, velocities,
                  variant: str = "dlgp") -> BarrierEvaluation:
    """Value, gradient and time derivative at one position, with variant dispatch.

    With the log transform, grad h = -scale * grad mu / mu and
    dh/dt = -scale * (dmu/dt) / mu. Where mu has fallen to the clamp floor the
    derivatives are unreliable: the clamped flag is set and they are zeroed,
    so the controller can fall back. dlgp-no-dhdt skips the time derivative.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown barrier variant {variant!r}")
    moving = None if variant == "dlgp-no-dhdt" else velocities
    mu_q, grad_q, rate_q = _gp_terms(model, position, moving)
    mu = float(mu_q[0])

    if variant == "gp-linear":
        grad_pos = -grad_q[0]
        return BarrierEvaluation(value=params.linear_prior - mu,
                                 grad_state=np.array([grad_pos[0], grad_pos[1], 0.0]),
                                 time_derivative=-float(rate_q[0]), mu=mu,
                                 clamped=False)

    value = float(_log_value(mu, params))
    if mu <= params.mu_floor:
        return BarrierEvaluation(value=value, grad_state=np.zeros(3),
                                 time_derivative=0.0, mu=mu, clamped=True)
    grad_pos = -params.scale * grad_q[0] / mu
    dhdt = 0.0 if rate_q is None else -params.scale * float(rate_q[0]) / mu
    return BarrierEvaluation(value=value,
                             grad_state=np.array([grad_pos[0], grad_pos[1], 0.0]),
                             time_derivative=dhdt, mu=mu, clamped=False)


def model_from_datasets(points: np.ndarray, kernel: KernelParams) -> GpModel | None:
    """Build the barrier GP for a frame, or None when no points were observed."""
    if len(points) == 0:
        return None
    return build_model(points, params=kernel)


def export_field(model: GpModel, params: BarrierParams, path,
                 x_range: tuple[float, float], y_range: tuple[float, float],
                 resolution: float = 0.1) -> int:
    """Write an (x, y, h) CSV grid of barrier values over a rectangle.

    Returns the number of rows written. Intended for external surface or
    contour plotting of the barrier landscape. Rows run x-major (y fastest),
    under the header x,y,h, and end in \\r\\n like csv.writer's default
    dialect. The mean comes from one separable gp.grid_mean pass and each
    coordinate is formatted once, so a row costs one f-string.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be > 0")
    xs = np.arange(x_range[0], x_range[1] + 0.5 * resolution, resolution)
    ys = np.arange(y_range[0], y_range[1] + 0.5 * resolution, resolution)
    values = _log_value(grid_mean(_require_points(model), xs, ys), params)
    x_text = [f"{x:.6f}" for x in xs.tolist()]
    y_text = [f",{y:.6f}," for y in ys.tolist()]
    rows = [f"{xc}{yc}{h:.9f}\r\n"
            for xc, column in zip(x_text, values.tolist())
            for yc, h in zip(y_text, column)]
    with open(path, "w", newline="") as handle:
        handle.write("x,y,h\r\n" + "".join(rows))
    return len(rows)
