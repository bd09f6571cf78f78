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

# Offset of the non-log ablation variant gp-linear, h = LINEAR_PRIOR - mu.
LINEAR_PRIOR = 0.9


@dataclass(frozen=True)
class BarrierParams:
    """Barrier shaping parameters.

    scale multiplies the log term, margin_shift shifts the zero level to
    carve a safety margin around the data, and mu_floor bounds the mean away
    from zero before the logarithm (far from all data the posterior mean can
    round to or below zero).
    """

    scale: float = 1.0
    margin_shift: float = 0.1
    mu_floor: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("scale", "margin_shift"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not self.scale <= 1e6:          # dimensionless; keeps |a|^2 finite
            raise ValueError("scale must be <= 1e6")
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
                   cap: int) -> tuple[np.ndarray, np.ndarray]:
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


def _log_value(mu, params: BarrierParams):
    """-scale * log(max(mu, mu_floor)) - margin_shift, elementwise."""
    # np.log, not math.log: the two libms differ in the last bit on some inputs
    return -params.scale * np.log(np.maximum(mu, params.mu_floor)) - params.margin_shift


def evaluate(model: GpModel, params: BarrierParams, position) -> float:
    """Barrier value at one position."""
    mu, _, _ = mean_terms(_require_points(model), position)
    return float(_log_value(mu, params))


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
    mu, grad, rate = mean_terms(_require_points(model), position, moving)
    if variant == "gp-linear":
        value, clamped, grad_pos, dhdt = LINEAR_PRIOR - mu, False, -grad, -rate
    else:
        value = float(_log_value(mu, params))
        clamped = mu <= params.mu_floor
        grad_pos = np.zeros(2) if clamped else -params.scale * grad / mu
        dhdt = 0.0 if clamped or rate is None else -params.scale * rate / mu
    return BarrierEvaluation(value=value,
                             grad_state=np.array([grad_pos[0], grad_pos[1], 0.0]),
                             time_derivative=dhdt, mu=mu, clamped=clamped)


def model_from_datasets(points: np.ndarray, kernel: KernelParams) -> GpModel | None:
    """Build the barrier GP for a frame, or None when no points were observed."""
    if len(points) == 0:
        return None
    return build_model(points, params=kernel)


# |h| below this keeps |h * 1e9| < 2**52, where every half-way point between
# two integers is a double, so rounding the product cannot step across one
_FIXED9_LIMIT = 2.0**52 / 1e9
_SPLITTER = 134217729.0                    # 2**27 + 1, Dekker's splitter
# column k holds the three ASCII digits of k, zero-padded
_DIGITS3 = np.array([f"{k:03d}" for k in range(1000)], dtype="S3").view(
    np.uint8).reshape(1000, 3).T.copy()


def _fixed9_columns(values: np.ndarray) -> np.ndarray:
    """f"{h:.9f}" of each value as a column of zero-padded ASCII bytes.

    values is flat; the result is a (width, len(values)) uint8 array, and
    dropping the zero bytes of column i leaves the text of values[i]. Valid
    for finite |h| < _FIXED9_LIMIT only. The product h * 1e9 is split into
    its double p and the exact error e (Dekker; 1e9 has 21 significant bits,
    so both partial products are exact). rint(p) is the correctly rounded
    integer unless p is itself half-way, where the sign of e picks the side;
    only a zero e is a true tie, left to rint's round-half-even like
    Python's own formatting.
    """
    scaled = values * 1e9
    big = values * _SPLITTER
    high = big - (big - values)
    error = (high * 1e9 - scaled) + (values - high) * 1e9
    lower = np.floor(scaled)
    broken_tie = (scaled - lower == 0.5) & (error != 0.0)
    units = np.where(broken_tie, lower + (error > 0.0), np.rint(scaled))
    whole, fraction = np.divmod(np.abs(units).astype(np.int64), 10**9)

    width = len(str(int(whole.max(initial=0))))
    out = np.empty((width + 11, len(values)), dtype=np.uint8)
    out[0] = np.signbit(values) * np.uint8(ord("-"))
    for row, unit in enumerate(10 ** np.arange(width - 1, -1, -1), start=1):
        digit = whole // unit % 10 + ord("0")
        # a leading zero of the integer part is dropped, its units digit never
        out[row] = digit if unit == 1 else np.where(whole >= unit, digit, 0)
    out[width + 1] = ord(".")
    upper, low = np.divmod(fraction, 1000)
    groups = (*np.divmod(upper, 1000), low)
    for row, group in zip(range(width + 2, width + 11, 3), groups):
        np.take(_DIGITS3, group, axis=1, out=out[row:row + 3])
    return out


def _padded_bytes(texts: list[str]) -> np.ndarray:
    """ASCII texts as the columns of a uint8 array, zero-padded to the longest."""
    table = np.array(texts, dtype="S")
    return table.view(np.uint8).reshape(len(texts), table.itemsize).T


def _field_rows(x_text: list[str], y_text: list[str], values: np.ndarray) -> bytes:
    """The rows x_text[i] + y_text[j] + f"{values[i, j]:.9f}" + "\\r\\n", x-major.

    A window of finite |h| < _FIXED9_LIMIT is laid out in one array pass: a
    column of zero-padded bytes per row of the file, read row-major and
    stripped of its zero bytes. A window holding an inf, a nan or a larger
    value formats one f-string per row, with the same bytes either way.
    """
    if not np.all(np.abs(values) < _FIXED9_LIMIT):     # true on nan and inf
        return "".join(f"{xc}{yc}{h:.9f}\r\n"
                       for xc, column in zip(x_text, values.tolist())
                       for yc, h in zip(y_text, column)).encode()
    x_bytes, y_bytes = _padded_bytes(x_text), _padded_bytes(y_text)
    h_bytes = _fixed9_columns(values.ravel())
    x_end = len(x_bytes)
    y_end = x_end + len(y_bytes)
    table = np.empty((y_end + len(h_bytes) + 2,) + values.shape, dtype=np.uint8)
    table[:x_end] = x_bytes[:, :, None]
    table[x_end:y_end] = y_bytes[:, None, :]
    table[y_end:-2] = h_bytes.reshape(table[y_end:-2].shape)
    table[-2], table[-1] = ord("\r"), ord("\n")
    return table.reshape(len(table), -1).T.tobytes().replace(b"\0", b"")


def export_field(model: GpModel, params: BarrierParams, path,
                 x_range: tuple[float, float], y_range: tuple[float, float],
                 resolution: float = 0.1) -> int:
    """Write an (x, y, h) CSV grid of barrier values over a rectangle.

    Returns the number of rows written. Intended for external surface or
    contour plotting of the barrier landscape. Rows run x-major (y fastest),
    under the header x,y,h, and end in \\r\\n like csv.writer's default
    dialect. The mean comes from one separable gp.grid_mean pass, each
    coordinate is formatted once and h is formatted as f"{h:.9f}" in one
    array pass (_field_rows).
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be > 0")
    xs = np.arange(x_range[0], x_range[1] + 0.5 * resolution, resolution)
    ys = np.arange(y_range[0], y_range[1] + 0.5 * resolution, resolution)
    values = _log_value(grid_mean(_require_points(model), xs, ys), params)
    x_text = [f"{x:.6f}" for x in xs.tolist()]
    y_text = [f",{y:.6f}," for y in ys.tolist()]
    with open(path, "wb") as handle:
        handle.write(b"x,y,h\r\n" + _field_rows(x_text, y_text, values))
    return values.size
