"""Timing and derivative-consistency checks runnable from the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import barrier
from .barrier import BarrierParams
from .gp import KernelParams, build_model, mean_terms


# m, least distance between random_dataset points: the perception grid cell
MIN_SPACING = 0.2


@dataclass
class BenchRow:
    size: int
    mean_ms: float
    median_ms: float


def max_dataset_size(spread: float = 5.0) -> int:
    """Largest size random_dataset places in a square of half-width spread.

    Random placement at MIN_SPACING jams near 0.7 points per MIN_SPACING^2
    of the square (about 1,700 in the default 10 x 10 m) and then never
    places another; 0.4 per MIN_SPACING^2 keeps the loop short.
    """
    return int(0.4 * (2.0 * spread / MIN_SPACING) ** 2)


def random_dataset(rng: np.random.Generator, size: int,
                   spread: float = 5.0) -> tuple[np.ndarray, np.ndarray]:
    """Random point cloud with per-point velocities.

    Points keep the grid pipeline's minimum spacing, which bounds the kernel
    matrix conditioning the same way downsampled occupancy cells do. Sizes
    above max_dataset_size(spread) raise ValueError.
    """
    limit = max_dataset_size(spread)
    if size > limit:
        raise ValueError(f"dataset size {size} is over {limit}, the bound for "
                         f"points {MIN_SPACING} m apart in a "
                         f"{2.0 * spread} m square")
    points = np.empty((size, 2))
    count = 0
    while count < size:
        candidate = rng.uniform(-spread, spread, 2)
        if count == 0 or np.min(
                np.linalg.norm(points[:count] - candidate, axis=1)) >= MIN_SPACING:
            points[count] = candidate
            count += 1
    velocities = rng.uniform(-0.8, 0.8, (size, 2))
    return points, velocities


def bench_barrier(sizes: list[int], repetitions: int = 50,
                  seed: int = 0) -> list[BenchRow]:
    """Wall time of one full barrier evaluation per dataset size.

    One evaluation covers model construction plus value, spatial gradient and
    time derivative at a random query, mirroring the per-frame cost of the
    control loop. Sizes run from 1 to max_dataset_size(); any other size
    raises ValueError before the first evaluation.
    """
    limit = max_dataset_size()
    for size in sizes:
        if not 1 <= size <= limit:
            raise ValueError(f"dataset sizes must be in 1..{limit}, got {size}")
    rng = np.random.default_rng(seed)
    params = BarrierParams()
    kernel = KernelParams()
    rows = []
    for size in sizes:
        samples = []
        for _ in range(repetitions):
            points, velocities = random_dataset(rng, size)
            query = rng.uniform(-5.0, 5.0, 2)
            start = time.perf_counter()
            model = build_model(points, params=kernel)
            barrier.evaluate_full(model, params, query, velocities)
            samples.append((time.perf_counter() - start) * 1e3)
        timings = np.array(samples)
        rows.append(BenchRow(size=size, mean_ms=float(timings.mean()),
                             median_ms=float(np.median(timings))))
    return rows


def check_gradients(cases: int = 100, seed: int = 0) -> dict[str, float]:
    """Max relative error of the analytic derivatives vs central differences.

    Runs the spatial gradient against finite differences of the barrier value
    and the time derivative against finite differences of the barrier along
    the moving dataset, over random models with sizes cycling through
    {1, 5, 30} and the pipeline's minimum point spacing.
    """
    rng = np.random.default_rng(seed)
    params = BarrierParams()
    kernel = KernelParams()
    step = 1e-5                    # central-difference step, in m and in s
    sizes = (1, 5, 30)
    worst_spatial = 0.0
    worst_time = 0.0
    for case in range(cases):
        size = sizes[case % len(sizes)]
        points, velocities = random_dataset(rng, size, spread=3.0)
        velocities = rng.uniform(-1.0, 1.0, (size, 2))
        model = build_model(points, params=kernel)
        query = rng.uniform(-3.0, 3.0, 2)
        if mean_terms(model, query)[0] < 1e-8:
            query = points[0] + rng.uniform(-0.5, 0.5, 2)

        evaluation = barrier.evaluate_full(model, params, query, velocities)
        for axis in range(2):
            offset = np.zeros(2)
            offset[axis] = step
            h_plus = barrier.evaluate(model, params, query + offset)
            h_minus = barrier.evaluate(model, params, query - offset)
            numeric = (h_plus - h_minus) / (2.0 * step)
            denom = max(abs(numeric), 1e-3)
            worst_spatial = max(worst_spatial,
                                abs(evaluation.grad_state[axis] - numeric) / denom)

        model_plus = build_model(points + step * velocities, params=kernel)
        model_minus = build_model(points - step * velocities, params=kernel)
        numeric = (barrier.evaluate(model_plus, params, query)
                   - barrier.evaluate(model_minus, params, query)) / (2.0 * step)
        denom = max(abs(numeric), 1e-3)
        worst_time = max(worst_time,
                         abs(evaluation.time_derivative - numeric) / denom)
    return {"spatial_max_rel_err": worst_spatial,
            "time_max_rel_err": worst_time,
            "cases": cases}
