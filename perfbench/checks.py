"""Output checks, computed apart from the program.

Each checker raises CheckFailure with a message naming what is wrong. The
GP reference here has its own kernel and solves with numpy.linalg.solve; it
shares nothing with gpnav.gp except the hyperparameter values.
"""

from __future__ import annotations

import math

import numpy as np

# Barrier value at a training point is -margin_shift up to the jitter term
# jitter * alpha_j; the README of the program promises 1e-4.
BOUNDARY_TOL = 1e-4
# Program vs reference GP, |h_prog - h_ref| <= ABS + REL * |h|. Both solve
# the same jittered system in float64; see README.md for the derivation.
H_ABS_TOL = 1e-7
H_REL_TOL = 1e-7
# Gradient: relative to max(|grad h|, 1e-3), as bench.check_gradients does.
GRAD_TOL = 1e-6
# dh/dt vs a central difference with step FD_STEP along the velocities.
FD_STEP = 1e-5
DHDT_TOL = 1e-4
# export_field writes h with 9 decimals.
CSV_H_ROUNDING = 5e-10


class CheckFailure(Exception):
    """The program's output disagrees with the independent computation."""


class ReferenceGp:
    """Zero-mean SE-kernel GP over unit labels, solved with numpy.linalg.solve."""

    def __init__(self, points, length_scale: float, jitter: float) -> None:
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.inv_two_l2 = 1.0 / (2.0 * length_scale * length_scale)
        self.inv_l2 = 1.0 / (length_scale * length_scale)
        n = len(self.points)
        gram = self._kernel(self.points)
        self.alpha = np.linalg.solve(gram + jitter * np.eye(n), np.ones(n))

    def _kernel(self, queries: np.ndarray) -> np.ndarray:
        diff = queries[:, None, :] - self.points[None, :, :]
        return np.exp(-(diff ** 2).sum(axis=2) * self.inv_two_l2)

    def mean(self, queries) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        return self._kernel(q) @ self.alpha

    def mean_gradient(self, query) -> np.ndarray:
        q = np.asarray(query, dtype=float)
        k = self._kernel(q[None, :])[0]
        return -((self.alpha * k) @ (q - self.points)) * self.inv_l2


def log_barrier(mu, scale: float, margin_shift: float, mu_floor: float):
    return -scale * np.log(np.maximum(mu, mu_floor)) - margin_shift


def _close(actual: float, expected: float, abs_tol: float, rel_tol: float) -> bool:
    return abs(actual - expected) <= abs_tol + rel_tol * abs(expected)


# --------------------------------------------------------------------------
# suite


def obstacle_centres(cfg, t: float) -> np.ndarray:
    """Closed-form obstacle centres at time t from the scenario spec."""
    centres = []
    for ob in cfg.obstacles:
        spawn = np.asarray(ob.center, dtype=float)
        motion = ob.motion
        if motion.kind == "velocity":
            centres.append(spawn + np.asarray(motion.velocity, dtype=float) * t)
        elif motion.kind == "sinusoid":
            axis = np.asarray(motion.axis, dtype=float)
            axis = axis / np.hypot(axis[0], axis[1])
            centres.append(spawn + axis * motion.amplitude
                           * math.sin(2.0 * math.pi * t / motion.period))
        else:
            centres.append(spawn)
    return np.array(centres).reshape(-1, 2)


def check_episode(cfg, log, metrics) -> None:
    """Arrival without collision, clearance recomputed, commands in bounds."""
    name = cfg.name
    if metrics.collision or metrics.timed_out or metrics.arrival_time is None:
        raise CheckFailure(f"{name}: did not arrive cleanly "
                           f"(collision={metrics.collision}, "
                           f"timed_out={metrics.timed_out})")
    radii = np.array([ob.radius for ob in cfg.obstacles])
    recomputed = []
    for step in log.steps:
        centres = obstacle_centres(cfg, step.t)
        gaps = np.hypot(centres[:, 0] - step.px, centres[:, 1] - step.py) - radii
        recomputed.append(float(gaps.min()) if len(gaps) else math.inf)
        if not _close(step.clearance, recomputed[-1], 1e-9, 1e-12):
            raise CheckFailure(f"{name}: t={step.t:.2f} logged clearance "
                               f"{step.clearance!r} != recomputed {recomputed[-1]!r}")
    least = min(recomputed)
    if not least > 0.0:
        raise CheckFailure(f"{name}: recomputed minimum clearance {least} <= 0")
    if not _close(metrics.min_clearance, least, 1e-9, 1e-12):
        raise CheckFailure(f"{name}: metrics min_clearance {metrics.min_clearance!r}"
                           f" != recomputed {least!r}")
    v_max, omega_max = cfg.controller.v_max, cfg.controller.omega_max
    for step in log.steps:
        if not (abs(step.v) <= v_max and abs(step.omega) <= omega_max):
            raise CheckFailure(f"{name}: t={step.t:.2f} command (v={step.v}, "
                               f"omega={step.omega}) outside the actuator box")


# --------------------------------------------------------------------------
# clutter


def check_clusters(frame, tolerance: float) -> None:
    """Every cluster lies inside its ellipse inflated by (1 + 10 tol)."""
    limit = (1.0 + 10.0 * tolerance) ** 2
    for ellipse, cid in zip(frame.ellipses, frame.cluster_ids):
        pts = frame.points[frame.labels == cid] - ellipse.center
        c, s = math.cos(ellipse.angle), math.sin(ellipse.angle)
        u = (pts[:, 0] * c + pts[:, 1] * s) / ellipse.semi_major
        v = (pts[:, 1] * c - pts[:, 0] * s) / ellipse.semi_minor
        worst = float(np.max(u * u + v * v))
        if worst > limit:
            raise CheckFailure(f"cluster {cid}: a point lies at {worst:.6f} "
                               f"> {limit:.6f} of its ellipse")


def check_clutter_frame(out, perception, kernel, barrier_params,
                        lead_offset: float, program_evaluate) -> None:
    """Perception, dataset and barrier outputs of one clutter frame."""
    check_clusters(out.frame, perception.mvee_tolerance)
    cap = perception.dataset_cap
    n = len(out.points)
    if n > cap:
        raise CheckFailure(f"dataset of {n} points exceeds the cap {cap}")
    if n == 0:
        if out.evaluation is not None:
            raise CheckFailure("barrier evaluated without training points")
        return
    for point in out.points:
        h = program_evaluate(out.model, barrier_params, point)
        if abs(h + barrier_params.margin_shift) > BOUNDARY_TOL:
            raise CheckFailure(f"h at training point {point} is {h}, not "
                               f"-margin_shift within {BOUNDARY_TOL}")
    robot = out.robot
    query = np.array([robot.x + lead_offset * math.cos(robot.theta),
                      robot.y + lead_offset * math.sin(robot.theta)])
    p = barrier_params
    ref = ReferenceGp(out.points, kernel.length_scale, kernel.jitter)
    mu = float(ref.mean(query)[0])
    h = float(log_barrier(mu, p.scale, p.margin_shift, p.mu_floor))
    ev = out.evaluation
    if not _close(ev.value, h, H_ABS_TOL, H_REL_TOL):
        raise CheckFailure(f"h at the query: program {ev.value!r}, reference {h!r}")
    if ev.clamped:
        return
    grad = -p.scale * ref.mean_gradient(query) / mu
    scale = max(float(np.hypot(*grad)), 1e-3)
    if np.max(np.abs(ev.grad_state[:2] - grad)) > GRAD_TOL * scale or ev.grad_state[2] != 0.0:
        raise CheckFailure(f"grad h at the query: program {ev.grad_state}, "
                           f"reference {grad}")
    h_of = [float(log_barrier(ReferenceGp(out.points + sign * FD_STEP * out.velocities,
                                          kernel.length_scale, kernel.jitter).mean(query)[0],
                              p.scale, p.margin_shift, p.mu_floor))
            for sign in (1.0, -1.0)]
    numeric = (h_of[0] - h_of[1]) / (2.0 * FD_STEP)
    if abs(ev.time_derivative - numeric) > DHDT_TOL * max(abs(numeric), 1e-2):
        raise CheckFailure(f"dh/dt at the query: program {ev.time_derivative!r}, "
                           f"central difference {numeric!r}")


# --------------------------------------------------------------------------
# field


def check_field_csv(path, rows: int, points, axis: np.ndarray, kernel,
                    barrier_params) -> None:
    """Row count equals the window, and every h matches the reference GP."""
    expected_rows = len(axis) ** 2
    if rows != expected_rows:
        raise CheckFailure(f"export_field reported {rows} rows, window has "
                           f"{expected_rows}")
    with open(path) as handle:
        header = handle.readline().strip()
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    if header != "x,y,h" or table.shape != (expected_rows, 3):
        raise CheckFailure(f"field CSV has header {header!r} and shape "
                           f"{table.shape}, expected (x,y,h) x {expected_rows}")
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    queries = np.column_stack([xs.ravel(), ys.ravel()])
    if np.max(np.abs(table[:, :2] - queries)) > 5e-7:
        raise CheckFailure("field CSV coordinates differ from the window grid")
    p = barrier_params
    ref = ReferenceGp(points, kernel.length_scale, kernel.jitter)
    h_ref = log_barrier(ref.mean(queries), p.scale, p.margin_shift, p.mu_floor)
    err = np.abs(table[:, 2] - h_ref)
    allowed = CSV_H_ROUNDING + H_ABS_TOL + H_REL_TOL * np.abs(h_ref)
    worst = int(np.argmax(err - allowed))
    if err[worst] > allowed[worst]:
        raise CheckFailure(f"field row {worst}: h {table[worst, 2]!r} vs reference "
                           f"{h_ref[worst]!r}")
