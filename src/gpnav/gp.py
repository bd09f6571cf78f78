"""Zero-mean Gaussian process regression with a squared-exponential kernel.

Provides model construction through a Cholesky factorization plus one
vectorised query pass that returns the posterior mean, its spatial gradient
and its rate of change as the training points move, which is all the barrier
synthesis needs. Queries are pure and read-only on an immutable model, so
they are safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class FactorizationFailure(Exception):
    """Covariance factorization hit a non-positive pivot.

    Usually signals duplicate or near-duplicate training points; the caller
    should downsample and retry.
    """


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters.

    length_scale is in meters. jitter is a dimensionless diagonal
    regularizer added to the covariance matrix before factorization;
    grid-sampled obstacle boundaries produce highly correlated rows and a
    small jitter keeps the factorization stable without visibly perturbing
    interpolation (error at a training point is exactly jitter * alpha_j).
    """

    length_scale: float = 0.9
    jitter: float = 1e-8

    def __post_init__(self) -> None:
        if self.length_scale <= 0.0:
            raise ValueError("length_scale must be > 0")
        if self.jitter < 0.0:
            raise ValueError("jitter must be >= 0")


def _se_kernel(diff: np.ndarray, params: KernelParams) -> np.ndarray:
    """SE kernel exp(-||d||^2 / (2 l^2)) over the last axis of point differences."""
    sq = np.einsum("...k,...k->...", diff, diff)
    return np.exp(-sq / (2.0 * params.length_scale**2))


@dataclass(frozen=True)
class GpModel:
    """Fitted GP over 2D obstacle points with unit labels.

    chol_lower is the lower-triangular factor of cov + jitter*I and alpha
    solves (cov + jitter*I) alpha = labels, so every formula written with an
    explicit matrix inverse is evaluated through triangular solves instead.
    """

    points: np.ndarray      # (N, 2) training inputs, global frame, meters
    labels: np.ndarray      # (N,)
    params: KernelParams
    cov: np.ndarray         # (N, N) kernel matrix, jitter excluded
    chol_lower: np.ndarray  # (N, N) lower factor of cov + jitter*I
    alpha: np.ndarray       # (N,) weight vector

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (cov + jitter*I) x = rhs via the stored factor."""
        return cho_solve((self.chol_lower, True), rhs)


def build_model(points, labels=None, params: KernelParams | None = None) -> GpModel:
    """Factorize the covariance of the point set and precompute the weights.

    labels default to all ones. Raises FactorizationFailure when the jittered
    covariance is not positive definite (duplicate points with zero jitter).
    """
    params = params or KernelParams()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n < 1 or pts.shape[1] != 2:
        raise ValueError("points must be a non-empty (N, 2) array")
    if labels is None:
        y = np.ones(n)
    else:
        y = np.asarray(labels, dtype=float).reshape(-1)
        if y.shape[0] != n:
            raise ValueError("labels length must match point count")

    cov = _se_kernel(pts[:, None, :] - pts[None, :, :], params)
    try:
        factor, _ = cho_factor(cov + params.jitter * np.eye(n), lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"covariance of {n} points is not positive definite "
            "(duplicate or near-duplicate points; downsample the input)"
        ) from exc
    chol_lower = np.tril(factor)
    alpha = cho_solve((chol_lower, True), y)
    return GpModel(points=pts, labels=y, params=params, cov=cov,
                   chol_lower=chol_lower, alpha=alpha)


def mean_terms(model: GpModel, queries, velocities=None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Posterior mean and its derivatives at Q query points, in one pass.

    Returns (mu (Q,), dmu_dq (Q, 2), dmu_dt (Q,) or None). With k the (Q, N)
    kernel block and A = cov + jitter*I:

      mu     = k alpha
      dmu/dq = -(1/l^2) sum_i alpha_i k_i (q - d_i)
      dmu/dt = kdot alpha - k beta,  beta = A^-1 (Kdot alpha)

    where the training points move with the given (N, 2) velocities,
    kdot_qi = (1/l^2) k_qi (q - d_i)^T v_i and
    Kdot_ij = -(1/l^2) K_ij (d_i - d_j)^T (v_i - v_j); any rigid translation
    of the point set makes Kdot exactly zero. dmu_dt is None when velocities
    is None, which skips the beta solve.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    l2 = model.params.length_scale**2
    diff = q[:, None, :] - model.points[None, :, :]
    k = _se_kernel(diff, model.params)
    mu = k @ model.alpha
    dmu_dq = -np.einsum("qi,qik->qk", k * model.alpha, diff) / l2
    if velocities is None:
        return mu, dmu_dq, None

    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    if v.shape != model.points.shape:
        raise ValueError(f"velocities shape {v.shape} does not match "
                         f"training points {model.points.shape}")
    dpos = model.points[:, None, :] - model.points[None, :, :]
    dvel = v[:, None, :] - v[None, :, :]
    kdot_mat = -(model.cov * np.einsum("ijk,ijk->ij", dpos, dvel)) / l2
    beta = model.solve(kdot_mat @ model.alpha)
    kdot = k * np.einsum("qik,ik->qi", diff, v) / l2
    dmu_dt = kdot @ model.alpha - k @ beta
    return mu, dmu_dq, dmu_dt
