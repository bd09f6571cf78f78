"""Zero-mean Gaussian process regression with a squared-exponential kernel.

Provides model construction through a Cholesky factorization (LAPACK's
dpotrf/dpotrs, called directly) plus one query pass at a single point that
returns the posterior mean, its spatial gradient and its rate of change as
the training points move, which is all the barrier synthesis needs, plus a
separable pass for the mean over a rectangular grid.
Queries are pure and read-only on an immutable model, so they are safe to
evaluate concurrently.

The two LAPACK routines come from scipy's compiled module
scipy.linalg._flapack, loaded without the scipy.linalg package (see
gpnav._scipy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scipy import extension

_flapack = extension("scipy.linalg._flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


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
    jitter is bounded by 1, the kernel's own variance: far above it alpha,
    and with it the posterior mean, shrinks like 1/jitter and the barrier
    flattens until it no longer keeps the robot off obstacles.
    """

    length_scale: float = 0.9
    jitter: float = 1e-8

    def __post_init__(self) -> None:
        # the grid resolution's floor; near 1e-158 m the kernel's exponent overflows
        if not self.length_scale >= 1e-3:
            raise ValueError("length_scale must be >= 1e-3")
        if not self.length_scale <= 1e3:
            raise ValueError("length_scale must be <= 1e3")
        if not self.jitter >= 0.0:
            raise ValueError("jitter must be >= 0")
        if not self.jitter <= 1.0:
            raise ValueError("jitter must be <= 1")


# b_i M b_j^T = (d_i - d_j)^T (v_i - v_j) for the rows b_i = [1, v_i, d_i, d_i.v_i]:
# 1 pairs with d.v and v with -d, in both orders.
_RATE_PAIRING = np.zeros((6, 6))
_RATE_PAIRING[[0, 5], [5, 0]] = 1.0
_RATE_PAIRING[[1, 2, 3, 4], [3, 4, 1, 2]] = -1.0


def _se_kernel(diff: np.ndarray, params: KernelParams) -> np.ndarray:
    """SE kernel exp(-||d||^2 / (2 l^2)) over the last axis of point differences."""
    sq = np.einsum("...k,...k->...", diff, diff)
    return np.exp(-sq / (2.0 * params.length_scale**2))


@dataclass(frozen=True)
class GpModel:
    """Fitted GP over 2D obstacle points with unit labels.

    chol_lower is the lower-triangular factor of cov + jitter*I and alpha
    solves (cov + jitter*I) alpha = 1, so every formula written with an
    explicit matrix inverse is evaluated through triangular solves instead.
    Raw LAPACK does not reject NaN or inf as SciPy's cho_factor/cho_solve
    did, so build_model and mean_terms check that their inputs are finite.
    """

    points: np.ndarray      # (N, 2) training inputs, global frame, meters
    params: KernelParams
    cov: np.ndarray         # (N, N) kernel matrix, jitter excluded
    chol_lower: np.ndarray  # (N, N) lower factor of cov + jitter*I
    alpha: np.ndarray       # (N,) weight vector

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (cov + jitter*I) x = rhs via the stored factor."""
        return dpotrs(self.chol_lower, rhs, lower=1)[0]


def build_model(points, params: KernelParams | None = None) -> GpModel:
    """Factorize the covariance of the point set and precompute the weights.

    Every point is labelled 1. Raises FactorizationFailure when the jittered
    covariance is not positive definite (duplicate points with zero jitter),
    and ValueError on non-finite points.
    """
    params = params or KernelParams()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n < 1 or pts.shape[1] != 2:
        raise ValueError("points must be a non-empty (N, 2) array")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")

    diffs = pts[:, None, :] - pts[None, :, :]
    cov = _se_kernel(diffs, params)
    jittered = cov.copy()
    jittered.flat[::n + 1] += params.jitter
    chol_lower, info = dpotrf(jittered, lower=1, clean=1)
    if info > 0:
        raise FactorizationFailure(
            f"covariance of {n} points is not positive definite "
            "(duplicate or near-duplicate points; downsample the input)")
    alpha = dpotrs(chol_lower, np.ones(n), lower=1)[0]
    return GpModel(points=pts, params=params, cov=cov,
                   chol_lower=chol_lower, alpha=alpha)


def mean_terms(model: GpModel, query, velocities=None
               ) -> tuple[float, np.ndarray, float | None]:
    """Posterior mean and its derivatives at one (2,) query point, in one pass.

    Returns (mu, dmu_dq (2,), dmu_dt or None). With k the (N,) kernel row
    and A = cov + jitter*I:

      mu     = k alpha
      dmu/dq = -(1/l^2) sum_i alpha_i k_i (q - d_i)
      dmu/dt = kdot alpha - k beta,  beta = A^-1 (Kdot alpha)

    where the training points move with the given (N, 2) velocities,
    kdot_i = (1/l^2) k_i (q - d_i)^T v_i and
    Kdot_ij = -(1/l^2) K_ij (d_i - d_j)^T (v_i - v_j); any rigid translation
    of the point set makes Kdot exactly zero. dmu_dt is None when velocities
    is None, which skips the beta solve; non-finite velocities raise
    ValueError.

    Kdot alpha is formed without (N, N) pairwise arrays. With the rows
    b_i = [1, v_i, d_i, d_i.v_i] and the constant pairing matrix M of
    _RATE_PAIRING, (d_i - d_j)^T (v_i - v_j) = b_i M b_j^T, so

      (Kdot alpha)_i = -(1/l^2) b_i M P_i^T,  P = cov (alpha * b),

    one (N, N) x (N, 6) product and row-wise dot products. The points are
    centred at their mean first: the differences do not change, and the
    terms stay the size of the point spread rather than the distance to the
    origin, so they cancel without losing digits far from it.
    """
    q = np.asarray(query, dtype=float)
    l2 = model.params.length_scale**2
    diff = q - model.points
    k = _se_kernel(diff, model.params)
    mu = float(k @ model.alpha)
    # einsum, not @: a matrix product rounds the gradient's last bits differently
    dmu_dq = -np.einsum("i,ik->k", k * model.alpha, diff) / l2
    if velocities is None:
        return mu, dmu_dq, None

    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    if v.shape != model.points.shape:
        raise ValueError(f"velocities shape {v.shape} does not match "
                         f"training points {model.points.shape}")
    if not np.isfinite(v).all():
        raise ValueError("velocities must be finite")
    # sum(axis=0) runs pairwise down a column-major array's contiguous
    # columns and row by row over a C-ordered one, so its last bits follow
    # the memory layout of the points (column-major from the grid's cells)
    d = model.points - model.points.sum(axis=0) / model.size
    rows = np.empty((model.size, 6))
    rows[:, 0] = 1.0
    rows[:, 1:3] = v
    rows[:, 3:5] = d
    rows[:, 5] = np.einsum("ik,ik->i", d, v)
    p = model.cov @ (rows * model.alpha[:, None])
    kdot_alpha = -np.einsum("ij,ij->i", rows @ _RATE_PAIRING, p) / l2
    beta = model.solve(kdot_alpha)
    kdot = k * np.einsum("ik,ik->i", diff, v) / l2
    dmu_dt = float(kdot @ model.alpha - k @ beta)
    return mu, dmu_dq, dmu_dt


def grid_mean(model: GpModel, xs, ys) -> np.ndarray:
    """Posterior mean over the rectangular grid xs x ys, as an (nx, ny) array.

    The SE kernel factorises over the axes,

      k(q, d) = exp(-(qx - dx)^2 / 2l^2) * exp(-(qy - dy)^2 / 2l^2),

    so with kx the (nx, N) kernel table along x and ky the (ny, N) table
    along y, mu[a, b] = sum_i kx[a, i] alpha_i ky[b, i], which is the single
    product (kx * alpha) @ ky.T. That takes N (nx + ny) exponentials instead
    of N nx ny, and no (nx ny, N, 2) difference array. Entry [a, b] is the
    query (xs[a], ys[b]), so .ravel() gives the meshgrid(xs, ys,
    indexing="ij") order. A single point goes through mean_terms.
    """
    scale = 2.0 * model.params.length_scale**2
    dx = np.asarray(xs, dtype=float)[:, None] - model.points[None, :, 0]
    dy = np.asarray(ys, dtype=float)[:, None] - model.points[None, :, 1]
    kx = np.exp(-(dx * dx) / scale)
    ky = np.exp(-(dy * dy) / scale)
    return (kx * model.alpha) @ ky.T
