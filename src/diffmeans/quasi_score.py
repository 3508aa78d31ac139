"""Tridiagonal block covariances, quadratic forms, and the Gaussian quasi-score.

Conditionally on its anchor, the vector of k+1 rescaled increments of one
block is approximately Gaussian with covariance a^2(anchor, theta) K, where
K is the deterministic tridiagonal matrix with diagonal
(v1, v1+v2, ..., v1+v2, v2) and constant off-diagonal c.  The per-block
score of that Gaussian approximation is an explicit recentered quadratic
form; summing it over blocks gives the statistics N_n (score) and I_n
(observed information) whose limits the experiment harness checks.

The means-only variants drop the anchor increments: the interior (k-1)
increments have covariance a^2 K_int with constant diagonal v1+v2, and the
anchor value is replaced by the last mean of the previous block.

Data enter only as block summaries (anchors R x B, sizes B, qforms R x B):
one row per path, one column per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import VCoefficients
from .models import row_blocks
from .simulate import block_edges

__all__ = [
    "TriKMatrix",
    "augmented_block_cov",
    "interior_block_cov",
    "factor_tridiagonal",
    "quadratic_forms",
    "aug_increments",
    "aug_summaries",
    "obs_summaries",
    "score_terms",
    "info_terms",
]


@dataclass(frozen=True)
class TriKMatrix:
    """Symmetric tridiagonal matrix with constant off-diagonal."""

    size: int
    diag: np.ndarray
    offdiag: float


def augmented_block_cov(k: int, coeffs: VCoefficients) -> TriKMatrix:
    """Unit-diffusion covariance of the k+1 increments of a block of k means."""
    if k < 1:
        raise ValueError("block must hold at least one mean")
    diag = np.full(k + 1, coeffs.v1 + coeffs.v2)
    diag[0] = coeffs.v1
    diag[-1] = coeffs.v2
    return TriKMatrix(size=k + 1, diag=diag, offdiag=coeffs.c)


def interior_block_cov(k: int, coeffs: VCoefficients) -> TriKMatrix:
    """Unit-diffusion covariance of the k-1 interior increments (means only)."""
    if k < 2:
        raise ValueError("means-only block needs k >= 2")
    diag = np.full(k - 1, coeffs.v1 + coeffs.v2)
    return TriKMatrix(size=k - 1, diag=diag, offdiag=coeffs.c)


def factor_tridiagonal(K: TriKMatrix):
    """LDL^T factorization; returns (sub, piv) with unit-lower sub-diagonal ``sub``.

    Raises numpy.linalg.LinAlgError naming the pivot index if a pivot is
    not strictly positive (matrix not positive definite).
    """
    diag = np.asarray(K.diag, dtype=float)
    c = float(K.offdiag)
    piv = np.empty(K.size)
    sub = np.zeros(K.size)
    piv[0] = diag[0]
    if piv[0] <= 0.0:
        raise np.linalg.LinAlgError("tridiagonal factorization breakdown at pivot 0")
    for i in range(1, K.size):
        sub[i] = c / piv[i - 1]
        piv[i] = diag[i] - c * sub[i]
        if piv[i] <= 0.0:
            raise np.linalg.LinAlgError(f"tridiagonal factorization breakdown at pivot {i}")
    return sub, piv


def quadratic_forms(K: TriKMatrix, U: np.ndarray) -> np.ndarray:
    """u K^{-1} u^T for each row u of U, via one factorization.

    Rows are swept in the cache-sized blocks of ``models.row_blocks``, each
    transposed so that the recursion runs along contiguous rows.
    """
    if U.shape[1] != K.size:
        raise ValueError(f"vectors of length {U.shape[1]} against matrix of size {K.size}")
    sub, piv = factor_tridiagonal(K)
    # One sequential sum per row, whatever the row count or block: an
    # R = 1 call gives the bits of the same row in a batch.  An overflow
    # yields inf, which the callers' finite checks refuse.
    q = np.zeros(U.shape[0])
    for rows in row_blocks(U):
        y = U[rows].T.copy()
        for i in range(1, K.size):
            y[i] -= sub[i] * y[i - 1]
        q_rows = q[rows]
        with np.errstate(over="ignore"):
            for i in range(K.size):
                q_rows += y[i] * (y[i] / piv[i])
    return q


def aug_increments(obs, edge_values, k: int):
    """sqrt(n)-rescaled increments of the augmented blocks, one row per path.

    ``obs`` holds the n means of each path (R x n) and ``edge_values`` the
    path at each block start followed by X_1 (R x (B+1), see block_edges).
    Returns (U, U_tail): U is R x L x (k+1) for the L full blocks,
    (first mean - anchor, successive mean differences, next anchor - last
    mean); U_tail is R x (tail+1) for the final partial block, or None when
    k divides n.
    """
    R, n = obs.shape
    edges = block_edges(n, k)
    if edge_values.shape != (R, edges.size):
        raise ValueError(f"edge values of shape {edge_values.shape}, expected {(R, edges.size)}")
    L, tail = divmod(n, k)
    root_n = math.sqrt(n)
    means = obs[:, : L * k].reshape(R, L, k)
    U = np.empty((R, L, k + 1))
    U[:, :, 0] = means[:, :, 0] - edge_values[:, :L]
    if k > 1:
        np.subtract(means[:, :, 1:], means[:, :, :-1], out=U[:, :, 1:k])
    U[:, :, k] = edge_values[:, 1 : L + 1] - means[:, :, -1]
    U *= root_n
    if tail == 0:
        return U, None
    means_t = obs[:, L * k :]
    U_t = np.empty((R, tail + 1))
    U_t[:, 0] = means_t[:, 0] - edge_values[:, L]
    if tail > 1:
        U_t[:, 1:tail] = np.diff(means_t, axis=1)
    U_t[:, tail] = edge_values[:, -1] - means_t[:, -1]
    U_t *= root_n
    return U, U_t


def aug_summaries(obs, edge_values, k: int, coeffs: VCoefficients):
    """(anchors, sizes, qforms) of the augmented blocks, batched over paths.

    sizes are the increment counts k_l + 1; the final partial block gets the
    covariance of its own smaller size.
    """
    U, U_t = aug_increments(obs, edge_values, k)
    R, L = U.shape[:2]
    q = quadratic_forms(augmented_block_cov(k, coeffs), U.reshape(R * L, k + 1)).reshape(R, L)
    # C order, as in obs_summaries: numpy then reduces each row of the
    # per-block terms pairwise whatever R, as it does a single path.
    anchors = np.ascontiguousarray(edge_values[:, :L])
    sizes = np.full(L, k + 1)
    if U_t is not None:
        q_t = quadratic_forms(augmented_block_cov(U_t.shape[1] - 1, coeffs), U_t)
        anchors = np.hstack([anchors, edge_values[:, L : L + 1]])
        sizes = np.append(sizes, U_t.shape[1])
        q = np.hstack([q, q_t[:, None]])
    return anchors, sizes, q


def obs_summaries(obs, xi0: float, k: int, coeffs: VCoefficients):
    """(anchors, sizes, qforms) of the means-only blocks, batched over paths.

    anchors are the preceding means (xi0 for the first block), sizes the
    interior increment counts k_l - 1; a final block of one mean carries no
    interior increment and is dropped.
    """
    R, n = obs.shape
    if not 2 <= k <= n:
        raise ValueError(f"means-only score needs 2 <= k <= n={n}, got k={k}")
    L, tail = divmod(n, k)
    root_n = math.sqrt(n)
    means = obs[:, : L * k].reshape(R, L, k)
    U = np.diff(means, axis=2)
    U *= root_n
    q = quadratic_forms(interior_block_cov(k, coeffs), U.reshape(R * L, k - 1)).reshape(R, L)
    anchors = np.empty((R, L))
    anchors[:, 0] = xi0
    if L > 1:
        anchors[:, 1:] = obs[:, np.arange(1, L) * k - 1]
    sizes = np.full(L, k - 1)
    if tail >= 2:
        means_t = obs[:, L * k :]
        U_t = np.diff(means_t, axis=1)
        U_t *= root_n
        q_t = quadratic_forms(interior_block_cov(tail, coeffs), U_t)
        anchors = np.hstack([anchors, obs[:, L * k - 1 : L * k]])
        sizes = np.append(sizes, tail - 1)
        q = np.hstack([q, q_t[:, None]])
    return anchors, sizes, q


def score_terms(theta, theta0, model, anchors, sizes, qforms):
    """Per-block quasi-score (a_dot/a)(theta0) {q / a^2(theta) - size}."""
    r0 = model.rel_sensitivity(anchors, theta0)
    a = model.a(anchors, theta)
    return r0 * (qforms / (a * a) - sizes)


def info_terms(theta, theta0, model, anchors, qforms):
    """Minus the theta-derivative of score_terms: 2 (a_dot/a)(theta0) (a_dot/a)(theta) q / a^2."""
    r0 = model.rel_sensitivity(anchors, theta0)
    a = model.a(anchors, theta)
    return 2.0 * r0 * (model.a_dot(anchors, theta) / a) * qforms / (a * a)
