"""Reference implementations the tests check the package against.

Each is the direct, slow form of something the package computes another
way: pointwise mass functions, dense matrices, a dense covariance built
from its definition, a generic tridiagonal solve and numeric quadrature.
"""

import numpy as np

from diffmeans.exact_oracle import GaussianObsModel, _min_moments
from diffmeans.measures import VCoefficients, WeightMeasure, _segments, mean_weights
from diffmeans.quasi_score import TriKMatrix, factor_tridiagonal


def _check_point(s: float) -> float:
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"evaluation point {s} outside [0,1]")
    return s


def tail_mass(measure: WeightMeasure, s: float) -> float:
    """Mass of the closed upper interval, mu([s,1]); atoms at s count in."""
    s = _check_point(s)
    mass = measure.lebesgue_weight * (1.0 - s)
    mass += sum(w for a, w in measure.atoms if a >= s)
    return mass


def cum_mass(measure: WeightMeasure, s: float) -> float:
    """Mass of the closed lower interval, mu([0,s]); atoms at s count in."""
    s = _check_point(s)
    mass = measure.lebesgue_weight * s
    mass += sum(w for a, w in measure.atoms if a <= s)
    return mass


_GAUSS3_NODES = (-np.sqrt(0.6), 0.0, np.sqrt(0.6))
_GAUSS3_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


def v_coefficients_quadrature(measure: WeightMeasure, points: int = 10_000) -> VCoefficients:
    """Numeric quadrature of the three integrals from pointwise mass evaluations.

    The domain is split at atom positions (the integrands jump there) and each
    piece gets a composite 3-point Gauss rule; nodes are strictly interior, so
    the closed-interval convention at atoms never enters.
    """
    nodes, weights = [], []
    for a, b, _, _ in _segments(measure):
        n_sub = max(1, int(round(points * (b - a) / 3.0)))
        edges = np.linspace(a, b, n_sub + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        for g_node, g_weight in zip(_GAUSS3_NODES, _GAUSS3_WEIGHTS):
            nodes.append(mid + g_node * half)
            weights.append(g_weight * half)
    s = np.concatenate(nodes)
    w = np.concatenate(weights)
    t = measure.lebesgue_weight * (1.0 - s)
    u = measure.lebesgue_weight * s
    for a, wa in measure.atoms:
        t = t + wa * (a >= s)
        u = u + wa * (a <= s)
    return VCoefficients(
        v1=float(w @ (t * t)),
        v2=float(w @ (u * u)),
        c=float(w @ (t * u)),
    )


def local_mean(segment, measure: WeightMeasure) -> float:
    """Integrate a path segment against the measure, the segment rescaled to [0,1].

    ``segment`` holds values on a uniform grid including both endpoints.
    """
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("segment must hold at least 2 grid points")
    return float(mean_weights(measure, x.size - 1) @ x)


def dense(K: TriKMatrix) -> np.ndarray:
    """The tridiagonal matrix K as a dense array."""
    out = np.diag(np.asarray(K.diag, dtype=float))
    idx = np.arange(K.size - 1)
    out[idx, idx + 1] = K.offdiag
    out[idx + 1, idx] = K.offdiag
    return out


def solve_tridiagonal(K: TriKMatrix, rhs) -> np.ndarray:
    """Solve K x = rhs by the Thomas recursion on the LDL^T factors."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != K.size:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {K.size}")
    sub, piv = factor_tridiagonal(K)
    y = rhs.copy()
    for i in range(1, K.size):
        y[i] -= sub[i] * y[i - 1]
    if y.ndim == 1:
        x = y / piv
    else:
        x = y / piv[:, None]
    for i in range(K.size - 2, -1, -1):
        x[i] -= sub[i + 1] * x[i + 1]
    return x


def dense_cov(gm: GaussianObsModel) -> np.ndarray:
    """Sigma0 of the oracle's (n, measure), assembled entry by entry from its definition."""
    min_moment, first_moment = _min_moments(gm.measure)
    idx = np.arange(gm.n)
    cov = np.minimum.outer(idx, idx) + first_moment
    np.fill_diagonal(cov, idx + min_moment)
    return cov / gm.n
