"""Reference implementations the tests check the package against.

Each is the direct, slow form of something the package computes another
way: pointwise mass functions, dense matrices, a dense covariance built
from its definition, a generic tridiagonal solve, numeric quadrature and
a scalar safeguarded Newton solver, one path at a time.
"""

import math

import numpy as np

from diffmeans.estimate import EstimateResult
from diffmeans.exact_oracle import GaussianObsModel, _min_moments
from diffmeans.measures import VCoefficients, WeightMeasure, _segments, mean_weights
from diffmeans.models import DiffusionModel
from diffmeans.quasi_score import TriKMatrix, factor_tridiagonal, info_terms, score_terms


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


class QuasiObjective:
    """Score, slope, and objective of the quasi-log-likelihood of one path's block summaries."""

    def __init__(self, model: DiffusionModel, anchors, sizes, qforms, n: int):
        self.model = model
        self.anchors = anchors
        self.sizes = sizes
        self.qforms = qforms
        self.n = n

    def score(self, theta: float) -> float:
        """The quasi-score at theta; a non-finite score raises ValueError."""
        s = float(np.sum(score_terms(theta, theta, self.model, self.anchors, self.sizes,
                                     self.qforms)))
        if not math.isfinite(s):
            raise ValueError(f"non-finite quasi-score {s!r} at theta = {theta!r}")
        return s

    def slope(self, theta: float) -> float:
        # Derivative of the quadratic-form part only; the recentering part
        # has zero mean at the optimum, so this is the scoring slope.
        return float(-np.sum(info_terms(theta, theta, self.model, self.anchors, self.qforms)))

    def loglik(self, theta: float) -> float:
        """Gaussian quasi-log-likelihood, additive constants dropped."""
        a2 = self.model.a(self.anchors, theta) ** 2
        return float(-0.5 * np.sum(self.sizes * np.log(a2) + self.qforms / a2))

    def observed_info(self, theta: float) -> float:
        return -self.slope(theta) / self.n


def solve(objective: QuasiObjective, interval, theta_init: float,
          tol: float = 1e-8, max_iter: int = 200) -> EstimateResult:
    """Scalar safeguarded Newton on the score, with bisection fallbacks."""
    lo, hi = interval
    if not lo <= theta_init <= hi:
        raise ValueError(f"theta_init={theta_init} outside [{lo}, {hi}]")
    s_lo = objective.score(lo)
    s_hi = objective.score(hi)
    iterations = 2

    if abs(s_lo) <= tol or abs(s_hi) <= tol or s_lo * s_hi > 0.0:
        # No sign change: an endpoint root, or no interior stationary point.
        for theta, s in ((lo, s_lo), (hi, s_hi)):
            if abs(s) <= tol:
                return EstimateResult(theta, iterations, s, objective.observed_info(theta), False)
        f_lo, f_hi = objective.loglik(lo), objective.loglik(hi)
        theta, s = (lo, s_lo) if f_lo >= f_hi else (hi, s_hi)
        return EstimateResult(theta, iterations, s, objective.observed_info(theta), True)

    theta = float(theta_init)
    s = objective.score(theta)
    iterations += 1
    b_lo, b_hi = lo, hi
    sign_lo = np.sign(s_lo)
    for _ in range(max_iter):
        if abs(s) <= tol or b_hi - b_lo < 1e-14:
            break
        if np.sign(s) == sign_lo:
            b_lo = theta
        else:
            b_hi = theta
        slope = objective.slope(theta)
        candidate = theta - s / slope if slope != 0.0 else np.nan
        if not b_lo < candidate < b_hi:
            candidate = 0.5 * (b_lo + b_hi)
        s_candidate = objective.score(candidate)
        iterations += 1
        if abs(s_candidate) >= abs(s) and not abs(s_candidate) <= tol:
            candidate = 0.5 * (b_lo + b_hi)
            s_candidate = objective.score(candidate)
            iterations += 1
        theta, s = candidate, s_candidate
    return EstimateResult(float(theta), iterations, float(s), objective.observed_info(theta), False)
