"""Point estimation of theta by maximizing the Gaussian quasi-log-likelihood.

The quasi-score (the theta-derivative of the quasi-log-likelihood) is
driven to zero by a safeguarded Newton iteration: the Newton slope is the
analytic observed-information term, and any step that leaves the bracket
or fails to shrink the score falls back to bisection.  If the score has
no interior root on the parameter interval, the better endpoint is
returned with ``boundary_hit`` set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import VCoefficients
from .models import DiffusionModel
from .quasi_score import aug_summaries, info_terms, obs_summaries, score_terms

__all__ = ["EstimateResult", "estimate_augmented", "estimate_means_only"]

_SCORE_TOL = 1e-8
_MAX_ITER = 200


@dataclass(frozen=True)
class EstimateResult:
    theta_hat: float
    iterations: int
    score_at_hat: float
    info_at_hat: float
    boundary_hit: bool


class _QuasiObjective:
    """Score, slope, and objective of the quasi-log-likelihood on block summaries."""

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


def _solve(objective: _QuasiObjective, interval, theta_init: float,
           tol: float = _SCORE_TOL) -> EstimateResult:
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
    for _ in range(_MAX_ITER):
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


def _estimate(model: DiffusionModel, summaries, n: int, theta_init) -> EstimateResult:
    anchors, sizes, qforms = summaries
    objective = _QuasiObjective(model, anchors[0], sizes, qforms[0], n)
    interval = model.theta_interval
    if theta_init is None:
        theta_init = 0.5 * (interval[0] + interval[1])
    model.check_theta(theta_init)
    return _solve(objective, interval, theta_init)


def estimate_augmented(observations, edge_values, model: DiffusionModel,
                       coeffs: VCoefficients, k: int,
                       theta_init: float | None = None) -> EstimateResult:
    """Quasi-likelihood estimate from the n means and the block edge values.

    ``edge_values`` holds the path at each block start followed by X_1
    (see simulate.block_edges).
    """
    obs = np.asarray(observations, dtype=float)[None, :]
    edge_values = np.asarray(edge_values, dtype=float)[None, :]
    return _estimate(model, aug_summaries(obs, edge_values, k, coeffs), obs.shape[1], theta_init)


def estimate_means_only(observations, xi0: float, model: DiffusionModel,
                        coeffs: VCoefficients, k: int,
                        theta_init: float | None = None) -> EstimateResult:
    """Quasi-likelihood estimate from local means alone (anchors unobserved)."""
    obs = np.asarray(observations, dtype=float)[None, :]
    return _estimate(model, obs_summaries(obs, xi0, k, coeffs), obs.shape[1], theta_init)
