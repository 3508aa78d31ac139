"""Point estimation of theta by maximizing the Gaussian quasi-log-likelihood.

The quasi-score (the theta-derivative of the quasi-log-likelihood) is
driven to zero by a safeguarded Newton iteration: the Newton slope is the
analytic observed-information term, and any step that leaves the bracket
or fails to shrink the score falls back to bisection.  If the score has
no interior root on the parameter interval, the better endpoint is
returned with ``boundary_hit`` set.

``solve_rows`` runs that iteration for every row of a batch of block
summaries at once; a row leaves the active set when it converges.  Each
row takes the same steps, with the same arithmetic, as it would alone,
so its result does not depend on the batch it is solved in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import VCoefficients
from .models import DiffusionModel
from .quasi_score import aug_summaries, info_terms, obs_summaries, score_terms

__all__ = ["EstimateResult", "estimate_augmented", "estimate_means_only", "quasi_loglik",
           "solve_rows"]

_SCORE_TOL = 1e-8
_BRACKET_TOL = 1e-14
_MAX_ITER = 200


@dataclass(frozen=True)
class EstimateResult:
    """One estimate per row: length-R arrays from ``solve_rows``, Python scalars from ``row``."""

    theta_hat: np.ndarray
    iterations: np.ndarray
    score_at_hat: np.ndarray
    info_at_hat: np.ndarray
    boundary_hit: np.ndarray

    def row(self, r: int) -> EstimateResult:
        return EstimateResult(float(self.theta_hat[r]), int(self.iterations[r]),
                              float(self.score_at_hat[r]), float(self.info_at_hat[r]),
                              bool(self.boundary_hit[r]))


def quasi_loglik(theta, model: DiffusionModel, anchors, sizes, qforms) -> np.ndarray:
    """Gaussian quasi-log-likelihood of each row, additive constants dropped.

    ``theta`` is a scalar or an R x 1 column.
    """
    a2 = model.a(anchors, theta) ** 2
    return -0.5 * (sizes * np.log(a2) + qforms / a2).sum(axis=1)


def _scores(theta, model, anchors, sizes, qforms) -> np.ndarray:
    """The quasi-score of each row; a non-finite score raises ValueError."""
    s = score_terms(theta, theta, model, anchors, sizes, qforms).sum(axis=1)
    if not np.isfinite(s).all():
        r = int(np.argmin(np.isfinite(s)))
        at = float(np.broadcast_to(theta, (s.size, 1))[r, 0])
        raise ValueError(f"non-finite quasi-score {float(s[r])!r} at theta = {at!r}")
    return s


def _info_sums(theta, model, anchors, qforms) -> np.ndarray:
    # Minus the derivative of the quadratic-form part of the score; the
    # recentering part has zero mean at the optimum, so this is the
    # scoring slope.
    return info_terms(theta, theta, model, anchors, qforms).sum(axis=1)


def solve_rows(model: DiffusionModel, anchors, sizes, qforms, n: int,
               theta_init: float | None = None) -> EstimateResult:
    """Maximize the quasi-log-likelihood of every row of (anchors, sizes, qforms).

    ``theta_init`` defaults to the middle of the parameter interval.
    ``info_at_hat`` is the observed information per observation.
    """
    lo, hi = model.theta_interval
    if theta_init is None:
        theta_init = 0.5 * (lo + hi)
    theta_init = model.check_theta(theta_init)
    R = anchors.shape[0]
    s_lo = _scores(lo, model, anchors, sizes, qforms)
    s_hi = _scores(hi, model, anchors, sizes, qforms)
    theta = np.empty(R)
    s = np.empty(R)
    iterations = np.full(R, 2)

    # No sign change: an endpoint root, or no interior stationary point,
    # where the better endpoint wins.
    lo_root = np.abs(s_lo) <= _SCORE_TOL
    hi_root = ~lo_root & (np.abs(s_hi) <= _SCORE_TOL)
    boundary = ~lo_root & ~hi_root & (s_lo * s_hi > 0.0)
    theta[lo_root], s[lo_root] = lo, s_lo[lo_root]
    theta[hi_root], s[hi_root] = hi, s_hi[hi_root]
    if boundary.any():
        f_lo = quasi_loglik(lo, model, anchors[boundary], sizes, qforms[boundary])
        f_hi = quasi_loglik(hi, model, anchors[boundary], sizes, qforms[boundary])
        take_lo = f_lo >= f_hi
        theta[boundary] = np.where(take_lo, lo, hi)
        s[boundary] = np.where(take_lo, s_lo[boundary], s_hi[boundary])

    inner = np.flatnonzero(~(lo_root | hi_root | boundary))
    if inner.size:
        theta[inner], s[inner], iterations[inner] = _newton(
            model, anchors[inner], sizes, qforms[inner], theta_init, np.sign(s_lo[inner]))
    info = _info_sums(theta[:, None], model, anchors, qforms) / n
    return EstimateResult(theta, iterations, s, info, boundary)


def _newton(model, anchors, sizes, qforms, theta_init, sign_lo):
    """Safeguarded Newton on rows whose score changes sign; returns (theta, score, iterations)."""
    lo, hi = model.theta_interval
    R = anchors.shape[0]
    theta_out, s_out, it_out = np.empty(R), np.empty(R), np.empty(R, dtype=int)
    active = np.arange(R)
    t = np.full(R, theta_init)
    s = _scores(theta_init, model, anchors, sizes, qforms)
    it = np.full(R, 3)
    b_lo = np.full(R, lo)
    b_hi = np.full(R, hi)
    for step in range(_MAX_ITER + 1):
        done = (np.abs(s) <= _SCORE_TOL) | (b_hi - b_lo < _BRACKET_TOL) | (step == _MAX_ITER)
        if done.any():
            theta_out[active[done]], s_out[active[done]], it_out[active[done]] = (
                t[done], s[done], it[done])
            keep = ~done
            if not keep.any():
                break
            active, anchors, qforms, sign_lo = active[keep], anchors[keep], qforms[keep], sign_lo[keep]
            t, s, it, b_lo, b_hi = t[keep], s[keep], it[keep], b_lo[keep], b_hi[keep]
        below = np.sign(s) == sign_lo
        b_lo = np.where(below, t, b_lo)
        b_hi = np.where(below, b_hi, t)
        slope = -_info_sums(t[:, None], model, anchors, qforms)
        # A zero slope gives a NaN candidate, which the bracket test refuses.
        candidate = t - s / np.where(slope != 0.0, slope, np.nan)
        mid = 0.5 * (b_lo + b_hi)
        candidate = np.where((b_lo < candidate) & (candidate < b_hi), candidate, mid)
        s_candidate = _scores(candidate[:, None], model, anchors, sizes, qforms)
        it += 1
        a_candidate = np.abs(s_candidate)
        retry = (a_candidate >= np.abs(s)) & ~(a_candidate <= _SCORE_TOL)
        if retry.any():
            candidate[retry] = mid[retry]
            s_candidate[retry] = _scores(mid[retry, None], model, anchors[retry], sizes,
                                         qforms[retry])
            it[retry] += 1
        t, s = candidate, s_candidate
    return theta_out, s_out, it_out


def estimate_augmented(observations, edge_values, model: DiffusionModel,
                       coeffs: VCoefficients, k: int,
                       theta_init: float | None = None) -> EstimateResult:
    """Quasi-likelihood estimate from the n means and the block edge values.

    ``edge_values`` holds the path at each block start followed by X_1
    (see simulate.block_edges).
    """
    obs = np.asarray(observations, dtype=float)[None, :]
    edge_values = np.asarray(edge_values, dtype=float)[None, :]
    summaries = aug_summaries(obs, edge_values, k, coeffs)
    return solve_rows(model, *summaries, obs.shape[1], theta_init).row(0)


def estimate_means_only(observations, xi0: float, model: DiffusionModel,
                        coeffs: VCoefficients, k: int,
                        theta_init: float | None = None) -> EstimateResult:
    """Quasi-likelihood estimate from local means alone (anchors unobserved)."""
    obs = np.asarray(observations, dtype=float)[None, :]
    summaries = obs_summaries(obs, xi0, k, coeffs)
    return solve_rows(model, *summaries, obs.shape[1], theta_init).row(0)
