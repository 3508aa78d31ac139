"""Exact Gaussian likelihood for the scaled Brownian model.

When X = theta * B (zero drift, constant diffusion, started at 0), the
local means are a centered Gaussian vector with covariance theta^2 Sigma0,
where Sigma0 depends only on n and the weighting measure:

    Sigma0[i, j] = integral integral min((s+i)/n, (t+j)/n) dmu(s) dmu(t).

With g = E min(s, t) under mu x mu and f = E s under mu, S = n Sigma0 has
S[i, i] = i + g and S[i, j] = min(i, j) + f off the diagonal.  First
differences of the means (u_0 = x_0, u_i = x_i - x_{i-1}, since X_0 = 0 is
known) have the tridiagonal covariance T = D S D^T with diagonal
(g, 2g - 2f + 1, ..., 2g - 2f + 1) and constant off-diagonal f - g, so

    x^T Sigma0^{-1} x = n u^T T^{-1} u,
    log det Sigma0 = log det T - n log n,

and one O(n) LDL^T factorisation of T gives both.  A Dirac measure has
f = g, so T is diagonal.  The coefficients and the sweep are computed here
from the measure alone, independently of the quasi-likelihood code this
oracle is used to check.

This gives exact log-densities, exact likelihood ratios, and a closed-form
maximum-likelihood estimator, used as ground truth by the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import WeightMeasure

__all__ = ["GaussianObsModel", "build_base_cov", "log_density", "exact_llr", "exact_mle"]


@dataclass(frozen=True)
class GaussianObsModel:
    """LDL^T factors of the difference covariance T for one (n, measure).

    ``sub[i]`` is the unit lower factor's entry L[i, i-1] (``sub[0]`` = 0)
    and ``piv`` the diagonal of D; both have length n.
    """

    n: int
    measure: WeightMeasure
    sub: np.ndarray
    piv: np.ndarray

    def quad_forms(self, X: np.ndarray) -> np.ndarray:
        """x^T Sigma0^{-1} x for each row x of the R x n array X."""
        if X.shape[1] != self.n:
            raise ValueError(f"observation length {X.shape[1]} != n = {self.n}")
        # Step-major differences, so each sweep step works on one contiguous row.
        u = np.empty((self.n, X.shape[0]))
        u[0] = X[:, 0]
        np.subtract(X[:, 1:], X[:, :-1], out=u[1:].T)
        for i in range(1, self.n):
            u[i] -= self.sub[i] * u[i - 1]
        return self.n * np.einsum("ir,ir,i->r", u, u, 1.0 / self.piv)

    def log_det(self) -> float:
        """log det Sigma0."""
        return float(np.sum(np.log(self.piv)) - self.n * np.log(self.n))


def _min_moments(measure: WeightMeasure) -> tuple[float, float]:
    """(E min(s,t), E s) under mu x mu and mu, by bilinear expansion.

    The Lebesgue-Lebesgue, Lebesgue-atom and atom-atom pieces each have
    elementary closed forms: int int min = 1/3, int min(s, a) ds = a - a^2/2,
    and min(a, a') directly.
    """
    lam = measure.lebesgue_weight
    pos = np.array([a for a, _ in measure.atoms])
    wts = np.array([w for _, w in measure.atoms])
    min_moment = lam * lam / 3.0
    first_moment = 0.5 * lam
    if pos.size:
        min_moment += 2.0 * lam * float(wts @ (pos - 0.5 * pos * pos))
        min_moment += float(wts @ np.minimum.outer(pos, pos) @ wts)
        first_moment += float(wts @ pos)
    return min_moment, first_moment


def build_base_cov(n: int, measure: WeightMeasure) -> GaussianObsModel:
    """Factor the tridiagonal difference covariance T = n D Sigma0 D^T in O(n)."""
    if n < 1:
        raise ValueError("need n >= 1 observations")
    min_moment, first_moment = _min_moments(measure)
    diag = 2.0 * min_moment - 2.0 * first_moment + 1.0
    off = first_moment - min_moment
    sub = np.zeros(n)
    piv = np.empty(n)
    p = min_moment
    for i in range(n):
        if i:
            sub[i] = off / p
            p = diag - off * sub[i]
        if not p > 0.0:
            raise np.linalg.LinAlgError(f"pivot {i} of the difference covariance is {p!r}; "
                                        "it is not positive definite")
        piv[i] = p
    return GaussianObsModel(n=n, measure=measure, sub=sub, piv=piv)


def log_density(gm: GaussianObsModel, theta: float, X: np.ndarray) -> np.ndarray:
    """Gaussian log-density under theta of each observation vector (row of X)."""
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    q = gm.quad_forms(X)
    return -0.5 * (gm.n * np.log(2.0 * np.pi * theta * theta) + gm.log_det() + q / (theta * theta))


def exact_llr(gm: GaussianObsModel, X: np.ndarray, theta0: float, theta1: float) -> np.ndarray:
    """Exact log-likelihood ratio log p_{theta1}(x) - log p_{theta0}(x) for each row x of X."""
    if theta0 <= 0.0 or theta1 <= 0.0:
        raise ValueError("thetas must be positive")
    q = gm.quad_forms(X)
    # math.log of the scalar ratio: np.log rounds some ratios one ulp away,
    # which would move the expansion rows of the verify CSV.
    return -gm.n * math.log(theta1 / theta0) - 0.5 * q * (theta1**-2 - theta0**-2)


def exact_mle(gm: GaussianObsModel, X: np.ndarray) -> np.ndarray:
    """Closed-form maximizer theta_hat = sqrt(x^T Sigma0^{-1} x / n) for each row x of X."""
    zero = ~np.any(X, axis=1)
    if np.any(zero):
        raise ValueError(f"degenerate input: observation row(s) {np.flatnonzero(zero).tolist()} "
                         "identically zero")
    return np.sqrt(gm.quad_forms(X) / gm.n)
