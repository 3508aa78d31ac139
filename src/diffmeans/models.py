"""Scalar diffusion coefficient bundles dX = a(X, theta) dB + b(X) dt.

Models are registered by name; coefficients are plain vectorized callables.
The parameter enters the diffusion coefficient only, and the key quantity
for inference is the relative sensitivity (da/dtheta) / a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DiffusionModel",
    "REGISTRY",
    "get_model",
    "info_integrand",
    "path_information",
]

# Row-block size, in doubles (1 MiB), for passes over a batch of rows: fine-grid
# paths, and the block increments of quasi_score.quadratic_forms.
_BLOCK_DOUBLES = 1 << 17


@dataclass(frozen=True)
class DiffusionModel:
    """Coefficients of one parametric diffusion family.

    ``a`` and ``a_dot`` take (x, theta); ``b`` takes x.  All three accept
    numpy arrays in x, and ``a`` and ``a_dot`` a theta that broadcasts
    against x, such as an R x 1 column against R x B anchors.  ``a_lower``
    is the non-degeneracy floor: a(x, theta) stays at or above it for
    theta in ``theta_interval``.

    Two declarations, checked by ``validate_registry``, select exact
    shortcuts: ``scaled_brownian`` (a free of x and b = 0, so X is
    xi0 + a B) and ``scale_family`` (a = theta g(x), so the relative
    sensitivity is 1/theta and the information 2/theta^2 is deterministic).
    """

    name: str
    a: Callable
    a_dot: Callable
    b: Callable
    theta_interval: tuple[float, float]
    a_lower: float
    scaled_brownian: bool = False
    scale_family: bool = False

    def check_theta(self, theta: float) -> float:
        lo, hi = self.theta_interval
        if not lo <= theta <= hi:
            raise ValueError(f"theta={theta} outside parameter interval [{lo}, {hi}]")
        return float(theta)

    def rel_sensitivity(self, x, theta: float):
        """(da/dtheta) / a at (x, theta)."""
        return self.a_dot(x, theta) / self.a(x, theta)


def _const(x, theta, value):
    """``value`` over the broadcast shape of x and theta; a float when both are scalars."""
    if not (np.ndim(x) or np.ndim(theta)):
        return float(value)
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(theta)))
    out[...] = value
    return out


def _const_a(x, theta):
    return _const(x, theta, theta)


def _const_one(x, theta):
    return _const(x, theta, 1.0)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0


def _sine_a(x, theta):
    return theta * (2.0 + np.sin(x))


def _sine_a_dot(x, theta):
    return 2.0 + np.sin(x)


def _sine_b(x):
    return np.cos(x)


def _cauchy_a(x, theta):
    return 1.0 + theta / (1.0 + x * x)


def _cauchy_a_dot(x, theta):
    return 1.0 / (1.0 + x * x)


def _cauchy_b(x):
    return -np.tanh(x)


REGISTRY: dict[str, DiffusionModel] = {
    # Scaled Brownian motion: observations are exactly Gaussian, the one
    # case with a tractable likelihood, used as ground truth everywhere.
    "multiplicative_bm": DiffusionModel(
        name="multiplicative_bm",
        a=_const_a,
        a_dot=_const_one,
        b=_zero,
        theta_interval=(0.5, 3.0),
        a_lower=0.5,
        scaled_brownian=True,
        scale_family=True,
    ),
    # a(x,theta) = theta (2 + sin x): state-dependent but with
    # (da/dtheta)/a = 1/theta, so the information is deterministic.
    "sine_scale": DiffusionModel(
        name="sine_scale",
        a=_sine_a,
        a_dot=_sine_a_dot,
        b=_sine_b,
        theta_interval=(0.5, 3.0),
        a_lower=0.5,
        scale_family=True,
    ),
    # a(x,theta) = 1 + theta/(1+x^2): genuinely path-dependent sensitivity,
    # so the limiting information is random (mixed-normal limits).
    "cauchy_scale": DiffusionModel(
        name="cauchy_scale",
        a=_cauchy_a,
        a_dot=_cauchy_a_dot,
        b=_cauchy_b,
        theta_interval=(0.5, 3.0),
        a_lower=1.0,
    ),
}


def get_model(name: str) -> DiffusionModel:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; registered: {sorted(REGISTRY)}") from None


def info_integrand(model: DiffusionModel, x, theta: float):
    """Squared relative sensitivity ((da/dtheta)/a)^2 at (x, theta)."""
    r = model.rel_sensitivity(x, theta)
    return r * r


def path_information(model: DiffusionModel, values, theta: float, m: int, h: float,
                     total: np.ndarray) -> np.ndarray:
    """Add the trapezoid approximation of 2 * int ((da/dtheta)/a)^2(X_s, theta) ds to ``total``.

    ``values`` holds one path per row over whole cells of m fine steps of
    size h.  Each cell's trapezoid integral is added to its row's
    ``total`` (updated in place and returned) in cell order, so the result
    depends neither on how the grid is cut into slices of whole cells nor
    on the row blocks.  The integrand holds about four temporaries of its
    input's size, so its row blocks are a quarter of the usual size.
    """
    cells = (values.shape[1] - 1) // m
    w = np.full(m + 1, 2.0 * h)
    w[0] = w[m] = h
    for rows in row_blocks(values, _BLOCK_DOUBLES // 4):
        y = info_integrand(model, values[rows], theta)
        acc = np.zeros((y.shape[0], cells + 1))
        acc[:, 0] = total[rows]
        for p in range(m + 1):
            acc[:, 1:] += w[p] * y[:, p : p + (cells - 1) * m + 1 : m]
        del y
        # Sequential over cells: the running total continues across slices.
        np.cumsum(acc, axis=1, out=acc)
        total[rows] = acc[:, -1]
    return total


def row_blocks(values: np.ndarray, doubles: int | None = None):
    """Slices of about ``doubles`` (default ``_BLOCK_DOUBLES``) elements over a 2-D array's rows."""
    step = max(1, (_BLOCK_DOUBLES if doubles is None else doubles) // values.shape[1])
    return [slice(s, s + step) for s in range(0, values.shape[0], step)]


def validate_registry(x_range=(-50.0, 50.0), x_points: int = 201, theta_points: int = 100) -> None:
    """Grid-check non-degeneracy and boundedness of every registered model."""
    xs = np.linspace(*x_range, x_points)
    for model in REGISTRY.values():
        thetas = np.linspace(*model.theta_interval, theta_points)
        for theta in thetas:
            a = np.asarray(model.a(xs, theta), dtype=float)
            if not np.all(a >= model.a_lower):
                raise AssertionError(f"{model.name}: diffusion coefficient below floor")
            b = np.asarray(model.b(xs), dtype=float)
            for arr in (a, np.asarray(model.a_dot(xs, theta)), b):
                if not np.all(np.isfinite(arr)):
                    raise AssertionError(f"{model.name}: unbounded coefficient on grid")
            if model.scaled_brownian and not (np.all(a == a[0]) and np.all(b == 0.0)):
                raise AssertionError(f"{model.name}: declared scaled Brownian but a varies "
                                     "in x or b is not zero")
            if model.scale_family and not np.all(
                    np.abs(model.rel_sensitivity(xs, theta) * theta - 1.0) < 1e-12):
                raise AssertionError(f"{model.name}: declared scale family but "
                                     "(da/dtheta)/a is not 1/theta")
