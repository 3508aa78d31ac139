"""Euler path simulation, local-mean observations, and block edges.

Paths live on a fine grid with m substeps per sampling cell (step
1/(n*m)), one path per row of an R x (n*m + 1) array.  The normals are
drawn into the path array and the Euler step runs in place; a caller
that builds the Gaussian frozen-coefficient coupling from the same noise
asks for a copy of the Brownian increments.

Randomness contract: every replication draws from its own counter-based
stream keyed by (master seed, stream tag, replication index), so results
do not depend on how replications are batched or distributed.
"""

from __future__ import annotations

import numpy as np

from .measures import WeightMeasure, mean_weights
from .models import DiffusionModel, row_blocks

__all__ = [
    "rep_rng",
    "euler_values",
    "simulate_values",
    "observe_values",
    "block_edges",
    "coupled_increments_values",
    "path_to_csv",
]


def rep_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one replication stream.

    Streams with different key tuples are independent; the same
    (seed, key) always reproduces the same draws.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def euler_values(model: DiffusionModel, theta: float, xi0: float, h: float, dW: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Euler recursion X_{t+h} = X_t + a(X_t, theta) dW + b(X_t) h, step h.

    ``dW`` holds one path's increments per row.  Exposed separately from
    the simulators so tests can drive it with hand-built increments (e.g.
    all zeros).  ``out`` (rows x (steps + 1)) receives the paths; ``dW``
    may be its columns 1:, since step i reads dW[:, i] before it writes
    column i + 1.

    For a scaled Brownian model (a free of x, b = 0) the path is one
    cumulative sum of (xi0, a dW): the same sequential additions as the
    recursion, whose drift term only adds +0.0, so the bits agree.
    """
    reps, steps = dW.shape
    values = np.empty((reps, steps + 1)) if out is None else out
    if model.scaled_brownian:
        values[:, 0] = xi0
        np.multiply(model.a(xi0, theta), dW, out=values[:, 1:])
        np.cumsum(values, axis=1, out=values)
        return values
    x = np.full(reps, float(xi0))
    values[:, 0] = x
    for i in range(steps):
        x = x + model.a(x, theta) * dW[:, i] + model.b(x) * h
        values[:, i + 1] = x
    return values


def simulate_values(
    model: DiffusionModel,
    theta: float,
    xi0: float,
    n: int,
    m: int,
    seed: int,
    reps: int,
    *,
    stream: tuple[int, ...] = (),
    rep_offset: int = 0,
    cells: int | None = None,
    increments: bool = False,
):
    """Simulate Euler paths; returns (values, dW), dW None unless ``increments``.

    One path per row, replication r drawing from stream (seed, *stream,
    rep_offset + r).  ``cells`` truncates simulation to the first cells of
    the n-cell grid (same step 1/(n*m)); default all n.  The normals are
    drawn into values[:, 1:] and stepped in place, so dW, when asked for,
    is a copy taken before the Euler step.
    """
    model.check_theta(theta)
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 observation cells and m >= 2 substeps")
    n_cells = n if cells is None else cells
    if not 1 <= n_cells <= n:
        raise ValueError("cells must lie in [1, n]")
    steps = n_cells * m
    h = 1.0 / (n * m)
    values = np.empty((reps, steps + 1))
    for r in range(reps):
        rep_rng(seed, *stream, rep_offset + r).standard_normal(out=values[r, 1:])
    values[:, 1:] *= np.sqrt(h)
    dW = values[:, 1:].copy() if increments else None
    euler_values(model, theta, xi0, h, values[:, 1:], out=values)
    return values, dW


def observe_values(values: np.ndarray, measure: WeightMeasure, n: int, m: int) -> np.ndarray:
    """Local means of each cell for a batch of paths (rows).

    The m + 1 weighted strided passes run over cache-sized row blocks;
    each element sees the same arithmetic in the same order.
    """
    w = mean_weights(measure, m)
    obs = np.zeros((values.shape[0], n))
    for rows in row_blocks(values):
        block, out = values[rows], obs[rows]
        for p in range(m + 1):
            out += w[p] * block[:, p : p + (n - 1) * m + 1 : m]
    return obs


def block_edges(n: int, k: int) -> np.ndarray:
    """Cells where the blocks of k means start, then n: (0, k, 2k, ..., n).

    A final partial block holds the n - k*floor(n/k) leftover means when k
    does not divide n.  The path values at these cells are the block
    anchors followed by the terminal value X_1.
    """
    if not 1 <= k <= n:
        raise ValueError(f"block length k={k} outside [1, n={n}]")
    return np.append(np.arange(0, n, k), n)


def coupling_weights(measure: WeightMeasure, m: int):
    """Discrete tail/cum mass weights on the substep grid.

    tail[p] approximates mu([s,1]) and cum[p] = 1 - tail[p] approximates
    mu([0,s]) on the p-th substep; they are the partial sums of the
    local-mean quadrature weights, which makes the coupling exact for
    constant-coefficient models.
    """
    w = mean_weights(measure, m)
    tail = w[::-1].cumsum()[::-1][1:]
    cum = 1.0 - tail
    return tail, cum


def coupled_increments_values(values, dW, n: int, m: int, k: int, start: int,
                              measure: WeightMeasure, model: DiffusionModel, theta: float):
    """Frozen-coefficient Gaussian increments for the block of k cells at ``start``.

    Built from the same Brownian increments as the path, with the diffusion
    coefficient frozen at the block anchor; one row per path.
    """
    tail, cum = coupling_weights(measure, m)
    d = dW[:, start * m : (start + k) * m]
    out = np.empty((values.shape[0], k + 1))
    out[:, 0] = d[:, :m] @ tail
    for j in range(1, k):
        out[:, j] = d[:, (j - 1) * m : j * m] @ cum + d[:, j * m : (j + 1) * m] @ tail
    out[:, k] = d[:, (k - 1) * m :] @ cum
    anchor = values[:, start * m]
    out *= (np.sqrt(n) * model.a(anchor, theta))[:, None]
    return out


def path_to_csv(values: np.ndarray, dW: np.ndarray) -> str:
    """Fine-grid dump of one path row and its increments: columns t, X, dW.

    The last row, at t = 1, has no increment.
    """
    steps = dW.size
    lines = ["t,X,dW"]
    for i in range(steps):
        lines.append(f"{i / steps!r},{float(values[i])!r},{float(dW[i])!r}")
    lines.append(f"{1.0!r},{float(values[steps])!r},")
    return "\n".join(lines) + "\n"
