"""Weighting measures on [0,1] and their mass-function integrals.

A weighting measure defines a local-mean observation of a path: the
observed value on each sampling cell is the integral of the path against
the measure, with the cell rescaled to [0,1].  The three integrals of the
cumulative mass functions,

    v1 = int_0^1 mu([s,1])^2 ds,
    v2 = int_0^1 mu([0,s])^2 ds,
    c  = int_0^1 mu([0,s]) mu([s,1]) ds,

parameterize the covariance of the rescaled observation increments and
are needed everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightMeasure",
    "VCoefficients",
    "v_coefficients",
    "mean_weights",
    "measure_from_spec",
    "measure_to_spec",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class VCoefficients:
    """The three mass-function integrals (v1, v2, c).

    They satisfy v1 + v2 + 2c = 1 and v1*v2 - c^2 > 0 whenever the
    measure puts mass strictly inside (0,1).
    """

    v1: float
    v2: float
    c: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.v1, self.v2, self.c)


@dataclass(frozen=True)
class WeightMeasure:
    """A probability measure on [0,1]: Lebesgue, purely atomic, or a mixture.

    ``lebesgue_weight`` is the mass of the uniform component; ``atoms`` is a
    tuple of (position, weight) pairs with strictly increasing positions.
    Total mass must be 1 and some mass must lie strictly inside (0,1).
    """

    kind: str
    lebesgue_weight: float = 0.0
    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("lebesgue", "atomic", "mixture"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        lam = self.lebesgue_weight
        positions = [a for a, _ in self.atoms]
        weights = [w for _, w in self.atoms]
        # NaN passes every comparison below, so non-finite values go first.
        for name, values in (("lebesgue weight", [lam]), ("atom position", positions),
                             ("atom weight", weights)):
            for v in values:
                if not math.isfinite(v):
                    raise ValueError(f"{name} {v} is not a finite number")
        if lam < 0.0 or lam > 1.0:
            raise ValueError(f"lebesgue weight {lam} outside [0,1]")
        if any(w <= 0.0 for w in weights):
            raise ValueError("atom weights must be positive")
        if any(a < 0.0 or a > 1.0 for a in positions):
            raise ValueError("atom positions must lie in [0,1]")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("atom positions must be strictly increasing")
        total = lam + sum(weights)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass {total} != 1")
        if lam <= 0.0 and not any(0.0 < a < 1.0 for a in positions):
            raise ValueError("measure must put mass strictly inside (0,1)")

    @staticmethod
    def lebesgue() -> "WeightMeasure":
        return WeightMeasure(kind="lebesgue", lebesgue_weight=1.0)

    @staticmethod
    def atomic(atoms) -> "WeightMeasure":
        return WeightMeasure(kind="atomic", atoms=tuple((float(a), float(w)) for a, w in atoms))

    @staticmethod
    def dirac(position: float) -> "WeightMeasure":
        return WeightMeasure.atomic([(position, 1.0)])

    @staticmethod
    def mixture(lebesgue_weight: float, atoms) -> "WeightMeasure":
        return WeightMeasure(
            kind="mixture",
            lebesgue_weight=float(lebesgue_weight),
            atoms=tuple((float(a), float(w)) for a, w in atoms),
        )


def _segments(measure: WeightMeasure):
    """Open intervals between atoms, with the constant atomic tail/cum mass on each.

    Yields (a, b, atomic_tail, atomic_cum): on (a, b) the full mass functions
    are lam*(1-s) + atomic_tail and lam*s + atomic_cum.
    """
    cuts = [0.0] + [a for a, _ in measure.atoms] + [1.0]
    weights = [w for _, w in measure.atoms]
    total_atomic = sum(weights)
    cum = 0.0
    for i in range(len(cuts) - 1):
        a, b = cuts[i], cuts[i + 1]
        if i > 0:
            cum += weights[i - 1]
        if b > a:
            yield a, b, total_atomic - cum, cum


def v_coefficients(measure: WeightMeasure) -> VCoefficients:
    """Closed-form (v1, v2, c) by exact piecewise integration between atoms.

    On each open interval between atoms both mass functions are affine, so
    the three integrands are quadratics; a single Simpson evaluation per
    interval integrates them exactly.
    """
    lam = measure.lebesgue_weight
    v1 = v2 = c = 0.0
    for a, b, at_tail, at_cum in _segments(measure):
        h = b - a
        nodes = (a, 0.5 * (a + b), b)
        coef = (h / 6.0, 4.0 * h / 6.0, h / 6.0)
        for s, w in zip(nodes, coef):
            t = lam * (1.0 - s) + at_tail
            u = lam * s + at_cum
            v1 += w * t * t
            v2 += w * u * u
            c += w * t * u
    return VCoefficients(v1=v1, v2=v2, c=c)


def mean_weights(measure: WeightMeasure, m: int) -> np.ndarray:
    """Quadrature weights of length m+1: weights @ x is the local mean of a cell's m+1 values.

    The Lebesgue part is the trapezoid rule on the uniform grid; each atom is
    split linearly between its two neighbouring grid points.  Weights are
    nonnegative and sum to 1.
    """
    if m < 1:
        raise ValueError("need at least 2 grid points per cell")
    w = np.zeros(m + 1)
    lam = measure.lebesgue_weight
    if lam > 0.0:
        w += lam / m
        w[0] -= 0.5 * lam / m
        w[-1] -= 0.5 * lam / m
    for a, wa in measure.atoms:
        pos = a * m
        lo = min(int(pos), m - 1)
        frac = pos - lo
        w[lo] += wa * (1.0 - frac)
        w[lo + 1] += wa * frac
    return w


def measure_from_spec(spec: dict) -> WeightMeasure:
    """Build a measure from its JSON form, e.g. {"kind": "atomic", "atoms": [[0.5, 1.0]]}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"malformed measure spec {spec!r}")
    kind = spec["kind"]
    if kind == "lebesgue":
        return WeightMeasure.lebesgue()
    if kind == "atomic":
        return WeightMeasure.atomic(spec.get("atoms", []))
    if kind == "mixture":
        return WeightMeasure.mixture(spec.get("lebesgue", 0.0), spec.get("atoms", []))
    raise ValueError(f"unknown measure kind {kind!r}")


def measure_to_spec(measure: WeightMeasure) -> dict:
    if measure.kind == "lebesgue":
        return {"kind": "lebesgue"}
    if measure.kind == "atomic":
        return {"kind": "atomic", "atoms": [[a, w] for a, w in measure.atoms]}
    return {
        "kind": "mixture",
        "lebesgue": measure.lebesgue_weight,
        "atoms": [[a, w] for a, w in measure.atoms],
    }
