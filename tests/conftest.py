import os

# One BLAS thread, set before numpy loads: the tests' small dense
# factorizations only slow down when threads compete for busy cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diffmeans.measures import WeightMeasure  # noqa: E402
from diffmeans.simulate import rep_rngs, simulate_values  # noqa: E402


def one_path(model, theta, xi0, n, m, seed):
    """One simulated path as a one-row batch (replication 0 of the seed's stream)."""
    return simulate_values(model, theta, xi0, n, m, rep_rngs(seed, (), 0, 1))[0]


@st.composite
def weight_measures(draw):
    """Random valid measures: Lebesgue, atomic, or mixtures with interior mass."""
    kind = draw(st.sampled_from(["lebesgue", "atomic", "mixture"]))
    if kind == "lebesgue":
        return WeightMeasure.lebesgue()
    n_atoms = draw(st.integers(1, 4))
    positions = sorted(
        draw(
            st.lists(
                st.floats(0.01, 0.99, allow_nan=False),
                min_size=n_atoms,
                max_size=n_atoms,
                unique=True,
            )
        )
    )
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n_atoms, max_size=n_atoms)))
    if kind == "atomic":
        weights = raw / raw.sum()
        return WeightMeasure.atomic(zip(positions, weights))
    lam = draw(st.floats(0.1, 0.9))
    weights = raw * (1.0 - lam) / raw.sum()
    return WeightMeasure.mixture(lam, zip(positions, weights))


def random_measure(rng: np.random.Generator, kind: str) -> WeightMeasure:
    """Seeded random measure of a given kind (for fixed-count sweeps)."""
    if kind == "lebesgue":
        return WeightMeasure.lebesgue()
    n_atoms = int(rng.integers(1, 5))
    positions = np.sort(rng.uniform(0.02, 0.98, size=n_atoms))
    while np.any(np.diff(positions) <= 0):
        positions = np.sort(rng.uniform(0.02, 0.98, size=n_atoms))
    raw = rng.uniform(0.05, 1.0, size=n_atoms)
    if kind == "atomic":
        return WeightMeasure.atomic(zip(positions, raw / raw.sum()))
    lam = rng.uniform(0.1, 0.9)
    return WeightMeasure.mixture(lam, zip(positions, raw * (1.0 - lam) / raw.sum()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
