import dataclasses

import numpy as np
import pytest

from diffmeans import models
from diffmeans.models import (
    REGISTRY,
    get_model,
    info_integrand,
    path_information,
    validate_registry,
)
from diffmeans.simulate import simulate_values

from conftest import one_path

MULT = get_model("multiplicative_bm")
SINE = get_model("sine_scale")
CAUCHY = get_model("cauchy_scale")


def test_registry_lookup():
    assert get_model("sine_scale").name == "sine_scale"
    with pytest.raises(ValueError):
        get_model("ornstein")


def test_registry_coefficient_floors():
    validate_registry()


def test_declared_shortcuts():
    assert {name for name, mdl in REGISTRY.items() if mdl.scaled_brownian} == {"multiplicative_bm"}
    assert {name for name, mdl in REGISTRY.items() if mdl.scale_family} == {
        "multiplicative_bm", "sine_scale"}


def test_registry_rejects_false_scale_family(monkeypatch):
    monkeypatch.setitem(REGISTRY, "cauchy_scale", dataclasses.replace(CAUCHY, scale_family=True))
    with pytest.raises(AssertionError, match="scale family"):
        validate_registry()


def test_registry_rejects_false_scaled_brownian(monkeypatch):
    monkeypatch.setitem(REGISTRY, "sine_scale", dataclasses.replace(SINE, scaled_brownian=True))
    with pytest.raises(AssertionError, match="scaled Brownian"):
        validate_registry()


class TestInfoIntegrand:
    def test_multiplicative(self):
        assert info_integrand(MULT, 12.3, 1.0) == pytest.approx(1.0)

    def test_sine_scale_is_theta_inverse_squared(self):
        assert info_integrand(SINE, 0.0, 2.0) == pytest.approx(0.25)
        assert info_integrand(SINE, 1.7, 2.0) == pytest.approx(0.25)

    def test_cauchy_at_origin(self):
        assert info_integrand(CAUCHY, 0.0, 1.0) == pytest.approx(0.25)


class TestPathInformation:
    def test_multiplicative_constant(self):
        values = one_path(MULT, 1.0, 0.0, n=16, m=8, seed=1)
        assert path_information(MULT, values, 1.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_sine_scale_deterministic(self):
        values = one_path(SINE, 2.0, 0.0, n=16, m=8, seed=1)
        assert path_information(SINE, values, 2.0)[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("model", [MULT, SINE])
    def test_scale_family_is_two_over_theta_squared(self, model):
        # The experiments take 2/theta^2 for scale families instead of this
        # integral: exact at theta = 1, last bits elsewhere.
        values, _ = simulate_values(model, 1.0, 0.3, 16, 8, seed=5, reps=3)
        assert np.all(path_information(model, values, 1.0) == 2.0)
        for theta in (1.3, 2.5):
            np.testing.assert_allclose(path_information(model, values, theta), 2.0 / theta**2,
                                       rtol=1e-15, atol=0.0)

    def test_cauchy_zero_path(self):
        assert path_information(CAUCHY, np.zeros((1, 129)), 1.0)[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("block", ["rows_below", "rows_at", "rows_above", "default"])
    @pytest.mark.parametrize("model", [MULT, SINE, CAUCHY], ids=lambda mdl: mdl.name)
    @pytest.mark.parametrize("reps", [None, 1, 7])
    def test_row_blocks_match_whole_array(self, monkeypatch, block, model, reps):
        # reps None: the rows of a 7-row batch, each passed as a one-row batch.
        row = (1 << 17) + 1 if block == "default" else 97
        if block != "default":
            # Rows shorter than, equal to and longer than one block.
            size = {"rows_below": 3 * row + 1, "rows_at": row, "rows_above": row - 1}[block]
            monkeypatch.setattr(models, "_BLOCK_DOUBLES", size)
        rows = 7 if reps is None else reps
        values = np.cumsum(np.random.default_rng(row + rows).standard_normal((rows, row)), axis=1)
        values *= 1.0 / np.sqrt(row)
        if reps is None:
            got = np.concatenate([path_information(model, values[r : r + 1], 1.7)
                                  for r in range(rows)])
        else:
            got = path_information(model, values, 1.7)
        y = info_integrand(model, values, 1.7)
        assert np.array_equal(got, 2.0 * np.trapezoid(y, dx=1.0 / (row - 1), axis=1))

    def test_grid_refinement_stable(self):
        values = one_path(SINE, 1.0, 0.3, n=64, m=512, seed=5)
        fine = path_information(SINE, values, 1.0)[0]
        coarse = path_information(SINE, values[:, ::2], 1.0)[0]
        assert abs(fine - coarse) < 1e-3


def test_a_dot_matches_finite_differences(rng):
    eps = 1e-5
    for model in REGISTRY.values():
        lo, hi = model.theta_interval
        for _ in range(60):
            x = rng.uniform(-10, 10)
            theta = rng.uniform(lo + 2 * eps, hi - 2 * eps)
            fd = (model.a(x, theta + eps) - model.a(x, theta - eps)) / (2 * eps)
            exact = model.a_dot(x, theta)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_theta_interval_enforced():
    with pytest.raises(ValueError):
        MULT.check_theta(4.0)
    with pytest.raises(ValueError):
        simulate_values(MULT, 0.2, 0.0, n=4, m=4, seed=0, reps=1)


@pytest.mark.parametrize("model", list(REGISTRY.values()), ids=lambda mdl: mdl.name)
def test_theta_column_matches_scalar_rows(model, rng):
    # theta of shape (R, 1) against x of shape (R, B): each row equals the
    # call with that row's scalar theta, bit for bit.
    lo, hi = model.theta_interval
    x = rng.uniform(-10.0, 10.0, size=(6, 9))
    thetas = np.append(rng.uniform(lo, hi, size=5), hi)[:, None]
    for coeff in (model.a, model.a_dot, model.rel_sensitivity):
        got = coeff(x, thetas)
        assert got.shape == x.shape
        for r in range(x.shape[0]):
            assert np.array_equal(got[r], coeff(x[r], float(thetas[r, 0])))
    b = model.b(x)
    assert b.shape == x.shape
    for r in range(x.shape[0]):
        assert np.array_equal(b[r], model.b(x[r]))
    validate_registry()
