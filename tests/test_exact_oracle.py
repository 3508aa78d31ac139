import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffmeans.exact_oracle as exact_oracle
from diffmeans.exact_oracle import build_base_cov, exact_llr, exact_mle, log_density
from diffmeans.measures import WeightMeasure
from diffmeans.models import get_model
from diffmeans.simulate import observe_values, simulate_values

from conftest import weight_measures
from reference import dense_cov

LEB = WeightMeasure.lebesgue()
MULT = get_model("multiplicative_bm")


@st.composite
def edge_atom_measures(draw):
    """Lebesgue mass plus atoms at 0, at 1, or at both ends."""
    lam = draw(st.floats(0.1, 0.9))
    ends = draw(st.sampled_from([(0.0,), (1.0,), (0.0, 1.0)]))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(ends), max_size=len(ends))))
    return WeightMeasure.mixture(lam, zip(ends, raw * (1.0 - lam) / raw.sum()))


oracle_measures = st.one_of(
    weight_measures(),
    st.floats(0.01, 0.99).map(WeightMeasure.dirac),
    edge_atom_measures(),
)


class TestBaseCov:
    def test_lebesgue_n2_entries(self):
        cov = dense_cov(build_base_cov(2, LEB))
        assert cov[0, 0] == pytest.approx(1.0 / 6.0)
        assert cov[0, 1] == pytest.approx(0.25)
        assert cov[1, 1] == pytest.approx((1 + 1.0 / 3.0) / 2.0)

    def test_lebesgue_structure(self):
        n = 5
        cov = dense_cov(build_base_cov(n, LEB))
        for i in range(n):
            assert cov[i, i] == pytest.approx((i + 1.0 / 3.0) / n)
            for j in range(i + 1, n):
                assert cov[i, j] == pytest.approx((i + 0.5) / n)

    def test_dirac_single_observation(self):
        for alpha in (0.3, 0.5, 0.9):
            cov = dense_cov(build_base_cov(1, WeightMeasure.dirac(alpha)))
            assert cov[0, 0] == pytest.approx(alpha)

    def test_mixture_bilinearity(self):
        # Against brute-force double quadrature of min((s+i)/n, (t+j)/n).
        measure = WeightMeasure.mixture(0.4, [(0.3, 0.35), (0.8, 0.25)])
        n = 3
        cov = dense_cov(build_base_cov(n, measure))
        grid = np.linspace(0.0005, 0.9995, 1000)
        w_leb = np.full(grid.size, 0.4 / grid.size)
        pts = np.concatenate([grid, [0.3, 0.8]])
        wts = np.concatenate([w_leb, [0.35, 0.25]])
        for i in range(n):
            for j in range(n):
                brute = wts @ np.minimum.outer(pts + i, pts + j) @ wts / n
                assert cov[i, j] == pytest.approx(brute, abs=2e-4)

    def test_factor_reconstructs_cov(self):
        n = 64
        gm = build_base_cov(n, LEB)
        L = np.eye(n) + np.diag(gm.sub[1:], -1)
        D = np.eye(n) - np.eye(n, k=-1)
        np.testing.assert_allclose(L @ np.diag(gm.piv) @ L.T, n * D @ dense_cov(gm) @ D.T,
                                   atol=1e-12)

    def test_dirac_difference_covariance_is_diagonal(self):
        gm = build_base_cov(16, WeightMeasure.dirac(0.3))
        assert not np.any(gm.sub)
        np.testing.assert_allclose(gm.piv, [0.3] + [1.0] * 15, rtol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 256), oracle_measures, st.integers(0, 2**32 - 1))
    def test_matches_dense_cholesky(self, n, measure, seed):
        gm = build_base_cov(n, measure)
        chol = np.linalg.cholesky(dense_cov(gm))
        X = (chol @ np.random.default_rng(seed).standard_normal((n, 5))).T
        y = np.linalg.solve(chol, X.T)
        np.testing.assert_allclose(gm.quad_forms(X), np.sum(y * y, axis=0), rtol=1e-10)
        dense_log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        assert gm.log_det() == pytest.approx(dense_log_det, rel=1e-10)

    @pytest.mark.parametrize("n", [5000, 2**16])
    def test_large_n_builds(self, n):
        gm = build_base_cov(n, LEB)
        assert gm.sub.shape == gm.piv.shape == (n,)
        assert np.all(gm.piv > 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_base_cov(0, LEB)

    def test_non_positive_pivot_raises(self, monkeypatch):
        # E min(s,t) = 0 makes the first pivot zero; no valid measure reaches it.
        monkeypatch.setattr(exact_oracle, "_min_moments", lambda measure: (0.0, 0.0))
        with pytest.raises(np.linalg.LinAlgError):
            build_base_cov(4, LEB)

    def test_import_does_not_load_scipy(self):
        code = "import sys, diffmeans; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"


class TestLogDensity:
    def test_zero_vector_value(self):
        gm = build_base_cov(3, LEB)
        theta = 1.7
        expect = -0.5 * (3 * np.log(2 * np.pi * theta**2) + gm.log_det())
        assert log_density(gm, theta, np.zeros((1, 3)))[0] == pytest.approx(expect)

    def test_scalar_exponent(self):
        gm = build_base_cov(1, LEB)
        x = np.array([[np.sqrt(1.0 / 3.0)], [0.0]])
        value, zero = log_density(gm, 1.0, x)
        assert value - zero == pytest.approx(-0.5)

    def test_normalization_n2(self):
        gm = build_base_cov(2, LEB)
        theta = 1.0
        sds = np.sqrt(theta**2 * np.diag(dense_cov(gm)))
        g0 = np.linspace(-6 * sds[0], 6 * sds[0], 401)
        g1 = np.linspace(-6 * sds[1], 6 * sds[1], 401)
        xx, yy = np.meshgrid(g0, g1, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        dens = np.exp(log_density(gm, theta, pts))
        mass = dens.reshape(401, 401)
        integral = np.trapezoid(np.trapezoid(mass, g1, axis=1), g0)
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_nonpositive_theta_rejected(self):
        gm = build_base_cov(2, LEB)
        with pytest.raises(ValueError):
            log_density(gm, 0.0, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            exact_llr(gm, np.zeros((1, 2)), -1.0, 1.0)


class TestExactLLR:
    def test_identical_thetas(self, rng):
        gm = build_base_cov(4, LEB)
        x = rng.standard_normal((1, 4))
        assert exact_llr(gm, x, 1.3, 1.3)[0] == 0.0

    def test_antisymmetry_and_chain(self, rng):
        gm = build_base_cov(4, LEB)
        x = rng.standard_normal((1, 4))
        assert exact_llr(gm, x, 1.0, 2.0)[0] == pytest.approx(-exact_llr(gm, x, 2.0, 1.0)[0],
                                                              rel=1e-14)
        chain = exact_llr(gm, x, 0.8, 1.2)[0] + exact_llr(gm, x, 1.2, 2.5)[0]
        assert chain == pytest.approx(exact_llr(gm, x, 0.8, 2.5)[0], rel=1e-12)

    def test_matches_log_density_difference(self, rng):
        gm = build_base_cov(5, LEB)
        x = rng.standard_normal((1, 5))
        diff = log_density(gm, 1.4, x)[0] - log_density(gm, 0.9, x)[0]
        assert exact_llr(gm, x, 0.9, 1.4)[0] == pytest.approx(diff, rel=1e-12)

    def test_local_alternative_mean(self):
        # E[log Z(theta0, theta0 + h/sqrt(n))] ~ -h^2/theta0^2 at h=1, theta0=1.
        n, m, reps, h = 1024, 8, 400, 1.0
        values, _ = simulate_values(MULT, 1.0, 0.0, n, m, seed=51, reps=reps)
        obs = observe_values(values, LEB, n, m)
        gm = build_base_cov(n, LEB)
        theta1 = 1.0 + h / np.sqrt(n)
        q = gm.quad_forms(obs)
        log_z = -n * np.log(theta1) - 0.5 * q * (theta1**-2 - 1.0)
        assert np.mean(log_z) == pytest.approx(-1.0, abs=0.15)


class TestExactMLE:
    def test_positive_homogeneity(self, rng):
        gm = build_base_cov(6, LEB)
        x = rng.standard_normal((1, 6))
        assert exact_mle(gm, 3.0 * x)[0] == pytest.approx(3.0 * exact_mle(gm, x)[0], rel=1e-12)

    def test_single_pointwise_sample(self, rng):
        gm = build_base_cov(1, WeightMeasure.dirac(0.9999999999))
        x0 = rng.standard_normal()
        assert exact_mle(gm, np.array([[x0]]))[0] == pytest.approx(abs(x0), rel=1e-4)

    def test_zero_input_rejected(self):
        gm = build_base_cov(3, LEB)
        with pytest.raises(ValueError):
            exact_mle(gm, np.zeros((1, 3)))

    def test_zero_row_rejected_in_batch(self, rng):
        gm = build_base_cov(3, LEB)
        X = rng.standard_normal((4, 3))
        X[2] = 0.0
        with pytest.raises(ValueError, match=r"\[2\]"):
            exact_mle(gm, X)

    def test_dispersion_near_information_bound(self):
        n, m, reps = 1024, 8, 400
        values, _ = simulate_values(MULT, 1.0, 0.0, n, m, seed=52, reps=reps)
        obs = observe_values(values, LEB, n, m)
        gm = build_base_cov(n, LEB)
        theta_hat = np.sqrt(gm.quad_forms(obs) / n)
        v = np.var(np.sqrt(n) * (theta_hat - 1.0), ddof=1)
        assert 0.4 < v < 0.6


@pytest.mark.parametrize("oracle", [
    lambda gm, x: log_density(gm, 1.3, x),
    lambda gm, x: exact_llr(gm, x, 0.9, 1.4),
    lambda gm, x: exact_mle(gm, x),
], ids=["log_density", "exact_llr", "exact_mle"])
def test_rows_batch_like_single_vectors(oracle, rng):
    # A single observation vector is the one-row batch.
    gm = build_base_cov(7, WeightMeasure.mixture(0.5, [(0.25, 0.5)]))
    X = rng.standard_normal((4, 7))
    single = [oracle(gm, X[r : r + 1]) for r in range(4)]
    assert all(v.shape == (1,) for v in single)
    single = np.concatenate(single)
    batch = oracle(gm, X)
    assert batch.shape == (4,)
    np.testing.assert_allclose(batch, single, rtol=1e-14)
