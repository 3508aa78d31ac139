import numpy as np
import pytest

from diffmeans.estimate import estimate_augmented, estimate_means_only
from diffmeans.exact_oracle import build_base_cov
from diffmeans.measures import WeightMeasure, v_coefficients
from diffmeans.models import get_model
from diffmeans.quasi_score import augmented_block_cov, interior_block_cov, quadratic_forms
from diffmeans.simulate import block_edges, observe_values, simulate_values

from conftest import one_path

MULT = get_model("multiplicative_bm")
SINE = get_model("sine_scale")
LEB = WeightMeasure.lebesgue()
V_LEB = v_coefficients(LEB)


def augmented_data(values, n, m, k):
    """(means, block edge values) of a one-row batch of paths."""
    return observe_values(values, LEB, n, m)[0], values[0, block_edges(n, k) * m]


def closed_form_augmented(obs, edge_values, k):
    n = obs.size
    edges = block_edges(n, k)
    q, dof = 0.0, 0
    for l in range(edges.size - 1):
        means = obs[edges[l] : edges[l + 1]]
        u = np.sqrt(n) * np.concatenate([[means[0] - edge_values[l]], np.diff(means),
                                         [edge_values[l + 1] - means[-1]]])
        q += quadratic_forms(augmented_block_cov(means.size, V_LEB), u[None, :])[0]
        dof += u.size
    return np.sqrt(q / dof)


def closed_form_means_only(obs, xi0, k):
    n = obs.size
    L = n // k
    q, dof = 0.0, 0
    root_n = np.sqrt(n)
    for start, length in [(l * k, k) for l in range(L)] + [(L * k, n - L * k)]:
        if length < 2:
            continue
        u = root_n * np.diff(obs[start : start + length])
        q += quadratic_forms(interior_block_cov(length, V_LEB), u[None, :])[0]
        dof += length - 1
    return np.sqrt(q / dof)


class TestAugmentedEstimator:
    def test_matches_closed_form(self):
        values = one_path(MULT, 1.4, 0.0, n=128, m=16, seed=2)
        obs, edge_values = augmented_data(values, 128, 16, 10)
        res = estimate_augmented(obs, edge_values, MULT, V_LEB, 10)
        assert not res.boundary_hit
        assert abs(res.score_at_hat) <= 1e-8
        assert res.theta_hat == pytest.approx(closed_form_augmented(obs, edge_values, 10),
                                              abs=1e-8)
        assert res.info_at_hat > 0

    def test_idempotent_restart(self):
        obs, edge_values = augmented_data(one_path(SINE, 1.1, 0.2, n=64, m=16, seed=3), 64, 16, 8)
        first = estimate_augmented(obs, edge_values, SINE, V_LEB, 8)
        again = estimate_augmented(obs, edge_values, SINE, V_LEB, 8, theta_init=first.theta_hat)
        assert again.theta_hat == pytest.approx(first.theta_hat, abs=1e-10)

    def test_scaling_equivariance(self):
        obs, edge_values = augmented_data(one_path(MULT, 1.0, 0.0, n=64, m=16, seed=5), 64, 16, 8)
        lam = 1.6
        assert closed_form_augmented(obs * lam, edge_values * lam, 8) == pytest.approx(
            lam * closed_form_augmented(obs, edge_values, 8), rel=1e-12
        )
        res = estimate_augmented(obs * lam, edge_values * lam, MULT, V_LEB, 8)
        base = estimate_augmented(obs, edge_values, MULT, V_LEB, 8)
        assert res.theta_hat == pytest.approx(lam * base.theta_hat, abs=1e-7)

    def test_consistency_small_bias(self):
        n, m, k, reps = 1024, 8, 10, 60
        values, _ = simulate_values(MULT, 1.5, 0.0, n, m, seed=6, reps=reps)
        obs = observe_values(values, LEB, n, m)
        edge_values = values[:, block_edges(n, k) * m]
        hats = [estimate_augmented(obs[r], edge_values[r], MULT, V_LEB, k).theta_hat
                for r in range(reps)]
        assert abs(np.mean(hats) - 1.5) < 0.05

    def test_agreement_with_exact_mle(self):
        n, m, k, reps = 1024, 8, 10, 150
        values, _ = simulate_values(MULT, 1.0, 0.0, n, m, seed=8, reps=reps)
        obs = observe_values(values, LEB, n, m)
        edge_values = values[:, block_edges(n, k) * m]
        gm = build_base_cov(n, LEB)
        mle = np.sqrt(gm.quad_forms(obs) / n)
        quasi = np.array([
            estimate_augmented(obs[r], edge_values[r], MULT, V_LEB, k).theta_hat
            for r in range(reps)
        ])
        gap = np.sqrt(n) * (quasi - mle)
        assert np.std(gap, ddof=1) < 1.0

    def test_boundary_hit_upper(self):
        obs, edge_values = augmented_data(one_path(MULT, 1.0, 0.0, n=64, m=16, seed=9), 64, 16, 8)
        res = estimate_augmented(obs * 10.0, edge_values * 10.0, MULT, V_LEB, 8)
        assert res.boundary_hit
        assert res.theta_hat == MULT.theta_interval[1]

    def test_boundary_hit_lower(self):
        obs, edge_values = augmented_data(one_path(MULT, 1.0, 0.0, n=64, m=16, seed=9), 64, 16, 8)
        res = estimate_augmented(obs * 0.01, edge_values * 0.01, MULT, V_LEB, 8)
        assert res.boundary_hit
        assert res.theta_hat == MULT.theta_interval[0]

    def test_theta_init_outside_interval(self):
        obs, edge_values = augmented_data(one_path(MULT, 1.0, 0.0, n=16, m=8, seed=1), 16, 8, 4)
        with pytest.raises(ValueError):
            estimate_augmented(obs, edge_values, MULT, V_LEB, 4, theta_init=5.0)


class TestMeansOnlyEstimator:
    def test_matches_closed_form(self):
        obs = observe_values(one_path(MULT, 1.7, 0.0, n=128, m=16, seed=12), LEB, 128, 16)[0]
        res = estimate_means_only(obs, 0.0, MULT, V_LEB, k=8)
        assert res.theta_hat == pytest.approx(closed_form_means_only(obs, 0.0, 8), abs=1e-8)

    def test_k_below_two_rejected(self):
        obs = observe_values(one_path(MULT, 1.0, 0.0, n=16, m=8, seed=1), LEB, 16, 8)[0]
        with pytest.raises(ValueError):
            estimate_means_only(obs, 0.0, MULT, V_LEB, k=1)

    @pytest.mark.parametrize("measure", [LEB, WeightMeasure.dirac(0.5)])
    def test_consistency_under_both_measures(self, measure):
        n, m, k, reps = 512, 16, 8, 40
        coeffs = v_coefficients(measure)
        values, _ = simulate_values(MULT, 2.0, 0.0, n, m, seed=13, reps=reps)
        obs = observe_values(values, measure, n, m)
        hats = [
            estimate_means_only(obs[r], 0.0, MULT, coeffs, k=k).theta_hat for r in range(reps)
        ]
        assert abs(np.mean(hats) - 2.0) < 0.08
