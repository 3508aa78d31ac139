import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmeans.estimate import estimate_augmented, estimate_means_only, solve_rows
from diffmeans.exact_oracle import build_base_cov
from diffmeans.measures import WeightMeasure, v_coefficients
from diffmeans.models import REGISTRY, get_model
from diffmeans.quasi_score import (
    aug_summaries,
    augmented_block_cov,
    interior_block_cov,
    quadratic_forms,
)
from diffmeans.simulate import block_edges, observe_values, rep_rngs, simulate_values

from conftest import one_path
from reference import QuasiObjective, solve

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
        values, _ = simulate_values(MULT, 1.5, 0.0, n, m, rngs=rep_rngs(6, (), 0, reps))
        obs = observe_values(values, LEB, n, m)
        edge_values = values[:, block_edges(n, k) * m]
        hats = [estimate_augmented(obs[r], edge_values[r], MULT, V_LEB, k).theta_hat
                for r in range(reps)]
        assert abs(np.mean(hats) - 1.5) < 0.05

    def test_agreement_with_exact_mle(self):
        n, m, k, reps = 1024, 8, 10, 150
        values, _ = simulate_values(MULT, 1.0, 0.0, n, m, rngs=rep_rngs(8, (), 0, reps))
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
        values, _ = simulate_values(MULT, 2.0, 0.0, n, m, rngs=rep_rngs(13, (), 0, reps))
        obs = observe_values(values, measure, n, m)
        hats = [
            estimate_means_only(obs[r], 0.0, MULT, coeffs, k=k).theta_hat for r in range(reps)
        ]
        assert abs(np.mean(hats) - 2.0) < 0.08


# Row kinds of the solver tests: an interior root near the drawn theta, q
# scaled by 10^2 or 0.01^2 (an upper or lower boundary hit), or q scaled
# so that the score vanishes at an endpoint.
ROW_KINDS = ("plain", "upper", "lower", "root_lo", "root_hi")


def row_summaries(model, theta0, kind, sizes, rng):
    """(anchors, qforms) of one row of block summaries of the given kind."""
    anchors = 0.3 * np.cumsum(rng.standard_normal(sizes.size))
    q = model.a(anchors, theta0) ** 2 * rng.chisquare(sizes)
    if kind == "upper":
        q *= 100.0
    elif kind == "lower":
        q *= 1e-4
    elif kind in ("root_lo", "root_hi"):
        theta = model.theta_interval[0 if kind == "root_lo" else 1]
        r = model.rel_sensitivity(anchors, theta)
        q *= np.sum(r * sizes) / np.sum(r * q / model.a(anchors, theta) ** 2)
    return anchors, q


def batch_summaries(model, thetas, kinds, sizes, seed):
    rng = np.random.default_rng(seed)
    rows = [row_summaries(model, t, kind, sizes, rng) for t, kind in zip(thetas, kinds)]
    return np.array([a for a, _ in rows]), np.array([q for _, q in rows])


class RecordingObjective(QuasiObjective):
    """The reference objective, recording every score and slope evaluation."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def score(self, theta):
        s = super().score(theta)
        self.calls.append(("score", theta, s))
        return s

    def slope(self, theta):
        v = super().slope(theta)
        self.calls.append(("slope", theta, v))
        return v


def took_bisection(calls) -> bool:
    """Whether a step evaluated anything but the Newton point of its slope."""
    for i, (kind, theta, slope) in enumerate(calls):
        if kind != "slope":
            continue
        s = [c[2] for c in calls[:i] if c[0] == "score" and c[1] == theta][-1]
        evaluated = []
        for c in calls[i + 1 :]:
            if c[0] == "slope":
                break
            evaluated.append(c[1])
        if evaluated and evaluated != [theta - s / slope]:
            return True
    return False


class TestSolveRows:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(REGISTRY)), st.integers(1, 9), st.integers(1, 12),
           st.integers(1, 12), st.integers(1, 12), st.data())
    def test_rows_match_scalar_reference(self, name, R, blocks, size, tail, data):
        model = get_model(name)
        lo, hi = model.theta_interval
        sizes = np.append(np.full(blocks, size), min(tail, size))
        thetas = data.draw(st.lists(st.floats(lo, hi), min_size=R, max_size=R))
        kinds = data.draw(st.lists(st.sampled_from(ROW_KINDS), min_size=R, max_size=R))
        theta_init = data.draw(st.sampled_from([None, lo, hi]) | st.floats(lo, hi))
        anchors, q = batch_summaries(model, thetas, kinds, sizes, data.draw(st.integers(0, 2**32 - 1)))
        n = int(sizes.sum())
        res = solve_rows(model, anchors, sizes, q, n, theta_init)
        start = 0.5 * (lo + hi) if theta_init is None else theta_init
        for r in range(R):
            ref = solve(QuasiObjective(model, anchors[r], sizes, q[r], n), (lo, hi), start)
            assert res.row(r) == ref
            assert solve_rows(model, anchors[r : r + 1], sizes, q[r : r + 1], n,
                              theta_init).row(0) == ref

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_row_kinds_reach_every_branch(self, name):
        # The kinds the property draws do reach each branch of the solver.
        model = get_model(name)
        lo, hi = model.theta_interval
        sizes = np.full(10, 11)
        kinds = ["plain", "upper", "lower", "root_lo", "root_hi"]
        anchors, q = batch_summaries(model, [0.6, 1.0, 1.0, 1.0, 1.0], kinds, sizes, seed=3)
        res = solve_rows(model, anchors, sizes, q, 110)
        np.testing.assert_array_equal(res.theta_hat[1:], [hi, lo, lo, hi])
        np.testing.assert_array_equal(res.boundary_hit, [False, True, True, False, False])
        np.testing.assert_array_equal(res.iterations[1:], [2, 2, 2, 2])
        assert abs(res.score_at_hat[0]) <= 1e-8 and lo < res.theta_hat[0] < hi
        objective = RecordingObjective(model, anchors[0], sizes, q[0], 110)
        solve(objective, (lo, hi), 0.5 * (lo + hi))
        assert took_bisection(objective.calls)

    def test_score_zero_at_both_ends_takes_lower_end(self):
        # Zero quadratic forms and sizes: every theta is a root, and the
        # lower endpoint is checked first.
        anchors, sizes, q = np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3))
        res = solve_rows(MULT, anchors, sizes, q, 4)
        ref = solve(QuasiObjective(MULT, anchors[0], sizes, q[0], 4), MULT.theta_interval, 1.75)
        assert res.row(0) == res.row(1) == ref
        assert ref.theta_hat == MULT.theta_interval[0] and not ref.boundary_hit

    def test_non_finite_score_raises(self):
        anchors = np.zeros((3, 4))
        q = np.ones((3, 4))
        q[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite quasi-score inf at theta = 0.5"):
            solve_rows(MULT, anchors, np.full(4, 2), q, 8)

    def test_theta_init_outside_interval(self):
        with pytest.raises(ValueError, match="outside parameter interval"):
            solve_rows(MULT, np.zeros((1, 2)), np.full(2, 2), np.ones((1, 2)), 4, theta_init=0.1)

    def test_estimate_returns_python_scalars(self):
        obs, edge_values = augmented_data(one_path(SINE, 1.2, 0.0, n=64, m=8, seed=4), 64, 8, 8)
        res = estimate_augmented(obs, edge_values, SINE, V_LEB, 8)
        assert [type(v) for v in (res.theta_hat, res.iterations, res.score_at_hat,
                                  res.info_at_hat, res.boundary_hit)] == [
            float, int, float, float, bool]
        anchors, sizes, q = aug_summaries(obs[None, :], edge_values[None, :], 8, V_LEB)
        assert res == solve(QuasiObjective(SINE, anchors[0], sizes, q[0], 64),
                            SINE.theta_interval, 1.75)
