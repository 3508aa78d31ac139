import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmeans import models
from diffmeans.estimate import quasi_loglik
from diffmeans.measures import WeightMeasure, v_coefficients
from diffmeans.models import get_model
from diffmeans.quasi_score import (
    TriKMatrix,
    aug_increments,
    aug_summaries,
    augmented_block_cov,
    info_terms,
    interior_block_cov,
    obs_summaries,
    quadratic_forms,
    score_terms,
)
from diffmeans.simulate import block_edges, observe_values, rep_rngs, simulate_values

from conftest import one_path, weight_measures
from reference import dense, solve_tridiagonal

MULT = get_model("multiplicative_bm")
SINE = get_model("sine_scale")
LEB = WeightMeasure.lebesgue()
V_LEB = v_coefficients(LEB)


def block_terms(u, anchor, theta, theta0, model):
    """(score term, info term) of one augmented block of rescaled increments u."""
    u = np.asarray(u, dtype=float)
    q = quadratic_forms(augmented_block_cov(u.size - 1, V_LEB), u[None, :])
    anchors, sizes = np.array([anchor]), np.array([u.size])
    return (score_terms(theta, theta0, model, anchors, sizes, q)[0],
            info_terms(theta, theta0, model, anchors, q)[0])


def hand_increments(obs, start, stop, anchor, terminal, n):
    """Rescaled increments of the block of means obs[start:stop], built by hand."""
    means = obs[start:stop]
    return np.sqrt(n) * np.concatenate([[means[0] - anchor], np.diff(means),
                                        [terminal - means[-1]]])


def path_summaries(values, n, m, measure, k):
    """(obs, edge_values, summaries) of a one-row batch of paths."""
    obs = observe_values(values, measure, n, m)
    edge_values = values[:, block_edges(n, k) * m]
    return obs, edge_values, aug_summaries(obs, edge_values, k, V_LEB)


def random_pd_tri(rng, size):
    c = rng.uniform(-1.0, 1.0)
    diag = 2.0 * abs(c) + rng.uniform(0.1, 2.0, size=size)
    return TriKMatrix(size=size, diag=diag, offdiag=c)


class TestTridiagonalSolve:
    def test_diagonal_case(self):
        K = TriKMatrix(size=3, diag=np.array([1.0, 2.0, 1.0]), offdiag=0.0)
        np.testing.assert_allclose(solve_tridiagonal(K, np.array([1.0, 2.0, 3.0])),
                                   [1.0, 1.0, 3.0], atol=1e-15)

    def test_k1_lebesgue_dense_inverse(self):
        K = augmented_block_cov(1, V_LEB)
        np.testing.assert_allclose(np.linalg.inv(dense(K)),
                                   [[4.0, -2.0], [-2.0, 4.0]], atol=1e-12)
        np.testing.assert_allclose(solve_tridiagonal(K, np.array([1.0, 1.0])),
                                   [2.0, 2.0], atol=1e-12)

    def test_against_dense_solver(self, rng):
        for _ in range(60):
            size = int(rng.integers(1, 65))
            K = random_pd_tri(rng, size)
            rhs = rng.standard_normal(size)
            x = solve_tridiagonal(K, rhs)
            np.testing.assert_allclose(x, np.linalg.solve(dense(K), rhs),
                                       rtol=1e-10, atol=1e-12)
            resid = np.max(np.abs(dense(K) @ x - rhs))
            assert resid <= 1e-10 * max(np.max(np.abs(rhs)), 1e-30)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_dense_agreement_property(self, size, seed):
        r = np.random.default_rng(seed)
        K = random_pd_tri(r, size)
        rhs = r.standard_normal(size)
        np.testing.assert_allclose(solve_tridiagonal(K, rhs),
                                   np.linalg.solve(dense(K), rhs),
                                   rtol=1e-9, atol=1e-11)

    def test_matrix_rhs(self, rng):
        K = random_pd_tri(rng, 6)
        rhs = rng.standard_normal((6, 4))
        np.testing.assert_allclose(solve_tridiagonal(K, rhs),
                                   np.linalg.solve(dense(K), rhs), rtol=1e-10, atol=1e-12)

    def test_breakdown_names_pivot(self):
        K = TriKMatrix(size=3, diag=np.array([1.0, 0.5, 1.0]), offdiag=1.0)
        with pytest.raises(np.linalg.LinAlgError, match="pivot 1"):
            solve_tridiagonal(K, np.zeros(3))

    def test_dimension_mismatch(self):
        K = augmented_block_cov(2, V_LEB)
        with pytest.raises(ValueError):
            quadratic_forms(K, np.ones((1, 2)))
        with pytest.raises(ValueError):
            solve_tridiagonal(K, np.ones(4))


class TestQuadraticForm:
    def test_zero_vector(self):
        assert quadratic_forms(augmented_block_cov(3, V_LEB), np.zeros((1, 4)))[0] == 0.0

    def test_k1_lebesgue_value(self):
        q = quadratic_forms(augmented_block_cov(1, V_LEB), np.array([[1.0, 1.0]]))
        assert q[0] == pytest.approx(4.0)

    def test_identity_case(self):
        K = TriKMatrix(size=2, diag=np.array([1.0, 1.0]), offdiag=0.0)
        u = np.array([[3.0, -2.0]])
        assert quadratic_forms(K, u)[0] == pytest.approx(np.sum(u * u))

    def test_positive_for_nonzero(self, rng):
        for _ in range(30):
            K = augmented_block_cov(int(rng.integers(1, 9)), V_LEB)
            u = rng.standard_normal((1, K.size))
            assert quadratic_forms(K, u)[0] > 0.0

    def test_batch_rows_match_scalar(self, rng):
        K = augmented_block_cov(4, V_LEB)
        U = rng.standard_normal((7, 5))
        batch = quadratic_forms(K, U)
        for r in range(7):
            assert batch[r] == pytest.approx(quadratic_forms(K, U[r : r + 1])[0], rel=1e-14)


class TestXi:
    def test_zero_increments(self):
        assert block_terms(np.zeros(3), 0.0, 1.0, 1.0, MULT)[0] == pytest.approx(-3.0)

    def test_k1_lebesgue(self):
        assert block_terms(np.array([1.0, 1.0]), 0.0, 1.0, 1.0, MULT)[0] == pytest.approx(2.0)

    def test_even_in_increments(self, rng):
        u = rng.standard_normal(5)
        a = block_terms(u, 0.3, 1.2, 1.1, SINE)[0]
        b = block_terms(-u, 0.3, 1.2, 1.1, SINE)[0]
        assert a == pytest.approx(b, rel=1e-14)

    def test_mean_zero_at_true_parameter(self):
        # Exact recentered chi-square for the scaled Brownian model.
        n, m, k, reps = 50, 16, 5, 400
        values, _ = simulate_values(MULT, 1.0, 0.0, n, m, rngs=rep_rngs(77, (), 0, reps))
        obs = observe_values(values, LEB, n, m)
        anchors, sizes, q = aug_summaries(obs, values[:, block_edges(n, k) * m], k, V_LEB)
        terms = score_terms(1.0, 1.0, MULT, anchors, sizes, q)
        assert terms.shape == (reps, n // k)
        se = np.sqrt(2.0 * (k + 1) / terms.size)
        assert abs(terms.mean()) < 3.0 * se


class TestXiDtheta:
    def test_zero_increments(self):
        assert -block_terms(np.zeros(4), 0.0, 1.3, 1.0, SINE)[1] == 0.0

    def test_k1_lebesgue(self):
        assert -block_terms(np.array([1.0, 1.0]), 0.0, 1.0, 1.0, MULT)[1] == pytest.approx(-8.0)

    def test_finite_difference(self, rng):
        eps = 1e-5
        for model in (MULT, SINE):
            for _ in range(20):
                u = rng.standard_normal(4)
                anchor = rng.uniform(-1, 1)
                theta = rng.uniform(0.8, 2.5)
                theta0 = rng.uniform(0.8, 2.5)
                fd = (
                    block_terms(u, anchor, theta + eps, theta0, model)[0]
                    - block_terms(u, anchor, theta - eps, theta0, model)[0]
                ) / (2 * eps)
                assert fd == pytest.approx(
                    -block_terms(u, anchor, theta, theta0, model)[1], rel=1e-6, abs=1e-9
                )


class TestScoreAndInfo:
    def test_all_zero_increments(self):
        # A constant path: blocks of 4, 4 and 3 increments, all zero.
        n, k = 8, 3
        anchors, sizes, q = aug_summaries(np.zeros((1, n)), np.zeros((1, 4)), k, V_LEB)
        assert list(sizes) == [4, 4, 3]
        N = np.sum(score_terms(1.5, 1.5, SINE, anchors, sizes, q)) / np.sqrt(n)
        I = np.sum(info_terms(1.5, 1.5, SINE, anchors, q)) / n
        r = 1.0 / 1.5
        expect = -(4 * r + 4 * r + 3 * r) / np.sqrt(n)
        assert N == pytest.approx(expect, rel=1e-12)
        assert I == 0.0

    def test_matches_per_block_sum(self):
        n, k = 23, 4
        values = one_path(SINE, 1.2, 0.1, n=n, m=8, seed=13)
        obs, edge_values, (anchors, sizes, q) = path_summaries(values, n, 8, LEB, k)
        N = np.sum(score_terms(1.2, 1.2, SINE, anchors, sizes, q)) / np.sqrt(n)
        I = np.sum(info_terms(1.2, 1.2, SINE, anchors, q)) / n
        edges, ev = block_edges(n, k), edge_values[0]
        per_block = [
            block_terms(hand_increments(obs[0], edges[l], edges[l + 1], ev[l], ev[l + 1], n),
                        ev[l], 1.2, 1.2, SINE)
            for l in range(edges.size - 1)
        ]
        N_manual = sum(t[0] for t in per_block) / np.sqrt(n)
        I_manual = sum(t[1] for t in per_block) / n
        assert N == pytest.approx(N_manual, rel=1e-12)
        assert I == pytest.approx(I_manual, rel=1e-12)

    def test_single_mean_tail_block_degenerates_to_two_by_two(self):
        # n=9, k=4: blocks of sizes 5, 5 and a final one of 2 increments
        # whose covariance is the corner 2x2 matrix [[v1, c], [c, v2]].
        values = one_path(SINE, 1.1, 0.2, n=9, m=8, seed=19)
        obs, edge_values, (anchors, sizes, qforms) = path_summaries(values, 9, 8, LEB, 4)
        assert list(sizes) == [5, 5, 2]
        _, tail = aug_increments(obs, edge_values, 4)
        corner = np.array([[V_LEB.v1, V_LEB.c], [V_LEB.c, V_LEB.v2]])
        manual_q = tail[0] @ np.linalg.solve(corner, tail[0])
        assert qforms[0, -1] == pytest.approx(manual_q, rel=1e-12)
        N = np.sum(score_terms(1.1, 1.1, SINE, anchors, sizes, qforms))
        I = np.sum(info_terms(1.1, 1.1, SINE, anchors, qforms))
        assert np.isfinite(N) and np.isfinite(I)

    def test_information_mean_multiplicative(self):
        # E[I] = 2 * sum(k_l + 1) / n at theta0 = 1 for the Gaussian model.
        n, m, k, reps = 1024, 16, 10, 100
        values, _ = simulate_values(MULT, 1.0, 0.0, n, m, rngs=rep_rngs(3, (), 0, reps))
        obs = observe_values(values, LEB, n, m)
        anchors, _, q = aug_summaries(obs, values[:, block_edges(n, k) * m], k, V_LEB)
        I = np.sum(info_terms(1.0, 1.0, MULT, anchors, q), axis=1) / n
        target = 2.0 * (102 * 11 + 5) / n
        assert I.mean() == pytest.approx(target, rel=0.1)


class TestXiObs:
    def test_zero_increments(self):
        anchors, sizes, q = obs_summaries(np.zeros((1, 3)), 0.0, 3, V_LEB)
        assert score_terms(1.0, 1.0, MULT, anchors, sizes, q)[0, 0] == pytest.approx(-2.0)

    def test_k2_scalar_matrix(self):
        # Interior matrix is the scalar [2/3]; u=2 gives form 6.
        n = 2
        obs = np.array([[0.0, 2.0 / np.sqrt(n)]])
        anchors, sizes, q = obs_summaries(obs, 0.0, 2, V_LEB)
        assert score_terms(1.0, 1.0, MULT, anchors, sizes, q)[0, 0] == pytest.approx(5.0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            obs_summaries(np.zeros((1, 4)), 0.0, 1, V_LEB)
        with pytest.raises(ValueError):
            interior_block_cov(1, V_LEB)

    def test_mean_zero_at_true_parameter(self):
        n, m, k, reps = 64, 16, 8, 300
        values, _ = simulate_values(MULT, 1.0, 0.0, n, m, rngs=rep_rngs(17, (), 0, reps))
        obs = observe_values(values, LEB, n, m)
        anchors, sizes, q = obs_summaries(obs, 0.0, k, V_LEB)
        vals = np.sum(score_terms(1.0, 1.0, MULT, anchors, sizes, q), axis=1) / np.sqrt(n)
        assert abs(vals.mean()) < 3.0 * vals.std(ddof=1) / np.sqrt(reps)


class TestQuasiLoglik:
    def test_derivative_matches_score_terms(self):
        values = one_path(SINE, 1.3, 0.2, n=16, m=8, seed=4)
        _, _, (anchors, sizes, q) = path_summaries(values, 16, 8, LEB, 4)
        eps = 1e-5
        for theta in (0.9, 1.3, 2.1):
            fd = (quasi_loglik(theta + eps, SINE, anchors, sizes, q)
                  - quasi_loglik(theta - eps, SINE, anchors, sizes, q)) / (2 * eps)
            score = np.sum(score_terms(theta, theta, SINE, anchors, sizes, q), axis=1)
            assert fd[0] == pytest.approx(score[0], rel=1e-6)

    def test_multiplicative_closed_form_maximum(self):
        values = one_path(MULT, 1.4, 0.0, n=64, m=8, seed=6)
        _, _, (anchors, sizes, q) = path_summaries(values, 64, 8, LEB, 8)
        theta_star = np.sqrt(q.sum() / sizes.sum())
        thetas = np.array([[theta_star - 0.05], [theta_star], [theta_star + 0.05]])
        f = quasi_loglik(thetas, MULT, np.repeat(anchors, 3, axis=0), sizes,
                         np.repeat(q, 3, axis=0))
        assert f[0] < f[1] and f[2] < f[1]

    def test_anchor_shift_invariance_multiplicative(self):
        values = one_path(MULT, 1.0, 0.0, n=16, m=8, seed=8)
        _, _, (anchors, sizes, q) = path_summaries(values, 16, 8, LEB, 4)
        f = quasi_loglik(1.2, MULT, np.vstack([anchors, anchors + 5.0]), sizes,
                         np.vstack([q, q]))
        assert f[0] == pytest.approx(f[1], rel=1e-14)

    @pytest.mark.parametrize("name", ["multiplicative_bm", "sine_scale", "cauchy_scale"])
    def test_theta_column_matches_scalar_rows(self, name, rng):
        # Each row at its own theta gives the bits of that row alone.
        model = get_model(name)
        anchors = rng.standard_normal((5, 9))
        q = rng.chisquare(4, size=(5, 9))
        sizes = np.full(9, 4)
        thetas = rng.uniform(*model.theta_interval, size=(5, 1))
        f = quasi_loglik(thetas, model, anchors, sizes, q)
        for r in range(5):
            one = quasi_loglik(float(thetas[r, 0]), model, anchors[r : r + 1], sizes, q[r : r + 1])
            assert f[r] == one[0]


class TestBatchedCore:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 40), st.integers(1, 5), weight_measures(),
           st.integers(0, 2**32 - 1))
    def test_rows_match_single_path_calls(self, n, k, R, measure, seed):
        # Chunking invariance of the summaries: every quadratic form of a
        # row is bit-equal to the same row's in an R = 1 call, the tail
        # block and L = 1 included.
        k = min(k, n)
        coeffs = v_coefficients(measure)
        r = np.random.default_rng(seed)
        obs = r.standard_normal((R, n)).cumsum(axis=1)
        edge_values = r.standard_normal((R, block_edges(n, k).size))
        builders = [(aug_summaries, (obs, edge_values, k, coeffs))]
        if k >= 2:
            builders.append((obs_summaries, (obs, 0.3, k, coeffs)))
        for build, args in builders:
            anchors, sizes, q = build(*args)
            for row in range(R):
                one = [a[row : row + 1] if isinstance(a, np.ndarray) else a for a in args]
                a1, s1, q1 = build(*one)
                np.testing.assert_array_equal(a1[0], anchors[row])
                np.testing.assert_array_equal(s1, sizes)
                np.testing.assert_array_equal(q1[0], q[row])

    @pytest.mark.parametrize("build", ["aug", "obs"])
    def test_rows_across_qform_blocks(self, build):
        # More block rows than one sweep of quadratic_forms holds, the last
        # sweep partial: every row keeps the bits of its R = 1 call.
        n, k = 1024, 10
        size = k + 1 if build == "aug" else k - 1
        per_block = models._BLOCK_DOUBLES // size
        R = per_block // (n // k) + 1
        assert per_block < R * (n // k) and R * (n // k) % per_block
        r = np.random.default_rng(size)
        obs = r.standard_normal((R, n)).cumsum(axis=1)
        edge_values = r.standard_normal((R, block_edges(n, k).size))
        coeffs = v_coefficients(WeightMeasure.dirac(0.25))

        def summarize(rows):
            if build == "aug":
                return aug_summaries(obs[rows], edge_values[rows], k, coeffs)
            return obs_summaries(obs[rows], 0.3, k, coeffs)

        anchors, sizes, q = summarize(slice(None))
        for row in range(R):
            a1, s1, q1 = summarize(slice(row, row + 1))
            assert np.array_equal(q1[0], q[row])
            assert np.array_equal(a1[0], anchors[row])
