import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmeans import models
from diffmeans.exact_oracle import build_base_cov
from diffmeans.measures import WeightMeasure, mean_weights, v_coefficients
from diffmeans.models import get_model
from diffmeans.quasi_score import aug_increments, augmented_block_cov
from diffmeans.simulate import (
    block_edges,
    coupled_increments_values,
    euler_values,
    observe_values,
    simulate_values,
)

from conftest import one_path
from reference import dense, dense_cov

MULT = get_model("multiplicative_bm")
SINE = get_model("sine_scale")
LEB = WeightMeasure.lebesgue()
# The same coefficients without the declaration: runs the generic Euler loop.
GENERIC_MULT = dataclasses.replace(MULT, scaled_brownian=False)


class TestEuler:
    def test_multiplicative_is_exact_brownian_sum(self):
        values, dW = simulate_values(MULT, 1.5, 0.0, n=32, m=16, seed=11, reps=1, increments=True)
        expect = np.concatenate([[0.0], np.cumsum(1.5 * dW[0])])
        np.testing.assert_array_equal(values[0], expect)

    @settings(max_examples=80, deadline=None)
    @given(theta=st.floats(0.5, 3.0), xi0=st.floats(-20.0, 20.0),
           reps=st.integers(1, 5), steps=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_cumsum_path_matches_generic_loop(self, theta, xi0, reps, steps, seed):
        h = 1.0 / steps
        dW = np.random.default_rng(seed).standard_normal((reps, steps)) * np.sqrt(h)
        fast = euler_values(MULT, theta, xi0, h, dW)
        loop = euler_values(GENERIC_MULT, theta, xi0, h, dW)
        assert fast.shape == loop.shape == (reps, steps + 1)
        assert np.array_equal(fast, loop)

    def test_zero_noise_zero_drift_constant(self):
        values = euler_values(MULT, 2.0, 3.7, 1.0 / 64, np.zeros((1, 64)))
        assert np.all(values == 3.7)

    def test_deterministic_given_seed(self):
        a = one_path(SINE, 1.2, 0.5, n=8, m=8, seed=99)
        b = one_path(SINE, 1.2, 0.5, n=8, m=8, seed=99)
        np.testing.assert_array_equal(a, b)
        c = one_path(SINE, 1.2, 0.5, n=8, m=8, seed=100)
        assert not np.array_equal(a, c)

    def test_batched_rows_match_single_paths(self):
        values, dW = simulate_values(SINE, 1.2, 0.5, n=4, m=8, seed=5, reps=3, increments=True)
        for r in range(3):
            single_v, single_w = simulate_values(SINE, 1.2, 0.5, n=4, m=8, seed=5,
                                                 reps=1, rep_offset=r, increments=True)
            np.testing.assert_array_equal(values[r], single_v[0])
            np.testing.assert_array_equal(dW[r], single_w[0])

    @pytest.mark.parametrize("model", [MULT, SINE], ids=["cumsum", "loop"])
    @pytest.mark.parametrize("reps", [None, 3])
    def test_increments_only_on_request(self, model, reps):
        # The in-place step equals a step out of place over the returned
        # increments, which are the ones drawn before the step.  reps None
        # is a single path: the one-row batch.
        rows = 1 if reps is None else reps
        values, dW = simulate_values(model, 1.2, 0.5, n=4, m=8, seed=5, reps=rows)
        assert dW is None
        again, increments = simulate_values(model, 1.2, 0.5, n=4, m=8, seed=5, reps=rows,
                                            increments=True)
        np.testing.assert_array_equal(again, values)
        np.testing.assert_array_equal(euler_values(model, 1.2, 0.5, 1.0 / 32, increments), values)

    def test_strong_error_halves_per_substep_doubling(self):
        # Coarse path driven by pair-sums of the fine increments: the gap at
        # t=1 shrinks like the square root of the step.
        n, reps = 8, 400
        errs = []
        ms = [4, 8, 16, 32]
        for m in ms:
            fine_m = 2 * m
            h_fine = 1.0 / (n * fine_m)
            rng = np.random.default_rng(123)
            dw_fine = rng.standard_normal((reps, n * fine_m)) * np.sqrt(h_fine)
            dw_coarse = dw_fine.reshape(reps, n * m, 2).sum(axis=2)
            x_fine = euler_values(SINE, 1.0, 0.0, h_fine, dw_fine)[:, -1]
            x_coarse = euler_values(SINE, 1.0, 0.0, 2 * h_fine, dw_coarse)[:, -1]
            errs.append(np.sqrt(np.mean((x_fine - x_coarse) ** 2)))
        slope = np.polyfit(np.log2(ms), np.log2(errs), 1)[0]
        assert -0.75 < slope < -0.3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            simulate_values(MULT, 1.0, 0.0, n=0, m=8, seed=0, reps=1)
        with pytest.raises(ValueError):
            simulate_values(MULT, 1.0, 0.0, n=8, m=1, seed=0, reps=1)
        with pytest.raises(ValueError):
            simulate_values(MULT, 1.0, 0.0, n=8, m=8, seed=0, reps=1, cells=9)


class TestObserve:
    def test_dirac_recovers_grid_point(self):
        values = one_path(SINE, 1.0, 0.2, n=16, m=32, seed=3)
        obs = observe_values(values, WeightMeasure.dirac(0.5), 16, 32)[0]
        expect = values[0, np.arange(16) * 32 + 16]
        np.testing.assert_allclose(obs, expect, atol=1e-13)

    def test_constant_path_observes_initial_value(self):
        values = np.full((1, 8 * 16 + 1), 1.37)
        obs = observe_values(values, LEB, 8, 16)
        np.testing.assert_allclose(obs, 1.37, atol=1e-13)

    def test_batch_matches_loop(self):
        values, _ = simulate_values(SINE, 1.0, 0.0, n=8, m=16, seed=4, reps=5)
        batch = observe_values(values, LEB, 8, 16)
        for r in range(5):
            np.testing.assert_allclose(batch[r], observe_values(values[r : r + 1], LEB, 8, 16)[0],
                                       atol=1e-14)

    @pytest.mark.parametrize("block", ["rows_below", "rows_at", "rows_above", "default"])
    @pytest.mark.parametrize("measure", [LEB, WeightMeasure.dirac(0.5),
                                         WeightMeasure.mixture(0.4, [(0.2, 0.35), (0.7, 0.25)])],
                             ids=["lebesgue", "dirac", "mixture"])
    @pytest.mark.parametrize("reps", [None, 1, 7])
    def test_row_blocks_match_whole_array(self, monkeypatch, block, measure, reps):
        # reps None: the rows of a 7-row batch, each passed as a one-row batch.
        n, m = (4096, 32) if block == "default" else (12, 8)
        row = n * m + 1
        if block != "default":
            # Rows shorter than, equal to and longer than one block.
            size = {"rows_below": 3 * row + 1, "rows_at": row, "rows_above": row - 1}[block]
            monkeypatch.setattr(models, "_BLOCK_DOUBLES", size)
        rows = 7 if reps is None else reps
        values = np.cumsum(np.random.default_rng(row + rows).standard_normal((rows, row)), axis=1)
        w = mean_weights(measure, m)
        expect = np.zeros((rows, n))
        for p in range(m + 1):
            expect += w[p] * values[:, p : p + (n - 1) * m + 1 : m]
        if reps is None:
            got = np.vstack([observe_values(values[r : r + 1], measure, n, m) for r in range(rows)])
        else:
            got = observe_values(values, measure, n, m)
        assert np.array_equal(got, expect)

    def test_covariance_matches_exact_oracle(self):
        n, m, reps, theta = 8, 32, 10_000, 1.3
        values, _ = simulate_values(MULT, theta, 0.0, n, m, seed=42, reps=reps)
        obs = observe_values(values, LEB, n, m)
        sample = np.cov(obs, rowvar=False)
        target = theta**2 * dense_cov(build_base_cov(n, LEB))
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / reps
        )
        assert np.all(np.abs(sample - target) < 3.5 * se)


def augmented_blocks(values, n, m, measure, k):
    """Per-block rescaled increments of a one-row batch, full blocks then the tail."""
    obs = observe_values(values, measure, n, m)
    U, U_tail = aug_increments(obs, values[:, block_edges(n, k) * m], k)
    return list(U[0]) + ([] if U_tail is None else [U_tail[0]])


class TestAugment:
    def test_single_block_when_k_equals_n(self):
        values = one_path(MULT, 1.0, 0.0, n=8, m=4, seed=1)
        assert list(block_edges(8, 8)) == [0, 8]
        blocks = augmented_blocks(values, 8, 4, LEB, 8)
        assert len(blocks) == 1
        assert blocks[0].size == 9

    def test_k_one_gives_n_blocks_of_two(self):
        values = one_path(MULT, 1.0, 0.0, n=8, m=4, seed=1)
        assert list(block_edges(8, 1)) == list(range(9))
        blocks = augmented_blocks(values, 8, 4, LEB, 1)
        assert len(blocks) == 8
        assert all(b.size == 2 for b in blocks)

    def test_partial_final_block(self):
        values = one_path(MULT, 1.0, 0.0, n=6, m=4, seed=1)
        assert list(block_edges(6, 4)) == [0, 4, 6]
        assert [b.size for b in augmented_blocks(values, 6, 4, LEB, 4)] == [5, 3]

    def test_k_larger_than_n_rejected(self):
        values = one_path(MULT, 1.0, 0.0, n=4, m=4, seed=1)
        with pytest.raises(ValueError):
            block_edges(4, 5)
        with pytest.raises(ValueError):
            aug_increments(observe_values(values, LEB, 4, 4), values[:, [0, 16]], 5)

    @pytest.mark.parametrize("model_name,measure", [
        ("multiplicative_bm", LEB),
        ("sine_scale", WeightMeasure.atomic([(0.25, 0.5), (0.75, 0.5)])),
        ("cauchy_scale", WeightMeasure.mixture(0.5, [(0.5, 0.5)])),
    ])
    def test_telescoping_identity(self, model_name, measure):
        model = get_model(model_name)
        values = one_path(model, 1.1, 0.4, n=13, m=8, seed=21)
        edge_values = values[0, block_edges(13, 5) * 8]
        for l, inc in enumerate(augmented_blocks(values, 13, 8, measure, 5)):
            lhs = np.sum(inc)
            rhs = np.sqrt(13) * (edge_values[l + 1] - edge_values[l])
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestGaussianCoupling:
    def test_exact_for_multiplicative(self):
        values, dW = simulate_values(MULT, 1.4, 0.0, n=32, m=16, seed=9, reps=1, increments=True)
        edges = block_edges(32, 5)
        for l, inc in enumerate(augmented_blocks(values, 32, 16, LEB, 5)):
            start, stop = int(edges[l]), int(edges[l + 1])
            tilde = coupled_increments_values(values, dW, 32, 16, stop - start, start, LEB,
                                              MULT, 1.4)
            np.testing.assert_allclose(inc, tilde[0], atol=1e-11)

    def test_conditional_covariance_structure(self):
        # Vectors coupled at a fixed anchor are Gaussian with covariance
        # a^2(anchor) K; checked entrywise by Monte Carlo.
        n, m, k, reps, theta = 64, 32, 4, 8000, 1.0
        values, dW = simulate_values(SINE, theta, 0.0, n, m, seed=31, reps=reps, cells=k,
                                     increments=True)
        tilde = coupled_increments_values(values, dW, n, m, k, 0, LEB, SINE, theta)
        a2 = SINE.a(0.0, theta) ** 2
        target = a2 * dense(augmented_block_cov(k, v_coefficients(LEB)))
        sample = np.cov(tilde, rowvar=False)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / reps)
        assert np.all(np.abs(sample - target) < 4 * se)
        assert np.var(tilde[:, 0]) == pytest.approx(a2 / 3.0, rel=0.05)

    def test_coupling_error_shrinks_with_n(self):
        k, m, reps = 4, 16, 500
        errs = []
        for n in (64, 512):
            values, dW = simulate_values(SINE, 1.0, 0.0, n, m, seed=8, reps=reps, cells=k,
                                         increments=True)
            obs = observe_values(values, LEB, k, m)
            U = np.empty((reps, k + 1))
            U[:, 0] = obs[:, 0] - values[:, 0]
            U[:, 1:k] = np.diff(obs, axis=1)
            U[:, k] = values[:, k * m] - obs[:, -1]
            U *= np.sqrt(n)
            tilde = coupled_increments_values(values, dW, n, m, k, 0, LEB, SINE, 1.0)
            errs.append(np.mean(np.max(np.abs(U - tilde), axis=1)))
        assert errs[1] < 0.6 * errs[0]
