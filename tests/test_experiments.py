import dataclasses
import hashlib
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmeans import models
from diffmeans.experiments import (
    _CHUNK_BUDGET,
    ExperimentConfig,
    _chunk_ranges,
    _estimator_chunk,
    _expansion_chunk,
    _information_chunk,
    _path_chunk_args,
    _tails_chunk,
    default_verify_configs,
    merge_reports,
    report_to_files,
    resolve_k,
    run_chi2_lemma,
    run_coupling,
    run_density_tails,
    run_estimator,
    run_expansion,
    run_experiment,
    run_information,
)
from diffmeans.simulate import block_edges

PINNED_SMALL_CSV_SHA256 = "21ac73db792cbee98ec0f59f0a13f7c55275d743d297840b228305949d6123d8"
PINNED_ORACLE_CSV_SHA256 = "f047e4cc8738f68797d07cf343e1eb87128fe02eb4e53fbeb9db57051c994552"


def pinned_oracle_configs():
    """Oracle rows: an expansion at two n and an exact-MLE estimator, non-Lebesgue measures."""
    return [
        ExperimentConfig(experiment="expansion", model="multiplicative_bm", theta0=1.3, h=1.0,
                         measure={"kind": "mixture", "lebesgue": 0.5,
                                  "atoms": [[0.25, 0.3], [0.8, 0.2]]},
                         n_list=(64, 256), k_rule="log2", replications=40, seed=7),
        ExperimentConfig(experiment="estimator", model="multiplicative_bm", theta0=1.3,
                         measure={"kind": "atomic", "atoms": [[0.5, 1.0]]}, n_list=(128,),
                         k_rule="fixed:8", replications=40, seed=7, estimators=("exact_mle",)),
    ]


class TestConfig:
    def test_resolve_k(self):
        assert resolve_k("log2", 1024) == 10
        assert resolve_k("log2", 4096) == 12
        assert resolve_k("log2", 2) == 2
        assert resolve_k("fixed:5", 100) == 5
        assert resolve_k("7", 100) == 7
        with pytest.raises(ValueError):
            resolve_k("cubic", 100)
        with pytest.raises(ValueError):
            resolve_k("fixed:200", 100)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="frobnicate")

    def test_theta_outside_interval(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="information", theta0=10.0)

    def test_local_alternative_must_stay_inside(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="expansion", theta0=2.95, h=1.0, n_list=(256,))

    @pytest.mark.parametrize("xi0", [float("nan"), float("inf")])
    def test_non_finite_xi0_rejected(self, xi0):
        with pytest.raises(ValueError, match="xi0"):
            ExperimentConfig(experiment="tails", xi0=xi0)

    def test_run_id_defaults_to_experiment(self):
        cfg = ExperimentConfig(experiment="chi2")
        assert cfg.run_id == "chi2"

    def test_default_configs_valid(self):
        configs = default_verify_configs()
        assert {c.experiment for c in configs} == {
            "expansion", "information", "coupling", "chi2", "tails", "estimator"
        }


class TestReports:
    def _small_report(self, workers=1):
        cfg = ExperimentConfig(experiment="chi2", replications=3000, seed=5)
        return run_chi2_lemma(cfg, workers=workers)

    def test_csv_shape(self):
        rep = self._small_report()
        lines = rep.to_csv_text().strip().splitlines()
        assert lines[0] == "experiment,n,k,M,stat,value,stderr,target,tol,pass"
        assert len(lines) == 1 + len(rep.rows)
        assert all(len(line.split(",")) == 10 for line in lines[1:])

    def test_pass_flags_recomputable(self):
        rep = self._small_report()
        for row in rep.rows:
            assert row.passed == row.recomputed_pass()

    def test_json_round_trip(self, tmp_path):
        rep = self._small_report()
        report_to_files(rep, tmp_path / "r.csv", tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["all_pass"] == rep.all_pass()
        assert data["config"]["experiment"] == "chi2"
        assert len(data["rows"]) == len(rep.rows)

    def test_non_finite_report_writes_nothing(self, tmp_path):
        rep = self._small_report()
        rep.rows[0] = dataclasses.replace(rep.rows[0], value=float("nan"))
        with pytest.raises(ValueError):
            report_to_files(rep, tmp_path / "r.csv", tmp_path / "r.json")
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "r.json").exists()

    def test_merge(self):
        a, b = self._small_report(), self._small_report()
        merged = merge_reports([a, b])
        assert len(merged.rows) == len(a.rows) + len(b.rows)

    def test_worker_count_does_not_change_bytes(self):
        text1 = self._small_report(workers=1).to_csv_text()
        text2 = self._small_report(workers=2).to_csv_text()
        assert text1 == text2

    def test_tolerance_override(self):
        cfg = ExperimentConfig(experiment="chi2", replications=3000, seed=5,
                               tolerances={"delta_mean": [100.0, 0.1]})
        rep = run_chi2_lemma(cfg)
        row = next(r for r in rep.rows if r.stat == "delta_mean")
        assert row.target == 100.0 and not row.passed
        assert not rep.all_pass()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_csv_bytes(self, workers):
        # Every block-tail path of the summaries: an augmented tail of one
        # mean (256 = 51*5 + 1), a means-only tail of four (256 = 42*6 + 4),
        # and tails of two means for both estimators (250 = 31*8 + 2).
        # The digest pins the bytes at numpy 2.4.6; a refactor of the block
        # summaries must leave it unchanged.
        configs = [
            ExperimentConfig(experiment="information", model="sine_scale", n_list=(256,),
                             k_rule="fixed:5", replications=40, seed=7),
            ExperimentConfig(experiment="expansion", model="sine_scale", n_list=(256,),
                             k_rule="fixed:6", replications=40, seed=7),
            ExperimentConfig(experiment="estimator", model="cauchy_scale", n_list=(250,),
                             k_rule="fixed:8", replications=40, seed=7,
                             estimators=("augmented", "means_only")),
        ]
        text = merge_reports([run_experiment(c, workers) for c in configs]).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SMALL_CSV_SHA256

    def test_pinned_oracle_csv_bytes(self):
        # The rows computed by the exact oracle (log-likelihood ratios and
        # the closed-form MLE), pinned at numpy 2.4.6 like the digest above.
        # At theta0 = 1.3 the expansion targets come from the analytic
        # information 2/theta0^2.
        text = merge_reports([run_experiment(c) for c in pinned_oracle_configs()]).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ORACLE_CSV_SHA256


class TestChunkPartition:
    """Chunk outputs do not depend on how the replications are split."""

    @settings(max_examples=40, deadline=None)
    @given(model=st.sampled_from(["multiplicative_bm", "sine_scale", "cauchy_scale"]),
           measure=st.sampled_from([{"kind": "lebesgue"}, {"kind": "atomic", "atoms": [[0.5, 1.0]]}]),
           n=st.integers(2, 24), k=st.integers(1, 24), m=st.sampled_from([2, 4]),
           reps=st.integers(1, 9), cuts=st.sets(st.integers(1, 8)),
           theta0=st.floats(0.6, 2.5), xi0=st.floats(-1.0, 1.0), h=st.floats(-0.4, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_any_split_matches_one_call(self, model, measure, n, k, m, reps, cuts, theta0, xi0, h,
                                        seed):
        # k below n leaves a partial last block unless k divides n; pieces
        # of one row are included.
        k = min(k, n)
        bounds = [0] + sorted(c for c in cuts if c < reps) + [reps]
        pieces = list(zip(bounds[:-1], bounds[1:]))
        head = (model, measure, theta0, xi0, n, m)
        estimators = ("augmented", "means_only", "exact_mle") if k >= 2 else ("augmented",)
        chunk_fns = [
            (_information_chunk, lambda r0, r1: (*head, k, seed, (2, 0), r0, r1)),
            (_estimator_chunk, lambda r0, r1: (*head, k, seed, (6, 0), r0, r1, estimators)),
            (_tails_chunk, lambda r0, r1: (*head, seed, (5, 0), r0, r1)),
        ]
        if k >= 2:
            chunk_fns.append((_expansion_chunk, lambda r0, r1: (*head, k, seed, (1, 0), r0, r1, h)))
        for fn, args in chunk_fns:
            whole = fn(args(0, reps))
            parts = [fn(args(r0, r1)) for r0, r1 in pieces]
            assert set(whole) == set(parts[0])
            for key, value in whole.items():
                np.testing.assert_array_equal(np.concatenate([p[key] for p in parts]), value,
                                              err_msg=f"{fn.__name__} {key}")

    def test_ranges_take_no_worker_count(self):
        for fn in (_chunk_ranges, _path_chunk_args):
            assert "workers" not in inspect.signature(fn).parameters

    def test_chi2_ranges_unchanged(self):
        # chi2 keys one stream by each chunk's start, so its eight ranges
        # are part of its output.
        assert _chunk_ranges(100_000, 2 * 6**2) == [(r0, r0 + 12_500) for r0 in range(0, 100_000, 12_500)]

    def test_default_suite_partition(self):
        # Two chunks per grid for the full-grid runs, unless the memory
        # budget caps them (n = 1024 and 4096 at 2000 replications, n = 4096
        # at 500); eight per grid for coupling, whose BLAS products round
        # differently with the row count.
        counts = {}
        for cfg in default_verify_configs():
            if cfg.experiment in ("chi2", "tails"):
                continue
            for i, n in enumerate(cfg.n_list):
                args = _path_chunk_args(cfg, n, resolve_k(cfg.k_rule, n), i)
                starts, stops = [a[9] for a in args], [a[10] for a in args]
                assert starts == [0] + stops[:-1] and stops[-1] == cfg.replications
                assert max(r1 - r0 for r0, r1 in zip(starts, stops)) * (n * cfg.m + 1) <= _CHUNK_BUDGET
                counts.setdefault(cfg.run_id, []).append(len(args))
        assert counts == {
            "expansion": [2, 4, 16],
            "information_k1": [2], "information_k10": [2], "information_log2": [4],
            "coupling": [8] * 7,
            "estimator_augmented": [2], "estimator_means_only": [2], "estimator_mixed_normal": [2],
        }


class TestChunkOutputs:
    """Full-grid chunks send back per-replication values, never paths or means."""

    @staticmethod
    def _outputs(model, xi0):
        # Rows 3..8 of n = 32 means under a two-atom measure.
        head = (model, {"kind": "atomic", "atoms": [[0.25, 0.5], [0.75, 0.5]]}, 1.2, xi0, 32, 4, 4, 11)
        estimators = ("augmented", "means_only", "exact_mle")
        return {
            "expansion": _expansion_chunk((*head, (1, 0), 3, 8, 1.0)),
            "information": _information_chunk((*head, (2, 0), 3, 8)),
            "estimator": _estimator_chunk((*head, (6, 0), 3, 8, estimators)),
        }

    @pytest.mark.parametrize("model", ["multiplicative_bm", "sine_scale", "cauchy_scale"])
    def test_only_one_value_per_replication(self, model):
        outputs = self._outputs(model, 0.5)
        for name, out in outputs.items():
            for key, value in out.items():
                assert value.shape == (5,), f"{name} {key}"
        oracle = model == "multiplicative_bm"
        assert ("log_z" in outputs["expansion"]) == oracle
        assert ("theta_mle" in outputs["estimator"]) == oracle
        # Scale families take the analytic information; only cauchy_scale
        # integrates it along each path.
        assert ("pinfo" in outputs["information"]) == (model == "cauchy_scale")

    def test_oracle_is_free_of_the_start(self):
        # The oracle is exact for paths started at 0; the chunk shifts the
        # means by xi0 first, so the same increments give the same values.
        at_zero = self._outputs("multiplicative_bm", 0.0)
        at_one = self._outputs("multiplicative_bm", 1.0)
        np.testing.assert_allclose(at_one["expansion"]["log_z"], at_zero["expansion"]["log_z"],
                                   rtol=1e-9)
        np.testing.assert_allclose(at_one["estimator"]["theta_mle"],
                                   at_zero["estimator"]["theta_mle"], rtol=1e-9)


class TestChunkMemory:
    """A full-grid chunk frees its path once it has taken what it reads of it.

    The traced peak may then be the path, its means and its block-edge
    values, all computed from the shapes, plus one row block of doubles:
    the row-blocked sweeps (observe_values, path_information,
    quadratic_forms) each hold about one block of temporaries.  Kept
    alive, the path would also carry the summaries' and the oracle's
    R x n temporaries, several times that margin here.
    """

    N, M_SUB, K, ROWS = 1024, 2, 10, 200
    MARGIN = 8 * models._BLOCK_DOUBLES

    @pytest.mark.parametrize("model", ["multiplicative_bm", "sine_scale"])
    @pytest.mark.parametrize("worker", ["expansion", "information", "estimator"])
    def test_peak_is_path_plus_means(self, model, worker):
        n, m, k, R = self.N, self.M_SUB, self.K, self.ROWS
        head = (model, {"kind": "atomic", "atoms": [[0.5, 1.0]]}, 1.0, 0.0, n, m, k, 7)
        fn, args = {
            "expansion": (_expansion_chunk, (*head, (1, 0), 0, R, 1.0)),
            "information": (_information_chunk, (*head, (2, 0), 0, R)),
            "estimator": (_estimator_chunk,
                          (*head, (6, 0), 0, R, ("augmented", "means_only", "exact_mle"))),
        }[worker]
        fn(args)  # caches and lazy imports stay out of the trace
        tracemalloc.start()
        try:
            fn(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path_bytes = 8 * R * (n * m + 1)
        means_bytes = 8 * R * n
        edge_bytes = 0 if worker == "expansion" else 8 * R * block_edges(n, k).size
        assert peak <= path_bytes + means_bytes + edge_bytes + self.MARGIN


class TestExpansion:
    def test_zero_alternative_gives_zero_ratio(self):
        cfg = ExperimentConfig(experiment="expansion", theta0=1.0, h=0.0,
                               n_list=(64,), replications=50, seed=3)
        rep = run_expansion(cfg)
        mean_row = next(r for r in rep.rows if r.stat == "mean_log_lr")
        var_row = next(r for r in rep.rows if r.stat == "var_log_lr")
        assert mean_row.value == 0.0 and mean_row.passed
        assert var_row.value == 0.0 and var_row.passed
        assert not any(r.stat == "residual_trend_violation" for r in rep.rows)

    def test_non_gaussian_model_reports_no_oracle_rows(self):
        cfg = ExperimentConfig(experiment="expansion", model="sine_scale",
                               theta0=1.0, h=1.0, n_list=(128,), replications=60, seed=3)
        rep = run_expansion(cfg)
        stats = {r.stat for r in rep.rows}
        assert "mean_log_lr" not in stats and "var_log_lr" not in stats
        assert {"mean_score_stat", "mean_info_stat", "var_score_stat"} <= stats

    def test_small_scale_oracle_rows(self):
        cfg = ExperimentConfig(experiment="expansion", theta0=1.0, h=1.0,
                               n_list=(256, 1024), replications=250, seed=7)
        rep = run_expansion(cfg, workers=2)
        by = {(r.stat, r.n): r for r in rep.rows}
        mean_row = by[("mean_log_lr", 1024)]
        # At this replication count allow Monte Carlo slack on top of the band.
        assert abs(mean_row.value - mean_row.target) < mean_row.tol + 3 * mean_row.stderr
        var_row = by[("var_log_lr", 1024)]
        assert abs(var_row.value - var_row.target) < var_row.tol + 3 * var_row.stderr
        assert by[("residual_trend_violation", 0)].value <= 2.0


class TestInformation:
    def test_fixed_k_and_log2_targets(self):
        cfg = ExperimentConfig(experiment="information", model="sine_scale",
                               n_list=(256,), k_rule="fixed:1", replications=150, seed=7)
        rep = run_information(cfg)
        row = next(r for r in rep.rows if r.stat == "mean_info_stat")
        assert row.target == pytest.approx(4.0)
        assert row.passed
        # log2 gives k = 8 at n = 256: the finite-k factor 9/8 still applies.
        cfg = ExperimentConfig(experiment="information", model="sine_scale",
                               n_list=(256,), k_rule="log2", replications=150, seed=7)
        rows = {r.stat: r for r in run_information(cfg).rows}
        for stat in ("mean_info_stat", "var_score_stat"):
            assert rows[stat].k == 8
            assert rows[stat].target == pytest.approx(9 / 8 * 2.0)
        assert rows["mean_info_stat"].passed

    def test_atomic_measure_same_limit(self):
        # The block-size factor of the information limit is measure-free;
        # on-grid atoms make the discrete weights exact at m=32.
        cfg = ExperimentConfig(
            experiment="information", model="multiplicative_bm",
            measure={"kind": "atomic", "atoms": [[0.25, 0.5], [0.75, 0.5]]},
            n_list=(256,), k_rule="fixed:4", replications=150, seed=7,
        )
        rep = run_information(cfg)
        row = next(r for r in rep.rows if r.stat == "mean_info_stat")
        assert row.target == pytest.approx(2.5)
        assert row.value == pytest.approx(2.5, rel=0.05)

    def test_substep_doubling_stays_within_tolerance(self):
        # Refinement gate: doubling m must not move the statistic out of band.
        values = {}
        for m in (32, 64):
            cfg = ExperimentConfig(experiment="information", model="sine_scale",
                                   n_list=(256,), k_rule="fixed:10",
                                   replications=150, seed=7, m=m)
            rep = run_information(cfg)
            row = next(r for r in rep.rows if r.stat == "mean_info_stat")
            assert row.passed
            values[m] = row.value
        assert abs(values[32] - values[64]) < 0.1


class TestCoupling:
    def test_multiplicative_error_is_zero(self):
        cfg = ExperimentConfig(experiment="coupling", model="multiplicative_bm",
                               n_list=(64, 128), k_rule="fixed:4", replications=40, seed=7)
        rep = run_coupling(cfg)
        row = next(r for r in rep.rows if r.stat == "coupling_err_max")
        assert row.value <= 1e-12 and row.passed

    def test_sine_rate(self):
        cfg = ExperimentConfig(experiment="coupling", model="sine_scale",
                               n_list=(64, 256, 1024), k_rule="fixed:4",
                               replications=150, seed=7)
        rep = run_coupling(cfg, workers=2)
        row = next(r for r in rep.rows if r.stat == "coupling_rate_slope")
        assert -0.75 < row.value < -0.3


class TestChi2:
    def test_moments_and_nonnegativity(self):
        cfg = ExperimentConfig(experiment="chi2", replications=20000, seed=7, cov_dim=5)
        rep = run_chi2_lemma(cfg)
        by = {r.stat: r for r in rep.rows}
        assert abs(by["delta_mean"].value - 2.0) < 0.1
        assert abs(by["delta_var"].value - 4.0) < 0.4
        assert by["delta_min"].value >= -1e-9

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            run_chi2_lemma(ExperimentConfig(experiment="chi2", cov_dim=2, replications=10))

    def test_delta_equals_complementary_orthonormal_coordinates(self):
        # Independent route: orthonormalize with the interior coordinates
        # first; the two full/interior quadratic forms then differ exactly by
        # the squares of the two remaining coordinates (standard normal,
        # hence a chi^2(2) draw).
        import numpy as np

        rng = np.random.default_rng(404)
        for _ in range(200):
            dim = int(rng.integers(3, 9))
            A = rng.standard_normal((dim, dim))
            C = A @ A.T + 0.5 * np.eye(dim)
            G = np.linalg.cholesky(C) @ rng.standard_normal(dim)
            q_full = G @ np.linalg.solve(C, G)
            q_int = G[1:-1] @ np.linalg.solve(C[1:-1, 1:-1], G[1:-1])
            perm = np.r_[np.arange(1, dim - 1), 0, dim - 1]
            L = np.linalg.cholesky(C[np.ix_(perm, perm)])
            coords = np.linalg.solve(L, G[perm])
            assert q_full - q_int == pytest.approx(
                coords[-2] ** 2 + coords[-1] ** 2, rel=1e-9, abs=1e-9
            )
            assert q_int == pytest.approx(np.sum(coords[:-2] ** 2), rel=1e-9, abs=1e-9)


class TestTails:
    def test_exceedance_at_zero_is_one(self):
        cfg = ExperimentConfig(experiment="tails", model="sine_scale",
                               n_list=(64,), replications=2000, seed=7)
        rep = run_density_tails(cfg)
        by = {r.stat: r for r in rep.rows}
        assert by["exceedance_at_zero"].value == 1.0
        assert by["exceedance_fit_slope"].value < 0.0


class TestEstimator:
    def test_rows_and_bias(self):
        cfg = ExperimentConfig(experiment="estimator", model="multiplicative_bm",
                               n_list=(256,), k_rule="fixed:8", replications=80, seed=7,
                               estimators=("augmented", "means_only", "exact_mle"))
        rep = run_estimator(cfg, workers=2)
        stats = {r.stat for r in rep.rows}
        assert "var_sqrtn_err_augmented" in stats
        assert "var_sqrtn_err_means_only" in stats
        assert "var_sqrtn_err_exact_mle" in stats
        for name in ("bias_augmented", "bias_means_only"):
            row = next(r for r in rep.rows if r.stat == name)
            assert abs(row.value) < 0.05

    def test_dispatch_table(self):
        cfg = ExperimentConfig(experiment="chi2", replications=2000, seed=1)
        rep = run_experiment(cfg)
        assert rep.rows

    def test_sine_scale_hits_fixed_k_information_bound(self):
        cfg = ExperimentConfig(experiment="estimator", model="sine_scale",
                               theta0=1.0, n_list=(1024,), k_rule="fixed:10",
                               replications=300, seed=7, estimators=("augmented",))
        rep = run_estimator(cfg, workers=2)
        row = next(r for r in rep.rows if r.stat == "var_sqrtn_err_augmented")
        assert row.target == pytest.approx(1.0 / 2.2)
        assert row.value == pytest.approx(1.0 / 2.2, rel=0.2)

    def test_mixed_normal_standardization(self):
        # Path-dependent sensitivity: the per-path information standardizes
        # the estimation error back to a nearly normal shape.
        cfg = next(c for c in default_verify_configs() if c.run_id == "estimator_mixed_normal")
        rep = run_estimator(cfg, workers=2)
        by = {r.stat: r for r in rep.rows}
        assert abs(by["std_skewness_augmented"].value) < 0.15
        assert abs(by["std_kurtosis_augmented"].value) < 0.3
        var_row = by["var_sqrtn_err_augmented"]
        assert var_row.value == pytest.approx(var_row.target, rel=0.2)
