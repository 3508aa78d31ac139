"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion uses its
stated replication budget and tolerance; all are deterministic given the
default seed.
"""

import os

import numpy as np
import pytest

from diffmeans.experiments import (
    ExperimentConfig,
    default_verify_configs,
    run_chi2_lemma,
    run_coupling,
    run_experiment,
)
from diffmeans.measures import WeightMeasure, v_coefficients
from diffmeans.models import get_model
from diffmeans.quasi_score import TriKMatrix, augmented_block_cov, quadratic_forms
from diffmeans.simulate import observe_values, simulate_values

from conftest import random_measure
from reference import dense, solve_tridiagonal, v_coefficients_quadrature

WORKERS = min(4, os.cpu_count() or 1)
DEFAULTS = {c.run_id: c for c in default_verify_configs()}
_reports = {}


def _run(run_id):
    if run_id not in _reports:
        _reports[run_id] = run_experiment(DEFAULTS[run_id], workers=WORKERS)
    return _reports[run_id]


def _verdict(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_coefficient_oracle():
    rng = np.random.default_rng(101)
    measures = [WeightMeasure.lebesgue()]
    measures += [random_measure(rng, "atomic") for _ in range(20)]
    measures += [random_measure(rng, "mixture") for _ in range(20)]
    worst_gap, worst_sum = 0.0, 0.0
    for measure in measures:
        v = v_coefficients(measure)
        q = v_coefficients_quadrature(measure, points=10_000)
        worst_gap = max(worst_gap, max(abs(a - b) for a, b in zip(v.as_tuple(), q.as_tuple())))
        worst_sum = max(worst_sum, abs(v.v1 + v.v2 + 2 * v.c - 1.0))
    ok = worst_gap <= 1e-8 and worst_sum <= 1e-12
    _verdict(1, "coefficient-oracle", ok,
             f"max closed-vs-quadrature gap {worst_gap:.2e}, max mass defect {worst_sum:.2e}")


def test_criterion_02_tridiagonal_oracle():
    rng = np.random.default_rng(202)
    worst_resid, worst_gap = 0.0, 0.0
    for _ in range(200):
        size = int(rng.integers(2, 65))
        c = rng.uniform(-1.0, 1.0)
        diag = 2.0 * abs(c) + rng.uniform(0.05, 2.0, size=size)
        K = TriKMatrix(size=size, diag=diag, offdiag=c)
        rhs = rng.standard_normal(size)
        x = solve_tridiagonal(K, rhs)
        dense_K = dense(K)
        worst_resid = max(
            worst_resid,
            np.max(np.abs(dense_K @ x - rhs)) / max(np.max(np.abs(rhs)), 1e-300),
        )
        ref = np.linalg.solve(dense_K, rhs)
        worst_gap = max(worst_gap, np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300))
    ok = worst_resid <= 1e-10 and worst_gap <= 1e-10
    _verdict(2, "tridiagonal-oracle", ok,
             f"max residual ratio {worst_resid:.2e}, max gap to dense solve {worst_gap:.2e}")


def test_criterion_03_quasi_form_gaussianity():
    # 10^4 blocks of k=10 means from the scaled Brownian model: the
    # normalized quadratic form is exactly chi^2(11) up to discretization.
    model = get_model("multiplicative_bm")
    measure = WeightMeasure.lebesgue()
    coeffs = v_coefficients(measure)
    n, m, k, paths = 100, 32, 10, 1000
    K = augmented_block_cov(k, coeffs)
    forms = []
    for r0 in range(0, paths, 250):
        values, _ = simulate_values(model, 1.0, 0.0, n, m, seed=303, reps=250, rep_offset=r0)
        obs = observe_values(values, measure, n, m)
        R = values.shape[0]
        L = n // k
        anchors = values[:, np.arange(L + 1) * k * m]
        means = obs.reshape(R, L, k)
        U = np.empty((R, L, k + 1))
        U[:, :, 0] = means[:, :, 0] - anchors[:, :L]
        U[:, :, 1:k] = np.diff(means, axis=2)
        U[:, :, k] = anchors[:, 1:] - means[:, :, -1]
        U *= np.sqrt(n)
        forms.append(quadratic_forms(K, U.reshape(R * L, k + 1)))
    forms = np.concatenate(forms)
    gap = abs(forms.mean() - (k + 1))
    bound = 3.0 * np.sqrt(2.0 * (k + 1) / forms.size)
    ok = forms.size == 10_000 and gap <= bound
    _verdict(3, "quasi-form-gaussianity", ok,
             f"mean {forms.mean():.4f} vs 11, gap {gap:.4f} <= {bound:.4f}")


def test_criterion_04_information_limits():
    checks = [
        ("information_k1", (3.6, 4.4)),
        ("information_k10", (1.98, 2.42)),
        ("information_log2", (1.8, 2.2)),
    ]
    details, ok = [], True
    for run_id, (lo, hi) in checks:
        rep = _run(run_id)
        row = next(r for r in rep.rows if r.stat == "mean_info_stat")
        ok = ok and lo <= row.value <= hi and row.passed
        details.append(f"{run_id}: {row.value:.3f} in [{lo},{hi}]")
    _verdict(4, "information-limits", ok, "; ".join(details))


def test_criterion_05_lamn_expansion():
    rep = _run("expansion")
    by = {(r.stat, r.n): r for r in rep.rows}
    mean_row = by[("mean_log_lr", 1024)]
    var_row = by[("var_log_lr", 1024)]
    trend = by[("residual_trend_violation", 0)]
    residuals = [by[("residual_abs_mean", n)].value for n in (256, 1024, 4096)]
    ok = (
        -1.15 <= mean_row.value <= -0.85
        and 1.7 <= var_row.value <= 2.3
        and trend.value <= 2.0
    )
    _verdict(5, "lamn-expansion", ok,
             f"mean {mean_row.value:.3f}, var {var_row.value:.3f}, "
             f"residuals {residuals[0]:.3f}>{residuals[1]:.3f}>{residuals[2]:.3f}")


def test_criterion_06_coupling_rate():
    rep = _run("coupling")
    row = next(r for r in rep.rows if r.stat == "coupling_rate_slope")
    ok = -0.65 <= row.value <= -0.35
    _verdict(6, "coupling-rate", ok, f"slope {row.value:.3f} in [-0.65,-0.35]")


def test_criterion_07_chi2_lemma():
    rep = _run("chi2")
    by = {r.stat: r for r in rep.rows}
    ok = (
        1.9 <= by["delta_mean"].value <= 2.1
        and 3.6 <= by["delta_var"].value <= 4.4
        and by["delta_min"].value >= -1e-9
    )
    _verdict(7, "chi2-lemma", ok,
             f"mean {by['delta_mean'].value:.4f}, var {by['delta_var'].value:.4f}, "
             f"min {by['delta_min'].value:.2e}")


def test_criterion_08_estimator_variance():
    rep_aug = _run("estimator_augmented")
    rep_means = _run("estimator_means_only")
    by_aug = {r.stat: r for r in rep_aug.rows}
    by_means = {r.stat: r for r in rep_means.rows}
    v_aug = by_aug["var_sqrtn_err_augmented"].value
    v_mle = by_aug["var_sqrtn_err_exact_mle"].value
    v_means = by_means["var_sqrtn_err_means_only"].value
    ok = 0.36 <= v_aug <= 0.55 and 0.375 <= v_means <= 0.625 and 0.4 <= v_mle <= 0.6
    _verdict(8, "estimator-variance", ok,
             f"augmented {v_aug:.3f} in [0.36,0.55], means-only {v_means:.3f} in "
             f"[0.375,0.625], exact mle {v_mle:.3f} in [0.4,0.6]")


def test_criterion_09_density_tails():
    rep = _run("tails")
    rep_ctrl = _run("tails_control")
    r2 = next(r for r in rep.rows if r.stat == "exceedance_fit_r2")
    slope = next(r for r in rep.rows if r.stat == "exceedance_fit_slope")
    r2c = next(r for r in rep_ctrl.rows if r.stat == "exceedance_fit_r2")
    slope_c = next(r for r in rep_ctrl.rows if r.stat == "exceedance_fit_slope")
    ok = r2.value > 0.95 and slope.value < 0 and r2c.value > 0.99 and slope_c.value < 0
    _verdict(9, "density-tails", ok,
             f"sine R2 {r2.value:.4f} slope {slope.value:.3f}; "
             f"control R2 {r2c.value:.4f} slope {slope_c.value:.3f}")


def test_criterion_10_determinism():
    cfg_chi = ExperimentConfig(experiment="chi2", replications=20_000, seed=7)
    cfg_cpl = ExperimentConfig(experiment="coupling", model="sine_scale",
                               n_list=(64, 128, 256), k_rule="fixed:4",
                               replications=100, seed=7)
    ok = True
    for cfg, runner in ((cfg_chi, run_chi2_lemma), (cfg_cpl, run_coupling)):
        texts = {w: runner(cfg, workers=w).to_csv_text() for w in (1, 3)}
        ok = ok and texts[1] == texts[3]
    _verdict(10, "determinism", ok, "CSV bytes identical for workers in {1,3}")
