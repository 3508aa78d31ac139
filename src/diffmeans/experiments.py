"""Monte Carlo experiments verifying the asymptotic behaviour of the quasi-score.

Each experiment reproduces one checkable claim at desk scale and emits an
ExperimentReport: per-statistic rows with declared targets and tolerances,
serializable as CSV plus a JSON summary.  Experiments are bit-reproducible
given (config, seed) regardless of worker count: every replication (or
fixed-size chunk of cheap replications) owns a counter-based stream, and
aggregation is order-independent.

Replications run in chunks whose ranges depend on the workload alone,
never on the worker count.  A chunk holds one path array, capped by
_CHUNK_BUDGET, and sends back a few values per replication, never a path
or its means: the exact oracle runs inside the chunk.  A full-grid chunk
holds its path only until it has taken the means, the block-edge values
and the path information; the summaries, the solver and the oracle run
on those alone, so the chunk's peak is its path plus its means.

The full-grid runs (expansion, information, estimator) split each grid
into two chunks unless the budget asks for more, so the Euler loop of a
state-dependent model steps many rows at once; their per-row results do
not depend on the split.  The other runs keep eight chunks per grid,
because for them the partition is part of the output: chi2 keys one
stream by each chunk's start, and coupling's BLAS products round
differently with the row count.  tails keeps its eight cheap chunks as
well.

  expansion    log-likelihood-ratio expansion against the exact Gaussian oracle
  information  mean observed information / variance of the score statistic
  coupling     decay rate of the frozen-coefficient Gaussian coupling error
  chi2         the nested-quadratic-form chi^2(2) identity on random covariances
  tails        Gaussian-type exceedance decay of one-cell (mean, endpoint) pairs
  estimator    dispersion and normality of the quasi-likelihood estimators
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimate import solve_rows
from .exact_oracle import build_base_cov, exact_llr, exact_mle
from .measures import measure_from_spec, v_coefficients
from .models import get_model, path_information
from .quasi_score import aug_summaries, info_terms, obs_summaries, score_terms
from .simulate import block_edges, coupled_increments_values, observe_values, rep_rng, simulate_values

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "StatRow",
    "resolve_k",
    "run_expansion",
    "run_information",
    "run_coupling",
    "run_chi2_lemma",
    "run_density_tails",
    "run_estimator",
    "EXPERIMENTS",
    "default_verify_configs",
]

DEFAULT_SEED = 7

_STREAM_TAG = {
    "expansion": 1,
    "information": 2,
    "coupling": 3,
    "chi2": 4,
    "tails": 5,
    "estimator": 6,
}

# Memory budget of a chunk's one path array, rows x (cells*m + 1), in
# doubles (128 MiB).  A full-grid chunk frees the path once its means are
# taken, so its peak is the path plus its means (rows x n).
_CHUNK_BUDGET = 1 << 24

# Chunks per grid (see the module docstring).
_FULL_GRID_PIECES = 2
_PIECES = 8


def resolve_k(rule: str, n: int) -> int:
    """Block length for one n: "fixed:<int>" (or a bare int) or "log2"."""
    rule = str(rule)
    if rule == "log2":
        k = max(2, math.ceil(math.log2(n)))
    elif rule.startswith("fixed:"):
        k = int(rule.split(":", 1)[1])
    else:
        try:
            k = int(rule)
        except ValueError:
            raise ValueError(f"unknown k rule {rule!r}") from None
    if not 1 <= k <= n:
        raise ValueError(f"k rule {rule!r} gives k={k} outside [1, n={n}]")
    return k


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: model, measure, sample sizes, replication budget."""

    experiment: str
    run_id: str = ""
    model: str = "multiplicative_bm"
    measure: dict = field(default_factory=lambda: {"kind": "lebesgue"})
    theta0: float = 1.0
    h: float = 1.0
    n_list: tuple[int, ...] = (1024,)
    k_rule: str = "log2"
    m: int = 32
    replications: int = 500
    seed: int = DEFAULT_SEED
    xi0: float = 0.0
    estimators: tuple[str, ...] = ("augmented", "means_only", "exact_mle")
    cov_dim: int = 6
    ridge: float = 0.5
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}")
        if not self.run_id:
            object.__setattr__(self, "run_id", self.experiment)
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "measure", dict(self.measure))
        model = get_model(self.model)
        measure_from_spec(self.measure)
        model.check_theta(self.theta0)
        if not math.isfinite(self.xi0):
            raise ValueError(f"xi0={self.xi0} is not a finite number")
        if self.m < 2:
            raise ValueError("need m >= 2 substeps")
        if self.replications < 2:
            raise ValueError("need at least 2 replications")
        for n in self.n_list:
            if n < 2:
                raise ValueError("need n >= 2")
            resolve_k(self.k_rule, n)
            if self.experiment == "expansion":
                shifted = self.theta0 + self.h / math.sqrt(n)
                lo, hi = model.theta_interval
                if not lo <= shifted <= hi:
                    raise ValueError(
                        f"theta0 + h/sqrt(n) = {shifted} leaves the parameter interval at n={n}"
                    )


@dataclass(frozen=True)
class StatRow:
    experiment: str
    n: int
    k: int
    M: int
    stat: str
    value: float
    stderr: float | None
    target: float
    tol: float
    passed: bool

    def recomputed_pass(self) -> bool:
        return self.target - self.tol <= self.value <= self.target + self.tol


@dataclass
class ExperimentReport:
    rows: list[StatRow]
    config: dict
    seed: int
    runtime_s: float

    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv_text(self) -> str:
        lines = ["experiment,n,k,M,stat,value,stderr,target,tol,pass"]
        for r in self.rows:
            se = "" if r.stderr is None else repr(float(r.stderr))
            lines.append(
                f"{r.experiment},{r.n},{r.k},{r.M},{r.stat},{float(r.value)!r},{se},"
                f"{float(r.target)!r},{float(r.tol)!r},{int(r.passed)}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "runtime_s": self.runtime_s,
            "all_pass": self.all_pass(),
            "rows": [asdict(r) for r in self.rows],
        }


def merge_reports(reports: list[ExperimentReport]) -> ExperimentReport:
    rows = [r for rep in reports for r in rep.rows]
    return ExperimentReport(
        rows=rows,
        config={"runs": [rep.config for rep in reports]},
        seed=reports[0].seed if reports else DEFAULT_SEED,
        runtime_s=sum(rep.runtime_s for rep in reports),
    )


# ---------------------------------------------------------------------------
# worker plumbing


def _chunk_ranges(total: int, per_item_doubles: int, pieces: int = _PIECES) -> list[tuple[int, int]]:
    # Chunk size depends only on the workload, never on the worker count.
    size = max(1, min(_CHUNK_BUDGET // max(1, per_item_doubles), math.ceil(total / pieces)))
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def _map_chunks(fn, args_list, workers: int):
    if workers > 1 and len(args_list) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as ex:
            return list(ex.map(fn, args_list))
    return [fn(a) for a in args_list]


def _gather(results: list[dict], key: str) -> np.ndarray:
    return np.concatenate([res[key] for res in results])


# ---------------------------------------------------------------------------
# batched statistics (one row per replication)


def _score_info_arrays(anchors, sizes, q, theta0, model, n):
    N = np.sum(score_terms(theta0, theta0, model, anchors, sizes, q), axis=1) / math.sqrt(n)
    I = np.sum(info_terms(theta0, theta0, model, anchors, q), axis=1) / n
    return N, I


# ---------------------------------------------------------------------------
# chunk workers (top-level for pickling)


def _expansion_chunk(args):
    (model_name, measure_spec, theta0, xi0, n, m, k, seed, stream, r0, r1, h) = args
    model = get_model(model_name)
    measure = measure_from_spec(measure_spec)
    coeffs = v_coefficients(measure)
    values, _ = simulate_values(model, theta0, xi0, n, m, seed, reps=r1 - r0,
                                stream=stream, rep_offset=r0)
    obs = observe_values(values, measure, n, m)
    out = {}
    if not model.scale_family:
        out["pinfo"] = path_information(model, values, theta0)
    # The path's last read: the summaries and the oracle take only its means.
    del values
    out["N"], out["I"] = _score_info_arrays(*obs_summaries(obs, xi0, k, coeffs), theta0, model, n)
    if model.scaled_brownian:
        # The oracle is exact for X_0 = 0.  mu has mass 1, so the means of
        # xi0 + theta B are xi0 plus theta times the means of B.  Shifted in
        # place, as obs has no later use and a copy would raise the peak.
        obs -= xi0
        out["log_z"] = exact_llr(build_base_cov(n, measure), obs, theta0, theta0 + h / math.sqrt(n))
    return out


def _information_chunk(args):
    (model_name, measure_spec, theta0, xi0, n, m, k, seed, stream, r0, r1) = args
    model = get_model(model_name)
    measure = measure_from_spec(measure_spec)
    coeffs = v_coefficients(measure)
    values, _ = simulate_values(model, theta0, xi0, n, m, seed, reps=r1 - r0,
                                stream=stream, rep_offset=r0)
    obs = observe_values(values, measure, n, m)
    edge_values = values[:, block_edges(n, k) * m]
    out = {}
    if not model.scale_family:
        out["pinfo"] = path_information(model, values, theta0)
    # The path's last read (see _expansion_chunk).
    del values
    out["N"], out["I"] = _score_info_arrays(*aug_summaries(obs, edge_values, k, coeffs),
                                            theta0, model, n)
    return out


def _coupling_chunk(args):
    (model_name, measure_spec, theta0, xi0, n, m, k, seed, stream, r0, r1) = args
    model = get_model(model_name)
    measure = measure_from_spec(measure_spec)
    values, dW = simulate_values(model, theta0, xi0, n, m, seed, reps=r1 - r0,
                                 stream=stream, rep_offset=r0, cells=k, increments=True)
    obs = observe_values(values, measure, k, m)
    root_n = math.sqrt(n)
    R = obs.shape[0]
    U = np.empty((R, k + 1))
    U[:, 0] = root_n * (obs[:, 0] - values[:, 0])
    if k > 1:
        U[:, 1:k] = root_n * np.diff(obs, axis=1)
    U[:, k] = root_n * (values[:, k * m] - obs[:, -1])
    U_gauss = coupled_increments_values(values, dW, n, m, k, 0, measure, model, theta0)
    return {"err": np.max(np.abs(U - U_gauss), axis=1)}


def _chi2_chunk(args):
    (dim, ridge, seed, stream, r0, r1) = args
    rng = rep_rng(seed, *stream, r0)
    R = r1 - r0
    A = rng.standard_normal((R, dim, dim))
    C = A @ np.swapaxes(A, 1, 2) + ridge * np.eye(dim)
    z = rng.standard_normal((R, dim, 1))
    G = (np.linalg.cholesky(C) @ z)[:, :, 0]
    q_full = np.einsum("ri,ri->r", G, np.linalg.solve(C, G[:, :, None])[:, :, 0])
    C_int = C[:, 1 : dim - 1, 1 : dim - 1]
    G_int = G[:, 1 : dim - 1]
    q_int = np.einsum("ri,ri->r", G_int, np.linalg.solve(C_int, G_int[:, :, None])[:, :, 0])
    return {"delta": q_full - q_int}


def _tails_chunk(args):
    (model_name, measure_spec, theta0, xi0, n, m, seed, stream, r0, r1) = args
    model = get_model(model_name)
    measure = measure_from_spec(measure_spec)
    values, _ = simulate_values(model, theta0, xi0, n, m, seed, reps=r1 - r0,
                                stream=stream, rep_offset=r0, cells=1)
    obs = observe_values(values, measure, 1, m)
    root_n = math.sqrt(n)
    return {
        "u": root_n * (obs[:, 0] - xi0),
        "v": root_n * (values[:, m] - xi0),
    }


def _estimator_chunk(args):
    (model_name, measure_spec, theta0, xi0, n, m, k, seed, stream, r0, r1, estimators) = args
    model = get_model(model_name)
    measure = measure_from_spec(measure_spec)
    coeffs = v_coefficients(measure)
    values, _ = simulate_values(model, theta0, xi0, n, m, seed, reps=r1 - r0,
                                stream=stream, rep_offset=r0)
    obs = observe_values(values, measure, n, m)
    edge_values = values[:, block_edges(n, k) * m]
    # The path's last read (see _expansion_chunk).
    del values
    out = {}
    if "augmented" in estimators:
        res = solve_rows(model, *aug_summaries(obs, edge_values, k, coeffs), n)
        out["theta_aug"], out["info_aug"] = res.theta_hat, res.info_at_hat
    if "means_only" in estimators:
        res = solve_rows(model, *obs_summaries(obs, xi0, k, coeffs), n)
        out["theta_obs"], out["info_obs"] = res.theta_hat, res.info_at_hat
    if "exact_mle" in estimators and model.scaled_brownian:
        # The oracle's means start at 0 (see _expansion_chunk).
        obs -= xi0
        out["theta_mle"] = exact_mle(build_base_cov(n, measure), obs)
    return out


# ---------------------------------------------------------------------------
# summary statistics


def _mean_se(x):
    x = np.asarray(x, dtype=float)
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


def _var_se(x):
    """Sample variance and its moment-based standard error."""
    x = np.asarray(x, dtype=float)
    v = float(np.var(x, ddof=1))
    m4 = float(np.mean((x - x.mean()) ** 4))
    se = math.sqrt(max(m4 - v * v, 0.0) / x.size)
    return v, se


def _skew_kurt(x):
    x = np.asarray(x, dtype=float)
    z = (x - x.mean()) / x.std()
    return float(np.mean(z**3)), float(np.mean(z**4) - 3.0)


def _ols(x, y):
    """Slope, intercept, R^2 and the slope standard error of a simple OLS fit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - slope * x - intercept
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = max(x.size - 2, 1)
    slope_se = math.sqrt(ss_res / dof / float(xc @ xc)) if x.size > 2 else 0.0
    return slope, intercept, r2, slope_se


# ---------------------------------------------------------------------------
# experiment runners


class _Rows:
    """Row collector applying config tolerance overrides."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.rows: list[StatRow] = []

    def add(self, n, k, M, stat, value, stderr, target, tol):
        if stat in self.cfg.tolerances:
            target, tol = (float(v) for v in self.cfg.tolerances[stat])
        passed = bool(target - tol <= value <= target + tol)
        self.rows.append(StatRow(self.cfg.run_id, int(n), int(k), int(M), stat,
                                 float(value), stderr, float(target), float(tol), passed))


def _report(cfg: ExperimentConfig, rows: _Rows, t0: float) -> ExperimentReport:
    return ExperimentReport(rows=rows.rows, config=asdict(cfg), seed=cfg.seed,
                            runtime_s=time.perf_counter() - t0)


def _info_budget(cfg, results) -> float:
    """Mean path information 2 int ((da/dtheta)/a)^2 ds: 2/theta0^2 for a scale family."""
    if get_model(cfg.model).scale_family:
        return 2.0 / cfg.theta0**2
    return float(np.mean(_gather(results, "pinfo")))


def _path_chunk_args(cfg, n, k, n_index, extra=()):
    stream = (_STREAM_TAG[cfg.experiment], n_index)
    pieces = _PIECES if cfg.experiment == "coupling" else _FULL_GRID_PIECES
    ranges = _chunk_ranges(cfg.replications, n * cfg.m + 1, pieces)
    return [
        (cfg.model, cfg.measure, cfg.theta0, cfg.xi0, n, cfg.m, k, cfg.seed, stream, r0, r1, *extra)
        for r0, r1 in ranges
    ]


def run_expansion(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Exact log-likelihood ratio against its quadratic quasi-score expansion."""
    t0 = time.perf_counter()
    rows = _Rows(cfg)
    M = cfg.replications
    has_oracle = get_model(cfg.model).scaled_brownian
    residual_track = []
    for i, n in enumerate(cfg.n_list):
        k = resolve_k(cfg.k_rule, n)
        args = _path_chunk_args(cfg, n, k, i, extra=(cfg.h,))
        results = _map_chunks(_expansion_chunk, args, workers)
        N = _gather(results, "N")
        I = _gather(results, "I")
        info_budget = _info_budget(cfg, results)
        mean_N, se_N = _mean_se(N)
        mean_I, se_I = _mean_se(I)
        rows.add(n, k, M, "mean_score_stat", mean_N, se_N, 0.0, 0.5)
        rows.add(n, k, M, "mean_info_stat", mean_I, se_I,
                 (k - 1) / k * info_budget, 0.25 * (k - 1) / k * info_budget)
        if not has_oracle:
            v_N, se_vN = _var_se(N)
            rows.add(n, k, M, "var_score_stat", v_N, se_vN,
                     (k - 1) / k * info_budget, 0.25 * (k - 1) / k * info_budget)
            continue
        log_z = _gather(results, "log_z")
        mean_z, se_z = _mean_se(log_z)
        var_z, se_vz = _var_se(log_z)
        target_mean = -0.5 * cfg.h**2 * info_budget
        target_var = cfg.h**2 * info_budget
        # The asymptotic windows are pinned from n = 1024 up; smaller ladder
        # entries still carry visible finite-n curvature of the exact ratio.
        frac = 0.15 if n >= 1024 else 0.25
        rows.add(n, k, M, "mean_log_lr", mean_z, se_z, target_mean, frac * abs(target_mean))
        rows.add(n, k, M, "var_log_lr", var_z, se_vz, target_var, frac * target_var)
        residual = np.abs(log_z - (cfg.h * N - 0.5 * cfg.h**2 * I))
        mean_res, se_res = _mean_se(residual)
        rows.add(n, k, M, "residual_abs_mean", mean_res, se_res, 0.0, 10.0)
        residual_track.append((mean_res, se_res))
    if has_oracle and len(residual_track) >= 2 and cfg.h != 0.0:
        z = [
            (b[0] - a[0]) / math.sqrt(a[1] ** 2 + b[1] ** 2)
            for a, b in zip(residual_track, residual_track[1:])
        ]
        rows.add(0, 0, M, "residual_trend_violation", max(0.0, max(z)), None, 0.0, 2.0)
    return _report(cfg, rows, t0)


def run_information(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Observed information mean and score variance against the block-size limit."""
    t0 = time.perf_counter()
    rows = _Rows(cfg)
    M = cfg.replications
    for i, n in enumerate(cfg.n_list):
        k = resolve_k(cfg.k_rule, n)
        results = _map_chunks(_information_chunk, _path_chunk_args(cfg, n, k, i), workers)
        N = _gather(results, "N")
        I = _gather(results, "I")
        target = (k + 1) / k * _info_budget(cfg, results)
        mean_I, se_I = _mean_se(I)
        var_N, se_vN = _var_se(N)
        rows.add(n, k, M, "mean_info_stat", mean_I, se_I, target, 0.10 * target)
        rows.add(n, k, M, "var_score_stat", var_N, se_vN, target, 0.20 * target)
    return _report(cfg, rows, t0)


def run_coupling(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Decay of the first-block coupling error along the n ladder."""
    t0 = time.perf_counter()
    rows = _Rows(cfg)
    M = cfg.replications
    mean_errs = []
    worst = 0.0
    for i, n in enumerate(cfg.n_list):
        k = resolve_k(cfg.k_rule, n)
        results = _map_chunks(_coupling_chunk, _path_chunk_args(cfg, n, k, i), workers)
        err = _gather(results, "err")
        mean_err, se_err = _mean_se(err)
        worst = max(worst, float(np.max(err)))
        rows.add(n, k, M, "coupling_err_mean", mean_err, se_err, 0.0, 1.0)
        mean_errs.append(mean_err)
    if get_model(cfg.model).scaled_brownian:
        rows.add(0, 0, M, "coupling_err_max", worst, None, 0.0, 1e-12)
    elif len(cfg.n_list) >= 2:
        slope, _, _, slope_se = _ols(np.log(np.asarray(cfg.n_list, dtype=float)), np.log(mean_errs))
        rows.add(0, 0, M, "coupling_rate_slope", slope, slope_se, -0.5, 0.15)
    return _report(cfg, rows, t0)


def run_chi2_lemma(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Nested quadratic forms of a Gaussian vector differ by a chi^2(2) variable."""
    t0 = time.perf_counter()
    rows = _Rows(cfg)
    M = cfg.replications
    if cfg.cov_dim < 3:
        raise ValueError("chi2 experiment needs cov_dim >= 3")
    stream = (_STREAM_TAG["chi2"], 0)
    ranges = _chunk_ranges(M, 2 * cfg.cov_dim**2)
    args = [(cfg.cov_dim, cfg.ridge, cfg.seed, stream, r0, r1) for r0, r1 in ranges]
    delta = _gather(_map_chunks(_chi2_chunk, args, workers), "delta")
    mean_d, se_d = _mean_se(delta)
    var_d, se_vd = _var_se(delta)
    rows.add(0, cfg.cov_dim - 1, M, "delta_mean", mean_d, se_d, 2.0, 0.1)
    rows.add(0, cfg.cov_dim - 1, M, "delta_var", var_d, se_vd, 4.0, 0.4)
    rows.add(0, cfg.cov_dim - 1, M, "delta_min", float(np.min(delta)), None, 0.5, 0.5 + 1e-9)
    return _report(cfg, rows, t0)


def run_density_tails(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Exceedance of the squared radius of one-cell (mean, endpoint) pairs.

    If the density has Gaussian-type lower and upper bounds, the log
    exceedance of r^2 = u^2 + v^2 is asymptotically linear in r^2 with a
    negative slope; the fit runs over the upper half of the sample.
    """
    t0 = time.perf_counter()
    rows = _Rows(cfg)
    M = cfg.replications
    n = cfg.n_list[0]
    stream = (_STREAM_TAG["tails"], 0)
    ranges = _chunk_ranges(M, cfg.m + 1)
    args = [
        (cfg.model, cfg.measure, cfg.theta0, cfg.xi0, n, cfg.m, cfg.seed, stream, r0, r1)
        for r0, r1 in ranges
    ]
    results = _map_chunks(_tails_chunk, args, workers)
    u = _gather(results, "u")
    v = _gather(results, "v")
    r2 = u * u + v * v
    rows.add(n, 0, M, "exceedance_at_zero", float(np.mean(r2 > 0.0)), None, 1.0, 0.0)
    lo, hi = np.quantile(r2, [0.5, 0.998])
    t = np.linspace(lo, hi, 40)
    y = np.log(np.array([np.mean(r2 > ti) for ti in t]))
    slope, _, r2_fit, slope_se = _ols(t, y)
    r2_target = (0.995, 0.005) if get_model(cfg.model).scaled_brownian else (0.975, 0.025)
    rows.add(n, 0, M, "exceedance_fit_r2", r2_fit, None, *r2_target)
    rows.add(n, 0, M, "exceedance_fit_slope", slope, slope_se, -1.0005, 1.0)
    return _report(cfg, rows, t0)


def run_estimator(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Dispersion of sqrt(n)(theta_hat - theta0) against the information bound.

    Scale-family models carry the analytic bound; for path-dependent
    sensitivities the bound is the sampled mean inverse information, and the
    per-path standardization is the check that the limit is mixed normal.
    The exact MLE is reported only for scaled Brownian models, the one case
    with an exact oracle.
    """
    t0 = time.perf_counter()
    rows = _Rows(cfg)
    M = cfg.replications
    theta0 = cfg.theta0
    model = get_model(cfg.model)
    deterministic_info = model.scale_family
    for i, n in enumerate(cfg.n_list):
        k = resolve_k(cfg.k_rule, n)
        args = _path_chunk_args(cfg, n, k, i, extra=(tuple(cfg.estimators),))
        results = _map_chunks(_estimator_chunk, args, workers)
        root_n = math.sqrt(n)
        if "augmented" in cfg.estimators:
            theta_hat = _gather(results, "theta_aug")
            info_hat = _gather(results, "info_aug")
            z = root_n * (theta_hat - theta0)
            if deterministic_info:
                target = theta0**2 * k / (2.0 * (k + 1))
            else:
                target = float(np.mean(1.0 / info_hat))
            _estimator_rows(rows, n, k, M, "augmented", z, info_hat, target, 0.20 * target)
        if "means_only" in cfg.estimators:
            theta_hat = _gather(results, "theta_obs")
            info_hat = _gather(results, "info_obs")
            z = root_n * (theta_hat - theta0)
            if deterministic_info:
                target = theta0**2 / 2.0
            else:
                target = float(np.mean(1.0 / info_hat))
            _estimator_rows(rows, n, k, M, "means_only", z, info_hat, target, 0.25 * target)
        if "exact_mle" in cfg.estimators and model.scaled_brownian:
            z = root_n * (_gather(results, "theta_mle") - theta0)
            var_z, se_vz = _var_se(z)
            target = theta0**2 / 2.0
            rows.add(n, k, M, "var_sqrtn_err_exact_mle", var_z, se_vz, target, 0.20 * target)
    return _report(cfg, rows, t0)


def _estimator_rows(rows: _Rows, n, k, M, name, z, info_hat, var_target, var_tol):
    mean_z, se_z = _mean_se(z)
    var_z, se_vz = _var_se(z)
    rows.add(n, k, M, f"bias_{name}", mean_z / math.sqrt(n), se_z / math.sqrt(n), 0.0, 0.05)
    rows.add(n, k, M, f"var_sqrtn_err_{name}", var_z, se_vz, var_target, var_tol)
    standardized = np.sqrt(info_hat) * z
    skew, kurt = _skew_kurt(standardized)
    rows.add(n, k, M, f"std_skewness_{name}", skew, math.sqrt(6.0 / M), 0.0,
             max(0.15, 5.0 * math.sqrt(6.0 / M)))
    rows.add(n, k, M, f"std_kurtosis_{name}", kurt, math.sqrt(24.0 / M), 0.0,
             max(0.3, 5.0 * math.sqrt(24.0 / M)))


EXPERIMENTS = {
    "expansion": run_expansion,
    "information": run_information,
    "coupling": run_coupling,
    "chi2": run_chi2_lemma,
    "tails": run_density_tails,
    "estimator": run_estimator,
}


def default_verify_configs(seed: int = DEFAULT_SEED) -> list[ExperimentConfig]:
    """The acceptance-scale runs, one per verifiable claim."""
    return [
        ExperimentConfig(experiment="expansion", run_id="expansion",
                         model="multiplicative_bm", theta0=1.0, h=1.0,
                         n_list=(256, 1024, 4096), k_rule="log2",
                         replications=2000, seed=seed),
        ExperimentConfig(experiment="information", run_id="information_k1",
                         model="sine_scale", theta0=1.0, n_list=(1024,),
                         k_rule="fixed:1", replications=500, seed=seed),
        ExperimentConfig(experiment="information", run_id="information_k10",
                         model="sine_scale", theta0=1.0, n_list=(1024,),
                         k_rule="fixed:10", replications=500, seed=seed),
        ExperimentConfig(experiment="information", run_id="information_log2",
                         model="sine_scale", theta0=1.0, n_list=(4096,),
                         k_rule="log2", replications=500, seed=seed),
        ExperimentConfig(experiment="coupling", run_id="coupling",
                         model="sine_scale", theta0=1.0,
                         n_list=(64, 128, 256, 512, 1024, 2048, 4096),
                         k_rule="fixed:4", replications=500, seed=seed),
        ExperimentConfig(experiment="chi2", run_id="chi2",
                         replications=100_000, cov_dim=6, seed=seed),
        ExperimentConfig(experiment="tails", run_id="tails",
                         model="sine_scale", theta0=1.0, n_list=(256,),
                         replications=20_000, seed=seed),
        ExperimentConfig(experiment="tails", run_id="tails_control",
                         model="multiplicative_bm", theta0=1.0, n_list=(256,),
                         replications=20_000, seed=seed),
        ExperimentConfig(experiment="estimator", run_id="estimator_augmented",
                         model="multiplicative_bm", theta0=1.0, n_list=(1024,),
                         k_rule="fixed:10", replications=500, seed=seed,
                         estimators=("augmented", "exact_mle")),
        ExperimentConfig(experiment="estimator", run_id="estimator_means_only",
                         model="multiplicative_bm", theta0=1.0, n_list=(2048,),
                         k_rule="fixed:16", replications=500, seed=seed,
                         estimators=("means_only",)),
        ExperimentConfig(experiment="estimator", run_id="estimator_mixed_normal",
                         model="cauchy_scale", theta0=1.0, n_list=(1024,),
                         k_rule="fixed:10", replications=1000, seed=seed,
                         estimators=("augmented",)),
    ]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    return EXPERIMENTS[cfg.experiment](cfg, workers)


def report_to_files(report: ExperimentReport, csv_path, json_path) -> None:
    """Write the report CSV and JSON; raises ValueError, writing nothing, on a non-finite value."""
    json_text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
    with open(csv_path, "w") as f:
        f.write(report.to_csv_text())
    with open(json_path, "w") as f:
        f.write(json_text + "\n")
