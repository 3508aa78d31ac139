"""Workload inputs, timed operations and layer probes.

Imported only by the child processes of ``run.py``, which run with the
checkout's ``src`` directory on ``sys.path``.  Every input is derived from
the workload seed, so one seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time

import numpy as np

import diffmeans
import diffmeans.cli as cli
import diffmeans.estimate as estimate
import diffmeans.exact_oracle as exact_oracle
import diffmeans.experiments as experiments
import diffmeans.models as models
import diffmeans.quasi_score as quasi_score
import diffmeans.simulate as simulate
from diffmeans.experiments import ExperimentConfig, default_verify_configs, merge_reports, resolve_k

import checks
from spans import Recorder

# A Dirac at the middle of the cell sits on a grid node at m=2, so the local
# means are exact at the coarsest grid and the dense oracle stays exact.
DIRAC_MID = {"kind": "atomic", "atoms": [[0.5, 1.0]]}

# CLI round trips of the traced run: one sine_scale path per simulate request.
CLI_MODEL = "sine_scale"
CLI_N = 1024
CLI_M = 8
CLI_THETA_RANGE = (0.8, 1.6)
# An estimate fails when it lies more than CLI_Z standard errors
# (n * info_at_hat)^-1/2 from the theta its data were simulated with.
CLI_Z = 6.0
# Rounds of the traced CLI pass.
CLI_TRACE_ROUNDS = 8


def oracle_configs(seed: int) -> list[ExperimentConfig]:
    """oracle_solver: expansion ladder plus two estimator runs, all oracle-exact."""
    common = dict(model="multiplicative_bm", measure=DIRAC_MID, m=2, theta0=1.0, seed=seed)
    return [
        ExperimentConfig(experiment="expansion", run_id="oracle_expansion", h=1.0,
                         n_list=(2048, 4096), k_rule="log2", replications=1500, **common),
        ExperimentConfig(experiment="estimator", run_id="oracle_estimator_augmented",
                         n_list=(1024,), k_rule="fixed:10", replications=500,
                         estimators=("augmented", "exact_mle"), **common),
        ExperimentConfig(experiment="estimator", run_id="oracle_estimator_means_only",
                         n_list=(2048,), k_rule="fixed:16", replications=500,
                         estimators=("means_only",), **common),
    ]


def config_path_steps(cfg: ExperimentConfig) -> int:
    """Fine-grid Euler steps (rows x cells x m) that one config simulates."""
    steps = 0
    for n in cfg.n_list:
        if cfg.experiment in ("expansion", "information", "estimator"):
            cells = n
        elif cfg.experiment == "coupling":
            cells = resolve_k(cfg.k_rule, n)
        elif cfg.experiment == "tails":
            cells = 1
        else:
            cells = 0
        steps += cfg.replications * cells * cfg.m
        if cfg.experiment == "tails":
            break
    return steps


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# experiment passes (verify_default, oracle_solver)


def run_config(cfg: ExperimentConfig, workers: int, recorder: Recorder | None = None):
    """One verify run; returns (report, wall seconds, JSON text)."""
    t0 = time.perf_counter()
    if recorder is None:
        report = experiments.run_experiment(cfg, workers)
    else:
        report = recorder.call("experiments.run_experiment", experiments.run_experiment, cfg, workers)
    json_text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    return report, time.perf_counter() - t0, json_text


def experiment_pass(configs, workers: int, layout, recorder: Recorder | None = None) -> dict:
    """Run the configs in this process; returns the pass record."""
    reports = []
    run_shas = {}
    run_walls = {}
    run_counts = {}
    wall = 0.0
    problems = []
    failed = 0
    for cfg in configs:
        before = dict(recorder.counts) if recorder else {}
        report, seconds, json_text = run_config(cfg, workers, recorder)
        if recorder:
            run_counts[cfg.run_id] = {k: v - before.get(k, 0) for k, v in recorder.counts.items()}
        wall += seconds
        run_problems = checks.json_problems(json_text)
        if not report.all_pass():
            run_problems.append(f"{cfg.run_id}: a statistic failed")
        failed += bool(run_problems)
        problems += run_problems
        reports.append(report)
        run_shas[cfg.run_id] = sha256(report.to_csv_text())
        run_walls[cfg.run_id] = seconds
    csv_text = merge_reports(reports).to_csv_text()
    layout_problems = checks.verify_csv_problems(csv_text, layout)
    if layout_problems:
        problems += layout_problems
        failed = max(failed, 1)
    return {"wall": wall, "csv_text": csv_text, "csv_sha256": sha256(csv_text),
            "run_shas": run_shas, "run_walls": run_walls, "run_counts": run_counts,
            "attempted": len(configs), "failed": failed, "problems": problems}


def _on_dispatch(rec: Recorder, args, kwargs, result) -> None:
    rec.add("experiments.chunks", len(args[1]))


def count_dispatch(rec: Recorder) -> list[str]:
    """Count the chunks ``run_experiment`` hands to ``_map_chunks``, which the
    pool's parent process sees; returns the names that are missing."""
    if not hasattr(experiments, "_map_chunks"):
        return ["diffmeans.experiments._map_chunks"]
    rec.wrap(experiments, "_map_chunks", "experiments.map_chunks", _on_dispatch)
    return []


def config_counts(cfg: ExperimentConfig, rec: Recorder) -> dict:
    """Exact counts of an expansion run outside the traced process: chunks
    dispatched, one stream per replication and grid, steps from the config."""
    counts = {"simulate.streams": cfg.replications * len(cfg.n_list),
              "simulate.path_steps": config_path_steps(cfg)}
    if "experiments.chunks" in rec.counts:
        counts["experiments.chunks"] = rec.counts["experiments.chunks"]
    return counts


# ---------------------------------------------------------------------------
# CLI round trips of the traced oracle_solver run


def cli_round_inputs(seed: int, index: int) -> dict:
    """Inputs of round ``index``: a theta and a simulation seed per output kind."""
    rng = np.random.default_rng([seed, index])
    lo, hi = CLI_THETA_RANGE
    thetas = rng.uniform(lo, hi, size=2)
    seeds = rng.integers(0, 2**31 - 1, size=2)
    return {"plain": (float(thetas[0]), int(seeds[0])), "augmented": (float(thetas[1]), int(seeds[1]))}


def cli_round(inputs: dict, workdir: str, recorder: Recorder) -> dict:
    """simulate -> estimate for a plain and an augmented path; returns problems."""
    problems = []
    failed = 0
    for kind in ("plain", "augmented"):
        theta, sim_seed = inputs[kind]
        obs_path = os.path.join(workdir, f"{kind}.csv")
        est_path = os.path.join(workdir, f"{kind}.est.json")
        argv = ["simulate", "--model", CLI_MODEL, "--theta", repr(theta), "--n", str(CLI_N),
                "--m", str(CLI_M), "--seed", str(sim_seed), "--out", obs_path]
        if kind == "augmented":
            argv.append("--augmented")
        code = recorder.call("cli.main", cli.main, argv)
        sim_problems = [f"simulate exited {code}"] if code != 0 else []
        if not sim_problems:
            with open(obs_path) as f:
                sim_problems = checks.simulate_csv_problems(f.read())
        failed += bool(sim_problems)
        problems += sim_problems

        argv = ["estimate", "--model", CLI_MODEL, "--in", obs_path, "--out", est_path]
        code = recorder.call("cli.main", cli.main, argv)
        est_problems = [f"estimate exited {code}"] if code != 0 else []
        if not est_problems:
            with open(est_path) as f:
                est_problems = checks.estimate_problems(f.read(), theta, CLI_Z)
        failed += bool(est_problems)
        problems += est_problems
    return {"attempted": 4, "failed": failed, "problems": problems}


def cli_pass(rounds, workdir: str, recorder: Recorder) -> dict:
    """Run the given rounds; returns their merged record."""
    merged = {"attempted": 0, "failed": 0, "problems": []}
    for inputs in rounds:
        record = cli_round(inputs, workdir, recorder)
        for key in merged:
            merged[key] += record[key]
    merged["estimate_requests"] = 2 * len(rounds)
    merged["cli_requests"] = 4 * len(rounds)
    return merged


# ---------------------------------------------------------------------------
# layer probes of the traced run


def _on_paths(rec: Recorder, args, kwargs, result) -> None:
    values = result[0]
    rows = 1 if values.ndim == 1 else values.shape[0]
    steps = values.shape[-1] - 1
    rec.add("simulate.path_steps", rows * steps)
    # values and dW together: two float64 arrays of rows x (steps + 1).
    rec.maximum("simulate.chunk_bytes_max_computed", 16 * rows * (steps + 1))


def _on_chunk_paths(rec: Recorder, args, kwargs, result) -> None:
    _on_paths(rec, args, kwargs, result)
    rec.add("experiments.chunks")


def _on_info(rec: Recorder, args, kwargs, result) -> None:
    rec.add("models.info_points", np.size(result))


def _on_qforms(rec: Recorder, args, kwargs, result) -> None:
    rec.add("quasi_score.qform_rows", np.size(result))


def _on_build(rec: Recorder, args, kwargs, result) -> None:
    n = result.n
    rec.add("exact_oracle.cov_bytes_computed", 16 * n * n)


def _on_solve(rec: Recorder, args, kwargs, result) -> None:
    rec.add("estimate.solves")
    rec.add("estimate.iterations", result.iterations)
    rec.add("estimate.boundary_hits", int(result.boundary_hit))


# (owner, attribute, span name, result hook); the owner is the module whose
# namespace the caller looks the name up in.
PROBES = [
    (experiments, "simulate_values", "simulate.simulate_values", _on_chunk_paths),
    (simulate, "simulate_values", "simulate.simulate_values", _on_paths),
    (simulate, "euler_values", "simulate.euler_values", None),
    (experiments, "observe_values", "simulate.observe_values", None),
    (simulate, "observe_values", "simulate.observe_values", None),
    (experiments, "coupled_increments_values", "simulate.coupled_increments_values", None),
    (cli, "augment", "simulate.augment", None),
    (experiments, "info_integrand", "models.info_integrand", _on_info),
    (models, "info_integrand", "models.info_integrand", _on_info),
    (experiments, "quadratic_forms", "quasi_score.quadratic_forms", _on_qforms),
    (quasi_score, "quadratic_forms", "quasi_score.quadratic_forms", _on_qforms),
    (experiments, "score_terms", "quasi_score.score_terms", None),
    (experiments, "info_terms", "quasi_score.info_terms", None),
    (estimate, "block_summaries", "quasi_score.block_summaries", None),
    (estimate, "obs_block_summaries", "quasi_score.obs_block_summaries", None),
    (experiments, "build_base_cov", "exact_oracle.build_base_cov", _on_build),
    (exact_oracle.GaussianObsModel, "quad_forms", "exact_oracle.quad_forms", None),
    (experiments, "_solve", "estimate.solve", _on_solve),
    (estimate, "_solve", "estimate.solve", _on_solve),
    (cli, "estimate_augmented", "estimate.estimate_augmented", None),
    (cli, "estimate_means_only", "estimate.estimate_means_only", None),
]

COUNTERS = [
    (simulate, "rep_rng", ("simulate.streams",)),
    (experiments, "rep_rng", ("simulate.streams", "experiments.chunks")),
]

# Spans of the named layers; experiments and cli spans are their callers.
LAYER_PREFIXES = ("simulate.", "models.", "quasi_score.", "exact_oracle.", "estimate.")


def install_probes(rec: Recorder) -> list[str]:
    """Rebind every probe that exists; returns the names that are missing."""
    missing = []
    for owner, attr, name, hook in PROBES:
        if hasattr(owner, attr):
            rec.wrap(owner, attr, name, hook)
        else:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    for owner, attr, names in COUNTERS:
        if hasattr(owner, attr):
            rec.count_calls(owner, attr, *names)
        else:
            missing.append(f"{owner.__name__}.{attr}")
    return missing


def layer_metrics(rec: Recorder, lo: float, hi: float, estimate_requests: int,
                  cli_requests: int) -> dict:
    """Per-layer metrics of one traced pass spanning [lo, hi]."""
    c = rec.counts
    steps = c.get("simulate.path_steps", 0)

    def per(value, count, scale):
        return value * scale / count if count else 0.0

    solves = c.get("estimate.solves", 0)
    return {
        "simulate.draw_ns_per_step": per(rec.self_time("simulate.simulate_values"), steps, 1e9),
        "simulate.euler_ns_per_step": per(rec.total("simulate.euler_values"), steps, 1e9),
        "simulate.observe_ns_per_step": per(rec.total("simulate.observe_values"), steps, 1e9),
        "simulate.streams": c.get("simulate.streams", 0),
        "simulate.path_steps": steps,
        "simulate.chunk_bytes_max_computed": c.get("simulate.chunk_bytes_max_computed", 0),
        "models.info_ns_per_step": per(rec.total("models.info_integrand"),
                                       c.get("models.info_points", 0), 1e9),
        "quasi_score.qform_ns_per_row": per(rec.total("quasi_score.quadratic_forms"),
                                            c.get("quasi_score.qform_rows", 0), 1e9),
        "quasi_score.score_info_ms": 1e3 * (rec.total("quasi_score.score_terms")
                                            + rec.total("quasi_score.info_terms")),
        "quasi_score.summaries_ms_per_request": per(
            rec.total("quasi_score.block_summaries") + rec.total("quasi_score.obs_block_summaries"),
            estimate_requests, 1e3),
        "exact_oracle.build_s": rec.total("exact_oracle.build_base_cov"),
        "exact_oracle.qform_s": rec.total("exact_oracle.quad_forms"),
        "exact_oracle.cov_bytes_computed": c.get("exact_oracle.cov_bytes_computed", 0),
        "estimate.solve_us": per(rec.total("estimate.solve"), solves, 1e6),
        "estimate.iterations_mean": per(c.get("estimate.iterations", 0), solves, 1),
        "estimate.boundary_hits": c.get("estimate.boundary_hits", 0),
        "experiments.self_s": rec.self_time("experiments.run_experiment"),
        "experiments.chunks": c.get("experiments.chunks", 0),
        "cli.self_ms_per_request": per(rec.self_time("cli.main"), cli_requests, 1e3),
        "trace.layer_coverage_frac": rec.coverage(LAYER_PREFIXES, lo, hi) / (hi - lo),
    }


# The per-layer metrics that are exact counts: equal for every traced pass
# over the same inputs.
EXACT_COUNTS = (
    "simulate.streams",
    "simulate.path_steps",
    "simulate.chunk_bytes_max_computed",
    "exact_oracle.cov_bytes_computed",
    "estimate.iterations_mean",
    "estimate.boundary_hits",
    "experiments.chunks",
)


def median_metrics(passes: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def versions() -> dict:
    return {"numpy": np.__version__}
