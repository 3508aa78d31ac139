"""Command-line interface: simulate observations, estimate theta, verify claims.

Subcommands
    simulate   write a local-mean observation CSV (optionally augmented)
    estimate   read an observation CSV and write the estimate as JSON
    verify     run Monte Carlo experiments and write a report CSV + JSON

Exit codes: 0 success (verify: all pass flags true), 1 verification
failure, 2 usage/config error.  A JSON config file can preset any option;
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .estimate import estimate_augmented, estimate_means_only
from .experiments import (
    DEFAULT_SEED,
    EXPERIMENTS,
    ExperimentConfig,
    default_verify_configs,
    merge_reports,
    report_to_files,
    resolve_k,
    run_experiment,
)
from .measures import measure_from_spec, measure_to_spec, v_coefficients
from .models import get_model
from .simulate import block_edges, observe_values, path_to_csv, simulate_values


def _parse_measure(value) -> dict:
    if value is None:
        return {"kind": "lebesgue"}
    if isinstance(value, dict):
        return value
    text = value.strip()
    if text == "lebesgue":
        return {"kind": "lebesgue"}
    if text.startswith("dirac:"):
        return {"kind": "atomic", "atoms": [[float(text.split(":", 1)[1]), 1.0]]}
    try:
        spec = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"cannot parse measure {text!r}: expected 'lebesgue', 'dirac:<pos>' or JSON")
    if not isinstance(spec, dict):
        raise ValueError(f"measure JSON must be an object, got {spec!r}")
    return spec


def _fmt(x: float) -> str:
    return repr(float(x))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffmeans")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file presetting options; flags win")
        p.add_argument("--model", help="registered model name")
        p.add_argument("--measure", help="'lebesgue', 'dirac:<pos>', or JSON measure spec")
        p.add_argument("--m", type=int, help="substeps per observation cell")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--xi0", type=float, help="initial value of the diffusion")
        p.add_argument("--out", help="output path ('-' = stdout where applicable)")

    p_sim = sub.add_parser("simulate", help="simulate and write observations")
    common(p_sim)
    p_sim.add_argument("--theta", type=float, help="true parameter")
    p_sim.add_argument("--n", type=int, help="number of observation cells")
    p_sim.add_argument("--k", help="block length rule (needed with --augmented)")
    p_sim.add_argument("--augmented", action="store_true", help="include block anchors")
    p_sim.add_argument("--dump-path", dest="dump_path",
                       help="also write the fine-grid path as CSV (t, X, dW)")

    p_est = sub.add_parser("estimate", help="estimate theta from an observation CSV")
    common(p_est)
    p_est.add_argument("--in", dest="input", help="observation CSV path ('-' = stdin)")
    p_est.add_argument("--k", help="block length rule for means-only data")
    p_est.add_argument("--theta-init", type=float, help="optimizer start point")

    p_ver = sub.add_parser("verify", help="run Monte Carlo verification experiments")
    common(p_ver)
    p_ver.add_argument("--experiment", action="append",
                       help="experiment id or 'all' (repeatable)")
    p_ver.add_argument("--theta0", type=float, help="true parameter")
    p_ver.add_argument("--h", type=float, help="local alternative scale")
    p_ver.add_argument("--n", type=int, action="append", help="sample size (repeatable)")
    p_ver.add_argument("--k", help="block length rule, e.g. fixed:10 or log2")
    p_ver.add_argument("--M", type=int, help="replications")
    p_ver.add_argument("--workers", type=int, help="parallel workers (default: cores)")
    return parser


def _load_config_file(path):
    if path is None:
        return {}
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _opt(args, file_cfg, name, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in file_cfg:
        return file_cfg[name]
    return default


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _finite_xi0(value) -> float:
    xi0 = float(value)
    if not math.isfinite(xi0):
        raise ValueError(f"xi0 must be a finite number, got {xi0!r}")
    return xi0


def cmd_simulate(args) -> int:
    file_cfg = _load_config_file(args.config)
    model = get_model(_opt(args, file_cfg, "model", "multiplicative_bm"))
    measure_spec = _parse_measure(_opt(args, file_cfg, "measure"))
    measure = measure_from_spec(measure_spec)
    theta = float(_opt(args, file_cfg, "theta", 1.0))
    n = int(_opt(args, file_cfg, "n", 256))
    m = int(_opt(args, file_cfg, "m", 32))
    seed = int(_opt(args, file_cfg, "seed", DEFAULT_SEED))
    xi0 = _finite_xi0(_opt(args, file_cfg, "xi0", 0.0))
    augmented = bool(getattr(args, "augmented", False) or file_cfg.get("augmented", False))
    out = _opt(args, file_cfg, "out", "-")

    if n < 2:
        raise ValueError("need n >= 2 observation cells")
    dump = _opt(args, file_cfg, "dump_path")
    values, dW = simulate_values(model, theta, xi0, n, m, seed, reps=1, increments=bool(dump))
    obs = observe_values(values, measure, n, m)[0]
    if dump:
        _write_text(dump, path_to_csv(values[0], dW[0]))
    resolved = {
        "model": model.name, "measure": measure_to_spec(measure), "theta": theta,
        "n": n, "m": m, "seed": seed, "xi0": xi0, "augmented": augmented,
    }
    if not augmented:
        lines = ["j,xbar"] + [f"{j},{_fmt(x)}" for j, x in enumerate(obs)]
        _write_sidecar(out, resolved)
        _write_text(out, "\n".join(lines) + "\n")
        return 0
    k = resolve_k(_opt(args, file_cfg, "k", "log2"), n)
    resolved["k"] = k
    edges = block_edges(n, k)
    edge_values = values[0, edges * m]
    lines = ["j,xbar,l,anchor"]
    for l in range(edges.size - 1):
        for j in range(edges[l], edges[l + 1]):
            lines.append(f"{j},{_fmt(obs[j])},{l},{_fmt(edge_values[l])}")
    lines.append(f"{n},,{edges.size - 1},{_fmt(edge_values[-1])}")
    _write_sidecar(out, resolved)
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def _write_sidecar(out: str, resolved: dict) -> None:
    # The data CSV format is pinned, so the config echo lives next to the
    # file; nothing is written when streaming to stdout.
    if out != "-":
        _write_text(out + ".meta.json", json.dumps(resolved, indent=2, sort_keys=True,
                                                   allow_nan=False) + "\n")


def _field(text: str, row: str, kind=float):
    """One field of an observation row as ``kind``; a malformed or non-finite value names the row."""
    try:
        x = kind(text)
    except ValueError:
        raise ValueError(f"malformed value {text!r} in observation row {row!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in observation row {row!r}")
    return x


def _read_observation_csv(text: str):
    """Parse a simulate CSV; returns ("means", obs) or ("augmented", obs, edge_values, k).

    edge_values are the block anchors followed by the terminal value; every
    block but the last holds k means and the last 1..k.  Raises ValueError
    on any malformed row, non-finite value, ragged block, a row whose
    anchor differs from the rest of its block, or a terminal row that is
    not the single last row with j = n and l = the block count.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty observation CSV")
    header = lines[0]
    if header == "j,xbar":
        obs = []
        for i, ln in enumerate(lines[1:]):
            parts = ln.split(",")
            if len(parts) != 2 or _field(parts[0], ln, int) != i:
                raise ValueError(f"malformed observation row {ln!r}")
            obs.append(_field(parts[1], ln))
        if not obs:
            raise ValueError("observation CSV holds no rows")
        return "means", np.asarray(obs)
    if header == "j,xbar,l,anchor":
        groups: list[tuple[float, list[float]]] = []
        terminal = None
        count = 0
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 4:
                raise ValueError(f"malformed observation row {ln!r}")
            if terminal is not None:
                raise ValueError(f"terminal row {terminal!r} must be the last row and the "
                                 f"only terminal row; found {ln!r} after it")
            if parts[1] == "":
                terminal = ln
                continue
            j, l = _field(parts[0], ln, int), _field(parts[2], ln, int)
            x, anchor = _field(parts[1], ln), _field(parts[3], ln)
            if j != count:
                raise ValueError(f"non-consecutive observation index at row {ln!r}")
            count += 1
            if l == len(groups):
                groups.append((anchor, []))
            elif l != len(groups) - 1:
                raise ValueError(f"non-consecutive block index at row {ln!r}")
            elif anchor != groups[-1][0]:
                raise ValueError(f"anchor at row {ln!r} differs from its block's anchor "
                                 f"{groups[-1][0]!r}")
            groups[-1][1].append(x)
        if terminal is None or not groups:
            raise ValueError("augmented CSV lacks the terminal row")
        j, _, l, terminal_value = terminal.split(",")
        if _field(j, terminal, int) != count or _field(l, terminal, int) != len(groups):
            raise ValueError(f"terminal row {terminal!r} must have j = {count} (the mean count) "
                             f"and l = {len(groups)} (the block count)")
        sizes = [len(means) for _, means in groups]
        k = sizes[0]
        if any(size != k for size in sizes[:-1]) or sizes[-1] > k:
            raise ValueError(f"ragged augmented blocks of sizes {sizes}: every block but "
                             f"the last must hold k={k} means and the last 1..{k}")
        obs = np.array([x for _, means in groups for x in means])
        edge_values = np.array([anchor for anchor, _ in groups]
                               + [_field(terminal_value, terminal)])
        return "augmented", obs, edge_values, k
    raise ValueError(f"unrecognized observation CSV header {header!r}")


def cmd_estimate(args) -> int:
    file_cfg = _load_config_file(args.config)
    model = get_model(_opt(args, file_cfg, "model", "multiplicative_bm"))
    measure_spec = _parse_measure(_opt(args, file_cfg, "measure"))
    measure = measure_from_spec(measure_spec)
    coeffs = v_coefficients(measure)
    xi0 = _finite_xi0(_opt(args, file_cfg, "xi0", 0.0))
    theta_init = _opt(args, file_cfg, "theta_init")
    source = _opt(args, file_cfg, "input", "-")
    out = _opt(args, file_cfg, "out", "-")

    text = sys.stdin.read() if source == "-" else open(source).read()
    parsed = _read_observation_csv(text)
    if parsed[0] == "augmented":
        mode, obs, edge_values, k = parsed
        result = estimate_augmented(obs, edge_values, model, coeffs, k, theta_init)
    else:
        mode, obs = "means_only", parsed[1]
        k = resolve_k(_opt(args, file_cfg, "k", "log2"), obs.size)
        result = estimate_means_only(obs, xi0, model, coeffs, k, theta_init)
    payload = {
        "theta_hat": result.theta_hat,
        "score_at_hat": result.score_at_hat,
        "info_at_hat": result.info_at_hat,
        "iterations": result.iterations,
        "boundary_hit": result.boundary_hit,
        "config": {
            "mode": mode,
            "model": model.name,
            "measure": measure_to_spec(measure),
            "n": int(obs.size),
            "k": int(k),
            "xi0": xi0,
        },
    }
    _write_text(out, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


# verify option -> (ExperimentConfig field, conversion)
_VERIFY_OVERRIDES = {
    "model": ("model", str),
    "measure": ("measure", _parse_measure),
    "theta0": ("theta0", float),
    "h": ("h", float),
    "n": ("n_list", lambda v: tuple(v) if isinstance(v, (list, tuple)) else (int(v),)),
    "k": ("k_rule", str),
    "M": ("replications", int),
    "m": ("m", int),
    "xi0": ("xi0", float),
}


def cmd_verify(args) -> int:
    file_cfg = _load_config_file(args.config)
    selected = _opt(args, file_cfg, "experiment") or ["all"]
    if isinstance(selected, str):
        selected = [selected]
    for exp in selected:
        if exp != "all" and exp not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {exp!r}; known: {sorted(EXPERIMENTS)} or 'all'")
    workers = _opt(args, file_cfg, "workers")
    workers = os.cpu_count() or 1 if workers is None else max(1, int(workers))
    out = _opt(args, file_cfg, "out", "report")

    # Any of these fields replaces the default suite by bare per-experiment
    # configs; the seed alone reseeds the default suite.  A config file's
    # tolerances apply to either.
    seed = int(_opt(args, file_cfg, "seed", DEFAULT_SEED))
    overrides = {field: convert(value) for key, (field, convert) in _VERIFY_OVERRIDES.items()
                 if (value := _opt(args, file_cfg, key)) is not None}

    if overrides:
        names = [e for e in selected if e != "all"] or sorted(EXPERIMENTS)
        configs = [ExperimentConfig(experiment=name, seed=seed, **overrides) for name in names]
    else:
        configs = default_verify_configs(seed)
        if "all" not in selected:
            configs = [c for c in configs if c.experiment in selected]
    if "tolerances" in file_cfg:
        tolerances = dict(file_cfg["tolerances"])
        configs = [dataclasses.replace(c, tolerances=tolerances) for c in configs]

    reports = [run_experiment(cfg, workers) for cfg in configs]
    report = merge_reports(reports)
    csv_path = out if out.endswith(".csv") else out + ".csv"
    json_path = (out[:-4] if out.endswith(".csv") else out) + ".json"
    report_to_files(report, csv_path, json_path)
    n_fail = sum(not r.passed for r in report.rows)
    print(f"{len(report.rows)} statistics checked, {n_fail} failed -> {csv_path}")
    return 0 if n_fail == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "estimate": cmd_estimate, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the size it could not allocate.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
