"""One fresh interpreter of a benchmark run (started by ``run.py``).

The child imports the package and prepares its inputs, prints ``READY``
on stdout (the parent times set-up up to that line), runs its role and
writes a JSON record to ``--result``.

Roles
    probe          set-up only, then exit
    verify-run     one run of the default verify suite (``--index``); with
                   ``--count 1`` it also counts what it hands to the pool
    verify-traced  the whole default suite at one worker, traced
    loop           oracle_solver passes for ``--seconds`` (at least 3); with
                   ``--trace 1`` untraced and traced passes alternate U T T U,
                   then the CLI round trips are traced
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=["probe", "verify-run", "verify-traced", "loop"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    return p.parse_args(argv)


def _ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    # Anything printed later goes to stderr, so the parent reads one line.
    os.dup2(2, 1)


def main(argv=None) -> int:
    args = _parse(argv)
    import checks
    import workloads as w
    from spans import Recorder

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(w.diffmeans.__file__).startswith(src + os.sep):
        print(f"diffmeans imported from {w.diffmeans.__file__}, not from {src}", file=sys.stderr)
        return 3

    configs = w.default_verify_configs(args.seed) if args.workload == "verify_default" else w.oracle_configs(args.seed)
    layout = checks.load_layout(args.workload)

    if args.role == "probe":
        _ready()
        return 0

    if args.role == "verify-run":
        cfg = configs[args.index]
        _ready()
        rec = Recorder() if args.count else None
        missing = w.count_dispatch(rec) if rec else []
        record = w.experiment_pass([cfg], args.workers, [r for r in layout if r[0] == cfg.run_id])
        record["path_steps"] = w.config_path_steps(cfg)
        if rec:
            rec.restore()
            record["counts"] = w.config_counts(cfg, rec)
            record["missing_probes"] = missing
    elif args.role == "verify-traced":
        _ready()
        rec = Recorder()
        missing = w.install_probes(rec)
        lo = time.perf_counter()
        record = w.experiment_pass(configs, 1, layout, rec)
        hi = time.perf_counter()
        rec.restore()
        record["layers"] = w.layer_metrics(rec, lo, hi, 0, 0)
        record["missing_probes"] = missing
    else:
        _ready()
        record = _loop(args, w, configs, layout, Recorder)
    record["versions"] = w.versions()
    with open(args.result, "w") as f:
        json.dump(record, f)
    return 0 if record["failed"] == 0 else 1


def _loop(args, w, configs, layout, Recorder) -> dict:
    """Run the passes; returns the run record."""
    steps = sum(w.config_path_steps(c) for c in configs)
    passes, layers, missing = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 4 in (1, 2)
        rec = Recorder() if traced else None
        if traced:
            missing = w.install_probes(rec)
        lo = time.perf_counter()
        record = w.experiment_pass(configs, 1, layout, rec)
        hi = time.perf_counter()
        if traced:
            rec.restore()
            layers.append(w.layer_metrics(rec, lo, hi, 0, 0))
        record["traced"] = traced
        passes.append(record)
        index += 1
        if hi - start >= args.seconds and index >= 3 and (not args.trace or index % 4 == 0):
            break

    problems = [p for record in passes for p in record["problems"]]
    if len({record["csv_sha256"] for record in passes}) > 1:
        problems.append("outputs differ between passes over the same inputs")
    for key in w.EXACT_COUNTS:
        if len({layer[key] for layer in layers}) > 1:
            problems.append(f"count {key} differs between traced passes")
    result = {
        "walls": [p["wall"] for p in passes if not p["traced"]],
        "traced_walls": [p["wall"] for p in passes if p["traced"]],
        "path_steps": steps,
        "csv_sha256": passes[0]["csv_sha256"],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
        "missing_probes": missing,
    }
    if layers:
        result["layers"] = w.median_metrics(layers)
        result["overhead_frac"] = (statistics.median(result["traced_walls"])
                                   / statistics.median(result["walls"]) - 1.0)
        _trace_cli_layer(args, w, Recorder, result)
    return result


def _trace_cli_layer(args, w, Recorder, result) -> None:
    """Time the CLI layer on fixed ``simulate`` -> ``estimate`` round trips.

    No workload calls ``diffmeans.cli.main`` otherwise, so the traced
    oracle_solver run carries the two metrics only the CLI exercises.
    """
    rec = Recorder()
    w.install_probes(rec)
    rounds = [w.cli_round_inputs(args.seed, i) for i in range(w.CLI_TRACE_ROUNDS)]
    lo = time.perf_counter()
    record = w.cli_pass(rounds, args.workdir, rec)
    hi = time.perf_counter()
    rec.restore()
    cli = w.layer_metrics(rec, lo, hi, record["estimate_requests"], record["cli_requests"])
    for key in ("cli.self_ms_per_request", "quasi_score.summaries_ms_per_request"):
        result["layers"][key] = cli[key]
    for key in ("attempted", "failed", "problems"):
        result[key] += record[key]


if __name__ == "__main__":
    sys.exit(main())
