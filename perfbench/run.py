"""diffmeans benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify_default --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's ``src``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The lines before it are a run header, the
metrics as text and what the checks found.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("verify_default", "oracle_solver")
DEFAULT_SEED = 7
# Fresh interpreters timed for setup_s in an oracle_solver run, its looping
# child included; verify_default starts one per run already.
SETUP_SAMPLES = 6
# Every run ends within this many seconds, or fails.
RUN_BUDGET_S = 170.0
VERIFY_RUNS = 11
VERIFY_WORKERS = 2

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "simulate.draw_ns_per_step": "ns",
    "simulate.euler_ns_per_step": "ns",
    "simulate.observe_ns_per_step": "ns",
    "simulate.streams": "count",
    "simulate.path_steps": "count",
    "simulate.chunk_bytes_max_computed": "bytes",
    "models.info_ns_per_step": "ns",
    "quasi_score.qform_ns_per_row": "ns",
    "quasi_score.score_info_ms": "ms",
    "quasi_score.summaries_ms_per_request": "ms",
    "exact_oracle.build_s": "s",
    "exact_oracle.qform_s": "s",
    "exact_oracle.cov_bytes_computed": "bytes",
    "estimate.solve_us": "us",
    "estimate.iterations_mean": "count",
    "estimate.boundary_hits": "count",
    "experiments.self_s": "s",
    "experiments.chunks": "count",
    "experiments.serial_wall_s": "s",
    "experiments.speedup_2w": "ratio",
    "cli.self_ms_per_request": "ms",
    "trace.overhead_frac": "ratio",
    "trace.layer_coverage_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the child interpreters of one run inside a scratch directory."""

    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        base = os.path.join(root, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=base)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.setup_samples: list[float] = []
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run still uses it

    def child(self, role: str, **options):
        """Run one child; returns (exit code, its record or None)."""
        self._count += 1
        result = os.path.join(self.workdir, f"child-{self._count}.json")
        cmd = [sys.executable, CHILD, role, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--workdir", self.workdir, "--result", result]
        for key, value in options.items():
            cmd += [f"--{key}", str(value)]
        t0 = time.perf_counter()
        # A session of its own, so a child that overruns is killed with its pool.
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            ready = self._await_ready(role, proc)
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} child overran the {RUN_BUDGET_S:.0f} s run budget") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
        if ready is None:
            raise BenchError(f"{role} child exited {code} before set-up finished")
        self.setup_samples.append(ready - t0)
        if not os.path.exists(result):
            return code, None
        with open(result) as f:
            return code, json.load(f)

    def _await_ready(self, role: str, proc):
        """Time at which the child printed READY (None if it never did)."""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            timeout = self.deadline - time.monotonic()
            if timeout <= 0 or not sel.select(timeout):
                raise BenchError(f"{role} child overran the {RUN_BUDGET_S:.0f} s run budget")
        line = proc.stdout.readline()
        return time.perf_counter() if line.strip() == b"READY" else None

    def probes(self) -> None:
        while len(self.setup_samples) + 1 < SETUP_SAMPLES:
            self.child("probe")


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_sha(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "diffmeans", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def llc_bytes() -> int:
    """Size of the last-level cache of cpu0, 0 where the system does not say."""
    best_level, size = 0, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(index, "size")) as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        value = int(text.rstrip("KMG")) * scale
        if level > best_level or (level == best_level and value > size):
            best_level, size = level, value
    return size


# ---------------------------------------------------------------------------
# workloads


def verify_default(runner: Runner, trace: bool):
    """The default verify suite: one fresh interpreter per run, or traced."""
    layout = checks.load_layout("verify_default")
    info, problems = {}, []
    if not trace:
        csv_parts, wall, steps, attempted, failed = [], 0.0, 0, 0, 0
        run_walls = {}
        for index in range(VERIFY_RUNS):
            code, rec = runner.child("verify-run", index=index, workers=VERIFY_WORKERS)
            attempted += 1
            if rec is None:
                failed += 1
                problems.append(f"verify run {index} exited {code} without a record")
                continue
            failed += bool(rec["failed"] or code != 0)
            problems += rec["problems"]
            csv_parts.append(rec["csv_text"].split("\n", 1)[1])
            wall += rec["wall"]
            steps += rec["path_steps"]
            run_walls.update(rec["run_walls"])
            info["numpy"] = rec["versions"]["numpy"]
        csv_text = checks.VERIFY_HEADER + "\n" + "".join(csv_parts)
        problems += checks.verify_csv_problems(csv_text, layout)
        info["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
        info["run_walls_s"] = {k: round(v, 3) for k, v in run_walls.items()}
        metrics = {"wall_s": wall, "path_steps_per_s": steps / wall if wall else 0.0}
        return metrics, attempted, failed, problems, info

    code, rec = runner.child("verify-traced")
    if rec is None:
        raise BenchError(f"traced verify child exited {code} without a record")
    attempted, failed = rec["attempted"], rec["failed"]
    problems += rec["problems"]
    # The 2-worker comparison reruns only the largest run, `expansion`, so
    # the traced run stays inside its time budget.
    code2, rec2 = runner.child("verify-run", index=0, workers=VERIFY_WORKERS, count=1)
    attempted += 1
    if rec2 is None:
        failed += 1
        problems.append(f"2-worker expansion run exited {code2} without a record")
        speedup = 0.0
    else:
        failed += bool(rec2["failed"] or code2 != 0)
        problems += rec2["problems"]
        if rec2["run_shas"]["expansion"] != rec["run_shas"]["expansion"]:
            problems.append("expansion CSV differs between the traced 1-worker and 2-worker runs")
        # The traced counts come from inside the chunks, the 2-worker ones
        # from the chunks handed to the pool and from the config.
        traced_counts = rec["run_counts"]["expansion"]
        for key, value in rec2["counts"].items():
            if traced_counts.get(key, 0) != value:
                problems.append(f"expansion {key}: {traced_counts.get(key, 0)} traced at 1 worker, "
                                f"{value} at {VERIFY_WORKERS} workers")
        speedup = rec["run_walls"]["expansion"] / rec2["wall"]
    layers = dict(rec["layers"])
    layers["experiments.serial_wall_s"] = rec["wall"]
    layers["experiments.speedup_2w"] = speedup
    layers["trace.overhead_frac"] = 0.0
    info.update(csv_sha256=rec["csv_sha256"], numpy=rec["versions"]["numpy"],
                missing_probes=rec["missing_probes"] + (rec2 or {}).get("missing_probes", []))
    return layers, attempted, failed, problems, info


def oracle_solver(runner: Runner, trace: bool):
    """Serial oracle and estimator passes in one closed loop, or traced."""
    if not trace:
        runner.probes()
    code, rec = runner.child("loop", seconds=runner.args.seconds, trace=int(trace))
    if rec is None:
        raise BenchError(f"oracle_solver child exited {code} without a record")
    info = {"numpy": rec["versions"]["numpy"], "csv_sha256": rec["csv_sha256"],
            "passes": len(rec["walls"]) + len(rec["traced_walls"])}
    attempted, failed, problems = rec["attempted"], rec["failed"], rec["problems"]
    if not trace:
        wall = statistics.median(rec["walls"])
        metrics = {"wall_s": wall, "path_steps_per_s": rec["path_steps"] / wall}
        return metrics, attempted, failed, problems, info
    layers = dict(rec["layers"])
    layers["experiments.serial_wall_s"] = statistics.median(rec["traced_walls"])
    layers["experiments.speedup_2w"] = 0.0
    layers["trace.overhead_frac"] = rec["overhead_frac"]
    info["missing_probes"] = rec["missing_probes"]
    return layers, attempted, failed, problems, info


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time of oracle_solver; verify_default runs its suite once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diffmeans", "__init__.py")):
        print("error: run from the root of a diffmeans checkout (no src/diffmeans here)",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    runner = Runner(root, args)
    try:
        body = verify_default if args.workload == "verify_default" else oracle_solver
        metrics, attempted, failed, problems, info = body(runner, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    if trace:
        units = LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(runner.setup_samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        units = E2E_UNITS
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "traced": trace,
        "git_sha": git_sha(root), "src_sha256": src_sha(root), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": info.pop("numpy", None),
        "llc_bytes": llc_bytes(),
    }
    print("header " + json.dumps(header, sort_keys=True))
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print("info " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"problem {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
