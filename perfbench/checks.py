"""Output checks that decide whether a benchmark operation failed.

An operation fails on a non-zero exit, a non-finite value, JSON holding
NaN or Infinity, a verify CSV whose (run_id, n, stat) rows differ from the
expected layout or that has any pass=0, or a CLI estimate that hit the
boundary or lies more than ``z`` standard errors from the true theta.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import os

VERIFY_HEADER = "experiment,n,k,M,stat,value,stderr,target,tol,pass"
LAYOUT_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layouts.json")


def load_layout(workload: str) -> list[list]:
    """Expected (run_id, n, stat) rows of a workload's verify CSV."""
    with open(LAYOUT_FILE) as f:
        return json.load(f)[workload]


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def json_problems(text: str) -> list[str]:
    try:
        strict_json(text)
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    return []


def verify_csv_problems(text: str, layout) -> list[str]:
    """Check a verify report CSV against its expected (run_id, n, stat) rows."""
    lines = text.splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        return ["verify CSV header differs"]
    problems = []
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            problems.append(f"malformed verify row {ln!r}")
            continue
        run_id, n, _k, _m, stat, value, stderr, target, tol, passed = parts
        try:
            rows.append([run_id, int(n), stat])
            finite = all(math.isfinite(float(x)) for x in [value, target, tol] + ([stderr] if stderr else []))
        except ValueError:
            problems.append(f"malformed verify row {ln!r}")
            continue
        if not finite:
            problems.append(f"non-finite value in row {ln!r}")
        if passed != "1":
            problems.append(f"statistic failed: {run_id} n={n} {stat} = {value} "
                            f"(stderr {stderr or '-'}) outside {target} ± {tol}")
    if rows != [list(r) for r in layout]:
        problems.append(f"verify rows differ from the expected layout ({len(rows)} rows)")
    return problems


def simulate_csv_problems(text: str) -> list[str]:
    """Every field of a simulate CSV after the header is empty or a finite number."""
    for ln in text.splitlines()[1:]:
        for field in ln.split(","):
            try:
                finite = not field or math.isfinite(float(field))
            except ValueError:
                finite = False
            if not finite:
                return [f"non-finite or malformed value in simulate row {ln!r}"]
    return []


def estimate_problems(text: str, theta: float, z: float) -> list[str]:
    """Check a CLI estimate JSON against the theta the data were simulated with."""
    try:
        payload = strict_json(text)
    except ValueError as exc:
        return [f"invalid estimate JSON: {exc}"]
    problems = []
    for key in ("theta_hat", "score_at_hat", "info_at_hat"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"estimate {key} is not a finite number: {value!r}")
    if payload.get("boundary_hit") is not False:
        problems.append("estimate hit the parameter boundary")
    if problems:
        return problems
    n = payload["config"]["n"]
    info = payload["info_at_hat"]
    if info <= 0.0:
        return [f"estimate info_at_hat={info} is not positive"]
    err = abs(payload["theta_hat"] - theta)
    bound = z / math.sqrt(n * info)
    if err > bound:
        problems.append(f"|theta_hat - theta| = {err:.4g} exceeds {z} standard errors ({bound:.4g})")
    return problems
