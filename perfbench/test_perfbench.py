"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from spans import Recorder, union_length  # noqa: E402


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([]) == 0


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [6, 8].
    rec = Recorder(clock=FakeClock([0, 1, 2, 3, 4, 6, 8, 10]))
    outer = rec.begin("outer")
    a = rec.begin("a")
    c = rec.begin("c")
    rec.end(c)
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(outer)
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert rec.total("outer") == 10
    assert rec.self_time("outer") == 10 - 3 - 2
    assert rec.self_time("a") == 3 - 1
    assert rec.self_time("c") == 1
    assert rec.coverage(("a", "b"), 0, 10) == 5
    assert rec.coverage(("c",), 0, 10) == 1


def test_self_time_sums_over_repeated_spans():
    rec = Recorder(clock=FakeClock([0, 1, 2, 5, 6, 7, 9, 10]))
    for _ in range(2):
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        rec.end(inner)
        rec.end(outer)
    assert rec.calls("outer") == 2
    assert rec.total("outer") == 5 + 4
    assert rec.self_time("outer") == (5 - 1) + (4 - 2)


def test_wrap_records_span_and_restore_puts_original_back():
    mod = types.SimpleNamespace(double=lambda x: 2 * x)
    original = mod.double
    rec = Recorder()
    rec.wrap(mod, "double", "layer.double",
             on_result=lambda r, args, kwargs, result: r.add("layer.items", result))
    rec.count_calls(mod, "double", "layer.calls")
    assert mod.double(3) == 6
    assert rec.calls("layer.double") == 1
    assert rec.counts == {"layer.calls": 1, "layer.items": 6}
    rec.restore()
    assert mod.double is original


def test_nan_estimate_json_is_a_failure():
    text = json.dumps({"theta_hat": 0.5, "score_at_hat": float("nan"), "info_at_hat": 2.0,
                       "iterations": 3, "boundary_hit": False, "config": {"n": 4}})
    assert "NaN" in text
    assert checks.estimate_problems(text, theta=0.5, z=6.0)


def test_estimate_checks():
    def payload(**kw):
        base = {"theta_hat": 1.0, "score_at_hat": 0.0, "info_at_hat": 2.0, "iterations": 5,
                "boundary_hit": False, "config": {"n": 1024}}
        base.update(kw)
        return json.dumps(base)

    assert checks.estimate_problems(payload(), theta=1.0, z=6.0) == []
    assert checks.estimate_problems(payload(boundary_hit=True), theta=1.0, z=6.0)
    # One standard error is (1024 * 2)^-1/2 ~ 0.022; 0.2 is about nine.
    assert checks.estimate_problems(payload(theta_hat=1.2), theta=1.0, z=6.0)


def test_verify_csv_with_pass_zero_is_a_failure():
    layout = [["chi2", 0, "delta_mean"], ["chi2", 0, "delta_var"]]
    good = (checks.VERIFY_HEADER + "\n"
            "chi2,0,5,100,delta_mean,2.01,0.02,2.0,0.1,1\n"
            "chi2,0,5,100,delta_var,4.1,0.3,4.0,0.4,1\n")
    assert checks.verify_csv_problems(good, layout) == []
    failed = good.replace("4.0,0.4,1", "4.0,0.4,0")
    assert checks.verify_csv_problems(failed, layout)
    assert checks.verify_csv_problems(good, layout[:1])
    assert checks.verify_csv_problems(good.replace("2.01", "nan"), layout)
    assert checks.verify_csv_problems(good.replace("2.01", "x"), layout)


def test_strict_json_refuses_infinity():
    assert checks.json_problems('{"a": Infinity}')
    assert checks.json_problems('{"a": 1.5}') == []


def test_simulate_csv_values_must_be_finite_numbers():
    assert checks.simulate_csv_problems("j,xbar\n0,0.1\n1,-0.2\n") == []
    assert checks.simulate_csv_problems("j,xbar\n0,0.1\n1,inf\n")
    assert checks.simulate_csv_problems("j,xbar\n0,abc\n")


def test_layouts_cover_every_verify_workload():
    assert len(checks.load_layout("verify_default")) == 52
    assert len(checks.load_layout("oracle_solver")) == 20
