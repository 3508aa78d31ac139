import dataclasses
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmeans.cli import _parse_measure, _read_observation_csv, main
from diffmeans.estimate import estimate_augmented, estimate_means_only
from diffmeans.measures import WeightMeasure, measure_from_spec, v_coefficients
from diffmeans.models import REGISTRY, get_model
from diffmeans.simulate import block_edges, observe_values, simulate_values


# sine_scale through a mixture measure at n = 37, k = 36: the augmented CSV
# ends in a block of one mean.  The digest covers the plain and augmented
# CSVs, their .meta.json sidecars, the path dump and both estimate JSONs,
# and pins the bytes at numpy 2.4.6.
PINNED_CLI_SHA256 = "327025f4a95ee4c4343a74568049575eb18871ce4fb5b983d04ee2cba1d99674"
PIN_MIXTURE = '{"kind":"mixture","lebesgue":0.5,"atoms":[[0.25,0.3],[0.8,0.2]]}'


def run_cli(args):
    return main(args)


def pinned_cli_files(tmp_path):
    """Run the pinned simulate/estimate requests; returns the written files in order."""
    common = ["--model", "sine_scale", "--measure", PIN_MIXTURE, "--m", "8", "--xi0", "0.4"]
    sim = common + ["--theta", "1.3", "--n", "37", "--seed", "11"]
    plain, aug, dump = tmp_path / "plain.csv", tmp_path / "aug.csv", tmp_path / "path.csv"
    assert run_cli(["simulate", *sim, "--out", str(plain)]) == 0
    assert run_cli(["simulate", *sim, "--augmented", "--k", "fixed:36",
                    "--dump-path", str(dump), "--out", str(aug)]) == 0
    plain_est, aug_est = tmp_path / "plain.json", tmp_path / "aug.json"
    assert run_cli(["estimate", *common, "--k", "fixed:36", "--in", str(plain),
                    "--out", str(plain_est)]) == 0
    assert run_cli(["estimate", *common, "--in", str(aug), "--out", str(aug_est)]) == 0
    return [plain, tmp_path / "plain.csv.meta.json", aug, tmp_path / "aug.csv.meta.json",
            dump, plain_est, aug_est]


def test_pinned_cli_bytes(tmp_path):
    digest = hashlib.sha256()
    for path in pinned_cli_files(tmp_path):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_CLI_SHA256


@pytest.mark.parametrize("spec,message", [
    ('{"kind":"atomic","atoms":[[0.5,NaN]]}', "atom weight nan"),
    ('{"kind":"mixture","lebesgue":NaN,"atoms":[[0.5,1.0]]}', "lebesgue weight nan"),
    ('{"kind":"atomic","atoms":[[NaN,1.0]]}', "atom position nan"),
], ids=["atom_weight", "lebesgue_weight", "atom_position"])
@pytest.mark.parametrize("command", ["simulate", "estimate", "verify"])
def test_non_finite_measure_exits_2_without_output(command, spec, message, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("j,xbar\n0,0.1\n1,0.3\n2,0.2\n")
    argv = {"simulate": ["simulate", "--n", "4", "--m", "2"],
            "estimate": ["estimate", "--k", "fixed:2", "--in", str(obs)],
            "verify": ["verify", "--experiment", "tails", "--M", "10", "--workers", "1"]}[command]
    assert run_cli([*argv, "--measure", spec, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} is not a finite number\n"
    assert [p.name for p in tmp_path.iterdir()] == ["obs.csv"]


_NUMPY_MESSAGE = ("Unable to allocate 23.3 TiB for an array with shape (1, 3200000000001) "
                  "and data type float64")


@pytest.mark.parametrize("error,message", [
    (MemoryError(_NUMPY_MESSAGE), _NUMPY_MESSAGE),
    (MemoryError(), "MemoryError"),
], ids=["numpy_message", "bare"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_allocation_failure_exits_2_without_output(command, error, message, tmp_path,
                                                   monkeypatch, capsys):
    # The failure is patched in: a real oversized request could succeed
    # under an overcommitting kernel and then be killed.
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr("diffmeans.cli.simulate_values", out_of_memory)
    monkeypatch.setattr("diffmeans.experiments.simulate_values", out_of_memory)
    argv = {"simulate": ["simulate", "--n", "100000000000"],
            "verify": ["verify", "--experiment", "tails", "--n", "64", "--M", "100",
                       "--m", "100000000000", "--workers", "1"]}[command]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


class TestSimulateCommand:
    def test_means_only_header_and_rows(self, tmp_path):
        out = tmp_path / "obs.csv"
        code = run_cli(["simulate", "--model", "multiplicative_bm", "--theta", "1.0",
                        "--n", "8", "--m", "8", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,xbar"
        assert len(lines) == 9
        meta = json.loads((tmp_path / "obs.csv.meta.json").read_text())
        assert meta["seed"] == 3 and meta["model"] == "multiplicative_bm"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--theta", "1.2", "--n", "16", "--m", "8", "--seed", "11"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dirac_rows_match_interpolated_path(self, tmp_path):
        out = tmp_path / "obs.csv"
        code = run_cli(["simulate", "--model", "multiplicative_bm", "--theta", "1.0",
                        "--n", "4", "--m", "8", "--seed", "5",
                        "--measure", "dirac:0.5", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        got = np.array([float(r.split(",")[1]) for r in rows])
        values, _ = simulate_values(get_model("multiplicative_bm"), 1.0, 0.0, 4, 8, 5, reps=1)
        expect = observe_values(values, WeightMeasure.dirac(0.5), 4, 8)[0]
        np.testing.assert_allclose(got, expect, rtol=1e-15)

    def test_single_cell_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "obs.csv"
        assert run_cli(["simulate", "--n", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need n >= 2 observation cells\n"
        assert not out.exists()

    def test_unknown_model_exits_2(self, tmp_path):
        code = run_cli(["simulate", "--model", "levy_flight", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_measure_as_dict_in_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"kind": "atomic", "atoms": [[0.5, 1.0]]},
                                   "n": 8, "m": 8}))
        out = tmp_path / "obs.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "obs.csv.meta.json").read_text())
        assert meta["measure"]["kind"] == "atomic"

    def test_malformed_measure_exits_2(self, tmp_path):
        assert run_cli(["simulate", "--measure", "42", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("xi0", ["nan", "inf", "-inf"])
    def test_non_finite_xi0_exits_2_without_output(self, xi0, tmp_path, capsys):
        out = tmp_path / "obs.csv"
        assert run_cli(["simulate", "--n", "4", "--m", "4", f"--xi0={xi0}"]) == 2
        assert run_cli(["simulate", "--n", "4", "--m", "4", f"--xi0={xi0}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "xi0" in captured.err
        assert not out.exists() and not (tmp_path / "obs.csv.meta.json").exists()

    def test_path_dump(self, tmp_path):
        out = tmp_path / "obs.csv"
        dump = tmp_path / "path.csv"
        code = run_cli(["simulate", "--n", "4", "--m", "4", "--seed", "1",
                        "--out", str(out), "--dump-path", str(dump)])
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "t,X,dW"
        assert len(lines) == 18  # 16 steps + terminal row + header
        assert lines[1].startswith("0.0,0.0,")
        assert lines[-1].endswith(",")

    def test_augmented_includes_anchor_columns(self, tmp_path):
        out = tmp_path / "aug.csv"
        code = run_cli(["simulate", "--n", "12", "--m", "8", "--seed", "2",
                        "--augmented", "--k", "fixed:5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,xbar,l,anchor"
        assert len(lines) == 14  # 12 means + terminal row
        assert lines[-1].split(",")[1] == ""


class TestEstimateCommand:
    def _simulate(self, tmp_path, augmented=False, theta="1.5", n="1024"):
        out = tmp_path / ("aug.csv" if augmented else "obs.csv")
        argv = ["simulate", "--model", "multiplicative_bm", "--theta", theta,
                "--n", n, "--m", "16", "--seed", "21", "--out", str(out)]
        if augmented:
            argv += ["--augmented", "--k", "fixed:10"]
        assert run_cli(argv) == 0
        return out

    def test_pipeline_means_only(self, tmp_path):
        obs = self._simulate(tmp_path)
        out = tmp_path / "est.json"
        code = run_cli(["estimate", "--in", str(obs), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert 1.3 <= payload["theta_hat"] <= 1.7
        assert payload["config"]["mode"] == "means_only"
        assert not payload["boundary_hit"]

    def test_pipeline_augmented(self, tmp_path):
        aug = self._simulate(tmp_path, augmented=True)
        out = tmp_path / "est.json"
        code = run_cli(["estimate", "--in", str(aug), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert 1.3 <= payload["theta_hat"] <= 1.7
        assert payload["config"]["mode"] == "augmented"
        assert payload["config"]["k"] == 10

    def test_stdin_piping(self, tmp_path, monkeypatch):
        obs = self._simulate(tmp_path, n="256")
        monkeypatch.setattr("sys.stdin", io.StringIO(obs.read_text()))
        out = tmp_path / "est.json"
        assert run_cli(["estimate", "--out", str(out)]) == 0
        assert 1.0 <= json.loads(out.read_text())["theta_hat"] <= 2.0

    def test_malformed_csv_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("j,xbar\n0,1.0\n2,oops\n")
        out = tmp_path / "est.json"
        code = run_cli(["estimate", "--in", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("text,row", [
        ("j,xbar\n0,nan\n1,0.1\n2,0.2\n3,0.1\n", "0,nan"),
        ("j,xbar\n0,0.0\n1,inf\n2,0.2\n3,0.1\n", "1,inf"),
        ("j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,0.0\n2,0.1,1,-inf\n3,,2,0.0\n", "2,0.1,1,-inf"),
        ("j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,0.0\n2,,1,nan\n", "2,,1,nan"),
    ])
    def test_non_finite_value_exits_2_without_output(self, text, row, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(["estimate", "--k", "fixed:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert row in captured.err

    @pytest.mark.parametrize("text,row", [
        ("j,xbar,l,anchor\n0,0.1,x,0.0\n1,,1,0.3\n", "0,0.1,x,0.0"),
        ("j,xbar,l,anchor\n0,0.1,0,0.0\n1,,1,\n", "1,,1,"),
        ("j,xbar\n0,abc\n1,0.2\n", "0,abc"),
        ("j,xbar\nx,0.1\n1,0.2\n", "x,0.1"),
    ], ids=["block_index", "terminal_anchor", "mean", "plain_index"])
    def test_non_numeric_field_exits_2_naming_row(self, text, row, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(["estimate", "--k", "fixed:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"observation row {row!r}" in captured.err

    def test_ragged_augmented_blocks_exit_2(self, tmp_path):
        # Blocks of 2 and then 3 means: not a block split of any single k.
        bad = tmp_path / "ragged.csv"
        bad.write_text("j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,0.0\n2,0.3,1,0.25\n"
                       "3,0.2,1,0.25\n4,0.1,1,0.25\n5,,2,0.1\n")
        out = tmp_path / "est.json"
        assert run_cli(["estimate", "--in", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_conflicting_anchor_in_block_exits_2(self, monkeypatch, capsys):
        # The second row of block 0 carries anchor 5.0, not the block's 0.0.
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,5.0\n2,,1,0.3\n"))
        assert run_cli(["estimate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1,0.2,0,5.0" in captured.err

    @pytest.mark.parametrize("text,row", [
        # A data row after the terminal row.
        ("j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,0.0\n2,,1,0.3\n2,0.1,1,0.3\n", "2,,1,0.3"),
        # A second terminal row.
        ("j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,0.0\n2,,1,0.3\n2,,1,7.0\n", "2,,1,0.3"),
        # The terminal row's j is not n, or its l is not the block count.
        ("j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,0.0\n3,,1,0.3\n", "3,,1,0.3"),
        ("j,xbar,l,anchor\n0,0.1,0,0.0\n1,0.2,0,0.0\n2,,2,0.3\n", "2,,2,0.3"),
    ], ids=["row_after_terminal", "second_terminal", "wrong_j", "wrong_l"])
    def test_misplaced_terminal_row_exits_2(self, text, row, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(["estimate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert row in captured.err

    def test_non_finite_score_exits_2_without_output(self, monkeypatch, capsys):
        # Finite means whose quadratic forms overflow to inf.
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "j,xbar\n0,1e200\n1,-1e200\n2,1e200\n3,-1e200\n"))
        assert run_cli(["estimate", "--k", "fixed:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite quasi-score" in captured.err
        assert "theta" in captured.err

    def test_non_finite_xi0_exits_2_before_reading(self, monkeypatch, capsys):
        stdin = io.StringIO("j,xbar\n0,0.1\n1,0.2\n2,0.2\n3,0.1\n")
        monkeypatch.setattr("sys.stdin", stdin)
        assert run_cli(["estimate", "--k", "fixed:2", "--xi0", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "xi0" in captured.err
        assert stdin.tell() == 0

    def test_wrong_header_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0,1.0\n")
        assert run_cli(["estimate", "--in", str(bad), "--out", str(tmp_path / "e.json")]) == 2

    def test_boundary_data_still_exits_zero(self, tmp_path):
        # True parameter at the upper edge of the interval: the fit may hit
        # the boundary but the command succeeds.
        obs = self._simulate(tmp_path, theta="3.0", n="256")
        out = tmp_path / "est.json"
        assert run_cli(["estimate", "--in", str(obs), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload["boundary_hit"], bool)
        assert 2.0 <= payload["theta_hat"] <= 3.0


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(REGISTRY)), st.sampled_from(["lebesgue", "dirac:0.5", PIN_MIXTURE]),
           st.floats(0.8, 2.0), st.floats(-1.0, 1.0), st.integers(2, 60), st.integers(2, 6),
           st.integers(1, 60), st.integers(0, 2**31 - 1), st.booleans())
    def test_simulate_reads_back_and_estimate_matches_arrays(self, model, measure, theta, xi0, n,
                                                             m, k, seed, augmented):
        # The CSV simulate writes parses back to the simulated arrays
        # exactly, and the estimate JSON equals estimate_* on those arrays.
        k = min(k, n) if augmented else min(max(k, 2), n)
        common = ["--model", model, "--measure", measure, "--m", str(m), f"--xi0={xi0!r}"]
        mdl = get_model(model)
        coeffs = v_coefficients(measure_from_spec(_parse_measure(measure)))
        values, _ = simulate_values(mdl, theta, xi0, n, m, seed, reps=1)
        obs = observe_values(values, measure_from_spec(_parse_measure(measure)), n, m)[0]
        with tempfile.TemporaryDirectory() as tmp:
            csv, est = os.path.join(tmp, "obs.csv"), os.path.join(tmp, "est.json")
            sim = ["simulate", *common, f"--theta={theta!r}", "--n", str(n), "--seed", str(seed),
                   "--out", csv]
            if augmented:
                sim += ["--augmented", "--k", f"fixed:{k}"]
            assert run_cli(sim) == 0
            with open(csv) as f:
                parsed = _read_observation_csv(f.read())
            assert run_cli(["estimate", *common, "--k", f"fixed:{k}", "--in", csv,
                            "--out", est]) == 0
            with open(est) as f:
                payload = json.load(f)
        if augmented:
            edge_values = values[0, block_edges(n, k) * m]
            assert parsed[0] == "augmented" and parsed[3] == k
            assert np.array_equal(parsed[1], obs) and np.array_equal(parsed[2], edge_values)
            expected = estimate_augmented(obs, edge_values, mdl, coeffs, k)
        else:
            assert parsed[0] == "means" and np.array_equal(parsed[1], obs)
            expected = estimate_means_only(obs, xi0, mdl, coeffs, k)
        assert type(payload["iterations"]) is int and type(payload["boundary_hit"]) is bool
        assert {key: payload[key] for key in dataclasses.asdict(expected)} == dataclasses.asdict(
            expected)


class TestVerifyCommand:
    def test_chi2_passes_and_writes_reports(self, tmp_path):
        out = tmp_path / "report"
        code = run_cli(["verify", "--experiment", "chi2", "--M", "20000",
                        "--seed", "7", "--workers", "1", "--out", str(out)])
        assert code == 0
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("experiment,n,k,M,stat,value,stderr,target,tol,pass")
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["all_pass"] is True
        assert data["seed"] == 7

    def test_seed_alone_reseeds_default_suite(self, tmp_path):
        code = run_cli(["verify", "--experiment", "chi2", "--seed", "11", "--workers", "1",
                        "--out", str(tmp_path / "r")])
        assert code in (0, 1)
        run = json.loads((tmp_path / "r.json").read_text())["config"]["runs"][0]
        assert run["seed"] == 11
        assert run["replications"] == 100_000  # the default suite's chi2 run

    def test_non_finite_xi0_exits_2(self, tmp_path):
        out = tmp_path / "rep"
        assert run_cli(["verify", "--experiment", "tails", "--xi0", "nan",
                        "--out", str(out)]) == 2
        assert not (tmp_path / "rep.csv").exists()

    def test_unknown_experiment_exits_2(self, tmp_path):
        assert run_cli(["verify", "--experiment", "warp", "--out", str(tmp_path / "r")]) == 2

    def test_failing_tolerance_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"delta_mean": [50.0, 0.1]}}))
        code = run_cli(["verify", "--experiment", "chi2", "--M", "5000", "--seed", "7",
                        "--config", str(cfg), "--workers", "1",
                        "--out", str(tmp_path / "r")])
        assert code == 1

    def test_default_suite_takes_config_tolerances(self, tmp_path):
        # No override flag: the default chi2 run still takes the file's band.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"delta_mean": [50.0, 0.1]}}))
        out = tmp_path / "r"
        code = run_cli(["verify", "--experiment", "chi2", "--config", str(cfg),
                        "--workers", "1", "--out", str(out)])
        assert code == 1
        rows = [line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
        delta_mean = next(row for row in rows if row[4] == "delta_mean")
        assert float(delta_mean[7]) == 50.0 and delta_mean[9] == "0"

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 64000, "seed": 3}))
        code = run_cli(["verify", "--experiment", "chi2", "--M", "20000",
                        "--config", str(cfg), "--workers", "1",
                        "--out", str(tmp_path / "r")])
        assert code == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["config"]["runs"][0]["replications"] == 20000
        assert data["config"]["runs"][0]["seed"] == 3

    def test_worker_flag_does_not_change_csv(self, tmp_path):
        # Small replication counts may fail statistical rows (exit 1); the
        # contract under test is that the bytes do not depend on --workers.
        argv = ["verify", "--experiment", "coupling", "--model", "sine_scale",
                "--n", "64", "--n", "128", "--k", "fixed:4", "--M", "60", "--seed", "9"]
        assert run_cli(argv + ["--workers", "1", "--out", str(tmp_path / "w1")]) in (0, 1)
        assert run_cli(argv + ["--workers", "3", "--out", str(tmp_path / "w3")]) in (0, 1)
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()

    def test_config_file_sets_every_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        settings = {"experiment": "tails", "model": "sine_scale",
                    "measure": {"kind": "atomic", "atoms": [[0.5, 1.0]]}, "theta0": 1.2,
                    "h": 0.5, "n": [64, 128], "k": "fixed:4", "M": 200, "m": 4, "xi0": 0.3,
                    "tolerances": {"exceedance_at_zero": [1.0, 0.5]}}
        cfg.write_text(json.dumps(settings))
        code = run_cli(["verify", "--config", str(cfg), "--seed", "5", "--workers", "1",
                        "--out", str(tmp_path / "r")])
        assert code in (0, 1)
        run = json.loads((tmp_path / "r.json").read_text())["config"]["runs"][0]
        assert run["experiment"] == "tails" and run["seed"] == 5
        assert run["model"] == "sine_scale"
        assert run["measure"] == {"kind": "atomic", "atoms": [[0.5, 1.0]]}
        assert run["theta0"] == 1.2 and run["h"] == 0.5
        assert run["n_list"] == [64, 128]
        assert run["k_rule"] == "fixed:4"
        assert run["replications"] == 200 and run["m"] == 4
        assert run["xi0"] == 0.3
        assert run["tolerances"] == {"exceedance_at_zero": [1.0, 0.5]}

    def test_expansion_sine_reports_without_oracle(self, tmp_path):
        code = run_cli(["verify", "--experiment", "expansion", "--model", "sine_scale",
                        "--n", "128", "--M", "60", "--seed", "7", "--workers", "1",
                        "--out", str(tmp_path / "r")])
        assert code in (0, 1)
        csv_text = (tmp_path / "r.csv").read_text()
        assert "mean_log_lr" not in csv_text
        assert "mean_score_stat" in csv_text
