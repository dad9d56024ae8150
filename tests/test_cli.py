"""End-to-end tests for the command-line interface and file formats."""

import csv
import json
import os
import warnings
from functools import partial

import numpy as np
import pytest

from spdmeans import (
    SuiteConfig,
    check_chain,
    check_limit_sandwich,
    check_limit_spectral,
    check_spectral_not_monotone,
    check_trace_corollary,
    cli,
    hermitian_eig,
    mat_power,
    matrixio,
    metric_mean,
    run_suite,
    sample_pd,
    spectral_mean,
    summarize,
)
from spdmeans.errors import NonHermitianInput
from spdmeans.suite import MONOTONE_COUNTEREXAMPLE, NATLOG_COUNTEREXAMPLE, REPRODUCTION, is_failure


def write(tmp_path, name, M):
    path = tmp_path / name
    matrixio.write_matrix(path, M)
    return str(path)


class TestMatrixFiles:
    def test_roundtrip_real_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        path = write(tmp_path, "m.json", M)
        assert np.array_equal(matrixio.read_matrix(path), M)

    def test_roundtrip_complex_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = write(tmp_path, "m.json", M)
        assert np.array_equal(matrixio.read_matrix(path), M)

    def test_real_valued_complex_array_reads_back_real(self, tmp_path):
        M = np.eye(2, dtype=complex)
        path = write(tmp_path, "m.json", M)
        back = matrixio.read_matrix(path)
        assert not np.iscomplexobj(back)
        assert np.array_equal(back, np.eye(2))

    def test_json_layout_is_pinned(self):
        """Containers holding a container take one entry per line, indented
        two spaces a level; flat lists and scalars stay on one line.  A
        numpy int64 is not a Python int, so a list holding one is not flat."""
        obj = {"empty_dict": {}, "empty_list": [], "flat": [True, 1, 2.5, "x"],
               "lists": [[1, 2], []], "dicts": [{"a": None, "b": {"c": [False]}}, {}],
               "tuple": (1, 0.1), "int64": np.int64(7),
               "numpy": [np.int64(3), np.float64(0.1)], "none": None}
        assert matrixio.dumps(obj) == (
            '{\n  "empty_dict": {},\n  "empty_list": [],\n  "flat": [true, 1, 2.5, "x"],\n'
            '  "lists": [\n    [1, 2],\n    []\n  ],\n'
            '  "dicts": [\n    {\n      "a": null,\n      "b": {\n        "c": [false]\n      }\n'
            '    },\n    {}\n  ],\n'
            '  "tuple": [1, 0.10000000000000001],\n  "int64": 7,\n'
            '  "numpy": [\n    3,\n    0.10000000000000001\n  ],\n  "none": null\n}\n')

    @pytest.mark.parametrize(
        "inf", [float("inf"), -float("inf"), np.float64("inf"), np.float32("-inf")],
        ids=["python", "python-negative", "numpy", "numpy-float32-negative"])
    def test_report_infinity_is_null(self, inf):
        """Python and numpy floats take one rule: an infinity is null, a finite value a float."""
        obj = matrixio.sanitize({"inf": inf, "finite": type(inf)(0.5)})
        assert matrixio.dumps(obj) == '{\n  "inf": null,\n  "finite": 0.5\n}\n'
        assert type(obj["finite"]) is float

    def test_complex_matrix_file_is_pinned(self, tmp_path):
        path = write(tmp_path, "m.json", np.array([[2.0, 1 - 0.5j], [1 + 0.5j, 1.0 / 3.0]]))
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == (
                '{\n  "n": 2,\n  "complex": true,\n'
                '  "data_re": [\n    [2, 1],\n    [1, 0.33333333333333331]\n  ],\n'
                '  "data_im": [\n    [0, -0.5],\n    [0.5, 0]\n  ]\n}\n')

    def test_malformed_payloads_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            matrixio.read_matrix(path)
        path.write_text(json.dumps({"n": 2, "complex": False, "data_re": [[1.0]]}))
        with pytest.raises(ValueError):
            matrixio.read_matrix(path)
        path.write_text(json.dumps({"n": 1, "complex": True, "data_re": [[1.0]]}))
        with pytest.raises(ValueError):
            matrixio.read_matrix(path)


class TestMeanCommand:
    def test_sharp_commuting(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", np.eye(2))
        b = write(tmp_path, "b.json", np.diag([4.0, 9.0]))
        out = str(tmp_path / "mean.json")
        assert cli.main(["mean", "sharp", a, b, "--t", "0.5", "--out", out]) == 0
        M = matrixio.read_matrix(out)
        np.testing.assert_allclose(M, np.diag([2.0, 3.0]), atol=1e-12)
        printed = capsys.readouterr().out
        assert "eigenvalues:" in printed and "determinant:" in printed

    def test_natural_reference_pair(self, tmp_path, capsys):
        ce = NATLOG_COUNTEREXAMPLE
        a = write(tmp_path, "a.json", ce["A"])
        b = write(tmp_path, "b.json", ce["B"])
        out = str(tmp_path / "nat.json")
        code = cli.main(["mean", "natural", a, b, "--t", str(1.0 / 3.0), "--out", out])
        assert code == 0
        line = [
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("eig")
        ][0]
        eigs = sorted((float(v) for v in line.split(":")[1].split()), reverse=True)
        np.testing.assert_allclose(eigs, ce["printed_mean_spectrum"], atol=5e-4)

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        good = write(tmp_path, "g.json", np.eye(2))
        code = cli.main(["mean", "sharp", str(bad), good, "--t", "0.5",
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        good = write(tmp_path, "g.json", np.eye(2))
        code = cli.main(["mean", "sharp", str(tmp_path / "nope.json"), good,
                         "--t", "0.5", "--out", str(tmp_path / "o.json")])
        assert code == 2

    @pytest.mark.parametrize("singular", [np.diag([2.0, 0.0, 1.0]), np.outer([1.0, 2.0, 0.5],
                                                                          [1.0, 2.0, 0.5])],
                             ids=["diagonal", "rank-one"])
    def test_singular_input_exits_2(self, tmp_path, capsys, singular):
        bad = write(tmp_path, "singular.json", singular)
        good = write(tmp_path, "g.json", np.eye(3))
        out = tmp_path / "o.json"
        for kind in ("sharp", "natural"):
            assert cli.main(["mean", kind, good, bad, "--t", "0.5", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: eigenvalue") and "relative floor" in err
        assert not out.exists()

    def test_non_pd_input_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "neg.json", np.diag([1.0, -1.0]))
        good = write(tmp_path, "g.json", np.eye(2))
        code = cli.main(["mean", "sharp", bad, good, "--t", "0.5",
                         "--out", str(tmp_path / "o.json")])
        assert code == 2


class TestVerifyCommand:
    def run_verify(self, tmp_path, tag, extra=()):
        csv_path = str(tmp_path / f"report_{tag}.csv")
        json_path = str(tmp_path / f"report_{tag}.json")
        code = cli.main([
            "verify", "--trials", "8", "--limit-trials", "2", "--seed", "13",
            "--out-csv", csv_path, "--out-json", json_path, *extra,
        ])
        return code, csv_path, json_path

    def test_small_run_passes(self, tmp_path, capsys):
        code, csv_path, json_path = self.run_verify(tmp_path, "a")
        assert code == 0
        rows = list(csv.DictReader(open(csv_path)))
        assert set(matrixio.REPORT_COLUMNS) == set(rows[0].keys())
        summary = json.loads(open(json_path).read())
        assert summary["ok"] is True
        assert summary["checks"]["counterexample_natlog"]["expected"] == "false"

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        _, csv_a, _ = self.run_verify(tmp_path, "b1")
        _, csv_b, _ = self.run_verify(tmp_path, "b2")
        assert open(csv_a, "rb").read() == open(csv_b, "rb").read()

    def test_zero_trials_only_fixed_rows(self, tmp_path, capsys):
        csv_path = str(tmp_path / "zero.csv")
        code = cli.main([
            "verify", "--trials", "0", "--seed", "1",
            "--out-csv", csv_path, "--out-json", str(tmp_path / "zero.json"),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(csv_path)))
        assert rows and all(int(r["trial"]) < 0 for r in rows)
        ids = {r["check_id"] for r in rows}
        assert {"counterexample_natlog", "counterexample_monotone"} <= ids

    def test_forced_out_of_range_still_passes(self, tmp_path, capsys):
        code, csv_path, json_path = self.run_verify(
            tmp_path, "c", extra=("--s", "0.5,1,2.1", "--force-out-of-range",
                                  "--trials", "30"),
        )
        assert code == 0
        rows = list(csv.DictReader(open(csv_path)))
        assert any(r["check_id"] == "counterexample_natlog" for r in rows)

    def test_unreproduced_counterexample_is_listed(self, tmp_path, capsys, monkeypatch):
        # a false verdict whose reference values do not reproduce fails,
        # and the failing row must be listed with the summary's count
        ce = NATLOG_COUNTEREXAMPLE
        monkeypatch.setitem(ce, "printed_mean", ce["printed_mean"] + 1.0)
        code, _, json_path = self.run_verify(tmp_path, "e", extra=("--trials", "0"))
        assert code == 1
        summary = json.loads(open(json_path).read())
        assert summary["checks"]["counterexample_natlog"]["failures"] == 1
        listed = [row["check_id"] for row in summary["failure_rows"]]
        assert listed == ["counterexample_natlog"]
        assert summary["failure_rows"][0]["detail"]["reproduction_ok"] == 0.0

    def test_json_report_is_the_summary(self, tmp_path, capsys):
        """summarize builds the whole JSON report: its failure rows are the
        rows is_failure picks, in row order, and verify writes it as is."""
        cfg = SuiteConfig(tol=1e-14, trials=20, limit_trials=2)
        outcomes = run_suite(cfg)
        summary = summarize(outcomes, cfg)
        failing = [out for out in outcomes if is_failure(out)]
        assert failing and summary["ok"] is False
        assert len(summary["failure_rows"]) == len(failing)
        for row, out in zip(summary["failure_rows"], failing):
            assert list(row) == ["check_id", "trial", "seed", "worst_margin", "detail", "witness"]
            assert (row["check_id"], row["trial"], row["seed"], row["worst_margin"]) == (
                out.check_id, out.trial, out.seed, out.worst_margin)
            assert row["detail"] is out.detail and row["witness"] is out.witness
        json_path = tmp_path / "report.json"
        code = cli.main(["verify", "--tol", "1e-14", "--trials", "20", "--limit-trials", "2",
                         "--out-csv", str(tmp_path / "report.csv"), "--out-json", str(json_path)])
        assert code == 1
        assert json_path.read_bytes() == matrixio.dumps(matrixio.sanitize(summary)).encode()

    def test_out_of_range_without_force_is_config_error(self, tmp_path, capsys):
        code, *_ = self.run_verify(tmp_path, "d", extra=("--s", "0.5,2.1"))
        assert code == 2

    def test_out_prefix_writes_both_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        args = ["verify", "--trials", "3", "--limit-trials", "1", "--seed", "4"]
        assert cli.main([*args, "--out", str(a / "P")]) == 0
        assert cli.main([*args, "--out-csv", str(b / "P.csv"),
                         "--out-json", str(b / "P.json")]) == 0
        for name in ("P.csv", "P.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_force_flag_overrides_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 2, "limit_trials": 1, "s_grid": [0.5, 2.5],
                                        "force_out_of_range": False}))
        json_path = tmp_path / "x.json"
        args = ["verify", "--config", str(cfg_path),
                "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(json_path)]
        assert cli.main(args) == 2 and not json_path.exists()
        assert cli.main([*args, "--force-out-of-range"]) == 0
        assert json.loads(json_path.read_text())["config"]["force_out_of_range"] is True

    @pytest.mark.parametrize("trials", [2, 0])
    def test_s_grid_without_exponent_for_a_weight_exits_2_without_report(
            self, tmp_path, capsys, trials):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": trials, "limit_trials": 1, "s_grid": [1.9],
                                        "s_at_bound": False}))
        csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
        code = cli.main(["verify", "--config", str(cfg_path),
                         "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 2
        assert "s_grid" in capsys.readouterr().err
        assert not csv_path.exists() and not json_path.exists()

    def test_flags_override_config_file_fields(self, tmp_path, capsys):
        # the file's fields, each given flag on top; the others keep the file's value
        data = {"trials": 3, "limit_trials": 1, "dims": [2, 3], "seed": 4, "t_grid": [0.25],
                "r_grid": [2.0], "s_grid": [1.0], "p_min_exp": 8, "spread": 10.0, "tol": 1e-7,
                "psd_tol": 1e-8, "force_out_of_range": False}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        json_path = tmp_path / "x.json"
        code = cli.main(["verify", "--config", str(cfg_path), "--trials", "2", "--seed", "9",
                         "--dims", "2,4", "--t", "0.5,0.75", "--r", "0.3", "--s", "0.5,2.5",
                         "--force-out-of-range", "--out-csv", str(tmp_path / "x.csv"),
                         "--out-json", str(json_path)])
        assert code == 0
        flags = {"trials": 2, "seed": 9, "dims": [2, 4], "t_grid": [0.5, 0.75], "r_grid": [0.3],
                 "s_grid": [0.5, 2.5], "force_out_of_range": True}
        assert json.loads(json_path.read_text())["config"] == {
            **SuiteConfig().to_dict(), **data, **flags}

    @pytest.mark.parametrize("flag, value", [("--dims", "2,x"), ("--t", "0.5,x")])
    def test_malformed_list_flag_exits_2_without_report(self, tmp_path, capsys, flag, value):
        # argparse refuses it, as it refuses --seed x: usage line, exit 2, no report
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", flag, value, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: spdmeans verify")
        assert f"argument {flag}: not a comma-separated list of " in err
        assert not list(tmp_path.iterdir())

    def test_config_file_must_be_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[3]")
        code = cli.main(["verify", "--config", str(cfg_path), "--trials", "1",
                         "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")

    @pytest.mark.parametrize("p_min_exp", [58, 60])
    def test_small_p_breakdown_is_named(self, tmp_path, capsys, p_min_exp):
        # doubles overflow in the 1/p power of a limit member: exit 2, no report
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, csv_path, json_path = self.run_verify(
                tmp_path, "s", extra=("--p-min-exp", str(p_min_exp), "--trials", "1",
                                      "--limit-trials", "3"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the 1/p power of a limit family member overflows at p=")
        assert "Warning" not in err
        assert not os.path.exists(csv_path) and not os.path.exists(json_path)

    def test_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 4, "limit_trials": 1, "seed": 9}))
        csv_path = str(tmp_path / "cfg_report.csv")
        code = cli.main([
            "verify", "--config", str(cfg_path),
            "--out-csv", csv_path, "--out-json", str(tmp_path / "cfg_report.json"),
        ])
        assert code == 0

    @pytest.mark.parametrize("text, error", [
        (json.dumps({"trials": -3}), "error: config field trials must be an integer >= 0"),
        (None, "error: cannot read config"),
        ("{not json", "error: config is not valid JSON"),
    ], ids=["negative-trials", "missing-file", "invalid-json"])
    def test_bad_config_exits_2(self, tmp_path, capsys, text, error):
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        code = cli.main([
            "verify", "--config", str(cfg_path),
            "--out-csv", str(tmp_path / "x.csv"),
            "--out-json", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(error)
        # 2^-1075 underflows to 0.0: no grid point, so no run
        code, csv_path, json_path = self.run_verify(
            tmp_path, "p", extra=("--p-min-exp", "1075", "--trials", "1", "--limit-trials", "1"))
        assert code == 2
        assert capsys.readouterr().err.endswith("error: p_min_exp must lie in [0, 1074], got 1075\n")
        assert not os.path.exists(csv_path) and not os.path.exists(json_path)

    @pytest.mark.parametrize("seed", [1.5, True, "7", -1])
    def test_bad_config_seed_exits_2_without_report(self, tmp_path, capsys, seed):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 1, "seed": seed}))
        csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
        code = cli.main(["verify", "--config", str(cfg_path),
                         "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not csv_path.exists() and not json_path.exists()

    @pytest.mark.parametrize("data", [
        {"trials": "7"}, {"spread": "10"}, {"dims": [2, "6"]}, {"trials": 1.5, "limit_trials": 1},
        {"trials": 1, "s_at_bound": "no"}, {"trials": 1, "t_grid": 0.5}, {"trials": 1, "tol": None},
    ])
    def test_bad_config_field_type_exits_2_without_report(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
        code = cli.main(["verify", "--config", str(cfg_path),
                         "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field") and "Traceback" not in err
        assert not csv_path.exists() and not json_path.exists()

    @pytest.mark.parametrize("dims", ["2", "2,3,4"])
    def test_bad_dims_flag_exits_2_without_report(self, tmp_path, capsys, dims):
        code, csv_path, json_path = self.run_verify(tmp_path, "d", extra=("--dims", dims))
        assert code == 2
        assert "dims" in capsys.readouterr().err
        assert not (tmp_path / "report_d.csv").exists()

    def test_negative_seed_flag_exits_2_without_report(self, tmp_path, capsys):
        code, csv_path, json_path = self.run_verify(tmp_path, "f", extra=("--seed", "-1"))
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "report_f.csv").exists()
        assert not (tmp_path / "report_f.json").exists()


class TestLimitCommand:
    def test_operands_too_wide_for_doubles_name_the_grid_point(self, tmp_path, capsys):
        """exp(A) nat_t exp(B) at p = 1 needs condition numbers near e^53
        for these samples (eigenvalues up to 53.2): the error names that
        grid point instead of quoting an eigenvalue of a member."""
        a = write(tmp_path, "a.json", sample_pd(4, 3, 100.0))    # spdmeans sample 4 3 100
        b = write(tmp_path, "b.json", sample_pd(4, 5, 10.0))
        out = tmp_path / "lim.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["limit", a, b, "--t", "0.3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: exp(pA) or exp(pB) leaves the positive-definite floor at p=1 (2^0): "
            "the spectra of A and B are too wide for doubles\n")
        assert not out.exists()

    def test_equal_arguments_zero_error(self, tmp_path, capsys):
        H = np.diag([0.3, -0.2])
        a = write(tmp_path, "a.json", H)
        out = str(tmp_path / "lim.csv")
        assert cli.main(["limit", a, a, "--t", "0.5", "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 11
        assert all(float(r["err_spectral_mean"]) <= 1e-11 for r in rows)
        assert all(float(r["err_sandwich"]) <= 1e-11 for r in rows)

    def test_commuting_inputs(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", np.diag([0.3, -0.2]))
        b = write(tmp_path, "b.json", np.diag([0.1, 0.4]))
        out = str(tmp_path / "lim.csv")
        assert cli.main(["limit", a, b, "--t", "0.25", "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert all(float(r["err_spectral_mean"]) <= 1e-12 for r in rows)
        assert all(float(r["err_sandwich"]) <= 1e-12 for r in rows)

    def test_random_pair_descends_below_threshold(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        Z = rng.standard_normal((3, 3))
        A = (Z + Z.T) / 2
        A /= np.max(np.abs(np.linalg.eigvalsh(A)))
        Z = rng.standard_normal((3, 3))
        B = (Z + Z.T) / 2
        B /= np.max(np.abs(np.linalg.eigvalsh(B)))
        a = write(tmp_path, "a.json", A)
        b = write(tmp_path, "b.json", B)
        out = str(tmp_path / "lim.csv")
        assert cli.main(["limit", a, b, "--t", "0.7", "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        errs = [float(r["err_spectral_mean"]) for r in rows]
        assert all(b <= a * (1 + 1e-8) for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-2
        traces = [float(r["trace_spectral"]) for r in rows]
        target = float(rows[0]["trace_target"])
        assert all(tr >= target * (1 - 1e-10) for tr in traces)

    def test_small_p_breakdown_is_named(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", sample_pd(3, 1, 10.0))
        b = write(tmp_path, "b.json", sample_pd(3, 2, 10.0))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["limit", a, b, "--t", "0.3", "--p-min-exp", "60", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: the 1/p power of a limit family member overflows at "
                       "p=1.73472e-18 (2^-59): doubles do not resolve the limit this close "
                       "to p = 0\n")
        assert not out.exists()

    def test_mismatched_shapes_exit_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", np.diag([0.3, -0.2]))
        b = write(tmp_path, "b.json", np.diag([0.3, -0.2, 0.1]))
        out = tmp_path / "x.csv"
        assert cli.main(["limit", a, b, "--t", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: operand shapes differ: (2, 2) vs (3, 3)\n"
        assert not out.exists()

    def test_non_hermitian_input_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", np.array([[0.0, 1.0], [2.0, 0.0]]))
        code = cli.main(["limit", bad, bad, "--t", "0.5",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--p-min-exp", "-1", "p_min_exp"), ("--p-min-exp", "1075", "p_min_exp"), ("--t", "1.5", "t"),
    ], ids=["p_min_exp=-1", "p_min_exp=1075", "t=1.5"])
    def test_out_of_range_parameter_exits_2_without_file(self, tmp_path, capsys,
                                                          flag, value, field):
        # each is rejected before any limit member is computed (2^-1075 underflows to 0.0)
        a = write(tmp_path, "a.json", np.diag([0.3, -0.2]))
        out = tmp_path / "x.csv"
        options = {"--t": "0.5", "--p-min-exp": "10", flag: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["limit", a, a, *(x for kv in options.items() for x in kv),
                             "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must lie in [0, ") and "Warning" not in err
        assert not out.exists()


class TestCounterexampleCommand:
    def test_natlog_fixture_reproduces(self, capsys):
        assert cli.main(["counterexample", "remark37"]) == 0
        assert "reproduction PASS" in capsys.readouterr().out

    def test_monotone_fixture_reproduces(self, capsys):
        assert cli.main(["counterexample", "loewner"]) == 0
        assert "reproduction PASS" in capsys.readouterr().out

    def test_unreproduced_fixture_fails(self, capsys, monkeypatch):
        ce = NATLOG_COUNTEREXAMPLE
        monkeypatch.setitem(ce, "printed_mean", ce["printed_mean"] + 1.0)
        assert cli.main(["counterexample", "remark37"]) == 1
        out = capsys.readouterr().out
        assert "entries (mean): 1.000e+00 (tolerance 0.001) FAIL" in out
        assert out.endswith("reproduction FAIL\n")

    @pytest.mark.parametrize("name, check_id", [("remark37", "counterexample_natlog"),
                                                ("loewner", "counterexample_monotone")])
    def test_prints_each_reproduction_row(self, capsys, monkeypatch, name, check_id):
        """Each REPRODUCTION row's label heads one reference (the printed
        values it names) and one delta line: both come from the table."""
        assert cli.main(["counterexample", name]) == 0
        lines = capsys.readouterr().out.splitlines()
        for _, label, _, _ in REPRODUCTION[check_id]:
            assert lines.count(f"reference {label}:") == 1
            assert sum(line.startswith(f"  {label}: ") for line in lines) == 1
        (key, label, tol, ref), *rest = REPRODUCTION[check_id]
        monkeypatch.setitem(REPRODUCTION, check_id, ((key, "RELABELLED", tol, ref), *rest))
        assert cli.main(["counterexample", name]) == 0
        out = capsys.readouterr().out
        assert "reference RELABELLED:\n" in out and f"reference {label}:" not in out

    def test_unknown_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["counterexample", "nonsense"])
        assert exc.value.code == 2


class TestSampleCommand:
    def test_spread_one_writes_identity(self, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        assert cli.main(["sample", "2", "7", "1", "--out", out]) == 0
        np.testing.assert_allclose(matrixio.read_matrix(out), np.eye(2), atol=1e-13)

    def test_deterministic_bytes(self, tmp_path, capsys):
        o1 = str(tmp_path / "s1.json")
        o2 = str(tmp_path / "s2.json")
        cli.main(["sample", "3", "42", "100", "--out", o1])
        cli.main(["sample", "3", "42", "100", "--out", o2])
        assert open(o1, "rb").read() == open(o2, "rb").read()

    def test_reread_passes_pd_validation(self, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        assert cli.main(["sample", "4", "1", "100", "--out", out]) == 0
        M = matrixio.read_matrix(out)
        np.testing.assert_allclose(M, sample_pd(4, 1, 100.0))
        assert np.linalg.eigvalsh(M)[0] > 0

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        assert cli.main(["sample", "0", "1", "10",
                         "--out", str(tmp_path / "x.json")]) == 2
        for spread in ("0.5", "nan", "inf"):
            assert cli.main(["sample", "2", "1", spread,
                             "--out", str(tmp_path / "x.json")]) == 2
        assert cli.main(["sample", "3", "-1", "10",
                         "--out", str(tmp_path / "x.json")]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


def test_output_dir_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPDMEANS_OUT_DIR", str(tmp_path))
    assert cli.main(["sample", "2", "3", "10", "--out", "relative.json"]) == 0
    assert (tmp_path / "relative.json").exists()


NAN_PAIR = (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.diag([2.0, 1.0]))
LIMIT_CHECKS = (check_limit_spectral, check_limit_sandwich, check_trace_corollary)
BAD_GRIDS = ([np.inf, 1.0], [1.0, np.nan])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    partial(mat_power, NAN_PAIR[0], 0.5),
    partial(hermitian_eig, np.array([[np.inf, 0.0], [0.0, 1.0]])),
    partial(metric_mean, *NAN_PAIR, 0.5),
    partial(spectral_mean, *NAN_PAIR, 0.5),
    partial(check_chain, *NAN_PAIR, 0.5),
    *(partial(check, np.eye(2), np.eye(2), 0.5, grid) for check in LIMIT_CHECKS for grid in BAD_GRIDS),
    ("mean", "natural"),
    ("limit",),
], ids=["mat_power", "hermitian_eig", "metric_mean", "spectral_mean", "check_chain",
        *(f"{check.__name__}-{grid}" for check in LIMIT_CHECKS for grid in BAD_GRIDS),
        "spdmeans mean", "spdmeans limit"])
def test_non_finite_input_is_rejected_at_the_boundary(call, tmp_path, capsys):
    """A NaN or inf matrix entry or p grid point is refused where it enters
    the package, with the package's error and no numpy warning."""
    if callable(call):
        with pytest.raises((NonHermitianInput, ValueError), match="finite"):
            call()
        return
    nan = tmp_path / "nan.json"
    nan.write_text('{"n": 2, "complex": false, "data_re": [[NaN, 0.0], [0.0, 1.0]]}')
    out = tmp_path / "out.json"
    code = cli.main([*call, str(nan), write(tmp_path, "good.json", NAN_PAIR[1]),
                     "--t", "0.5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: matrix entries must be finite\n"
    assert not out.exists()


def test_monotone_fixture_fails_when_b1_does_not_dominate_b2(tmp_path, capsys, monkeypatch):
    """With B2 = B1 + I, and the references recomputed for it, only the
    precondition B1 >= B2 fails: the row is a failed reproduction in the
    library, the counterexample command and the report."""
    ce = MONOTONE_COUNTEREXAMPLE
    B2 = ce["B1"] + np.eye(2)
    N1, N2 = (spectral_mean(ce["A"], B, ce["t"]) for B in (ce["B1"], B2))
    monkeypatch.setitem(ce, "B2", B2)
    monkeypatch.setitem(ce, "printed_mean_b2", N2)
    monkeypatch.setitem(ce, "printed_diff_eigs", np.linalg.eigvalsh(N1 - N2))
    out = check_spectral_not_monotone()
    assert out.detail["b1_ge_b2"] < 0
    assert all(out.detail[key] <= tol for key, _, tol, _ in REPRODUCTION[out.check_id])
    assert out.detail["reproduction_ok"] == 0.0
    assert is_failure(out)
    assert cli.main(["counterexample", "loewner"]) == 1
    capsys.readouterr()
    prefix = str(tmp_path / "r")
    assert cli.main(["verify", "--trials", "0", "--out", prefix]) == 1
    assert "counterexample_monotone: rows=1 failures=1 " in capsys.readouterr().out
    summary = json.loads((tmp_path / "r.json").read_text())
    assert summary["checks"]["counterexample_monotone"]["failures"] == 1
