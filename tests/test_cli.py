import csv
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np
import pytest

import varexp
from varexp import SimConfig, eval_phi, gbm, simulate_coupled
from varexp.cli import COMMANDS, _config_record, cmd_smile, main
from varexp.config import (RunConfig, _document, _parse, bundled_paper_text, load_config,
                           load_paper_config)
import golden
from conftest import replaced


SIMD_FOUND = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
SMILE = {"strikes": [0.9, 1.0, 1.1]}


def _write_config(tmp_path, **overrides):
    """Small, fast run config for CLI tests."""
    cfg = {
        "models": [
            {"label": "gbm", "mu": 0.05, "sigma": 0.2,
             "exponent": {"kind": "constant", "gamma": 1.0}},
            {"label": "p1", "mu": 0.05, "sigma": 0.2,
             "exponent": {"kind": "exp_decay", "a": 0.005, "b": 0.1,
                          "p_minus": 1.0, "p_plus": 1.005,
                          "delta": 1.0, "m0": 0.0005, "c0": 0.6725, "alpha": 2.0}},
        ],
        "sim": {"t_horizon": 1.0, "dt": 0.01, "n_base_paths": 200,
                "antithetic": True, "seed": 99, "scheme": "log_milstein", "x0": 1.0},
        "bound_cases": [[0.1, 1.1], [0.01, 1.2]],
        "smile": SMILE,
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv", "json", "svg"]},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _non_gbm_reference_config(tmp_path):
    """The default test config with p1 listed before gbm."""
    raw = json.loads(_write_config(tmp_path).read_text())
    return _write_config(tmp_path, models=raw["models"][::-1])


class TestCheckExponent:
    def test_passing_config(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["check-exponent", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "admissibility_gbm.json").exists()
        assert (out / "admissibility_p1.json").exists()
        assert (out / "run_manifest.json").exists()

    def test_failing_exponent_exits_one(self, tmp_path):
        cfg = _write_config(tmp_path, models=[
            {"label": "cev2", "mu": 0.05, "sigma": 0.2,
             "exponent": {"kind": "constant", "gamma": 2.0}},
        ])
        assert main(["check-exponent", "--config", str(cfg)]) == 1
        report = json.loads((tmp_path / "out" / "admissibility_cev2.json").read_text())
        assert report["passed"] is False
        assert report["limit_condition"]["passed"] is False

    def test_delta_past_the_cutoff_exits_one(self, tmp_path, capsys):
        # the check's grid ends at 1e4, so it has no tail past such a delta
        raw = json.loads(_write_config(tmp_path).read_text())
        raw["models"][1]["exponent"]["delta"] = 2e4
        cfg = _write_config(tmp_path, models=raw["models"])
        assert main(["check-exponent", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "precondition failed: delta 20000 must be below the check's cutoff 10000\n"

    def test_follows_format(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["check-exponent", "--config", str(cfg), "--format", "csv"]) == 0
        out = tmp_path / "out"
        assert not list(out.glob("admissibility_*.json"))
        assert json.loads((out / "run_manifest.json").read_text())["files"] == {}

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_unknown_format_exits_two(self, tmp_path, capsys, where):
        # the config file and --format are checked by the same code
        if where == "config":
            cfg, flag = _write_config(tmp_path, output={"dir": str(tmp_path / "out"),
                                                        "formats": ["csv", "pdf"]}), []
        else:
            cfg, flag = _write_config(tmp_path), ["--format", "csv,pdf"]
        assert main(["check-exponent", "--config", str(cfg), *flag]) == 2
        assert capsys.readouterr().err == "config error: unknown output format 'pdf'\n"
        assert not list((tmp_path / "out").glob("*"))

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["check-exponent", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-exponent", "--config", str(bad)]) == 2

    def test_schema_violation_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"models": [], "sim": {}}))
        assert main(["check-exponent", "--config", str(bad)]) == 2


class TestBoundTable:
    def test_output_files(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["bound-table", "--config", str(cfg)]) == 0
        csv = (tmp_path / "out" / "bound_table.csv").read_text().splitlines()
        assert csv[0] == "case,lambda,R,bound_p1"
        assert len(csv) == 3

    def test_empty_cases_header_only(self, tmp_path):
        cfg = _write_config(tmp_path, bound_cases=[])
        assert main(["bound-table", "--config", str(cfg)]) == 0
        csv = (tmp_path / "out" / "bound_table.csv").read_text().splitlines()
        assert csv == ["case,lambda,R,bound_p1"]

    def test_non_gbm_reference_exits_two(self, tmp_path):
        cfg = _non_gbm_reference_config(tmp_path)
        assert main(["bound-table", "--config", str(cfg)]) == 2
        assert not list((tmp_path / "out").glob("*"))

    def test_bad_lambda_exits_two(self, tmp_path, capsys):
        # checked with the config, before any command runs
        cfg = _write_config(tmp_path, bound_cases=[[1.5, 2.0]])
        assert main(["bound-table", "--config", str(cfg)]) == 2
        assert "config error: bad bound case 0" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    def test_different_mu_exits_one(self, tmp_path, capsys):
        raw = json.loads(_write_config(tmp_path).read_text())
        raw["models"][1]["mu"] = 0.1
        cfg = _write_config(tmp_path, models=raw["models"])
        assert main(["bound-table", "--config", str(cfg)]) == 1
        assert ("coupled comparisons require all models to share mu and sigma"
                in capsys.readouterr().err)
        assert not list((tmp_path / "out").glob("*"))

    def test_overflowing_bound_exits_one(self, tmp_path, capsys):
        raw = json.loads(_write_config(tmp_path).read_text())
        cfg = _write_config(tmp_path, models=[{**m, "mu": 30} for m in raw["models"]])
        assert main(["bound-table", "--config", str(cfg)]) == 1
        assert "precondition failed: error bound coefficient overflows a float at mu=30.0" \
            in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["bound-table", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["bound-table", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "bound_table.csv").read_bytes() == \
            (tmp_path / "b" / "bound_table.csv").read_bytes()


class TestStrongError:
    def test_end_to_end(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["strong-error", "--config", str(cfg)]) == 0
        data = json.loads((tmp_path / "out" / "strong_error.json").read_text())
        assert data["reference"] == "gbm"
        row = data["results"][0]
        assert row["model"] == "p1"
        assert 0 < row["strong_error"] < 1e-2
        assert row["strong_error"] <= row["analytic_bound"]
        csv = (tmp_path / "out" / "strong_error.csv").read_text().splitlines()
        assert csv[0].startswith("model,strong_error,ci_half_width")

    @pytest.mark.parametrize("field,value", [("mu", 0.15), ("sigma", 0.3)])
    def test_no_bound_for_another_mu_or_sigma(self, tmp_path, capsys, field, value):
        # the paper's bound compares against a GBM of the model's own mu and
        # sigma; a third model that shares them keeps its bound
        raw = json.loads(_write_config(tmp_path).read_text())
        other = {**raw["models"][1], "label": "p1_other", field: value}
        cfg = _write_config(tmp_path, models=[*raw["models"], other])
        assert main(["strong-error", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "out" / "strong_error.json").read_text())["results"]
        assert [r["model"] for r in rows] == ["p1", "p1_other"]
        assert rows[0]["analytic_bound"] > 0 and rows[1]["analytic_bound"] is None
        csv = (tmp_path / "out" / "strong_error.csv").read_text().splitlines()
        bound = csv[0].split(",").index("analytic_bound")
        assert csv[1].split(",")[bound] != "" and csv[2].split(",")[bound] == ""
        out = capsys.readouterr().out.splitlines()
        assert "(bound n/a)" not in out[0] and out[1].endswith("(bound n/a)")

    @pytest.mark.parametrize("gamma,bounded", [(0.8, False), (1.3, True)])
    def test_no_bound_outside_p_at_least_one(self, tmp_path, capsys, gamma, bounded):
        # a CEV model with gamma < 1 is outside the bound's hypothesis p >= 1:
        # its error is written with no bound, and the run still succeeds
        raw = json.loads(_write_config(tmp_path).read_text())
        cev = {**raw["models"][0], "label": "cev", "exponent": {"kind": "constant",
                                                               "gamma": gamma}}
        cfg = _write_config(tmp_path, models=[raw["models"][0], cev])
        assert main(["strong-error", "--config", str(cfg)]) == 0
        row = json.loads((tmp_path / "out" / "strong_error.json").read_text())["results"][0]
        assert row["strong_error"] > 0
        assert (row["analytic_bound"] is not None) == bounded
        assert capsys.readouterr().out.endswith("(bound n/a)\n") != bounded
        # the bound table keeps refusing such a model
        assert main(["bound-table", "--config", str(cfg)]) == (0 if bounded else 1)

    def test_no_bound_when_p_leaves_its_declared_range(self, tmp_path, capsys):
        # gamma 0.8 declared with p_minus = p_plus = 1: |p - 1| = 0.2 exceeds
        # p_plus - 1 = 0, outside the bound's hypothesis; the other rows are
        # those of a run without that model
        raw = json.loads(_write_config(tmp_path).read_text())
        assert main(["strong-error", "--config", str(_write_config(tmp_path))]) == 0
        want = json.loads((tmp_path / "out" / "strong_error.json").read_text())["results"]
        cev = {**raw["models"][0], "label": "cev", "exponent": {
            "kind": "constant", "gamma": 0.8, "p_minus": 1.0, "p_plus": 1.0}}
        cfg = _write_config(tmp_path, models=[*raw["models"], cev])
        capsys.readouterr()
        assert main(["strong-error", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "out" / "strong_error.json").read_text())["results"]
        assert rows[:-1] == want and want[0]["analytic_bound"] > 0
        assert rows[-1]["model"] == "cev" and rows[-1]["strong_error"] > 0
        assert rows[-1]["analytic_bound"] is None
        assert capsys.readouterr().out.splitlines()[-1].endswith("(bound n/a)")

    def test_vol_range_is_phi_over_the_visited_states(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["strong-error", "--config", str(cfg)]) == 0
        row = json.loads((tmp_path / "out" / "strong_error.json").read_text())["results"][0]
        run = load_config(cfg)
        phi = eval_phi(run.models[1].exponent,
                       simulate_coupled(run.models, run.sim, run.labels)[1].values)
        assert (row["vol_range_lo"], row["vol_range_hi"]) == (phi.min(), phi.max())

    def test_single_model_exits_one(self, tmp_path):
        cfg = _write_config(tmp_path, models=[
            {"label": "gbm", "mu": 0.05, "sigma": 0.2,
             "exponent": {"kind": "constant", "gamma": 1.0}}])
        assert main(["strong-error", "--config", str(cfg)]) == 1

    def test_non_gbm_reference_exits_two(self, tmp_path):
        cfg = _non_gbm_reference_config(tmp_path)
        assert main(["strong-error", "--config", str(cfg)]) == 2
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
    @pytest.mark.parametrize("field", ["t_horizon", "dt", "x0", "mu", "sigma"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, field, value):
        # JSON's Infinity and NaN are rejected with the config, never simulated
        raw = json.loads(_write_config(tmp_path).read_text())
        section = raw["sim"] if field in raw["sim"] else raw["models"][1]
        section[field] = value
        cfg = _write_config(tmp_path, **{k: raw[k] for k in ("sim", "models")})
        assert main(["strong-error", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    def test_euler_scheme_streams(self, tmp_path):
        cfg = _write_config(tmp_path, sim={
            "t_horizon": 1.0, "dt": 0.01, "n_base_paths": 200, "antithetic": True,
            "seed": 99, "scheme": "euler", "x0": 1.0})
        assert main(["strong-error", "--config", str(cfg)]) == 0
        data = json.loads((tmp_path / "out" / "strong_error.json").read_text())
        assert 0 < data["results"][0]["strong_error"] < 1e-2

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["strong-error", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["strong-error", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--seed", "123"])
        a = (tmp_path / "a" / "strong_error.csv").read_text()
        b = (tmp_path / "b" / "strong_error.csv").read_text()
        assert a != b


class TestStreamingReductions:
    @pytest.mark.parametrize("command,reads", [
        ("simulate", {"extrema"}),
        ("strong-error", {"extrema", "sup_diffs"}),
    ], ids=["simulate", "strong-error"])
    def test_computes_only_what_it_writes(self, tmp_path, monkeypatch, command, reads):
        import varexp.cli as cli
        asked, run = [], cli.simulate_coupled_stats

        def spy(models, cfg, labels, reductions):
            asked.append(set(reductions))
            return run(models, cfg, labels, reductions)
        monkeypatch.setattr(cli, "simulate_coupled_stats", spy)
        assert main([command, "--config", str(_write_config(tmp_path))]) == 0
        assert asked == [reads]


class TestSimulate:
    def test_outputs(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        paths = (out / "sample_paths.csv").read_text().splitlines()
        assert paths[0] == "t,gbm,p1"
        assert len(paths) == 102  # header + 101 grid points
        hist = (out / "terminal_histogram_gbm.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"
        assert len(hist) == 65
        summary = json.loads((out / "batch_summary.json").read_text())
        assert {m["model"] for m in summary["models"]} == {"gbm", "p1"}
        assert all(m["min_value"] > 0 for m in summary["models"])
        assert (out / "sample_paths.svg").exists()

    def test_single_path_config(self, tmp_path):
        cfg = _write_config(tmp_path, sim={
            "t_horizon": 1.0, "dt": 0.1, "n_base_paths": 1, "antithetic": False,
            "seed": 4, "scheme": "log_milstein", "x0": 1.0})
        assert main(["simulate", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "batch_summary.json").read_text())
        assert all(m["n_paths"] == 1 for m in summary["models"])

    def test_drift_only_point_mass(self, tmp_path):
        # sigma 0 is the drift-only limit: at mu 0 every terminal is x0, and
        # the histogram of that point mass starts at it
        model = {"label": "flat", "mu": 0.0, "sigma": 0.0,
                 "exponent": {"kind": "constant", "gamma": 1.0}}
        sim = {"t_horizon": 1.0, "dt": 0.1, "n_base_paths": 4, "antithetic": True,
               "seed": 4, "scheme": "log_milstein", "x0": 1e4}
        cfg = _write_config(tmp_path, models=[model], sim=sim,
                            smile={"strikes": [1e4]})
        assert main(["simulate", "--config", str(cfg), "--format", "csv"]) == 0
        hist = (tmp_path / "out" / "terminal_histogram_flat.csv").read_text().splitlines()
        assert float(hist[1].split(",")[0]) == 1e4 and hist[1].endswith(",8")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("sample_paths.csv", "terminal_histogram_gbm.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_summary_matches_dense_run(self, tmp_path):
        # sigma 3 and a coarse euler step clamp paths at the positivity floor
        models = [{"label": "gbm", "mu": 0.05, "sigma": 0.2,
                   "exponent": {"kind": "constant", "gamma": 1.0}},
                  {"label": "wild", "mu": 0.0, "sigma": 3.0,
                   "exponent": {"kind": "constant", "gamma": 1.0}}]
        sim = {"t_horizon": 1.0, "dt": 0.25, "n_base_paths": 200, "antithetic": True,
               "seed": 17, "scheme": "euler", "x0": 1.0}
        cfg = _write_config(tmp_path, models=models, sim=sim)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "batch_summary.json").read_text())["models"]
        dense = simulate_coupled([gbm(0.05, 0.2), gbm(0.0, 3.0)], SimConfig(**sim), ["gbm", "wild"])
        for row, b in zip(summary, dense):
            assert row == {"model": b.model_label, "n_paths": 400,
                           "terminal_mean": float(b.terminal.mean()),
                           "terminal_variance": float(b.terminal.var(ddof=1)),
                           "min_value": float(b.values.min()), "max_value": float(b.values.max()),
                           "positivity_breaches": int(b.breach_counts.sum()),
                           "seed": 17, "scheme": "euler"}
        assert summary[1]["positivity_breaches"] > 0
        assert (out / "sample_paths.csv").read_text() == "t,gbm,wild\n" + "".join(
            f"{t:.12g},{x:.12g},{y:.12g}\n"
            for t, x, y in zip(dense[0].time_grid, dense[0].values[0], dense[1].values[0]))

    def test_csv_only_format(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--format", "csv"]) == 0
        out = tmp_path / "out"
        assert (out / "sample_paths.csv").exists()
        assert not (out / "sample_paths.svg").exists()
        assert not (out / "batch_summary.json").exists()


class TestSmileCommand:
    def test_outputs(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["smile", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for label in ("gbm", "p1"):
            lines = (out / f"smile_{label}.csv").read_text().splitlines()
            assert lines[0] == "strike,iv,se_low,se_high,flag"
            assert len(lines) == 4
        summary = json.loads((out / "smile_summary.json").read_text())
        assert summary["method"] == "coupled control variate vs gbm"
        assert (out / "smile.svg").exists()

    def test_no_smile_section_exits_two(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        del raw["smile"]
        cfg_path.write_text(json.dumps(raw))
        assert main(["smile", "--config", str(cfg_path)]) == 2

    def test_non_gbm_reference_exits_two(self, tmp_path):
        cfg = _non_gbm_reference_config(tmp_path)
        assert main(["smile", "--config", str(cfg)]) == 2
        assert not list((tmp_path / "out").glob("*"))

    def test_request_is_the_runs_terminals(self, tmp_path):
        # the smile prices the simulated terminals: its rate is the
        # reference's mu, its maturity t_horizon and its spot x0
        raw = json.loads(_write_config(tmp_path).read_text())
        for m in raw["models"]:
            m["mu"] = 0.03
        raw["sim"].update(t_horizon=2.5, dt=0.05, x0=1.7)
        req = _parse(raw).smile
        assert (req.strikes, req.rate, req.maturity, req.spot) == ((0.9, 1.0, 1.1), 0.03, 2.5, 1.7)

    def test_request_follows_a_changed_sim(self):
        # the request is read from the run as it is when the smile runs: a
        # config whose sim changed after loading prices at the new maturity,
        # as its document (the manifest's record) replays it
        cfg = load_paper_config()
        cfg.sim = replace(cfg.sim, n_base_paths=500, t_horizon=0.5)
        cfg.smile_n_base_paths = 500
        assert cmd_smile(cfg)[1] == cmd_smile(_parse(_document(cfg)))[1]
        assert cfg.smile.maturity == 0.5

    @pytest.mark.parametrize("key", ["rate", "maturity", "spot"])
    def test_derived_key_exits_two(self, tmp_path, capsys, key):
        # rate, maturity and spot come from the run, so the section has no such key
        cfg = _write_config(tmp_path, smile={**SMILE, key: 1.0})
        assert main(["smile", "--config", str(cfg)]) == 2
        assert f"bad smile section: unknown key {key!r}" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("value", [
        [0.9, float("nan"), 1.1], [0.9, 1.0, float("inf")]], ids=["strike_NaN", "strike_Infinity"])
    def test_non_finite_input_exits_two(self, tmp_path, capsys, value):
        # JSON's NaN and Infinity are rejected with the config, never simulated
        cfg = _write_config(tmp_path, smile={"strikes": value})
        assert main(["smile", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("command", ["smile", "strong-error"])
    def test_blow_up_names_the_configured_model(self, tmp_path, capsys, command):
        raw = json.loads(_write_config(tmp_path).read_text())
        raw["models"][1] = {"label": "wild", "mu": 0.05, "sigma": 50,
                            "exponent": {"kind": "constant", "gamma": 3}}
        raw["sim"]["dt"] = 0.25
        cfg = _write_config(tmp_path, **{k: raw[k] for k in ("sim", "models")})
        with np.errstate(all="ignore"):
            assert main([command, "--config", str(cfg)]) == 1
        assert "blew up at step 0 for model 'wild'" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", [0.1], ids=["mu"])
    def test_mu_other_than_rate_exits_two(self, tmp_path, capsys, mu):
        # a smile discounts at the reference's mu, so it prices only models
        # drifting at that rate
        raw = json.loads(_write_config(tmp_path).read_text())
        raw["models"][1]["mu"] = mu
        cfg = _write_config(tmp_path, models=raw["models"])
        assert main(["smile", "--config", str(cfg)]) == 2
        assert "config error: model 'p1' has mu 0.1, which differs from the reference's 0.05" \
            in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    def test_one_model_is_plain_monte_carlo(self, tmp_path):
        raw = json.loads(_write_config(tmp_path).read_text())
        cfg = _write_config(tmp_path, models=raw["models"][1:])
        for out in ("a", "b"):
            assert main(["smile", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        summary = json.loads((tmp_path / "a" / "smile_summary.json").read_text())
        assert summary["method"] == "plain Monte Carlo"
        assert list(summary["series"]) == ["p1"]
        lines = (tmp_path / "a" / "smile_p1.csv").read_text().splitlines()
        assert lines[0] == "strike,iv,se_low,se_high,flag" and len(lines) == 4
        for name in ("smile_p1.csv", "smile_summary.json", "smile.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["smile", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["smile", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("smile_gbm.csv", "smile_p1.csv", "smile.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _edited_config(tmp_path, section, key, value):
    """The default test config with raw[section][key] = value, or with
    raw[section] = value when key is None."""
    raw = json.loads(_write_config(tmp_path).read_text())
    if key is None:
        raw[section] = value
    elif section == "models":
        raw["models"][1][key] = value
    else:
        raw[section][key] = value
    return _write_config(tmp_path, **{section: raw[section]})


# Malformed or mistyped documents, each a (key path, value) edit of the test
# config: a missing or wrong JSON type, a number too large for a float, a
# value that made a constructor divide by zero, or a file that is not UTF-8.
_MALFORMED = {
    "bound_cases_int": (("bound_cases",), 5),
    "bound_cases_null": (("bound_cases",), None),
    "bound_cases_object": (("bound_cases",), {}),
    "bound_case_object": (("bound_cases", 0), {"x": 1}),
    "output_list": (("output",), []),
    "output_null": (("output",), None),
    "formats_null": (("output", "formats"), None),
    "formats_object": (("output", "formats"), {"csv": 1}),
    "dir_null": (("output", "dir"), None),
    "t_horizon_huge": (("sim", "t_horizon"), 10**400),
    "mu_huge": (("models", 1, "mu"), 10**400),
    "bound_case_R_huge": (("bound_cases", 0, 1), 10**400),
    "strike_huge": (("smile", "strikes", 0), 10**400),
    "exp_decay_b_zero": (("models", 1, "exponent", "b"), 0),
    "m0_NaN": (("models", 1, "exponent", "m0"), float("nan")),
    "sigma_true": (("models", 1, "sigma"), True),
    "dt_string": (("sim", "dt"), "0.01"),
    "label_null": (("models", 1, "label"), None),
    "label_true": (("models", 1, "label"), True),
    "label_number": (("models", 1, "label"), 5),
    # a lone surrogate is written as the byte it escapes: 0xe9, not UTF-8
    "not_utf8": (("output", "dir"), "out\udce9"),
}


class TestConfigErrors:
    """Config values that were coerced, or failed only when a command ran
    them, are config errors at load: exit 2, no file written."""

    @pytest.mark.parametrize("command,section,key,value", [
        ("simulate", "sim", "antithetic", "false"),
        ("simulate", "sim", "n_base_paths", 2.7),
        ("simulate", "sim", "n_base_paths", True),
        ("simulate", "sim", "seed", 1.5),
        ("check-exponent", "smile", "n_base_paths", "abc"),
        ("smile", "smile", "n_base_paths", 0),
        ("smile", "smile", "n_base_paths", 1e30),
        ("simulate", "sim", "n_base_paths", 2**64 + 1),
        ("check-exponent", "smile", None, [1, 2]),
        ("bound-table", "bound_cases", None, [[0.1, float("nan")]]),
        ("bound-table", "bound_cases", None, [[0.5, 1.0]]),
        ("bound-table", "bound_cases", None, [[0.5, float("inf")]]),
        ("check-exponent", "models", "label", "a/b"),
        ("check-exponent", "models", "label", ""),
    ], ids=["antithetic_string", "fractional_paths", "boolean_paths", "fractional_seed",
            "smile_paths_string", "smile_paths_zero", "smile_paths_huge", "paths_past_key",
            "smile_list", "bound_case_NaN", "bound_case_R_1", "bound_case_R_Infinity",
            "label_slash", "label_empty"])
    def test_exits_two(self, tmp_path, capsys, command, section, key, value):
        cfg = _edited_config(tmp_path, section, key, value)
        assert main([command, "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    def test_duplicate_label_exits_two(self, tmp_path, capsys):
        raw = json.loads(_write_config(tmp_path).read_text())
        raw["models"][1]["label"] = "gbm"
        cfg = _write_config(tmp_path, models=raw["models"])
        assert main(["check-exponent", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_flag_out_of_range(self, tmp_path, capsys, seed):
        cfg = _write_config(tmp_path)
        assert main(["strong-error", "--config", str(cfg), "--seed", seed]) == 2
        assert "config error: bad --seed" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    def test_integral_float_paths_run(self, tmp_path):
        cfg = _edited_config(tmp_path, "sim", "n_base_paths", 200.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        main(["simulate", "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "b")])
        for name in ("sample_paths.csv", "batch_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_deeply_nested_document_exits_two(self, tmp_path, capsys):
        # deeper than the JSON decoder's recursion limit
        cfg = tmp_path / "config.json"
        cfg.write_text('{"models": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["check-exponent", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("path,value", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_malformed_document_exits_two(self, tmp_path, monkeypatch, capsys, path, value):
        monkeypatch.chdir(tmp_path)  # where a relative output dir would go
        raw = replaced(json.loads(_write_config(tmp_path).read_text()), path, value)
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8", "surrogateescape"))
        assert main(["check-exponent", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


    # each key path adds a misspelling of a key its section knows
    @pytest.mark.parametrize("path,value", [
        (("sim", "antithetc"), False), (("smile", "n_base_path"), 100),
        (("models", 1, "sigm"), 0.3), (("models", 1, "exponent", "aa"), 0.01),
        (("outputs",), {"formats": ["csv"]}), (("output", "format"), ["csv"]),
    ], ids=["antithetc", "n_base_path", "sigm", "aa", "outputs", "format"])
    def test_unknown_key_exits_two(self, tmp_path, monkeypatch, capsys, path, value):
        monkeypatch.chdir(tmp_path)
        raw = replaced(json.loads(_write_config(tmp_path).read_text()), path, value)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        assert main(["bound-table", "--config", str(cfg)]) == 2
        assert f"unknown key {path[-1]!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestBundledConfig:
    def test_paper_fallback_resolves(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no paper.json on disk here
        assert main(["bound-table", "--config", "paper.json",
                     "--out", str(tmp_path / "out")]) == 0
        csv = (tmp_path / "out" / "bound_table.csv").read_text().splitlines()
        assert csv[0] == "case,lambda,R,bound_p1,bound_p2"
        assert len(csv) == 11
        assert csv[1] == "1,0.1,1.1,0.002922,0.000538"

    def test_only_the_bare_name_falls_back(self, tmp_path, monkeypatch, capsys):
        # a mistyped directory is a missing file, not the bundled default
        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "no_such_dir" / "paper.json"
        assert main(["bound-table", "--config", str(missing),
                     "--out", str(tmp_path / "out")]) == 2
        assert "config file not found" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repo_copy_matches_bundled(self):
        from varexp.config import bundled_paper_text
        repo_copy = Path(__file__).resolve().parents[1] / "paper.json"
        assert repo_copy.read_text() == bundled_paper_text()


class TestManifest:
    def test_contents(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["bound-table", "--config", str(cfg)])
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["command"] == "bound-table"
        assert manifest["seed"] == 99
        assert manifest["tool_version"]
        assert "config_sha256" in manifest and "created_utc" in manifest
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__, "simd": SIMD_FOUND}
        assert (manifest["n_paths"], manifest["n_steps"], manifest["workers"]) == (None, None, None)

    @pytest.mark.parametrize("command,n_paths", [("strong-error", 400), ("simulate", 400),
                                                 ("smile", 300)])
    def test_run_sizes(self, tmp_path, command, n_paths):
        cfg = _write_config(tmp_path, smile={**SMILE, "n_base_paths": 150})
        assert main([command, "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        # a run this small is one chunk, stepped in-process
        assert (manifest["n_paths"], manifest["n_steps"], manifest["workers"]) == (n_paths, 100, 1)

    def test_files_hold_sha256_of_each_data_file(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--format", "csv,json,svg"]) == 0
        out = tmp_path / "out"
        files = json.loads((out / "run_manifest.json").read_text())["files"]
        data = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir() if p.name != "run_manifest.json"}
        assert files == data
        assert {"sample_paths.csv", "batch_summary.json", "sample_paths.svg"} <= set(files)

    @staticmethod
    def _hash(cfg_path, out, *extra):
        assert main(["bound-table", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
        return json.loads((out / "run_manifest.json").read_text())["config_sha256"]

    def test_hash_covers_model_parameters(self, tmp_path):
        base = self._hash(_write_config(tmp_path), tmp_path / "a")
        raw = json.loads((tmp_path / "config.json").read_text())
        raw["models"][1]["exponent"]["a"] = 0.004
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert self._hash(tmp_path / "config.json", tmp_path / "b") != base

    def test_hash_ignores_config_path_and_out_dir(self, tmp_path):
        first = _write_config(tmp_path)
        second = tmp_path / "copy" / "renamed.json"
        second.parent.mkdir()
        second.write_text(first.read_text())
        assert self._hash(first, tmp_path / "a") == self._hash(second, tmp_path / "b")

    def test_hash_covers_seed_override(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert self._hash(cfg, tmp_path / "a") != \
            self._hash(cfg, tmp_path / "b", "--seed", "123")

    def test_every_field_but_out_dir_round_trips(self, tmp_path):
        # walks the dataclass, so a RunConfig field that the record drops
        # fails: the config sets every field off the value a document
        # without it gives (models and sim are required keys)
        raw = json.loads(_write_config(tmp_path, smile={**SMILE, "n_base_paths": 150}).read_text())
        cfg = load_config(tmp_path / "config.json")
        bare = _parse({"models": [{k: v for k, v in m.items() if k != "label"}
                                  for m in raw["models"]], "sim": raw["sim"]})
        back = _parse(json.loads(json.dumps(_config_record(cfg)[0])))
        for f in fields(RunConfig):
            want, got = getattr(cfg, f.name), getattr(back, f.name)
            assert (got == want) == (f.name != "out_dir"), f.name
            assert want != getattr(bare, f.name) or f.name in ("models", "sim"), f.name

    def test_config_record_hashes_to_config_sha256(self, tmp_path):
        out = tmp_path / "elsewhere"
        assert main(["bound-table", "--config", str(_write_config(tmp_path)),
                     "--out", str(out), "--seed", "123"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        config = manifest["config"]
        canonical = json.dumps(config, sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == manifest["config_sha256"]
        assert set(config) == {"models", "sim", "bound_cases", "smile", "output"}
        assert config["sim"]["seed"] == 123
        assert str(tmp_path) not in json.dumps(config)  # neither --out nor the config's path


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_config_replays_the_run(tmp_path, command):
    # a manifest's config is a config document: it parses back to the run's
    # config, out_dir apart, and replayed from a file it gives the same
    # data files and the same hash
    cfg = _write_config(tmp_path, smile={**SMILE, "n_base_paths": 150})
    first, again = tmp_path / "first", tmp_path / "again"
    code = main([command, "--config", str(cfg), "--out", str(first), "--seed", "7",
                 "--format", "csv,json"])
    manifest = json.loads((first / "run_manifest.json").read_text())
    run = load_config(cfg)
    run = replace(run, sim=replace(run.sim, seed=7), out_dir=str(first), formats=("csv", "json"))
    assert replace(_parse(manifest["config"]), out_dir=str(first)) == run
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest["config"]))
    assert main([command, "--config", str(replay), "--out", str(again)]) == code
    replayed = json.loads((again / "run_manifest.json").read_text())
    assert manifest["files"] and replayed["files"] == manifest["files"]
    assert replayed["config_sha256"] == manifest["config_sha256"]


@pytest.mark.skipif("X86_V4" not in SIMD_FOUND, reason="numpy found no X86_V4 target")
def test_simd_record_explains_a_disabled_target(tmp_path):
    # numpy's vectorised exp, log and power may give other last bits under
    # another SIMD target; the same run with the AVX-512 targets disabled
    # records another versions.simd, so the manifest says why its data
    # files may hash differently
    cfg = str(_write_config(tmp_path))
    native, avx2 = tmp_path / "native", tmp_path / "avx2"
    assert main(["strong-error", "--config", cfg, "--out", str(native)]) == 0
    src = Path(varexp.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "varexp.cli", "strong-error", "--config", cfg, "--out", str(avx2)],
        env={**os.environ, "PYTHONPATH": str(src),
             "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    want, got = (json.loads((d / "run_manifest.json").read_text()) for d in (native, avx2))
    assert got["config_sha256"] == want["config_sha256"]
    assert want["versions"]["simd"] == SIMD_FOUND
    assert "X86_V4" not in got["versions"]["simd"]


def test_golden_digests(paper_outputs):
    # the data files of the five commands on paper.json (seed 42, every
    # format) are a function of the config, the numpy version and the SIMD
    # targets it found: on a platform with recorded digests, these are they
    key = golden.host_key()
    recorded = json.loads(golden.DIGESTS.read_text())
    if key not in recorded:
        pytest.skip(f"no golden digests for {key!r}")
    assert golden.digests(paper_outputs) == recorded[key]


def _json_mismatches(got, want, where):
    """Where a parsed JSON document differs from the golden one: a number by
    more than 1e-12 relative to the larger magnitude (so a zero is exact),
    anything else (structure, strings, nulls, flags) at all."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for k in want:
            yield from _json_mismatches(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _json_mismatches(g, w, f"{where}[{i}]")
    elif number(got) and number(want) and math.isfinite(got) and math.isfinite(want):
        if abs(got - want) > 1e-12 * max(abs(got), abs(want)):
            yield f"{where}: {got!r}, golden {want!r}"
    elif type(got) is not type(want) or repr(got) != repr(want):
        yield f"{where}: {got!r}, golden {want!r}"


def _cell_differs(got: str, want: str) -> bool:
    """Whether a CSV cell differs from its golden cell: numbers by more than
    one unit in the last digit the finer of the two prints, anything else
    at all."""
    try:
        g, w = Decimal(got), Decimal(want)
    except InvalidOperation:
        return got != want
    if not (g.is_finite() and w.is_finite()):
        return got != want
    return abs(g - w) > Decimal(1).scaleb(min(g.as_tuple().exponent, w.as_tuple().exponent))


def _csv_mismatches(got, want, where):
    """Where a CSV's lines differ from the golden ones, cell by cell."""
    if len(got) != len(want):
        yield f"{where}: {len(got)} lines, golden {len(want)}"
        return
    for i, (g, w) in enumerate(zip(csv.reader(got), csv.reader(want))):
        if len(g) != len(w) or any(map(_cell_differs, g, w)):
            yield f"{where} line {i + 1}: {got[i]!r}, golden {want[i]!r}"


def test_golden_values(paper_outputs):
    # the digests' host-independent counterpart, checked on every host: the
    # same files, each JSON number within 1e-12 relative of its golden value
    # and each CSV cell within one unit in its last printed digit; the
    # largest difference measured under another SIMD target is 5.8e-14
    recorded = json.loads(golden.VALUES.read_text())["files"]
    got = golden.values(paper_outputs)
    assert got.keys() == recorded.keys()
    bad = []
    for name, want in recorded.items():
        mismatches = _csv_mismatches if name.endswith(".csv") else _json_mismatches
        bad += mismatches(got[name], want, name)
    assert not bad, "\n".join(bad[:20])


def test_golden_change_counts_what_moved():
    # what tests/golden.py prints for each data file it rewrites
    old = {"a": [1.0, 2.0, "x"], "n": 3}
    new = {"n": 3, "a": [1.0, 2.0 * (1 + 1e-13), "y"]}
    assert golden.change("f.json", old, new) == \
        "1 of 3 numbers changed, largest relative difference 1e-13, other values changed: 1"
    assert golden.change("f.json", old, old) == \
        "0 of 3 numbers changed, largest relative difference 0"
    assert golden.change("f.csv", ["h", "1", "2"], ["h", "1", "3", "4"]) == "2 of 4 lines changed"


@pytest.mark.skipif("X86_V4" not in SIMD_FOUND, reason="numpy found no X86_V4 target")
def test_golden_values_hold_under_avx2():
    # with the AVX-512 targets disabled numpy's vectorised exp, log and
    # power may round otherwise, the digests' key is missing, and the
    # values test still runs and passes
    tests = Path(__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{tests / 'test_cli.py'}::test_golden_values"],
        cwd=tests.parent, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(Path(varexp.__file__).resolve().parents[1]),
             "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.search(r"\b1 passed\b", run.stdout), run.stdout


class TestArguments:
    """main returns argparse's outcome as an exit code instead of exiting."""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: varexp") and all(name in out for name in COMMANDS)

    @pytest.mark.parametrize("argv", [["no-such-command"], []], ids=["unknown", "none"])
    def test_bad_command_exits_two(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: varexp")


class TestRunErrors:
    """Failures after the config loads are reported on one stderr line,
    never as a traceback, and leave no data file."""

    def test_out_is_a_file_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        assert main(["bound-table", "--config", "paper.json", "--out", "taken"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert (tmp_path / "taken").read_text() == ""

    def test_unwritable_data_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "bound_table.csv").mkdir(parents=True)  # the first file the command writes
        assert main(["bound-table", "--config", str(_write_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["bound_table.csv"]

    def test_run_over_memory_cap_exits_one(self, tmp_path, capsys):
        raw = json.loads(bundled_paper_text())
        raw["sim"].update(dt=1e-9, n_base_paths=1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["strong-error", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("precondition failed: ") and "> cap" in err
        assert err.count("\n") == 1
        assert not list(out.iterdir())


    def test_oversize_streaming_run_exits_one(self, tmp_path, monkeypatch, capsys):
        # 1e12 base paths: the per-path outputs are over the cap before the
        # run plans its chunks (a list of about 1.6e8)
        monkeypatch.setattr(varexp.engine, "_plan", lambda cfg: pytest.fail("planned"))
        raw = json.loads(bundled_paper_text())
        raw["sim"]["n_base_paths"] = 1e12
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["strong-error", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("precondition failed: per-path outputs needs ") and "> cap" in err
        assert not list(out.iterdir())


# Runs each command named in argv[2:] (with its output directory) on the
# config argv[1] in an interpreter that cannot import scipy, and prints the
# exit codes as the last line.
_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    sys.exit("scipy was importable")
from varexp.cli import main
runs = zip(sys.argv[2::2], sys.argv[3::2])
codes = [main([c, "--config", sys.argv[1], "--out", out, "--format", "csv,json,svg"])
         for c, out in runs]
print(json.dumps(codes))
"""


class TestWithoutScipy:
    def test_every_command_runs_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: a run neither imports it nor
        # records its version, and writes the same files without it
        cfg = str(_write_config(tmp_path))
        plain, blocked = tmp_path / "plain", tmp_path / "blocked"
        want = [main([c, "--config", cfg, "--out", str(plain / c), "--format", "csv,json,svg"])
                for c in COMMANDS]
        src = Path(varexp.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, cfg,
             *(a for c in COMMANDS for a in (c, str(blocked / c)))],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=300)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == want
        for c in COMMANDS:
            manifest = json.loads((blocked / c / "run_manifest.json").read_text())
            assert manifest["versions"] == {"python": platform.python_version(),
                                            "numpy": np.__version__, "simd": SIMD_FOUND}
            files = {p.name: p.read_bytes() for p in (blocked / c).iterdir()
                     if p.name != "run_manifest.json"}
            assert files and files == {p.name: p.read_bytes() for p in (plain / c).iterdir()
                                       if p.name != "run_manifest.json"}
            assert manifest["files"] == {n: hashlib.sha256(b).hexdigest()
                                         for n, b in files.items()}
