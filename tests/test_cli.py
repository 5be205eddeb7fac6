import json
from pathlib import Path

from varexp.cli import main


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
        "smile": {"strikes": [0.9, 1.0, 1.1], "rate": 0.05,
                  "maturity": 1.0, "spot": 1.0},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv", "json", "svg"]},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


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

    def test_bad_lambda_exits_one(self, tmp_path):
        cfg = _write_config(tmp_path, bound_cases=[[1.5, 2.0]])
        assert main(["bound-table", "--config", str(cfg)]) == 1

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

    def test_single_model_exits_one(self, tmp_path):
        cfg = _write_config(tmp_path, models=[
            {"label": "gbm", "mu": 0.05, "sigma": 0.2,
             "exponent": {"kind": "constant", "gamma": 1.0}}])
        assert main(["strong-error", "--config", str(cfg)]) == 1

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["strong-error", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["strong-error", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--seed", "123"])
        a = (tmp_path / "a" / "strong_error.csv").read_text()
        b = (tmp_path / "b" / "strong_error.csv").read_text()
        assert a != b


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

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("sample_paths.csv", "terminal_histogram_gbm.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["smile", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["smile", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("smile_gbm.csv", "smile_p1.csv", "smile.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestBundledConfig:
    def test_paper_fallback_resolves(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no paper.json on disk here
        assert main(["bound-table", "--config", "paper.json",
                     "--out", str(tmp_path / "out")]) == 0
        csv = (tmp_path / "out" / "bound_table.csv").read_text().splitlines()
        assert csv[0] == "case,lambda,R,bound_p1,bound_p2"
        assert len(csv) == 11

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
