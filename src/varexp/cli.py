"""Command-line entry point.

Subcommands:
    check-exponent   admissibility reports for every configured exponent
    bound-table      deterministic error-bound table over (lambda, R) cases
    strong-error     coupled simulation + pathwise error vs the first model
    simulate         sample paths and terminal histograms
    smile            implied-volatility smile per model

Shared flags: --config PATH (required), --out DIR, --seed N,
--format csv,json[,svg]. Exit codes: 0 success, 1 failed check or
precondition, 2 usage/config error. All data files are byte-identical
across reruns with the same config and seed; timestamps appear only in
run_manifest.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ErrorReport, strong_error_from_stats, terminal_stats
from .bounds import BoundInputs, bound_table, error_bound
from .config import ConfigError, RunConfig, load_config
from .engine import (BlowUpError, SimConfig, simulate_coupled,
                     simulate_coupled_stats, simulate_coupled_terminals)
from .exponent import check_admissibility, sup_deviation
from .pricing import coupled_smile, smile_from_terminal, smile_to_csv
from .svgplot import histogram_chart, line_chart


def _config_sha256(cfg: RunConfig) -> str:
    """sha256 of the canonical JSON of the effective config, after CLI
    overrides; the output directory and the config file path are left out."""
    effective = {
        "labels": cfg.labels,
        "models": [m.to_dict() for m in cfg.models],
        "sim": cfg.sim.to_dict(),
        "bound_cases": [list(case) for case in cfg.bound_cases],
        "smile": cfg.smile.to_dict() if cfg.smile is not None else None,
        "smile_n_base_paths": cfg.smile_n_base_paths,
        "formats": list(cfg.formats),
    }
    return hashlib.sha256(json.dumps(effective, sort_keys=True).encode()).hexdigest()


def _manifest(out: Path, command: str, cfg: RunConfig) -> None:
    payload = {
        "command": command,
        "config_sha256": _config_sha256(cfg),
        "seed": cfg.sim.seed,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out / "run_manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _shared_mu_sigma(cfg: RunConfig) -> tuple[float, float]:
    mus = {m.mu for m in cfg.models}
    sigmas = {m.sigma for m in cfg.models}
    if len(mus) > 1 or len(sigmas) > 1:
        raise ValueError("coupled comparisons require all models to share mu and sigma")
    return cfg.models[0].mu, cfg.models[0].sigma


# -- commands ----------------------------------------------------------------

def cmd_check_exponent(cfg: RunConfig, out: Path) -> int:
    all_ok = True
    for label, model in zip(cfg.labels, cfg.models):
        report = check_admissibility(model.exponent)
        _dump_json(out / f"admissibility_{label}.json", report.to_dict())
        status = "pass" if report.passed else "FAIL"
        print(f"{label}: {status}")
        all_ok = all_ok and report.passed
    return 0 if all_ok else 1


def cmd_bound_table(cfg: RunConfig, out: Path) -> int:
    mu, sigma = _shared_mu_sigma(cfg)
    exps = [m.exponent for m in cfg.models[1:]] or [cfg.models[0].exponent]
    labels = cfg.labels[1:] or cfg.labels[:1]
    table = bound_table(exps, cfg.bound_cases, mu=mu, sigma=sigma,
                        t_horizon=cfg.sim.t_horizon, labels=labels)
    if "csv" in cfg.formats:
        table.to_csv(out / "bound_table.csv")
    if "json" in cfg.formats:
        table.to_json(out / "bound_table.json")
    print(f"bound table: {len(table.rows)} cases x {len(table.labels)} exponents")
    return 0


def _attach_bound(report: ErrorReport, cfg: RunConfig, model_index: int) -> ErrorReport:
    """Evaluate the closed-form bound on the observed path range."""
    model = cfg.models[model_index]
    lam = min(report.lambda_obs, 1.0 - 1e-9)  # bound needs lambda < 1 < R
    r = max(report.r_obs, 1.0 + 1e-9)
    b = BoundInputs(
        mu=model.mu, sigma=model.sigma, t_horizon=cfg.sim.t_horizon,
        lam=lam, r=r, p_plus=model.exponent.p_plus,
        sup_dev=sup_deviation(model.exponent, lam, r),
    )
    report.analytic_bound = error_bound(b)
    return report


def cmd_strong_error(cfg: RunConfig, out: Path) -> int:
    if len(cfg.models) < 2:
        raise ValueError("strong-error needs at least two models (first is the reference)")
    stats = simulate_coupled_stats(cfg.models, cfg.sim, cfg.labels)
    rows = []
    for i in range(1, len(cfg.models)):
        rep = _attach_bound(strong_error_from_stats(stats, i), cfg, i)
        ms = stats.models[i]
        rows.append({
            "model": cfg.labels[i],
            "strong_error": rep.strong_error,
            "ci_half_width": rep.ci_half_width,
            "lambda_obs": rep.lambda_obs,
            "r_obs": rep.r_obs,
            "analytic_bound": rep.analytic_bound,
            "vol_range_lo": ms.phi_min,
            "vol_range_hi": ms.phi_max,
            "n_paths": rep.n_paths,
        })
        print(f"{cfg.labels[i]} vs {cfg.labels[0]}: strong error "
              f"{rep.strong_error:.6e} +- {rep.ci_half_width:.1e} "
              f"(bound {rep.analytic_bound:.6e})")
    if "csv" in cfg.formats:
        cols = ["model", "strong_error", "ci_half_width", "lambda_obs", "r_obs",
                "analytic_bound", "vol_range_lo", "vol_range_hi", "n_paths"]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(
                row["model"] if c == "model" else f"{row[c]:.10g}" for c in cols
            ))
        (out / "strong_error.csv").write_text("\n".join(lines) + "\n")
    if "json" in cfg.formats:
        _dump_json(out / "strong_error.json", {
            "reference": cfg.labels[0],
            "volatility_range_definition":
                "interpretation A: range of x^p(x) over visited states",
            "results": rows,
        })
    return 0


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    batches = simulate_coupled(cfg.models, cfg.sim, cfg.labels)
    grid = batches[0].time_grid
    if "csv" in cfg.formats:
        header = "t," + ",".join(cfg.labels)
        data = np.column_stack([grid] + [b.values[0] for b in batches])
        np.savetxt(out / "sample_paths.csv", data, delimiter=",",
                   header=header, comments="", fmt="%.12g")
        for b in batches:
            ts = terminal_stats(b)
            lines = ["bin_lo,bin_hi,count"]
            for lo, hi, c in zip(ts.bin_edges[:-1], ts.bin_edges[1:], ts.counts):
                lines.append(f"{lo:.10g},{hi:.10g},{c}")
            (out / f"terminal_histogram_{b.model_label}.csv").write_text(
                "\n".join(lines) + "\n")
    if "json" in cfg.formats:
        _dump_json(out / "batch_summary.json",
                   {"models": [b.summary_dict() for b in batches]})
    if "svg" in cfg.formats:
        line_chart(out / "sample_paths.svg",
                   [(b.model_label, grid, b.values[0]) for b in batches],
                   "Sample paths (identical increments)", "t", "X(t)")
        histogram_chart(out / "terminal_histograms.svg",
                        [(b.model_label, terminal_stats(b).bin_edges,
                          terminal_stats(b).counts) for b in batches],
                        "Terminal distributions", "X(T)")
    print(f"simulated {len(batches)} models x {cfg.sim.n_paths} paths "
          f"x {cfg.sim.n_steps} steps")
    return 0


def cmd_smile(cfg: RunConfig, out: Path) -> int:
    if cfg.smile is None:
        raise ConfigError("config has no 'smile' section")
    req = cfg.smile
    sim = cfg.smile_sim()
    terminals = simulate_coupled_terminals(cfg.models, sim)

    coupled = len(cfg.models) >= 2
    all_series = []
    series_json = {}
    any_ok = False
    for i, label in enumerate(cfg.labels):
        if coupled:
            pts = coupled_smile(terminals[i], terminals[0], req,
                                reference_vol=cfg.models[0].sigma,
                                antithetic=sim.antithetic)
        else:
            pts = smile_from_terminal(terminals[i], req, sim.antithetic)
        if "csv" in cfg.formats:
            smile_to_csv(pts, out / f"smile_{label}.csv")
        series_json[label] = [p.to_dict() for p in pts]
        ok = [(p.strike, p.iv) for p in pts if p.iv is not None]
        any_ok = any_ok or bool(ok)
        if ok:
            all_series.append((label, [s for s, _ in ok], [v for _, v in ok]))
        n_flag = sum(1 for p in pts if p.flag)
        print(f"{label}: {len(pts) - n_flag}/{len(pts)} strikes solved")
    if "json" in cfg.formats:
        _dump_json(out / "smile_summary.json", {
            "method": (f"coupled control variate vs {cfg.labels[0]}" if coupled
                       else "plain Monte Carlo"),
            "n_base_paths": sim.n_base_paths,
            "series": series_json,
        })
    if "svg" in cfg.formats and all_series:
        line_chart(out / "smile.svg", all_series,
                   "Implied volatility by strike", "strike", "implied vol")
    return 0 if any_ok else 1


# -- wiring ------------------------------------------------------------------

COMMANDS = {
    "check-exponent": cmd_check_exponent,
    "bound-table": cmd_bound_table,
    "strong-error": cmd_strong_error,
    "simulate": cmd_simulate,
    "smile": cmd_smile,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run config JSON "
                        "('paper.json' falls back to the bundled default)")
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument("--format", default=None,
                        help="comma-separated output formats: csv,json,svg")
    parser = argparse.ArgumentParser(prog="varexp",
                                     description="variable-exponent diffusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.sim = SimConfig.from_dict({**cfg.sim.to_dict(), "seed": args.seed})
        if args.out is not None:
            cfg.out_dir = args.out
        if args.format is not None:
            cfg.formats = tuple(args.format.split(","))
            for f in cfg.formats:
                if f not in ("csv", "json", "svg"):
                    raise ConfigError(f"unknown output format {f!r}")
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code = COMMANDS[args.command](cfg, out)
        _manifest(out, args.command, cfg)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
