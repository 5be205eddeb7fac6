"""Command-line entry point.

Subcommands:
    check-exponent   admissibility reports for every configured exponent
    bound-table      deterministic error-bound table over (lambda, R) cases
    strong-error     coupled simulation + pathwise error vs the first model
    simulate         sample paths and terminal histograms
    smile            implied-volatility smile per model

Shared flags: --config PATH (required), --out DIR, --seed N,
--format csv,json[,svg]. Exit codes: 0 success, 1 failed check or
precondition (a run over the memory cap too), 2 usage/config error or an
output directory that cannot be made or written. Commands return their
files as text and the simulation they ran, if any; `main` is the only
writer: it writes the files whose extension is listed in --format, then
run_manifest.json with the sha256 of each, the effective config as a
config document (`config._document`: saved as a file, it replays the
run) and its hash, the run's path, step and worker counts, the python
and numpy versions and the SIMD targets numpy found. Data files are a
function of the config record, the numpy version and those SIMD targets
(the smile's also of the C library's `exp` and `erfc`, through `math`),
whatever the partitioning or the blocking; timestamps appear only in
run_manifest.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ErrorReport, strong_error_from_stats, terminal_stats
from .bounds import BoundInputs, bound_table, error_bound
from .config import ConfigError, RunConfig, _check_formats, _document, load_config
from .engine import EXTREMA, SUP_DIFFS, BlowUpError, SimConfig, _plan, simulate_coupled_stats
from .exponent import CONSTANT, _phi_range, check_admissibility, sup_deviation
from .pricing import coupled_smile, smile_from_terminal
from .svgplot import histogram_chart, line_chart


class _OutputError(Exception):
    """An OSError while making the output directory or writing into it."""


def _config_record(cfg: RunConfig) -> tuple[dict, str]:
    """The config document of cfg, and the sha256 of its canonical JSON."""
    config = _document(cfg)
    return config, hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _csv(header, rows, fmt: str = ".10g") -> str:
    """CSV text: the header, then one line per row. Float cells are written
    with `fmt`, None as an empty cell, anything else with str()."""
    def cell(v) -> str:
        if v is None:
            return ""
        return format(v, fmt) if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, r)) + "\n" for r in [header, *rows])


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _shared_mu_sigma(cfg: RunConfig) -> tuple[float, float]:
    mus = {m.mu for m in cfg.models}
    sigmas = {m.sigma for m in cfg.models}
    if len(mus) > 1 or len(sigmas) > 1:
        raise ValueError("coupled comparisons require all models to share mu and sigma")
    return cfg.models[0].mu, cfg.models[0].sigma


def _require_gbm_reference(cfg: RunConfig) -> None:
    """With two or more models, coupled errors, smiles and bound tables
    take models[0] as the GBM reference."""
    ref = cfg.models[0].exponent
    if len(cfg.models) > 1 and (ref.kind != CONSTANT or ref.gamma != 1.0):
        raise ConfigError(f"the first model ({cfg.labels[0]!r}) is the coupling "
                          "reference and must be GBM (constant exponent, gamma 1)")


# -- commands: each returns (exit code, {file name: text}, the SimConfig it
# simulated or None); main writes ----------------------------------------------

def cmd_check_exponent(cfg: RunConfig) -> tuple[int, dict[str, str], None]:
    all_ok = True
    files = {}
    for label, model in zip(cfg.labels, cfg.models):
        report = check_admissibility(model.exponent)
        files[f"admissibility_{label}.json"] = _json(report.to_dict())
        status = "pass" if report.passed else "FAIL"
        print(f"{label}: {status}")
        all_ok = all_ok and report.passed
    return (0 if all_ok else 1), files, None


def cmd_bound_table(cfg: RunConfig) -> tuple[int, dict[str, str], None]:
    _require_gbm_reference(cfg)  # models[0] is dropped as the reference
    mu, sigma = _shared_mu_sigma(cfg)
    exps = [m.exponent for m in cfg.models[1:]] or [cfg.models[0].exponent]
    labels = cfg.labels[1:] or cfg.labels[:1]
    table = bound_table(exps, cfg.bound_cases, mu=mu, sigma=sigma,
                        t_horizon=cfg.sim.t_horizon, labels=labels)
    print(f"bound table: {len(table.rows)} cases x {len(table.labels)} exponents")
    # bounds are rounded to 6 decimals here, at the export, and nowhere else
    return 0, {
        "bound_table.csv": _csv(
            ["case", "lambda", "R", *(f"bound_{lab}" for lab in table.labels)],
            ([r["case"], f"{r['lam']:g}", f"{r['r']:g}", *(f"{v:.6f}" for v in r["bounds"])]
             for r in table.rows)),
        "bound_table.json": _json({
            "columns": table.labels,
            "rows": [
                {"case": r["case"], "lambda": r["lam"], "R": r["r"],
                 "bounds": {lab: round(v, 6) for lab, v in zip(table.labels, r["bounds"])}}
                for r in table.rows
            ],
        }),
    }, None


def _attach_bound(report: ErrorReport, cfg: RunConfig, model_index: int) -> ErrorReport:
    """Evaluate the closed-form bound on the observed path range, for a
    model with the reference's mu and sigma and within the bound's
    hypothesis 1 <= p <= p_plus only (None for any other): its declared
    p_minus is at least 1, and |p - 1| on that range at most p_plus - 1."""
    model, ref = cfg.models[model_index], cfg.models[0]
    spec = model.exponent
    if (model.mu, model.sigma) != (ref.mu, ref.sigma) or spec.p_minus < 1.0:
        return report
    lam = min(report.lambda_obs, 1.0 - 1e-9)  # bound needs lambda < 1 < R
    r = max(report.r_obs, 1.0 + 1e-9)
    sup_dev = sup_deviation(spec, lam, r)
    if sup_dev > spec.p_plus - 1.0 + 1e-12:  # BoundInputs' own tolerance
        return report
    b = BoundInputs(mu=model.mu, sigma=model.sigma, t_horizon=cfg.sim.t_horizon,
                    lam=lam, r=r, p_plus=spec.p_plus, sup_dev=sup_dev)
    report.analytic_bound = error_bound(b)
    return report


def cmd_strong_error(cfg: RunConfig) -> tuple[int, dict[str, str], SimConfig]:
    if len(cfg.models) < 2:
        raise ValueError("strong-error needs at least two models (first is the reference)")
    _require_gbm_reference(cfg)
    stats = simulate_coupled_stats(cfg.models, cfg.sim, cfg.labels, {EXTREMA, SUP_DIFFS})
    rows = []
    for i in range(1, len(cfg.models)):
        rep = _attach_bound(strong_error_from_stats(stats, i), cfg, i)
        ms = stats.models[i]
        vol_lo, vol_hi = _phi_range(cfg.models[i].exponent, ms.min_value, ms.max_value)
        rows.append({
            "model": cfg.labels[i],
            "strong_error": rep.strong_error,
            "ci_half_width": rep.ci_half_width,
            "lambda_obs": rep.lambda_obs,
            "r_obs": rep.r_obs,
            "analytic_bound": rep.analytic_bound,
            "vol_range_lo": vol_lo,
            "vol_range_hi": vol_hi,
            "n_paths": rep.n_paths,
        })
        bound = "n/a" if rep.analytic_bound is None else f"{rep.analytic_bound:.6e}"
        print(f"{cfg.labels[i]} vs {cfg.labels[0]}: strong error "
              f"{rep.strong_error:.6e} +- {rep.ci_half_width:.1e} (bound {bound})")
    return 0, {
        "strong_error.csv": _csv(list(rows[0]), (row.values() for row in rows)),
        "strong_error.json": _json({
            "reference": cfg.labels[0],
            "volatility_range_definition":
                "interpretation A: range of x^p(x) over visited states",
            "results": rows,
        }),
    }, cfg.sim


def cmd_simulate(cfg: RunConfig) -> tuple[int, dict[str, str], SimConfig]:
    sim = cfg.sim
    # one run: each model's sample path is base path 0, recorded by its first chunk
    stats = simulate_coupled_stats(cfg.models, sim, cfg.labels, {EXTREMA}).models
    grid = sim.time_grid
    hists = [terminal_stats(ms) for ms in stats]
    files = {"sample_paths.csv": _csv(["t", *cfg.labels],
                                      zip(grid, *(ms.sample_path for ms in stats)), fmt=".12g")}
    for ms, ts in zip(stats, hists):
        files[f"terminal_histogram_{ms.label}.csv"] = _csv(
            ["bin_lo", "bin_hi", "count"], zip(ts.bin_edges[:-1], ts.bin_edges[1:], ts.counts))
    files["batch_summary.json"] = _json({"models": [
        {"model": ms.label, "n_paths": sim.n_paths, "terminal_mean": ts.mean,
         "terminal_variance": ts.variance, "min_value": ms.min_value,
         "max_value": ms.max_value, "positivity_breaches": ms.positivity_breaches,
         "seed": sim.seed, "scheme": sim.scheme}
        for ms, ts in zip(stats, hists)]})
    files["sample_paths.svg"] = line_chart(
        [(ms.label, grid, ms.sample_path) for ms in stats],
        "Sample paths (identical increments)", "t", "X(t)")
    files["terminal_histograms.svg"] = histogram_chart(
        [(ms.label, ts.bin_edges, ts.counts) for ms, ts in zip(stats, hists)],
        "Terminal distributions", "X(T)")
    print(f"simulated {len(stats)} models x {sim.n_paths} paths x {sim.n_steps} steps")
    return 0, files, sim


def cmd_smile(cfg: RunConfig) -> tuple[int, dict[str, str], SimConfig]:
    if cfg.smile is None:
        raise ConfigError("config has no 'smile' section")
    coupled = len(cfg.models) >= 2
    _require_gbm_reference(cfg)
    req = cfg.smile
    for label, model in zip(cfg.labels, cfg.models):  # a risk-neutral price: drift = rate
        if model.mu != req.rate:
            raise ConfigError(f"model {label!r} has mu {model.mu}, which differs from the "
                              f"reference's {req.rate}, the rate the smile discounts at")
    sim = cfg.smile_sim()
    terminals = [ms.terminal for ms in
                 simulate_coupled_stats(cfg.models, sim, cfg.labels, reductions=()).models]

    files = {}
    all_series = []
    series_json = {}
    for i, label in enumerate(cfg.labels):
        if coupled:
            pts = coupled_smile(terminals[i], terminals[0], req,
                                reference_vol=cfg.models[0].sigma,
                                antithetic=sim.antithetic)
        else:
            pts = smile_from_terminal(terminals[i], req, sim.antithetic)
        files[f"smile_{label}.csv"] = _csv(
            ["strike", "iv", "se_low", "se_high", "flag"],
            ([p.strike, p.iv, p.se_low, p.se_high, p.flag] for p in pts))
        series_json[label] = [p.to_dict() for p in pts]
        ok = [(p.strike, p.iv) for p in pts if p.iv is not None]
        if ok:
            all_series.append((label, [s for s, _ in ok], [v for _, v in ok]))
        n_flag = sum(1 for p in pts if p.flag)
        print(f"{label}: {len(pts) - n_flag}/{len(pts)} strikes solved")
    files["smile_summary.json"] = _json({
        "method": (f"coupled control variate vs {cfg.labels[0]}" if coupled
                   else "plain Monte Carlo"),
        "n_base_paths": sim.n_base_paths,
        "series": series_json,
    })
    if all_series:
        files["smile.svg"] = line_chart(all_series, "Implied volatility by strike",
                                        "strike", "implied vol")
    return (0 if all_series else 1), files, sim


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
    common.add_argument("--config", required=True, help="run config JSON (the bare "
                        "name 'paper.json', if missing, is the bundled default)")
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
            try:
                cfg.sim = replace(cfg.sim, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"bad --seed: {exc}") from exc
        if args.out is not None:
            cfg.out_dir = args.out
        if args.format is not None:
            cfg.formats = _check_formats(args.format.split(","))
        config, config_sha256 = _config_record(cfg)
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _OutputError(exc) from exc
        code, files, sim = COMMANDS[args.command](cfg)
        manifest = {
            "command": args.command,
            "config": config,
            "config_sha256": config_sha256,
            "seed": cfg.sim.seed,
            "tool_version": __version__,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"]},
            "n_paths": sim.n_paths if sim else None,
            "n_steps": sim.n_steps if sim else None,
            "workers": _plan(sim)[1] if sim else None,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "files": {},
        }
        try:
            for name, text in files.items():
                if Path(name).suffix[1:] in cfg.formats:
                    data = text.encode()
                    (out / name).write_bytes(data)
                    manifest["files"][name] = hashlib.sha256(data).hexdigest()
            (out / "run_manifest.json").write_text(_json(manifest))
        except OSError as exc:
            raise _OutputError(exc) from exc
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
