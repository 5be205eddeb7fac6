"""The benchmark's workloads: what each pass runs, its size, and the checks
on its outputs.

Each workload is a `run` function, timed as one pass, and a `check`
function that turns the pass's raw results into operations (`Op`), each
passed or failed. An operation fails on a nonzero CLI exit code, an
exception from the package (`BlowUpError` or any other), or a failed
output check. Each operation also carries a
sha256 digest of its data, which the driver compares across repeats at
the same seed (the determinism contract).

CLI workloads call `varexp.cli.main([...])` in-process and forward the
benchmark seed as `--seed`; the library workload builds its inputs from
the seed. Package functions are looked up on their module at call time,
so that a traced pass calls the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import varexp
from varexp import ExponentSpec, ModelSpec, SimConfig, cli

from layers import SWEEP_MODELS, SWEEP_SCHEMES

# The paper's printed bound table (10 (lambda, R) cases x exponents p1, p2).
PRINTED_CASES = [(0.1, 1.1), (0.01, 1.2), (0.001, 1.4), (0.0001, 1.5),
                 (0.00001, 1.7), (0.0001, 1.5), (0.001, 1.4), (0.01, 1.3),
                 (0.1, 1.2), (0.2, 1.1)]
PRINTED_P1 = [0.002922, 0.002335, 0.004228, 0.005390, 0.007986,
              0.005390, 0.004228, 0.003416, 0.003920, 0.003687]
PRINTED_P2 = [0.000538, 0.000463, 0.000844, 0.001077, 0.001596,
              0.001077, 0.000844, 0.000678, 0.000721, 0.000628]
BOUND_TOL = 1.05e-6  # one unit in the printed last digit, plus rounding


# Scheme-sweep and refinement sizes. "full" is the benchmark; "tiny" is for
# the harness self-test, which also shrinks paper.json (worker.py).
SIZES = {
    "full": {"sweep_base_paths": 2000, "refine_base_paths": 128,
             "refine_ref_dt": 1e-5, "refine_dts": [4e-3, 2e-3, 1e-3, 5e-4]},
    "tiny": {"sweep_base_paths": 50, "refine_base_paths": 8,
             "refine_ref_dt": 1e-4, "refine_dts": [4e-3, 2e-3, 1e-3, 5e-4]},
}


@dataclass
class Op:
    name: str
    ok: bool
    detail: str
    digest: str = ""


@dataclass
class Context:
    seed: int
    out: Path            # this pass's output directory
    config_path: Path    # run config handed to the CLI
    cfg: object          # the same config, loaded during set-up
    size: dict
    span: Callable       # span(name) context manager (a no-op when untraced)


@dataclass
class Workload:
    name: str
    run: Callable        # (Context) -> raw results; this is the timed pass
    check: Callable      # (Context, raw) -> list[Op]
    sizes: Callable      # (Context) -> dict of per-pass sizes


def _attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised; a package fault is a failed
    operation, not a harness fault."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001  (recorded as a failed op)
        return exc


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _data_digest(out: Path) -> str:
    """sha256 over the data files of a CLI run (run_manifest.json holds a
    timestamp and is excluded)."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        if p.name != "run_manifest.json":
            h.update(p.name.encode() + b"\0" + bytes.fromhex(_sha(p.read_bytes())))
    return h.hexdigest()


def _cli(ctx: Context, command: str, *extra: str):
    out = ctx.out / command
    argv = [command, "--config", str(ctx.config_path), "--out", str(out),
            "--seed", str(ctx.seed), *extra]
    with redirect_stdout(io.StringIO()):
        code = _attempt(cli.main, argv)
    return command, code, out


def _check_cli(raw, checker) -> Op:
    """Exit code (or exception) first, then the output checks; unreadable
    output fails."""
    command, code, out = raw
    if isinstance(code, Exception):
        return Op(command, False, _raised(code))
    if code != 0:
        return Op(command, False, f"exit code {code}")
    try:
        problems, summary = checker(out)
        digest = _data_digest(out)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return Op(command, False, f"unreadable output: {exc!r}")
    if problems:
        return Op(command, False, "; ".join(problems), digest)
    return Op(command, True, summary, digest)


def _sim_sizes(sim, n_models: int, dense: bool) -> dict:
    return {
        "models": n_models, "paths": sim.n_paths, "steps": sim.n_steps,
        "path_steps": n_models * sim.n_paths * sim.n_steps,
        "increment_bytes": sim.n_paths * sim.n_steps * 8,
        "dense_bytes": n_models * sim.n_paths * (sim.n_steps + 1) * 8 if dense else 0,
    }


# -- strong-error ------------------------------------------------------------

def _strong_error_outputs(out: Path):
    rows = {r["model"]: r for r in
            json.loads((out / "strong_error.json").read_text())["results"]}
    problems, parts = [], []
    for label, lo, hi in (("p1", 7e-5, 3e-4), ("p2", 7e-6, 3e-5)):
        r = rows[label]
        e, hw, bound = r["strong_error"], r["ci_half_width"], r["analytic_bound"]
        if not lo <= e <= hi:
            problems.append(f"{label} strong error {e:.3e} outside [{lo:g}, {hi:g}]")
        if not hw < 0.2 * e:
            problems.append(f"{label} CI half-width {hw:.2e} >= 20% of {e:.3e}")
        if not e <= bound:
            problems.append(f"{label} strong error {e:.3e} > analytic bound {bound:.3e}")
        parts.append(f"{label} {e:.3e} +- {hw:.1e} (bound {bound:.2e})")
    return problems, "; ".join(parts)


STRONG_ERROR = Workload(
    name="strong-error",
    run=lambda ctx: [_cli(ctx, "strong-error")],
    check=lambda ctx, raw: [_check_cli(raw[0], _strong_error_outputs)],
    sizes=lambda ctx: _sim_sizes(ctx.cfg.sim, len(ctx.cfg.models), dense=False),
)


# -- smile -------------------------------------------------------------------

def _smile_checker(ctx: Context):
    labels = ctx.cfg.labels
    n_strikes = len(ctx.cfg.smile.strikes)
    ref_vol = ctx.cfg.models[0].sigma

    def check(out: Path):
        series = json.loads((out / "smile_summary.json").read_text())["series"]
        problems = []
        pts = [p for lab in labels for p in series[lab]]
        solved = sum(1 for p in pts if p["iv"] is not None and not p["flag"])
        if solved != len(labels) * n_strikes:
            problems.append(f"{solved} of {len(labels) * n_strikes} strikes solved")
        ref_dev = max(abs(p["iv"] - ref_vol) if p["iv"] is not None else math.inf
                      for p in series[labels[0]])
        if not ref_dev <= 1e-8:
            problems.append(f"{labels[0]} smile deviates from {ref_vol} by {ref_dev:.2e}")
        p1 = [p for p in series["p1"] if p["iv"] is not None and p["se_low"] is not None]
        ivs = np.array([p["iv"] for p in p1])
        bands = np.array([(p["se_high"] - p["se_low"]) / 2 for p in p1])
        spread = float(ivs.max() - ivs.min())
        combined = float(bands[ivs.argmax()] + bands[ivs.argmin()])
        if not spread > 3.0 * combined:
            problems.append(f"p1 spread {spread:.2e} <= 3x bands {3 * combined:.2e}")
        return problems, (f"{solved}/{len(labels) * n_strikes} solved; "
                          f"{labels[0]} |iv - {ref_vol}| <= {ref_dev:.1e}; "
                          f"p1 spread {spread:.2e} vs 3x bands {3 * combined:.2e}")
    return check


SMILE = Workload(
    name="smile",
    run=lambda ctx: [_cli(ctx, "smile")],
    check=lambda ctx, raw: [_check_cli(raw[0], _smile_checker(ctx))],
    sizes=lambda ctx: _sim_sizes(ctx.cfg.smile_sim(), len(ctx.cfg.models), dense=False),
)


# -- dense-paths -------------------------------------------------------------

def _admissibility_outputs(out: Path):
    reports = sorted(out.glob("admissibility_*.json"))
    failed = [p.stem for p in reports if not json.loads(p.read_text())["passed"]]
    if not reports:
        return ["no admissibility reports written"], ""
    if failed:
        return [f"admissibility failed: {', '.join(failed)}"], ""
    return [], f"{len(reports)} admissibility reports pass"


def _bound_table_outputs(out: Path):
    lines = (out / "bound_table.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    c1, c2 = header.index("bound_p1"), header.index("bound_p2")
    if len(rows) != len(PRINTED_CASES):
        return [f"{len(rows)} bound-table rows, expected {len(PRINTED_CASES)}"], ""
    worst = 0.0
    for row, (lam, r), b1, b2 in zip(rows, PRINTED_CASES, PRINTED_P1, PRINTED_P2):
        if (float(row[1]), float(row[2])) != (lam, r):
            return [f"bound-table case {row[0]} is ({row[1]}, {row[2]}), "
                    f"expected ({lam}, {r})"], ""
        worst = max(worst, abs(float(row[c1]) - b1), abs(float(row[c2]) - b2))
    if not worst <= BOUND_TOL:
        return [f"bound table off the printed values by {worst:.2e} > {BOUND_TOL}"], ""
    return [], f"max |bound - printed| = {worst:.1e}"


def _simulate_outputs(out: Path):
    models = json.loads((out / "batch_summary.json").read_text())["models"]
    breaches = sum(m["positivity_breaches"] for m in models)
    missing = [n for n in ("sample_paths.csv", "sample_paths.svg", "terminal_histograms.svg")
               if not (out / n).is_file()]
    problems = []
    if breaches:
        problems.append(f"{breaches} positivity breaches")
    if missing:
        problems.append(f"missing outputs: {', '.join(missing)}")
    return problems, f"{len(models)} models, 0 positivity breaches"


DENSE_PATHS = Workload(
    name="dense-paths",
    run=lambda ctx: [_cli(ctx, "check-exponent"), _cli(ctx, "bound-table"),
                     _cli(ctx, "simulate", "--format", "csv,json,svg")],
    check=lambda ctx, raw: [_check_cli(raw[0], _admissibility_outputs),
                            _check_cli(raw[1], _bound_table_outputs),
                            _check_cli(raw[2], _simulate_outputs)],
    sizes=lambda ctx: _sim_sizes(ctx.cfg.sim, len(ctx.cfg.models), dense=True),
)


# -- scheme-sweep (library) --------------------------------------------------

def _sweep_models(cfg) -> dict:
    """The five models on the paper's mu and sigma; exp_decay and
    rational_decay are the paper's p1 and p2 exponents."""
    gbm_m, p1, p2 = cfg.models[0], cfg.model_by_label("p1"), cfg.model_by_label("p2")
    mu, sigma = gbm_m.mu, gbm_m.sigma
    return {
        "gbm": gbm_m,
        "cev2": varexp.cev(mu, sigma, 2.0),
        "exp_decay": p1,
        "inverse_square": ModelSpec(mu=mu, sigma=sigma,
                                    exponent=ExponentSpec.inverse_square(1.0)),
        "rational_decay": p2,
    }


def _sweep_configs(ctx: Context) -> dict:
    base = {**ctx.cfg.sim.to_dict(), "seed": ctx.seed,
            "n_base_paths": ctx.size["sweep_base_paths"]}
    return {s: SimConfig.from_dict({**base, "scheme": s}) for s in SWEEP_SCHEMES}


def _terminal(model, cfg, dw, label):
    return varexp.run_with_increments(model, cfg, dw, label).terminal.copy()


def run_scheme_sweep(ctx: Context, models: dict | None = None, refine: bool = True):
    """All schemes x models on one shared increment matrix, then the
    log-Milstein self-refinement study on the exp_decay model."""
    models = models or _sweep_models(ctx.cfg)
    cfgs = _sweep_configs(ctx)
    dw = _attempt(varexp.increment_matrix, cfgs[SWEEP_SCHEMES[0]])
    cells = {}
    for scheme, cfg in cfgs.items():
        for label, model in models.items():
            with ctx.span(f"bench.step.{scheme}.{label}"):
                cells[f"{scheme}.{label}"] = (
                    dw if isinstance(dw, Exception) else _attempt(_terminal, model, cfg, dw, label))
    if not refine:
        return cells, None
    s = ctx.size
    errors = _attempt(varexp.refinement_errors, models["exp_decay"], s["refine_dts"],
                      ref_dt=s["refine_ref_dt"], n_base_paths=s["refine_base_paths"],
                      seed=ctx.seed, t_horizon=ctx.cfg.sim.t_horizon, x0=ctx.cfg.sim.x0)
    return cells, errors


def check_scheme_sweep(ctx: Context, raw) -> list[Op]:
    cells, refine = raw
    sim = ctx.cfg.sim
    target = sim.x0 * math.exp(ctx.cfg.models[0].mu * sim.t_horizon)
    ops = []
    for name, term in cells.items():
        if isinstance(term, Exception):
            ops.append(Op(name, False, _raised(term)))
            continue
        n = term.size // 2
        sample = 0.5 * (term[:n] + term[n:]) if sim.antithetic else term
        mean = float(sample.mean())
        se = float(sample.std(ddof=1)) / math.sqrt(sample.size)
        ok = abs(mean - target) <= 4.0 * se
        ops.append(Op(name, ok, f"terminal mean {mean:.6f} vs {target:.6f} "
                      f"(4 se = {4 * se:.1e})", _sha(term.tobytes())))
    if isinstance(refine, Exception):
        ops.append(Op("refinement", False, _raised(refine)))
    elif refine is not None:
        slope = varexp.loglog_slope(refine)
        ok = 0.75 <= slope <= 1.25
        ops.append(Op("refinement", ok, f"log-Milstein slope {slope:.3f} in [0.75, 1.25]",
                      _sha(np.array(refine).tobytes())))
    return ops


def _sweep_sizes(ctx: Context) -> dict:
    s, sim = ctx.size, ctx.cfg.sim
    paths = s["sweep_base_paths"] * (2 if sim.antithetic else 1)
    r_paths = s["refine_base_paths"] * (2 if sim.antithetic else 1)
    n_fine = round(sim.t_horizon / s["refine_ref_dt"])
    coarse = [round(sim.t_horizon / d) for d in s["refine_dts"]]
    cells = len(SWEEP_SCHEMES) * len(SWEEP_MODELS)
    return {
        "models": len(SWEEP_MODELS), "schemes": len(SWEEP_SCHEMES),
        "paths": paths, "steps": sim.n_steps,
        "refine_paths": r_paths, "refine_fine_steps": n_fine, "refine_coarse_steps": coarse,
        "path_steps": cells * paths * sim.n_steps + r_paths * (n_fine + sum(coarse)),
        "increment_bytes": (paths * sim.n_steps + r_paths * n_fine) * 8,
        "dense_bytes": (cells * paths * (sim.n_steps + 1)
                        + r_paths * (n_fine + 1 + sum(c + 1 for c in coarse))) * 8,
    }


SCHEME_SWEEP = Workload(name="scheme-sweep", run=run_scheme_sweep,
                        check=check_scheme_sweep, sizes=_sweep_sizes)


# -- deliberately bad inputs, used only by the self-test ----------------------

def _bad_config_run(ctx: Context):
    bad = ctx.out / "bad_config.json"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(json.dumps({"sim": {"t_horizon": 1.0}}))  # no models: exit 2
    return [_cli(replace(ctx, config_path=bad), "strong-error")]


def _blowup_run(ctx: Context):
    return run_scheme_sweep(ctx, models={"explosive": varexp.cev(0.0, 50.0, 3.0)}, refine=False)


# -- paper-cli: the three CLI workloads as one pass ----------------------------

def _combine(name: str, parts: tuple) -> Workload:
    def run(ctx):
        return [part.run(ctx) for part in parts]

    def check(ctx, raw):
        return [op for part, r in zip(parts, raw) for op in part.check(ctx, r)]

    def sizes(ctx):
        each = {part.name: part.sizes(ctx) for part in parts}
        totals = {k: sum(s[k] for s in each.values())
                  for k in ("path_steps", "increment_bytes", "dense_bytes")}
        return {**totals, "parts": each}

    return Workload(name, run, check, sizes)


# The benchmark runs paper-cli and scheme-sweep. Its three parts stay
# runnable on their own by name.
PAPER_CLI = _combine("paper-cli", (STRONG_ERROR, DENSE_PATHS, SMILE))

WORKLOADS = {w.name: w for w in (PAPER_CLI, SCHEME_SWEEP, STRONG_ERROR, SMILE, DENSE_PATHS)}
SELFTEST_WORKLOADS = {
    "bad-config": Workload("bad-config", _bad_config_run, STRONG_ERROR.check,
                           STRONG_ERROR.sizes),
    "blowup": Workload("blowup", _blowup_run, check_scheme_sweep, _sweep_sizes),
}
