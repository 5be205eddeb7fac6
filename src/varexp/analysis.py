"""Pathwise error estimators and distributional summaries for coupled runs.

The headline statistic is the strong (pathwise) error

    E[ sup_{t <= T} |X_a(t) - X_b(t)| ]

between two batches driven by identical Brownian increments. Antithetic
pairs are averaged before the confidence interval is formed so the CI
reflects the variance-reduced estimator. The sup over continuous time is
approximated by the sup over the discrete grid. Nothing here draws an
increment or takes a step: each estimator reduces what the engine returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import engine as engine_mod
from .engine import CoupledStats, ModelPathStats, PathBatch
from .models import ModelSpec


@dataclass
class ErrorReport:
    """Strong-error estimate plus the observed path range it was measured on."""

    strong_error: float
    ci_half_width: float
    lambda_obs: float   # min state visited by either batch
    r_obs: float        # max state visited by either batch
    n_paths: int
    analytic_bound: Optional[float] = None


def _pair_mean_ci(per_path: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Mean and 95% half-width, averaging antithetic pairs first (so an
    antithetic sample must have an even length: base paths, then partners)."""
    if per_path.ndim != 1:
        raise ValueError(f"a sample must be 1-D, one value per path, not of shape {per_path.shape}")
    if antithetic:
        if per_path.size % 2:
            raise ValueError(f"an antithetic sample pairs its halves, so its length must "
                             f"be even, not {per_path.size}")
        n = per_path.size // 2
        sample = 0.5 * (per_path[:n] + per_path[n:])
    else:
        sample = per_path
    mean = float(sample.mean())
    if sample.size < 2:
        return mean, 0.0
    hw = 1.96 * float(sample.std(ddof=1)) / np.sqrt(sample.size)
    return mean, float(hw)


def _report(sup_diff: np.ndarray, antithetic: bool, lambda_obs: float, r_obs: float) -> ErrorReport:
    """The ErrorReport of per-path sup-differences on an observed range."""
    mean, hw = _pair_mean_ci(sup_diff, antithetic)
    return ErrorReport(strong_error=mean, ci_half_width=hw, lambda_obs=float(lambda_obs),
                       r_obs=float(r_obs), n_paths=sup_diff.size)


def strong_error(a: PathBatch, b: PathBatch) -> ErrorReport:
    """Pathwise sup-difference statistics for two coupled batches."""
    if a.values.shape != b.values.shape or not np.array_equal(a.time_grid, b.time_grid):
        raise ValueError("batches must share time grid and path count")
    if a.config.seed != b.config.seed or a.config.antithetic != b.config.antithetic:
        raise ValueError("batches were not produced by a coupled run")
    if a.values.size == 0:
        raise ValueError("empty batch")
    # per-path sups one recorded step at a time, in O(paths) buffers (a
    # contiguous column of a dense batch); max is exact, so no bit changes
    sups, d = np.zeros(len(a.values)), np.empty(len(a.values))
    for u, v in zip(a.values.T, b.values.T):
        np.maximum(sups, np.absolute(np.subtract(u, v, d), d), out=sups)
    return _report(sups, a.config.antithetic,
                   min(a.values.min(), b.values.min()), max(a.values.max(), b.values.max()))


def strong_error_from_stats(stats: CoupledStats, model_index: int) -> ErrorReport:
    """Strong error of model `model_index` vs the reference (index 0),
    computed from streaming accumulators instead of dense batches: the
    sup-diffs and the extrema, which the run must have computed."""
    if not (0 < model_index < len(stats.models)):
        raise ValueError("model_index must point past the reference model")
    ref, other = stats.models[0], stats.models[model_index]
    if stats.sup_abs_diff is None or ref.min_value is None:
        raise ValueError("strong_error_from_stats needs the sup_diffs and extrema reductions")
    return _report(stats.sup_abs_diff[model_index], stats.config.antithetic,
                   min(ref.min_value, other.min_value), max(ref.max_value, other.max_value))


def sup_second_moment(batch: PathBatch) -> float:
    """Mean over paths of (sup_t X)^2."""
    if batch.values.size == 0:
        raise ValueError("empty batch")
    return float(np.mean(np.max(batch.values, axis=1) ** 2))


@dataclass
class TerminalStats:
    """Distributional summary of X(T)."""

    mean: float
    variance: float
    min: float
    max: float
    bin_edges: np.ndarray   # 65 edges for 64 bins spanning [min, max]
    counts: np.ndarray


def terminal_stats(batch: PathBatch | ModelPathStats) -> TerminalStats:
    """Mean/variance/extremes plus a 64-bin histogram of the terminal values."""
    term = batch.terminal
    if term.size == 0:
        raise ValueError("empty batch")
    lo, hi = float(term.min()), float(term.max())
    if hi == lo:
        hi = lo + 1e-12  # point mass: give the histogram a nonzero span
    counts, edges = np.histogram(term, bins=64, range=(lo, hi))
    return TerminalStats(
        mean=float(term.mean()),
        variance=float(term.var(ddof=1)) if term.size > 1 else 0.0,
        min=float(term.min()), max=float(term.max()),
        bin_edges=edges, counts=counts,
    )


def refinement_errors(m: ModelSpec, coarse_dts: list[float], ref_dt: float,
                      n_base_paths: int, seed: int, t_horizon: float = 1.0,
                      x0: float = 1.0, scheme: str = engine_mod.LOG_MILSTEIN,
                      antithetic: bool = True) -> list[tuple[float, float]]:
    """Self-refinement strong errors (dt, mean sup-difference), one per coarse step size."""
    if not coarse_dts:
        raise ValueError("coarse_dts is empty: give at least one coarse step size")
    dts = np.array([ref_dt, *coarse_dts], dtype=float)
    if not np.all((dts > 0) & (dts < np.inf)):
        raise ValueError(f"ref_dt and coarse_dts must be positive and finite, not "
                         f"{ref_dt!r} and {list(coarse_dts)!r}")
    coarsest = max(coarse_dts)
    for dtc in coarse_dts:  # both relative, so the checks hold at any time scale
        if abs(round(dtc / ref_dt) * ref_dt - dtc) > 1e-9 * dtc:
            raise ValueError("each coarse dt must be an integer multiple of ref_dt")
        if abs(round(coarsest / dtc) * dtc - coarsest) > 1e-9 * coarsest:
            raise ValueError("the coarsest dt must be a multiple of every level")

    fine_cfg = engine_mod.SimConfig(
        t_horizon=t_horizon, dt=ref_dt, n_base_paths=n_base_paths, seed=seed,
        antithetic=antithetic, scheme=engine_mod.LOG_MILSTEIN, x0=x0,
    )
    levels = [replace(fine_cfg, dt=dtc, scheme=scheme) for dtc in coarse_dts]
    sups = engine_mod._refinement_sups(m, fine_cfg, levels)
    return [(c.dt, _pair_mean_ci(s, antithetic)[0]) for c, s in zip(levels, sups)]


def loglog_slope(pairs: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(dt), over at least two
    distinct step sizes; every step and error must be positive and finite."""
    dts, errs = (np.array([p[k] for p in pairs], dtype=float) for k in (0, 1))
    for name, v in (("step sizes", dts), ("errors", errs)):
        if not np.all((v > 0) & (v < np.inf)):
            raise ValueError(f"{name} must be positive and finite, not {v.tolist()}")
    if len(np.unique(dts)) < 2:
        raise ValueError(f"a slope needs at least two distinct step sizes, not {dts.tolist()}")
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
