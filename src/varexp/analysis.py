"""Pathwise error estimators and distributional summaries for coupled runs.

The headline statistic is the strong (pathwise) error

    E[ sup_{t <= T} |X_a(t) - X_b(t)| ]

between two batches driven by identical Brownian increments. Antithetic
pairs are averaged before the confidence interval is formed so the CI
reflects the variance-reduced estimator. The sup over continuous time is
approximated by the sup over the discrete grid.
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
    """Mean and 95% half-width, averaging antithetic pairs first."""
    if antithetic:
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
    return _report(np.max(np.abs(a.values - b.values), axis=1), a.config.antithetic,
                   min(a.values.min(), b.values.min()), max(a.values.max(), b.values.max()))


def strong_error_from_stats(stats: CoupledStats, model_index: int) -> ErrorReport:
    """Strong error of model `model_index` vs the reference (index 0),
    computed from streaming accumulators instead of dense batches."""
    if not (0 < model_index < len(stats.models)):
        raise ValueError("model_index must point past the reference model")
    ref, other = stats.models[0], stats.models[model_index]
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
    """Self-refinement strong errors for a scheme, one per coarse step size.

    One stream of fine increments at ref_dt drives everything: the
    reference solution steps it directly and each coarse level consumes its
    block sums, so differences isolate discretization error. The fine
    increments are drawn a block of steps at a time (a multiple of the
    coarsest level's multiple of ref_dt), each path's Philox state carried
    from block to block; each coarse level's sums are taken from the
    path-major block before it is transposed for the reference run, so no
    O(paths x fine steps) array is ever held, and the errors are the same
    bytes however the steps are blocked. The sup runs over the grid of the
    coarsest level at every refinement - measuring each level on its own
    grid would bias the coarse errors downward (fewer points, smaller sup)
    and flatten the fitted order.
    """
    coarsest = max(coarse_dts)
    for dtc in coarse_dts:
        if abs(round(dtc / ref_dt) * ref_dt - dtc) > 1e-9 * dtc:
            raise ValueError("each coarse dt must be an integer multiple of ref_dt")
        if abs(round(coarsest / dtc) * dtc - coarsest) > 1e-9:
            raise ValueError("the coarsest dt must be a multiple of every level")

    fine_cfg = engine_mod.SimConfig(
        t_horizon=t_horizon, dt=ref_dt, n_base_paths=n_base_paths, seed=seed,
        antithetic=antithetic, scheme=engine_mod.LOG_MILSTEIN, x0=x0,
    )
    m_paths = fine_cfg.n_paths
    levels = [replace(fine_cfg, dt=dtc, scheme=scheme) for dtc in coarse_dts]
    engine_mod._require_fits(m_paths * sum(c.n_steps for c in levels) * 8,
                             "coarse increments")
    # step-major increments of each level, filled as the fine blocks stream
    dwc = [np.empty((c.n_steps, m_paths)) for c in levels]
    mults = [round(c.dt / ref_dt) for c in levels]
    cm = round(coarsest / ref_dt)
    block = max(1, engine_mod._BLOCK_STEPS // cm) * cm

    def fine_blocks():
        k0 = 0
        for dw in engine_mod._increment_blocks(fine_cfg, 0, n_base_paths, block):
            for mult, d in zip(mults, dwc):
                sums = dw.reshape(m_paths, -1, mult).sum(axis=2)
                d[k0 // mult:k0 // mult + sums.shape[1]] = sums.T
            k0 += dw.shape[1]
            yield dw

    # only the shared_n + 1 points of the coarsest grid are kept, not paths
    shared_n = round(t_horizon / coarsest)
    ref = engine_mod._advance([m], fine_cfg, ["reference"],
                              engine_mod._step_major(fine_blocks()), m_paths,
                              engine_mod.PATHS, cm)["values"][0]
    out = []
    for cfg_c in levels:  # each level's increments are freed once stepped
        diff = engine_mod._advance([m], cfg_c, ["coarse"], [dwc.pop(0)], m_paths,
                                   engine_mod.PATHS, cfg_c.n_steps // shared_n)["values"][0]
        np.abs(np.subtract(diff, ref, out=diff), out=diff)
        mean, _ = _pair_mean_ci(diff.max(axis=1), antithetic)
        out.append((cfg_c.dt, mean))
    return out


def loglog_slope(pairs: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    xs = np.log([p[0] for p in pairs])
    ys = np.log([p[1] for p in pairs])
    return float(np.polyfit(xs, ys, 1)[0])
