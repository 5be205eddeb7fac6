"""Path simulation engine.

Brownian increments come from counter-based Philox streams keyed by
(seed, path_index), so every path's noise is reproducible regardless of
how paths are partitioned across workers. One private kernel, `_advance`,
steps every model over the increment matrix; the entry points differ only
in what they observe after each step: dense paths, terminal values only,
or streaming reductions. Four schemes are provided; the log-transformed
Milstein scheme is the default: it discretizes Y = ln X, which keeps every
path strictly positive by construction and is exact for geometric Brownian
motion (the Milstein correction vanishes when the log-space diffusion is
constant).

Log-space coefficients, with x = e^y:

    b(y)  = sigma * x^(p(x)-1)            diffusion of Y
    a(y)  = mu - b(y)^2 / 2               drift of Y (Ito correction)
    b'(y) = b(y) * [(p(x)-1) + x p'(x) ln x]

and one Milstein step is y' = y + a dt + b dW + 0.5 b b' (dW^2 - dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exponent import eval_dp, eval_p, eval_phi
from .models import ModelSpec, diffusion, diffusion_deriv, drift

EULER = "euler"
MILSTEIN = "milstein"
LOG_EULER = "log_euler"
LOG_MILSTEIN = "log_milstein"
SCHEMES = (EULER, MILSTEIN, LOG_EULER, LOG_MILSTEIN)

# Direct-space schemes clamp non-positive states to this floor and count
# the breach; the continuous-time process never hits zero, so a breach is
# purely a discretization artifact worth surfacing.
POSITIVITY_FLOOR = 1e-12

# |ln X| beyond this is a blown-up path (exp would overflow float64 soon).
LOG_OVERFLOW_LIMIT = 700.0

# Cap on each O(n_paths * n_steps) array: the increment matrix, and the
# dense paths of a coupled run (larger runs use simulate_coupled_stats).
MEMORY_CAP_BYTES = 2 << 30


class BlowUpError(RuntimeError):
    """A path left the representable range during simulation."""

    def __init__(self, path_indices, step_index: int, model_label: str = ""):
        self.path_indices = list(int(i) for i in np.atleast_1d(path_indices))
        self.step_index = int(step_index)
        self.model_label = model_label
        super().__init__(
            f"path(s) {self.path_indices} blew up at step {self.step_index}"
            + (f" for model {model_label!r}" if model_label else "")
        )


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    n_steps is derived from t_horizon/dt and must divide the horizon
    evenly; total path count doubles when antithetic is set.
    """

    t_horizon: float
    dt: float
    n_base_paths: int
    seed: int
    antithetic: bool = True
    scheme: str = LOG_MILSTEIN
    x0: float = 1.0

    def __post_init__(self):
        if self.t_horizon <= 0 or self.dt <= 0:
            raise ValueError("t_horizon and dt must be positive")
        if self.n_base_paths < 1:
            raise ValueError("n_base_paths must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        n = round(self.t_horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.t_horizon) > 1e-12 * self.t_horizon:
            raise ValueError("dt must divide t_horizon evenly")

    @property
    def n_steps(self) -> int:
        return round(self.t_horizon / self.dt)

    @property
    def n_paths(self) -> int:
        return self.n_base_paths * (2 if self.antithetic else 1)

    @property
    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_horizon, self.n_steps + 1)

    def to_dict(self) -> dict:
        return {
            "t_horizon": self.t_horizon, "dt": self.dt,
            "n_base_paths": self.n_base_paths, "seed": self.seed,
            "antithetic": self.antithetic, "scheme": self.scheme, "x0": self.x0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(
            t_horizon=float(d["t_horizon"]), dt=float(d["dt"]),
            n_base_paths=int(d["n_base_paths"]), seed=int(d["seed"]),
            antithetic=bool(d.get("antithetic", True)),
            scheme=str(d.get("scheme", LOG_MILSTEIN)),
            x0=float(d.get("x0", 1.0)),
        )


# -- increments ------------------------------------------------------------

def gen_increments(seed: int, path_index: int, n_steps: int, dt: float) -> np.ndarray:
    """n_steps i.i.d. N(0, dt) increments for one path.

    The stream is keyed by (seed, path_index), so the same pair always
    yields the same array no matter how many workers draw it or in what
    order.
    """
    if n_steps < 1 or dt <= 0:
        raise ValueError("need n_steps >= 1 and dt > 0")
    key = np.array([seed, path_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.normal(0.0, math.sqrt(dt), n_steps)


def increment_matrix(cfg: SimConfig) -> np.ndarray:
    """(n_paths, n_steps) increment matrix for a whole run.

    Rows 0..n_base_paths-1 come straight from gen_increments; with
    antithetic sampling row n_base_paths + i is the negation of row i.
    Raises MemoryError, before allocating, above MEMORY_CAP_BYTES.
    """
    need = cfg.n_paths * cfg.n_steps * 8
    if need > MEMORY_CAP_BYTES:
        raise MemoryError(
            f"increment matrix needs {need / 2**30:.1f} GiB > cap "
            f"{MEMORY_CAP_BYTES / 2**30:.0f} GiB"
        )
    n = cfg.n_base_paths
    dw = np.empty((cfg.n_paths, cfg.n_steps))
    for i in range(n):
        dw[i] = gen_increments(cfg.seed, i, cfg.n_steps, cfg.dt)
    if cfg.antithetic:
        np.negative(dw[:n], out=dw[n:])
    return dw


# -- single steps (the schemes) ---------------------------------------------

def _log_step(m: ModelSpec, y: np.ndarray, x: np.ndarray, dt: float,
              dw: np.ndarray, milstein: bool) -> np.ndarray:
    """Advance Y = ln X by one step; x must equal exp(y)."""
    p = eval_p(m.exponent, x)
    b = m.sigma * np.exp((p - 1.0) * y)  # sigma * x^(p-1)
    incr = (m.mu - 0.5 * b * b) * dt + b * dw
    if milstein:
        b_prime = b * ((p - 1.0) + x * eval_dp(m.exponent, x) * y)
        incr = incr + 0.5 * b * b_prime * (dw * dw - dt)
    return y + incr


def step_log_milstein(m: ModelSpec, x, dt: float, dw) -> float | np.ndarray:
    """One log-space Milstein step; always returns a positive state."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("state must be positive")
    y2 = _log_step(m, np.log(xs), xs, dt, np.asarray(dw, dtype=float), milstein=True)
    bad = np.abs(y2) > LOG_OVERFLOW_LIMIT
    if np.any(bad):
        raise BlowUpError(np.nonzero(np.atleast_1d(bad))[0], step_index=0)
    out = np.exp(y2)
    return float(out) if np.ndim(x) == 0 and np.ndim(dw) == 0 else out


def step_euler(m: ModelSpec, x, dt: float, dw) -> float | np.ndarray:
    """Direct-space Euler-Maruyama step; may return a non-positive value.

    Callers are responsible for the positivity policy (_advance
    clamps to POSITIVITY_FLOOR and counts the breach).
    """
    return x + drift(m, x) * dt + diffusion(m, x) * np.asarray(dw, dtype=float)


def step_milstein(m: ModelSpec, x, dt: float, dw) -> float | np.ndarray:
    """Direct-space Milstein step; positivity policy as step_euler."""
    dwa = np.asarray(dw, dtype=float)
    g = diffusion(m, x)
    return (x + drift(m, x) * dt + g * dwa
            + 0.5 * g * diffusion_deriv(m, x) * (dwa * dwa - dt))


# -- batches ----------------------------------------------------------------

@dataclass
class PathBatch:
    """Dense simulated paths: one row per path on the shared time grid."""

    time_grid: np.ndarray
    values: np.ndarray  # (n_paths, n_steps + 1)
    model_label: str
    config: SimConfig
    breach_counts: np.ndarray  # per-path floor clamps

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]

    def summary_dict(self) -> dict:
        term = self.terminal
        return {
            "model": self.model_label,
            "n_paths": int(self.values.shape[0]),
            "terminal_mean": float(term.mean()),
            "terminal_variance": float(term.var(ddof=1)) if term.size > 1 else 0.0,
            "min_value": float(self.values.min()),
            "max_value": float(self.values.max()),
            "positivity_breaches": int(self.breach_counts.sum()),
            "seed": self.config.seed,
            "scheme": self.config.scheme,
        }

    def to_csv(self, path, max_paths: int = 1000) -> None:
        """Write `t,path_0,path_1,...`, subsampled to at most max_paths rows."""
        n = min(self.values.shape[0], max_paths)
        header = "t," + ",".join(f"path_{i}" for i in range(n))
        data = np.column_stack([self.time_grid, self.values[:n].T])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.12g")


def _require_dense_fits(cfg: SimConfig, n_models: int = 1) -> None:
    need = cfg.n_paths * (cfg.n_steps + 1) * 8 * n_models
    if need > MEMORY_CAP_BYTES:
        raise MemoryError(
            f"dense path storage needs {need / 2**30:.1f} GiB > cap "
            f"{MEMORY_CAP_BYTES / 2**30:.0f} GiB; use simulate_coupled_stats"
        )


def _advance(models: Sequence[ModelSpec], cfg: SimConfig, dw: np.ndarray,
             labels: Sequence[str], observe=None):
    """Step every model over the shared increments dw (n_paths, n_steps).

    Step-outer, model-inner; after step k, observe(k, xs) sees the list of
    current states, one per model. Returns the terminal states and the
    per-path positivity-floor breach counts of each model.
    """
    n_paths, n_steps = dw.shape
    dt = cfg.dt
    log_space = cfg.scheme in (LOG_EULER, LOG_MILSTEIN)
    milstein = cfg.scheme in (MILSTEIN, LOG_MILSTEIN)
    step = step_milstein if milstein else step_euler
    # Per-model states are 1-D arrays rebound each step (in-place row writes
    # were measured slower). Log schemes start from exp(log(x0)), which
    # differs from x0 in the last ulp unless x0 == 1; outputs depend on it.
    ys = [np.full(n_paths, math.log(cfg.x0)) for _ in models]
    xs = [np.exp(y) for y in ys] if log_space else [np.full(n_paths, cfg.x0) for _ in models]
    breaches = [np.zeros(n_paths, dtype=int) for _ in models]
    for k in range(n_steps):
        dwk = dw[:, k]
        for j, m in enumerate(models):
            if log_space:
                y = _log_step(m, ys[j], xs[j], dt, dwk, milstein)
                bad = np.abs(y) > LOG_OVERFLOW_LIMIT
                if bad.any():
                    raise BlowUpError(np.nonzero(bad)[0], k, labels[j])
                ys[j] = y
                xs[j] = np.exp(y)
                continue
            x = step(m, xs[j], dt, dwk)
            low = x < POSITIVITY_FLOOR
            if low.any():
                breaches[j] += low
                x = np.where(low, POSITIVITY_FLOOR, x)
            if not np.all(np.isfinite(x)):
                raise BlowUpError(np.nonzero(~np.isfinite(x))[0], k, labels[j])
            xs[j] = x
        if observe is not None:
            observe(k, xs)
    return xs, breaches


def run_with_increments(m: ModelSpec, cfg: SimConfig, dw: np.ndarray,
                        label: str = "model") -> PathBatch:
    """Advance all paths of one model over a caller-supplied increment
    matrix of shape (n_paths, n_steps) with cfg's step size."""
    dw = np.asarray(dw, dtype=float)
    if dw.ndim != 2 or dw.shape[1] != cfg.n_steps:
        raise ValueError("increment matrix must be (n_paths, cfg.n_steps)")
    values = np.empty((dw.shape[0], dw.shape[1] + 1))
    values[:, 0] = cfg.x0

    def record(k, xs):
        values[:, k + 1] = xs[0]

    _, (breaches,) = _advance([m], cfg, dw, [label], record)
    return PathBatch(time_grid=cfg.time_grid, values=values,
                     model_label=label, config=cfg, breach_counts=breaches)


def simulate_batch(m: ModelSpec, cfg: SimConfig, label: str = "model") -> PathBatch:
    """Simulate one model; deterministic for fixed (m, cfg)."""
    return simulate_coupled([m], cfg, [label])[0]


def _labels_for(models: Sequence[ModelSpec], labels: Optional[Sequence[str]]) -> list[str]:
    if labels is None:
        labels = [f"model_{i}" for i in range(len(models))]
    if len(labels) != len(models):
        raise ValueError("labels must match models")
    return list(labels)


def simulate_coupled(models: Sequence[ModelSpec], cfg: SimConfig,
                     labels: Optional[Sequence[str]] = None) -> list[PathBatch]:
    """Simulate several models over identical Brownian increments.

    Path i of every returned batch consumed the same increment array, so
    pathwise differences isolate model structure rather than noise.
    """
    labels = _labels_for(models, labels)
    _require_dense_fits(cfg, n_models=len(models))
    dw = increment_matrix(cfg)
    return [run_with_increments(m, cfg, dw, lab) for m, lab in zip(models, labels)]


# -- streaming accumulators (runs too large for dense storage) ---------------

@dataclass
class ModelPathStats:
    """Per-model accumulators kept when dense paths are not stored."""

    label: str
    terminal: np.ndarray   # (n_paths,)
    path_sup: np.ndarray   # per-path running sup of X
    min_value: float
    max_value: float
    phi_min: float         # range of x^p(x) over visited states
    phi_max: float


@dataclass
class CoupledStats:
    """Streaming reduction of a coupled run: model stats + pathwise sup-diffs.

    sup_abs_diff[j] holds, per path, sup_t |X_j(t) - X_0(t)| against the
    first (reference) model.
    """

    config: SimConfig
    models: list[ModelPathStats]
    sup_abs_diff: np.ndarray  # (n_models, n_paths); row 0 is zeros


def simulate_coupled_terminals(models: Sequence[ModelSpec], cfg: SimConfig) -> list[np.ndarray]:
    """Coupled simulation keeping only the terminal values.

    Lean variant for pricing workloads: identical increments and stepping
    as simulate_coupled, no per-path accumulators, any scheme.
    """
    terminals, _ = _advance(models, cfg, increment_matrix(cfg), _labels_for(models, None))
    return terminals


def simulate_coupled_stats(models: Sequence[ModelSpec], cfg: SimConfig,
                           labels: Optional[Sequence[str]] = None) -> CoupledStats:
    """Coupled simulation keeping only reductions, never the dense paths.

    Produces exactly the statistics the analysis layer needs (terminal
    values, per-path sups, state extrema, diffusion-factor range and
    sup-differences vs the first model) with O(n_paths) memory beyond the
    increment matrix.
    """
    labels = _labels_for(models, labels)
    if cfg.scheme not in (LOG_EULER, LOG_MILSTEIN):
        raise ValueError("streaming reduction supports the log-space schemes only")
    dw = increment_matrix(cfg)
    x0 = cfg.x0
    path_sup = [np.full(cfg.n_paths, x0) for _ in models]
    min_val = [x0] * len(models)
    phi_min = [float(eval_phi(m.exponent, x0)) for m in models]
    phi_max = list(phi_min)
    sup_diff = np.zeros((len(models), cfg.n_paths))

    def accumulate(k, xs):
        for j, (m, x) in enumerate(zip(models, xs)):
            np.maximum(path_sup[j], x, out=path_sup[j])
            min_val[j] = min(min_val[j], float(x.min()))
            phi = np.asarray(eval_phi(m.exponent, x))
            phi_min[j] = min(phi_min[j], float(phi.min()))
            phi_max[j] = max(phi_max[j], float(phi.max()))
            if j > 0:
                np.maximum(sup_diff[j], np.abs(x - xs[0]), out=sup_diff[j])

    terminals, _ = _advance(models, cfg, dw, labels, accumulate)
    stats = [
        ModelPathStats(label=labels[j], terminal=terminals[j], path_sup=path_sup[j],
                       min_value=min_val[j], max_value=float(path_sup[j].max()),
                       phi_min=phi_min[j], phi_max=phi_max[j])
        for j in range(len(models))
    ]
    return CoupledStats(config=cfg, models=stats, sup_abs_diff=sup_diff)
