"""Path simulation engine.

Brownian increments come from counter-based Philox streams keyed by
(seed, path_index), so every path's noise is reproducible regardless of
how paths are partitioned across workers. One private runner, `_advance`,
steps every model over step-major increments with a stepper built once per
run and keeps what its caller asks for: the states on a grid (PATHS), the
terminal values only (TERMINAL), or the streaming reductions (STATS),
computed right after each model's step. Coupled runs step contiguous
ranges of base paths (with their antithetic partners) as chunks of bounded
memory: a dense run is one in-process chunk; streaming runs use a pool of
forked workers when there are several chunks and CPUs, and merge the
chunks' results exactly, in global path order. run_with_increments steps a
caller's path-major matrix through the same runner; there is no other way
to take a step.

Euler and Milstein step X itself: x' = x + mu x dt + g dW, plus
0.5 g g' (dW^2 - dt) for Milstein, with g = sigma x^p(x); states below
POSITIVITY_FLOOR are clamped and counted as breaches. Log-Euler and the
default log-Milstein discretize Y = ln X, which keeps every path positive
and is exact for GBM. With x = e^y:

    b(y)  = sigma * x^(p(x)-1)            diffusion of Y
    a(y)  = mu - b(y)^2 / 2               drift of Y (Ito correction)
    b'(y) = b(y) * [(p(x)-1) + x p'(x) ln x]

and one Milstein step is y' = y + a dt + b dW + 0.5 b b' (dW^2 - dt).

Each step gives that formula's floats with the least arithmetic: p, p',
phi and phi' from one unvalidated evaluation sharing p, log x and x^p
(one exp for exp_decay's p), nothing for GBM; dW^2 - dt once per step for
all models. A step allocates nothing: each model's stepper is built once
per run with buffers of the run's width and its constants as 0-d arrays,
overwrites its state in place and writes every intermediate into those
buffers, in the formula's operation and operand order. Inputs are checked
once, by SimConfig and ModelSpec; no step re-validates its state. The
check after each step reads the new state with reductions alone, and looks
for the paths out of range only when a reduction fails.

Increments reach the runner as C-contiguous step-major blocks (B, m), so
each step reads one contiguous row: a streaming chunk is one block; a
caller's path-major matrix is cut into blocks of _BLOCK_STEPS steps by
strip transposes; and the refinement study draws its fine increments a
block at a time, each path keeping its own Philox generator from block to
block.
Dense states are recorded step-major and flushed into the path-major
values about every _BLOCK_STEPS steps. The outputs are the same bytes
however the steps are blocked.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .exponent import (CONSTANT, _integral, _number, _p_dp_kernel, _phi_dphi,
                       _phi_dphi_kernel)
from .models import ModelSpec

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

# Increment bytes per chunk of a streaming run, chosen with perfbench's
# paper-cli workload on a 2-core host: smaller chunks pay the per-step
# overhead more often, larger ones hold more memory per worker.
_CHUNK_BYTES = 96 << 20

# Steps per increment block cut from a path-major source, and steps per
# flush of the dense recording buffer; blocks are transposed this many paths
# at a time, in 128 KiB tiles that stay in cache (chosen by timing the
# transposes of 8000 x 1000 and 512 x 100000 matrices on a 2-core host).
_BLOCK_STEPS = 128


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

    def __reduce__(self):  # pickled with its fields, so it crosses a pool
        return type(self), (self.path_indices, self.step_index, self.model_label)


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
        if not all(map(math.isfinite, (self.t_horizon, self.dt, self.x0))):
            raise ValueError("t_horizon, dt and x0 must be finite")
        if self.t_horizon <= 0 or self.dt <= 0:
            raise ValueError("t_horizon and dt must be positive")
        if self.n_base_paths < 1:
            raise ValueError("n_base_paths must be >= 1")
        if self.n_base_paths > 2**64:
            raise ValueError("n_base_paths must be <= 2**64: path indices key Philox "
                             "as unsigned 64-bit integers")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.antithetic, bool):
            raise ValueError(f"antithetic must be true or false, not {self.antithetic!r}")
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """The config a JSON object describes: numbers must be JSON numbers,
        and counts integral (3 or 3.0, not True)."""
        return cls(
            t_horizon=_number(d["t_horizon"], "t_horizon"), dt=_number(d["dt"], "dt"),
            n_base_paths=_integral(d["n_base_paths"], "n_base_paths"),
            seed=_integral(d["seed"], "seed"), antithetic=d.get("antithetic", True),
            scheme=d.get("scheme", LOG_MILSTEIN), x0=_number(d.get("x0", 1.0), "x0"),
        )


# -- increments ------------------------------------------------------------

def _require_fits(need: int, what: str, hint: str = "") -> None:
    """Raise MemoryError, before allocating, if need bytes exceed the cap."""
    if need > MEMORY_CAP_BYTES:
        raise MemoryError(f"{what} needs {need / 2**30:.1f} GiB > cap "
                          f"{MEMORY_CAP_BYTES / 2**30:.0f} GiB{hint}")


def _draw_rows(cfg: SimConfig, lo: int, hi: int, n_draws: int,
               states: Optional[list] = None):
    """Yield n_draws increments of each base path lo..hi-1, one path at a
    time.

    Without `states`, one generator, re-keyed per path: a fresh state
    (counter 0, empty buffer) with key (seed, i) draws exactly what a new
    Generator(Philox(key=[seed, i])) draws, so path i's increments do not
    depend on how the paths are partitioned; a re-key costs less than a new
    generator. `states`, one entry per path (None before its first draw),
    holds each path's own Generator(Philox(key=[seed, i])) from one call to
    the next, so that each call draws the steps after the last call's: a
    path's steps drawn block by block are the bits of one draw, however the
    steps are blocked.
    """
    scale = math.sqrt(cfg.dt)
    if states is not None:
        for c, i in enumerate(range(lo, hi)):
            if states[c] is None:
                states[c] = np.random.Generator(np.random.Philox(
                    key=np.array([cfg.seed, i], dtype=np.uint64)))
            yield states[c].normal(0.0, scale, n_draws)
        return
    bitgen = np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    for i in range(lo, hi):
        fresh["state"]["key"][1] = i
        bitgen.state = fresh
        yield rng.normal(0.0, scale, n_draws)


def _increment_blocks(cfg: SimConfig, block: int):
    """The run's increment matrix as path-major (n_paths, B) blocks of
    `block` steps (the last may be shorter), drawn one block at a time into
    one buffer that the next block overwrites: side by side they are
    increment_matrix(cfg). A run of one block re-keys one generator; a run
    of several keeps one generator per path from block to block."""
    n = cfg.n_base_paths
    states = [None] * n if block < cfg.n_steps else None
    buf = np.empty((cfg.n_paths, min(block, cfg.n_steps)))
    for k0 in range(0, cfg.n_steps, block):
        dw = buf[:, :min(block, cfg.n_steps - k0)]
        for i, row in enumerate(_draw_rows(cfg, 0, n, dw.shape[1], states)):
            dw[i] = row
        if cfg.antithetic:
            np.negative(dw[:n], out=dw[n:])
        yield dw


def increment_matrix(cfg: SimConfig) -> np.ndarray:
    """(n_paths, n_steps) increment matrix for a whole run.

    Rows 0..n_base_paths-1 come straight from _draw_rows; with
    antithetic sampling row n_base_paths + i is the negation of row i.
    Raises MemoryError, before allocating, above MEMORY_CAP_BYTES.
    """
    _require_fits(cfg.n_paths * cfg.n_steps * 8, "increment matrix")
    return next(_increment_blocks(cfg, cfg.n_steps))


def _step_major(blocks):
    """Yield each path-major (m, B) block of `blocks` as a C-contiguous
    step-major (B, m) copy, made by strip transposes of _BLOCK_STEPS paths
    into one buffer that the next block overwrites."""
    buf = None
    for b in blocks:
        m, n = b.shape
        if buf is None or len(buf) < n:
            buf = np.empty((n, m))
        out = buf[:n]
        for i in range(0, m, _BLOCK_STEPS):
            out[:, i:i + _BLOCK_STEPS] = b[i:i + _BLOCK_STEPS].T
        yield out


def _increment_chunk(cfg: SimConfig, lo: int, hi: int) -> np.ndarray:
    """Step-major (n_steps, m) increments of base paths lo..hi-1: column c
    is path lo + c and, with antithetic sampling, column hi - lo + c its
    negation. Row k, step k's increments, is contiguous."""
    nb = hi - lo
    m = nb * (cfg.n_paths // cfg.n_base_paths)
    _require_fits(m * cfg.n_steps * 8, "increment chunk")
    dw = np.empty((cfg.n_steps, m))
    for c, row in enumerate(_draw_rows(cfg, lo, hi, cfg.n_steps)):
        dw[:, c] = row
    if cfg.antithetic:
        np.negative(dw[:, :nb], out=dw[:, nb:])
    return dw


# -- steppers (the schemes) -------------------------------------------------
#
# Built once per model and run: buffers of length m, operands as 0-d arrays
# (numpy reads them more cheaply than Python floats).

def _log_stepper(model: ModelSpec, dt: float, milstein: bool, m: int):
    """Model's log-space step f(y, x, dw, dw2), which overwrites y with y'
    for x = exp(y) and dw2 = dw*dw - dt. x is not re-validated:
    |y| <= LOG_OVERFLOW_LIMIT keeps it positive and finite. Every variant
    gives the generic formula's floats.
    """
    spec = model.exponent
    mu, sigma, dt0, half, one = (np.array(v) for v in (model.mu, model.sigma, dt, 0.5, 1.0))
    t = np.empty(m)
    if spec.kind == CONSTANT and spec.gamma == 1.0:
        drift_dt = np.array((model.mu - 0.5 * model.sigma * model.sigma) * dt)

        def gbm_step(y, x, dw, dw2):  # y + (drift_dt + sigma dw)
            np.add(y, np.add(drift_dt, np.multiply(sigma, dw, out=t), out=t), out=y)
        return gbm_step

    constant = spec.kind == CONSTANT
    # p - 1 is constant and p' = 0 adds nothing to b' for a constant kind
    gamma_m1 = np.array(spec.gamma - 1.0) if constant else None
    p_dp = None if constant else _p_dp_kernel(spec, m, milstein)
    b, half_b, incr = np.empty(m), np.empty(m), np.empty(m)

    def step(y, x, dw, dw2):
        if constant:
            pm1 = gamma_m1
        else:
            pm1, dp = p_dp(x)
            np.subtract(pm1, one, out=pm1)
        np.multiply(sigma, np.exp(np.multiply(pm1, y, out=b), out=b), out=b)  # sigma x^(p-1)
        np.multiply(half, b, out=half_b)
        np.multiply(np.subtract(mu, np.multiply(half_b, b, out=incr), out=incr), dt0, out=incr)
        np.add(incr, np.multiply(b, dw, out=t), out=incr)  # (mu - b^2/2) dt + b dw
        if milstein:  # b' = b ((p-1) + x p' y)
            if constant:
                np.multiply(b, pm1, out=t)
            else:
                np.multiply(np.multiply(x, dp, out=t), y, out=t)
                np.multiply(b, np.add(pm1, t, out=t), out=t)
            np.multiply(np.multiply(half_b, t, out=t), dw2, out=t)
            np.add(incr, t, out=incr)
        np.add(incr, y, out=y)

    return step


def _check_log_range(y, scratch, step_index: int, label: str = "") -> None:
    """Raise BlowUpError unless every |y| <= LOG_OVERFLOW_LIMIT (NaN fails);
    one reduction of |y|, written into scratch, when every path is in range."""
    if not np.maximum.reduce(np.abs(y, out=scratch), initial=0.0) <= LOG_OVERFLOW_LIMIT:
        bad = ~(np.abs(y) <= LOG_OVERFLOW_LIMIT)
        raise BlowUpError(np.nonzero(bad)[0], step_index, label)


def _direct_stepper(model: ModelSpec, dt: float, milstein: bool, m: int):
    """Model's direct-space step f(x, dw, dw2, out), which writes x' into
    out (which may be x) for dw2 = dw*dw - dt. x is not re-validated:
    _advance keeps it finite and >= POSITIVITY_FLOOR. Every variant gives
    the generic formula's floats."""
    spec = model.exponent
    gbm = spec.kind == CONSTANT and spec.gamma == 1.0  # phi = x, phi' = 1 exactly
    phi_dphi = None if gbm else _phi_dphi_kernel(spec, m, milstein)
    mu, sigma, dt0, half = (np.array(v) for v in (model.mu, model.sigma, dt, 0.5))
    g, t = np.empty(m), np.empty(m)

    def step(x, dw, dw2, out):
        phi, dphi = (x, None) if gbm else phi_dphi(x)
        np.multiply(sigma, phi, out=g)
        np.add(x, np.multiply(np.multiply(mu, x, out=t), dt0, out=t), out=out)
        np.add(out, np.multiply(g, dw, out=t), out=out)  # x + mu x dt + g dw
        if milstein:  # 0.5 g (sigma phi') dw2, with sigma phi' = sigma for GBM
            np.multiply(half, g, out=g)
            np.multiply(g, sigma if gbm else np.multiply(sigma, dphi, out=dphi), out=g)
            np.add(out, np.multiply(g, dw2, out=g), out=out)

    return step


def _check_direct(x, breaches, step_index: int, label: str = "") -> None:
    """Clamp x below POSITIVITY_FLOOR to the floor in place, counting each
    clamp in breaches, then raise BlowUpError unless every x is finite; two
    reductions when every x is finite and at or above the floor."""
    if np.minimum.reduce(x, initial=np.inf) >= POSITIVITY_FLOOR \
            and np.maximum.reduce(x, initial=-np.inf) < np.inf:  # NaN fails both
        return
    low = x < POSITIVITY_FLOOR
    if low.any():
        breaches += low
        x[low] = POSITIVITY_FLOOR
    if not np.all(np.isfinite(x)):
        raise BlowUpError(np.nonzero(~np.isfinite(x))[0], step_index, label)


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


# What _advance keeps besides terminals and breaches: the states on a grid,
# nothing more, or the streaming reductions of simulate_coupled_stats.
PATHS, TERMINAL, STATS = "paths", "terminal", "stats"


def _advance(models: Sequence[ModelSpec], cfg: SimConfig, labels: Sequence[str],
             blocks: Iterable[np.ndarray], m: int, keep: str, stride: int = 1) -> dict:
    """Step every model over m paths' shared increments, read as C-contiguous
    step-major blocks (B, m) that hold cfg.n_steps steps in all, and keep
    what `keep` asks for. Each block is read before the next is taken.

    Always kept: "terminal" (n_models, m) and the per-path positivity-floor
    breach counts of each model ("breaches"). PATHS adds each model's states
    at every stride-th grid point, x0 first ("values"); STATS adds per-path
    sups and sup-diffs against model 0, the extrema of X and x^p(x) over the
    visited states and path 0's states, all from x0 on, so that chunks merge
    by extrema, sums and concatenation alone. Step-outer, model-inner: model
    0 steps first, so its state is current when a later model's sup-diff
    reads it, and a blow-up names the earliest step, then the first model.
    """
    n_steps, dt, n = cfg.n_steps, cfg.dt, len(models)
    log_space = cfg.scheme in (LOG_EULER, LOG_MILSTEIN)
    milstein = cfg.scheme in (MILSTEIN, LOG_MILSTEIN)
    stepper = _log_stepper if log_space else _direct_stepper
    steps = [stepper(model, dt, milstein, m) for model in models]
    # Each model's state is one buffer that its step overwrites: y for log
    # schemes, whose x = exp(y) goes into xbuf or a recording row, and x for
    # direct ones, which step into xbuf or a recording row. Log schemes start
    # from exp(log(x0)), which differs from x0 in the last ulp unless
    # x0 == 1; outputs depend on it.
    ys = [np.full(m, math.log(cfg.x0)) for _ in models]
    xbuf = [np.exp(y) for y in ys] if log_space else [np.full(m, cfg.x0) for _ in models]
    xs, breaches = list(xbuf), [np.zeros(m, dtype=int) for _ in models]
    dt0, dw2, scratch = np.array(dt), np.empty(m), np.empty(m)
    if keep == PATHS:
        values = np.empty((n, m, n_steps // stride + 1))
        values[:, :, 0] = cfg.x0
        # step-major rows of about _BLOCK_STEPS steps, flushed into values
        # when full and after the last
        rows = min(-(-_BLOCK_STEPS // stride), n_steps // stride)
        rec, flushed, r = np.empty((n, rows, m)), 1, 0
    elif keep == STATS:
        # from x0 itself, as the PATHS grid, not from exp(log(x0))
        path_sup, sup_diff = np.full((n, m), cfg.x0), np.zeros((n, m))
        phi0 = [float(_phi_dphi(model.exponent, np.array(cfg.x0), False)[0]) for model in models]
        x_min, phi_min, phi_max = [cfg.x0] * n, phi0, list(phi0)
        path0 = np.full((n, n_steps + 1), cfg.x0)
        phis = [_phi_dphi_kernel(model.exponent, m, False) for model in models]
    for k, dwk in enumerate(chain.from_iterable(blocks)):  # one row per step
        if milstein:
            np.subtract(np.multiply(dwk, dwk, out=dw2), dt0, out=dw2)
        record = keep == PATHS and (k + 1) % stride == 0
        for j, step in enumerate(steps):
            x = rec[j, r] if record else xbuf[j]
            if log_space:
                step(ys[j], xs[j], dwk, dw2)
                _check_log_range(ys[j], scratch, k, labels[j])
                np.exp(ys[j], out=x)
            else:
                step(xs[j], dwk, dw2, x)
                _check_direct(x, breaches[j], k, labels[j])
            xs[j] = x
            if keep == STATS:
                np.maximum(path_sup[j], x, out=path_sup[j])
                x_min[j] = min(x_min[j], float(np.minimum.reduce(x)))
                phi = phis[j](x)[0]  # x > 0: clamped or exp(y)
                phi_min[j] = min(phi_min[j], float(np.minimum.reduce(phi)))
                phi_max[j] = max(phi_max[j], float(np.maximum.reduce(phi)))
                if j > 0:
                    diff = np.abs(np.subtract(x, xs[0], out=scratch), out=scratch)
                    np.maximum(sup_diff[j], diff, out=sup_diff[j])
                path0[j, k + 1] = x[0]
        if record:
            r += 1
            if r == rec.shape[1] or k + 1 + stride > n_steps:
                values[:, :, flushed:flushed + r] = rec[:, :r].transpose(0, 2, 1)
                flushed, r = flushed + r, 0
    out = {"terminal": np.array(xs), "breaches": breaches}
    if keep == PATHS:
        out["values"] = values
    elif keep == STATS:
        out.update(path_sup=path_sup, sup_diff=sup_diff, x_min=x_min,
                   phi_min=phi_min, phi_max=phi_max, path0=path0)
    return out


def run_with_increments(m: ModelSpec, cfg: SimConfig, dw: np.ndarray,
                        label: str = "model") -> PathBatch:
    """Advance all paths of one model over a caller-supplied increment
    matrix of shape (n_paths, n_steps) with cfg's step size."""
    dw = np.asarray(dw, dtype=float)
    if dw.ndim != 2 or dw.shape[1] != cfg.n_steps:
        raise ValueError("increment matrix must be (n_paths, cfg.n_steps)")
    blocks = (dw[:, k0:k0 + _BLOCK_STEPS] for k0 in range(0, cfg.n_steps, _BLOCK_STEPS))
    out = _advance([m], cfg, [label], _step_major(blocks), len(dw), PATHS)
    return PathBatch(time_grid=cfg.time_grid, values=out["values"][0],
                     model_label=label, config=cfg, breach_counts=out["breaches"][0])


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
    pathwise differences isolate model structure rather than noise. The run
    is one in-process chunk of all base paths.
    """
    labels = _labels_for(models, labels)
    _require_fits(cfg.n_paths * (cfg.n_steps + 1) * 8 * len(models),
                  "dense path storage", "; use simulate_coupled_stats")
    out = _run_chunk(models, cfg, labels, 0, cfg.n_base_paths, PATHS)
    return [PathBatch(time_grid=cfg.time_grid, values=v, model_label=lab, config=cfg,
                      breach_counts=b) for v, lab, b in zip(out["values"], labels, out["breaches"])]


# -- streaming runs: path chunks, merged exactly ----------------------------

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
    positivity_breaches: int  # floor clamps over all paths and steps
    sample_path: np.ndarray   # X of path 0 on the time grid


@dataclass
class CoupledStats:
    """Streaming reduction of a coupled run: model stats + pathwise sup-diffs.

    sup_abs_diff[j] holds, per path, sup_t |X_j(t) - X_0(t)| against the
    first (reference) model.
    """

    config: SimConfig
    models: list[ModelPathStats]
    sup_abs_diff: np.ndarray  # (n_models, n_paths); row 0 is zeros


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_size(cfg: SimConfig, workers: int) -> int:
    """Base paths per chunk: as few chunks as _CHUNK_BYTES of increments
    allows, their count rounded up to whole rounds of the workers."""
    path_bytes = (cfg.n_paths // cfg.n_base_paths) * cfg.n_steps * 8
    n_chunks = -(-cfg.n_base_paths * path_bytes // _CHUNK_BYTES)
    if n_chunks > 1:
        n_chunks = -(-n_chunks // workers) * workers
    return -(-cfg.n_base_paths // n_chunks)


def _plan(cfg: SimConfig) -> tuple[list[tuple[int, int]], int]:
    """The base-path ranges [lo, hi) of a streaming run and its worker count:
    min(CPUs, chunks), or 1 where the platform cannot fork."""
    cpus = _cpu_count() if hasattr(os, "fork") else 1
    n, size = cfg.n_base_paths, _chunk_size(cfg, cpus)
    bounds = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    return bounds, min(cpus, len(bounds))


def _run_chunk(models: Sequence[ModelSpec], cfg: SimConfig, labels: Sequence[str],
               lo: int, hi: int, keep: str) -> dict:
    """_advance over base paths [lo, hi) and their antithetic partners.

    Per-path arrays come back in the chunk's column order (base paths, then
    partners); breaches are per path for PATHS and totals otherwise. A
    blow-up names global path indices.
    """
    try:
        dw = _increment_chunk(cfg, lo, hi)
        out = _advance(models, cfg, labels, [dw], dw.shape[1], keep)
    except BlowUpError as exc:
        local, nb = np.asarray(exc.path_indices), hi - lo
        paths = np.where(local < nb, lo + local, cfg.n_base_paths + lo + local - nb)
        raise BlowUpError(paths, exc.step_index, exc.model_label) from None
    if keep != PATHS:
        out["breaches"] = [int(b.sum()) for b in out["breaches"]]
    return out


def _outcome(call, *args):
    """call(*args), or the BlowUpError it raised."""
    try:
        return call(*args)
    except BlowUpError as exc:
        return exc


def _run_chunked(models: Sequence[ModelSpec], cfg: SimConfig, labels: Sequence[str],
                 keep: str) -> tuple[list[dict], list[tuple[int, int]]]:
    """_run_chunk over every chunk of _plan(cfg), on a fork pool when it has
    more than one worker (spawn and forkserver cost 1-1.5 s more per call).

    Every chunk runs; a blow-up raises what one unchunked run raises: the
    earliest (step, model) any chunk reached, with every path failing there.
    """
    bounds, workers = _plan(cfg)
    args = (models, cfg, labels)
    if workers > 1:
        # imported on first use: 20 ms of import time that runs without a
        # pool need not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_run_chunk, *args, lo, hi, keep) for lo, hi in bounds]
            try:
                outcomes = [_outcome(f.result) for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        outcomes = [_outcome(_run_chunk, *args, lo, hi, keep) for lo, hi in bounds]
    errors = [e for e in outcomes if isinstance(e, BlowUpError)]
    if errors:
        def when(e):
            return e.step_index, labels.index(e.model_label)
        first = min(map(when, errors))
        paths = sorted(i for e in errors if when(e) == first for i in e.path_indices)
        raise BlowUpError(paths, first[0], labels[first[1]])
    return outcomes, bounds


def _in_path_order(parts: list[np.ndarray], bounds: list[tuple[int, int]]) -> np.ndarray:
    """Chunk-local per-path arrays (last axis: a chunk's base paths, then
    their partners) concatenated in global path order."""
    cuts = [hi - lo for lo, hi in bounds]
    return np.concatenate([p[..., :c] for p, c in zip(parts, cuts)]
                          + [p[..., c:] for p, c in zip(parts, cuts)], axis=-1)


def simulate_coupled_terminals(models: Sequence[ModelSpec], cfg: SimConfig,
                               labels: Optional[Sequence[str]] = None) -> list[np.ndarray]:
    """Coupled simulation keeping only the terminal values.

    Lean variant for pricing workloads: identical increments and stepping
    as simulate_coupled, no per-path accumulators, any scheme, in path
    chunks like simulate_coupled_stats.
    """
    parts, bounds = _run_chunked(models, cfg, _labels_for(models, labels), TERMINAL)
    return list(_in_path_order([p["terminal"] for p in parts], bounds))


def simulate_coupled_stats(models: Sequence[ModelSpec], cfg: SimConfig,
                           labels: Optional[Sequence[str]] = None) -> CoupledStats:
    """Coupled simulation keeping only reductions, never the dense paths.

    Produces exactly the statistics the analysis layer needs (terminal
    values, per-path sups, state extrema, diffusion-factor range,
    sup-differences vs the first model, breach totals and path 0's states)
    for every scheme. Base paths run in chunks of bounded increment memory,
    on a pool of min(CPUs, chunks) forked workers; the merged results are
    the same bytes however the paths are split.
    """
    labels = _labels_for(models, labels)
    parts, bounds = _run_chunked(models, cfg, labels, STATS)
    terminal, path_sup, sup_diff = (_in_path_order([p[key] for p in parts], bounds)
                                    for key in ("terminal", "path_sup", "sup_diff"))
    stats = []
    for j in range(len(models)):
        stats.append(ModelPathStats(
            label=labels[j], terminal=terminal[j], path_sup=path_sup[j],
            min_value=float(min(p["x_min"][j] for p in parts)),
            max_value=float(path_sup[j].max()),
            phi_min=min(p["phi_min"][j] for p in parts),
            phi_max=max(p["phi_max"][j] for p in parts),
            positivity_breaches=sum(p["breaches"][j] for p in parts),
            sample_path=parts[0]["path0"][j]))
    return CoupledStats(config=cfg, models=stats, sup_abs_diff=sup_diff)
