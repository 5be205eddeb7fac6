"""Path simulation engine.

Brownian increments come from counter-based Philox streams keyed by
(seed, path_index), so every path's noise is reproducible regardless of
how paths are partitioned across workers. One private runner, `_advance`,
is fed step-major increment blocks and steps every model over them with a
stepper built once per run, which overwrites the model's row of states in
place; then one recorder copies the states of the run's leading paths (a
dense run's all, a streaming chunk's first, none of the refinement
study's) and the streaming reductions asked for (STATS being all of them)
take in the new states. What a run keeps, and its scheme, are decided once
per run. A dense coupled run steps all base paths (and their antithetic
partners) in process as one block; a streaming run steps contiguous
ranges of them as chunks of bounded memory, on a pool of forked workers
when there are several chunks and CPUs, merges the chunks' results
exactly, in global path order, and takes each model's sample path from
chunk 0. run_with_increments feeds a caller's increment matrix, and
_refinement_sups a self-refinement study's fine and coarse levels in
lockstep, to the same runner; no other module draws increments or steps.

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
(one exp for exp_decay's p, none for a constant p); dW^2 - dt for all models
at once, a few steps of a block at a time. A step allocates nothing: each
model's stepper is built once per run with buffers of the run's width,
its constants as 0-d arrays and its ufuncs bound, overwrites its state in
place and writes every intermediate into those buffers, passed as
positional outputs, in the formula's operation and operand order. Inputs
are checked once, by SimConfig and ModelSpec; no step re-validates its
state. The check that ends each step reads the new state's extremes at
their argmin and argmax alone, and looks for the paths out of range only
when that check fails.

Increments are drawn path-major, base path i as a new
Generator(Philox(key=[seed, i])) would draw them, and the runner reads them
in place as step-major views (B, m), one row per step, whatever their
strides. _increments fills C-contiguous step-major storage for a range of
base paths and their partners, a strip of paths at a time with one
generator re-keyed per path: each block a coupled run feeds is that
storage, and increment_matrix is its transposed (Fortran-ordered) view
over all paths, as PathBatch.values is of the dense states. A caller's
matrix of either memory order is fed as its transposed view, and the
refinement study's fine increments are drawn one coarsest-grid interval
at a time by each path's own generator. The outputs are the same bytes
however the paths are partitioned, however the steps are blocked and
whatever the increment matrix's memory order.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .exponent import (CONSTANT, _check_keys, _integral, _number, _p_dp_kernel,
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
# dense paths of a coupled run (larger runs use simulate_coupled_stats) or
# of run_with_increments, with the float64 copy it makes of another dtype;
# and on a streaming run's per-path outputs.
MEMORY_CAP_BYTES = 2 << 30

# Increment bytes per chunk of a streaming run, chosen with perfbench's
# paper-cli workload on a 2-core host: smaller chunks pay the per-step
# overhead more often, larger ones hold more memory per worker.
_CHUNK_BYTES = 96 << 20

# Base paths per strip (its width) that _increments draws and transposes,
# in 128 KiB tiles that stay in cache (chosen by timing the transposes of
# 8000 x 1000 and 512 x 100000 matrices on a 2-core host).
_STRIP_WIDTH = 128


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
        for name in ("n_base_paths", "seed"):  # not 1.5 or True: Philox keys are integers
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {v!r}")
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
        """The config a JSON object of SimConfig's fields describes: numbers
        must be JSON numbers, and counts integral (3 or 3.0, not True)."""
        _check_keys(d, [f.name for f in fields(cls)])
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


def _increments(cfg: SimConfig, lo: int, hi: int, what: str) -> np.ndarray:
    """C-contiguous step-major (n_steps, m) increments of base paths
    lo..hi-1, then their antithetic partners, filled a strip of at most
    _STRIP_WIDTH base paths at a time: one generator draws the strip
    path-major, re-keyed (counter 0, empty buffer) for each path i, so path
    i draws what a new Generator(Philox(key=[seed, i])) draws, and the
    strip is transposed into its columns and negated into its partners'.
    Raises MemoryError, naming `what`, before allocating above
    MEMORY_CAP_BYTES."""
    nb = hi - lo
    m = nb * (cfg.n_paths // cfg.n_base_paths)
    _require_fits(m * cfg.n_steps * 8, what)
    dw = np.empty((cfg.n_steps, m))
    bitgen = np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64))
    rng, fresh, scale = np.random.Generator(bitgen), bitgen.state, math.sqrt(cfg.dt)
    buf = np.empty((min(_STRIP_WIDTH, nb), cfg.n_steps))
    for s in range(lo, hi, _STRIP_WIDTH):
        strip, c = buf[:min(_STRIP_WIDTH, hi - s)], s - lo
        for i, row in zip(range(s, hi), strip):
            fresh["state"]["key"][1] = i
            bitgen.state = fresh
            rng.standard_normal(out=row)
        # normal(0.0, scale) draws these z and returns 0.0 + scale * z
        np.add(0.0, np.multiply(scale, strip, strip), strip)
        dw[:, c:c + len(strip)] = strip.T
        if cfg.antithetic:
            np.negative(strip.T, dw[:, nb + c:nb + c + len(strip)])
    return dw


def increment_matrix(cfg: SimConfig) -> np.ndarray:
    """(n_paths, n_steps) increment matrix for a whole run: row i is what
    Generator(Philox(key=[seed, i])).normal(0.0, sqrt(dt), n_steps) draws
    and, with antithetic sampling, row n_base_paths + i its negation.
    Raises MemoryError, before allocating, above MEMORY_CAP_BYTES.

    The matrix is the transposed (Fortran-ordered) view of _increments'
    step-major storage of all base paths, the storage a coupled run's chunk
    steps over. So run_with_increments steps it over contiguous rows, and a
    reduction along axis 1 may differ from a C-ordered copy's in the last
    bit.
    """
    return _increments(cfg, 0, cfg.n_base_paths, "increment matrix").T


# -- steppers (the schemes) -------------------------------------------------
#
# Built once per model and run: each owns its state, the model's row of the
# run's states, and buffers of the run's width, takes its operands as 0-d
# arrays (numpy reads them more cheaply than Python floats) and its ufuncs
# as closure names, and passes every output positionally (cheaper than
# out=). A step f(dw, dw2), with dw2 = dw*dw - dt, overwrites that row with
# the model's next state X, in place, and raises _OutOfRange with the paths
# that left the representable range; _advance names the step and model.

class _OutOfRange(Exception):
    """A step's new states left the representable range; args[0] holds
    the paths, in the stepped array's order."""


def _log_stepper(model: ModelSpec, dt: float, milstein: bool, x0: float, x: np.ndarray):
    """Model's log-space step, from y = log(x0) and x = exp(y), which it
    writes into x. Each step overwrites y with y', tests that every
    |y'| <= LOG_OVERFLOW_LIMIT by reading the largest |y'| at its argmax
    (argmax finds the first NaN, which fails), looking for the paths out of
    range only when that fails, and writes exp(y') into x. x is not
    re-validated: the range keeps it positive and finite. GBM's exact step
    is the one special case; every other exponent takes the generic formula,
    CEV's too (p = gamma and p' = 0, filled once)."""
    spec, m = model.exponent, len(x)
    gbm = spec.kind == CONSTANT and spec.gamma == 1.0
    mul, add, sub, exp, absolute = np.multiply, np.add, np.subtract, np.exp, np.absolute
    limit = LOG_OVERFLOW_LIMIT
    mu, sigma, dt0, half, one = (np.array(v) for v in (model.mu, model.sigma, dt, 0.5, 1.0))
    drift_dt = np.array((model.mu - 0.5 * model.sigma * model.sigma) * dt)
    p_dp = None if gbm else _p_dp_kernel(spec, m, milstein)
    b, half_b, incr, t, pm1 = (np.empty(m) for _ in range(5))
    y = np.full(m, math.log(x0))
    exp(y, x)
    peak = t.argmax

    def step(dw, dw2):
        if gbm:  # y + (drift_dt + sigma dw)
            add(y, add(drift_dt, mul(sigma, dw, t), t), y)
        else:
            p, dp = p_dp(x)
            sub(p, one, pm1)
            mul(sigma, exp(mul(pm1, y, b), b), b)  # sigma x^(p-1)
            mul(half, b, half_b)
            mul(sub(mu, mul(half_b, b, incr), incr), dt0, incr)
            add(incr, mul(b, dw, t), incr)  # (mu - b^2/2) dt + b dw
            if milstein:  # b' = b ((p-1) + x p' y)
                mul(mul(x, dp, t), y, t)
                mul(b, add(pm1, t, t), t)
                mul(mul(half_b, t, t), dw2, t)
                add(incr, t, incr)
            add(incr, y, y)
        absolute(y, t)
        if not t[peak()] <= limit:
            raise _OutOfRange(np.nonzero(~(np.abs(y) <= limit))[0])
        exp(y, x)

    return step


def _direct_stepper(model: ModelSpec, dt: float, milstein: bool, x0: float, x: np.ndarray,
                    breaches: np.ndarray):
    """Model's direct-space step, from x = x0, which it overwrites in x.
    Each step writes x' into x, then reads its smallest and largest x' at
    their argmin and argmax (which find the first NaN, and a NaN fails
    both tests): when some x' is below POSITIVITY_FLOOR or not finite, it
    clamps the low ones to the floor, counting each clamp in breaches, and
    fails on a non-finite one. x is not re-validated. Every exponent, GBM's
    included (phi = x and phi' = 1.0 exactly), takes the generic formula."""
    phi_dphi = _phi_dphi_kernel(model.exponent, len(x), milstein)
    mul, add = np.multiply, np.add
    floor, inf = POSITIVITY_FLOOR, np.inf
    mu, sigma, dt0, half = (np.array(v) for v in (model.mu, model.sigma, dt, 0.5))
    g, t = np.empty_like(x), np.empty_like(x)
    x.fill(x0)

    def step(dw, dw2):
        phi, dphi = phi_dphi(x)
        mul(sigma, phi, g)
        add(x, mul(mul(mu, x, t), dt0, t), x)
        add(x, mul(g, dw, t), x)  # x + mu x dt + g dw
        if milstein:  # 0.5 g (sigma phi') dw2
            mul(half, g, g)
            mul(g, mul(sigma, dphi, t), g)
            add(x, mul(g, dw2, g), x)
        if not (x[x.argmin()] >= floor and x[x.argmax()] < inf):
            low = x < floor
            add(breaches, low, breaches)
            x[low] = floor
            if not np.all(np.isfinite(x)):
                raise _OutOfRange(np.nonzero(~np.isfinite(x))[0])

    return step


# -- batches ----------------------------------------------------------------

@dataclass
class PathBatch:
    """Dense simulated paths: one row per path on the shared time grid."""

    time_grid: np.ndarray
    values: np.ndarray  # (n_paths, n_steps + 1), a view of step-major storage
    model_label: str
    config: SimConfig
    breach_counts: np.ndarray  # per-path floor clamps

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]


# The reductions simulate_coupled_stats may ask _advance for, besides the
# terminals, breaches and recorded paths every run keeps: none, either or
# both (STATS).
EXTREMA, SUP_DIFFS = "extrema", "sup_diffs"
STATS = frozenset((EXTREMA, SUP_DIFFS))

# dW^2 - dt is computed for this many steps of a step-major block at a
# time, in one small buffer: two ufunc calls per group instead of per step
# (chosen by timing the refinement study's 256-path steps on a 2-core host).
_DW2_ROWS = 8


def _reductions(keep: frozenset, record: int, x0: float, n_steps: int,
                xbuf: np.ndarray) -> tuple[list, dict]:
    """The recorder and the reductions in keep, as functions run after
    every model has stepped its row of xbuf, and their accumulators, all
    from x0 itself (not exp(log(x0))): the states of the first `record`
    paths at every step ("values", the transposed view (n_models, record,
    n_steps + 1) of step-major storage, copied only when record > 0), state
    extrema per model ("x_min", "x_max") and per-path sup-diffs against
    model 0 ("sup_diff", row 0 zeros). None evaluates an exponent. Chunks
    merge the streaming ones by extrema and concatenation alone."""
    n, m = xbuf.shape
    rec = np.empty((n, n_steps + 1, record))
    rec[:, 0] = x0
    steps, acc = [], {"values": rec.transpose(0, 2, 1)}
    if record:
        rows, lead = iter(rec.swapaxes(0, 1)[1:]), xbuf[:, :record]
        steps.append(lambda: np.copyto(next(rows), lead))
    if EXTREMA in keep:
        x_min, x_max, t = np.full(n, x0), np.full(n, x0), np.empty(n)
        acc.update(x_min=x_min, x_max=x_max)

        def extrema():
            np.minimum(x_min, np.minimum.reduce(xbuf, axis=1, out=t), out=x_min)
            np.maximum(x_max, np.maximum.reduce(xbuf, axis=1, out=t), out=x_max)
        steps.append(extrema)
    if SUP_DIFFS in keep:
        sup_diff = np.zeros((n, m))
        rest, first, sup_rest, d = xbuf[1:], xbuf[0], sup_diff[1:], np.empty((n - 1, m))
        acc.update(sup_diff=sup_diff)

        def sup_diffs():
            np.maximum(sup_rest, np.absolute(np.subtract(rest, first, d), d), out=sup_rest)
        if n > 1:
            steps.append(sup_diffs)
    return steps, acc


def _advance(models: Sequence[ModelSpec], cfg: SimConfig, labels: Sequence[str],
             m: int, keep: frozenset, record: int) -> tuple:
    """A run of every model over m paths' shared increments that keeps the
    reductions in `keep` and the states of its first `record` paths, as
    (feed, out), before any step is taken.

    feed(blk) steps every model over a step-major block (B, m) of any
    strides, read in place; the step count carries over from feed to feed,
    so a blow-up names the run's step, then the first model (step-outer,
    model-inner). out holds "terminal" (n_models, m), the live states, each
    model's per-path positivity-floor breach counts ("breaches") and the
    recorded states ("values") and the accumulators of the reductions in
    keep (see _reductions); it is final once cfg.n_steps steps have been fed.

    Everything the run keeps is decided here, once: the step loop runs each
    model's stepper, which overwrites the model's row of states in place,
    and then the reductions, with no test of the scheme or of what is kept.
    """
    milstein = cfg.scheme in (MILSTEIN, LOG_MILSTEIN)
    # Each model's state is its row of xbuf. Log schemes start from
    # exp(log(x0)), which differs from x0 in the last ulp unless x0 == 1;
    # outputs depend on it.
    xbuf, breaches = np.empty((len(models), m)), [np.zeros(m, dtype=int) for _ in models]
    if cfg.scheme in (LOG_EULER, LOG_MILSTEIN):
        steps = [_log_stepper(model, cfg.dt, milstein, cfg.x0, x)
                 for model, x in zip(models, xbuf)]
    else:
        steps = [_direct_stepper(model, cfg.dt, milstein, cfg.x0, x, b)
                 for model, x, b in zip(models, xbuf, breaches)]
    reductions, out = _reductions(keep, record, cfg.x0, cfg.n_steps, xbuf)
    out.update(terminal=xbuf, breaches=breaches)
    dt0, squares, k = np.array(cfg.dt), np.empty((_DW2_ROWS, m)), 0

    def feed(blk):
        nonlocal k
        if not m:  # no paths: nothing to step (and an empty argmax has no answer)
            return
        try:
            for r0 in range(0, len(blk), _DW2_ROWS):
                dws = blk[r0:r0 + _DW2_ROWS]
                dw2s = squares[:len(dws)]
                if milstein:
                    np.subtract(np.multiply(dws, dws, dw2s), dt0, dw2s)
                for dw, dw2 in zip(dws, dw2s):
                    for step in steps:
                        step(dw, dw2)
                    for reduce in reductions:
                        reduce()
                    k += 1
        except _OutOfRange as exc:
            raise BlowUpError(exc.args[0], k, labels[steps.index(step)]) from None
    return feed, out


def run_with_increments(m: ModelSpec, cfg: SimConfig, dw: np.ndarray,
                        label: str = "model") -> PathBatch:
    """Advance all paths of one model over a caller-supplied increment
    matrix of shape (n_paths, n_steps) with cfg's step size, read in place
    through its transpose, whatever its memory order. A Fortran-ordered
    matrix (as increment_matrix returns) gives one contiguous row per step;
    a C-ordered one is stepped over strided rows, with no copy of it.
    Raises MemoryError, before allocating, if the dense paths and the
    float64 copy of a matrix of another dtype exceed MEMORY_CAP_BYTES."""
    dw = np.asarray(dw)
    if dw.ndim != 2 or dw.shape[1] != cfg.n_steps:
        raise ValueError("increment matrix must be (n_paths, cfg.n_steps)")
    copy = dw.size if dw.dtype != np.float64 else 0
    _require_fits((len(dw) * (cfg.n_steps + 1) + copy) * 8, "dense path storage")
    dw = dw.astype(float, copy=False)
    feed, out = _advance([m], cfg, [label], len(dw), frozenset(), len(dw))
    feed(dw.T)
    return PathBatch(time_grid=cfg.time_grid, values=out["values"][0],
                     model_label=label, config=cfg, breach_counts=out["breaches"][0])


def _refinement_sups(m: ModelSpec, fine_cfg: SimConfig, levels: Sequence[SimConfig]) -> np.ndarray:
    """Per-path sup |coarse - reference| of each level, (len(levels), n_paths).

    One stream of fine increments at fine_cfg.dt drives everything: the
    reference solution steps it and each coarse level (fine_cfg at a nested
    coarser dt) steps its sums, so differences isolate discretization
    error. The fine increments are drawn path-major one interval of the
    coarsest grid (the coarsest level's multiple cm of fine_cfg.dt) at a
    time, base path i by its own Generator(Philox(key=[seed, i])) kept from
    interval to interval, so its intervals side by side are row i of
    increment_matrix(fine_cfg). Every run is fed each interval in lockstep:
    the reference its transposed view, in place, and each level its sums;
    then each level's sup takes in its live distance from the reference.
    So the study holds one interval's increments and O(paths) per level,
    and a blow-up is the earliest interval's (the reference's, then each
    level's in order). The sup runs over the coarsest grid at every
    refinement - measuring each level on its own grid would bias the
    coarse errors downward (fewer points, smaller sup) and flatten the
    fitted order.
    """
    m_paths, nb = fine_cfg.n_paths, fine_cfg.n_base_paths
    mults = [round(c.dt / fine_cfg.dt) for c in levels]
    cm = max(mults)
    labels = ["reference", *(f"coarse dt={c.dt:g}" for c in levels)]
    (feed_ref, ref), *runs = [_advance([m], c, [label], m_paths, frozenset(), 0)
                              for c, label in zip([fine_cfg, *levels], labels)]
    x_ref, scale = ref["terminal"][0], math.sqrt(fine_cfg.dt)
    sups, d = np.zeros((len(levels), m_paths)), np.empty(m_paths)  # 0 at t = 0
    gens = [np.random.Generator(np.random.Philox(key=np.array([fine_cfg.seed, i], dtype=np.uint64)))
            for i in range(nb)]
    dw = np.empty((m_paths, cm))
    for _ in range(fine_cfg.n_steps // cm):
        for gen, row in zip(gens, dw):
            gen.standard_normal(out=row)
        np.add(0.0, np.multiply(scale, dw[:nb], dw[:nb]), dw[:nb])  # as _increments scales
        if fine_cfg.antithetic:
            np.negative(dw[:nb], dw[nb:])
        feed_ref(dw.T)
        for mult, (feed, out), sup in zip(mults, runs, sups):
            feed(dw.reshape(m_paths, -1, mult).sum(axis=2).T)
            np.maximum(sup, np.absolute(np.subtract(out["terminal"][0], x_ref, d), d), out=sup)
    return sups


def simulate_batch(m: ModelSpec, cfg: SimConfig, label: str = "model") -> PathBatch:
    """Simulate one model; deterministic for fixed (m, cfg)."""
    return simulate_coupled([m], cfg, [label])[0]


def _labels_for(models: Sequence[ModelSpec], labels: Optional[Sequence[str]]) -> list[str]:
    if not models:
        raise ValueError("no models to simulate: models is empty")
    if labels is None:
        labels = [f"model_{i}" for i in range(len(models))]
    if len(labels) != len(models):
        raise ValueError("labels must match models")
    if len(set(labels)) != len(labels):  # a blow-up names its model by label
        raise ValueError(f"duplicate model labels in {list(labels)!r}")
    return list(labels)


def simulate_coupled(models: Sequence[ModelSpec], cfg: SimConfig,
                     labels: Optional[Sequence[str]] = None) -> list[PathBatch]:
    """Simulate several models over identical Brownian increments.

    Path i of every returned batch consumed the same increment array, so
    pathwise differences isolate model structure rather than noise. The run
    steps all base paths' _increments in process, as one block, and records
    every path.
    """
    labels = _labels_for(models, labels)
    _require_fits(cfg.n_paths * (cfg.n_steps + 1) * 8 * len(models),
                  "dense path storage", "; use simulate_coupled_stats")
    feed, out = _advance(models, cfg, labels, cfg.n_paths, frozenset(), cfg.n_paths)
    feed(_increments(cfg, 0, cfg.n_base_paths, "increment matrix"))
    return [PathBatch(time_grid=cfg.time_grid, values=v, model_label=lab, config=cfg,
                      breach_counts=b) for v, lab, b in zip(out["values"], labels, out["breaches"])]


# -- streaming runs: path chunks, merged exactly ----------------------------

@dataclass
class ModelPathStats:
    """Per-model accumulators over all paths, kept when dense paths are not
    stored, and the model's sample path; a reduction the run did not
    compute is None. The sample path is base path 0's states, recorded by
    the first chunk: the bytes of row 0 of a dense run (simulate_coupled)."""

    label: str
    terminal: np.ndarray   # (n_paths,)
    min_value: Optional[float]  # extrema of X over visited states
    max_value: Optional[float]
    positivity_breaches: int    # floor clamps over all paths and steps
    sample_path: np.ndarray     # (n_steps + 1,) X of base path 0 on the time grid


@dataclass
class CoupledStats:
    """Streaming reduction of a coupled run: model stats + pathwise sup-diffs.

    sup_abs_diff[j] holds, per path, sup_t |X_j(t) - X_0(t)| against the
    first (reference) model; None when the run did not compute it.
    """

    config: SimConfig
    models: list[ModelPathStats]
    sup_abs_diff: Optional[np.ndarray]  # (n_models, n_paths); row 0 is zeros


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
               lo: int, hi: int, keep: frozenset) -> dict | BlowUpError:
    """_advance over base paths [lo, hi) and their antithetic partners,
    reading their _increments in place as one block (and no other copy),
    and recording its first path, base path lo, at every step.

    Per-path arrays come back in the chunk's column order (base paths, then
    partners), and breaches as totals. A blow-up is returned, not raised,
    naming global path indices, so that every chunk of a run reports its own.
    """
    try:
        dw = _increments(cfg, lo, hi, "increment chunk")
        feed, out = _advance(models, cfg, labels, dw.shape[1], keep, 1)
        feed(dw)
    except BlowUpError as exc:
        local, nb = np.asarray(exc.path_indices), hi - lo
        paths = np.where(local < nb, lo + local, cfg.n_base_paths + lo + local - nb)
        return BlowUpError(paths, exc.step_index, exc.model_label)
    out["breaches"] = [int(b.sum()) for b in out["breaches"]]
    return out


def _run_chunked(models: Sequence[ModelSpec], cfg: SimConfig, labels: Sequence[str],
                 keep) -> tuple[list[dict], list[tuple[int, int]]]:
    """_run_chunk over every chunk of _plan(cfg), on a fork pool when it has
    more than one worker (spawn and forkserver cost 1-1.5 s more per call).

    Every chunk runs; a blow-up raises what one unchunked run raises: the
    earliest (step, model) any chunk reached, with every path failing there.
    """
    bounds, workers = _plan(cfg)
    los, his = zip(*bounds)
    chunks = (_run_chunk, repeat(models), repeat(cfg), repeat(labels), los, his, repeat(keep))
    if workers > 1:
        # imported on first use: 20 ms of import time that runs without a
        # pool need not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(*chunks))  # cancels the chunks not yet run if one raises
    else:
        outcomes = list(map(*chunks))
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


def simulate_coupled_stats(models: Sequence[ModelSpec], cfg: SimConfig,
                           labels: Optional[Sequence[str]] = None,
                           reductions: Iterable[str] = STATS) -> CoupledStats:
    """Coupled simulation keeping only reductions, never the dense paths.

    Always kept: terminal values, breach totals and each model's
    sample_path, all that a run with no reductions (a smile's) keeps.
    `reductions` names the others to compute, each paid for on every step,
    both (STATS) by default: EXTREMA ("extrema": min_value, max_value) and
    SUP_DIFFS ("sup_diffs": sup_abs_diff against the first model). One not
    asked for is None. The sample path is base path 0's states, which the
    first chunk records at every step (n_models floats a step): row 0 of
    any dense run (simulate_coupled), the same bytes, since each path keys
    its own Philox stream. Every scheme; the extrema include x0, and x^p(x)'s
    range over the visited states is exponent._phi_range on them, since
    the continuous paths visit every state in between. Base paths run in
    chunks of bounded increment memory, on a pool of min(CPUs, chunks)
    forked workers; the merged results are the same bytes however the
    paths are split and whichever other reductions are computed. Raises
    MemoryError, before planning the chunks, if the per-path outputs (the
    terminals, and the sup-diffs when asked for) exceed MEMORY_CAP_BYTES.
    """
    labels = _labels_for(models, labels)
    if isinstance(reductions, str):  # a set of names, not one name's characters
        raise TypeError(f"reductions must be a collection of names, such as "
                        f"{{{reductions!r}}}, not the string {reductions!r}")
    keep = frozenset(reductions)
    if not keep <= STATS:
        raise ValueError(f"unknown reductions {sorted(keep - STATS)}; "
                         f"choose from {sorted(STATS)}")
    _require_fits(len(models) * cfg.n_paths * 8 * (1 + (SUP_DIFFS in keep)), "per-path outputs")
    parts, bounds = _run_chunked(models, cfg, labels, keep)

    def merged(key, pick, j):
        return float(pick(p[key][j] for p in parts)) if key in parts[0] else None

    terminal = _in_path_order([p["terminal"] for p in parts], bounds)
    stats = [ModelPathStats(
        label=labels[j], terminal=terminal[j],
        min_value=merged("x_min", min, j), max_value=merged("x_max", max, j),
        positivity_breaches=sum(p["breaches"][j] for p in parts),
        sample_path=parts[0]["values"][j][0])
        for j in range(len(models))]
    sup_diff = (_in_path_order([p["sup_diff"] for p in parts], bounds)
                if SUP_DIFFS in keep else None)
    return CoupledStats(config=cfg, models=stats, sup_abs_diff=sup_diff)
