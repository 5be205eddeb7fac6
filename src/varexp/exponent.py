"""Variable exponent functions p(x) for the state-dependent diffusion x^p(x).

Four families are supported on the state space (0, inf):

    constant        p(x) = gamma                 (gamma = 1 recovers GBM)
    exp_decay       p(x) = 1 + a * exp(-b*x)
    inverse_square  p(x) = 1 + a / (1+x)^2
    rational_decay  p(x) = 1 + c / (1+x)

The decaying families tend to 1 at infinity and carry admissibility
constants (delta, m0, c0, alpha) bounding |p'(x)| piecewise:
|p'| <= m0 on (0, delta] and |p'| <= c0 * x^(-1-alpha) beyond.
`check_admissibility` verifies the three admissibility conditions
numerically on a finite grid; `estimate_constants` brute-forces the
Lipschitz and linear-growth constants of phi(x) = x^p(x).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

CONSTANT = "constant"
EXP_DECAY = "exp_decay"
INVERSE_SQUARE = "inverse_square"
RATIONAL_DECAY = "rational_decay"

KINDS = (CONSTANT, EXP_DECAY, INVERSE_SQUARE, RATIONAL_DECAY)
# Each kind's shape parameters, in its constructor's order, and the
# admissibility constants a config may override.
_KIND_PARAMS = {CONSTANT: ("gamma",), EXP_DECAY: ("a", "b"),
                INVERSE_SQUARE: ("a",), RATIONAL_DECAY: ("c",)}
_CONSTANTS = ("p_minus", "p_plus", "delta", "m0", "c0", "alpha")

# Multiplier applied to grid maxima when estimating Lipschitz/growth
# constants; guards against grid undersampling of the true suprema.
SAFETY_FACTOR = 1.05

# Default brute-force grid: log-spaced, covers both the x->0 and the
# tail regime of the derivative bound.
DEFAULT_GRID_LO = 1e-6
DEFAULT_GRID_HI = 1e6
DEFAULT_GRID_POINTS = 10_000


def _integral(v, name: str) -> int:
    """v as an int: an integral number such as 3 or 3.0, but not True."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral)
                                   or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{name} must be an integer, not {v!r}")
    return int(v)


def _number(v, name: str) -> float:
    """v as a float: a finite number such as 3 or 0.5, but not True, "0.5" or NaN."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"{name} must be a finite number, not {v!r}")
    return float(v)


def _check_keys(d, keys) -> None:
    """TypeError unless d is a JSON object, ValueError naming its first key
    not in keys: a misspelled optional key would otherwise leave its
    default in place."""
    if not isinstance(d, dict):
        raise TypeError(f"must be an object, not {d!r}")
    for k in d:
        if k not in keys:
            raise ValueError(f"unknown key {k!r}")


def _require_finite(**args: float) -> None:
    """Raise ValueError naming the first argument that is NaN or infinite.
    A hot caller tests the sum of the arguments first (one NaN or infinity
    makes it non-finite), so that the checks cost one addition per argument."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _positive(x, name: str = "x"):
    """Validate x in (0, inf); returns a float array view of x."""
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError(f"{name} must be positive and finite")
    return arr


def _like(x, out):
    """Return a scalar when the input was scalar, else the array."""
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ExponentSpec:
    """A variable exponent p(.) plus its declared admissibility constants.

    p_minus/p_plus are the declared inf/sup of p over (0, inf); delta, m0,
    c0, alpha parameterize the piecewise derivative bound. The constants
    are user choices (checked, not inferred).
    """

    kind: str
    gamma: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    c: Optional[float] = None
    p_minus: float = 1.0
    p_plus: float = 1.0
    delta: float = 1.0
    m0: float = 1.0
    c0: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown exponent kind {self.kind!r}")
        for name in ("gamma", "a", "b", "c"):  # so that to_dict writes what from_dict reads
            if getattr(self, name) is not None and name not in _KIND_PARAMS[self.kind]:
                raise ValueError(f"{self.kind} exponent has no {name}")
        # finite first, so that no NaN slips through a comparison below
        for name in _KIND_PARAMS[self.kind] + _CONSTANTS:
            v = getattr(self, name)
            if v is None or not math.isfinite(v):
                raise ValueError(f"{self.kind} exponent needs a finite {name}, not {v!r}")
        if self.kind == CONSTANT:
            if not self.gamma >= 0:
                raise ValueError("constant exponent requires gamma >= 0")
        elif self.kind == EXP_DECAY:
            if not (self.a > 0 and self.b > 0):
                raise ValueError("exp_decay requires a > 0 and b > 0")
        elif self.kind == INVERSE_SQUARE:
            if not self.a > 0:
                raise ValueError("inverse_square requires a > 0")
        elif self.kind == RATIONAL_DECAY:
            if not self.c > 0:
                raise ValueError("rational_decay requires c > 0")
        if not self.p_minus <= self.p_plus:
            raise ValueError("need p_minus <= p_plus")
        if not all(v > 0 for v in (self.delta, self.m0, self.c0, self.alpha)):
            raise ValueError("delta, m0, c0, alpha must all be positive")

    # -- constructors with per-kind default constants -------------------

    @classmethod
    def constant(cls, gamma: float) -> "ExponentSpec":
        """p(x) = gamma. gamma=1 is GBM; gamma != 1 is the CEV exponent."""
        return cls(
            kind=CONSTANT, gamma=gamma, p_minus=gamma, p_plus=gamma,
            delta=1.0, m0=1.0, c0=1.0, alpha=max(1.0, gamma),
        )

    @classmethod
    def exp_decay(cls, a: float, b: float) -> "ExponentSpec":
        """p(x) = 1 + a*exp(-b*x) with delta = 1; tail bound uses alpha = 2.

        c0 is the exact sup of a*b * x^3 * exp(-b*x) past delta, so the
        declared derivative bound holds with equality somewhere.
        """
        if not (a > 0 and b > 0):
            raise ValueError("exp_decay requires a > 0 and b > 0")
        x_star = 3.0 / b
        if x_star > 1.0:
            c0 = a * b * x_star**3 * math.exp(-3.0)
        else:
            c0 = a * b * math.exp(-b)
        return cls(
            kind=EXP_DECAY, a=a, b=b, p_minus=1.0, p_plus=1.0 + a,
            m0=a * b, c0=c0, alpha=2.0,
        )

    @classmethod
    def inverse_square(cls, a: float) -> "ExponentSpec":
        """p(x) = 1 + a/(1+x)^2 with delta = 1, m0 = c0 = 2a, alpha = 2."""
        return cls(
            kind=INVERSE_SQUARE, a=a, p_minus=1.0, p_plus=1.0 + a,
            m0=2.0 * a, c0=2.0 * a, alpha=2.0,
        )

    @classmethod
    def rational_decay(cls, c: float) -> "ExponentSpec":
        """p(x) = 1 + c/(1+x) with delta = 1; |p'| = c/(1+x)^2 <= c * x^-2, so alpha = 1."""
        return cls(
            kind=RATIONAL_DECAY, c=c, p_minus=1.0, p_plus=1.0 + c,
            m0=c, c0=c, alpha=1.0,
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "ExponentSpec":
        """The spec a JSON object describes: its kind, that kind's shape
        parameters and any of the constants; ValueError for any other key."""
        if not isinstance(d, dict):
            raise TypeError(f"exponent must be an object, not {d!r}")
        kind = d.get("kind")
        if kind not in KINDS:
            raise ValueError(f"unknown exponent kind {kind!r}")
        _check_keys(d, ("kind", *_KIND_PARAMS[kind], *_CONSTANTS))
        # The per-kind constructor's default constants, then explicit overrides.
        base = getattr(cls, kind)(*(_number(d[k], k) for k in _KIND_PARAMS[kind]))
        return replace(base, **{k: _number(d[k], k) for k in _CONSTANTS if k in d})


# -- pointwise evaluation ------------------------------------------------

def _p_dp_kernel(spec: ExponentSpec, shape, deriv: bool):
    """A function f(xs) -> (p(xs), p'(xs)) for float arrays xs of `shape`
    known to lie in (0, inf), with no check; p'(xs) is None unless deriv.
    Its outputs are two arrays made here, read-only to the caller: a
    constant kind fills them once, here, and the others at every call. The
    operands are 0-d arrays made here too, which numpy reads more cheaply
    than Python floats, and the ufuncs are bound here and given their
    outputs positionally, which numpy also parses faster than out=. The one
    place each formula is written: exp_decay shares exp(-b x), the rational
    kinds share 1 + x.
    """
    p, dp = np.empty(shape), np.empty(shape) if deriv else None
    one = np.array(1.0)
    mul, add, div, exp, square = np.multiply, np.add, np.divide, np.exp, np.square
    if spec.kind == CONSTANT:
        p.fill(spec.gamma)
        if deriv:
            dp.fill(0.0)

        def f(xs):
            return p, dp
    elif spec.kind == EXP_DECAY:
        neg_b, a, neg_ab = np.array(-spec.b), np.array(spec.a), np.array(-spec.a * spec.b)

        def f(xs):
            e = exp(mul(neg_b, xs, p), p)  # exp(-b x)
            if deriv:
                mul(neg_ab, e, dp)
            add(one, mul(a, e, p), p)
            return p, dp
    elif spec.kind == INVERSE_SQUARE:
        a, neg_2a, three, power = np.array(spec.a), np.array(-2.0 * spec.a), np.array(3.0), np.power

        def f(xs):
            u = add(one, xs, p)
            if deriv:
                div(neg_2a, power(u, three, dp), dp)
            add(one, div(a, square(u, p), p), p)
            return p, dp
    else:
        c, neg_c = np.array(spec.c), np.array(-spec.c)

        def f(xs):
            u = add(one, xs, p)
            if deriv:
                div(neg_c, square(u, dp), dp)
            add(one, div(c, u, p), p)
            return p, dp
    return f


def _p_dp(spec: ExponentSpec, xs: np.ndarray, deriv: bool = True):
    """(p(x), p'(x)) for a float array xs known to lie in (0, inf), with no
    check; p'(x) is None unless deriv."""
    return _p_dp_kernel(spec, xs.shape, deriv)(xs)


def eval_p(spec: ExponentSpec, x) -> float | np.ndarray:
    """p(x) for x > 0."""
    return _like(x, _p_dp(spec, _positive(x), deriv=False)[0])


def _phi_dphi_kernel(spec: ExponentSpec, shape, deriv: bool):
    """A function f(xs) -> (phi(xs), phi'(xs)) for phi = x^p(x) and float
    arrays xs of `shape` known to lie in (0, inf), with no check; phi' is
    None unless deriv. Like _p_dp_kernel's, its outputs are arrays made
    here, read-only to the caller, that each call overwrites with
    positional outputs. The one place both are written: constant kinds use
    np.power (p = 1 gives x and 1.0 exactly), the others share p, log x and
    x^p = exp(p log x)."""
    phi, dphi = np.empty(shape), np.empty(shape) if deriv else None
    mul, add, sub, exp, log, power = (np.multiply, np.add, np.subtract, np.exp, np.log,
                                      np.power)
    if spec.kind == CONSTANT:
        g, gm1 = np.array(spec.gamma), np.array(spec.gamma - 1.0)

        def f(xs):
            power(xs, g, phi)
            if deriv:
                mul(g, power(xs, gm1, dphi), dphi)
            return phi, dphi
        return f
    p_dp, one = _p_dp_kernel(spec, shape, deriv), np.array(1.0)
    lnx, t = np.empty(shape), np.empty(shape)  # t: p' x^p log x (p_dp's p' is read-only)

    def f(xs):
        p, dp = p_dp(xs)
        log(xs, lnx)
        exp(mul(p, lnx, phi), phi)
        if deriv:  # p x^(p-1) + p' x^p log x
            exp(mul(sub(p, one, dphi), lnx, dphi), dphi)
            mul(p, dphi, dphi)
            add(dphi, mul(mul(dp, phi, t), lnx, t), dphi)
        return phi, dphi
    return f


def _phi_dphi(spec: ExponentSpec, xs: np.ndarray, deriv: bool):
    """(phi(x), phi'(x)) for phi = x^p(x) and a float array xs known to lie
    in (0, inf), with no check; phi'(x) is None unless deriv."""
    return _phi_dphi_kernel(spec, xs.shape, deriv)(xs)


def eval_phi(spec: ExponentSpec, x) -> float | np.ndarray:
    """phi(x) = x^p(x), computed as exp(p(x) * log x)."""
    return _like(x, _phi_dphi(spec, _positive(x), False)[0])


def eval_dphi(spec: ExponentSpec, x) -> float | np.ndarray:
    """phi'(x) = p(x) x^(p(x)-1) + p'(x) x^p(x) log(x), exact."""
    return _like(x, _phi_dphi(spec, _positive(x), True)[1])


def sup_deviation(spec: ExponentSpec, lam: float, r: float) -> float:
    """sup over [lam, r] of |p(x) - 1|, at x = lam: |p - 1| decreases for
    the decaying kinds and is |gamma - 1| everywhere for a constant one."""
    if not (0.0 < lam < r):
        raise ValueError("need 0 < lambda < r")
    return abs(float(eval_p(spec, lam)) - 1.0)


def _phi_range(spec: ExponentSpec, lo: float, hi: float) -> tuple[float, float]:
    """phi's min and max on [lo, hi], from a log grid whose ends are lo and
    hi exactly (lo alone when lo == hi). A continuous path from x0 visits
    every state between its extrema, so on a run's extrema this is x^p(x)'s
    range over the visited states, whether or not phi is monotone."""
    phi = eval_phi(spec, log_grid(lo, hi, DEFAULT_GRID_POINTS) if lo != hi else np.array([lo]))
    return float(phi.min()), float(phi.max())


# -- admissibility check --------------------------------------------------

def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Log-spaced evaluation grid on [lo, hi]."""
    if not (0.0 < lo < hi) or n < 2:
        raise ValueError("need 0 < lo < hi and n >= 2")
    return np.geomspace(lo, hi, n)


@dataclass
class HypothesisResult:
    passed: bool
    detail: str
    witness_x: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    """Numerical evidence for the three admissibility conditions.

    Grid evidence, not proof: the limits and unbounded suprema in the
    conditions are approximated on a finite log-spaced grid with the
    recorded cutoff and tolerances.
    """

    range_ok: HypothesisResult        # p bounded in [p_minus, p_plus], p_minus >= 1
    limit_ok: HypothesisResult        # p -> 1, (p-1)*log x bounded
    derivative_ok: HypothesisResult   # piecewise |p'| bound

    @property
    def passed(self) -> bool:
        return self.range_ok.passed and self.limit_ok.passed and self.derivative_ok.passed

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "range_condition": self.range_ok.to_dict(),
            "limit_condition": self.limit_ok.to_dict(),
            "derivative_condition": self.derivative_ok.to_dict(),
            "grid": {
                "lo": _CHECK_GRID_LO,
                "cutoff": _CHECK_CUTOFF,
                "points": _CHECK_GRID_POINTS,
                "spacing": "log",
            },
            "tol_limit": _TOL_LIMIT,
            "note": "numerical evidence at grid scale, not a proof",
        }


_CHECK_GRID_LO = 1e-8
_CHECK_CUTOFF = 1e4    # the grid's upper end, where the limit condition is read
_CHECK_GRID_POINTS = 4096
_TOL_LIMIT = 1e-5      # |p(cutoff) - 1| threshold for the limit condition
_REL_SLACK = 1e-9      # relative slack on inequality checks


def check_admissibility(spec: ExponentSpec) -> CheckReport:
    """Check the admissibility conditions on a log grid over (grid_lo, cutoff].

    Violations are reported (with the witnessing x), never raised; a spec
    whose delta leaves no tail below the cutoff is a ValueError.
    """
    if spec.delta >= _CHECK_CUTOFF:
        raise ValueError(f"delta {spec.delta:g} must be below the check's cutoff "
                         f"{_CHECK_CUTOFF:g}")

    xs = log_grid(_CHECK_GRID_LO, _CHECK_CUTOFF, _CHECK_GRID_POINTS)
    p, dp = _p_dp(spec, xs)

    # Condition 1: 1 <= p_minus <= p(x) <= p_plus < inf.
    slack = _REL_SLACK * max(1.0, abs(spec.p_plus))
    if spec.p_minus < 1.0:
        range_ok = HypothesisResult(False, f"declared p_minus = {spec.p_minus} < 1")
    else:
        below = p < spec.p_minus - slack
        above = p > spec.p_plus + slack
        if below.any() or above.any():
            i = int(np.argmax(below | above))
            range_ok = HypothesisResult(
                False, f"p({xs[i]:.6g}) = {p[i]:.9g} outside [{spec.p_minus}, {spec.p_plus}]",
                witness_x=float(xs[i]),
            )
        else:
            range_ok = HypothesisResult(True, "p within declared [p_minus, p_plus] on grid")

    # Condition 2: p(x) -> 1 and (p(x)-1)*log(x) stays bounded.
    tail_dev = abs(p[-1] - 1.0)
    logdev = (p - 1.0) * np.log(xs)
    # Boundedness evidence: the max of (p-1)log x over the last grid decade
    # must not exceed the max over the decade before it.
    last = xs >= _CHECK_CUTOFF / 10.0
    prev = (xs >= _CHECK_CUTOFF / 100.0) & ~last
    m_last = float(logdev[last].max())
    m_prev = float(logdev[prev].max())
    if tail_dev > _TOL_LIMIT:
        limit_ok = HypothesisResult(
            False, f"|p(cutoff) - 1| = {tail_dev:.3g} > {_TOL_LIMIT}", witness_x=_CHECK_CUTOFF,
        )
    elif m_last > m_prev + slack:
        i = int(np.argmax(np.where(last, logdev, -np.inf)))
        limit_ok = HypothesisResult(
            False, f"(p-1)*log x growing in the tail: {m_prev:.3g} -> {m_last:.3g}",
            witness_x=float(xs[i]),
        )
    else:
        limit_ok = HypothesisResult(
            True, f"p(cutoff)-1 = {tail_dev:.3g}; (p-1)*log x tail max {m_last:.3g}",
        )

    # Condition 3: piecewise derivative bound with declared constants.
    if spec.p_plus >= 1.0 + spec.alpha:
        derivative_ok = HypothesisResult(
            False, f"structural violation: p_plus = {spec.p_plus} >= 1 + alpha = {1 + spec.alpha}",
        )
    else:
        bound = np.where(
            xs <= spec.delta, spec.m0, spec.c0 * xs ** (-1.0 - spec.alpha)
        )
        bad = np.abs(dp) > bound * (1.0 + _REL_SLACK) + 1e-300
        if bad.any():
            i = int(np.argmax(bad))
            derivative_ok = HypothesisResult(
                False, f"|p'({xs[i]:.6g})| = {abs(dp[i]):.6g} > bound {bound[i]:.6g}",
                witness_x=float(xs[i]),
            )
        else:
            derivative_ok = HypothesisResult(True, "|p'| within declared piecewise bound on grid")

    return CheckReport(range_ok=range_ok, limit_ok=limit_ok, derivative_ok=derivative_ok)


# -- brute-force Lipschitz / growth constants -----------------------------

@dataclass(frozen=True)
class GrowthConstants:
    """Grid estimates of L and K in |phi(x)-phi(y)| <= L|x-y|, phi(x) <= K(1+x)."""

    lipschitz_l: float
    growth_k: float
    grid_lo: float
    grid_hi: float
    grid_points: int


def estimate_constants(spec: ExponentSpec,
                       grid_lo: float = DEFAULT_GRID_LO,
                       grid_hi: float = DEFAULT_GRID_HI,
                       grid_points: int = DEFAULT_GRID_POINTS) -> GrowthConstants:
    """Brute-force L = 1.05 * max|phi'| and K = 1.05 * max phi(x)/(1+x) on a log grid."""
    if grid_points < 1000:
        raise ValueError("grid_points must be >= 1000")
    xs = log_grid(grid_lo, grid_hi, grid_points)
    phi, dphi = _phi_dphi(spec, _positive(xs), True)
    ratio = phi / (1.0 + xs)
    if not (np.all(np.isfinite(dphi)) and np.all(np.isfinite(ratio))):
        raise ArithmeticError("non-finite phi'/growth ratio on the grid; "
                              "constants are not estimable for this exponent")
    return GrowthConstants(
        lipschitz_l=SAFETY_FACTOR * float(np.abs(dphi).max()),
        growth_k=SAFETY_FACTOR * float(ratio.max()),
        grid_lo=grid_lo, grid_hi=grid_hi, grid_points=grid_points,
    )
