"""Closed-form moment and model-to-GBM error bounds.

Two bounds are evaluated deterministically:

  * a second-moment bound for the variable-exponent solution,
        E[sup_{t<=T} X^2] <= (1 + 3 E[x0^2]) * exp(3 mu^2 T^2 + 24 sigma^2 T K^2),
    with K the linear-growth constant of x^p(x); and

  * a localized pathwise error bound against GBM on a state interval
    [lambda, R] with lambda in (0,1) < 1 < R,
        error(lambda, R) <= coefficient * Lambda * sup_{[lambda,R]} |p(x)-1|,
    where coefficient = sqrt(12 sigma^2 exp(3 T^2 mu^2 + 12 T sigma^2)) and
        Lambda = |log lambda| (lambda + lambda^p+) + |log R| (R + R^p+).

`bound_table` sweeps a list of (lambda, R) cases across several exponents
and keeps the values unrounded; the CLI rounds them to 6 decimals when it
writes the CSV/JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .exponent import ExponentSpec, _require_finite, sup_deviation


def _finite(bound: str, value_of, **inputs: float) -> float:
    """value_of(), or an OverflowError naming the bound and the inputs that
    make it too large for a float (math and ** raise; a float product turns
    inf)."""
    try:
        value = value_of()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        args = ", ".join(f"{k}={v!r}" for k, v in inputs.items())
        raise OverflowError(f"{bound} overflows a float at {args}")
    return value


def lambda_factor(lam: float, r: float, p_plus: float) -> float:
    """|log(lam)| (lam + lam^p+) + |log(R)| (R + R^p+)."""
    _require_finite(lam=lam, r=r, p_plus=p_plus)
    if not (0.0 < lam < 1.0 < r):
        raise ValueError("need 0 < lambda < 1 < R")
    if p_plus < 1.0:
        raise ValueError("p_plus must be >= 1")
    return _finite("lambda factor", lambda: abs(math.log(lam)) * (lam + lam**p_plus)
                   + abs(math.log(r)) * (r + r**p_plus), lam=lam, r=r, p_plus=p_plus)


def coefficient(mu: float, sigma: float, t: float) -> float:
    """sqrt(12 sigma^2 exp(3 T^2 mu^2 + 12 T sigma^2))."""
    _require_finite(mu=mu, sigma=sigma, t=t)
    if sigma < 0 or t <= 0:
        raise ValueError("need sigma >= 0 and t > 0")
    return _finite("error bound coefficient", lambda: math.sqrt(
        12.0 * sigma**2 * math.exp(3.0 * t**2 * mu**2 + 12.0 * t * sigma**2)),
        mu=mu, sigma=sigma, t=t)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the two closed-form bounds."""

    mu: float
    sigma: float
    t_horizon: float
    lam: float          # lower end of the localization interval, in (0,1)
    r: float            # upper end, > 1
    p_plus: float
    sup_dev: float      # sup over [lam, r] of |p(x) - 1|
    growth_k: float = 1.0
    ex0_sq: float = 1.0  # E[x0^2]

    def __post_init__(self):
        _require_finite(**vars(self))  # first, so that no NaN slips through a comparison
        if self.sigma <= 0 or self.t_horizon <= 0:
            raise ValueError("sigma and t_horizon must be positive")
        if not (0.0 < self.lam < 1.0 < self.r):
            raise ValueError("need 0 < lambda < 1 < R")
        if self.p_plus < 1.0:
            raise ValueError("p_plus must be >= 1")
        if self.sup_dev < 0 or self.sup_dev > self.p_plus - 1.0 + 1e-12:
            raise ValueError("sup_dev must lie in [0, p_plus - 1]")
        if self.growth_k <= 0 or self.ex0_sq < 0:
            raise ValueError("growth_k must be > 0 and ex0_sq >= 0")


def error_bound(b: BoundInputs) -> float:
    """Localized model-to-GBM pathwise error bound."""
    c, lam_r = coefficient(b.mu, b.sigma, b.t_horizon), lambda_factor(b.lam, b.r, b.p_plus)
    return _finite("error bound", lambda: c * lam_r * b.sup_dev,
                   mu=b.mu, sigma=b.sigma, t_horizon=b.t_horizon, r=b.r, p_plus=b.p_plus)


def moment_bound(b: BoundInputs) -> float:
    """(1 + 3 E[x0^2]) exp(3 mu^2 T^2 + 24 sigma^2 T K^2)."""
    return _finite("moment bound", lambda: (1.0 + 3.0 * b.ex0_sq) * math.exp(
        3.0 * b.mu**2 * b.t_horizon**2 + 24.0 * b.sigma**2 * b.t_horizon * b.growth_k**2),
        mu=b.mu, sigma=b.sigma, t_horizon=b.t_horizon, growth_k=b.growth_k)


@dataclass
class BoundTable:
    """Error bounds for each (lambda, R) case and exponent column."""

    labels: list[str]
    rows: list[dict]  # case, lam, r, bounds: list aligned with labels


def bound_table(exponents: Sequence[ExponentSpec],
                cases: Sequence[tuple[float, float]],
                mu: float, sigma: float, t_horizon: float,
                labels: Optional[Sequence[str]] = None) -> BoundTable:
    """Evaluate the error bound for every case x exponent combination.

    Each exponent column uses that function's own declared p_plus inside
    the interval factor; duplicated cases deliberately produce duplicated
    rows.
    """
    if labels is None:
        labels = [f"p{i + 1}" for i in range(len(exponents))]
    if len(labels) != len(exponents):
        raise ValueError("labels must match exponents")
    rows = []
    for idx, (lam, r) in enumerate(cases, start=1):
        bounds = []
        for spec in exponents:
            b = BoundInputs(
                mu=mu, sigma=sigma, t_horizon=t_horizon, lam=lam, r=r,
                p_plus=spec.p_plus, sup_dev=sup_deviation(spec, lam, r),
            )
            bounds.append(error_bound(b))
        rows.append({"case": idx, "lam": lam, "r": r, "bounds": bounds})
    return BoundTable(labels=list(labels), rows=rows)
