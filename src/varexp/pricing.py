"""European call pricing and implied-volatility smile extraction.

Prices come from terminal Monte-Carlo samples (antithetic pairs averaged
before the standard error is formed, see `analysis._pair_mean_ci`) and are
inverted through the Black-Scholes formula by bisection. The formula's
normal CDF is the standard library's `math.erfc`, so smile data depends on
the platform C library's `erfc`, as it does on its `exp`.

Paths are simulated under the real-world measure and discounted at the
request's `rate`. When that rate equals the models' drift `mu`, the GBM
baseline coincides with the Black-Scholes model, so its smile is flat at
sigma and any structure in another model's smile is attributable to its
state-dependent diffusion. `coupled_smile` prices a model relative to a
GBM reference driven by identical increments, which shrinks the
standard-error bands by orders of magnitude and is the only way to
resolve sub-basis-point smile structure at desk-scale path counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .analysis import _pair_mean_ci
from .exponent import _require_finite

VOL_FLOOR = 1e-6
VOL_CAP = 5.0

FLAG_OK = ""
FLAG_VOL_FLOOR = "vol_floor"
FLAG_NO_SOLUTION = "no_solution"
FLAG_NEAR_BOUND = "near_bound"

_SQRT1_2 = math.sqrt(0.5)


def _ndtr(a: float) -> float:
    """The standard normal CDF at a."""
    return 0.5 * math.erfc(-a * _SQRT1_2)


class ImpliedVolError(ValueError):
    """Price outside the no-arbitrage interval, or above the price at
    VOL_CAP (then `upper` is that price); carries the violated bound."""

    def __init__(self, price: float, lower: float, upper: float, vol_cap: bool = False):
        self.price = price
        self.lower = lower
        self.upper = upper
        if vol_cap:
            msg = (f"price {price:.6g} is above {upper:.6g}, the Black-Scholes price at "
                   f"the vol cap {VOL_CAP:g}")
        else:
            side = "lower" if price < lower else "upper"
            msg = (f"price {price:.6g} violates the {side} no-arbitrage bound "
                   f"[{lower:.6g}, {upper:.6g})")
        super().__init__(msg)


def _sqt_d1(spot: float, strike: float, rate: float, vol: float,
            maturity: float) -> tuple[float, float]:
    """sqrt(maturity) and Black-Scholes d1, for finite arguments with spot,
    strike, vol and maturity positive (a ValueError otherwise)."""
    if not math.isfinite(spot + strike + rate + vol + maturity):
        _require_finite(spot=spot, strike=strike, rate=rate, vol=vol, maturity=maturity)
    if min(spot, strike, vol, maturity) <= 0:
        raise ValueError("spot, strike, vol and maturity must be positive")
    sqt = math.sqrt(maturity)
    return sqt, (math.log(spot / strike) + (rate + 0.5 * vol * vol) * maturity) / (vol * sqt)


def bs_call(spot: float, strike: float, rate: float, vol: float,
            maturity: float) -> float:
    """Black-Scholes call price; in the money, intrinsic value plus the put
    (put-call parity), because the direct formula cancels there to a few
    ulps of noise that is not monotone in vol and spoils implied_vol."""
    sqt, d1 = _sqt_d1(spot, strike, rate, vol, maturity)
    d2 = d1 - vol * sqt
    pv_strike = strike * math.exp(-rate * maturity)
    if pv_strike < spot:
        return spot - pv_strike + (pv_strike * _ndtr(-d2) - spot * _ndtr(-d1))
    return spot * _ndtr(d1) - pv_strike * _ndtr(d2)


def bs_vega(spot: float, strike: float, rate: float, vol: float,
            maturity: float) -> float:
    sqt, d1 = _sqt_d1(spot, strike, rate, vol, maturity)
    return spot * math.exp(-0.5 * d1 * d1) / math.sqrt(2 * math.pi) * sqt


def implied_vol(price: float, spot: float, strike: float, rate: float,
                maturity: float) -> float:
    """Invert bs_call for the volatility.

    Bisection on [VOL_FLOOR, VOL_CAP], which bs_call's monotonicity in vol
    allows, run until the bracket is narrower than 1e-14 + 4 eps * vol (at
    most 49 halvings); deep out-of-the-money vegas underflow, so the
    bracket width, not the price residual, is the stopping rule. Returns
    the end of the final bracket that reprices closer. A price at (or below
    the floor-vol price of) intrinsic value returns VOL_FLOOR; a price
    above the VOL_CAP price raises ImpliedVolError.
    """
    if not math.isfinite(price + spot + strike + rate + maturity):
        _require_finite(price=price, spot=spot, strike=strike, rate=rate, maturity=maturity)
    if min(spot, strike, maturity) <= 0:
        raise ValueError("spot, strike and maturity must be positive")
    lower = max(spot - strike * math.exp(-rate * maturity), 0.0)
    upper = spot
    if price < lower or price >= upper:
        raise ImpliedVolError(price, lower, upper)

    f_lo = bs_call(spot, strike, rate, VOL_FLOOR, maturity) - price
    if f_lo >= 0.0:
        return VOL_FLOOR
    cap_price = bs_call(spot, strike, rate, VOL_CAP, maturity)
    if cap_price < price:
        raise ImpliedVolError(price, lower, cap_price, vol_cap=True)
    lo, hi, f_hi = VOL_FLOOR, VOL_CAP, cap_price - price
    rtol = 4 * np.finfo(float).eps
    while hi - lo >= 1e-14 + rtol * hi:  # f(lo) < 0 <= f(hi)
        mid = 0.5 * (lo + hi)
        f_mid = bs_call(spot, strike, rate, mid, maturity) - price
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if -f_lo < f_hi else hi


def mc_call_price(terminal: np.ndarray, strike: float, rate: float,
                  maturity: float, antithetic: bool = False) -> tuple[float, float]:
    """Discounted mean call payoff and its 95% half-width.

    With antithetic layout (first half main paths, second half mirrored),
    pairs are averaged before the standard error is formed. A NaN or
    infinite strike, rate or maturity raises ValueError naming it.
    """
    if not math.isfinite(strike + rate + maturity):
        _require_finite(strike=strike, rate=rate, maturity=maturity)
    term = np.asarray(terminal, dtype=float)
    if term.size == 0:
        raise ValueError("terminal sample is empty")
    mean, hw = _pair_mean_ci(np.maximum(term - strike, 0.0), antithetic)
    disc = math.exp(-rate * maturity)
    return disc * mean, disc * hw


@dataclass(frozen=True)
class SmileRequest:
    """Strike grid and discounting conventions for a smile extraction."""

    strikes: tuple[float, ...]
    rate: float
    maturity: float
    spot: float

    def __post_init__(self):
        ks = np.asarray(self.strikes, dtype=float)
        if ks.ndim != 1:
            raise ValueError(f"strikes must be a sequence of numbers, not {self.strikes!r}")
        if not np.isfinite([*ks, self.rate, self.maturity, self.spot]).all():
            raise ValueError("strikes, rate, maturity and spot must be finite")
        if ks.size == 0 or np.any(ks <= 0) or np.any(np.diff(ks) <= 0):
            raise ValueError("strikes must be positive and strictly increasing")
        if self.maturity <= 0 or self.spot <= 0:
            raise ValueError("maturity and spot must be positive")
        # a tuple of floats, however given, so that requests hash and compare
        object.__setattr__(self, "strikes", tuple(ks.tolist()))

    @classmethod
    def default_grid(cls) -> "SmileRequest":
        """21 strikes on [0.8, 1.2] at spot 1, rate 0.05, maturity 1."""
        return cls(strikes=np.linspace(0.8, 1.2, 21), rate=0.05, maturity=1.0, spot=1.0)


@dataclass
class SmilePoint:
    strike: float
    iv: Optional[float]
    se_low: Optional[float]   # implied vol at price - se
    se_high: Optional[float]  # implied vol at price + se
    flag: str = FLAG_OK

    def to_dict(self) -> dict:
        return asdict(self)


def _point_from_price(price: float, se: float, req: SmileRequest,
                      strike: float) -> SmilePoint:
    """Invert a priced strike, flagging prices too close to a bound."""
    lower = max(req.spot - strike * math.exp(-req.rate * req.maturity), 0.0)
    upper = req.spot
    if price < lower + se or price > upper - se:
        return SmilePoint(strike, None, None, None, FLAG_NEAR_BOUND)
    try:
        iv = implied_vol(price, req.spot, strike, req.rate, req.maturity)
    except ImpliedVolError:
        return SmilePoint(strike, None, None, None, FLAG_NO_SOLUTION)
    flag = FLAG_VOL_FLOOR if iv <= VOL_FLOOR else FLAG_OK
    lo_price = max(price - se, lower + 1e-300)
    hi_price = min(price + se, upper * (1.0 - 1e-15))
    try:
        se_low = implied_vol(lo_price, req.spot, strike, req.rate, req.maturity)
        se_high = implied_vol(hi_price, req.spot, strike, req.rate, req.maturity)
    except ImpliedVolError:
        se_low = se_high = None
    return SmilePoint(strike, iv, se_low, se_high, flag)


def smile_from_terminal(terminal: np.ndarray, req: SmileRequest,
                        antithetic: bool) -> list[SmilePoint]:
    """Per-strike implied vols from a terminal sample."""
    points = []
    for k in req.strikes:
        price, se = mc_call_price(terminal, k, req.rate, req.maturity, antithetic)
        points.append(_point_from_price(price, se, req, k))
    return points


def coupled_smile(terminal: np.ndarray, reference_terminal: np.ndarray,
                  req: SmileRequest, reference_vol: float,
                  antithetic: bool) -> list[SmilePoint]:
    """Smile of a model priced relative to a coupled GBM reference.

    Each strike is priced as the exact Black-Scholes value at the
    reference volatility plus the discounted mean of the pathwise payoff
    difference (model minus reference, identical increments). The se band
    reflects only the difference estimator, which is what makes basis-
    point-scale smile structure resolvable.
    """
    term = np.asarray(terminal, dtype=float)
    ref = np.asarray(reference_terminal, dtype=float)
    if term.shape != ref.shape:
        raise ValueError("model and reference terminal samples must align")
    if term.size == 0:
        raise ValueError("terminal sample is empty")
    disc = math.exp(-req.rate * req.maturity)
    points = []
    for k in req.strikes:
        diff = np.maximum(term - k, 0.0) - np.maximum(ref - k, 0.0)
        mean, hw = _pair_mean_ci(diff, antithetic)
        anchor = bs_call(req.spot, k, req.rate, reference_vol, req.maturity)
        points.append(_point_from_price(anchor + disc * mean, disc * hw, req, k))
    return points
