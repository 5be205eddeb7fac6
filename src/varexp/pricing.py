"""European call pricing and implied-volatility smile extraction.

Prices come from terminal Monte-Carlo samples (antithetic pairs averaged
before the standard error is formed, see `analysis._pair_mean_ci`) and are
inverted through the Black-Scholes formula by Brent's method.

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
from scipy.special import ndtr

from .analysis import _pair_mean_ci

VOL_FLOOR = 1e-6
VOL_CAP = 5.0

FLAG_OK = ""
FLAG_VOL_FLOOR = "vol_floor"
FLAG_NO_SOLUTION = "no_solution"
FLAG_NEAR_BOUND = "near_bound"


class ImpliedVolError(ValueError):
    """Price outside the no-arbitrage interval; carries the violated bound."""

    def __init__(self, price: float, lower: float, upper: float):
        self.price = price
        self.lower = lower
        self.upper = upper
        side = "lower" if price < lower else "upper"
        super().__init__(
            f"price {price:.6g} violates the {side} no-arbitrage bound "
            f"[{lower:.6g}, {upper:.6g})"
        )


def bs_call(spot: float, strike: float, rate: float, vol: float,
            maturity: float) -> float:
    """Black-Scholes call price; in the money, intrinsic value plus the put
    (put-call parity), because the direct formula cancels there to a few
    ulps of noise that is not monotone in vol and spoils implied_vol."""
    if min(spot, strike, vol, maturity) <= 0:
        raise ValueError("spot, strike, vol and maturity must be positive")
    sqt = math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * maturity) / (vol * sqt)
    d2 = d1 - vol * sqt
    pv_strike = strike * math.exp(-rate * maturity)
    if pv_strike < spot:
        return spot - pv_strike + (pv_strike * ndtr(-d2) - spot * ndtr(-d1))
    return spot * ndtr(d1) - pv_strike * ndtr(d2)


def bs_vega(spot: float, strike: float, rate: float, vol: float,
            maturity: float) -> float:
    sqt = math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * maturity) / (vol * sqt)
    return spot * math.exp(-0.5 * d1 * d1) / math.sqrt(2 * math.pi) * sqt


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """A root of f in [a, b] by Brent's method.

    A line-for-line port of scipy's C brentq (scipy/optimize/Zeros/brentq.c):
    the same variables, branch order and floating-point operations in the
    same order, so it takes the same iterates and returns the same float as
    scipy.optimize.brentq. Like that function, it returns a or b where f
    is zero and raises ValueError for a NaN value of f or for f(a) and f(b)
    of one sign, and RuntimeError after maxiter iterations.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2  # the tolerance is 2 delta
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den == 0:
                    # C divides by zero into inf or NaN here, which fails the
                    # step test below and bisects; Python would raise.
                    stry = math.inf
                else:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def implied_vol(price: float, spot: float, strike: float, rate: float,
                maturity: float) -> float:
    """Invert bs_call for the volatility.

    Brent's method on [VOL_FLOOR, VOL_CAP], run until the bracket is
    narrower than 1e-14 + 4 eps * vol; deep out-of-the-money vegas
    underflow, so the bracket width, not the price residual, is the
    stopping rule. A price at (or below the floor-vol price of) intrinsic
    value returns VOL_FLOOR; a price above the VOL_CAP price raises
    ImpliedVolError.
    """
    if min(spot, strike, maturity) <= 0:
        raise ValueError("spot, strike and maturity must be positive")
    lower = max(spot - strike * math.exp(-rate * maturity), 0.0)
    upper = spot
    if price < lower or price >= upper:
        raise ImpliedVolError(price, lower, upper)

    def f(vol: float) -> float:
        return bs_call(spot, strike, rate, vol, maturity) - price

    if f(VOL_FLOOR) >= 0.0:
        return VOL_FLOOR
    cap_price = bs_call(spot, strike, rate, VOL_CAP, maturity)
    if cap_price < price:
        raise ImpliedVolError(price, lower, cap_price)
    return _brentq(f, VOL_FLOOR, VOL_CAP, xtol=1e-14, rtol=4 * np.finfo(float).eps)


def mc_call_price(terminal: np.ndarray, strike: float, rate: float,
                  maturity: float, antithetic: bool = False) -> tuple[float, float]:
    """Discounted mean call payoff and its 95% half-width.

    With antithetic layout (first half main paths, second half mirrored),
    pairs are averaged before the standard error is formed.
    """
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
        if not np.isfinite([*ks, self.rate, self.maturity, self.spot]).all():
            raise ValueError("strikes, rate, maturity and spot must be finite")
        if ks.size == 0 or np.any(ks <= 0) or np.any(np.diff(ks) <= 0):
            raise ValueError("strikes must be positive and strictly increasing")
        if self.maturity <= 0 or self.spot <= 0:
            raise ValueError("maturity and spot must be positive")

    @classmethod
    def default_grid(cls) -> "SmileRequest":
        """21 strikes on [0.8, 1.2] at spot 1, rate 0.05, maturity 1."""
        ks = tuple(float(k) for k in np.linspace(0.8, 1.2, 21))
        return cls(strikes=ks, rate=0.05, maturity=1.0, spot=1.0)

    def to_dict(self) -> dict:
        return {"strikes": list(self.strikes), "rate": self.rate,
                "maturity": self.maturity, "spot": self.spot}


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
    disc = math.exp(-req.rate * req.maturity)
    points = []
    for k in req.strikes:
        diff = np.maximum(term - k, 0.0) - np.maximum(ref - k, 0.0)
        mean, hw = _pair_mean_ci(diff, antithetic)
        anchor = bs_call(req.spot, k, req.rate, reference_vol, req.maturity)
        points.append(_point_from_price(anchor + disc * mean, disc * hw, req, k))
    return points
