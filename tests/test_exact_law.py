"""The engine against a closed-form law other than GBM's.

CEV, dX = mu X dt + sigma X^gamma dW with a constant gamma < 1, has an
exact transition law in noncentral chi-square form (Cox, 1975; Schroder,
J. Finance 44(1), 1989). With beta = 2 gamma,
k = 2 mu / (sigma^2 (2 - beta) (exp(mu (2 - beta) T) - 1)),
x = k x0^(2 - beta) exp(mu (2 - beta) T) and y = k K^(2 - beta):

    P(X_T > K) = ncx2.cdf(2x, 2 / (2 - beta), 2y),

and for r = mu the call price is

    C = x0 ncx2.sf(2y, 2 + 2 / (2 - beta), 2x) - K exp(-rT) P(X_T > K).

The convergence tests compare each scheme with itself at a finer step, so
a drift or diffusion that coarse and fine runs share would pass them; this
law would not.
"""

import math

import numpy as np
import pytest
from scipy.stats import ncx2

from varexp import (SimConfig, SmileRequest, cev, coupled_smile, gbm, implied_vol,
                    simulate_coupled_stats)
from varexp.engine import LOG_MILSTEIN, MILSTEIN

MU, SIGMA, T, X0 = 0.05, 0.2, 1.0, 1.0
GAMMAS = (0.8, 0.9)
STRIKES = np.round(np.arange(0.8, 1.35, 0.1), 2)  # 0.8 ... 1.3


def exceedance(gamma: float, strikes: np.ndarray) -> np.ndarray:
    """Exact P(X_T > K) of CEV with exponent gamma < 1, for each strike K."""
    two_m_beta = 2.0 - 2.0 * gamma
    k = 2.0 * MU / (SIGMA**2 * two_m_beta * math.expm1(MU * two_m_beta * T))
    x = k * X0**two_m_beta * math.exp(MU * two_m_beta * T)
    y = k * strikes**two_m_beta
    return ncx2.cdf(2.0 * x, 2.0 / two_m_beta, 2.0 * y)


@pytest.mark.parametrize("scheme", [LOG_MILSTEIN, MILSTEIN])
def test_exceedance_matches_the_exact_law(scheme):
    # both exponents share one run's increments; each estimate averages
    # the antithetic pairs first, so its standard error is the pairs'
    cfg = SimConfig(t_horizon=T, dt=1e-3, n_base_paths=20000, seed=42,
                    scheme=scheme, x0=X0)
    models = [cev(MU, SIGMA, g) for g in GAMMAS]
    stats = simulate_coupled_stats(models, cfg, reductions=())
    n = cfg.n_base_paths
    for gamma, ms in zip(GAMMAS, stats.models):
        above = (ms.terminal[:, None] > STRIKES).astype(float)
        pairs = 0.5 * (above[:n] + above[n:])
        z = (pairs.mean(axis=0) - exceedance(gamma, STRIKES)) / (pairs.std(axis=0, ddof=1)
                                                                / math.sqrt(n))
        assert np.all(np.abs(z) <= 4.0), (gamma, z.round(2).tolist())


def call_price(gamma: float, strikes: np.ndarray) -> np.ndarray:
    """Schroder's exact call price of CEV with exponent gamma < 1, at rate mu."""
    two_m_beta = 2.0 - 2.0 * gamma
    k = 2.0 * MU / (SIGMA**2 * two_m_beta * math.expm1(MU * two_m_beta * T))
    x = k * X0**two_m_beta * math.exp(MU * two_m_beta * T)
    y = k * strikes**two_m_beta
    return (X0 * ncx2.sf(2.0 * y, 2.0 + 2.0 / two_m_beta, 2.0 * x)
            - strikes * math.exp(-MU * T) * exceedance(gamma, strikes))


@pytest.mark.parametrize("seed", [42, 7])
def test_coupled_smile_holds_the_exact_price(seed):
    """Every exact implied vol lies in the 95% band of the smile priced
    against a coupled GBM (10000 base paths, dt 1e-3, log-Milstein): CEV's
    skew of up to about 100 bp is resolved to 1-8 bp. At seeds 42 and 7 the
    largest |difference| is 0.51 of the band's half-width, and all 30
    differences (simulated minus exact) are negative, -0.15 to -2.49 bp.
    The strikes and exponents share their paths, so that sign is one draw
    of correlated noise, not a bias of the scheme: at dt 5e-4 all 30 are
    positive (+0.28 to +2.15 bp), and at 2.5e-4 they take both signs.
    """
    gammas = (0.75, 0.8, 0.9)
    strikes = np.round(np.arange(0.8, 1.25, 0.1), 2)  # 0.8 ... 1.2
    cfg = SimConfig(t_horizon=T, dt=1e-3, n_base_paths=10000, seed=seed, x0=X0)
    stats = simulate_coupled_stats([gbm(MU, SIGMA)] + [cev(MU, SIGMA, g) for g in gammas],
                                   cfg, reductions=())
    req = SmileRequest(strikes=tuple(strikes.tolist()), rate=MU, maturity=T, spot=X0)
    reference = stats.models[0].terminal
    for gamma, ms in zip(gammas, stats.models[1:]):
        points = coupled_smile(ms.terminal, reference, req, SIGMA, antithetic=True)
        for point, price in zip(points, call_price(gamma, strikes)):
            exact = implied_vol(float(price), X0, point.strike, MU, T)
            assert point.se_low <= exact <= point.se_high, (gamma, point, exact)
