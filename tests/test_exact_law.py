"""The engine against a closed-form law other than GBM's.

CEV, dX = mu X dt + sigma X^gamma dW with a constant gamma < 1, has an
exact transition law in noncentral chi-square form (Cox, 1975; Schroder,
J. Finance 44(1), 1989). With beta = 2 gamma,
k = 2 mu / (sigma^2 (2 - beta) (exp(mu (2 - beta) T) - 1)),
x = k x0^(2 - beta) exp(mu (2 - beta) T) and y = k K^(2 - beta):

    P(X_T > K) = ncx2.cdf(2x, 2 / (2 - beta), 2y).

The convergence tests compare each scheme with itself at a finer step, so
a drift or diffusion that coarse and fine runs share would pass them; this
law would not.
"""

import math

import numpy as np
import pytest
from scipy.stats import ncx2

from varexp import SimConfig, cev, simulate_coupled_stats
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
