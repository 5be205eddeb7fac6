"""SDE model definitions: dX = mu*X dt + sigma*X^p(X) dW.

A constant exponent gamma=1 gives geometric Brownian motion and a general
constant gamma gives the constant-elasticity model; the decaying exponent
kinds give the state-adaptive diffusion this package is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exponent import ExponentSpec, _check_keys, _number


@dataclass(frozen=True)
class ModelSpec:
    """Drift/diffusion parameters plus the diffusion exponent.

    sigma = 0 is accepted as the deterministic drift-only limit (useful
    for diagnostics); the closed-form bounds require sigma > 0 and enforce
    it on their own inputs.
    """

    mu: float
    sigma: float
    exponent: ExponentSpec

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def to_dict(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma, "exponent": self.exponent.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """The model a JSON object of mu, sigma and exponent describes."""
        _check_keys(d, ("mu", "sigma", "exponent"))
        return cls(mu=_number(d["mu"], "mu"), sigma=_number(d["sigma"], "sigma"),
                   exponent=ExponentSpec.from_dict(d["exponent"]))


def gbm(mu: float, sigma: float) -> ModelSpec:
    """Geometric Brownian motion: exponent identically 1."""
    return ModelSpec(mu=mu, sigma=sigma, exponent=ExponentSpec.constant(1.0))


def cev(mu: float, sigma: float, gamma: float) -> ModelSpec:
    """Constant-elasticity model X^gamma.

    gamma in [0, 1) is constructible for comparison plots only; the
    Lipschitz/growth guarantees backing the error bounds assume gamma >= 1.
    """
    return ModelSpec(mu=mu, sigma=sigma, exponent=ExponentSpec.constant(gamma))
