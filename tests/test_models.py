import math

import numpy as np
import pytest

from varexp import ExponentSpec, ModelSpec, SimConfig, cev, eval_dphi, eval_phi, gbm
from varexp.engine import EULER
from conftest import one_step


def _euler(m, x, dt, dw):
    """One Euler step of m from state x."""
    return one_step(m, x, dt, dw, EULER).terminal[0]


def _diffusion(m, x):
    """sigma * x^p(x), the model's diffusion coefficient."""
    return m.sigma * eval_phi(m.exponent, x)


def _diffusion_deriv(m, x):
    """d/dx of the diffusion coefficient; feeds the Milstein correction."""
    return m.sigma * eval_dphi(m.exponent, x)


def test_drift_linear():
    # with dw = 0 and dt = 1 an Euler step adds exactly the drift mu * x
    m = gbm(0.05, 0.2)
    assert _euler(m, 1.0, 1.0, 0.0) - 1.0 == pytest.approx(0.05)
    assert _euler(m, 2.0, 1.0, 0.0) - 2.0 == pytest.approx(0.1)
    assert _euler(ModelSpec(0.0, 0.2, ExponentSpec.constant(1.0)), 5.0, 1.0, 0.0) == 5.0


def test_drift_domain():
    # the state is checked once, as SimConfig's x0; no step re-checks it
    for x in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="x0 must be"):
            SimConfig(t_horizon=1e-3, dt=1e-3, n_base_paths=1, seed=0, x0=x)


def test_diffusion_gbm():
    m = gbm(0.05, 0.2)
    assert _diffusion(m, 1.5) == pytest.approx(0.3, rel=1e-15)


def test_diffusion_unit_state(p1_model):
    assert _diffusion(p1_model, 1.0) == pytest.approx(0.2, rel=1e-15)


def test_diffusion_cev_square():
    m = cev(0.05, 0.2, 2.0)
    assert _diffusion(m, 2.0) == pytest.approx(0.8, rel=1e-14)


def test_diffusion_positive(p1_model, p2_model):
    xs = np.geomspace(1e-5, 1e5, 500)
    for m in (p1_model, p2_model):
        assert np.all(np.asarray(_diffusion(m, xs)) > 0)


def test_diffusion_deriv_constants():
    assert _diffusion_deriv(gbm(0.05, 0.2), 7.3) == pytest.approx(0.2, rel=1e-15)
    assert _diffusion_deriv(cev(0.05, 0.2, 2.0), 3.0) == pytest.approx(1.2, rel=1e-14)


def test_diffusion_deriv_variable(p1_model):
    # sigma * phi'(1) = 0.2 * p(1), frozen from direct arithmetic
    assert _diffusion_deriv(p1_model, 1.0) == pytest.approx(0.20090484, abs=1e-7)


def test_diffusion_deriv_matches_fd(p1_model, p2_model):
    xs = np.geomspace(1e-3, 1e3, 200)
    for m in (p1_model, p2_model):
        h = 1e-6 * xs
        fd = (np.asarray(_diffusion(m, xs + h)) - np.asarray(_diffusion(m, xs - h))) / (2 * h)
        d = np.asarray(_diffusion_deriv(m, xs))
        assert np.allclose(fd, d, rtol=1e-6, atol=1e-12)


def test_sigma_validation():
    with pytest.raises(ValueError):
        ModelSpec(mu=0.05, sigma=-0.1, exponent=ExponentSpec.constant(1.0))
    # sigma = 0 is the deterministic drift-only limit
    m = ModelSpec(mu=0.05, sigma=0.0, exponent=ExponentSpec.constant(1.0))
    assert _diffusion(m, 2.0) == 0.0
    assert _euler(m, 2.0, 1.0, 7.0) == pytest.approx(2.1, rel=1e-15)


@pytest.mark.parametrize("field", ["mu", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, value):
    params = {"mu": 0.05, "sigma": 0.2, field: value}
    with pytest.raises(ValueError, match="mu and sigma must be finite"):
        ModelSpec(exponent=ExponentSpec.constant(1.0), **params)


def test_gbm_reduction_exact():
    m = gbm(0.03, 0.4)
    xs = np.geomspace(1e-4, 1e4, 100)
    assert np.array_equal(np.asarray(_diffusion(m, xs)), 0.4 * xs)


def test_serialization_round_trip(p1_model):
    d = p1_model.to_dict()
    assert d["mu"] == 0.05 and d["sigma"] == 0.2 and "exponent" in d
    assert ModelSpec.from_dict(d) == p1_model


def test_from_dict_rejects_an_unknown_key(p1_model):
    d = p1_model.to_dict()
    d["sigm"] = d.pop("sigma")
    with pytest.raises(ValueError, match="unknown key 'sigm'"):
        ModelSpec.from_dict(d)
