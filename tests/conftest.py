import copy
import time

import numpy as np
import pytest

from varexp import (ExponentSpec, ModelSpec, SimConfig, gbm, run_with_increments,
                    simulate_coupled_stats)
from varexp.cli import main
from varexp.engine import LOG_MILSTEIN


def _cli_run(tmp_path_factory, command):
    """A command's output directory on paper.json (seed 42, every format)
    and the seconds it took."""
    out = tmp_path_factory.mktemp(command.replace("-", "_") + "_run")
    t0 = time.perf_counter()
    code = main([command, "--config", "paper.json", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return out, elapsed


@pytest.fixture(scope="session")
def strong_error_cli(tmp_path_factory):
    return _cli_run(tmp_path_factory, "strong-error")


@pytest.fixture(scope="session")
def smile_cli(tmp_path_factory):
    return _cli_run(tmp_path_factory, "smile")


@pytest.fixture(scope="session")
def p1_spec():
    """Exponent 1 + 0.005 exp(-0.1 x)."""
    return ExponentSpec.exp_decay(0.005, 0.1)


@pytest.fixture(scope="session")
def p2_spec():
    """Exponent 1 + 1e-3 / (1 + x)."""
    return ExponentSpec.rational_decay(1e-3)


@pytest.fixture(scope="session")
def inv_square_spec():
    """Exponent 1 + 1 / (1 + x)^2."""
    return ExponentSpec.inverse_square(1.0)


@pytest.fixture(scope="session")
def gbm_model():
    return gbm(0.05, 0.2)


@pytest.fixture(scope="session")
def p1_model(p1_spec):
    return ModelSpec(mu=0.05, sigma=0.2, exponent=p1_spec)


@pytest.fixture(scope="session")
def p2_model(p2_spec):
    return ModelSpec(mu=0.05, sigma=0.2, exponent=p2_spec)


@pytest.fixture
def small_cfg():
    """Fast config for functional tests."""
    return SimConfig(t_horizon=0.5, dt=0.01, n_base_paths=64, seed=1234)


def all_kinds():
    """One representative spec per exponent kind."""
    return [
        ExponentSpec.constant(1.0),
        ExponentSpec.constant(2.0),
        ExponentSpec.exp_decay(0.005, 0.1),
        ExponentSpec.inverse_square(1.0),
        ExponentSpec.rational_decay(1e-3),
    ]


def one_step(m, x, dt, dw, scheme=LOG_MILSTEIN):
    """The batch after one step of `scheme` from state x, taken by
    run_with_increments: path i draws the increment dw[i]."""
    dw = np.atleast_1d(np.asarray(dw, dtype=float))
    cfg = SimConfig(t_horizon=dt, dt=dt, n_base_paths=dw.size, seed=0,
                    antithetic=False, scheme=scheme, x0=x)
    return run_with_increments(m, cfg, dw[:, None])


def coupled_terminals(models, cfg, labels=None):
    """Each model's terminal values from a coupled run that computes no
    reductions: simulate_coupled_stats with reductions=()."""
    return [ms.terminal for ms in simulate_coupled_stats(models, cfg, labels, reductions=()).models]


def replaced(raw, path, value):
    """A deep copy of a decoded JSON document with the value at the key
    path replaced (the whole document for the empty path)."""
    if not path:
        return value
    raw = copy.deepcopy(raw)
    node = raw
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return raw
