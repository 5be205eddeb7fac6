import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varexp
from varexp import (ImpliedVolError, SimConfig, SmileRequest, bs_call, bs_vega,
                    coupled_smile, implied_vol, mc_call_price, simulate_batch,
                    smile_from_terminal)
from varexp import pricing
from varexp.pricing import (FLAG_NEAR_BOUND, FLAG_NO_SOLUTION, FLAG_OK, FLAG_VOL_FLOOR,
                            _brentq)
from conftest import coupled_terminals


class TestBsCall:
    def test_reference_price(self):
        # S=K=1, r=0.05, vol=0.2, T=1; frozen from 30-digit arithmetic
        assert bs_call(1.0, 1.0, 0.05, 0.2, 1.0) == pytest.approx(0.104505835722, rel=1e-10)

    def test_small_vol_limit(self):
        assert bs_call(1.0, 0.5, 0.0, 1e-9, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_deep_otm_worthless(self):
        assert bs_call(1.0, 1e6, 0.05, 0.2, 1.0) < 1e-30

    def test_domain(self):
        with pytest.raises(ValueError):
            bs_call(-1.0, 1.0, 0.05, 0.2, 1.0)
        with pytest.raises(ValueError):
            bs_call(1.0, 1.0, 0.05, 0.2, 0.0)

    def test_monotone_in_vol_and_strike(self):
        vols = np.linspace(0.05, 1.0, 30)
        prices = [bs_call(1.0, 1.0, 0.05, v, 1.0) for v in vols]
        assert all(a < b for a, b in zip(prices, prices[1:]))
        strikes = np.linspace(0.5, 2.0, 30)
        prices_k = [bs_call(1.0, k, 0.05, 0.2, 1.0) for k in strikes]
        assert all(a > b for a, b in zip(prices_k, prices_k[1:]))

    def test_equals_norm_cdf_oracle(self):
        # the formula written with scipy.stats.norm.cdf, bit for bit, on a
        # grid that covers the parity (in the money) and the direct branch
        from scipy.stats import norm
        spot, rate, mat = 1.0, 0.05, 1.0
        branches = set()
        for k in np.geomspace(0.3, 3.0, 31):
            for vol in np.geomspace(0.01, 2.0, 31):
                d1 = (math.log(spot / k) + (rate + 0.5 * vol * vol) * mat) / (vol * math.sqrt(mat))
                d2 = d1 - vol * math.sqrt(mat)
                pv = k * math.exp(-rate * mat)
                if pv < spot:
                    want = spot - pv + (pv * norm.cdf(-d2) - spot * norm.cdf(-d1))
                    branches.add("parity")
                else:
                    want = spot * norm.cdf(d1) - pv * norm.cdf(d2)
                    branches.add("direct")
                assert float(bs_call(spot, k, rate, vol, mat)).hex() == float(want).hex(), (k, vol)
        assert branches == {"parity", "direct"}

    def test_monotone_in_spot(self):
        spots = np.linspace(0.5, 2.0, 30)
        prices = [bs_call(s, 1.0, 0.05, 0.2, 1.0) for s in spots]
        assert all(a < b for a, b in zip(prices, prices[1:]))


class TestBsVega:
    def test_equals_norm_pdf_oracle(self):
        # the closed form against the formula written with scipy.stats.norm.pdf
        from scipy.stats import norm
        spot, rate, mat = 1.0, 0.05, 1.5
        for k in np.geomspace(0.3, 3.0, 31):
            for vol in np.geomspace(0.01, 2.0, 31):
                d1 = (math.log(spot / k) + (rate + 0.5 * vol * vol) * mat) / (vol * math.sqrt(mat))
                want = float(spot * norm.pdf(d1) * math.sqrt(mat))
                got = bs_vega(spot, float(k), rate, float(vol), mat)
                assert type(got) is float
                assert abs(got - want) <= 2 * np.spacing(want), (k, vol)


def _outcome(fn):
    """fn()'s float as hex, or the type of the exception it raised."""
    try:
        x = fn()
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    assert type(x) is float
    return x.hex()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBrentq:
    """_brentq against scipy.optimize.brentq, compared bit for bit."""

    XTOL, RTOL = 1e-14, 4 * np.finfo(float).eps

    def _scipy(self, f, a, b, xtol, rtol, maxiter=100):
        from scipy.optimize import brentq
        return brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)

    def test_implied_vol_equals_scipy_brentq(self, monkeypatch):
        cases = [(price * (1.0 + rel), k, rate, mat)
                 for k in np.geomspace(0.4, 2.5, 12)
                 for rate in (-0.01, 0.0, 0.05)
                 for mat in (0.05, 0.5, 1.0, 4.0)
                 for vol in np.geomspace(0.02, 2.0, 8)
                 for price in (float(bs_call(1.0, k, rate, vol, mat)),)
                 for rel in (0.0, 1e-13, -1e-9, 1e-4, -3e-3)]
        assert len(cases) >= 5000
        ours = [_outcome(lambda: implied_vol(price, 1.0, k, rate, mat))
                for price, k, rate, mat in cases]
        solved = []

        def scipy_brentq(f, a, b, xtol, rtol, maxiter=100):
            solved.append(1)
            return self._scipy(f, a, b, xtol, rtol, maxiter)

        monkeypatch.setattr(pricing, "_brentq", scipy_brentq)
        want = [_outcome(lambda: implied_vol(price, 1.0, k, rate, mat))
                for price, k, rate, mat in cases]
        assert len(solved) >= 4000
        assert ours == want

    def test_zero_denominator_bisects(self):
        # the inverse-quadratic step of this inversion divides by zero
        # (found by counting the branch); C bisects on the inf or NaN step,
        # and a port without the explicit bisection raises ZeroDivisionError
        def f(vol):
            return bs_call(1.0, 50.0, 0.05, vol, 1.0) - 1e-300

        want = self._scipy(f, pricing.VOL_FLOOR, pricing.VOL_CAP, self.XTOL, self.RTOL)
        assert implied_vol(1e-300, 1.0, 50.0, 0.05, 1.0).hex() == want.hex()

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x - 1.0, 1.0, 2.0),  # f(a) == 0
        (lambda x: x - 2.0, 1.0, 2.0),  # f(b) == 0
        (lambda x: x * x - 0.5, 2.0, 0.0),
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0),
        (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),  # f(a) f(b) underflows
        (lambda x: math.tanh(50.0 * (x - 0.7)), -1.0, 2.0),
        (lambda x: 1.0 if x > 0.5 else -1.0, 0.0, 1.0),
        (lambda x: x - 0.5, 1.0, 2.0),  # one sign
        (lambda x: 1e-200 * (x + 1.0), 0.0, 1.0),  # one sign, f(a) f(b) underflows
        (lambda x: math.nan, 0.0, 1.0),
        (lambda x: math.nan if 0.6 < x < 0.9 else x - 0.75, 0.0, 1.0),  # NaN mid-run
    ])
    @pytest.mark.parametrize("maxiter", [0, 3, 100])
    def test_small_functions_equal_scipy(self, f, a, b, maxiter):
        assert (_outcome(lambda: _brentq(f, a, b, self.XTOL, self.RTOL, maxiter))
                == _outcome(lambda: self._scipy(f, a, b, self.XTOL, self.RTOL, maxiter)))

    def test_wrapper_behaviour(self):
        assert _brentq(lambda x: x - 1.0, 1, 2.0, self.XTOL, self.RTOL).hex() == "0x1.0000000000000p+0"
        assert _brentq(lambda x: x - 2.0, 1.0, 2, self.XTOL, self.RTOL).hex() == "0x1.0000000000000p+1"
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan, 0.0, 1.0, self.XTOL, self.RTOL)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x + 1.0, 0.0, 1.0, self.XTOL, self.RTOL)
        with pytest.raises(RuntimeError, match="converge"):
            _brentq(lambda x: x * x - 0.5, 0.0, 1.0, self.XTOL, self.RTOL, maxiter=3)
        assert type(_brentq(lambda x: np.float64(x) - 0.25, 0, 1, self.XTOL, self.RTOL)) is float


def _hex(x) -> str:
    return "nan" if math.isnan(x) else float(x).hex()


def _around(a0: float, width: int = 4) -> list[float]:
    """a0, its `width` float neighbours on either side, and their negatives."""
    pts, lo, hi = [a0], a0, a0
    for _ in range(width):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        pts += [lo, hi]
    return pts + [-a for a in pts]


class TestNdtr:
    """_ndtr against scipy.special.ndtr, compared bit for bit."""

    def _assert_equals_scipy(self, points):
        from scipy.special import ndtr
        want = [_hex(w) for w in ndtr(np.asarray(points, dtype=float)).tolist()]
        got = []
        for a in points:
            y = pricing._ndtr(a)
            assert type(y) is float
            got.append(_hex(y))
        mismatched = [(a, g, w) for a, g, w in zip(points, got, want) if g != w]
        assert not mismatched, mismatched[:5]

    def test_sample_equals_scipy(self):
        rng = np.random.default_rng(20151018)
        points = np.concatenate([rng.normal(0.0, scale, 30000)
                                 for scale in (0.3, 1.0, 3.0, 10.0, 40.0)]
                                + [rng.uniform(-40.0, 40.0, 50000)])
        assert len(points) >= 200000
        self._assert_equals_scipy(points.tolist())

    # z = |a| / sqrt(2): ndtr takes erf below sqrt(1/2); erfc takes 1 - erf
    # below 1, the P/Q tables below 8, the R/S tables above, and returns 0
    # where -z*z < -MAXLOG
    @pytest.mark.parametrize("a0, below", [
        (1.0, lambda z: z < pricing._SQRT1_2),
        (1.0 / pricing._SQRT1_2, lambda z: z < 1.0),
        (8.0 / pricing._SQRT1_2, lambda z: z < 8.0),
        (math.sqrt(pricing._MAXLOG) / pricing._SQRT1_2,
         lambda z: -z * z >= -pricing._MAXLOG),
    ], ids=["erf-erfc", "one-minus-erf", "PQ-RS", "maxlog"])
    def test_branch_boundaries_equal_scipy(self, a0, below):
        points = _around(a0)
        sides = {below(abs(a * pricing._SQRT1_2)) for a in points}
        assert sides == {True, False}  # both sides of the boundary, both signs
        self._assert_equals_scipy(points)

    def test_special_values_equal_scipy(self):
        tiny = math.ulp(0.0)  # the smallest subnormal
        points = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny,
                  1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0), 11.31, -11.31,
                  37.5, -37.5, 38.6, -38.6]
        self._assert_equals_scipy(points)
        assert pricing._ndtr(math.inf) == 1.0 and pricing._ndtr(-math.inf) == 0.0
        assert math.isnan(pricing._ndtr(math.nan))

    def test_underflow(self):
        # Cephes erfc returns 0 past the MAXLOG cutoff and wherever
        # (z * p) / q is 0. From ndtr only the cutoff is reached: on its
        # near side ndtr is still a nonzero subnormal, on its far side 0.
        points = sorted(a for a in _around(math.sqrt(pricing._MAXLOG) / pricing._SQRT1_2)
                        if a < 0)
        values = [pricing._ndtr(a) for a in points]
        zero = [a for a, y in zip(points, values) if y == 0.0]
        nonzero = [y for y in values if y != 0.0]
        assert zero and nonzero
        assert 0.0 < min(nonzero) < sys.float_info.min
        assert max(zero) < min(a for a, y in zip(points, values) if y != 0.0)
        self._assert_equals_scipy(points)


class TestNonFiniteInputs:
    """A NaN or infinite argument is a ValueError that names it."""

    CALL = {"spot": 1.0, "strike": 1.1, "rate": 0.05, "vol": 0.2, "maturity": 1.0}
    INVERSE = {"price": 0.08, "spot": 1.0, "strike": 1.1, "rate": 0.05, "maturity": 1.0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(CALL))
    @pytest.mark.parametrize("fn", [bs_call, bs_vega])
    def test_pricing_names_the_argument(self, fn, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite") as exc:
            fn(**{**self.CALL, name: bad})
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(INVERSE))
    def test_implied_vol_names_the_argument(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite") as exc:
            implied_vol(**{**self.INVERSE, name: bad})
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["strike", "rate", "maturity"])
    def test_mc_call_price_names_the_argument(self, name, bad):
        # a NaN strike priced (nan, nan) and an infinite rate (0.0, 0.0)
        args = {"strike": 1.0, "rate": 0.05, "maturity": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite") as exc:
            mc_call_price(np.ones(4), **args)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    @pytest.mark.parametrize("name", ["spot", "strike", "vol", "maturity"])
    @pytest.mark.parametrize("fn", [bs_call, bs_vega])
    def test_non_positive_arguments_rejected(self, fn, name, bad):
        # bs_vega divided by zero or took the log of a negative number
        with pytest.raises(ValueError, match="spot, strike, vol and maturity must be positive") \
                as exc:
            fn(**{**self.CALL, name: bad})
        assert type(exc.value) is ValueError

    def test_finite_arguments_with_an_overflowing_sum_pass(self):
        # the checks add the arguments first; an overflow there is no error
        at_the_money = 0.2 * 1e308 / math.sqrt(2 * math.pi)
        assert bs_call(1e308, 1e308, 0.0, 0.2, 1.0) == pytest.approx(at_the_money, rel=1e-2)
        assert math.isfinite(bs_vega(1e308, 1e308, 0.0, 0.2, 1.0))


class TestImportPath:
    """What a fresh interpreter loads: this one has loaded scipy for other tests."""

    def _fresh(self, code: str, cwd: Path) -> str:
        src = Path(varexp.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return run.stdout.strip()

    def test_loads_neither_optimize_nor_stats(self, tmp_path):
        code = ("import sys, varexp, varexp.cli\n"
                "from varexp.config import load_config\n"
                "load_config('paper.json')\n"
                "print([m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules])")
        assert self._fresh(code, tmp_path) == "[]"

    def test_loads_no_scipy(self, tmp_path):
        code = ("import sys, varexp, varexp.cli\n"
                "from varexp.config import load_config\n"
                "load_config('paper.json')\n"
                "varexp.implied_vol(0.08, 1.0, 1.1, 0.05, 1.0)\n"
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert self._fresh(code, tmp_path) == "[]"

    def test_cold_start_loads_no_scipy_or_pool(self, tmp_path):
        # the imports behind a CLI run's setup time: a pool's modules load
        # only when a run has several workers
        code = ("import sys, varexp, varexp.cli\n"
                "print([m for m in sys.modules\n"
                "       if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')])")
        assert self._fresh(code, tmp_path) == "[]"

    def test_cli_loads_no_scipy(self, tmp_path):
        # the manifest records no scipy version, so a run never imports it
        code = ("import json, sys\n"
                "from varexp import cli\n"
                "assert cli.main(['bound-table', '--config', 'paper.json', '--out', 'out']) == 0\n"
                "print(sorted(json.load(open('out/run_manifest.json'))['versions']))\n"
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        versions, loaded = self._fresh(code, tmp_path).splitlines()[-2:]
        assert versions == "['numpy', 'python', 'simd']"
        assert loaded == "[]"

    def test_pooled_commands_draw_only_in_the_workers(self, tmp_path):
        # each command simulates once, simulate's sample paths included, so
        # with several chunks on two workers the CLI process draws nothing
        if not hasattr(os, "fork"):
            pytest.skip("no fork: every chunk runs in the CLI process")
        if self._fresh("import sys, numpy\nprint('numpy.random' in sys.modules)",
                       tmp_path) == "True":
            pytest.skip("this numpy loads numpy.random on import")
        code = ("import json, sys\n"
                "from varexp import cli, engine\n"
                "from varexp.config import bundled_paper_text\n"
                "engine._cpu_count = lambda: 2\n"
                "engine._CHUNK_BYTES = 1 << 16\n"
                "cfg = json.loads(bundled_paper_text())\n"
                "cfg['sim'].update(dt=0.01, n_base_paths=200)\n"
                "cfg['smile']['n_base_paths'] = 400\n"
                "with open('small.json', 'w') as f:\n"
                "    json.dump(cfg, f)\n"
                "for cmd in ('simulate', 'strong-error', 'smile'):\n"
                "    assert cli.main([cmd, '--config', 'small.json', '--out', 'out']) == 0, cmd\n"
                "    assert json.load(open('out/run_manifest.json'))['workers'] == 2, cmd\n"
                "print('numpy.random' in sys.modules)")
        assert self._fresh(code, tmp_path).splitlines()[-1] == "False"

    def test_dependencies_are_the_third_party_imports(self):
        # pyproject.toml declares exactly what the package imports
        tomllib = pytest.importorskip("tomllib")
        package = Path(varexp.__file__).resolve().parent
        pyproject = package.parents[1] / "pyproject.toml"
        if not pyproject.exists():
            pytest.skip("no pyproject.toml next to the package's source")
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group()
                    for dep in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
        imported = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.partition(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.partition(".")[0])
        assert declared == imported - set(sys.stdlib_module_names) == {"numpy"}


class TestPublicNames:
    # the package's entry points: adding or dropping one is an edit here
    ENTRY_POINTS = [
        "BlowUpError", "BoundInputs", "BoundTable", "CheckReport", "ErrorReport",
        "ExponentSpec", "GrowthConstants", "ImpliedVolError", "ModelSpec", "PathBatch",
        "SimConfig", "SmilePoint", "SmileRequest", "TerminalStats", "bound_table", "bs_call",
        "bs_vega", "cev", "check_admissibility", "coefficient", "coupled_smile", "error_bound",
        "estimate_constants", "eval_dphi", "eval_phi", "gbm", "implied_vol", "increment_matrix",
        "lambda_factor", "loglog_slope", "mc_call_price", "moment_bound", "refinement_errors",
        "run_with_increments", "simulate_batch", "simulate_coupled", "simulate_coupled_stats",
        "smile_from_terminal", "strong_error", "strong_error_from_stats", "sup_deviation",
        "sup_second_moment", "terminal_stats",
    ]

    def test_all_is_the_entry_points(self):
        # no submodule (analysis, bounds, engine, ...) is listed
        assert varexp.__all__ == self.ENTRY_POINTS
        assert not [n for n in varexp.__all__ if isinstance(getattr(varexp, n), type(varexp))]


class TestImpliedVol:
    def test_round_trip_reference(self):
        price = bs_call(1.0, 1.0, 0.05, 0.2, 1.0)
        assert implied_vol(price, 1.0, 1.0, 0.05, 1.0) == pytest.approx(0.2, abs=1e-8)

    def test_inverse_of_reference_price(self):
        assert implied_vol(0.104505835722, 1.0, 1.0, 0.05, 1.0) == pytest.approx(0.2000, abs=1e-6)

    @given(vol=st.floats(min_value=0.05, max_value=1.0),
           moneyness=st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, vol, moneyness):
        from hypothesis import assume
        from varexp import bs_vega
        spot, rate, mat = 1.0, 0.05, 1.0
        price = bs_call(spot, moneyness, rate, vol, mat)
        assume(price < spot)
        # deep in the money the time value drops below one ulp of the
        # price, which erases the vol information before the solver ever
        # sees it; the identity is only testable where the price float
        # resolves the vol to the target accuracy
        vega = bs_vega(spot, moneyness, rate, vol, mat)
        assume(np.spacing(price) <= 1e-8 * vega)
        assert implied_vol(price, spot, moneyness, rate, mat) == pytest.approx(vol, abs=1e-8)

    def test_round_trip_grid(self):
        # deterministic sweep of the representable part of the box
        from varexp import bs_vega
        spot, rate, mat = 1.0, 0.05, 1.0
        for vol in (0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
            for k in (0.5, 0.8, 1.0, 1.3, 2.0):
                price = bs_call(spot, k, rate, vol, mat)
                if price >= spot or np.spacing(price) > 1e-8 * bs_vega(spot, k, rate, vol, mat):
                    continue
                assert implied_vol(price, spot, k, rate, mat) == pytest.approx(vol, abs=1e-8)

    def test_saturated_price_reprices_exactly(self):
        # where the vol is unrecoverable the solver still returns a vol
        # that reproduces the input price bit-for-bit
        spot, rate, mat, k = 1.0, 0.05, 1.0, 0.5
        price = bs_call(spot, k, rate, 0.08, mat)  # time value below one ulp
        iv = implied_vol(price, spot, k, rate, mat)
        assert bs_call(spot, k, rate, max(iv, 1e-6), mat) == price

    def test_intrinsic_price_floors(self):
        intrinsic = 1.0 - 0.9 * math.exp(-0.05)
        assert implied_vol(intrinsic, 1.0, 0.9, 0.05, 1.0) == pytest.approx(1e-6)

    def test_above_the_vol_cap_names_the_cap(self):
        # 0.995 is below the spot, the no-arbitrage bound, but above the
        # price at VOL_CAP, which is no arbitrage bound
        with pytest.raises(ImpliedVolError, match=r"^price 0.995 is above 0.987581, the "
                                                  r"Black-Scholes price at the vol cap 5$") \
                as exc:
            implied_vol(0.995, 1.0, 1.0, 0.0, 1.0)
        assert (exc.value.price, exc.value.lower) == (0.995, 0.0)
        assert exc.value.upper == bs_call(1.0, 1.0, 0.0, pricing.VOL_CAP, 1.0)

    @pytest.mark.parametrize("field", ["spot", "strike", "maturity"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_inputs_rejected(self, field, value):
        args = {"price": 0.1, "spot": 1.0, "strike": 1.0, "rate": 0.05, "maturity": 1.0,
                field: value}
        with pytest.raises(ValueError, match="spot, strike and maturity must be positive"):
            implied_vol(**args)

    def test_out_of_bounds_price(self):
        with pytest.raises(ImpliedVolError) as exc:
            implied_vol(1.5, 1.0, 1.0, 0.05, 1.0)  # above spot
        assert exc.value.upper == 1.0
        with pytest.raises(ImpliedVolError):
            implied_vol(-0.01, 1.0, 1.0, 0.05, 1.0)


class TestMcCallPrice:
    def test_degenerate_sample(self):
        price, se = mc_call_price(np.full(100, 1.0), 0.5, 0.0, 1.0)
        assert price == pytest.approx(0.5, rel=1e-12)
        assert se == 0.0

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "one_pair"])
    def test_single_draw_has_zero_half_width(self, antithetic):
        # one path, or one antithetic pair: no spread to estimate
        term = np.array([1.2, 0.9]) if antithetic else np.array([1.2])
        price, hw = mc_call_price(term, 1.0, 0.05, 1.0, antithetic)
        want = float(np.maximum(term - 1.0, 0.0).mean()) * math.exp(-0.05)
        assert (price, hw) == (want, 0.0)

    def test_strike_above_sample(self):
        price, se = mc_call_price(np.array([1.0, 1.1]), 5.0, 0.05, 1.0)
        assert price == 0.0

    def test_antithetic_pairing_reduces_se(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=5000)
        term = np.exp(0.03 + 0.2 * np.concatenate([z, -z]))
        _, se_pairs = mc_call_price(term, 1.0, 0.05, 1.0, antithetic=True)
        _, se_plain = mc_call_price(term, 1.0, 0.05, 1.0, antithetic=False)
        assert se_pairs < se_plain

    def test_gbm_matches_black_scholes(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=10000, seed=203)
        b = simulate_batch(gbm_model, cfg)
        price, se = mc_call_price(b.terminal, 1.0, 0.05, 1.0, antithetic=True)
        assert abs(price - bs_call(1.0, 1.0, 0.05, 0.2, 1.0)) < 3 * max(se, 1e-12)

    def test_monotone_in_strike(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=500, seed=7)
        term = simulate_batch(gbm_model, cfg).terminal
        prices = [mc_call_price(term, k, 0.05, 1.0, True)[0]
                  for k in np.linspace(0.5, 2.0, 16)]
        assert all(a >= b for a, b in zip(prices, prices[1:]))


class TestOddAntitheticSample:
    """An antithetic sample is base paths, then their partners: pairing an
    odd length is refused by name, not broadcast or misread."""

    REQ = SmileRequest(strikes=(1.0,), rate=0.0, maturity=1.0, spot=1.0)
    CALLS = {
        "mc_call_price": lambda t: mc_call_price(t, 1.0, 0.0, 1.0, antithetic=True),
        "smile_from_terminal": lambda t: smile_from_terminal(
            t, TestOddAntitheticSample.REQ, antithetic=True),
        "coupled_smile": lambda t: coupled_smile(
            t, t, TestOddAntitheticSample.REQ, 0.2, antithetic=True),
    }

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected(self, name, n):
        with pytest.raises(ValueError, match=f"must be even, not {n}$"):
            self.CALLS[name](np.linspace(1.0, 2.0, n))

    @pytest.mark.parametrize("name", list(CALLS))
    def test_even_accepted(self, name):
        self.CALLS[name](np.linspace(1.0, 2.0, 4))

    def test_plain_odd_accepted(self):
        price, _ = mc_call_price(np.array([1.0, 2.0, 3.0]), 1.0, 0.0, 1.0, antithetic=False)
        assert price == 1.0


class TestSampleNotOneDimensional:
    """A terminal sample holds one value per path: a (2, 4) array is refused
    by its shape, not broadcast against its halves or counted as 8 paths."""

    REQ = TestOddAntitheticSample.REQ
    CALLS = {
        "mc_call_price": lambda t, anti: mc_call_price(t, 1.0, 0.0, 1.0, antithetic=anti),
        "smile_from_terminal": lambda t, anti: smile_from_terminal(
            t, TestSampleNotOneDimensional.REQ, anti),
        "coupled_smile": lambda t, anti: coupled_smile(
            t, t, TestSampleNotOneDimensional.REQ, 0.2, anti),
    }

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected(self, name, antithetic):
        with pytest.raises(ValueError, match=r"not of shape \(2, 4\)$"):
            self.CALLS[name](np.linspace(1.0, 2.0, 8).reshape(2, 4), antithetic)


class TestSmileRequest:
    @pytest.mark.parametrize("field", ["rate", "maturity", "spot"])
    def test_nan_rejected(self, field):
        fields = {"strikes": (0.9, 1.0), "rate": 0.05, "maturity": 1.0, "spot": 1.0,
                  field: math.nan}
        with pytest.raises(ValueError, match="must be finite"):
            SmileRequest(**fields)

    def test_validation(self):
        with pytest.raises(ValueError):
            SmileRequest(strikes=(1.0, 0.9), rate=0.05, maturity=1.0, spot=1.0)
        with pytest.raises(ValueError):
            SmileRequest(strikes=(0.9, 1.0), rate=0.05, maturity=0.0, spot=1.0)
        for strikes in (1.0, [[0.9, 1.0]]):  # not a 1-D sequence
            with pytest.raises(ValueError, match="strikes must be a sequence of numbers"):
                SmileRequest(strikes=strikes, rate=0.05, maturity=1.0, spot=1.0)

    @pytest.mark.parametrize("strikes", [[0.9, 1.0], np.array([0.9, 1.0]), (0.9, 1)],
                             ids=["list", "ndarray", "tuple_with_int"])
    def test_strikes_kept_as_a_tuple_of_floats(self, strikes):
        req = SmileRequest(strikes=strikes, rate=0.05, maturity=1.0, spot=1.0)
        assert type(req.strikes) is tuple and all(type(k) is float for k in req.strikes)
        twin = SmileRequest(strikes=(0.9, 1.0), rate=0.05, maturity=1.0, spot=1.0)
        assert req == twin and hash(req) == hash(twin)
        assert req == SmileRequest(strikes=strikes, rate=0.05, maturity=1.0, spot=1.0)

    def test_default_grid(self):
        req = SmileRequest.default_grid()
        assert len(req.strikes) == 21
        assert req.strikes[0] == pytest.approx(0.8)
        assert req.strikes[-1] == pytest.approx(1.2)


@pytest.fixture(scope="module")
def gbm_batch(gbm_model):
    cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=10000, seed=301)
    return simulate_batch(gbm_model, cfg)


class TestSmile:

    def test_gbm_flat(self, gbm_batch):
        req = SmileRequest.default_grid()
        pts = smile_from_terminal(gbm_batch.terminal, req, True)
        ivs = [p.iv for p in pts if p.iv is not None]
        assert len(ivs) == 21
        assert max(abs(v - 0.2) for v in ivs) < 0.01

    def test_near_bound_flagged(self):
        # a degenerate point-mass sample prices every strike at a bound
        term = np.full(64, 1.0)
        req = SmileRequest(strikes=(0.5,), rate=0.0, maturity=1.0, spot=1.0)
        pts = smile_from_terminal(term, req, antithetic=False)
        assert pts[0].iv is None or pts[0].flag in (FLAG_NEAR_BOUND, FLAG_VOL_FLOOR)

    def test_flags_do_not_abort(self, gbm_batch):
        # strikes far outside the sample get flags, the rest solve; a zero
        # price at zero intrinsic is the vol-floor boundary case
        req = SmileRequest(strikes=(0.01, 1.0, 50.0), rate=0.05, maturity=1.0, spot=1.0)
        pts = smile_from_terminal(gbm_batch.terminal, req, True)
        assert pts[1].iv is not None and not pts[1].flag
        assert pts[0].iv is None or pts[0].flag
        assert pts[2].flag
        assert pts[2].iv is None or pts[2].iv == pytest.approx(1e-6)


class TestPointFromPrice:
    REQ = SmileRequest(strikes=(1.0,), rate=0.0, maturity=1.0, spot=1.0)

    def test_price_above_the_cap_price_has_no_solution(self):
        # inside the no-arbitrage band by more than se, above the VOL_CAP price
        point = pricing._point_from_price(0.995, 0.001, self.REQ, 1.0)
        assert (point.iv, point.se_low, point.se_high, point.flag) == \
            (None, None, None, FLAG_NO_SOLUTION)

    def test_band_past_the_cap_price_drops_the_band(self):
        # 0.98 solves, 0.98 + se does not, so the point keeps no band
        point = pricing._point_from_price(0.98, 0.01, self.REQ, 1.0)
        assert point.iv == pytest.approx(4.6527, abs=1e-4)
        assert (point.se_low, point.se_high, point.flag) == (None, None, FLAG_OK)


class TestCoupledSmile:
    def test_reference_vs_itself_exactly_flat(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=200, seed=9)
        (term,) = coupled_terminals([gbm_model], cfg)
        req = SmileRequest.default_grid()
        pts = coupled_smile(term, term, req, reference_vol=0.2, antithetic=True)
        for p in pts:
            assert p.iv == pytest.approx(0.2, abs=1e-7)
            assert p.se_low == pytest.approx(p.se_high, abs=1e-7)

    def test_near_gbm_model_bands_shrink(self, gbm_model, p2_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=2000, seed=303)
        term_g, term_2 = coupled_terminals([gbm_model, p2_model], cfg)
        req = SmileRequest.default_grid()
        plain = smile_from_terminal(term_2, req, antithetic=True)
        coupled = coupled_smile(term_2, term_g, req, 0.2, antithetic=True)
        width_plain = np.median([p.se_high - p.se_low for p in plain if p.iv is not None])
        width_coupled = np.median([p.se_high - p.se_low for p in coupled if p.iv is not None])
        assert width_coupled < 0.05 * width_plain

    def test_shape_mismatch(self, gbm_model):
        req = SmileRequest.default_grid()
        with pytest.raises(ValueError):
            coupled_smile(np.ones(10), np.ones(12), req, 0.2, antithetic=False)

    # an empty sample raises up front, as smile_from_terminal does, not a
    # "Mean of empty slice" warning and a NaN price for implied_vol
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_empty_samples_rejected(self, antithetic):
        req = SmileRequest.default_grid()
        for smile in (lambda: coupled_smile(np.empty(0), np.empty(0), req, 0.2, antithetic),
                      lambda: smile_from_terminal(np.empty(0), req, antithetic)):
            with pytest.raises(ValueError, match="terminal sample is empty"):
                smile()
