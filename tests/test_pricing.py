import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp import (ImpliedVolError, SimConfig, SmileRequest, bs_call,
                    coupled_smile, implied_vol, mc_call_price, simulate_batch,
                    simulate_coupled_terminals, smile_from_terminal)
from varexp.pricing import FLAG_NEAR_BOUND, FLAG_VOL_FLOOR


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


class TestSmileRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            SmileRequest(strikes=(1.0, 0.9), rate=0.05, maturity=1.0, spot=1.0)
        with pytest.raises(ValueError):
            SmileRequest(strikes=(0.9, 1.0), rate=0.05, maturity=0.0, spot=1.0)

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


class TestCoupledSmile:
    def test_reference_vs_itself_exactly_flat(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=200, seed=9)
        (term,) = simulate_coupled_terminals([gbm_model], cfg)
        req = SmileRequest.default_grid()
        pts = coupled_smile(term, term, req, reference_vol=0.2, antithetic=True)
        for p in pts:
            assert p.iv == pytest.approx(0.2, abs=1e-7)
            assert p.se_low == pytest.approx(p.se_high, abs=1e-7)

    def test_near_gbm_model_bands_shrink(self, gbm_model, p2_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=2000, seed=303)
        term_g, term_2 = simulate_coupled_terminals([gbm_model, p2_model], cfg)
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
