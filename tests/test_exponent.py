import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp import (ExponentSpec, check_admissibility, estimate_constants,
                    eval_dphi, eval_phi, sup_deviation)
from varexp.exponent import (_CONSTANTS, _KIND_PARAMS, _p_dp, _phi_dphi, eval_p, log_grid)

from conftest import all_kinds


class TestEvalP:
    def test_exp_decay_at_one(self, p1_spec):
        # 1 + 0.005*exp(-0.1), frozen from direct arithmetic
        assert eval_p(p1_spec, 1.0) == pytest.approx(1.00452418709, abs=1e-9)

    def test_constant_is_constant(self):
        spec = ExponentSpec.constant(1.0)
        for x in (1e-5, 0.3, 1.0, 47.0, 1e5):
            assert eval_p(spec, x) == 1.0

    def test_rational_decay(self, p2_spec):
        assert eval_p(p2_spec, 0.1) == pytest.approx(1.0 + 1e-3 / 1.1, rel=1e-12)

    def test_domain_error(self, p1_spec):
        with pytest.raises(ValueError):
            eval_p(p1_spec, 0.0)
        with pytest.raises(ValueError):
            eval_p(p1_spec, -1.0)

    @pytest.mark.parametrize("spec", all_kinds())
    def test_range_within_declared(self, spec):
        xs = log_grid(1e-6, 1e6, 2000)
        p = eval_p(spec, xs)
        assert np.all(p >= spec.p_minus - 1e-12)
        assert np.all(p <= spec.p_plus + 1e-12)


def _dp(spec, x):
    """p'(x) from the unchecked evaluator, on x first validated by eval_p."""
    xs = np.asarray(x, dtype=float)
    eval_p(spec, xs)
    return _p_dp(spec, xs)[1]


class TestEvalDp:
    def test_exp_decay_origin_limit(self, p1_spec):
        # p'(x) -> -a*b as x -> 0+
        assert _dp(p1_spec, 1e-12) == pytest.approx(-0.0005, rel=1e-9)

    def test_constant_zero(self):
        assert _dp(ExponentSpec.constant(3.0), 17.0) == 0.0

    def test_inverse_square_at_one(self, inv_square_spec):
        assert _dp(inv_square_spec, 1.0) == pytest.approx(-0.25, rel=1e-12)


def _closed_form_p_dp(spec, xs):
    """p and p' written out per kind, one expression each, as a reference
    for the operation order of the shared evaluator."""
    if spec.kind == "constant":
        return np.full_like(xs, spec.gamma), np.zeros_like(xs)
    if spec.kind == "exp_decay":
        return 1.0 + spec.a * np.exp(-spec.b * xs), -spec.a * spec.b * np.exp(-spec.b * xs)
    if spec.kind == "inverse_square":
        return 1.0 + spec.a / (1.0 + xs) ** 2, -2.0 * spec.a / (1.0 + xs) ** 3
    return 1.0 + spec.c / (1.0 + xs), -spec.c / (1.0 + xs) ** 2


class TestFusedCoefficients:
    @pytest.mark.parametrize("spec", all_kinds())
    def test_bitwise_equal_to_eval_p_and_eval_dp(self, spec):
        xs = log_grid(1e-8, 1e6, 4096)
        p, dp = _p_dp(spec, xs)
        assert p.tobytes() == np.asarray(eval_p(spec, xs)).tobytes()
        ref_p, ref_dp = _closed_form_p_dp(spec, xs)
        assert p.tobytes() == ref_p.tobytes()
        assert dp.tobytes() == ref_dp.tobytes()
        p_only, no_dp = _p_dp(spec, xs, deriv=False)
        assert p_only.tobytes() == p.tobytes() and no_dp is None

    @pytest.mark.parametrize("spec", all_kinds())
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan,
                                     np.array([1.0, -2.0]), np.array([0.5, math.inf])],
                             ids=["zero", "negative", "inf", "nan", "array_negative", "array_inf"])
    def test_wrappers_still_validate(self, spec, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            eval_p(spec, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            eval_phi(spec, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            eval_dphi(spec, bad)


class TestEvalPhi:
    @pytest.mark.parametrize("spec", all_kinds())
    def test_unvalidated_phi_equals_eval_phi(self, spec):
        # the oracle is the formula eval_phi had before _phi_dphi existed
        xs = log_grid(1e-8, 1e6, 4096)
        if spec.kind == "constant":
            want = np.power(xs, spec.gamma)
        else:
            want = np.exp(np.asarray(eval_p(spec, xs)) * np.log(xs))
        assert _phi_dphi(spec, xs, False)[0].tobytes() == want.tobytes()
        assert _phi_dphi(spec, xs, False)[1] is None
        assert np.asarray(eval_phi(spec, xs)).tobytes() == want.tobytes()
        assert eval_phi(spec, float(xs[2048])) == want[2048]
        with pytest.raises(ValueError, match="positive and finite"):
            eval_phi(spec, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("spec", all_kinds())
    def test_unvalidated_dphi_equals_eval_dphi(self, spec):
        # the oracle is the formula eval_dphi had before _phi_dphi existed
        xs = log_grid(1e-8, 1e6, 4096)
        if spec.kind == "constant":
            want = spec.gamma * np.power(xs, spec.gamma - 1.0)
        else:
            p, dp = np.asarray(eval_p(spec, xs)), _dp(spec, xs)
            lnx = np.log(xs)
            want = p * np.exp((p - 1.0) * lnx) + dp * np.exp(p * lnx) * lnx
        phi, dphi = _phi_dphi(spec, xs, True)
        assert phi.tobytes() == np.asarray(eval_phi(spec, xs)).tobytes()
        assert dphi.tobytes() == want.tobytes()
        assert np.asarray(eval_dphi(spec, xs)).tobytes() == want.tobytes()
        assert eval_dphi(spec, float(xs[2048])) == want[2048]
        with pytest.raises(ValueError, match="positive and finite"):
            eval_dphi(spec, np.array([1.0, np.nan]))

    def test_identity_exponent_exact(self):
        spec = ExponentSpec.constant(1.0)
        for x in (1e-6, 0.37, 2.5, 1e4):
            assert eval_phi(spec, x) == x
            assert eval_dphi(spec, x) == 1.0

    def test_unit_state(self, p1_spec):
        # 1^p == 1 for any p
        assert eval_phi(p1_spec, 1.0) == 1.0

    def test_rational_decay_value(self, p2_spec):
        # exp((1 + 1e-3/1.5) * ln 0.5), frozen from direct arithmetic
        assert eval_phi(p2_spec, 0.5) == pytest.approx(0.499769004315, abs=1e-9)

    def test_square_exponent(self):
        spec = ExponentSpec.constant(2.0)
        assert eval_phi(spec, 2.5) == pytest.approx(6.25, rel=1e-15)
        assert eval_dphi(spec, 3.0) == pytest.approx(6.0, rel=1e-15)


class TestEvalDphi:
    def test_exp_decay_at_one(self, p1_spec):
        # at x=1 the log term vanishes, so phi'(1) = p(1)
        assert eval_dphi(p1_spec, 1.0) == pytest.approx(1.00452418709, abs=1e-9)

    @pytest.mark.parametrize("spec", all_kinds())
    def test_matches_central_difference(self, spec):
        rng = np.random.default_rng(2024)
        xs = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), size=1000))
        h = 1e-6 * xs
        fd = (np.asarray(eval_phi(spec, xs + h)) - np.asarray(eval_phi(spec, xs - h))) / (2 * h)
        dphi = np.asarray(eval_dphi(spec, xs))
        assert np.all(np.abs(fd - dphi) <= 1e-6 * (1.0 + np.abs(dphi)))

    @given(x=st.floats(min_value=1e-4, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_central_difference_property(self, x):
        spec = ExponentSpec.exp_decay(0.005, 0.1)
        h = 1e-6 * x
        fd = (eval_phi(spec, x + h) - eval_phi(spec, x - h)) / (2 * h)
        d = eval_dphi(spec, x)
        assert abs(fd - d) <= 1e-6 * (1.0 + abs(d))


class TestSupDeviation:
    def test_exp_decay_closed_form(self, p1_spec):
        assert sup_deviation(p1_spec, 0.1, 1.1) == pytest.approx(0.005 * math.exp(-0.01), rel=1e-12)

    def test_rational_closed_form(self, p2_spec):
        assert sup_deviation(p2_spec, 0.1, 1.1) == pytest.approx(1e-3 / 1.1, rel=1e-12)

    def test_gbm_zero(self):
        assert sup_deviation(ExponentSpec.constant(1.0), 0.2, 3.0) == 0.0

    def test_monotone_in_lambda(self, p1_spec, p2_spec, inv_square_spec):
        lams = [0.01, 0.05, 0.1, 0.5, 1.0, 2.0]
        for spec in (p1_spec, p2_spec, inv_square_spec):
            devs = [sup_deviation(spec, lam, 10.0) for lam in lams]
            assert all(a >= b for a, b in zip(devs, devs[1:]))

    def test_domain(self, p1_spec):
        with pytest.raises(ValueError):
            sup_deviation(p1_spec, 0.0, 1.0)
        with pytest.raises(ValueError):
            sup_deviation(p1_spec, 2.0, 1.0)

    def test_matches_grid_maximum(self, p1_spec, p2_spec, inv_square_spec):
        # independent oracle: dense grid evaluation of |p - 1| on [lam, r]
        for spec in (p1_spec, p2_spec, inv_square_spec):
            lam, r = 0.07, 3.4
            xs = np.linspace(lam, r, 20001)
            grid_max = np.abs(np.asarray(eval_p(spec, xs)) - 1.0).max()
            assert sup_deviation(spec, lam, r) == pytest.approx(grid_max, rel=1e-9)


class TestAdmissibility:
    def test_paper_exponents_pass(self, p1_spec, p2_spec):
        for spec in (p1_spec, p2_spec):
            report = check_admissibility(spec, cutoff=1e4)
            assert report.passed, report.to_dict()

    def test_constant_two_fails_limit(self):
        report = check_admissibility(ExponentSpec.constant(2.0), cutoff=1e4)
        assert not report.limit_ok.passed
        assert report.range_ok.passed
        assert not report.passed

    def test_inverse_square_default_constants(self, inv_square_spec):
        # delta = 1, m0 = c0 = 2a, alpha = 2
        assert inv_square_spec.m0 == pytest.approx(2.0)
        assert inv_square_spec.c0 == pytest.approx(2.0)
        assert inv_square_spec.alpha == 2.0
        report = check_admissibility(inv_square_spec, cutoff=1e4)
        assert report.passed, report.to_dict()

    def test_violated_derivative_bound_has_witness(self):
        spec = ExponentSpec(kind="exp_decay", a=0.005, b=0.1, p_minus=1.0,
                            p_plus=1.005, delta=1.0, m0=1e-9, c0=0.7, alpha=2.0)
        report = check_admissibility(spec, cutoff=1e4)
        assert not report.derivative_ok.passed
        assert report.derivative_ok.witness_x is not None

    def test_structural_alpha_violation(self):
        spec = ExponentSpec(kind="inverse_square", a=1.0, p_minus=1.0, p_plus=2.0,
                            delta=1.0, m0=2.0, c0=2.0, alpha=0.5)
        report = check_admissibility(spec)
        assert not report.derivative_ok.passed

    def test_report_serializes(self, p1_spec):
        d = check_admissibility(p1_spec).to_dict()
        assert d["passed"] is True
        assert set(d) >= {"range_condition", "limit_condition", "derivative_condition", "grid"}

    def test_preconditions(self, p1_spec):
        with pytest.raises(ValueError):
            check_admissibility(p1_spec, cutoff=0.5)  # below delta
        with pytest.raises(ValueError):
            check_admissibility(p1_spec, grid_points=10)


class TestEstimateConstants:
    def test_identity_exponent(self):
        gc = estimate_constants(ExponentSpec.constant(1.0))
        # raw max |phi'| is exactly 1; raw growth ratio x/(1+x) < 1
        assert gc.lipschitz_l == pytest.approx(1.05, rel=1e-12)
        assert gc.growth_k == pytest.approx(1.05, rel=1e-5)

    def test_near_identity_k(self, p1_spec):
        gc = estimate_constants(p1_spec)
        assert np.isfinite(gc.lipschitz_l) and np.isfinite(gc.growth_k)
        assert gc.growth_k / 1.05 <= 1.01  # raw K stays near 1

    def test_finite_for_all(self, p1_spec, p2_spec, inv_square_spec):
        for spec in (p1_spec, p2_spec, inv_square_spec):
            gc = estimate_constants(spec)
            assert np.isfinite(gc.lipschitz_l) and gc.lipschitz_l > 0
            assert np.isfinite(gc.growth_k) and gc.growth_k > 0

    def test_grid_points_precondition(self, p1_spec):
        with pytest.raises(ValueError):
            estimate_constants(p1_spec, grid_points=100)

    @pytest.mark.parametrize("spec_idx", [0, 1, 2])
    def test_lipschitz_and_growth_inequalities(self, spec_idx, p1_spec, p2_spec, inv_square_spec):
        # adjacent-pair quotients bound all pairwise quotients (any chord
        # slope is a convex combination of adjacent ones); the full
        # pairwise sweep runs in the acceptance suite
        spec = (p1_spec, p2_spec, inv_square_spec)[spec_idx]
        gc = estimate_constants(spec, grid_points=4000)
        xs = log_grid(gc.grid_lo, gc.grid_hi, 4000)
        phi = np.asarray(eval_phi(spec, xs))
        quot = np.abs(np.diff(phi)) / np.diff(xs)
        assert np.all(quot <= gc.lipschitz_l)
        assert np.all(phi <= gc.growth_k * (1.0 + xs))


class TestSerialization:
    @pytest.mark.parametrize("spec", all_kinds())
    def test_round_trip(self, spec):
        assert ExponentSpec.from_dict(spec.to_dict()) == spec

    def test_json_schema_keys(self, p1_spec):
        d = p1_spec.to_dict()
        assert d["kind"] == "exp_decay"
        assert set(d) == {"kind", "a", "b", "p_minus", "p_plus", "delta", "m0", "c0", "alpha"}

    def test_from_dict_defaults_constants(self):
        spec = ExponentSpec.from_dict({"kind": "rational_decay", "c": 1e-3})
        assert spec.alpha == 1.0 and spec.m0 == 1e-3

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExponentSpec.from_dict({"kind": "sigmoid", "a": 1.0})


class TestValidation:
    def test_needs_positive_params(self):
        with pytest.raises(ValueError):
            ExponentSpec.exp_decay(-0.1, 0.1)
        with pytest.raises(ValueError):
            ExponentSpec.rational_decay(0.0)
        with pytest.raises(ValueError):  # checked before c0 divides by b
            ExponentSpec.exp_decay(0.5, 0.0)

    @pytest.mark.parametrize("a,b", [(0.005, 0.1), (0.5, 1.0), (0.5, 3.0), (0.2, 4.0)])
    def test_exp_decay_constants_at_delta_one(self, a, b):
        # the formulas with a free delta, evaluated at delta = 1, give the same floats
        delta, x_star = 1.0, 3.0 / b
        c0 = (a * b * x_star**3 * math.exp(-3.0) if x_star > delta
              else a * b * delta**3 * math.exp(-b * delta))
        spec = ExponentSpec.exp_decay(a, b)
        assert (spec.delta, spec.m0, spec.c0) == (delta, a * b, c0)

    VALID = {spec.kind: spec for spec in all_kinds()}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind,name", [(kind, name) for kind in VALID
                                           for name in _KIND_PARAMS[kind] + _CONSTANTS])
    def test_non_finite_rejected(self, kind, name, value):
        # a NaN fails every comparison, so it once passed the checks and
        # made check_admissibility pass vacuously
        fields = {**self.VALID[kind].to_dict(), name: value}
        with pytest.raises(ValueError, match=f"needs a finite {name}"):
            ExponentSpec(**fields)

    def test_gamma_below_one_constructible(self):
        # CEV with gamma < 1 is allowed by the type (comparison use only)
        spec = ExponentSpec.constant(0.5)
        assert not check_admissibility(spec).range_ok.passed
