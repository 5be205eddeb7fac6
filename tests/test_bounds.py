import math

import numpy as np
import pytest

from varexp import (BoundInputs, ExponentSpec, ModelSpec, SimConfig,
                    bound_table, coefficient, error_bound, gbm, lambda_factor,
                    loglog_slope, moment_bound, simulate_coupled_stats,
                    strong_error_from_stats, sup_deviation)

# The ten published (lambda, R) localization cases and the bound values
# they produce for the two reference exponents; frozen from independent
# 30-digit arithmetic on the closed forms.
CASES = [(0.1, 1.1), (0.01, 1.2), (0.001, 1.4), (0.0001, 1.5), (0.00001, 1.7),
         (0.0001, 1.5), (0.001, 1.4), (0.01, 1.3), (0.1, 1.2), (0.2, 1.1)]
BOUNDS_P1 = [0.002922, 0.002335, 0.004228, 0.005390, 0.007986,
             0.005390, 0.004228, 0.003416, 0.003920, 0.003687]
BOUNDS_P2 = [0.000538, 0.000463, 0.000844, 0.001077, 0.001596,
             0.001077, 0.000844, 0.000678, 0.000721, 0.000628]

MU, SIGMA, T = 0.05, 0.2, 1.0


def _sig4(x: float) -> float:
    """Round to 4 significant figures."""
    if x == 0:
        return 0.0
    from math import floor, log10
    d = 3 - floor(log10(abs(x)))
    return round(x, d)


class TestLambdaFactor:
    def test_case_one(self):
        # frozen from 30-digit arithmetic
        assert lambda_factor(0.1, 1.1, 1.005) == pytest.approx(0.6676136409, rel=1e-9)

    def test_case_nine(self):
        assert lambda_factor(0.1, 1.2, 1.005) == pytest.approx(0.8956525454, rel=1e-9)

    def test_vanishes_at_unit_interval(self):
        assert lambda_factor(1 - 1e-12, 1 + 1e-12, 1.005) == pytest.approx(0.0, abs=1e-11)

    def test_lambda_term_shape(self):
        # the lambda term |ln l|(l + l^p+) rises on (0, 1/e) and vanishes
        # at both ends, so the factor is non-monotone in lambda: published
        # case 10 (lambda=0.2) exceeds case 1 (0.1) exceeds case 2's 0.01
        assert lambda_factor(0.2, 1.1, 1.005) > lambda_factor(0.1, 1.1, 1.005)
        assert lambda_factor(0.1, 1.1, 1.005) > lambda_factor(0.01, 1.1, 1.005)
        assert lambda_factor(1e-9, 1.1, 1.005) < lambda_factor(0.01, 1.1, 1.005)

    def test_domain(self):
        for lam, r in ((1.0, 1.1), (0.0, 1.1), (0.5, 1.0), (-0.1, 2.0)):
            with pytest.raises(ValueError):
                lambda_factor(lam, r, 1.005)


class TestCoefficient:
    def test_reference_parameters(self):
        # 0.88407 +- 5e-5 at the published parameter set
        assert coefficient(0.05, 0.2, 1.0) == pytest.approx(0.88407, abs=5e-5)

    def test_zero_drift(self):
        # sqrt(0.48 * e^0.48), frozen from 30-digit arithmetic
        assert coefficient(0.0, 0.2, 1.0) == pytest.approx(0.880747246974, rel=1e-10)

    def test_vanishing_sigma(self):
        assert coefficient(0.05, 1e-12, 1.0) == pytest.approx(0.0, abs=1e-10)


class TestErrorBound:
    def _inputs(self, spec, lam, r):
        return BoundInputs(mu=MU, sigma=SIGMA, t_horizon=T, lam=lam, r=r,
                           p_plus=spec.p_plus, sup_dev=sup_deviation(spec, lam, r))

    def test_case_one_p1(self, p1_spec):
        b = error_bound(self._inputs(p1_spec, 0.1, 1.1))
        assert _sig4(b) == pytest.approx(0.002922, abs=1e-6)

    def test_case_five_p2(self, p2_spec):
        b = error_bound(self._inputs(p2_spec, 0.00001, 1.7))
        assert _sig4(b) == pytest.approx(0.001596, abs=1e-6)

    def test_zero_deviation(self):
        b = BoundInputs(mu=MU, sigma=SIGMA, t_horizon=T, lam=0.1, r=1.1,
                        p_plus=1.0, sup_dev=0.0)
        assert error_bound(b) == 0.0

    def test_monotone_in_sup_dev(self):
        lo = BoundInputs(mu=MU, sigma=SIGMA, t_horizon=T, lam=0.1, r=1.1,
                         p_plus=1.005, sup_dev=0.001)
        hi = BoundInputs(mu=MU, sigma=SIGMA, t_horizon=T, lam=0.1, r=1.1,
                         p_plus=1.005, sup_dev=0.005)
        assert error_bound(hi) > error_bound(lo)

    def test_monotone_in_r(self, p1_spec):
        assert error_bound(self._inputs(p1_spec, 0.1, 1.5)) > \
            error_bound(self._inputs(p1_spec, 0.1, 1.1))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(mu=MU, sigma=SIGMA, t_horizon=T, lam=1.2, r=1.5,
                        p_plus=1.005, sup_dev=0.001)
        with pytest.raises(ValueError):
            BoundInputs(mu=MU, sigma=SIGMA, t_horizon=T, lam=0.1, r=1.1,
                        p_plus=1.005, sup_dev=0.01)  # exceeds p_plus - 1


class TestNonFiniteInputs:
    """A NaN or infinite input is a ValueError that names it, not a NaN or
    infinite bound."""

    FIELDS = dict(mu=MU, sigma=SIGMA, t_horizon=T, lam=0.1, r=1.1, p_plus=1.005,
                  sup_dev=0.001, growth_k=1.0, ex0_sq=1.0)
    ARGS = [(coefficient, dict(mu=MU, sigma=SIGMA, t=T)),
            (lambda_factor, dict(lam=0.5, r=1.5, p_plus=1.005))]
    CASES = [(fn, args, name) for fn, args in ARGS for name in args]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_bound_inputs_name_the_field(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            BoundInputs(**{**self.FIELDS, name: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn, args, name", CASES,
                             ids=[f"{fn.__name__}-{name}" for fn, _, name in CASES])
    def test_closed_forms_name_the_argument(self, fn, args, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fn(**{**args, name: bad})

    def test_bound_table_names_mu(self):
        with pytest.raises(ValueError, match="^mu must be finite"):
            bound_table([ExponentSpec.exp_decay(0.005, 0.1)], [(0.1, 1.1)],
                        mu=math.nan, sigma=0.2, t_horizon=1.0)


class TestOverflow:
    """A finite input whose bound is too large for a float raises an
    OverflowError naming the bound and the inputs that make it so large."""

    @pytest.mark.parametrize("call, message", [
        (lambda: moment_bound(BoundInputs(0.05, 0.2, 1.0, 0.1, 1.1, 1.005, 0.001,
                                          growth_k=1e200)),
         "moment bound overflows a float at mu=0.05, sigma=0.2, t_horizon=1.0, growth_k=1e+200"),
        (lambda: coefficient(30.0, 0.2, 1.0),
         "error bound coefficient overflows a float at mu=30.0, sigma=0.2, t=1.0"),
        (lambda: coefficient(1e200, 0.2, 1.0),
         "error bound coefficient overflows a float at mu=1e+200, sigma=0.2, t=1.0"),
        (lambda: lambda_factor(0.5, 1e200, 2.0),
         "lambda factor overflows a float at lam=0.5, r=1e+200, p_plus=2.0"),
        (lambda: error_bound(BoundInputs(15.0, 0.2, 1.0, 0.1, 1e200, 1.005, 0.001)),
         "error bound overflows a float at mu=15.0, sigma=0.2, t_horizon=1.0, r=1e+200, "
         "p_plus=1.005"),
    ], ids=["moment_bound-growth_k", "coefficient-mu_30", "coefficient-mu_1e200",
            "lambda_factor-r_1e200", "error_bound-product"])
    def test_names_the_bound_and_its_inputs(self, call, message):
        with pytest.raises(OverflowError) as exc:
            call()
        assert str(exc.value) == message


class TestMomentBound:
    def test_reference_point(self):
        # 4 * e^{0.9675}, frozen from 30-digit arithmetic
        b = BoundInputs(mu=0.05, sigma=0.2, t_horizon=1.0, lam=0.5, r=1.5,
                        p_plus=1.005, sup_dev=0.0, growth_k=1.0, ex0_sq=1.0)
        assert moment_bound(b) == pytest.approx(10.52543134, rel=1e-8)

    def test_degenerate_floor(self):
        b = BoundInputs(mu=1e-12, sigma=1e-12, t_horizon=1.0, lam=0.5, r=1.5,
                        p_plus=1.0, sup_dev=0.0, growth_k=1e-6, ex0_sq=0.0)
        assert moment_bound(b) == pytest.approx(1.0, rel=1e-9)

    def test_growth_k_scaling(self):
        base = dict(mu=0.05, sigma=0.2, t_horizon=1.0, lam=0.5, r=1.5,
                    p_plus=1.005, sup_dev=0.0, ex0_sq=1.0)
        b1 = moment_bound(BoundInputs(growth_k=1.0, **base))
        b2 = moment_bound(BoundInputs(growth_k=2.0, **base))
        # doubling K multiplies the bound by exp(24 sigma^2 T * 3 K^2)
        assert b2 / b1 == pytest.approx(math.exp(24 * 0.04 * 3.0), rel=1e-9)

    def test_floor_invariant(self):
        b = BoundInputs(mu=0.3, sigma=0.7, t_horizon=2.0, lam=0.5, r=1.5,
                        p_plus=1.1, sup_dev=0.05, growth_k=1.3, ex0_sq=2.0)
        assert moment_bound(b) >= 1.0 + 3.0 * b.ex0_sq


class TestPreconditions:
    """Inputs outside each bound's domain raise ValueError naming the rule."""

    def test_p_plus_below_one(self):
        with pytest.raises(ValueError, match="p_plus must be >= 1"):
            lambda_factor(0.5, 2.0, 0.9)
        with pytest.raises(ValueError, match="p_plus must be >= 1"):
            BoundInputs(MU, SIGMA, T, 0.5, 2.0, p_plus=0.9, sup_dev=0.0)

    @pytest.mark.parametrize("sigma,t", [(-0.1, T), (SIGMA, 0.0)], ids=["sigma", "t"])
    def test_coefficient_domain(self, sigma, t):
        with pytest.raises(ValueError, match="need sigma >= 0 and t > 0"):
            coefficient(MU, sigma, t)

    @pytest.mark.parametrize("field,value,rule", [
        ("sigma", 0.0, "sigma and t_horizon must be positive"),
        ("t_horizon", 0.0, "sigma and t_horizon must be positive"),
        ("growth_k", 0.0, "growth_k must be > 0 and ex0_sq >= 0"),
        ("ex0_sq", -1.0, "growth_k must be > 0 and ex0_sq >= 0"),
    ], ids=["sigma", "t_horizon", "growth_k", "ex0_sq"])
    def test_bound_inputs_domain(self, field, value, rule):
        fields = dict(mu=MU, sigma=SIGMA, t_horizon=T, lam=0.5, r=2.0, p_plus=1.1,
                      sup_dev=0.1, growth_k=1.0, ex0_sq=1.0)
        with pytest.raises(ValueError, match=rule):
            BoundInputs(**{**fields, field: value})


class TestBoundTable:
    def test_published_cases(self, p1_spec, p2_spec):
        table = bound_table([p1_spec, p2_spec], CASES, mu=MU, sigma=SIGMA,
                            t_horizon=T, labels=["p1", "p2"])
        for row, b1, b2 in zip(table.rows, BOUNDS_P1, BOUNDS_P2):
            assert _sig4(row["bounds"][0]) == pytest.approx(b1, abs=1.05e-6)
            assert _sig4(row["bounds"][1]) == pytest.approx(b2, abs=1.05e-6)

    def test_duplicated_cases_identical(self, p1_spec, p2_spec):
        table = bound_table([p1_spec, p2_spec], CASES, mu=MU, sigma=SIGMA, t_horizon=T)
        rows = table.rows
        assert rows[3]["bounds"] == rows[5]["bounds"]  # cases 4 and 6
        assert rows[2]["bounds"] == rows[6]["bounds"]  # cases 3 and 7

    @pytest.mark.parametrize("labels", [["p1"], ["p1", "p2", "p3"]], ids=["short", "long"])
    def test_label_count_must_match(self, p1_spec, p2_spec, labels):
        with pytest.raises(ValueError, match="labels must match exponents"):
            bound_table([p1_spec, p2_spec], CASES[:1], mu=MU, sigma=SIGMA, t_horizon=T,
                        labels=labels)

    def test_identity_column_zero(self):
        table = bound_table([ExponentSpec.constant(1.0)], CASES[:3],
                            mu=MU, sigma=SIGMA, t_horizon=T, labels=["gbm"])
        assert all(row["bounds"][0] == 0.0 for row in table.rows)

    def test_csv_layout(self, tmp_path):
        # the CSV is written by the CLI; the paper's models with this module's cases
        import json

        from varexp.cli import main
        from varexp.config import bundled_paper_text
        cfg = json.loads(bundled_paper_text())
        cfg["bound_cases"] = [list(c) for c in CASES]
        cfg["sim"]["t_horizon"] = T
        cfg["output"] = {"dir": str(tmp_path / "out"), "formats": ["csv"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound-table", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "bound_table.csv").read_text().splitlines()
        assert lines[0] == "case,lambda,R,bound_p1,bound_p2"
        assert len(lines) == 11
        assert lines[1] == "1,0.1,1.1,0.002922,0.000538"


class TestBoundStructure:
    """The bound is sup|p - 1| times a constant: the coupled model-to-GBM
    strong error must scale linearly with the deviation, and stay below the
    bound, as the deviation shrinks over two decades."""

    KINDS = {"exp_decay": lambda a: ExponentSpec.exp_decay(a, 0.1),
             "rational_decay": ExponentSpec.rational_decay,
             "inverse_square": ExponentSpec.inverse_square}

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_error_first_order_in_deviation(self, kind):
        exps = [self.KINDS[kind](float(a)) for a in np.geomspace(1e-3, 1e-1, 5)]
        models = [gbm(MU, SIGMA)] + [ModelSpec(MU, SIGMA, e) for e in exps]
        cfg = SimConfig(t_horizon=T, dt=1e-3, n_base_paths=500, seed=42)
        stats = simulate_coupled_stats(models, cfg)
        points = []
        for i, spec in enumerate(exps, start=1):
            rep = strong_error_from_stats(stats, i)
            lam, r = min(rep.lambda_obs, 1.0 - 1e-9), max(rep.r_obs, 1.0 + 1e-9)
            dev = sup_deviation(spec, lam, r)
            bound = error_bound(BoundInputs(mu=MU, sigma=SIGMA, t_horizon=T, lam=lam, r=r,
                                            p_plus=spec.p_plus, sup_dev=dev))
            assert 0.0 < rep.strong_error < bound
            points.append((dev, rep.strong_error))
        assert 0.95 <= loglog_slope(points) <= 1.05
