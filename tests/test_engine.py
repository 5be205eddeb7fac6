import math
import tracemalloc

import numpy as np
import pytest

from varexp import (BlowUpError, SimConfig, cev, diffusion_range,
                    gen_increments, increment_matrix, gbm, run_with_increments,
                    simulate_batch, simulate_coupled, simulate_coupled_stats,
                    simulate_coupled_terminals, step_euler, step_log_milstein,
                    step_milstein)
from varexp.engine import LOG_EULER, LOG_MILSTEIN, EULER, MILSTEIN, SCHEMES

# 4M paths x 100k steps: far beyond every memory cap.
OVERSIZE_CFG = SimConfig(t_horizon=1.0, dt=1e-5, n_base_paths=2_000_000, seed=0)


class TestSimConfig:
    def test_step_count(self):
        cfg = SimConfig(t_horizon=1.0, dt=1e-3, n_base_paths=10, seed=0)
        assert cfg.n_steps == 1000
        assert cfg.n_paths == 20
        assert len(cfg.time_grid) == 1001

    def test_uneven_dt_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(t_horizon=1.0, dt=0.3, n_base_paths=10, seed=0)

    def test_no_antithetic_path_count(self):
        cfg = SimConfig(t_horizon=1.0, dt=0.5, n_base_paths=10, seed=0, antithetic=False)
        assert cfg.n_paths == 10

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            SimConfig(t_horizon=1.0, dt=0.5, n_base_paths=1, seed=0, scheme="heun")

    def test_round_trip(self):
        cfg = SimConfig(t_horizon=1.0, dt=1e-2, n_base_paths=5, seed=9,
                        antithetic=False, scheme=EULER, x0=2.0)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg


class TestIncrements:
    def test_deterministic(self):
        a = gen_increments(42, 7, 100, 1e-3)
        b = gen_increments(42, 7, 100, 1e-3)
        assert np.array_equal(a, b)

    def test_streams_differ_by_path(self):
        a = gen_increments(42, 0, 100, 1e-3)
        b = gen_increments(42, 1, 100, 1e-3)
        assert not np.array_equal(a, b)

    def test_pooled_moments(self):
        # 1000 paths x 1000 steps = 1e6 pooled draws
        dt = 1e-3
        pool = np.concatenate([gen_increments(7, i, 1000, dt) for i in range(1000)])
        assert abs(pool.mean()) < 3.0 * math.sqrt(dt / pool.size)
        assert abs(pool.var() - dt) < 0.01 * dt

    def test_matrix_layout(self):
        cfg = SimConfig(t_horizon=0.1, dt=0.01, n_base_paths=4, seed=3)
        dw = increment_matrix(cfg)
        assert dw.shape == (8, 10)
        for i in range(4):
            assert np.array_equal(dw[i], gen_increments(3, i, 10, 0.01))
            assert np.array_equal(dw[4 + i], -dw[i])


class TestSteps:
    def test_log_milstein_gbm_exact_step(self):
        m = gbm(0.05, 0.2)
        # drift-only step: exp((mu - sigma^2/2) dt)
        out = step_log_milstein(m, 1.0, 1e-3, 0.0)
        assert out == pytest.approx(math.exp(3e-5), rel=1e-12)

    def test_log_milstein_gbm_general_step(self):
        m = gbm(0.05, 0.2)
        out = step_log_milstein(m, 2.0, 1e-3, 0.04)
        expected = 2.0 * math.exp((0.05 - 0.02) * 1e-3 + 0.2 * 0.04)
        assert out == pytest.approx(expected, rel=1e-12)

    def test_log_step_odd_even_split(self, p1_model):
        # the b*dw term is the only odd-in-dw part of the log increment
        x, dt, dw = 1.3, 1e-3, 0.02
        up = math.log(step_log_milstein(p1_model, x, dt, dw))
        dn = math.log(step_log_milstein(p1_model, x, dt, -dw))
        even = 0.5 * (up + dn)
        odd = 0.5 * (up - dn)
        from varexp import eval_p
        b = 0.2 * x ** (eval_p(p1_model.exponent, x) - 1.0)
        assert odd == pytest.approx(b * dw, rel=1e-10)
        assert even == pytest.approx(math.log(x) + (p1_model.mu - 0.5 * b * b) * dt
                                     + 0.5 * b * _bprime(p1_model, x) * (dw * dw - dt),
                                     rel=1e-8)

    def test_euler_step(self):
        m = gbm(0.05, 0.2)
        assert step_euler(m, 1.0, 1e-3, 0.0) == pytest.approx(1.00005, rel=1e-12)

    def test_euler_can_breach_zero(self):
        m = gbm(0.05, 0.2)
        assert step_euler(m, 1.0, 1e-3, -10.0) < 0.0

    def test_degenerate_deterministic(self):
        m = gbm(0.0, 0.0)
        assert step_euler(m, 3.0, 0.01, 0.0) == pytest.approx(3.0)

    def test_milstein_correction_sign(self):
        m = cev(0.0, 0.5, 2.0)
        dt, dw = 0.01, 0.0
        # dw = 0 makes the correction -0.5 g g' dt < 0 vs plain Euler
        assert step_milstein(m, 1.0, dt, dw) < step_euler(m, 1.0, dt, dw)

    def test_blow_up_signal(self):
        m = cev(0.0, 50.0, 3.0)
        with pytest.raises(BlowUpError) as exc:
            step_log_milstein(m, 1e6, 1.0, np.array([0.0, 5.0]))
        assert len(exc.value.path_indices) >= 1


def _bprime(m, x):
    from varexp import eval_dp, eval_p
    p = eval_p(m.exponent, x)
    b = m.sigma * x ** (p - 1.0)
    return b * ((p - 1.0) + x * eval_dp(m.exponent, x) * math.log(x))


class TestSimulateBatch:
    def test_initial_column(self, gbm_model, small_cfg):
        b = simulate_batch(gbm_model, small_cfg)
        assert np.all(b.values[:, 0] == small_cfg.x0)
        assert b.values.shape == (small_cfg.n_paths, small_cfg.n_steps + 1)

    def test_deterministic(self, p1_model, small_cfg):
        a = simulate_batch(p1_model, small_cfg)
        b = simulate_batch(p1_model, small_cfg)
        assert np.array_equal(a.values, b.values)

    def test_sigma_zero_limit(self):
        # sigma -> 0: every path follows x0 * exp(mu t) under log schemes
        from varexp import ModelSpec, ExponentSpec
        m = ModelSpec(mu=0.05, sigma=0.0, exponent=ExponentSpec.constant(1.0))
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=3, seed=5)
        b = simulate_batch(m, cfg)
        expected = cfg.x0 * np.exp(m.mu * b.time_grid)
        assert np.allclose(b.values, expected[None, :], rtol=1e-10)

    def test_gbm_exactness(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=1e-3, n_base_paths=25, seed=11)
        b = simulate_batch(gbm_model, cfg)
        dw = increment_matrix(cfg)
        w = np.cumsum(dw, axis=1)
        t = b.time_grid[1:]
        exact = cfg.x0 * np.exp((gbm_model.mu - 0.5 * gbm_model.sigma**2) * t[None, :]
                                + gbm_model.sigma * w)
        assert np.max(np.abs(b.values[:, 1:] - exact) / exact) < 1e-12

    def test_positivity_log_schemes(self, p1_model, p2_model, small_cfg):
        for m in (p1_model, p2_model):
            for scheme in (LOG_EULER, LOG_MILSTEIN):
                cfg = SimConfig(**{**small_cfg.to_dict(), "scheme": scheme})
                b = simulate_batch(m, cfg)
                assert b.values.min() > 0.0
                assert b.breach_counts.sum() == 0

    def test_direct_scheme_floor_policy(self):
        # large sigma + coarse dt forces sub-floor excursions
        m = gbm(0.0, 3.0)
        cfg = SimConfig(t_horizon=1.0, dt=0.25, n_base_paths=200, seed=17, scheme=EULER)
        b = simulate_batch(m, cfg)
        assert b.values.min() >= 1e-12
        assert b.breach_counts.sum() > 0
        assert b.summary_dict()["positivity_breaches"] == b.breach_counts.sum()

    def test_terminal_mean_gbm(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=1e-2, n_base_paths=4000, seed=23)
        b = simulate_batch(gbm_model, cfg)
        term = b.terminal
        se = term.std(ddof=1) / math.sqrt(term.size)
        assert abs(term.mean() - math.exp(0.05)) < 3 * se + 1e-4

    def test_batch_blow_up_carries_paths(self):
        m = cev(0.0, 50.0, 3.0)
        cfg = SimConfig(t_horizon=1.0, dt=0.25, n_base_paths=20, seed=2)
        with pytest.raises(BlowUpError) as exc:
            simulate_batch(m, cfg, "explosive")
        assert exc.value.model_label == "explosive"
        assert len(exc.value.path_indices) >= 1

    def test_memory_cap(self, gbm_model):
        with pytest.raises(MemoryError):
            simulate_batch(gbm_model, OVERSIZE_CFG)

    @pytest.mark.parametrize("run", [
        lambda models: simulate_coupled_stats(models, OVERSIZE_CFG),
        lambda models: simulate_coupled_terminals(models, OVERSIZE_CFG),
    ], ids=["stats", "terminals"])
    def test_increment_cap_before_allocating(self, gbm_model, p1_model, run):
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="increment matrix needs .* GiB > cap 2 GiB"):
                run([gbm_model, p1_model])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("scheme", [LOG_MILSTEIN, EULER])
    def test_partition_invariance(self, p1_model, scheme, antithetic):
        # results do not depend on how paths are split across calls
        cfg = SimConfig(t_horizon=1.0, dt=0.25, n_base_paths=20, seed=17,
                        antithetic=antithetic, scheme=scheme)
        dw = increment_matrix(cfg)
        for m in (p1_model, gbm(0.0, 3.0)):  # the latter breaches the floor under euler
            full = run_with_increments(m, cfg, dw, "full")
            parts = [run_with_increments(m, cfg, dw[rows], "part")
                     for rows in (slice(0, 7), slice(7, None))]
            stacked = np.concatenate([b.values for b in parts])
            assert stacked.tobytes() == full.values.tobytes()
            assert np.array_equal(np.concatenate([b.breach_counts for b in parts]),
                                  full.breach_counts)


class TestCoupled:
    def test_identical_models_identical_paths(self, gbm_model, small_cfg):
        from varexp import ModelSpec, ExponentSpec
        clone = ModelSpec(mu=0.05, sigma=0.2, exponent=ExponentSpec.constant(1.0))
        a, b = simulate_coupled([gbm_model, clone], small_cfg)
        assert np.array_equal(a.values, b.values)

    def test_singleton_matches_batch(self, p1_model, small_cfg):
        solo = simulate_batch(p1_model, small_cfg, "p1")
        (coupled,) = simulate_coupled([p1_model], small_cfg, ["p1"])
        assert np.array_equal(solo.values, coupled.values)

    def test_stats_match_dense(self, gbm_model, p1_model, small_cfg):
        models = [gbm_model, p1_model]
        for scheme in (LOG_EULER, LOG_MILSTEIN):
            for x0 in (1.0, 1.7):
                cfg = SimConfig(**{**small_cfg.to_dict(), "scheme": scheme, "x0": x0})
                dense = simulate_coupled(models, cfg, ["gbm", "p1"])
                stats = simulate_coupled_stats(models, cfg, ["gbm", "p1"])
                for j, b in enumerate(dense):
                    ms = stats.models[j]
                    assert np.array_equal(ms.terminal, b.terminal)
                    assert np.array_equal(ms.path_sup, b.values.max(axis=1))
                    assert ms.min_value == b.values.min()
                    assert ms.max_value == b.values.max()
                    assert (ms.phi_min, ms.phi_max) == diffusion_range(b, models[j])
                sup_diff = np.max(np.abs(dense[1].values - dense[0].values), axis=1)
                assert np.array_equal(stats.sup_abs_diff[1], sup_diff)

    def test_terminals_match_dense(self, gbm_model, p1_model, small_cfg):
        for scheme in SCHEMES:
            cfg = SimConfig(**{**small_cfg.to_dict(), "scheme": scheme})
            dense = simulate_coupled([gbm_model, p1_model], cfg)
            terms = simulate_coupled_terminals([gbm_model, p1_model], cfg)
            for b, t in zip(dense, terms):
                assert np.array_equal(b.terminal, t), scheme

    def test_antithetic_variance_reduction(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=4000, seed=31)
        b = simulate_batch(gbm_model, cfg)
        term = b.terminal
        n = cfg.n_base_paths
        pair_mean = 0.5 * (term[:n] + term[n:])
        var_antithetic = pair_mean.var(ddof=1) / n
        var_plain = term.var(ddof=1) / term.size
        assert var_antithetic <= var_plain

    def test_csv_export(self, gbm_model, small_cfg, tmp_path):
        b = simulate_batch(gbm_model, small_cfg)
        out = tmp_path / "paths.csv"
        b.to_csv(out, max_paths=5)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,path_0,path_1,path_2,path_3,path_4"
        assert len(lines) == small_cfg.n_steps + 2


class TestStrongOrder:
    def test_refinement_slopes(self, p1_model):
        from varexp import loglog_slope, refinement_errors
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        errs_m = refinement_errors(p1_model, dts, ref_dt=1e-4, n_base_paths=32,
                                   seed=99, scheme=LOG_MILSTEIN)
        slope = loglog_slope(errs_m)
        assert 0.75 <= slope <= 1.25
