import itertools
import math
import pathlib
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from varexp import (BlowUpError, SimConfig, cev, increment_matrix, gbm,
                    run_with_increments, simulate_batch, simulate_coupled,
                    simulate_coupled_stats)
from varexp import ExponentSpec, ModelSpec, engine, eval_dphi, eval_phi
from varexp.engine import (LOG_EULER, LOG_MILSTEIN, EULER, MILSTEIN, POSITIVITY_FLOOR,
                           SCHEMES)
from varexp.exponent import _p_dp, _phi_range, eval_p
from conftest import all_kinds, coupled_terminals, one_step

# 4M paths x 100k steps: far beyond every memory cap.
OVERSIZE_CFG = SimConfig(t_horizon=1.0, dt=1e-5, n_base_paths=2_000_000, seed=0)

# Every set of reductions simulate_coupled_stats can be asked for.
REDUCTION_SETS = [frozenset(c) for r in range(len(engine.STATS) + 1)
                  for c in itertools.combinations(sorted(engine.STATS), r)]


def _result_bytes(result, reductions=engine.STATS) -> list:
    """Every float and count of a simulate_coupled_stats result, or of a
    list of terminals (coupled_terminals), as bytes: for stats, the ones
    that are always kept and those of `reductions`."""
    if isinstance(result, list):
        return [t.tobytes() for t in result]
    out = [result.sup_abs_diff.tobytes()] if engine.SUP_DIFFS in reductions else []
    for ms in result.models:
        out += [ms.label, ms.terminal.tobytes(), ms.positivity_breaches]
        if engine.EXTREMA in reductions:
            out.append(np.array([ms.min_value, ms.max_value]).tobytes())
    return out


def _force_plan(monkeypatch, chunk: int, workers: int) -> None:
    """Run streaming calls in chunks of `chunk` base paths on as if
    `workers` CPUs were available."""
    monkeypatch.setattr(engine, "_chunk_size", lambda cfg, cpus: chunk)
    monkeypatch.setattr(engine, "_cpu_count", lambda: workers)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["t_horizon", "dt", "x0"])
    def test_non_finite_rejected(self, field, value):
        # rejected here, so that no step has to check its inputs
        params = {"t_horizon": 1.0, "dt": 0.01, "n_base_paths": 2, "seed": 0, field: value}
        with pytest.raises(ValueError, match="t_horizon, dt and x0 must be finite"):
            SimConfig(**params)

    def test_path_indices_fit_the_philox_key(self):
        # base path i is keyed (seed, i) as unsigned 64-bit integers
        assert SimConfig(t_horizon=1.0, dt=0.5, n_base_paths=2**64, seed=0).n_base_paths == 2**64
        with pytest.raises(ValueError, match="n_base_paths must be <= 2\\*\\*64"):
            SimConfig(t_horizon=1.0, dt=0.5, n_base_paths=2**64 + 1, seed=0)

    @pytest.mark.parametrize("value", [1.5, 3.0, True, "3"])
    @pytest.mark.parametrize("field", ["seed", "n_base_paths"])
    def test_non_integral_counts_rejected(self, field, value):
        # seed 1.5 would key Philox as seed 1; n_base_paths 2.5 would fail in the engine
        params = {"t_horizon": 1.0, "dt": 0.1, "n_base_paths": 3, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**params)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(t_horizon=1.0, dt=0.1, n_base_paths=np.int64(3), seed=np.uint64(1))
        assert increment_matrix(cfg).tobytes() == increment_matrix(
            SimConfig(t_horizon=1.0, dt=0.1, n_base_paths=3, seed=1)).tobytes()


def _philox_row(seed: int, i: int, n: int, dt: float) -> np.ndarray:
    """Base path i's n increments, drawn by a new generator keyed (seed, i)."""
    return np.random.Generator(np.random.Philox(key=[seed, i])).normal(0.0, math.sqrt(dt), n)


class TestIncrements:
    def test_deterministic(self):
        cfg = SimConfig(t_horizon=0.1, dt=1e-3, n_base_paths=8, seed=42, antithetic=False)
        a, b = increment_matrix(cfg), increment_matrix(cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(a[7], _philox_row(42, 7, 100, 1e-3))

    def test_streams_differ_by_path(self):
        cfg = SimConfig(t_horizon=0.1, dt=1e-3, n_base_paths=2, seed=42, antithetic=False)
        dw = increment_matrix(cfg)
        assert not np.array_equal(dw[0], dw[1])

    def test_pooled_moments(self):
        # 1000 paths x 1000 steps = 1e6 pooled draws
        dt = 1e-3
        cfg = SimConfig(t_horizon=1.0, dt=dt, n_base_paths=1000, seed=7, antithetic=False)
        pool = increment_matrix(cfg).ravel()
        assert abs(pool.mean()) < 3.0 * math.sqrt(dt / pool.size)
        assert abs(pool.var() - dt) < 0.01 * dt

    def test_matrix_layout(self):
        cfg = SimConfig(t_horizon=0.1, dt=0.01, n_base_paths=4, seed=3)
        dw = increment_matrix(cfg)
        assert dw.shape == (8, 10)
        for i in range(4):
            assert np.array_equal(dw[i], _philox_row(3, i, 10, 0.01))
            assert np.array_equal(dw[4 + i], -dw[i])

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("strip", [1, 3, 128])
    def test_step_major_strips(self, monkeypatch, strip, antithetic):
        # filled a strip of base paths at a time into step-major storage:
        # the same elements however the strips are cut
        cfg = SimConfig(t_horizon=0.1, dt=0.01, n_base_paths=4, seed=3, antithetic=antithetic)
        monkeypatch.setattr(engine, "_BLOCK_STEPS", strip)
        dw = increment_matrix(cfg)
        assert dw.shape == (cfg.n_paths, 10) and dw.T.flags.c_contiguous
        for i in range(4):
            assert dw[i].tobytes() == _philox_row(3, i, 10, 0.01).tobytes()
            if antithetic:
                assert dw[4 + i].tobytes() == (-dw[i]).tobytes()

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("block", [1, 7, 10, 30])
    def test_blocks_side_by_side_are_the_matrix(self, block, antithetic):
        # each path's Philox state is carried from block to block, and a
        # range of paths draws that range's rows, then its partners'
        cfg = SimConfig(t_horizon=0.1, dt=0.01, n_base_paths=4, seed=3, antithetic=antithetic)
        dw = increment_matrix(cfg)
        for lo, hi in [(0, 4), (1, 3), (3, 4)]:
            blocks = [b.copy() for b in engine._increment_blocks(cfg, lo, hi, block)]
            assert [b.shape[1] for b in blocks[:-1]] == [block] * (len(blocks) - 1)
            rows = list(range(lo, hi)) + (list(range(4 + lo, 4 + hi)) if antithetic else [])
            assert np.hstack(blocks).tobytes() == dw[rows].tobytes(), (lo, hi)

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    def test_range_fill_is_the_matrix_columns(self, antithetic):
        # a chunk's step-major increments are the columns of increment_matrix's
        # storage for its base paths, then their partners; 100..260 crosses
        # the matrix's strips at 128 and 256 and is cut at 228 itself
        cfg = SimConfig(t_horizon=0.1, dt=0.01, n_base_paths=300, seed=3, antithetic=antithetic)
        storage = increment_matrix(cfg).T
        for lo, hi in [(0, 4), (1, 3), (3, 4), (100, 260)]:
            dw = engine._increments(cfg, lo, hi, "increment chunk")
            cols = list(range(lo, hi)) + (list(range(300 + lo, 300 + hi)) if antithetic else [])
            assert dw.flags.c_contiguous and dw.shape == (10, len(cols)), (lo, hi)
            assert dw.tobytes() == storage[:, cols].tobytes(), (lo, hi)


class TestSteps:
    def test_log_milstein_gbm_exact_step(self):
        m = gbm(0.05, 0.2)
        # drift-only step: exp((mu - sigma^2/2) dt)
        out = one_step(m, 1.0, 1e-3, 0.0).terminal[0]
        assert out == pytest.approx(math.exp(3e-5), rel=1e-12)

    def test_log_milstein_gbm_general_step(self):
        m = gbm(0.05, 0.2)
        out = one_step(m, 2.0, 1e-3, 0.04).terminal[0]
        expected = 2.0 * math.exp((0.05 - 0.02) * 1e-3 + 0.2 * 0.04)
        assert out == pytest.approx(expected, rel=1e-12)

    def test_log_step_odd_even_split(self, p1_model):
        # the b*dw term is the only odd-in-dw part of the log increment
        x, dt, dw = 1.3, 1e-3, 0.02
        up, dn = np.log(one_step(p1_model, x, dt, [dw, -dw]).terminal)
        even = 0.5 * (up + dn)
        odd = 0.5 * (up - dn)
        b = 0.2 * x ** (eval_p(p1_model.exponent, x) - 1.0)
        assert odd == pytest.approx(b * dw, rel=1e-10)
        assert even == pytest.approx(math.log(x) + (p1_model.mu - 0.5 * b * b) * dt
                                     + 0.5 * b * _bprime(p1_model, x) * (dw * dw - dt),
                                     rel=1e-8)

    def test_euler_step(self):
        m = gbm(0.05, 0.2)
        out = one_step(m, 1.0, 1e-3, 0.0, EULER).terminal[0]
        assert out == pytest.approx(1.00005, rel=1e-12)

    def test_euler_can_breach_zero(self):
        m = gbm(0.05, 0.2)
        b = one_step(m, 1.0, 1e-3, -10.0, EULER)
        assert (b.terminal[0], b.breach_counts[0]) == (POSITIVITY_FLOOR, 1)

    def test_degenerate_deterministic(self):
        m = gbm(0.0, 0.0)
        assert one_step(m, 3.0, 0.01, 0.0, EULER).terminal[0] == pytest.approx(3.0)

    def test_milstein_correction_sign(self):
        m = cev(0.0, 0.5, 2.0)
        dt, dw = 0.01, 0.0
        # dw = 0 makes the correction -0.5 g g' dt < 0 vs plain Euler
        milstein, euler = (one_step(m, 1.0, dt, dw, s).terminal[0] for s in (MILSTEIN, EULER))
        assert milstein < euler

    def test_blow_up_signal(self):
        m = cev(0.0, 50.0, 3.0)
        with pytest.raises(BlowUpError) as exc:
            one_step(m, 1e6, 1.0, np.array([0.0, 5.0]))
        assert len(exc.value.path_indices) >= 1

    def test_nan_step_is_blow_up(self):
        # sigma x^(p-1) overflows to inf at x = e^400; the step is inf - inf
        with pytest.raises(BlowUpError) as exc, np.errstate(over="ignore", invalid="ignore"):
            one_step(cev(0.0, 1.0, 3.0), math.exp(400), 0.5, np.array([1.0, 0.5]))
        assert exc.value.path_indices == [0, 1]


def _bprime(m, x):
    p = eval_p(m.exponent, x)
    b = m.sigma * x ** (p - 1.0)
    dp = float(_p_dp(m.exponent, np.asarray(x, dtype=float))[1])
    return b * ((p - 1.0) + x * dp * math.log(x))


class TestRangeChecks:
    """The checks that end each step, at their boundaries: the first NaN is
    found, and the paths out of range are the ones the mask names."""

    @pytest.mark.parametrize("scheme", [LOG_EULER, LOG_MILSTEIN])
    def test_log_limit_is_inclusive(self, scheme):
        # gbm(0.5, 1) has zero log drift, so y' = dw exactly
        m, limit = gbm(0.5, 1.0), engine.LOG_OVERFLOW_LIMIT
        b = one_step(m, 1.0, 1.0, [limit, -limit, 0.0], scheme)
        assert b.terminal.tolist() == [math.exp(limit), math.exp(-limit), 1.0]
        above = np.nextafter(limit, np.inf)
        for dw, paths in (([0.1, limit, -limit, above, 0.2], [3]),
                          ([0.1, -above, 0.2], [1]),
                          ([0.1, np.nan, 0.2], [1])):
            with pytest.raises(BlowUpError) as exc:
                one_step(m, 1.0, 1.0, dw, scheme)
            assert (exc.value.path_indices, exc.value.step_index) == (paths, 0)

    @pytest.mark.parametrize("scheme", [EULER, MILSTEIN])
    def test_floor_is_kept(self, scheme):
        # sigma = 0 and mu = 0: x' = x exactly
        m = gbm(0.0, 0.0)
        b = one_step(m, POSITIVITY_FLOOR, 0.5, [0.0, 0.3], scheme)
        assert b.terminal.tolist() == [POSITIVITY_FLOOR] * 2
        assert b.breach_counts.tolist() == [0, 0]
        b = one_step(m, np.nextafter(POSITIVITY_FLOOR, 0.0), 0.5, [0.0, 0.3], scheme)
        assert b.terminal.tolist() == [POSITIVITY_FLOOR] * 2
        assert b.breach_counts.tolist() == [1, 1]

    def test_infinite_states(self):
        # x' = 1 + dw under euler: +inf blows up, -inf is clamped and counted
        m = gbm(0.0, 1.0)
        with pytest.raises(BlowUpError) as exc:
            one_step(m, 1.0, 0.5, [0.0, np.inf, -np.inf, 0.0], EULER)
        assert (exc.value.path_indices, exc.value.step_index) == ([1], 0)
        b = one_step(m, 1.0, 0.5, [0.0, -np.inf, 0.0], EULER)
        assert b.terminal.tolist() == [1.0, POSITIVITY_FLOOR, 1.0]
        assert b.breach_counts.tolist() == [0, 1, 0]


class TestInPlaceIncrements:
    """run_with_increments reads a caller's matrix in place, whatever its
    memory order: no copy of it and no piece buffer. A coupled run's chunk
    steps over the storage increment_matrix is a view of, with no piece
    buffer either."""

    CFG = SimConfig(t_horizon=1.0, dt=0.005, n_base_paths=1000, seed=4)  # 2000 x 200

    @pytest.mark.parametrize("scheme", [LOG_MILSTEIN, MILSTEIN])
    def test_run_holds_only_the_values(self, p1_model, scheme):
        # the matrix as increment_matrix gives it (Fortran-ordered), and a
        # C-ordered copy, stepped over strided rows
        cfg = SimConfig(**{**self.CFG.to_dict(), "scheme": scheme})
        values_bytes = cfg.n_paths * (cfg.n_steps + 1) * 8
        piece_bytes = engine._BLOCK_STEPS * cfg.n_paths * 8
        for order in "FC":
            dw = np.asarray(increment_matrix(cfg), order=order)
            tracemalloc.start()
            try:
                run_with_increments(p1_model, cfg, dw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < values_bytes + piece_bytes // 2, order

    @pytest.mark.parametrize("keep", [engine.TERMINAL, engine.STATS], ids=["terminal", "stats"])
    def test_chunk_holds_only_its_increments(self, gbm_model, keep):
        # one chunk's increments, the strips they are drawn in and O(m)
        # state: no (128, m) piece buffer, which is half of them here
        cfg = SimConfig(t_horizon=1.0, dt=1 / 256, n_base_paths=2000, seed=5)
        increment_bytes = cfg.n_paths * cfg.n_steps * 8
        piece_bytes = engine._BLOCK_STEPS * cfg.n_paths * 8
        np.random.Philox(0)  # imports numpy.random outside the traced region
        tracemalloc.start()
        try:
            engine._run_chunk([gbm_model], cfg, ["gbm"], 0, cfg.n_base_paths, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < increment_bytes + piece_bytes // 2

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_paths(self, p1_model, scheme):
        cfg = SimConfig(t_horizon=1.0, dt=0.25, n_base_paths=1, seed=0, scheme=scheme)
        b = run_with_increments(p1_model, cfg, np.empty((0, 4)))
        assert b.values.shape == (0, 5) and b.breach_counts.shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 5), (12,), (2, 4, 1)],
                             ids=["transposed", "wrong_steps", "1d", "3d"])
    def test_matrix_must_be_paths_by_steps(self, gbm_model, shape):
        cfg = SimConfig(t_horizon=1.0, dt=0.25, n_base_paths=1, seed=0)  # 4 steps
        with pytest.raises(ValueError, match=r"must be \(n_paths, cfg.n_steps\)"):
            run_with_increments(gbm_model, cfg, np.zeros(shape))


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

    @pytest.mark.parametrize("scheme,n_base_paths,antithetic,paths", [
        (LOG_EULER, 2, False, [0, 1]), (LOG_MILSTEIN, 4, True, list(range(8))),
        (EULER, 2, False, [0, 1]), (MILSTEIN, 4, True, [0, 1, 4, 6, 7]),
    ], ids=["log_euler", "log_milstein_antithetic", "euler", "milstein_antithetic"])
    def test_nan_states_blow_up(self, scheme, n_base_paths, antithetic, paths):
        # in log space every path's first step is NaN (inf - inf); in direct
        # space some turn +inf or NaN and the others are clamped. Each is
        # reported at step 0, whatever the run keeps.
        cfg = SimConfig(t_horizon=1.0, dt=0.5, n_base_paths=n_base_paths, seed=1,
                        antithetic=antithetic, scheme=scheme, x0=math.exp(400))
        models = [cev(0.0, 1.0, 3.0)]
        runs = [lambda: coupled_terminals(models, cfg),
                lambda: simulate_coupled(models, cfg),
                lambda: engine._advance(models, cfg, ["model_0"],
                                        [increment_matrix(cfg).T],
                                        cfg.n_paths, engine.PATHS, 2)]
        runs += [lambda r=r: simulate_coupled_stats(models, cfg, reductions=r)
                 for r in REDUCTION_SETS]
        for run in runs:
            with pytest.raises(BlowUpError) as exc, np.errstate(over="ignore", invalid="ignore"):
                run()
            assert (exc.value.path_indices, exc.value.step_index) == (paths, 0)

    # direct schemes: a state that turns +inf or NaN blows up, one that
    # turns -inf is clamped to the floor; the path indices and steps are
    # the ones the mask-and-nonzero check gave before the reduction check
    @pytest.mark.parametrize("scheme,n_base_paths,antithetic,x0,dt,paths,step", [
        (EULER, 2, False, math.exp(400), 0.5, [0, 1], 0),  # g dw = +inf
        (MILSTEIN, 4, True, math.exp(400), 0.5, [0, 1, 4, 6, 7], 0),  # +inf, or inf - inf
        (MILSTEIN, 8, False, 1e100, 0.25, [0, 4], 0),
        (EULER, 6, True, 1e100, 0.25, [0, 4, 5, 8], 1),  # the others clamped at step 0
    ], ids=["euler", "milstein_antithetic", "milstein", "euler_second_step"])
    def test_direct_non_finite_states_blow_up(self, scheme, n_base_paths, antithetic, x0, dt,
                                              paths, step):
        cfg = SimConfig(t_horizon=1.0, dt=dt, n_base_paths=n_base_paths, seed=1,
                        antithetic=antithetic, scheme=scheme, x0=x0)
        model = cev(0.0, 1.0, 3.0)
        for run in (lambda: coupled_terminals([model], cfg, ["cev3"]),
                    lambda: run_with_increments(model, cfg, increment_matrix(cfg), "cev3")):
            with pytest.raises(BlowUpError) as exc, np.errstate(over="ignore", invalid="ignore"):
                run()
            assert (exc.value.path_indices, exc.value.step_index) == (paths, step)
            assert exc.value.model_label == "cev3"

    def test_memory_cap(self, gbm_model):
        with pytest.raises(MemoryError):
            simulate_batch(gbm_model, OVERSIZE_CFG)

    @pytest.mark.parametrize("run,match", [
        (lambda models: increment_matrix(OVERSIZE_CFG), "increment matrix needs"),
        (lambda models: simulate_coupled(models, OVERSIZE_CFG), "dense path storage needs"),
        # 1e9 steps: one path's increments alone are over the cap
        (lambda models: simulate_coupled_stats(
            models, SimConfig(t_horizon=1.0, dt=1e-9, n_base_paths=1, seed=0)),
         "increment chunk needs"),
    ], ids=["increment_matrix", "dense", "one_path_chunk"])
    def test_increment_cap_before_allocating(self, gbm_model, p1_model, run, match):
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match=match + " .* GiB > cap 2 GiB"):
                run([gbm_model, p1_model])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # at a 1 MiB cap: 1000 x 1000 doubles of dense paths are over it alone;
    # 70 x 1000 are under it, but not with the float64 copy of a float32
    # matrix (float64 70 x 1000 fits, and runs)
    @pytest.mark.parametrize("n_paths,dtype", [(1000, np.float64), (70, np.float32)])
    def test_caller_matrix_capped_before_allocating(self, monkeypatch, gbm_model,
                                                    n_paths, dtype):
        cfg = SimConfig(t_horizon=1.0, dt=1e-3, n_base_paths=n_paths, seed=0,
                        antithetic=False)
        dw = np.zeros((n_paths, cfg.n_steps), dtype=dtype)
        monkeypatch.setattr(engine, "MEMORY_CAP_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="dense path storage needs"):
                run_with_increments(gbm_model, cfg, dw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10  # no O(paths x steps) array was allocated
        if dtype == np.float32:
            assert run_with_increments(gbm_model, cfg, dw.astype(float)).values.shape == \
                (n_paths, cfg.n_steps + 1)

    @pytest.mark.parametrize("run", [simulate_coupled_stats, coupled_terminals],
                             ids=["stats", "terminals"])
    def test_streaming_runs_ignore_increment_cap(self, monkeypatch, gbm_model, p1_model, run):
        # streaming runs hold one chunk of increments at a time, never the matrix
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=64, seed=5)
        path_bytes = 2 * cfg.n_steps * 8
        uncapped = _result_bytes(run([gbm_model, p1_model], cfg))
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 16 * path_bytes)
        monkeypatch.setattr(engine, "MEMORY_CAP_BYTES", 32 * path_bytes)
        with pytest.raises(MemoryError):
            increment_matrix(cfg)
        assert _result_bytes(run([gbm_model, p1_model], cfg)) == uncapped

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


class TestStepBlocks:
    """Dense outputs are the same bytes whatever _BLOCK_STEPS, the width of
    the strips the increments are drawn in: one base path per strip, or all
    40 in one strip, against the default."""

    BLOCKS = [1, 70, 5000]
    CFG = SimConfig(t_horizon=3.0, dt=0.01, n_base_paths=40, seed=5)  # 300 steps

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("scheme", [LOG_MILSTEIN, MILSTEIN])
    def test_run_with_increments(self, monkeypatch, p1_model, scheme, block):
        cfg = SimConfig(**{**self.CFG.to_dict(), "scheme": scheme})
        want = run_with_increments(p1_model, cfg, increment_matrix(cfg)).values.tobytes()
        monkeypatch.setattr(engine, "_BLOCK_STEPS", block)
        dw = increment_matrix(cfg)
        for layout in (np.ascontiguousarray(dw), dw):
            assert run_with_increments(p1_model, cfg, layout).values.tobytes() == want

    @pytest.mark.parametrize("block", BLOCKS)
    def test_simulate_coupled(self, monkeypatch, gbm_model, p1_model, block):
        models = [gbm_model, p1_model]
        want = [b.values.tobytes() for b in simulate_coupled(models, self.CFG)]
        monkeypatch.setattr(engine, "_BLOCK_STEPS", block)
        assert [b.values.tobytes() for b in simulate_coupled(models, self.CFG)] == want


def _oracle_log_step(m, y, x, dt, dw, milstein):
    """The log step with p from the validating eval_p and p' from _p_dp on
    the same x, nothing shared or special-cased: the reference for the
    fused kernel."""
    p = eval_p(m.exponent, x)
    b = m.sigma * np.exp((p - 1.0) * y)
    incr = (m.mu - 0.5 * b * b) * dt + b * dw
    if milstein:
        b_prime = b * ((p - 1.0) + x * _p_dp(m.exponent, x)[1] * y)
        incr = incr + 0.5 * b * b_prime * (dw * dw - dt)
    return y + incr


def _oracle_paths(m, cfg, dw):
    """Dense (n_paths, n_steps + 1) log-scheme paths from _oracle_log_step."""
    milstein = cfg.scheme == LOG_MILSTEIN
    y = np.full(dw.shape[0], math.log(cfg.x0))
    x = np.exp(y)
    values = np.empty((dw.shape[0], dw.shape[1] + 1))
    values[:, 0] = cfg.x0
    for k in range(dw.shape[1]):
        y = _oracle_log_step(m, y, x, cfg.dt, dw[:, k], milstein)
        x = np.exp(y)
        values[:, k + 1] = x
    return values


# A large sigma and a coarse dt make the Milstein term big enough that a
# reordered operation in it shows in the last bits of the paths.
ORACLE_MODELS = {
    "gbm": gbm(0.05, 0.5),
    "cev2": cev(0.05, 0.5, 2.0),
    "exp_decay": ModelSpec(0.05, 0.5, ExponentSpec.exp_decay(0.5, 1.0)),
    "inverse_square": ModelSpec(0.05, 0.5, ExponentSpec.inverse_square(1.0)),
    "rational_decay": ModelSpec(0.05, 0.5, ExponentSpec.rational_decay(0.5)),
}


class TestFusedLogStep:
    # constant exponents below 1, where p - 1 < 0 (cev2's is > 0); sigma
    # 0.25 keeps cev0's paths, whose log-space b is sigma / x, in range
    MODELS = {**ORACLE_MODELS, "cev0.8": cev(0.05, 0.5, 0.8), "cev0": cev(0.05, 0.25, 0.0)}

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("x0", [1.0, 1.7])
    @pytest.mark.parametrize("scheme", [LOG_EULER, LOG_MILSTEIN])
    def test_bytes_equal_oracle(self, scheme, x0, antithetic):
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=64, seed=8,
                        antithetic=antithetic, scheme=scheme, x0=x0)
        dw = increment_matrix(cfg)
        terminals = coupled_terminals(list(self.MODELS.values()), cfg)
        for (name, m), terminal in zip(self.MODELS.items(), terminals):
            oracle = _oracle_paths(m, cfg, dw)
            assert terminal.tobytes() == oracle[:, -1].tobytes(), name
            for layout in (np.ascontiguousarray(dw), dw):
                values = run_with_increments(m, cfg, layout, name).values
                assert values.tobytes() == oracle.tobytes(), name

    @pytest.mark.parametrize("name", list(MODELS))
    def test_scalar_wrapper_equals_oracle(self, name):
        # one step from each of 64 states, far wider than a path's range
        m = self.MODELS[name]
        dw = np.linspace(-0.2, 0.2, 64)
        for x in np.geomspace(0.05, 20.0, 64):
            y = np.full(dw.size, math.log(x))
            want = np.exp(_oracle_log_step(m, y, np.exp(y), 1e-3, dw, milstein=True))
            assert one_step(m, x, 1e-3, dw).terminal.tobytes() == want.tobytes(), x


def _oracle_direct_step(m, x, dt, dw, milstein):
    """The direct step with g = sigma phi and g' = sigma phi' from the
    validating eval_phi and eval_dphi, nothing shared or special-cased: the
    reference for the fused kernel."""
    g = m.sigma * eval_phi(m.exponent, x)
    out = x + m.mu * x * dt + g * dw
    if milstein:
        out = out + 0.5 * g * (m.sigma * eval_dphi(m.exponent, x)) * (dw * dw - dt)
    return out


def _oracle_direct_paths(m, cfg, dw):
    """Dense direct-scheme paths from _oracle_direct_step, clamped to the
    positivity floor, and the per-path breach counts."""
    x = np.full(dw.shape[0], cfg.x0)
    values = np.empty((dw.shape[0], dw.shape[1] + 1))
    values[:, 0] = x
    breaches = np.zeros(dw.shape[0], dtype=int)
    for k in range(dw.shape[1]):
        x = _oracle_direct_step(m, x, cfg.dt, dw[:, k], cfg.scheme == MILSTEIN)
        low = x < engine.POSITIVITY_FLOOR
        breaches += low
        x = np.where(low, engine.POSITIVITY_FLOOR, x)
        values[:, k + 1] = x
    return values, breaches


class TestFusedDirectStep:
    # sigma 0.3 is not a power of two, so reordering a product with sigma
    # changes its last bits; gbm(0, 3) breaches the floor under euler, and
    # under milstein at dt 0.25
    MODELS = {**ORACLE_MODELS, "cev1.5": cev(0.05, 0.3, 1.5),
              "exp_decay_0.3": ModelSpec(0.05, 0.3, ExponentSpec.exp_decay(0.5, 1.0)),
              "wild": gbm(0.0, 3.0)}

    @pytest.mark.parametrize("dt", [0.05, 0.25])
    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("x0", [1.0, 1.7])
    @pytest.mark.parametrize("scheme", [EULER, MILSTEIN])
    def test_bytes_equal_oracle(self, scheme, x0, antithetic, dt):
        cfg = SimConfig(t_horizon=1.0, dt=dt, n_base_paths=64, seed=8,
                        antithetic=antithetic, scheme=scheme, x0=x0)
        dw = increment_matrix(cfg)
        models, names = list(self.MODELS.values()), list(self.MODELS)
        terminals = coupled_terminals(models, cfg)
        stats = simulate_coupled_stats(models, cfg, names)
        one = simulate_coupled(models, replace(cfg, n_base_paths=1, antithetic=False), names)
        oracles = [_oracle_direct_paths(m, cfg, dw) for m in models]
        for j, (name, m) in enumerate(self.MODELS.items()):
            oracle, breaches = oracles[j]
            for layout in (np.ascontiguousarray(dw), dw):
                b = run_with_increments(m, cfg, layout, name)
                assert b.values.tobytes() == oracle.tobytes(), name
                assert b.breach_counts.tobytes() == breaches.tobytes(), name
            assert terminals[j].tobytes() == oracle[:, -1].tobytes(), name
            ms = stats.models[j]
            assert ms.terminal.tobytes() == oracle[:, -1].tobytes(), name
            assert one[j].values[0].tobytes() == oracle[0].tobytes(), name
            assert (ms.min_value, ms.max_value) == (oracle.min(), oracle.max()), name
            phi = eval_phi(m.exponent, oracle)
            want = (phi.min(), phi.max())
            assert _phi_range(m.exponent, oracle.min(), oracle.max()) == want, name
            assert ms.positivity_breaches == breaches.sum(), name
            sup_diff = np.abs(oracle - oracles[0][0]).max(axis=1)
            assert stats.sup_abs_diff[j].tobytes() == sup_diff.tobytes(), name
        if scheme == EULER or dt == 0.25:
            assert oracles[-1][1].sum() > 0

    @pytest.mark.parametrize("scheme", [EULER, MILSTEIN])
    @pytest.mark.parametrize("name", list(ORACLE_MODELS))
    def test_scalar_wrapper_equals_oracle(self, name, scheme):
        # one step from each of 64 states, far wider than a path's range;
        # cev2 falls below the floor from the largest states
        m = ORACLE_MODELS[name]
        dw = np.linspace(-0.2, 0.2, 64)
        for x in np.geomspace(0.05, 20.0, 64):
            want = _oracle_direct_step(m, np.full(dw.size, x), 1e-3, dw, scheme == MILSTEIN)
            want = np.where(want < POSITIVITY_FLOOR, POSITIVITY_FLOOR, want)
            assert one_step(m, x, 1e-3, dw, scheme).terminal.tobytes() == want.tobytes(), x


class TestStepBuffers:
    """Each model steps its own row of states in place, in buffers of its
    own, and the grid is a recorded copy of those rows at every stride-th
    step: models stepped together at any stride give the bytes of each
    model's own run."""

    MODELS = {**ORACLE_MODELS, "wild": gbm(0.0, 3.0)}  # wild breaches the floor

    @pytest.mark.parametrize("block", [1, 7, 128])
    @pytest.mark.parametrize("stride", [1, 3, 20])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_strided_values_are_the_full_grid(self, scheme, stride, block):
        # _advance reads the matrix's 20 steps as views of `block` steps
        # (the last may be shorter), of the Fortran-ordered matrix and of a
        # C-ordered copy
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=16, seed=8, scheme=scheme)
        dw = increment_matrix(cfg)
        full = [run_with_increments(m, cfg, dw, name) for name, m in self.MODELS.items()]
        for order in "FC":
            steps = np.asarray(dw, order=order).T
            blocks = [steps[k:k + block] for k in range(0, cfg.n_steps, block)]
            out = engine._advance(list(self.MODELS.values()), cfg, list(self.MODELS),
                                  blocks, len(dw), engine.PATHS, stride)
            for j, (name, b) in enumerate(zip(self.MODELS, full)):
                assert out["values"][j].tobytes() == b.values[:, ::stride].tobytes(), name
                assert out["terminal"][j].tobytes() == b.terminal.tobytes(), name
                assert out["breaches"][j].tobytes() == b.breach_counts.tobytes(), name
        if scheme == EULER:
            assert full[-1].breach_counts.sum() > 0


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
        # gbm(0, 3) breaches the positivity floor under euler; a run asked
        # for some of the reductions gives their bytes and None for the others
        models = [gbm_model, p1_model, gbm(0.0, 3.0)]
        labels = ["gbm", "p1", "wild"]
        for scheme in SCHEMES:
            for x0 in (1.0, 1.7):
                cfg = SimConfig(**{**small_cfg.to_dict(), "scheme": scheme, "x0": x0})
                dense = simulate_coupled(models, cfg, labels)
                one = simulate_coupled(models, replace(cfg, n_base_paths=1, antithetic=False),
                                       labels)
                stats = simulate_coupled_stats(models, cfg, labels)
                for reductions in REDUCTION_SETS:
                    some = simulate_coupled_stats(models, cfg, labels, reductions)
                    assert _result_bytes(some, reductions) == _result_bytes(stats, reductions)
                    assert (some.sup_abs_diff is None) == (engine.SUP_DIFFS not in reductions)
                    for ms in some.models:
                        assert (ms.min_value is None) == (engine.EXTREMA not in reductions)
                        assert (ms.max_value is None) == (engine.EXTREMA not in reductions)
                for j, b in enumerate(dense):
                    ms = stats.models[j]
                    assert np.array_equal(ms.terminal, b.terminal)
                    assert ms.min_value == b.values.min()
                    assert ms.max_value == b.values.max()
                    phi = eval_phi(models[j].exponent, b.values.ravel())
                    assert _phi_range(models[j].exponent, b.values.min(),
                                      b.values.max()) == (phi.min(), phi.max())
                    assert one[j].values[0].tobytes() == b.values[0].tobytes()
                    assert ms.positivity_breaches == b.breach_counts.sum()
                    if j > 0:
                        sup_diff = np.max(np.abs(b.values - dense[0].values), axis=1)
                        assert np.array_equal(stats.sup_abs_diff[j], sup_diff)
                if scheme == EULER:
                    assert dense[2].breach_counts.sum() > 0

    @pytest.mark.parametrize("mu", [0.05, -0.05], ids=["rising", "falling"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stats_start_at_x0(self, p1_model, scheme, mu):
        # with sigma 0 every path moves away from x0 monotonically, and so does
        # x^p(x), so x0 alone gives the minima (rising) or the maxima (falling);
        # 3.0 != exp(log(3.0)) in numpy, the log schemes' start
        models = [gbm(mu, 0.0), ModelSpec(mu, 0.0, p1_model.exponent)]
        cfg = SimConfig(t_horizon=0.1, dt=0.01, n_base_paths=2, seed=0, scheme=scheme, x0=3.0)
        dense = simulate_coupled(models, cfg)
        for m, ms, b in zip(models, simulate_coupled_stats(models, cfg).models, dense):
            phi_min, phi_max = _phi_range(m.exponent, ms.min_value, ms.max_value)
            ends = (ms.min_value, phi_min) if mu > 0 else (ms.max_value, phi_max)
            assert ends == (3.0, eval_phi(m.exponent, 3.0))
            assert np.all(b.values[:, 0] == 3.0) and ms.min_value < ms.max_value

    def test_phi_range_of_a_non_monotone_exponent(self):
        # phi' < 0 on about [2.40, 3.56] for exp_decay(10, 1), so from x0 3
        # phi's extremes over the visited states lie inside [x_min, x_max]:
        # the grid between the extrema finds them, their two ends do not
        m = ModelSpec(0.05, 0.05, ExponentSpec.exp_decay(10.0, 1.0))
        cfg = SimConfig(t_horizon=1.0, dt=1e-3, n_base_paths=2000, seed=42, x0=3.0)
        visited = eval_phi(m.exponent, simulate_batch(m, cfg).values)
        (ms,) = simulate_coupled_stats([m], cfg, reductions={engine.EXTREMA}).models
        lo, hi = _phi_range(m.exponent, ms.min_value, ms.max_value)
        assert lo == pytest.approx(visited.min(), rel=1e-6)
        assert hi == pytest.approx(visited.max(), rel=1e-6)
        ends = eval_phi(m.exponent, np.array([ms.min_value, ms.max_value]))
        assert ends.min() - visited.min() > 1e-2 and visited.max() - ends.max() > 1e-2

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("x0", [1.0, 1.7])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bytes_equal_per_model_runs(self, scheme, x0, antithetic):
        # the dense definition: each model on its own over the path-major
        # increment matrix; gbm(0, 3) breaches the floor under euler
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=16, seed=8,
                        antithetic=antithetic, scheme=scheme, x0=x0)
        models = {**ORACLE_MODELS, "wild": gbm(0.0, 3.0)}
        dw = increment_matrix(cfg)
        dense = simulate_coupled(list(models.values()), cfg, list(models))
        for (name, m), b in zip(models.items(), dense):
            want = run_with_increments(m, cfg, dw, name)
            assert b.model_label == name
            assert b.values.tobytes() == want.values.tobytes(), name
            assert b.breach_counts.tobytes() == want.breach_counts.tobytes(), name
        if scheme == EULER:
            assert dense[-1].breach_counts.sum() > 0

    @pytest.mark.parametrize("run", [simulate_coupled, simulate_coupled_stats,
                                     coupled_terminals],
                             ids=["dense", "stats", "terminals"])
    def test_duplicate_labels_rejected(self, gbm_model, p1_model, small_cfg, run):
        # a chunk's blow-up is ranked by its model's label
        with pytest.raises(ValueError, match="duplicate model labels"):
            run([gbm_model, p1_model], small_cfg, ["x", "x"])

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]], ids=["short", "long"])
    def test_label_count_must_match(self, gbm_model, p1_model, small_cfg, labels):
        with pytest.raises(ValueError, match="labels must match models"):
            simulate_coupled([gbm_model, p1_model], small_cfg, labels)

    @pytest.mark.parametrize("run", [simulate_coupled, simulate_coupled_stats],
                             ids=["dense", "stats"])
    def test_empty_model_list_rejected(self, small_cfg, run):
        with pytest.raises(ValueError, match="models is empty"):
            run([], small_cfg)

    def test_unknown_reduction_rejected(self, gbm_model, small_cfg):
        # the dense grid is a reduction of _advance alone, not of the streaming
        # API, and a sample path is a row of a dense run
        for reductions, unknown in (({"path_sup", engine.EXTREMA}, "path_sup"),
                                    ({engine.GRID}, "grid"), ({"path0"}, "path0")):
            with pytest.raises(ValueError, match=rf"unknown reductions \['{unknown}'\]"):
                simulate_coupled_stats([gbm_model], small_cfg, reductions=reductions)

    def test_string_reductions_rejected(self, gbm_model, small_cfg):
        # a str is an iterable of its characters, which named no reduction
        with pytest.raises(TypeError, match=r"not the string 'extrema'") as exc:
            simulate_coupled_stats([gbm_model], small_cfg, reductions=engine.EXTREMA)
        assert "{'extrema'}" in str(exc.value)

    def test_blow_up_same_as_streaming(self):
        # CEV exponent 0 runs away to 0 in log space; every run stops at the
        # earliest step, then the first model failing there
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=16, seed=2)
        models, labels = [gbm(0.05, 0.2), cev(0.0, 1.0, 0.0), cev(0.0, 1.3, 0.0)], ["gbm", "a", "b"]
        raised = []
        with np.errstate(all="ignore"):
            for run in (simulate_coupled, simulate_coupled_stats, coupled_terminals):
                with pytest.raises(BlowUpError) as exc:
                    run(models, cfg, labels)
                raised.append((exc.value.model_label, exc.value.step_index, exc.value.path_indices))
        assert raised == [("b", 6, [3, 4])] * 3

    def test_terminals_match_dense(self, gbm_model, p1_model, small_cfg):
        for scheme in SCHEMES:
            cfg = SimConfig(**{**small_cfg.to_dict(), "scheme": scheme})
            dense = simulate_coupled([gbm_model, p1_model], cfg)
            terms = coupled_terminals([gbm_model, p1_model], cfg)
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


def _failing_chunk(models, cfg, labels, lo, hi, stats):
    """Stand-in for engine._run_chunk that fails with something other than
    a blow-up (module-level, so that a pool can pickle it)."""
    raise ZeroDivisionError(f"chunk [{lo}, {hi}) failed")


def _scripted_chunk(models, cfg, labels, lo, hi, stats):
    """Stand-in for engine._run_chunk whose chunks blow up as scripted."""
    script = {0: (6, "b"), 2: (6, "a"), 4: (9, "a"), 6: (6, "a")}
    if lo in script:
        raise BlowUpError([lo, cfg.n_base_paths + lo], *script[lo])
    return {}


class TestChunkedRuns:
    """The determinism contract: the same bytes however the paths are split."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 7, 20], ids=["chunk1", "chunk7", "chunk_n"])
    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("scheme", [LOG_MILSTEIN, EULER])
    def test_same_bytes_however_split(self, monkeypatch, gbm_model, p1_model,
                                      scheme, antithetic, chunk, workers):
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=20, seed=17,
                        antithetic=antithetic, scheme=scheme)
        models = [gbm_model, p1_model, gbm(0.0, 3.0)]  # the last breaches the floor under euler
        assert engine._plan(cfg) == ([(0, 20)], 1)
        stats = simulate_coupled_stats(models, cfg, ["gbm", "p1", "wild"])
        terminals = coupled_terminals(models, cfg)
        if scheme == EULER:
            assert stats.models[2].positivity_breaches > 0
        _force_plan(monkeypatch, chunk, workers)
        bounds, n_workers = engine._plan(cfg)
        assert len(bounds) == -(-20 // chunk) and n_workers == min(workers, len(bounds))
        split = simulate_coupled_stats(models, cfg, ["gbm", "p1", "wild"])
        assert _result_bytes(split) == _result_bytes(stats)
        assert _result_bytes(coupled_terminals(models, cfg)) == _result_bytes(terminals)

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("x0", [1.0, 1.7])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_path0_alone_is_path0_of_a_wide_run(self, scheme, x0, antithetic):
        # path 0 keys its own Philox stream, so a one-path dense run (the
        # sample paths of `varexp simulate`) steps its bytes; gbm(0, 3)
        # breaches the floor on path 0 under euler
        models = [ModelSpec(0.05, 0.2, spec) for spec in all_kinds()] + [gbm(0.0, 3.0)]
        cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=64, seed=8,
                        antithetic=antithetic, scheme=scheme, x0=x0)
        wide = simulate_coupled(models, cfg)
        alone = simulate_coupled(models, replace(cfg, n_base_paths=1, antithetic=False))
        for w, a in zip(wide, alone):
            assert a.values.shape == (1, cfg.n_steps + 1)
            assert a.values[0].tobytes() == w.values[0].tobytes(), w.model_label
            assert a.values[0, 0] == x0
        if scheme == EULER:
            assert alone[-1].breach_counts[0] > 0

    # CEV exponent 0 runs away to 0 in log space, path by path; a GBM with
    # sigma 1e150 overflows to inf under euler after a few rising steps and
    # is clamped to the floor by a falling one. Each: models, paths, step.
    BLOW_UPS = {
        LOG_MILSTEIN: ([gbm(0.05, 0.2), cev(0.0, 1.0, 0.0), cev(0.0, 1.3, 0.0)], [3, 4], 6),
        EULER: ([gbm(0.05, 0.2), gbm(0.0, 1e150), gbm(0.0, 1.3e150)], [19, 20], 2),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 5])
    def test_blow_up_same_as_serial(self, monkeypatch, chunk, workers):
        labels = ["model_0", "model_1", "model_2"]
        for scheme, (models, want_paths, want_step) in self.BLOW_UPS.items():
            cfg = SimConfig(t_horizon=1.0, dt=0.05, n_base_paths=16, seed=2, scheme=scheme)
            with np.errstate(all="ignore"):
                with pytest.raises(BlowUpError) as serial:
                    coupled_terminals(models, cfg)
                # two single-path chunks fail at this step; the union is reported
                assert (serial.value.path_indices, serial.value.step_index) == \
                    (want_paths, want_step), scheme
                steps, paths = set(), set()
                for lo in range(0, 16, chunk):
                    hi = min(lo + chunk, 16)
                    outcome = engine._outcome(engine._run_chunk, models, cfg, labels, lo, hi,
                                             engine.TERMINAL)
                    if isinstance(outcome, BlowUpError):
                        # global indices: the chunk's base paths and their partners
                        assert set(outcome.path_indices) <= {*range(lo, hi),
                                                             *range(16 + lo, 16 + hi)}
                        steps.add(outcome.step_index)
                        paths.update(outcome.path_indices)
                assert len(steps) > 1  # chunks blow up at different steps
                assert max(paths) >= 16  # and some at an antithetic partner
                # dense runs, recording every step or every third
                runs = [lambda: simulate_coupled(models, cfg)] + [
                    lambda stride=stride: engine._advance(
                        models, cfg, labels, [increment_matrix(cfg).T],
                        cfg.n_paths, engine.PATHS, stride) for stride in (1, 3)]
                for run in runs:
                    with pytest.raises(BlowUpError) as dense:
                        run()
                    assert str(dense.value) == str(serial.value), scheme
                    assert dense.value.path_indices == serial.value.path_indices
                _force_plan(monkeypatch, chunk, workers)
                runs = [lambda: coupled_terminals(models, cfg)]
                runs += [lambda r=r: simulate_coupled_stats(models, cfg, reductions=r)
                         for r in REDUCTION_SETS]
                for run in runs:
                    with pytest.raises(BlowUpError) as pooled:
                        run()
                    assert str(pooled.value) == str(serial.value), scheme
                    assert pooled.value.path_indices == serial.value.path_indices
                monkeypatch.undo()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_earliest_step_then_first_model(self, monkeypatch, gbm_model, workers):
        # chunks at (6, b), (6, a), (9, a), (6, a): one run stops at (6, a)
        monkeypatch.setattr(engine, "_run_chunk", _scripted_chunk)
        _force_plan(monkeypatch, 2, workers)
        cfg = SimConfig(t_horizon=1.0, dt=0.1, n_base_paths=8, seed=0)
        with pytest.raises(BlowUpError) as exc:
            simulate_coupled_stats([gbm_model] * 3, cfg, ["ref", "a", "b"])
        assert (exc.value.path_indices, exc.value.step_index, exc.value.model_label) == \
            ([2, 6, 10, 14], 6, "a")

    def test_other_errors_reach_the_caller(self, monkeypatch, gbm_model):
        import multiprocessing
        monkeypatch.setattr(engine, "_run_chunk", _failing_chunk)
        _force_plan(monkeypatch, 2, 2)
        cfg = SimConfig(t_horizon=1.0, dt=0.1, n_base_paths=8, seed=0)
        assert engine._plan(cfg)[1] == 2  # a pooled run
        with pytest.raises(ZeroDivisionError, match=r"chunk \[\d+, \d+\) failed"):
            simulate_coupled_stats([gbm_model], cfg)
        assert multiprocessing.active_children() == []  # the pool is shut down

    def test_cpu_count_without_affinity(self, monkeypatch):
        # a platform without sched_getaffinity falls back to os.cpu_count
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 5)
        assert engine._cpu_count() == 5
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)  # undeterminable
        assert engine._cpu_count() == 1

    def test_blow_up_error_pickles(self):
        err = BlowUpError([3, 4], 7, "p1")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is BlowUpError
        assert (back.path_indices, back.step_index, back.model_label, str(back)) == \
            ([3, 4], 7, "p1", str(err))

    def test_chunk_rule(self, monkeypatch):
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=35, seed=0)
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 10 * 2 * cfg.n_steps * 8)  # 10 base paths
        # one worker: only as many chunks as the budget needs; more: whole rounds
        assert [engine._chunk_size(cfg, w) for w in (1, 2, 3)] == [9, 9, 6]
        small = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=10, seed=0)
        assert [engine._chunk_size(small, w) for w in (1, 2, 3)] == [10, 10, 10]
        monkeypatch.setattr(engine, "_cpu_count", lambda: 3)
        assert engine._plan(cfg) == ([(0, 6), (6, 12), (12, 18), (18, 24), (24, 30), (30, 35)], 3)
        assert engine._plan(small) == ([(0, 10)], 1)


# engine internals that draw Philox streams or take steps
ENGINE_ONLY = ("np.random.Philox(", "_advance(", "_increment_blocks(", "_require_fits(",
               "_BLOCK_STEPS")


def test_only_the_engine_draws_and_steps():
    # engine.py is the one module where Philox streams are keyed and steps
    # are taken; every other module goes through its entry points
    src = pathlib.Path(engine.__file__).parent
    found = [(f.name, name) for f in sorted(src.glob("*.py")) if f.name != "engine.py"
             for name in ENGINE_ONLY if name in f.read_text(encoding="utf-8")]
    assert not found


class TestStrongOrder:
    def test_refinement_slopes(self, p1_model):
        from varexp import loglog_slope, refinement_errors
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        errs_m = refinement_errors(p1_model, dts, ref_dt=1e-4, n_base_paths=32,
                                   seed=99, scheme=LOG_MILSTEIN)
        slope = loglog_slope(errs_m)
        assert 0.75 <= slope <= 1.25

    def test_direct_milstein_slope(self, p1_model):
        # the fine reference is log-Milstein, which shares no formula with the
        # direct step, so this catches a wrong direct Milstein term (half of
        # it gives a slope near 0.54) that the byte oracles would copy
        from varexp import loglog_slope, refinement_errors
        errs = refinement_errors(p1_model, [4e-3, 2e-3, 1e-3, 5e-4], ref_dt=1e-4,
                                 n_base_paths=32, seed=99, scheme=MILSTEIN)
        assert 0.75 <= loglog_slope(errs) <= 1.25
