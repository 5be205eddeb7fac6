import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from varexp import (ExponentSpec, ModelSpec, SimConfig, eval_phi, simulate_batch,
                    simulate_coupled, simulate_coupled_stats, strong_error,
                    strong_error_from_stats, sup_second_moment, terminal_stats)
from varexp import (analysis, engine, gbm, increment_matrix, loglog_slope,
                    refinement_errors, run_with_increments)
from varexp.engine import EULER, LOG_MILSTEIN, MILSTEIN


@pytest.fixture(scope="module")
def coupled_pair(gbm_model, p1_model):
    cfg = SimConfig(t_horizon=1.0, dt=0.005, n_base_paths=500, seed=71)
    return simulate_coupled([gbm_model, p1_model], cfg, ["gbm", "p1"])


class TestStrongError:
    def test_identical_batches_zero(self, coupled_pair):
        a = coupled_pair[0]
        rep = strong_error(a, a)
        assert rep.strong_error == 0.0
        assert rep.ci_half_width == 0.0

    def test_symmetry(self, coupled_pair):
        a, b = coupled_pair
        assert strong_error(a, b).strong_error == strong_error(b, a).strong_error

    def test_report_fields(self, coupled_pair):
        a, b = coupled_pair
        rep = strong_error(a, b)
        assert rep.strong_error > 0
        assert rep.lambda_obs <= rep.r_obs
        assert rep.lambda_obs == min(a.values.min(), b.values.min())
        assert rep.r_obs == max(a.values.max(), b.values.max())
        assert rep.n_paths == a.values.shape[0]

    def test_shape_mismatch(self, coupled_pair, gbm_model):
        other = simulate_batch(gbm_model, SimConfig(t_horizon=1.0, dt=0.01,
                                                    n_base_paths=10, seed=71))
        with pytest.raises(ValueError):
            strong_error(coupled_pair[0], other)

    def test_uncoupled_batches_rejected(self, coupled_pair, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.005, n_base_paths=500, seed=72)
        other = simulate_batch(gbm_model, cfg)
        with pytest.raises(ValueError):
            strong_error(coupled_pair[0], other)

    def test_stats_path_matches_dense(self, gbm_model, p1_model):
        cfg = SimConfig(t_horizon=0.5, dt=0.01, n_base_paths=100, seed=13)
        dense = simulate_coupled([gbm_model, p1_model], cfg)
        stats = simulate_coupled_stats([gbm_model, p1_model], cfg)
        r1 = strong_error(dense[1], dense[0])
        r2 = strong_error_from_stats(stats, 1)
        assert r1.strong_error == r2.strong_error
        assert r1.ci_half_width == r2.ci_half_width
        assert r1.lambda_obs == r2.lambda_obs
        assert r1.r_obs == r2.r_obs

    @pytest.mark.parametrize("index", [0, 2, -1], ids=["reference", "past_last", "negative"])
    def test_stats_index_must_name_a_compared_model(self, gbm_model, p1_model, index):
        cfg = SimConfig(t_horizon=0.5, dt=0.1, n_base_paths=4, seed=13)
        stats = simulate_coupled_stats([gbm_model, p1_model], cfg)
        with pytest.raises(ValueError, match="model_index must point past the reference"):
            strong_error_from_stats(stats, index)

    @pytest.mark.parametrize("reductions", [{"extrema"}, {"sup_diffs"}],
                             ids=["no_sup_diffs", "no_extrema"])
    def test_stats_without_its_reductions_rejected(self, gbm_model, p1_model, reductions):
        cfg = SimConfig(t_horizon=0.5, dt=0.01, n_base_paths=10, seed=13)
        stats = simulate_coupled_stats([gbm_model, p1_model], cfg, reductions=reductions)
        with pytest.raises(ValueError, match="needs the sup_diffs and extrema reductions"):
            strong_error_from_stats(stats, 1)
        both = simulate_coupled_stats([gbm_model, p1_model], cfg,
                                      reductions={"sup_diffs", "extrema"})
        assert strong_error_from_stats(both, 1) == strong_error_from_stats(
            simulate_coupled_stats([gbm_model, p1_model], cfg), 1)

    def test_sups_stream_in_row_blocks(self, gbm_model, p1_model):
        # the per-path sups take a block of rows at a time: no temporary the
        # size of a batch's values (one pass over the batch peaked at 2.00x)
        cfg = SimConfig(t_horizon=1.0, dt=1e-3, n_base_paths=2000, seed=5)
        a, b = simulate_coupled([gbm_model, p1_model], cfg)
        tracemalloc.start()
        try:
            rep = strong_error(b, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * a.values.nbytes
        sups = np.max(np.abs(b.values - a.values), axis=1)
        assert rep == analysis._report(sups, True, min(a.values.min(), b.values.min()),
                                       max(a.values.max(), b.values.max()))

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_same_report_however_blocked(self, coupled_pair, order):
        # a dense batch's values are Fortran-ordered, one contiguous column
        # per step; a C-ordered copy is read over strided columns
        a, b = coupled_pair
        sups = np.max(np.abs(b.values - a.values), axis=1)
        want = analysis._report(sups, True, min(a.values.min(), b.values.min()),
                                max(a.values.max(), b.values.max()))
        a, b = (replace(x, values=np.array(x.values, order=order)) for x in (a, b))
        assert a.values.flags[f"{order}_CONTIGUOUS"]
        assert strong_error(b, a) == want

    def test_error_shrinks_with_deviation(self, gbm_model):
        # scaling the rational-decay coefficient down shrinks the coupled
        # error monotonically on matched seeds
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=200, seed=55)
        errors = []
        for c in (1e-3, 1e-4, 1e-5):
            m = ModelSpec(mu=0.05, sigma=0.2, exponent=ExponentSpec.rational_decay(c))
            batches = simulate_coupled([gbm_model, m], cfg)
            errors.append(strong_error(batches[1], batches[0]).strong_error)
        assert errors[0] > errors[1] > errors[2]


class TestEmptyBatch:
    """A zero-path batch from run_with_increments has no statistics."""

    @pytest.mark.parametrize("reduce", [sup_second_moment, terminal_stats, pytest.param(
        lambda batch: strong_error(batch, batch), id="strong_error")])
    def test_rejected(self, gbm_model, reduce):
        cfg = SimConfig(t_horizon=1.0, dt=0.25, n_base_paths=1, seed=0)
        batch = run_with_increments(gbm_model, cfg, np.empty((0, cfg.n_steps)))
        with pytest.raises(ValueError, match="empty batch"):
            reduce(batch)


class TestSupSecondMoment:
    def test_deterministic_growth(self):
        m = ModelSpec(mu=0.05, sigma=0.0, exponent=ExponentSpec.constant(1.0))
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=4, seed=3)
        b = simulate_batch(m, cfg)
        assert sup_second_moment(b) == pytest.approx(math.exp(0.1), rel=1e-10)

    def test_constant_path(self):
        m = ModelSpec(mu=0.0, sigma=0.0, exponent=ExponentSpec.constant(1.0))
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=4, seed=3)
        assert sup_second_moment(simulate_batch(m, cfg)) == pytest.approx(1.0, rel=1e-12)

    def test_dominates_terminal_square(self, coupled_pair):
        b = coupled_pair[0]
        assert sup_second_moment(b) >= float(np.mean(b.terminal**2))


class TestTerminalStats:
    def test_gbm_moments(self, gbm_model):
        cfg = SimConfig(t_horizon=1.0, dt=0.005, n_base_paths=10000, seed=77)
        ts = terminal_stats(simulate_batch(gbm_model, cfg))
        se = math.sqrt(ts.variance / 20000)
        assert abs(ts.mean - math.exp(0.05)) < 3 * se
        # lognormal variance e^{2 mu}(e^{sigma^2}-1), frozen: 0.0451029
        assert ts.variance == pytest.approx(0.0451029, rel=0.10)

    def test_histogram_shape(self, coupled_pair):
        ts = terminal_stats(coupled_pair[0])
        assert ts.counts.sum() == coupled_pair[0].values.shape[0]
        assert len(ts.bin_edges) == 65
        assert ts.bin_edges[0] == ts.min and ts.bin_edges[-1] == ts.max

    def test_point_mass(self):
        m = ModelSpec(mu=0.0, sigma=0.0, exponent=ExponentSpec.constant(1.0))
        cfg = SimConfig(t_horizon=1.0, dt=0.1, n_base_paths=8, seed=3)
        ts = terminal_stats(simulate_batch(m, cfg))
        assert ts.variance == 0.0
        assert ts.counts.sum() == 16


class TestDiffusionRange:
    """The range of x^p(x) over a batch's visited states."""

    def test_identity_map(self, gbm_model, coupled_pair):
        phi = eval_phi(gbm_model.exponent, coupled_pair[0].values.ravel())
        assert phi.min() == coupled_pair[0].values.min()
        assert phi.max() == coupled_pair[0].values.max()

    def test_unit_constant_path(self, p1_model):
        m = ModelSpec(mu=0.0, sigma=0.0, exponent=p1_model.exponent)
        cfg = SimConfig(t_horizon=1.0, dt=0.1, n_base_paths=2, seed=3)
        phi = eval_phi(m.exponent, simulate_batch(m, cfg).values.ravel())
        assert phi.min() == pytest.approx(1.0, abs=1e-12)
        assert phi.max() == pytest.approx(1.0, abs=1e-12)

    def test_finite_and_ordered(self, coupled_pair, p1_model):
        phi = eval_phi(p1_model.exponent, coupled_pair[1].values.ravel())
        assert 0 < phi.min() < phi.max() < math.inf


def _dense_refinement(m, coarse_dts, ref_dt, n_base_paths, seed, x0, scheme, antithetic):
    """refinement_errors as it was with dense paths: a full fine reference
    and full coarse runs, compared at every coarse-grid point they share."""
    sim = dict(t_horizon=1.0, n_base_paths=n_base_paths, seed=seed,
               antithetic=antithetic, x0=x0)
    fine_cfg = SimConfig(dt=ref_dt, scheme=LOG_MILSTEIN, **sim)
    # C order: the block sums below reduce contiguous rows, as the engine's
    # path-major fine blocks do (on the Fortran-ordered matrix numpy would
    # sum in another order, and the oracle's own last bits would change)
    dw_fine = np.ascontiguousarray(increment_matrix(fine_cfg))
    ref = run_with_increments(m, fine_cfg, dw_fine, "reference")
    shared_n = round(1.0 / max(coarse_dts))
    out = []
    for dtc in coarse_dts:
        mult, nc = round(dtc / ref_dt), round(1.0 / dtc)
        dwc = dw_fine[:, :nc * mult].reshape(dw_fine.shape[0], nc, mult).sum(axis=2)
        coarse = run_with_increments(m, SimConfig(dt=dtc, scheme=scheme, **sim), dwc, "coarse")
        stride_c = nc // shared_n
        diff = np.abs(coarse.values[:, ::stride_c] - ref.values[:, ::mult * stride_c])
        per_path = diff.max(axis=1)
        n = per_path.size // 2
        sample = 0.5 * (per_path[:n] + per_path[n:]) if antithetic else per_path
        out.append((dtc, float(sample.mean())))
    return out


class TestValuesLayout:
    """Dense values are a transposed view of step-major storage: the
    analysis layer reads the same bits from it as from a C-ordered copy."""

    @staticmethod
    def _bits(a, b):
        rep, ts = strong_error(a, b), terminal_stats(b)
        floats = (rep.strong_error, rep.ci_half_width, rep.lambda_obs, rep.r_obs,
                  sup_second_moment(b), ts.mean, ts.variance, ts.min, ts.max)
        return [v.hex() for v in floats] + [ts.bin_edges.tobytes(), ts.counts.tobytes()]

    @pytest.mark.parametrize("scheme", [LOG_MILSTEIN, EULER])
    def test_view_and_copy_give_the_same_bits(self, gbm_model, p1_model, scheme):
        cfg = SimConfig(t_horizon=1.0, dt=0.01, n_base_paths=300, seed=29, scheme=scheme)
        view = simulate_coupled([gbm_model, p1_model], cfg, ["gbm", "p1"])
        copy = [replace(b, values=np.ascontiguousarray(b.values)) for b in view]
        assert view[1].values.flags.f_contiguous and not view[1].values.flags.c_contiguous
        assert view[1].terminal.flags.c_contiguous
        for a, b in ((0, 1), (1, 0)):
            assert self._bits(view[a], view[b]) == self._bits(copy[a], copy[b])


class TestRefinementErrors:
    DTS = [4e-3, 2e-3, 1e-3]

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
    @pytest.mark.parametrize("scheme", [LOG_MILSTEIN, EULER, MILSTEIN])
    def test_equals_dense_oracle(self, p1_model, scheme, antithetic):
        m = ModelSpec(0.05, 0.5, ExponentSpec.exp_decay(0.5, 1.0))
        for model, x0 in ((p1_model, 1.0), (m, 1.7)):
            args = (model, self.DTS, 2.5e-4, 16, 3)
            got = refinement_errors(*args, x0=x0, scheme=scheme, antithetic=antithetic)
            want = _dense_refinement(*args, x0, scheme, antithetic)
            assert [(d.hex(), e.hex()) for d, e in got] == \
                [(d.hex(), e.hex()) for d, e in want]

    def test_keeps_only_the_shared_grid(self, p1_model):
        # no O(paths x fine steps) array is held: the fine increments stream
        # in blocks, and the coarse increments (0.175 of the fine bytes here)
        # and the coarsest grid's points are what the peak holds
        fine_bytes = 2 * 16 * 10_000 * 8
        np.random.Philox(0)  # imports numpy.random outside the traced region
        tracemalloc.start()
        try:
            refinement_errors(p1_model, self.DTS, ref_dt=1e-4, n_base_paths=16, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * fine_bytes

    # fine blocks of 16 steps (the coarsest level's multiple), of 64 (which
    # do not divide the 4000 fine steps) and of the whole run
    @pytest.mark.parametrize("block", [1, 70, 5000])
    def test_same_bytes_however_blocked(self, monkeypatch, p1_model, block):
        args = (p1_model, self.DTS, 2.5e-4, 16, 3)
        want = [(d.hex(), e.hex()) for d, e in refinement_errors(*args)]
        monkeypatch.setattr(engine, "_BLOCK_STEPS", block)
        assert [(d.hex(), e.hex()) for d, e in refinement_errors(*args)] == want

    def test_streams_under_the_memory_cap(self, monkeypatch, p1_model):
        args = (p1_model, self.DTS, 2.5e-4, 16, 3)
        want = [(d.hex(), e.hex()) for d, e in refinement_errors(*args)]
        fine_bytes = 2 * 16 * 4000 * 8  # the coarse increments take 0.4375 of it
        monkeypatch.setattr(engine, "MEMORY_CAP_BYTES", fine_bytes // 2)
        with pytest.raises(MemoryError):
            increment_matrix(SimConfig(t_horizon=1.0, dt=2.5e-4, n_base_paths=16, seed=3))
        assert [(d.hex(), e.hex()) for d, e in refinement_errors(*args)] == want
        monkeypatch.setattr(engine, "MEMORY_CAP_BYTES", fine_bytes // 4)
        with pytest.raises(MemoryError, match="coarse increments"):
            refinement_errors(*args)

    # 0.3 is no multiple of 0.2, at a horizon of 6 or of 6e-9: the check is
    # relative, so it holds before any stepping at either scale
    @pytest.mark.parametrize("dts,ref_dt,t_horizon", [
        ([0.3, 0.2], 0.1, 6.0), ([3e-10, 2e-10], 1e-10, 6e-9)], ids=["unit", "nano"])
    def test_coarsest_not_a_multiple_rejected(self, dts, ref_dt, t_horizon):
        with pytest.raises(ValueError, match="coarsest dt must be a multiple of every level"):
            refinement_errors(gbm(0.05, 0.2), dts, ref_dt=ref_dt, n_base_paths=2, seed=1,
                              t_horizon=t_horizon)

    def test_level_not_a_multiple_of_ref_dt_rejected(self):
        with pytest.raises(ValueError, match="each coarse dt must be an integer multiple of "
                                             "ref_dt"):
            refinement_errors(gbm(0.05, 0.2), [0.25], ref_dt=0.1, n_base_paths=2, seed=1)

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="coarse_dts is empty"):
            refinement_errors(gbm(0.05, 0.2), [], ref_dt=0.1, n_base_paths=2, seed=1)

    @pytest.mark.parametrize("dts,ref_dt", [
        ([0.1], 0.0), ([0.0, 0.1], 0.05), ([math.inf], 0.1), ([0.1], -0.05),
        ([math.nan], 0.1), ([0.1], math.nan)],
        ids=["zero_ref", "zero_level", "inf_level", "negative_ref", "nan_level", "nan_ref"])
    def test_bad_step_sizes_rejected(self, dts, ref_dt):
        with pytest.raises(ValueError, match=r"ref_dt and coarse_dts must be positive and "
                                             r"finite, not .* and \["):
            refinement_errors(gbm(0.05, 0.2), dts, ref_dt=ref_dt, n_base_paths=2, seed=1)


class TestLoglogSlope:
    @pytest.mark.parametrize("pairs", [[], [(0.1, 0.01)], [(0.1, 0.01), (0.1, 0.02)]],
                             ids=["none", "one", "repeated"])
    def test_fewer_than_two_step_sizes_rejected(self, pairs):
        with pytest.raises(ValueError, match="at least two distinct step sizes"):
            loglog_slope(pairs)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("column,name", [(0, "step sizes"), (1, "errors")], ids=["dt", "error"])
    def test_non_positive_or_non_finite_rejected(self, column, name, bad):
        pairs = [[0.1, 0.01], [0.2, 0.04]]
        pairs[0][column] = bad
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            loglog_slope(pairs)
