import dataclasses
import gc
import math
import time
import tracemalloc
import weakref
from types import MappingProxyType

import numpy as np
import pytest
from scipy import stats

from pnormlab import mc
from pnormlab.consistency import custom_family, dense, power_sparse, semi_sparse, sparse
from pnormlab.engine import ConstantTest, PNormTest
from pnormlab.errors import ConfigError, DomainError
from pnormlab.mc import (
    MonteCarloPlan,
    chunk_generator,
    draw,
    empirical_upper_quantile,
    run_chunked,
    Unit,
    simulate_null_statistics,
    simulate_shifted,
)
from pnormlab.norms import SUP, Exponent, ShiftedNormKernel, _tile_rows, batch_norms
from pnormlab.power import estimate_rejection_many, power_curve


class TestPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MonteCarloPlan(replications=0, seed=1)
        with pytest.raises(ConfigError):
            MonteCarloPlan(replications=10, seed=-1)

    def test_chunk_bounds_partition(self):
        assert MonteCarloPlan(300, 1).chunk_bounds() == [(0, 0, 128), (1, 128, 128), (2, 256, 44)]
        assert MonteCarloPlan(300, 1).n_chunks == 3
        assert MonteCarloPlan(128, 1).chunk_bounds() == [(0, 0, 128)]
        assert MonteCarloPlan(1, 1).chunk_bounds() == [(0, 0, 1)]

    def test_plan_is_replications_and_seed(self):
        # the chunk size is fixed and the sampler is always the standard normal
        with pytest.raises(TypeError):
            MonteCarloPlan(300, 1, chunk_size=4)
        with pytest.raises(TypeError):
            MonteCarloPlan(300, 1, sampler=None)
        assert MonteCarloPlan(300, 1) == MonteCarloPlan(replications=300, seed=1)

    def test_descriptor_mentions_identity_fields(self):
        # the exact bytes are provenance: artifacts and manifests carry them
        plan = MonteCarloPlan(replications=10, seed=7)
        assert plan.descriptor() == "seed=7 replications=10 chunk_size=128 sampler=standard_normal"


class TestChunkStreams:
    def test_streams_are_independent_and_reproducible(self):
        a1 = chunk_generator(5, 0).standard_normal(4)
        a2 = chunk_generator(5, 0).standard_normal(4)
        b = chunk_generator(5, 1).standard_normal(4)
        c = chunk_generator(6, 0).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)


class TestRunChunked:
    def test_results_in_chunk_order_any_worker_count(self):
        plan = MonteCarloPlan(replications=40 * 128, seed=3)

        seq = run_chunked(_chunk_id_task, plan, workers=1)
        par = run_chunked(_chunk_id_task, plan, workers=4)
        assert seq == par == [(i, i * 128) for i in range(plan.n_chunks)]


    def test_workers_capped_at_cpu_count(self, monkeypatch):
        import os
        from concurrent.futures import ThreadPoolExecutor

        import pnormlab.mc as mc

        requested = []

        class RecordingPool(ThreadPoolExecutor):
            # records the pool size the driver asks for
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        plan = MonteCarloPlan(replications=20 * 128, seed=3)
        serial = run_chunked(_chunk_id_task, plan, workers=1)
        assert run_chunked(_chunk_id_task, plan, workers=500) == serial
        assert requested == [3]
        assert run_chunked(_chunk_id_task, plan.with_replications(256), workers=500) == serial[:2]
        assert requested == [3, 2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        plan = MonteCarloPlan(replications=10, seed=1)
        with pytest.raises(ConfigError):
            run_chunked(_chunk_id_task, plan, workers=workers)

    def test_first_failing_chunk_stops_the_run(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        started = []

        def task(chunk_index, start, size):
            started.append(chunk_index)
            if chunk_index == 0:
                raise DomainError("chunk 0 failed")
            time.sleep(0.05)
            return chunk_index

        # 100 chunks; their tasks draw nothing, so many chunks stay cheap
        plan = MonteCarloPlan(replications=100 * 128, seed=1)
        with pytest.raises(DomainError, match="chunk 0 failed"):
            run_chunked(task, plan, workers=2)
        # the chunks already running finish; the queued ones never start
        assert len(started) < 10

    def test_closure_task_matches_serial(self):
        plan = MonteCarloPlan(replications=300, seed=3)
        weights = np.linspace(-1.0, 1.0, 40)

        def task(chunk_index, start, size):
            eps = chunk_generator(plan.seed, chunk_index).standard_normal((size, 40))
            return eps @ weights

        serial = run_chunked(task, plan, workers=1)
        threaded = run_chunked(task, plan, workers=2)
        assert len(serial) == len(threaded) == plan.n_chunks
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


def _chunk_id_task(chunk_index, start, size):
    return (chunk_index, start)


class TestSimulateNullStatistics:
    # 300 replications in chunks of 128 leave a short last chunk of 44 rows;
    # 2.5 and 55.598 are off the integer multiply chain
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_batch_norms_of_directly_drawn_chunks(self, workers):
        d = 37
        plan = MonteCarloPlan(replications=300, seed=21)
        exps = (Exponent.finite(2.5), Exponent.finite(55.598), SUP)
        got = simulate_null_statistics(d, exps, plan, workers=workers)
        chunks = [chunk_generator(plan.seed, c).standard_normal((size, d))
                  for c, _, size in plan.chunk_bounds()]
        assert chunks[-1].shape == (44, d)
        for e in exps:
            want = np.concatenate([batch_norms(eps, exps)[e] for eps in chunks])
            assert np.array_equal(got[e], want)

    def test_bit_identical_for_fixed_plan(self):
        plan = MonteCarloPlan(replications=300, seed=77)
        exps = (Exponent.finite(2.0), SUP)
        first = simulate_null_statistics(30, exps, plan)
        second = simulate_null_statistics(30, exps, plan)
        for e in exps:
            assert np.array_equal(first[e], second[e])

    def test_worker_count_invariance(self):
        plan = MonteCarloPlan(replications=300, seed=13)
        exps = (Exponent.finite(1.0), Exponent.finite(2.0))
        seq = simulate_null_statistics(25, exps, plan, workers=1)
        par = simulate_null_statistics(25, exps, plan, workers=4)
        for e in exps:
            assert np.array_equal(seq[e], par[e])

    def test_extending_the_exponent_list_keeps_the_same_noise(self):
        # the noise a plan generates does not depend on which statistics are
        # evaluated on it, which is what makes shared-sample calibration valid
        plan = MonteCarloPlan(replications=300, seed=5)
        small = simulate_null_statistics(20, (Exponent.finite(2.0),), plan)
        big = simulate_null_statistics(
            20, (Exponent.finite(2.0), Exponent.finite(4.0), SUP), plan
        )
        assert np.array_equal(small[Exponent.finite(2.0)], big[Exponent.finite(2.0)])

    def test_domain(self):
        plan = MonteCarloPlan(replications=100, seed=1)
        with pytest.raises(DomainError):
            simulate_null_statistics(0, (SUP,), plan)
        with pytest.raises(DomainError):
            simulate_null_statistics(5, (), plan)


class TestChunkPassFootprint:
    def test_traced_peak_stays_below_five_tile_buffers(self):
        # a dense shift (a full pass) and a sparse one on 160 = 128 + 32
        # rows.  At d = 70000 a tile is one row (560 KB), and a chunk holds
        # one block of four; one whole 128-row chunk would be 71.7 MB
        d = 70_000
        plan = MonteCarloPlan(replications=160, seed=4)
        ones = Unit.from_runs([1.0], [d])
        shifts = [(ones, 0.0), (ones, 0.01), (Unit.from_runs([1.0, 0.0], [5, d - 5]), 1.0)]
        exps = (Exponent.finite(2.0), Exponent.finite(2.5), SUP)
        tile_bytes = _tile_rows(d) * d * 8
        tracemalloc.start()
        try:
            simulate_shifted(shifts, exps, plan, lambda norms, first: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the lower bound shows that numpy's buffers are traced at all
        assert 4 * tile_bytes <= peak < 5 * tile_bytes, peak

    @pytest.mark.parametrize("family", [dense(), sparse()], ids=["dense", "sparse"])
    def test_power_curve_peak_does_not_grow_with_the_scales(self, family):
        # a curve holds one dense unit row, or a sparse unit's support, for
        # all its scales: 30 more scales cost less than one more d-row, where
        # a (scales, d) matrix of shifts would cost 30 (16.8 MB)
        d = 70_000
        plan = MonteCarloPlan(replications=32, seed=4)
        tests = [PNormTest(d, Exponent.finite(2.0), math.sqrt(d) + 2.0, 0.05),
                 PNormTest(d, SUP, 4.5, 0.05)]
        peaks = []
        for points in (2, 32):
            tracemalloc.start()
            try:
                power_curve(tests, family, np.linspace(0.0, 1.0, points), d, plan)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] + d * 8, peaks


class TestUnit:
    @pytest.mark.parametrize("family", [
        dense(), sparse(), semi_sparse(), power_sparse(4.0),
        custom_family(lambda n: (np.arange(n) % 7 == 0) * (1.0 + np.arange(n) % 3)),
    ], ids=lambda f: f.label)
    @pytest.mark.parametrize("d", [100, 10_000])
    def test_runs_and_vector_give_one_unit(self, family, d):
        theta = family.theta(d)
        # a mean vector is the runs of its entries, one each
        runs, vector = Unit.from_runs(*family.runs(d)), Unit.from_runs(theta, np.ones(d))
        assert (runs.d, runs.size) == (vector.d, vector.size) == (d, np.count_nonzero(theta))
        assert (runs.support is None) == (vector.support is None)
        if runs.support is not None:
            assert np.array_equal(runs.support, vector.support)
            assert runs.support.dtype == vector.support.dtype == np.intp
        assert np.array_equal(runs.values, vector.values)
        coords = np.array([d - 1, 0, 1, 7, d // 2])
        assert np.array_equal(runs.at(coords), theta[coords])

    def test_shifts_of_two_dimensions_are_refused(self):
        shifts = [(Unit.from_runs([1.0], [50]), 1.0), (Unit.from_runs([1.0], [60]), 1.0)]
        with pytest.raises(DomainError, match=r"\[50, 60\]"):
            simulate_shifted(shifts, (SUP,), MonteCarloPlan(10, 1), lambda norms, first: None)

    def test_size_counts_the_nonzero_entries_it_was_given(self):
        # a dense unit keeps its zeros in its row; size is not stored
        half = Unit.from_runs([0.0, 2.0], [50, 50])
        assert half.support is None and half.size == 50
        assert [f.name for f in dataclasses.fields(Unit)] == ["d", "support", "values"]

    def test_zero_unit_has_an_empty_support(self):
        zero = Unit.from_runs([0.0], [50])
        assert zero.size == 0 and zero.support.size == 0
        assert np.array_equal(zero.at(np.array([0, 49])), [0.0, 0.0])

    def test_refuses_a_matrix(self):
        # a rejection estimate refuses a mean vector it cannot build a unit of
        for theta in (np.zeros((2, 5)), np.zeros(0)):
            with pytest.raises(DomainError, match="one-dimensional"):
                estimate_rejection_many([ConstantTest(d=5)], theta, MonteCarloPlan(10, 1))[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_entry(self, bad):
        theta = np.zeros(50)
        theta[3] = bad
        with pytest.raises(DomainError, match="finite"):
            Unit.from_runs(theta, np.ones(50))
        with pytest.raises(DomainError, match="finite"):
            Unit.from_runs([0.0, bad, 0.0], [3, 1, 46])


class TestShiftRouting:
    @staticmethod
    def _kernels(monkeypatch, shifts):
        """The support size of every kernel one chunk pass builds."""
        made = []
        kernel = mc.ShiftedNormKernel

        def spy(rows, support, exps):
            made.append(len(support))
            return kernel(rows, support, exps)

        monkeypatch.setattr(mc, "ShiftedNormKernel", spy)
        simulate_shifted(shifts, (SUP,), MonteCarloPlan(10, 1), lambda norms, first: None)
        return sorted(made)

    def test_support_block_is_capped_at_the_chunk_block(self, monkeypatch):
        # at d = 1e4 a tile is 6 rows: a 128-row support block fits the
        # chunk's 4 x 6 x 1e4 block up to 1875 columns, below the 20 % share
        d = 10_000
        assert _tile_rows(d) == 6
        assert mc._joins_sparse_kernel(1875, d) and not mc._joins_sparse_kernel(1876, d)
        units = [Unit.from_runs([1.0, 0.0], [k, d - k]) for k in (1875, 1876, 2000)]
        assert [u.support is None for u in units] == [False, True, True]
        shifts = [(u, 0.5) for u in units] + [(units[2], 0.0)]
        # the zero-scale shift joins the sparse kernel; the others get full passes
        assert self._kernels(monkeypatch, shifts) == [0, 0, 1875]

    def test_support_share_binds_at_small_d(self, monkeypatch):
        d = 100
        assert mc._joins_sparse_kernel(20, d) and not mc._joins_sparse_kernel(21, d)
        shifts = [(Unit.from_runs([1.0, 0.0], [k, d - k]), 1.0) for k in (20, 21, 3)]
        # the 3-coordinate shift joins the 20-coordinate kernel
        assert self._kernels(monkeypatch, shifts) == [0, 20]

    def test_stock_families_keep_their_kernels_up_to_d_1e7(self):
        assert Unit.from_runs(*semi_sparse().runs(10**7)).size == 197
        for d in (16, 10**3, 10**4, 70_000, 10**6, 10**7):
            assert Unit.from_runs(*dense().runs(d)).support is None
            for family in (sparse(), semi_sparse(), power_sparse(4.0)):
                assert Unit.from_runs(*family.runs(d)).support is not None


class TestTiledDraws:
    # 300 replications leave a 44-row last chunk (2).  At d = 5000 a 128-row
    # chunk is 9 x 13 + 11 rows and the last one 3 x 13 + 5; d = 512 is one
    # tile per chunk; d = 70000 > 65536 draws one row at a time (only the
    # last chunk, which keeps the whole-chunk reference at 24 MiB)
    @pytest.mark.parametrize("d, chunks", [(5000, (0, 1, 2)), (512, (0, 2)), (70_000, (2,))])
    def test_tile_draws_equal_the_whole_chunk_draw(self, d, chunks):
        plan = MonteCarloPlan(replications=300, seed=8)
        tile = _tile_rows(d)
        buf = np.empty((tile, d))
        for c in chunks:
            _, _, size = plan.chunk_bounds()[c]
            rng = chunk_generator(plan.seed, c)
            tiles = []
            for lo in range(0, size, tile):
                shape = (min(tile, size - lo), d)
                tiles.append(draw(rng, buf[: shape[0]]).copy())
            whole = chunk_generator(plan.seed, c).standard_normal((size, d))
            assert np.array_equal(np.concatenate(tiles), whole)
        assert plan.chunk_bounds()[2][2] == 44

    @pytest.mark.parametrize("workers", [1, 2])
    def test_visit_columns_are_the_directly_drawn_noise(self, workers, monkeypatch):
        # first is eps[:, 0] + theta_0 for a dense unit, a sparse unit whose
        # support holds 0 and one whose support does not; d = 5000 puts
        # several tiles in each chunk, 300 rows a 44-row last one
        d = 5000
        plan = MonteCarloPlan(replications=300, seed=6)
        ones = Unit.from_runs([1.0], [d])
        on_0 = Unit.from_runs([2.0, 0.0], [3, d - 3])
        off_0 = Unit.from_runs([0.0, 3.0, 0.0], [10, 5, d - 15])
        assert ones.support is None
        assert 0 in on_0.support and 0 not in off_0.support
        shifts = [(ones, 0.0), (ones, 0.5), (on_0, 1.5), (off_0, 2.0)]
        theta_0 = (0.0, 0.5, 3.0, 0.0)
        store = {}
        got = simulate_shifted(shifts, (SUP,), plan, lambda norms, first: first,
                               workers=workers, store=store)
        for (c, _, size), chunk in zip(plan.chunk_bounds(), got):
            eps = chunk_generator(plan.seed, c).standard_normal((size, d))
            for first, t0 in zip(chunk, theta_0):
                assert np.array_equal(first, eps[:, 0] + t0)
        # a second pass on the same store draws nothing and gives the same bits
        drawn = []
        monkeypatch.setattr(mc, "draw", lambda rng, out: drawn.append(out.shape))
        again = simulate_shifted(shifts, (SUP,), plan, lambda norms, first: first,
                                 workers=workers, store=store)
        assert drawn == []
        for chunk, chunk_again in zip(got, again):
            for first, first_again in zip(chunk, chunk_again):
                assert np.array_equal(first, first_again)
        # a kernel's own column: y[:, 0] of the rows it was handed, plus
        # values[0] when its support starts at coordinate 0
        eps = chunk_generator(plan.seed, 2).standard_normal((44, d))
        scratch = np.empty((3, 44, d))
        for (unit, scale), t0 in zip(shifts[2:], theta_0[2:]):
            kernel = ShiftedNormKernel(44, unit.support, (SUP,))
            kernel.fill(0, eps, scratch)
            assert np.array_equal(kernel.first_at(scale * unit.values), eps[:, 0] + t0)
        kernel = ShiftedNormKernel(44, [], (SUP,))
        kernel.fill(0, eps + 0.5 * ones.values, scratch)
        assert np.array_equal(kernel.first_at(np.empty(0)), eps[:, 0] + 0.5)


class TestKernelStore:
    d = 200
    plan = MonteCarloPlan(replications=300, seed=9)
    exps = (Exponent.finite(2.0), SUP)

    def _shifts(self):
        # a full pass and a sparse kernel
        ones, spike = Unit.from_runs([1.0], [self.d]), Unit.from_runs([1.0, 0.0], [3, self.d - 3])
        return [(ones, 0.5), (spike, 2.0)]

    def _pass(self, shifts, store):
        return simulate_shifted(shifts, self.exps, self.plan,
                                lambda norms, first: (norms, first), store=store)

    @staticmethod
    def _same(a, b):
        flat = lambda got: [x for chunk in got for norms, first in chunk
                            for x in (*norms.values(), first)]
        a, b = flat(a), flat(b)
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_every_key_of_a_filled_store_names_a_kernel(self):
        store = {}
        self._pass(self._shifts(), store)
        assert len(store) == 2 * self.plan.n_chunks
        for (seed, chunk, rows, d, exps, _), kernel in store.items():
            assert isinstance(kernel, ShiftedNormKernel)
            assert (seed, d, exps) == (self.plan.seed, self.d, self.exps)
            assert (chunk, rows) in {(c, size) for c, _, size in self.plan.chunk_bounds()}

    def test_a_read_only_mapping_is_read_and_never_grows(self, monkeypatch):
        shifts = self._shifts()
        store = {}
        want = self._pass(shifts, store)
        keys = set(store)
        drawn = []
        real = mc.draw
        monkeypatch.setattr(mc, "draw", lambda rng, out: drawn.append(1) or real(rng, out))
        # every kernel is there: nothing is drawn
        assert self._same(self._pass(shifts, MappingProxyType(store)), want)
        assert drawn == []
        # a new shift's kernel is missing: the chunks are drawn, nothing is added
        extra = shifts + [(Unit.from_runs([0.0, 1.0], [190, 10]), 1.0)]
        got = self._pass(extra, MappingProxyType(store))
        assert drawn and set(store) == keys
        assert self._same(got, self._pass(extra, None))

    def test_no_store_keeps_nothing(self, monkeypatch):
        # a chunk's kernels are dropped before the next chunk fills its own
        made, live = [], []

        def spy(*args):
            kernel = ShiftedNormKernel(*args)
            made.append(weakref.ref(kernel))
            return kernel

        def visit(norms, first):
            gc.collect()
            live.append(sum(ref() is not None for ref in made))

        monkeypatch.setattr(mc, "ShiftedNormKernel", spy)
        simulate_shifted(self._shifts(), self.exps, self.plan, visit, store=None)
        assert len(made) == 2 * self.plan.n_chunks
        assert live == [2, 2] * self.plan.n_chunks


class TestEmpiricalUpperQuantile:
    def test_order_statistic_definition(self):
        values = np.arange(1.0, 101.0)  # 1..100
        # k = ceil(100 * 0.95) = 95 -> the 95th smallest
        assert empirical_upper_quantile(values, 0.05) == 95.0
        # non-integer R(1-alpha): k = ceil(100 * 0.937) = 94
        assert empirical_upper_quantile(values, 0.063) == 94.0

    def test_conservative_size_control(self, rng):
        values = rng.normal(size=997)
        alpha = 0.07
        q = empirical_upper_quantile(values, alpha)
        emp = np.mean(values >= q)
        assert emp <= alpha + 1.0 / values.size + 1e-12
        assert emp > alpha - 1.0 / values.size - 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            empirical_upper_quantile(np.array([]), 0.05)
        with pytest.raises(DomainError):
            empirical_upper_quantile(np.ones(5), 1.5)


class TestSamplers:
    def test_standard_normal_out_buffer(self):
        rng = chunk_generator(1, 0)
        buf = np.empty((3, 4))
        out = draw(rng, buf)
        assert out is buf
        assert np.array_equal(buf, chunk_generator(1, 0).standard_normal((3, 4)))


class TestHalfNormalOracle:
    def test_dimension_one_sup_calibration(self):
        # at d = 1 the sup statistic is |N(0,1)|; its (1-alpha) quantile is
        # the normal quantile at 1 - alpha/2
        from pnormlab.engine import mc_calibrate

        alpha = 0.3
        plan = MonteCarloPlan(replications=100_000, seed=42)
        sched = mc_calibrate(SUP, 1, alpha, plan)
        exact = stats.norm.ppf(1.0 - alpha / 2.0)
        density = 2.0 * stats.norm.pdf(exact)
        se = math.sqrt(alpha * (1 - alpha) / plan.replications) / density
        assert abs(sched.critical_value - exact) <= 3.0 * se
