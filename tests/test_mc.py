import math
import threading
import time

import numpy as np
import pytest
from scipy import stats

from pnormlab.errors import ConfigError, DomainError
from pnormlab.mc import (
    CustomSymmetric,
    MonteCarloPlan,
    StandardNormal,
    chunk_generator,
    empirical_upper_quantile,
    run_chunked,
    simulate_null_statistics,
)
from pnormlab.norms import SUP, Exponent
from pnormlab.workspace import thread_workspace


class TestPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MonteCarloPlan(replications=0, seed=1)
        with pytest.raises(ConfigError):
            MonteCarloPlan(replications=10, seed=1, chunk_size=0)
        with pytest.raises(ConfigError):
            MonteCarloPlan(replications=10, seed=-1)

    def test_chunk_bounds_partition(self):
        plan = MonteCarloPlan(replications=300, seed=1, chunk_size=128)
        bounds = plan.chunk_bounds()
        assert bounds == [(0, 0, 128), (1, 128, 128), (2, 256, 44)]
        assert plan.n_chunks == 3

    def test_descriptor_mentions_identity_fields(self):
        plan = MonteCarloPlan(replications=10, seed=7, chunk_size=4)
        for token in ("seed=7", "replications=10", "chunk_size=4", "standard_normal"):
            assert token in plan.descriptor()


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
        plan = MonteCarloPlan(replications=1000, seed=3, chunk_size=128)

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
        plan = MonteCarloPlan(replications=20 * 128, seed=3, chunk_size=128)
        serial = run_chunked(_chunk_id_task, plan, workers=1)
        assert run_chunked(_chunk_id_task, plan, workers=500) == serial
        assert requested == [3]
        assert run_chunked(_chunk_id_task, plan.with_replications(256), workers=500) == serial[:2]
        assert requested == [3, 2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        plan = MonteCarloPlan(replications=10, seed=1, chunk_size=4)
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

        plan = MonteCarloPlan(replications=100, seed=1, chunk_size=1)
        with pytest.raises(DomainError, match="chunk 0 failed"):
            run_chunked(task, plan, workers=2)
        # the chunks already running finish; the queued ones never start
        assert len(started) < 10

    def test_concurrent_chunks_get_distinct_workspaces(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        both_running = threading.Barrier(2, timeout=30)

        def task(chunk_index, start, size):
            ws = thread_workspace()
            both_running.wait()
            return ws

        plan = MonteCarloPlan(replications=2, seed=1, chunk_size=1)
        first, second = run_chunked(task, plan, workers=2)
        assert first is not second
        assert thread_workspace() not in (first, second)

    def test_closure_task_matches_serial(self):
        plan = MonteCarloPlan(replications=1000, seed=3, chunk_size=64)
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
    def test_bit_identical_for_fixed_plan(self):
        plan = MonteCarloPlan(replications=2000, seed=77, chunk_size=256)
        exps = (Exponent.finite(2.0), SUP)
        first = simulate_null_statistics(30, exps, plan)
        second = simulate_null_statistics(30, exps, plan)
        for e in exps:
            assert np.array_equal(first[e], second[e])

    def test_worker_count_invariance(self):
        plan = MonteCarloPlan(replications=1500, seed=13, chunk_size=128)
        exps = (Exponent.finite(1.0), Exponent.finite(2.0))
        seq = simulate_null_statistics(25, exps, plan, workers=1)
        par = simulate_null_statistics(25, exps, plan, workers=4)
        for e in exps:
            assert np.array_equal(seq[e], par[e])

    def test_extending_the_exponent_list_keeps_the_same_noise(self):
        # the noise a plan generates does not depend on which statistics are
        # evaluated on it, which is what makes shared-sample calibration valid
        plan = MonteCarloPlan(replications=800, seed=5, chunk_size=64)
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
    def test_custom_symmetric_accepts_symmetric_rule(self):
        sampler = CustomSymmetric(rule=_uniform_rule, name="uniform")
        plan = MonteCarloPlan(replications=500, seed=9, chunk_size=100, sampler=sampler)
        stats = simulate_null_statistics(10, (SUP,), plan)
        assert stats[SUP].shape == (500,)
        assert np.all(stats[SUP] <= 1.0)

    def test_custom_asymmetric_rule_rejected(self):
        with pytest.raises(DomainError):
            CustomSymmetric(rule=_exponential_rule, name="exponential")

    def test_standard_normal_out_buffer(self):
        rng = chunk_generator(1, 0)
        buf = np.empty((3, 4))
        out = StandardNormal().draw(rng, (3, 4), out=buf)
        assert out is buf


def _uniform_rule(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def _exponential_rule(rng, shape):
    return rng.exponential(size=shape)


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
