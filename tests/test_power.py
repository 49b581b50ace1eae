import math
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from scipy import stats as sps

from pnormlab import engine, mc
from pnormlab import power as plab
from pnormlab.consistency import custom_family, dense, semi_sparse, sparse
from pnormlab.engine import (
    ConstantTest,
    EnhancedTest,
    PNormTest,
    build_combined,
    geometric_budget,
    mc_calibrate,
    member_exponents,
    reject_matrix,
)
from pnormlab.errors import ConfigError, DomainError, RankError
from pnormlab.mc import MonteCarloPlan, Unit, chunk_generator
from pnormlab.norms import SUP, Exponent, _tile_rows
from pnormlab.power import (
    _counts,
    auto_a_grid,
    default_gap_grid,
    enhancement_demo,
    estimate_rejection_many,
    pe_demo,
    power_curve,
    power_gap_scan,
    regression_reduce,
)

E2 = Exponent.finite(2.0)


class TestEstimateRejection:
    def test_always_reject(self):
        # every norm reaches a zero critical value
        plan = MonteCarloPlan(replications=500, seed=1)
        test = PNormTest(d=20, exponent=E2, critical_value=0.0, alpha=0.05)
        rate, se = estimate_rejection_many([test], 0, plan)[0]
        assert rate == 1.0 and se == 0.0

    def test_size_matches_level(self):
        plan = MonteCarloPlan(replications=20_000, seed=2)
        test = mc_calibrate(E2, 80, 0.1, plan)
        vplan = MonteCarloPlan(replications=20_000, seed=3)
        rate, se = estimate_rejection_many([test], 0, vplan)[0]
        assert abs(rate - 0.1) <= 3.0 * se

    def test_noncentral_chi_square_oracle(self):
        d = 50
        plan = MonteCarloPlan(replications=100_000, seed=4)
        test = mc_calibrate(E2, d, 0.05, plan)
        theta = np.zeros(d)
        theta[0] = 5.0
        rate, se = estimate_rejection_many(
            [test], theta, MonteCarloPlan(replications=100_000, seed=5)
        )[0]
        exact = float(sps.ncx2.sf(test.critical_value**2, df=d, nc=25.0))
        assert abs(rate - exact) <= 3.0 * se

    def test_dimension_mismatch(self):
        plan = MonteCarloPlan(replications=500, seed=1)
        test = ConstantTest(d=20)
        with pytest.raises(DomainError):
            estimate_rejection_many([test], np.zeros(19), plan)[0]

    def test_empty_test_list(self):
        plan = MonteCarloPlan(replications=500, seed=1)
        with pytest.raises(DomainError):
            estimate_rejection_many([], 0, plan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean_is_refused(self, bad):
        # let through, a NaN entry reads as power 0 for both tests and an
        # infinite one as power 0 for the 2-norm test but 1 for the sup test
        plan = MonteCarloPlan(replications=500, seed=1)
        tests = [PNormTest(20, E2, 6.0, 0.05), PNormTest(20, SUP, 3.0, 0.05)]
        theta = np.zeros(20)
        theta[3] = bad
        with pytest.raises(DomainError, match="finite"):
            estimate_rejection_many(tests, theta, plan)

    def test_reproducible_and_worker_invariant(self):
        plan = MonteCarloPlan(replications=3000, seed=6)
        test = mc_calibrate(E2, 40, 0.05, plan)
        theta = np.full(40, 0.2)
        r1 = estimate_rejection_many([test], theta, plan, workers=1)[0]
        r2 = estimate_rejection_many([test], theta, plan, workers=4)[0]
        assert r1 == r2


@pytest.fixture(scope="module")
def suite():
    d = 400
    cal = MonteCarloPlan(replications=20_000, seed=7)
    tests = [
        mc_calibrate(Exponent.finite(1.0), d, 0.05, cal),
        mc_calibrate(E2, d, 0.05, cal),
        mc_calibrate(SUP, d, 0.05, cal),
    ]
    return d, tests


class TestPowerCurve:

    def test_null_column_shows_size(self, suite):
        d, tests = suite
        plan = MonteCarloPlan(replications=4000, seed=8)
        table = power_curve(tests, dense(), (0.0, 0.1), d, plan)
        for t in tests:
            power, _ = table.cell(t.label, 0.0)
            assert abs(power - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / 4000)

    def test_noisy_monotonicity_in_scale(self, suite):
        d, tests = suite
        plan = MonteCarloPlan(replications=3000, seed=9)
        for family, hi in ((dense(), 0.6), (sparse(), 8.0)):
            grid = tuple(np.linspace(0.0, hi, 9))
            table = power_curve(tests, family, grid, d, plan)
            for t in tests:
                cells = [table.cell(t.label, a) for a in grid]
                for (pa, sa), (pb, sb) in zip(cells, cells[1:]):
                    assert pb >= pa - 3.0 * (sa + sb)

    def test_incremental_path_matches_single_theta_estimates(self, suite):
        d, tests = suite
        plan = MonteCarloPlan(replications=3000, seed=10)
        fam = sparse()
        grid = (0.0, 2.0, 5.0)
        table = power_curve(tests, fam, grid, d, plan)
        for a in grid:
            direct = estimate_rejection_many(tests, fam.theta(d, a), plan)
            for t, (rate, _) in zip(tests, direct):
                assert abs(table.cell(t.label, a)[0] - rate) <= 1.0 / plan.replications + 1e-12

    def test_non_finite_family_is_refused(self, suite):
        # let through, a family of NaNs reads as power 0 at scale 1
        d, tests = suite
        family = custom_family(lambda n: np.full(n, math.nan))
        with pytest.raises(DomainError, match="finite"):
            power_curve(tests, family, (0.0, 1.0), d, MonteCarloPlan(replications=200, seed=12))

    def test_zero_signal_curve_is_the_null_rejection_rate(self, suite):
        # an all-zero signal has an empty support, so every scale takes the
        # incremental path with no coordinate to shift
        d, tests = suite
        plan = MonteCarloPlan(replications=2000, seed=12)
        grid = (0.0, 1.0, 5.0)
        table = power_curve(tests, custom_family(lambda n: np.zeros(n)), grid, d, plan)
        null = estimate_rejection_many(tests, 0, plan)
        for a in grid:
            for t, (rate, _) in zip(tests, null):
                assert table.cell(t.label, a)[0] == rate

    def test_csv_bytes(self, tmp_path):
        # each row's power and stderr are worked out from the cell's count
        cal = MonteCarloPlan(2000, 44)
        tests = [mc_calibrate(E2, 60, 0.05, cal), mc_calibrate(SUP, 60, 0.05, cal),
                 build_combined(60, (1.0, 2.0, 4.0), geometric_budget(3, 0.05), cal)]
        table = power_curve(tests, dense(), (0.0, 0.5, 1.0), 60, MonteCarloPlan(400, 45))
        assert table.counts[0] == (19, 159, 400)
        assert table.cell("sup", 1.0) == (0.46, math.sqrt(0.46 * (1.0 - 0.46) / 400))
        with pytest.raises(KeyError):
            table.cell("sup", 0.25)
        path = tmp_path / "t.csv"
        table.to_csv(path)
        assert path.read_bytes() == (
            b"test,family,a,d,power,stderr,replications\n"
            b"p=2,dense,0,60,0.0475,0.01063528914,400\n"
            b"p=2,dense,0.5,60,0.3975,0.02446904933,400\n"
            b"p=2,dense,1,60,1,0,400\n"
            b"sup,dense,0,60,0.0575,0.01163977556,400\n"
            b"sup,dense,0.5,60,0.1575,0.01821357667,400\n"
            b"sup,dense,1,60,0.46,0.02491987159,400\n"
            b"combined(m=3),dense,0,60,0.0525,0.01115165346,400\n"
            b"combined(m=3),dense,0.5,60,0.3975,0.02446904933,400\n"
            b"combined(m=3),dense,1,60,0.9925,0.004313858482,400\n"
        )

    def test_bit_identical_reruns_and_worker_invariance(self, suite, tmp_path):
        d, tests = suite
        plan = MonteCarloPlan(replications=2000, seed=11)
        grid = (0.0, 1.0, 3.0)
        t1 = power_curve(tests, sparse(), grid, d, plan, workers=1)
        t2 = power_curve(tests, sparse(), grid, d, plan, workers=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1)
        t2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_validation(self, suite):
        d, tests = suite
        plan = MonteCarloPlan(replications=1000, seed=1)
        with pytest.raises(DomainError):
            power_curve(tests, dense(), (0.5, 0.2), d, plan)
        with pytest.raises(DomainError):
            power_curve(tests, dense(), (-0.1, 0.2), d, plan)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                power_curve(tests, dense(), (0.0, bad), d, plan)

    def test_same_label_is_refused_before_drawing(self, suite, monkeypatch):
        # cells and series are keyed by label, so two p=2 tests would merge
        d, tests = suite
        import pnormlab.power as plab

        def no_draw(*args, **kwargs):
            raise AssertionError("power_curve drew noise")

        monkeypatch.setattr(plab, "simulate_shifted", no_draw)
        with pytest.raises(DomainError, match="distinct labels"):
            power_curve([tests[1], tests[1]], dense(), (0.0, 0.1), d,
                        MonteCarloPlan(replications=1000, seed=1))


class TestCounts:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_call_equals_single_shift_calls(self, suite, workers):
        d, tests = suite
        tests = tests + [EnhancedTest(tests[1])]  # reads coordinate 0
        plan = MonteCarloPlan(replications=600, seed=13)
        at_fraction = np.zeros(d)
        at_fraction[: d // 5] = np.linspace(0.1, 0.5, d // 5)
        above_fraction = np.zeros(d)
        above_fraction[: d // 5 + 1] = 0.2
        same_support = np.zeros((2, d))
        same_support[:, [5, 100, 300]] = [[1.0, 2.0, 3.0], [3.0, -1.0, 0.5]]
        shifts = [
            np.zeros(d),
            np.full(d, 0.1),
            same_support[0],
            same_support[1],
            semi_sparse().theta(d, 1.5),
            at_fraction,
            above_fraction,
        ]
        shifts = [(Unit.from_runs(theta, np.ones(d)), 1.0) for theta in shifts]
        got = _counts(tests, shifts, plan, workers)
        want = np.vstack([_counts(tests, [shift], plan, 1) for shift in shifts])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dense_shift_equals_reject_matrix_on_the_same_chunks(self, suite, workers):
        d, tests = suite
        tests = [tests[1], tests[2], EnhancedTest(tests[1])]  # p=2, sup, enhanced
        plan = MonteCarloPlan(replications=300, seed=17)
        theta = np.full(d, 0.1)
        want = sum(
            reject_matrix(tests, chunk_generator(plan.seed, c).standard_normal((size, d)) + theta)
            .sum(axis=1)
            for c, _, size in plan.chunk_bounds()
        )
        unit = Unit.from_runs(theta, np.ones(d))
        assert np.array_equal(_counts(tests, [(unit, 1.0)], plan, workers)[0], want)


class TestAutoGrid:
    def test_reaches_target_power(self):
        d = 300
        cal = MonteCarloPlan(replications=10_000, seed=12)
        tests = [mc_calibrate(E2, d, 0.05, cal)]
        plan = MonteCarloPlan(replications=2000, seed=13)
        grid = auto_a_grid(tests, dense(), plan)
        assert grid[0] == 0.0 and len(grid) == 32
        rate, _ = estimate_rejection_many([tests[0]], dense().theta(d, grid[-1]), plan)[0]
        assert rate >= 0.95

    def test_deterministic(self):
        d = 300
        cal = MonteCarloPlan(replications=10_000, seed=12)
        tests = [mc_calibrate(E2, d, 0.05, cal)]
        plan = MonteCarloPlan(replications=2000, seed=13)
        grid = auto_a_grid(tests, dense(), plan)
        assert auto_a_grid(tests, dense(), plan) == grid
        # and it is the grid a curve on the auto grid takes
        table = power_curve(tests, dense(), None, d, plan)
        assert table.scales == grid

    def test_tests_of_two_dimensions_are_refused(self):
        plan = MonteCarloPlan(replications=400, seed=13)
        tests = [ConstantTest(d=300), ConstantTest(d=200)]
        with pytest.raises(DomainError, match="one dimension"):
            auto_a_grid(tests, dense(), plan)


def _spy_passes(monkeypatch, step):
    """Record ``step(kwargs)`` after every `simulate_shifted` call that
    `power` makes, in call order."""
    seen = []
    real = plab.simulate_shifted

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(step(kwargs))
        return out

    monkeypatch.setattr(plab, "simulate_shifted", spy)
    return seen


class TestAutoGridStore:
    """``power_curve(..., None, ...)``: the auto-grid probes and the curve
    share the kernels the probes fill."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reps", [256, 1000])
    @pytest.mark.parametrize("family", [dense(), sparse(), semi_sparse()],
                             ids=lambda f: f.label)
    def test_equals_the_curve_on_the_auto_grid(self, suite, family, reps, workers):
        # 1000 replications probe on 400: the last probe chunk has 16 rows
        # and must not stand in for the curve's 128-row chunk 3
        d, tests = suite
        tests = tests + [EnhancedTest(tests[1])]  # reads coordinate 0
        plan = MonteCarloPlan(replications=reps, seed=23)
        grid = auto_a_grid(tests, family, plan, workers=workers)
        want = power_curve(tests, family, grid, d, plan, workers=workers)
        assert power_curve(tests, family, None, d, plan, workers=workers) == want

    def test_sparse_curve_draws_only_for_the_first_probe(self, suite, monkeypatch):
        d, tests = suite
        drawn = []

        def draw(rng, out):
            drawn.append(out.shape[0])
            return rng.standard_normal(out=out)

        monkeypatch.setattr(mc, "draw", draw)
        rows = _spy_passes(monkeypatch, lambda kwargs: sum(drawn))
        plan = MonteCarloPlan(replications=300, seed=24)
        power_curve(tests, sparse(), None, d, plan)
        # at least two probes, then the curve; only the first probe draws
        assert len(rows) >= 3 and rows == [300] * len(rows), rows

    @pytest.mark.parametrize("family", [dense(), sparse()], ids=lambda f: f.label)
    def test_curve_adds_nothing_and_no_kernel_keeps_a_tile_block(self, family, monkeypatch):
        # at d = 70000 a tile is one row (560 KB) and a chunk's block four;
        # between passes the store and a dense unit's row are all that lives
        d = 70_000
        tile_bytes = _tile_rows(d) * d * 8
        tests = [PNormTest(d, E2, math.sqrt(d) + 2.0, 0.05), PNormTest(d, SUP, 4.5, 0.05)]
        plan = MonteCarloPlan(replications=160, seed=25)  # 128 + 32 rows
        passes = _spy_passes(monkeypatch, lambda kwargs: (
            isinstance(kwargs["store"], MappingProxyType), len(kwargs["store"]),
            tracemalloc.get_traced_memory()[0]))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            power_curve(tests, family, None, d, plan)
        finally:
            tracemalloc.stop()
        *probes, curve = passes
        assert probes and not any(read_only for read_only, _, _ in probes) and curve[0]
        assert curve[1] == probes[-1][1] > 0
        unit_bytes = 0 if family.kind == "sparse" else tile_bytes
        for _, _, held in passes:
            assert held - base < unit_bytes + tile_bytes, (held - base, tile_bytes)
        assert curve[2] - probes[-1][2] < tile_bytes // 8


class TestPeDemo:
    def test_report_structure_and_union_bound(self):
        d = 2000
        plan = MonteCarloPlan(replications=4000, seed=14)
        cal = MonteCarloPlan(replications=20_000, seed=15)
        rows = pe_demo(d, 0.025, 0.025, plan, cal)
        labels = [row[0] for row in rows]
        assert labels == ["p=2", "sup", "max-comb", "combined", "p=3", "p=4"]
        power = {label: rate for label, rate, _ in rows}
        # the max-combination rejects exactly when a member does, per sample
        assert power["max-comb"] <= power["p=2"] + power["sup"] + 1e-12
        assert power["max-comb"] >= max(power["p=2"], power["sup"]) - 1e-12
        for label, rate, se in rows:
            assert se == math.sqrt(rate * (1.0 - rate) / plan.replications)

    def test_budget_guard(self):
        plan = MonteCarloPlan(replications=2000, seed=1)
        with pytest.raises(DomainError):
            pe_demo(100, 0.6, 0.5, plan, plan)
        with pytest.raises(DomainError):
            pe_demo(8, 0.025, 0.025, plan, plan)

    def test_too_small_calibration_plan_is_refused_before_the_draw(self, monkeypatch):
        # the combined test's deepest member level at d = 2000 is 0.00357
        calls = []
        monkeypatch.setattr(mc, "simulate_shifted", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match="at least 2800 replications"):
            pe_demo(2000, 0.025, 0.025, MonteCarloPlan(2000, 1), MonteCarloPlan(2000, 2))
        assert calls == []


class TestGapScan:
    @staticmethod
    def _suite(d, cal):
        """A combined test and its Euclidean member calibrated standalone at
        the combined test's level, both on ``cal``."""
        m, exps = member_exponents(d, "exp")
        combined = build_combined(d, exps, geometric_budget(m, 0.05), cal)
        return combined, mc_calibrate(E2, d, combined.alpha, cal)

    def test_null_gap_is_noise_and_bound_value(self):
        d = 400
        combined, single = self._suite(d, MonteCarloPlan(replications=20_000, seed=16))
        plan = MonteCarloPlan(replications=4000, seed=17)
        shifts = [("null", Unit.from_runs([0.0], [d]), 0.0)]
        report = power_gap_scan(combined, single, shifts, plan)
        assert report.bound == pytest.approx(0.238, abs=0.002)
        assert abs(report.gaps[0][1]) <= 4.0 * report.gaps[0][2]

    def test_scan_draws_no_calibration_sample(self, monkeypatch):
        d = 200
        combined, single = self._suite(d, MonteCarloPlan(replications=5000, seed=18))
        calls = []
        monkeypatch.setattr(engine, "simulate_null_statistics",
                            lambda *args, **kwargs: calls.append(args))
        ones = Unit.from_runs(*dense().runs(d))
        report = power_gap_scan(combined, single, [("null", ones, 0.0), ("dense", ones, 0.3)],
                                MonteCarloPlan(replications=1000, seed=19))
        assert calls == [] and report.labels == ("null", "dense")

    def test_gaps_are_the_rates_of_the_counts(self):
        d = 200
        combined, single = self._suite(d, MonteCarloPlan(replications=5000, seed=18))
        plan = MonteCarloPlan(replications=1000, seed=19)
        ones = Unit.from_runs(*dense().runs(d))
        shifts = [("null", ones, 0.0), ("dense", ones, 0.3)]
        report = power_gap_scan(combined, single, shifts, plan)
        counts = _counts([single, combined], [(ones, 0.0), (ones, 0.3)], plan, 1)
        assert report.counts == tuple(map(tuple, counts.tolist()))
        assert report.replications == 1000
        for (label, gap, se), (single_c, comb_c), shift in zip(report.gaps, report.counts,
                                                               shifts):
            (r_s, se_s), (r_c, se_c) = plab._rate_se(single_c, 1000), plab._rate_se(comb_c, 1000)
            assert (label, gap, se) == (shift[0], r_s - r_c, math.hypot(se_s, se_c))
        assert report.worst == max(report.gaps, key=lambda g: g[1])

    def test_non_member_standalone_is_refused_before_the_draw(self, monkeypatch):
        d = 200
        cal = MonteCarloPlan(replications=5000, seed=18)
        combined, single = self._suite(d, cal)
        calls = []
        monkeypatch.setattr(plab, "simulate_shifted", lambda *args, **kwargs: calls.append(args))
        shifts = [("x", Unit.from_runs([0.0], [d]), 0.0)]
        for other in (mc_calibrate(Exponent.finite(3.0), d, 0.05, cal),
                      mc_calibrate(SUP, d, 0.05, cal), combined, EnhancedTest(single)):
            with pytest.raises(DomainError, match="one of the combined test's exponents"):
                power_gap_scan(combined, other, shifts, cal)
        assert calls == []

    def test_default_grid_span(self):
        grid = default_gap_grid(1000)
        assert len(grid) == 60
        labels = {label.split(" ")[0] for label, _, _ in grid}
        assert labels == {"dense", "sparse", "semi-sparse", "power-sparse(p=4)"}
        for _, unit, _ in grid:
            assert unit.d == 1000

    def test_default_grid_holds_one_row_per_dense_family(self):
        # sixty dense d-rows at d = 1e5 would be 45.8 MiB
        tracemalloc.start()
        try:
            grid = default_gap_grid(100_000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(grid) == 60 and held < 2**20, held


class TestRegressionReduce:
    def test_identity_design(self, rng):
        z = rng.normal(size=7)
        np.testing.assert_allclose(regression_reduce(np.eye(7), z), z, rtol=1e-12)

    def test_orthonormal_design(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(30, 5)))
        z = rng.normal(size=30)
        np.testing.assert_allclose(regression_reduce(q, z), q.T @ z, rtol=1e-10, atol=1e-12)

    def test_output_is_standard_normal_under_the_null(self, rng):
        n, d, reps = 40, 4, 2000
        X = rng.normal(size=(n, d))
        draws = np.stack(
            [regression_reduce(X, rng.normal(size=n)) for _ in range(reps)]
        )
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - np.eye(d))) <= 5.0 / math.sqrt(reps)
        assert np.max(np.abs(draws.mean(axis=0))) <= 5.0 / math.sqrt(reps)

    def test_mean_is_root_gram_times_coefficients(self, rng):
        n, d = 25, 3
        X = rng.normal(size=(n, d))
        beta = np.array([1.0, -2.0, 0.5])
        out = regression_reduce(X, X @ beta)  # noiseless response
        w, v = np.linalg.eigh(X.T @ X)
        expected = v @ (np.sqrt(w) * (v.T @ beta))
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_rank_guards(self, rng):
        X = rng.normal(size=(10, 3))
        X[:, 2] = X[:, 0]  # exact collinearity
        with pytest.raises(RankError):
            regression_reduce(X, np.zeros(10))
        with pytest.raises(RankError):
            regression_reduce(rng.normal(size=(3, 5)), np.zeros(3))

    def test_shape_guards(self, rng):
        with pytest.raises(DomainError):
            regression_reduce(np.zeros((4, 2)), np.zeros(5))
        with pytest.raises(DomainError, match="design matrix must be two-dimensional"):
            regression_reduce(np.ones(4), np.zeros(4))


class TestEnhancementDemo:
    NAMES = ["size_base", "size_enhanced", "power_base", "power_enhanced"]

    def test_exact_oracles_and_domination(self):
        d = 2000
        plan = MonteCarloPlan(replications=20_000, seed=19)
        rows = enhancement_demo(ConstantTest(d=d), plan)
        assert [name for name, _, _ in rows] == self.NAMES
        (_, size, size_se), (_, power, power_se) = rows[1], rows[3]
        enhanced = EnhancedTest(ConstantTest(d=d))
        # detector-only test: size and power match the closed-form tails
        assert abs(size - enhanced.spike_size) <= 3.0 * size_se
        assert abs(power - enhanced.spike_power) <= 3.0 * power_se

    def test_norm_base_report(self):
        d = 500
        cal = MonteCarloPlan(replications=10_000, seed=20)
        base = mc_calibrate(E2, d, 0.05, cal)
        plan = MonteCarloPlan(replications=10_000, seed=21)
        rows = enhancement_demo(base, plan)
        assert [name for name, _, _ in rows] == self.NAMES
        (size_b, _), (size_e, size_e_se), (power_b, _), (power_e, power_e_se) = (
            row[1:] for row in rows)
        enhanced = EnhancedTest(base)
        assert power_e >= power_b - 1e-12
        assert size_e >= size_b - 1e-12
        assert size_e <= size_b + enhanced.spike_size + 3.0 * size_e_se
        assert power_e >= enhanced.spike_power - 3.0 * power_e_se
