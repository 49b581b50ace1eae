import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from pnormlab import engine
from pnormlab.consistency import CriterionTrace
from pnormlab.engine import (
    AlphaBudget,
    CalibrationWarning,
    CombinedTest,
    ConstantTest,
    EnhancedTest,
    MinimaxAdaptiveTest,
    PNormTest,
    UnionTest,
    asymptotic_critical_value,
    asymptotic_test,
    build_combined,
    build_minimax_adaptive,
    calibrate_suite,
    calibration,
    geometric_budget,
    load_test,
    mc_calibrate,
    mc_scale_minimax,
    member_exponents,
    minimax_critical_value,
    reject_matrix,
    save_test,
)
from pnormlab.errors import CalibrationError, ConfigError, DomainError, NumericError
from pnormlab.gaussmath import GaussMoments, std_normal_cdf, std_normal_sf
from pnormlab.mc import MonteCarloPlan, empirical_upper_quantile, simulate_null_statistics
from pnormlab.norms import SUP, Exponent, batch_norms
from pnormlab.power import GapScanReport, PowerTable

from conftest import bisection_solve

E2 = Exponent.finite(2.0)


class TestAsymptoticCriticalValue:
    def test_euclidean_formula_value(self):
        z = bisection_solve(std_normal_cdf, 0.95, 0.0, 10.0)
        expected = (z * math.sqrt(200.0) + 100.0) ** 0.5
        assert asymptotic_critical_value(2.0, 100, 0.05) == pytest.approx(
            expected, rel=1e-9
        )

    def test_median_level_reduces_to_centering(self):
        # at alpha = 1/2 the quantile term vanishes
        assert asymptotic_critical_value(2.0, 400, 0.5) == pytest.approx(20.0, rel=1e-14)

    def test_log_space_path_matches_linear(self):
        p = math.e**4 + 1.0  # beyond the linear-path cutoff
        kappa = asymptotic_critical_value(p, 1000, 0.05)
        from pnormlab.gaussmath import gauss_moments, std_normal_quantile

        m = gauss_moments(p)
        z = std_normal_quantile(0.95)
        direct = (z * math.sqrt(1000 * m.variance) + 1000 * m.mean) ** (1.0 / p)
        assert kappa == pytest.approx(direct, rel=1e-12)

    # past the cutoff, alpha = 1/2 gives z == 0 (the centering alone) and
    # alpha > 1/2 a negative z, whose bracket is a log1p difference
    @pytest.mark.parametrize("p, d, alpha", [
        (31.0, 1e3, 0.5), (31.0, 1e8, 0.55), (31.0, 1e8, 0.6),
        (40.0, 1e3, 0.5), (40.0, 1e12, 0.55),
    ])
    def test_log_space_zero_and_negative_quantiles_match_linear(self, p, d, alpha):
        from pnormlab.gaussmath import gauss_moments, std_normal_quantile

        m = gauss_moments(p)
        z = std_normal_quantile(1.0 - alpha)
        assert (z == 0.0) == (alpha == 0.5) and z <= 0.0
        direct = (z * math.sqrt(d * m.variance) + d * m.mean) ** (1.0 / p)
        assert asymptotic_critical_value(p, int(d), alpha) == pytest.approx(direct, rel=1e-12)

    def test_log_space_non_positive_bracket_raises(self):
        with pytest.raises(CalibrationError):
            asymptotic_critical_value(40.0, 10**8, 0.55)

    def test_huge_exponent_stays_finite(self):
        kappa = asymptotic_critical_value(400.0, 10_000, 0.05)
        assert math.isfinite(kappa) and 1.0 < kappa < 50.0

    @pytest.mark.parametrize("p", [1e-5, 0.003])
    def test_tiny_exponent_overflow_is_a_numeric_error(self, p):
        # the bracket's 1/p-th power passes the largest float
        with pytest.raises(NumericError, match=f"overflows at p={p:g}, d=10"):
            asymptotic_critical_value(p, 10, 0.05)

    # a large d or margin overflows the bracket, not its root, which is then
    # taken in log space; closed forms: E|Z|^2 = 1, var |Z|^2 = 2,
    # E|Z|^3 = 2 sqrt(2/pi) and var |Z|^3 = 15 - 8/pi
    def test_overflowing_bracket_is_taken_in_log_space(self):
        from pnormlab.gaussmath import std_normal_quantile

        z = std_normal_quantile(0.95)
        mean, var = 2.0 * math.sqrt(2.0 / math.pi), 15.0 - 8.0 / math.pi
        want = (1e308 * (z * math.sqrt(var / 1e308) + mean)) ** (1.0 / 3.0)
        assert asymptotic_critical_value(3.0, 10**308, 0.05) == pytest.approx(want, rel=1e-12)
        assert minimax_critical_value(2.0, 100, 1e308) == pytest.approx(1e154 * 200.0**0.25,
                                                                          rel=1e-12)
        with pytest.raises(NumericError, match=f"overflows at p=1, d={2**62}"):
            minimax_critical_value(1.0, 2**62, 1e308)

    def test_variance_is_finite_wherever_the_bracket_is_linear(self):
        # the linear branch reads GaussMoments.variance, inf past log 709
        from pnormlab.gaussmath import gauss_moments

        top = max(gauss_moments(k / 100).log_variance for k in range(1, 3001))
        assert top == gauss_moments(engine._LOG_SPACE_P).log_variance < 93.2

    def test_small_exponent_stays_finite(self):
        assert asymptotic_critical_value(0.01, 10, 0.05) == pytest.approx(9.44e99, rel=1e-3)

    def test_negative_bracket_raises_calibration_error(self):
        with pytest.raises(CalibrationError):
            asymptotic_critical_value(2.0, 1, 0.9999)

    def test_monte_carlo_size_of_one_norm_value(self):
        # MC null rejection rate of the analytic critical value, p = 1, d = 1e4
        kappa = asymptotic_critical_value(1.0, 10_000, 0.05)
        test = PNormTest(d=10_000, exponent=Exponent.finite(1.0),
                         critical_value=kappa, alpha=0.05)
        from pnormlab.power import estimate_rejection_many

        rate, _ = estimate_rejection_many(
            [test], 0, MonteCarloPlan(replications=20_000, seed=41)
        )[0]
        assert 0.04 <= rate <= 0.06


class TestExactCriticalValues:
    @pytest.mark.parametrize("alpha", [0.05, 1e-3])
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 100, 10**4, 10**6, 10**12, 2**62])
    def test_sup_value_gives_back_its_level(self, d, alpha):
        # the null size 1 - (1 - 2 sf(c))^d of the largest |Z_i|
        c = asymptotic_test(SUP, d, alpha).critical_value
        size = -math.expm1(d * math.log1p(-2.0 * special.ndtr(-c)))
        assert size == pytest.approx(alpha, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.05, 1e-3])
    @pytest.mark.parametrize("d", [1, 2, 3] + [10**k for k in range(1, 10)])
    def test_euclidean_value_gives_back_its_level(self, d, alpha):
        # the chi-square tail at c^2; c and c^2 are rounded, and three
        # roundings of c^2 move the tail by 3 * 2**-53 * c^2 * pdf(c^2)
        c = asymptotic_test(E2, d, alpha).critical_value
        rounding = 3.0 * 2.0**-53 * c * c * sps.chi2.pdf(c * c, d) / alpha
        assert special.chdtrc(d, c * c) == pytest.approx(alpha, rel=1e-12 + rounding)

    def test_values_at_one_and_two_dimensions(self):
        # d = 1: |Z| exceeds c with probability alpha, for sup and p = 2 alike
        for exponent in (SUP, E2):
            assert asymptotic_test(exponent, 1, 0.05).critical_value == pytest.approx(
                1.959963984540054, rel=1e-15)
        assert asymptotic_test(SUP, 2, 0.05).critical_value == pytest.approx(
            2.236476644557792, rel=1e-15)

    def test_monte_carlo_size_at_desk_dimension(self):
        tests = [asymptotic_test(e, 10_000, 0.05) for e in (SUP, E2)]
        from pnormlab.power import estimate_rejection_many

        rates = estimate_rejection_many(
            tests, 0, MonteCarloPlan(replications=20_000, seed=41), workers=2
        )
        for rate, _ in rates:
            assert 0.04 <= rate <= 0.06

    @pytest.mark.parametrize("exponent", [SUP, E2, Exponent.finite(3.0)])
    @pytest.mark.parametrize("d", [0, -5])
    def test_dimension_below_one_is_refused(self, exponent, d):
        with pytest.raises(DomainError, match=f"dimension must be >= 1, got {d}"):
            asymptotic_test(exponent, d, 0.05)

    def test_underflowing_sup_tail_is_a_numeric_error(self):
        for d in (1, 1000):
            with pytest.raises(NumericError, match=f"alpha=5e-324, d={d}"):
                asymptotic_test(SUP, d, 5e-324)


class TestMinimaxCriticalValue:
    def test_euclidean_arithmetic(self):
        expected = (3.0 * math.sqrt(200.0) + 100.0) ** 0.5
        assert minimax_critical_value(2.0, 100, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_small_margin_limit_is_the_centering(self):
        from pnormlab.gaussmath import gauss_moments

        for p in (1.0, 2.0, 5.0):
            m = gauss_moments(p)
            kappa = minimax_critical_value(p, 500, 1e-12)
            assert kappa == pytest.approx((500 * m.mean) ** (1.0 / p), rel=1e-9)

    def test_matches_asymptotic_at_normal_quantile(self):
        from pnormlab.gaussmath import std_normal_quantile

        for p, d, alpha in ((1.0, 50, 0.05), (2.0, 1000, 0.1), (7.0, 200, 0.01)):
            assert minimax_critical_value(
                p, d, std_normal_quantile(1 - alpha)
            ) == asymptotic_critical_value(p, d, alpha)

    def test_domain(self):
        with pytest.raises(DomainError):
            minimax_critical_value(2.0, 100, 0.0)


class TestSchedules:
    def test_finite_schedule_value(self):
        t = asymptotic_test(E2, 100, 0.05)
        assert t.critical_value == math.sqrt(special.chdtri(100, 0.05))
        assert t.provenance == "exact_chi2(alpha=0.05)"
        t = asymptotic_test(Exponent.finite(3.0), 100, 0.05)
        assert t.critical_value == asymptotic_critical_value(3.0, 100, 0.05)
        assert t.provenance == "asymptotic_finite(p=3, alpha=0.05)"

    def test_sup_schedule_value(self):
        t = asymptotic_test(SUP, 5000, 0.05)
        assert t.critical_value == -special.ndtri(-math.expm1(math.log1p(-0.05) / 5000) / 2)
        assert t.provenance == "exact_sup(alpha=0.05)"

    def test_mc_schedule_pins_dimension(self):
        plan = MonteCarloPlan(replications=2000, seed=1)
        t = mc_calibrate(E2, 40, 0.05, plan)
        assert t.d == 40
        assert not reject_matrix([t], np.zeros((1, 40)))[0, 0]
        with pytest.raises(DomainError):
            reject_matrix([t], np.zeros((1, 41)))
        assert t.provenance == f"monte_carlo({plan.descriptor()})"
        assert "seed=1" in t.provenance


class TestMcCalibrate:
    def test_chi_square_quantile_oracle(self):
        plan = MonteCarloPlan(replications=100_000, seed=314)
        test = mc_calibrate(E2, 50, 0.05, plan)
        exact = math.sqrt(sps.chi2.ppf(0.95, df=50))
        density = 2.0 * exact * sps.chi2.pdf(exact**2, df=50)
        se = math.sqrt(0.05 * 0.95 / plan.replications) / density
        assert abs(test.critical_value - exact) <= 3.0 * se

    def test_determinism(self):
        plan = MonteCarloPlan(replications=2000, seed=8)
        a = mc_calibrate(E2, 64, 0.05, plan).critical_value
        b = mc_calibrate(E2, 64, 0.05, plan).critical_value
        assert a == b

    def test_configuration_guards(self):
        with pytest.raises(ConfigError):
            mc_calibrate(E2, 10, 0.05, MonteCarloPlan(replications=500, seed=1))
        with pytest.raises(ConfigError):
            mc_calibrate(E2, 10, 0.001, MonteCarloPlan(replications=2000, seed=1))

    # the least count is exact below 2**53, and to three digits above, where
    # 10 / alpha passes the float range at a subnormal alpha
    @pytest.mark.parametrize("alpha, least", [
        (1e-3, "10000"), (1.2e-15, "8333333333333333"), (1.1e-15, "9.09e+15"),
        (1e-300, "1.00e+301"), (1e-320, "1.00e+321"), (5e-324, "2.02e+324"),
    ])
    def test_too_small_plan_names_the_least_replications(self, alpha, least):
        with pytest.raises(ConfigError, match=rf"at least {re.escape(least)} replications, got"):
            engine.require_tail_plan(alpha, MonteCarloPlan(replications=1000, seed=1))

    def test_shared_stats_match_own_simulation(self):
        # columns of a wider joint simulation give the identical test
        plan = MonteCarloPlan(replications=2000, seed=8)
        stats = simulate_null_statistics(
            64, [Exponent.finite(1.0), E2, Exponent.finite(3.5), SUP], plan
        )
        for e in (E2, SUP):
            assert mc_calibrate(e, 64, 0.05, plan, stats=stats) == mc_calibrate(
                e, 64, 0.05, plan
            )

    def test_shared_stats_guards(self):
        plan = MonteCarloPlan(replications=2000, seed=8)
        stats = simulate_null_statistics(64, [E2], plan)
        with pytest.raises(DomainError):
            mc_calibrate(SUP, 64, 0.05, plan, stats=stats)
        with pytest.raises(DomainError):
            mc_calibrate(E2, 64, 0.05, plan, stats={E2: stats[E2][:-1]})
        with pytest.raises(ConfigError):
            mc_calibrate(E2, 64, 0.001, plan, stats=stats)


class TestBudgets:
    def test_two_members(self):
        b = geometric_budget(2, 0.05, success=0.5, last_share=0.5)
        assert b.alphas == pytest.approx((0.025, 0.025), rel=1e-15)

    def test_five_member_reference_allocation(self):
        b = geometric_budget(5, 0.05, success=0.5, last_share=0.5)
        assert b.alphas == pytest.approx(
            (0.0133333333, 0.0066666667, 0.0033333333, 0.0016666667, 0.025),
            abs=1e-9,
        )
        # rounded presentation used in study summaries
        assert [round(a, 3) for a in b.alphas] == [0.013, 0.007, 0.003, 0.002, 0.025]

    def test_sum_is_exact(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 12))
            alpha = float(rng.uniform(0.01, 0.3))
            s = float(rng.uniform(0.05, 0.95))
            g = float(rng.uniform(0.05, 0.95))
            b = geometric_budget(m, alpha, success=s, last_share=g)
            assert abs(math.fsum(b.alphas) - alpha) <= 1e-15

    @pytest.mark.filterwarnings("error")  # every budget has its limit rule
    def test_limit_levels(self):
        b = geometric_budget(5, 0.05)
        assert b.limit_alpha(0) == pytest.approx(0.0125, rel=1e-12)
        assert b.limit_alpha(4) == pytest.approx(0.025, rel=1e-12)
        with pytest.raises(DomainError, match="member index out of range"):
            b.limit_alpha(5)

    def test_domain(self):
        with pytest.raises(DomainError):
            geometric_budget(1, 0.05)
        with pytest.raises(DomainError):
            geometric_budget(3, 1.2)
        with pytest.raises(DomainError, match="total level"):
            AlphaBudget(alphas=(0.4, 0.7), success=0.5, last_share=0.5)  # total above 1
        with pytest.raises(TypeError):  # a budget is geometric: no field has a default
            AlphaBudget(alphas=(0.025, 0.025))

    # an artifact gives both, or is refused naming the line it lacks
    @pytest.mark.parametrize("given", [{"success": 0.5}, {"last_share": 0.5}])
    def test_success_and_last_share_come_together(self, tmp_path, given):
        (key, value), = given.items()
        missing = "budget_last_share" if key == "success" else "budget_success"
        path = tmp_path / "a.txt"
        path.write_text("schema = pnormlab-test/1\nkind = combined\nd = 100\nalpha = 0.05\n"
                        "exponents = 2,3\nalphas = 0.025,0.025\nbudget_generator = geometric\n"
                        f"budget_{key} = {value}\nkappas = 11.1,5.2\nscale = 1\n")
        with pytest.raises(ConfigError, match=f"artifact is missing field '{missing}'"):
            load_test(path)

    def test_geometric_alphas_must_be_the_allocation(self):
        b = geometric_budget(4, 0.05, success=0.3, last_share=0.4)
        assert AlphaBudget(alphas=b.alphas, success=0.3, last_share=0.4) == b
        swapped = (b.alphas[1], b.alphas[0]) + b.alphas[2:]
        with pytest.raises(DomainError, match="member 0 has"):
            AlphaBudget(alphas=swapped, success=0.3, last_share=0.4)
        with pytest.raises(DomainError, match="not the geometric allocation"):
            AlphaBudget(alphas=b.alphas, success=0.5, last_share=0.4)
        for success in (0.0, 1.0, float("nan")):
            with pytest.raises(DomainError, match="success must lie in"):
                AlphaBudget(alphas=b.alphas, success=success, last_share=0.4)
        with pytest.raises(DomainError, match="at least two members"):
            AlphaBudget(alphas=(0.05,), success=0.5, last_share=0.5)


class TestMemberExponents:
    def test_reference_dimensions_give_five_members(self):
        for d in (50_000, 250_000):
            m, exps = member_exponents(d, "exp")
            assert m == 5
            assert exps == pytest.approx(
                (2.0, math.e + 1, math.e**2 + 1, math.e**3 + 1, math.e**4 + 1),
                rel=1e-15,
            )

    def test_growth_condition_headroom(self):
        # the largest exponent must outgrow 2 log d
        for d in (50_000, 250_000):
            _, exps = member_exponents(d, "exp")
            assert exps[-1] / math.log(d) > 2.0

    def test_linear_preset(self):
        m, exps = member_exponents(100, "linear")
        assert m == math.ceil(3 * math.log(100)) + 1
        assert exps[:3] == (2.0, 3.0, 4.0)
        assert len(exps) == m

    def test_domain(self):
        with pytest.raises(DomainError):
            member_exponents(2, "exp")
        with pytest.raises(DomainError):
            member_exponents(100, "nope")


@pytest.fixture(scope="module")
def combined():
    plan = MonteCarloPlan(replications=20_000, seed=11)
    m, exps = member_exponents(2000, "exp")
    return build_combined(2000, exps, geometric_budget(m, 0.05), plan), plan


class TestBuildCombined:

    def test_scale_in_unit_interval(self, combined):
        test, _ = combined
        assert 0.0 < test.scale <= 1.0

    def test_calibration_size_within_quantile_granularity(self, combined):
        test, plan = combined
        assert abs(test.calibration_size - 0.05) <= 1.0 / plan.replications + 1e-12

    def test_fresh_seed_size(self, combined):
        from pnormlab.power import estimate_rejection_many

        test, _ = combined
        vplan = MonteCarloPlan(replications=20_000, seed=9090)
        rate, se = estimate_rejection_many([test], 0, vplan)[0]
        assert abs(rate - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / vplan.replications)

    def test_membership_nesting_is_pointwise(self, combined, rng):
        # whenever some member statistic reaches its own critical value, the
        # combined test rejects (scale <= 1)
        test, _ = combined
        Y = rng.normal(size=(10_000, test.d)) + rng.choice(
            [0.0, 0.05], size=(10_000, 1)
        )
        norms = batch_norms(Y, test.norm_exponents())
        member_hit = np.zeros(10_000, dtype=bool)
        for p, k in zip(test.exponents, test.kappas):
            member_hit |= norms[Exponent.finite(p)] >= k
        combined_reject = test.decide_batch(norms, Y[:, 0])
        assert np.all(combined_reject[member_hit])

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflowed norm is inf, silently
    def test_member_whose_norms_overflow_is_refused(self):
        # every null p=0.001 norm overflows at d = 100: its kappa would be
        # inf and its ratio inf / inf = nan
        with pytest.raises(NumericError, match="quantile of the null sample is inf"):
            build_combined(100, (0.001, 2.0), geometric_budget(2, 0.05),
                           MonteCarloPlan(replications=2000, seed=1))

    def test_shared_stats_reuse_matches_internal_simulation(self):
        plan = MonteCarloPlan(replications=5000, seed=33)
        m, exps = member_exponents(400, "exp")
        budget = geometric_budget(m, 0.05)
        stats = simulate_null_statistics(
            400, [Exponent.finite(p) for p in exps] + [SUP], plan
        )
        direct = build_combined(400, exps, budget, plan)
        shared = build_combined(400, exps, budget, plan, stats=stats)
        assert direct.kappas == shared.kappas
        assert direct.scale == shared.scale

    def test_scale_of_zero_is_refused(self):
        # 960 zeros then 1..40 in both members: each kappa is 15, but the
        # ratio's 0.05 quantile is 0, a scale the record refuses
        column = np.concatenate([np.zeros(960), np.arange(1.0, 41.0)])
        stats = {Exponent.finite(p): column for p in (2.0, 3.0)}
        with pytest.raises(DomainError, match="scale must be a positive real, got 0.0"):
            build_combined(10, (2.0, 3.0), geometric_budget(2, 0.05),
                           MonteCarloPlan(replications=1000, seed=1), stats=stats)

    def test_input_validation(self):
        plan = MonteCarloPlan(replications=5000, seed=1)
        budget = geometric_budget(3, 0.05)
        with pytest.raises(DomainError):
            build_combined(100, (2.0, 3.0), budget, plan)  # length mismatch
        with pytest.raises(DomainError):
            build_combined(100, (3.0, 2.0, 4.0), budget, plan)  # not increasing
        # the constructor holds the one check: strictly increasing, finite, positive
        for exps in ((3.0, 2.0, 4.0), (2.0, 2.0, 4.0), (-2.0, 2.0, 4.0), (2.0, 4.0, math.inf)):
            with pytest.raises(DomainError, match="strictly increasing finite positive"):
                CombinedTest(100, exps, (1.0, 1.0, 1.0), 1.0, budget)
        with pytest.raises(ConfigError):
            build_combined(
                100, (2.0, 3.0, 4.0), budget, MonteCarloPlan(replications=900, seed=1)
            )


class TestAsymptoticAgreesWithMonteCarlo:
    def test_p1_to_p4_at_ten_thousand(self):
        # CLT regime: the analytic and empirical critical values agree within
        # three standard errors of the empirical quantile
        d, R, alpha = 10_000, 20_000, 0.05
        plan = MonteCarloPlan(replications=R, seed=20240601)
        exps = [Exponent.finite(p) for p in (1.0, 2.0, 3.0, 4.0)]
        stats = simulate_null_statistics(d, exps, plan)
        k = math.ceil(R * (1 - alpha))
        for e in exps:
            vals = np.sort(stats[e])
            kappa_mc = vals[k - 1]
            kappa_asym = asymptotic_critical_value(e.p, d, alpha)
            m = 200
            density = 2 * m / R / (vals[k - 1 + m] - vals[k - 1 - m])
            se = math.sqrt(alpha * (1 - alpha) / R) / density
            assert abs(kappa_mc - kappa_asym) <= 3.0 * se, e.label


class TestMinimaxAdaptive:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_single_member_reduces_to_one_norm(self):
        test = build_minimax_adaptive(100, 3.0, 1)
        expected = 3.0 * math.sqrt(100 * (1 - 2 / math.pi)) + 100 * math.sqrt(
            2 / math.pi
        )
        assert test.kappas[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_second_member_closed_form(self):
        test = build_minimax_adaptive(400, 3.0, 2)
        assert test.kappas[1] ** 2 == pytest.approx(
            3.0 * math.sqrt(2 * 400) + 400, rel=1e-12
        )

    def test_side_condition_warning(self):
        with pytest.warns(CalibrationWarning):
            build_minimax_adaptive(10_000, 5.0, 8)

    def test_analytic_threshold_size_is_small(self):
        import warnings

        from pnormlab.power import estimate_rejection_many

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            test = build_minimax_adaptive(10_000, 5.0, 8)
        rate, _ = estimate_rejection_many(
            [test], 0, MonteCarloPlan(replications=20_000, seed=606)
        )[0]
        assert rate <= 0.01

    def test_mc_scaled_threshold_hits_target_size(self):
        import warnings

        from pnormlab.power import estimate_rejection_many

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            test = build_minimax_adaptive(500, 5.0, 6)
        plan = MonteCarloPlan(replications=20_000, seed=77)
        scaled = mc_scale_minimax(test, 0.05, plan)
        rate, se = estimate_rejection_many(
            [scaled], 0, MonteCarloPlan(replications=20_000, seed=78)
        )[0]
        assert abs(rate - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / 20_000)

    def test_domain(self):
        with pytest.raises(DomainError):
            build_minimax_adaptive(100, 3.0, 0)

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    @pytest.mark.parametrize("reps, alpha", [(5, 0.05), (2000, 0.001)],
                             ids=["few-replications", "shallow-tail"])
    def test_plan_guards(self, reps, alpha):
        # the same plan guards as mc_calibrate and build_combined
        test = build_minimax_adaptive(100, 5.0, 8)
        with pytest.raises(ConfigError):
            mc_scale_minimax(test, alpha, MonteCarloPlan(replications=reps, seed=1))


class TestCalibrationByName:
    """A test name stands for the null columns and the deepest level its
    calibration reads."""

    D, ALPHA, PLAN = 200, 0.05, MonteCarloPlan(replications=4000, seed=9)

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    @pytest.mark.parametrize("name", ["p=1", "p=2", "sup", "combined", "minimax"])
    def test_reads_the_columns_and_level_of_its_test(self, name):
        c = calibration(name, self.D, self.ALPHA, self.PLAN)
        (test,) = calibrate_suite([c])
        assert tuple(c.exponents) == test.norm_exponents()
        assert c.label == test.label
        assert c.level == (min(test.budget.alphas) if name == "combined" else self.ALPHA)

    def test_option_is_asked_only_for_what_the_test_reads(self):
        def option(key, default):
            raise AssertionError(key)

        assert calibration("p=2", self.D, self.ALPHA, self.PLAN, option).exponents == [E2]

    def test_option_sets_the_preset(self):
        asked = []

        def option(key, default):
            asked.append(key)
            return "linear" if key == "preset" else default

        c = calibration("combined", self.D, self.ALPHA, self.PLAN, option)
        m, exps = member_exponents(self.D, "linear")
        assert c.exponents == [Exponent.finite(p) for p in exps]
        assert c.label == f"combined(m={m})"
        assert c.level == min(geometric_budget(m, self.ALPHA).alphas)
        assert asked == ["preset", "budget-success", "budget-last-share"]

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    def test_option_sets_the_max_power(self):
        c = calibration("minimax", self.D, self.ALPHA, self.PLAN,
                        lambda key, default: 4 if key == "max-power" else default)
        assert c.exponents == [Exponent.finite(float(j)) for j in range(1, 5)]
        assert c.label == "minimax(pmax=4)"

    def test_empty_suite_draws_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "simulate_null_statistics",
                            lambda *args, **kwargs: calls.append(args))
        assert calibrate_suite([]) == []
        assert calls == []

    def test_suite_draws_the_plan_and_d_of_its_calibrations(self):
        plan = MonteCarloPlan(replications=2000, seed=1)
        (test,) = calibrate_suite([calibration("p=2", 100, 0.05, plan)])
        assert test == mc_calibrate(E2, 100, 0.05, plan)

    @pytest.mark.parametrize("d, plan", [
        (400, MonteCarloPlan(replications=4000, seed=9)),
        (200, MonteCarloPlan(replications=4000, seed=10)),
        (200, MonteCarloPlan(replications=2000, seed=9)),
    ], ids=["d", "seed", "replications"])
    def test_suite_of_two_dimensions_or_plans_is_refused_before_drawing(
        self, monkeypatch, d, plan
    ):
        calls = []
        monkeypatch.setattr(engine, "simulate_null_statistics",
                            lambda *args, **kwargs: calls.append(args))
        calibrations = [calibration("p=2", self.D, self.ALPHA, self.PLAN),
                        calibration("sup", d, self.ALPHA, plan)]
        with pytest.raises(DomainError, match="one d on one plan"):
            calibrate_suite(calibrations)
        assert calls == []


class TestEnhancement:
    def test_symmetric_base_ties_to_first_coordinate(self):
        plan = MonteCarloPlan(replications=2000, seed=5)
        base = mc_calibrate(E2, 300, 0.05, plan)
        enhanced = EnhancedTest(base)
        assert enhanced.spike_mean == pytest.approx(math.sqrt(math.log(300) / 2))
        assert enhanced.spike_threshold == pytest.approx(
            math.sqrt(enhanced.spike_mean)
        )

    @pytest.mark.parametrize("d", [2, 3, 300, 10_000, 10**12])
    def test_spike_threshold_is_worked_out_from_d(self, d):
        enhanced = EnhancedTest(ConstantTest(d=d))
        assert enhanced.spike_threshold == math.sqrt(math.sqrt(math.log(d) / 2.0))

    @pytest.mark.parametrize("d", [2, 300, 10_000])
    def test_spike_power_and_size_are_the_detector_s_closed_forms(self, d):
        enhanced = EnhancedTest(ConstantTest(d=d))
        a, t = math.sqrt(math.log(d) / 2.0), math.sqrt(math.sqrt(math.log(d) / 2.0))
        assert enhanced.spike_power == std_normal_sf(t - a) + std_normal_sf(t + a)
        assert enhanced.spike_size == 2.0 * std_normal_sf(t)

    def test_pointwise_domination(self, rng):
        plan = MonteCarloPlan(replications=3000, seed=6)
        base = mc_calibrate(E2, 100, 0.05, plan)
        enhanced = EnhancedTest(base)
        Y = rng.normal(size=(5000, 100))
        decisions = reject_matrix([base, enhanced], Y)
        assert np.all(decisions[1][decisions[0]])

    def test_never_reject_base_size_matches_exact_tail(self):
        from pnormlab.power import estimate_rejection_many

        d = 5000
        plan = MonteCarloPlan(replications=40_000, seed=17)
        enhanced = EnhancedTest(ConstantTest(d=d))
        rate, se = estimate_rejection_many([enhanced], 0, plan)[0]
        exact = 2.0 * std_normal_sf((math.log(d) / 2.0) ** 0.25)
        assert abs(rate - exact) <= 3.0 * se + 1e-12

    def test_duck_typed_norm_only_base_uses_first_coordinate(self):
        # a base outside the library's classes that decides from norms alone:
        # its spike power is the same on every coordinate
        from pnormlab.power import estimate_rejection_many

        d = 40
        inner = mc_calibrate(E2, d, 0.2, MonteCarloPlan(replications=2000, seed=3))

        class NormOnly:
            label = "norm-only"

            def __init__(self):
                self.d = d

            def norm_exponents(self):
                return (E2,)

            def decide_batch(self, norms, first):
                return inner.decide_batch(norms, first)

        base = NormOnly()
        enhanced = EnhancedTest(base)
        first, last = np.zeros(d), np.zeros(d)
        first[0] = last[d - 1] = enhanced.spike_mean
        plan = MonteCarloPlan(replications=4000, seed=12)
        (r0, se0), = estimate_rejection_many([base], first, plan)
        (r1, se1), = estimate_rejection_many([base], last, plan)
        assert abs(r0 - r1) <= 3.0 * math.hypot(se0, se1)

    def test_dimension_is_the_base_s(self):
        enhanced = EnhancedTest(PNormTest(d=50, exponent=E2, critical_value=8.0, alpha=0.05))
        assert enhanced.d == 50
        assert enhanced.spike_mean == pytest.approx(math.sqrt(math.log(50) / 2))

    def test_dimension_guard(self):
        with pytest.raises(DomainError, match="d >= 2"):
            EnhancedTest(ConstantTest(d=1))


class TestEvaluate:
    def test_single_norm_threshold(self):
        test = PNormTest(d=2, exponent=E2, critical_value=5.0, alpha=0.05)
        assert reject_matrix([test], [[3.0, 4.0]])[0, 0]  # statistic equals the cutoff
        assert not reject_matrix([test], [[3.0, 3.9]])[0, 0]

    def test_zero_vector_accepted_by_calibrated_tests(self):
        plan = MonteCarloPlan(replications=2000, seed=2)
        for test in (
            mc_calibrate(E2, 50, 0.3, plan),
            mc_calibrate(SUP, 50, 0.3, plan),
        ):
            assert not reject_matrix([test], np.zeros((1, 50)))[0, 0]

    def test_dimension_mismatch(self):
        test = PNormTest(d=3, exponent=E2, critical_value=1.0, alpha=0.05)
        with pytest.raises(DomainError):
            reject_matrix([test], [[1.0, 2.0]])

    def test_observations_of_the_wrong_width_are_refused(self):
        # read as 40-dimensional, every row's 2-norm clears the cutoff
        test = PNormTest(d=50, exponent=E2, critical_value=1.0, alpha=0.05)
        with pytest.raises(DomainError, match=r"shape \(replications, 50\), got \(3, 40\)"):
            reject_matrix([test], np.ones((3, 40)))

    def test_one_dimensional_observations_are_refused(self):
        test = PNormTest(d=50, exponent=E2, critical_value=1.0, alpha=0.05)
        with pytest.raises(DomainError, match="shape"):
            reject_matrix([test], np.ones(50))

    def test_empty_or_mixed_test_lists_are_refused(self):
        b50 = PNormTest(d=50, exponent=E2, critical_value=8.0, alpha=0.05)
        b100 = PNormTest(d=100, exponent=E2, critical_value=11.0, alpha=0.05)
        with pytest.raises(DomainError, match="one dimension"):
            reject_matrix([], np.ones((3, 50)))
        with pytest.raises(DomainError, match=r"one dimension, got \[50, 100\]"):
            reject_matrix([b50, b100], np.ones((3, 50)))

    def test_union_test_is_or_of_members(self, rng):
        a = PNormTest(d=4, exponent=E2, critical_value=2.0, alpha=0.1)
        b = PNormTest(d=4, exponent=SUP, critical_value=1.5, alpha=0.1)
        u = UnionTest(members=(a, b))
        Y = rng.normal(size=(200, 4))
        dec = reject_matrix([a, b, u], Y)
        np.testing.assert_array_equal(dec[2], dec[0] | dec[1])

    def test_union_label_comes_from_its_members(self):
        a = PNormTest(d=4, exponent=E2, critical_value=2.0, alpha=0.1)
        b = PNormTest(d=4, exponent=SUP, critical_value=1.5, alpha=0.1)
        assert UnionTest(members=(a, b)).label == "max-comb(p=2,sup)"
        assert UnionTest(members=(b, ConstantTest(d=4))).label == "max-comb(sup,never-reject)"

    def test_union_of_two_dimensions_is_refused(self):
        # evaluated at d = 50, the 100-dimensional member would never reject
        b50 = PNormTest(d=50, exponent=E2, critical_value=8.0, alpha=0.05)
        b100 = PNormTest(d=100, exponent=E2, critical_value=11.0, alpha=0.05)
        with pytest.raises(DomainError, match=r"one dimension, got \[50, 100\]"):
            UnionTest(members=(b50, b100))
        with pytest.raises(DomainError, match="one dimension"):
            UnionTest(members=())

    def test_constant_tests_alone(self, rng):
        # constant tests read no norm and take their row count from y[:, 0]
        Y = rng.normal(size=(7, 5))
        Y[:3, 0] = 4.0  # above the spike threshold, about 0.95 at d = 5
        enhanced = EnhancedTest(ConstantTest(d=5))
        dec = reject_matrix([ConstantTest(d=5), enhanced], Y)
        assert dec.shape == (2, 7)
        assert not dec[0].any()
        assert dec[1].tolist() == (np.abs(Y[:, 0]) >= enhanced.spike_threshold).tolist()
        assert dec[1, :3].all()

    def test_bare_constant_test_needs_no_norm(self, rng):
        # no norm column: the chunk pass runs with an empty exponent set
        from pnormlab.power import estimate_rejection_many

        test = ConstantTest(d=5)
        assert test.norm_exponents() == ()
        assert test.label == "never-reject"
        plan = MonteCarloPlan(replications=300, seed=1)
        assert estimate_rejection_many([test], 0, plan)[0] == (0.0, 0.0)
        dec = reject_matrix([test], rng.normal(size=(7, 5)))
        assert dec.tolist() == [[False] * 7]


class TestFields:
    """A test object holds only what its calibration produced, and a result
    or budget record only what was measured or given; the rest is worked
    out from these fields."""

    FIELDS = {
        CombinedTest: "d exponents kappas scale budget calibration_size provenance",
        MinimaxAdaptiveTest: "d margin max_power threshold alpha provenance",
        EnhancedTest: "base",
        UnionTest: "members",
        ConstantTest: "d",
        PNormTest: "d exponent critical_value alpha provenance",
        GapScanReport: "bound labels replications counts",
        PowerTable: "family d replications tests scales counts",
        CriterionTrace: "d_grid values saturated",
        GaussMoments: "p log_mean log_variance",
        AlphaBudget: "alphas success last_share",
    }

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
    def test_field_names(self, cls):
        assert [f.name for f in dataclasses.fields(cls)] == self.FIELDS[cls].split()

    def test_derived_values(self):
        budget = geometric_budget(3, 0.05)
        combined = CombinedTest(d=60, exponents=(1.0, 2.0, 4.0), kappas=(50.0, 9.0, 4.0),
                                scale=1.0, budget=budget)
        assert combined.alpha == budget.total
        minimax = MinimaxAdaptiveTest(d=60, margin=4.0, max_power=3)
        assert minimax.kappas == tuple(minimax_critical_value(p, 60, 4.0) for p in (1, 2, 3))
        assert minimax.label == "minimax(pmax=3)"
        assert minimax.norm_exponents() == tuple(Exponent.finite(p) for p in (1.0, 2.0, 3.0))

    def test_derived_record_values(self):
        scan = GapScanReport(bound=0.1, labels=("a", "b", "c"), replications=100,
                             counts=((11, 10), (13, 10), (23, 20)))
        assert [gap for _, gap, _ in scan.gaps] == [0.11 - 0.1, 0.13 - 0.1, 0.23 - 0.2]
        assert scan.gaps[0][2] == math.hypot(math.sqrt(0.11 * 0.89 / 100),
                                             math.sqrt(0.1 * 0.9 / 100))
        assert scan.gaps[1][1] == scan.gaps[2][1] and scan.worst == scan.gaps[1]  # first of a tie
        assert math.isnan(CriterionTrace((10, 100), (1.0, 0.0), False).fitted_log_slope)
        moments = GaussMoments(p=2.0, log_mean=0.0, log_variance=math.log(2.0))
        assert (moments.mean, moments.variance) == (1.0, math.exp(math.log(2.0)))
        huge = GaussMoments(p=400.0, log_mean=710.0, log_variance=1500.0)
        assert (huge.mean, huge.variance) == (math.inf, math.inf)


class TestRecordRanges:
    """Each test record refuses its own out-of-range values when it is
    built, whether a library call or a loaded artifact builds it."""

    @pytest.mark.parametrize("change, refusal", [
        ({"d": 0}, "dimension must be >= 1, got 0"),
        ({"alpha": 0.0}, "alpha must lie in (0, 1), got 0.0"),
        ({"alpha": 1.0}, "alpha must lie in (0, 1), got 1.0"),
        ({"alpha": 7.0}, "alpha must lie in (0, 1), got 7.0"),
        ({"alpha": math.nan}, "alpha must lie in (0, 1), got nan"),
        ({"critical_value": math.nan}, "critical value must be finite, got nan"),
        ({"critical_value": math.inf}, "critical value must be finite, got inf"),
        ({"critical_value": -math.inf}, "critical value must be finite, got -inf"),
    ], ids=["d-0", "alpha-0", "alpha-1", "alpha-7", "alpha-nan", "critical-nan",
            "critical-inf", "critical-minus-inf"])
    def test_single(self, change, refusal):
        given = {"d": 10, "exponent": E2, "critical_value": 0.0, "alpha": 0.05}
        PNormTest(**given)  # 0 is the critical value of the test that always rejects
        with pytest.raises(DomainError, match=re.escape(refusal)):
            PNormTest(**{**given, **change})

    @pytest.mark.parametrize("change, refusal", [
        ({"d": 0}, "dimension must be >= 1, got 0"),
        ({"kappas": (1.0, 0.0)}, "kappa must be a positive real, got 0.0"),
        ({"kappas": (-1.0, 1.0)}, "kappa must be a positive real, got -1.0"),
        ({"kappas": (1.0, math.inf)}, "kappa must be a positive real, got inf"),
        ({"kappas": (math.nan, 1.0)}, "kappa must be a positive real, got nan"),
        ({"scale": 0.0}, "scale must be a positive real, got 0.0"),
        ({"scale": -1.0}, "scale must be a positive real, got -1.0"),
        ({"scale": math.inf}, "scale must be a positive real, got inf"),
        ({"scale": math.nan}, "scale must be a positive real, got nan"),
    ], ids=["d-0", "kappa-0", "kappa-minus-1", "kappa-inf", "kappa-nan", "scale-0",
            "scale-minus-1", "scale-inf", "scale-nan"])
    def test_combined(self, change, refusal):
        given = {"d": 10, "exponents": (2.0, 3.0), "kappas": (4.0, 2.5), "scale": 1.0,
                 "budget": geometric_budget(2, 0.05)}
        CombinedTest(**given)
        with pytest.raises(DomainError, match=re.escape(refusal)):
            CombinedTest(**{**given, **change})

    @pytest.mark.parametrize("change, refusal", [
        ({"alpha": 0.0}, "alpha must lie in (0, 1), got 0.0"),
        ({"alpha": 1.0}, "alpha must lie in (0, 1), got 1.0"),
        ({"alpha": 7.0}, "alpha must lie in (0, 1), got 7.0"),
        ({"threshold": 0.0}, "threshold must be a positive real, got 0.0"),
        ({"threshold": -1.0}, "threshold must be a positive real, got -1.0"),
        ({"threshold": math.inf}, "threshold must be a positive real, got inf"),
        ({"threshold": math.nan}, "threshold must be a positive real, got nan"),
    ], ids=["alpha-0", "alpha-1", "alpha-7", "threshold-0", "threshold-minus-1",
            "threshold-inf", "threshold-nan"])
    def test_minimax(self, change, refusal):
        given = {"d": 60, "margin": 4.0, "max_power": 3, "threshold": 0.9, "alpha": 0.05}
        MinimaxAdaptiveTest(**given)
        with pytest.raises(DomainError, match=re.escape(refusal)):
            MinimaxAdaptiveTest(**{**given, **change})

    @pytest.mark.parametrize("call, refusal", [
        (lambda: asymptotic_critical_value(2.0, 100, 0.0), "alpha must lie in (0, 1), got 0.0"),
        (lambda: asymptotic_test(SUP, 100, 1.5), "alpha must lie in (0, 1), got 1.5"),
        (lambda: engine.require_tail_plan(math.nan, MonteCarloPlan(2000, 1)),
         "alpha must lie in (0, 1), got nan"),
        # the total lies in (0, 1), a member level does not
        (lambda: AlphaBudget(alphas=(-0.01, 0.06), success=0.5, last_share=0.5),
         "every member level must lie in (0, 1), got -0.01"),
    ], ids=["asymptotic-alpha", "sup-alpha", "tail-plan-alpha", "member-level"])
    def test_level_refusals(self, call, refusal):
        with pytest.raises(DomainError, match=re.escape(refusal)):
            call()


class TestSerialization:
    def test_single_round_trip(self, tmp_path):
        plan = MonteCarloPlan(replications=2000, seed=44)
        test = mc_calibrate(SUP, 60, 0.05, plan)
        path = tmp_path / "single.txt"
        save_test(test, path)
        assert load_test(path) == test

    def test_combined_round_trip(self, tmp_path):
        plan = MonteCarloPlan(replications=5000, seed=44)
        m, exps = member_exponents(150, "exp")
        test = build_combined(150, exps, geometric_budget(m, 0.05), plan)
        path = tmp_path / "combined.txt"
        save_test(test, path)
        assert load_test(path) == test

    def test_minimax_round_trip(self, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            test = build_minimax_adaptive(150, 4.0, 3)
        path = tmp_path / "minimax.txt"
        save_test(test, path)
        assert load_test(path) == test

    # read back, the first would load with its provenance cut to "mc", the
    # second would be refused for its repeated d, the last would load as "x"
    @pytest.mark.parametrize("provenance", ["mc\ncritical_value_x = 1", "mc\nd = 5", "mc\r",
                                            " x "])
    def test_provenance_with_a_line_break_is_refused(self, tmp_path, provenance):
        test = PNormTest(d=50, exponent=E2, critical_value=8.0, alpha=0.05, provenance=provenance)
        refusal = ("has leading or trailing whitespace" if provenance == " x "
                   else "holds a line break")
        with pytest.raises(ConfigError, match=refusal):
            save_test(test, tmp_path / "a.txt")
        assert not (tmp_path / "a.txt").exists()

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("schema = other/9\nkind = single\n")
        with pytest.raises(ConfigError):
            load_test(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("schema = pnormlab-test/1\nkind = enhanced\n")
        with pytest.raises(ConfigError, match="unknown artifact kind: 'enhanced'"):
            load_test(path)

    def test_only_single_combined_and_minimax_tests_are_saved(self, tmp_path):
        test = EnhancedTest(PNormTest(d=50, exponent=E2, critical_value=8.0, alpha=0.05))
        with pytest.raises(DomainError, match="cannot serialize test of type EnhancedTest"):
            save_test(test, tmp_path / "a.txt")
        assert not (tmp_path / "a.txt").exists()

    @pytest.mark.parametrize("content", [
        b"schema = pnormlab-test/1\nkind single\n",
        b"schema = pnormlab-test/1\nkind = single\nd = ten\n",
        b"\xff\xfe\x00binary",
        # member counts that disagree fail at load, not at the first decision
        b"schema = pnormlab-test/1\nkind = combined\nd = 100\nalpha = 0.05\n"
        b"exponents = 2,3\nalphas = 0.025,0.025\nkappas = 11.1\nscale = 1\n",
        b"schema = pnormlab-test/1\nkind = combined\nd = 100\nalpha = 0.05\n"
        b"exponents = 2,3\nalphas = 0.05\nkappas = 11.1,5.2\nscale = 1\n",
        b"schema = pnormlab-test/1\nkind = minimax\nd = 100\nmargin = 5\n"
        b"max_power = 3\nkappas = 90,13\nthreshold = 1\n",
    ], ids=["no-equals", "bad-value", "not-utf8", "combined-kappas",
            "combined-alphas", "minimax-kappas"])
    def test_malformed_artifact(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(ConfigError):
            load_test(path)

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    @pytest.mark.parametrize("kind, line", [
        ("single", "d = 0"),
        ("single", "alpha = 7"),
        ("single", "alpha = 0"),
        ("single", "critical_value = nan"),
        ("single", "critical_value = inf"),
        ("combined", "alpha = 1"),
        ("combined", "scale = nan"),
        ("combined", "kappas = 5,-1,2"),
        ("minimax", "d = -3"),
        ("minimax", "threshold = inf"),
        ("minimax", "kappas = 10,0,4"),
        ("minimax", "kappas = 10,nan,4"),
    ])
    def test_out_of_range_artifact(self, tmp_path, kind, line):
        plan = MonteCarloPlan(replications=2000, seed=44)
        test = {
            "single": lambda: mc_calibrate(E2, 60, 0.05, plan),
            "combined": lambda: build_combined(60, (1.0, 2.0, 4.0),
                                               geometric_budget(3, 0.05), plan),
            "minimax": lambda: mc_scale_minimax(build_minimax_adaptive(60, 4.0, 3),
                                                0.05, plan),
        }[kind]()
        path = tmp_path / "a.txt"
        save_test(test, path)
        assert load_test(path) == test
        key = line.split(" = ")[0]
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line if x.startswith(key + " =") else x
                                   for x in lines) + "\n")
        with pytest.raises(ConfigError, match="out of range"):
            load_test(path)

    @pytest.mark.parametrize("content, line", [
        # the alphas sum to 0.05
        (b"schema = pnormlab-test/1\nkind = combined\nd = 100\nalpha = 0.07\n"
         b"exponents = 2,3\nalphas = 0.025,0.025\nbudget_generator = geometric\n"
         b"budget_success = 0.5\nbudget_last_share = 0.5\nkappas = 11.1,5.2\nscale = 1\n",
         "alpha = 0.07"),
        # d = 100 and margin 5 give kappas 109.93..., 13.07...
        (b"schema = pnormlab-test/1\nkind = minimax\nd = 100\nmargin = 5\n"
         b"max_power = 2\nkappas = 90,13\nthreshold = 1\n", "kappas = 90,13"),
    ], ids=["combined-alpha", "minimax-kappas"])
    def test_derived_line_must_agree(self, tmp_path, content, line):
        path = tmp_path / "a.txt"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=line):
            load_test(path)

    @staticmethod
    def _minimax_with_kappas(path, move):
        """A d = 60, margin 4 minimax artifact whose kappas are ``move(k)``."""
        test = MinimaxAdaptiveTest(d=60, margin=4.0, max_power=3)
        save_test(test, path)
        kappas = ",".join(format(move(k), ".17g") for k in test.kappas)
        path.write_text(re.sub(r"(?m)^kappas = .*$", f"kappas = {kappas}", path.read_text()))
        return test

    def test_kappas_an_ulp_or_two_apart_load(self, tmp_path):
        # another libm may move an analytic kappa by an ulp
        path = tmp_path / "a.txt"
        test = self._minimax_with_kappas(
            path, lambda k: np.nextafter(np.nextafter(k, np.inf), np.inf))
        assert load_test(path) == test
        assert load_test(path).kappas == test.kappas

    def test_kappas_that_moved_further_are_refused(self, tmp_path):
        path = tmp_path / "a.txt"
        self._minimax_with_kappas(path, lambda k: k * (1.0 + 1e-9))
        with pytest.raises(ConfigError, match="out of range: kappas = "):
            load_test(path)

    def test_minimax_d_past_float_range_is_out_of_range(self, tmp_path):
        # working out the kappas overflows, which is the artifact's fault
        path = tmp_path / "a.txt"
        path.write_text("schema = pnormlab-test/1\nkind = minimax\nd = 1" + "0" * 400
                        + "\nmargin = 4\nmax_power = 1\nkappas = 60\nthreshold = 1\n")
        with pytest.raises(ConfigError, match="out of range: int too large to convert to float"):
            load_test(path)

    # a max_power read from an artifact asks for that many kappas
    @pytest.mark.parametrize("max_power", [0, 1001])
    def test_max_power_outside_its_range_is_refused(self, tmp_path, max_power):
        with pytest.raises(DomainError, match="max_power must lie in 1..1000"):
            MinimaxAdaptiveTest(d=60, margin=4.0, max_power=max_power)
        path = tmp_path / "a.txt"
        path.write_text("schema = pnormlab-test/1\nkind = minimax\nd = 60\nmargin = 4\n"
                        f"max_power = {max_power}\nkappas = 60\nthreshold = 1\n")
        with pytest.raises(ConfigError, match="out of range: max_power must lie in 1..1000"):
            load_test(path)

    def test_uncalibrated_combined_artifact_loads(self, tmp_path):
        # save_test writes calibration_size = nan for a test built by hand
        test = CombinedTest(d=60, exponents=(2.0, 4.0), kappas=(11.0, 4.0), scale=1.0,
                            budget=geometric_budget(2, 0.05))
        path = tmp_path / "c.txt"
        save_test(test, path)
        assert "calibration_size = nan" in path.read_text()
        assert math.isnan(load_test(path).calibration_size)

    _MC = "seed=44 replications=2000 chunk_size=128 sampler=standard_normal"
    _GOLDEN = {
        "single": (
            lambda plan: mc_calibrate(E2, 60, 0.05, plan),
            "kind = single\nd = 60\nexponent = 2\nalpha = 0.050000000000000003\n"
            "critical_value = 8.8805738515631472\n"
            f"provenance = monte_carlo({_MC})\n"),
        "single-sup": (
            lambda plan: mc_calibrate(SUP, 60, 0.05, plan),
            "kind = single\nd = 60\nexponent = sup\nalpha = 0.050000000000000003\n"
            "critical_value = 3.2780367030413067\n"
            f"provenance = monte_carlo({_MC})\n"),
        "asymptotic": (
            lambda plan: asymptotic_test(E2, 100, 0.05),
            "kind = single\nd = 100\nexponent = 2\nalpha = 0.050000000000000003\n"
            "critical_value = 11.150879490157003\n"
            "provenance = exact_chi2(alpha=0.05)\n"),
        "asymptotic-sup": (
            lambda plan: asymptotic_test(SUP, 5000, 0.05),
            "kind = single\nd = 5000\nexponent = sup\nalpha = 0.050000000000000003\n"
            "critical_value = 4.4116495456299232\n"
            "provenance = exact_sup(alpha=0.05)\n"),
        "combined-geometric": (
            lambda plan: build_combined(60, (1.0, 2.0, 4.0), geometric_budget(3, 0.05), plan),
            "kind = combined\nd = 60\nalpha = 0.050000000000000003\nexponents = 1,2,4\n"
            "alphas = 0.016666666666666666,0.0083333333333333332,0.025000000000000001\n"
            "budget_generator = geometric\nbudget_success = 0.5\nbudget_last_share = 0.5\n"
            "kappas = 57.553672085542409,9.410917814301758,4.3273275508746654\n"
            "scale = 0.98712917316653814\ncalibration_size = 0.050500000000000003\n"
            f"provenance = mc({_MC})\n"),
        # built by hand: never calibrated, no provenance
        "combined-uncalibrated": (
            lambda plan: CombinedTest(d=60, exponents=(2.0, 4.0), kappas=(11.0, 4.0),
                                      scale=1.0, budget=geometric_budget(2, 0.05)),
            "kind = combined\nd = 60\nalpha = 0.050000000000000003\nexponents = 2,4\n"
            "alphas = 0.025000000000000001,0.025000000000000001\n"
            "budget_generator = geometric\nbudget_success = 0.5\nbudget_last_share = 0.5\n"
            "kappas = 11,4\nscale = 1\ncalibration_size = nan\nprovenance = \n"),
        "minimax": (
            lambda plan: build_minimax_adaptive(60, 4.0, 3),
            "kind = minimax\nd = 60\nmargin = 4\nmax_power = 3\n"
            "kappas = 66.550466895815504,10.189102247029092,5.8972007017361934\n"
            "threshold = 1\nprovenance = analytic(margin=4)\n"),
        "minimax-scaled": (
            lambda plan: mc_scale_minimax(build_minimax_adaptive(60, 4.0, 3), 0.05, plan),
            "kind = minimax\nd = 60\nmargin = 4\nmax_power = 3\n"
            "kappas = 66.550466895815504,10.189102247029092,5.8972007017361934\n"
            "threshold = 0.88794695745876417\nalpha = 0.050000000000000003\n"
            f"provenance = analytic(margin=4) mc-scaled({_MC})\n"),
    }

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    @pytest.mark.parametrize("case", list(_GOLDEN))
    def test_artifact_bytes(self, tmp_path, case):
        build, text = self._GOLDEN[case]
        path, again = tmp_path / "a.txt", tmp_path / "b.txt"
        save_test(build(MonteCarloPlan(2000, 44)), path)
        assert path.read_bytes() == ("schema = pnormlab-test/1\n" + text).encode()
        # a loaded artifact writes the same bytes, calibration_size = nan and
        # an empty provenance included
        save_test(load_test(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_custom_budget_artifact_is_refused(self, tmp_path):
        # the bytes a custom budget's calibration wrote: its generator line
        # is read, and then the missing success line refuses it
        path = tmp_path / "a.txt"
        path.write_text(
            "schema = pnormlab-test/1\nkind = combined\nd = 60\nalpha = 0.040000000000000001\n"
            "exponents = 2,4\nalphas = 0.02,0.02\nbudget_generator = custom\n"
            "kappas = 9.179296147683953,4.37301753138828\n"
            "scale = 0.98347134517952939\ncalibration_size = 0.040500000000000001\n"
            f"provenance = mc({self._MC})\n")
        with pytest.raises(ConfigError, match="artifact is missing field 'budget_success'"):
            load_test(path)

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(ConfigError):
            load_test(tmp_path / "absent.txt")
