import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from pnormlab.consistency import (
    AlternativeFamily,
    CriterionTrace,
    contour_grid,
    criterion_trace,
    custom_family,
    dense,
    finite_p_criterion,
    geometric_dgrid,
    minimax_radius,
    power_sparse,
    rewrite_check,
    semi_sparse,
    sparse,
    sup_criterion,
)
from pnormlab.errors import DomainError, NumericError
from pnormlab.gaussmath import detection_weight, sup_centering
from pnormlab.norms import SUP, Exponent

from conftest import (
    semi_sparse_k,
    semi_sparse_log_criterion,
    semi_sparse_log_sup_terms,
    semi_sparse_tau,
)


STOCK_FAMILIES = (dense(), sparse(), semi_sparse(), power_sparse(3.0))


class TestFamilies:
    def test_dense_and_sparse_vectors(self):
        assert np.array_equal(dense().theta(4, 2.0), np.full(4, 2.0))
        expected = np.zeros(6)
        expected[0] = 3.0
        assert np.array_equal(sparse().theta(6, 3.0), expected)

    def test_semi_sparse_shape(self):
        d = 50_000
        theta = semi_sparse().theta(d)
        logd = math.log(d)
        tau = math.sqrt(2 * logd) / math.log(logd)
        k = math.ceil(math.sqrt(d) / logd)
        assert k == 21
        assert np.count_nonzero(theta) == k
        assert theta[0] == pytest.approx(tau, rel=1e-15)
        assert np.all(theta[:k] == theta[0])

    def test_semi_sparse_minimum_dimension(self):
        with pytest.raises(DomainError):
            semi_sparse().theta(8)

    def test_power_sparse_height(self):
        fam = power_sparse(4.0)
        theta = fam.theta(10_000)
        assert theta[0] == pytest.approx(10_000 ** (1 / 8), rel=1e-15)
        assert np.count_nonzero(theta) == 1

    def test_power_sparse_height_overflow_names_p_and_d(self):
        # d ** (1 / (2 p)) is 1e1500 at p = 0.1
        with pytest.raises(NumericError,
                           match=r"spike height overflows at p=0.1, d=1e\+300"):
            power_sparse(0.1).runs(10**300)

    def test_custom_rule_shape_guard(self):
        fam = custom_family(lambda d: np.ones(d + 1), "bad")
        with pytest.raises(DomainError):
            fam.theta(5)

    def test_support(self):
        # the support is the leading run; theta expands the runs in order
        for fam in STOCK_FAMILIES:
            values, counts = fam.runs(1000)
            assert values[0] > 0 and np.all(values[1:] == 0.0)
            assert counts.sum() == 1000
            assert np.array_equal(fam.theta(1000), np.repeat(values, counts.astype(int)))

    def test_semi_sparse_support_matches_oracle(self):
        # ties the closed-form oracle of the acceptance checks to the program,
        # out to a d no vector could have
        for d in (16, 1000, 50_000, 10**6, 10**300):
            values, counts = semi_sparse().runs(d)
            k = semi_sparse_k(d)
            assert values.tolist() == [semi_sparse_tau(d), 0.0]
            assert counts.tolist() == [float(k), float(d - k)]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: finite_p_criterion(v, 3.0),
    sup_criterion,
    lambda v: rewrite_check(v, 3.0),
    lambda v: criterion_trace(custom_family(lambda d: np.resize(v, d)), Exponent.finite(2.0),
                              (10, 20)),
], ids=["finite_p_criterion", "sup_criterion", "rewrite_check", "custom_family_trace"])
def test_non_finite_entry_is_refused(call, bad):
    # let through, a NaN becomes a NaN criterion
    with pytest.raises(DomainError, match="finite entries"):
        call(np.array([1.0, bad]))


class TestFiniteCriterion:
    def test_zero_vector(self):
        assert finite_p_criterion(np.zeros(50), 3.0) == 0.0

    def test_dense_euclidean_closed_form(self):
        for d in (100, 1234):
            assert finite_p_criterion(np.ones(d), 2.0) == pytest.approx(
                math.sqrt(d), rel=1e-12
            )

    def test_power_sparse_is_flat_at_its_own_exponent(self):
        for p in (1.0, 2.0, 3.0):
            for d in (100, 10_000, 1_000_000):
                theta = power_sparse(p).theta(d)
                assert finite_p_criterion(theta, p) == pytest.approx(1.0, rel=1e-12)

    def test_power_sparse_grows_at_larger_exponent(self):
        p, q = 2.0, 3.0
        vals = [
            finite_p_criterion(power_sparse(p).theta(d), q) for d in (10**3, 10**5)
        ]
        assert vals[1] / vals[0] == pytest.approx(
            (10**5 / 10**3) ** (q / (2 * p) - 0.5), rel=1e-9
        )

    def test_monotone_in_exponent(self, rng):
        theta = rng.normal(scale=2.0, size=500)
        values = [finite_p_criterion(theta, p) for p in (0.5, 1.0, 2.0, 3.0, 6.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_cutoff_robustness_two_sided(self, rng):
        # criterion with a shifted cutoff stays within the pointwise bracket
        # [min(1, M^(p-2), M^(2-p)), max(1, M^(p-2), M^(2-p))] of the default
        theta = rng.normal(scale=1.8, size=800)
        for p in (0.7, 1.7, 2.0, 3.3):
            base = finite_p_criterion(theta, p)
            for m_cut in (0.3, 2.5):
                val = finite_p_criterion(theta, p, cutoff=m_cut)
                lo = min(1.0, m_cut ** (p - 2.0), m_cut ** (2.0 - p))
                hi = max(1.0, m_cut ** (p - 2.0), m_cut ** (2.0 - p))
                assert lo * base * (1 - 1e-12) <= val <= hi * base * (1 + 1e-12)


class TestSupCriterion:
    def test_null_vector_closed_form(self):
        d = 10_000
        crit = sup_criterion(np.zeros(d))
        c = sup_centering(d)
        expected = d * float(special.ndtr(-c) / special.ndtr(c))
        assert crit.ratio_sum == pytest.approx(expected, rel=1e-12)
        assert not crit.saturated

    def test_null_values_stay_bounded_across_dimensions(self):
        vals = [sup_criterion(np.zeros(d)).ratio_sum for d in (10**3, 10**4, 10**5, 10**6)]
        assert max(vals) / min(vals) < 1.5

    def test_sparse_root_three_log_signal_diverges(self):
        grid = geometric_dgrid(10**3, 10**6)
        vals = []
        for d in grid:
            theta = np.zeros(d)
            theta[0] = math.sqrt(3.0 * math.log(d))
            vals.append(sup_criterion(theta).ratio_sum)
        slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
        assert slope > 0.05

    def test_shrinking_dense_signal_stays_bounded(self):
        grid = geometric_dgrid(10**3, 10**6)
        vals = [
            sup_criterion(np.full(d, 1.0 / math.sqrt(math.log(d)))).ratio_sum
            for d in grid
        ]
        assert max(vals) / min(vals) < 1.3

    def test_saturation_flags_certain_divergence(self):
        theta = np.zeros(100)
        theta[0] = 1000.0
        crit = sup_criterion(theta)
        assert crit.saturated
        assert crit.ratio_sum > 1e250

    def test_weight_form_positive_and_ratio_bounded_against_it(self, rng):
        # frozen two-sided bound C(z) on (ratio term)/(weight term) for
        # arguments at least z, tabulated from a fine-grid scan
        table = {-6.0: 27.0, -4.0: 5.3, -2.0: 3.3, 0.0: 3.3, 1.0: 3.3}
        d = 4000
        c = sup_centering(d)
        for z, cap in table.items():
            theta = rng.uniform(0.0, c - z, size=d)  # arguments in [z, c]
            crit = sup_criterion(theta)
            assert crit.weight_sum > 0.0
            ratio = crit.ratio_sum / crit.weight_sum
            assert 1.0 / cap <= ratio <= cap


class TestTrace:
    def test_dense_euclidean_slope_is_half(self):
        tr = criterion_trace(dense(), Exponent.finite(2.0), geometric_dgrid(100, 10**5))
        assert tr.fitted_log_slope == pytest.approx(0.5, abs=1e-9)

    def test_semi_sparse_euclidean_slope_negative(self):
        tr = criterion_trace(
            semi_sparse(), Exponent.finite(2.0), geometric_dgrid(10**3, 10**6)
        )
        assert tr.fitted_log_slope < -0.05

    def test_semi_sparse_sup_trace_bounded(self):
        tr = criterion_trace(semi_sparse(), SUP, geometric_dgrid(10**3, 10**6))
        assert max(tr.values) / min(tr.values) < 3.0
        assert not tr.saturated

    def test_power_sparse_flat_then_growing(self):
        grid = geometric_dgrid(10**3, 10**6)
        flat = criterion_trace(power_sparse(2.0), Exponent.finite(2.0), grid)
        assert flat.fitted_log_slope == pytest.approx(0.0, abs=1e-12)
        grow = criterion_trace(power_sparse(2.0), Exponent.finite(3.0), grid)
        assert grow.fitted_log_slope == pytest.approx(3.0 / 4.0 - 0.5, abs=1e-9)

    @pytest.mark.parametrize("family", [dense(), sparse(), semi_sparse(), power_sparse(2.0)],
                             ids=lambda f: f.label)
    @pytest.mark.parametrize("exponent", [Exponent.finite(0.5), Exponent.finite(2.0),
                                          Exponent.finite(3.0), SUP], ids=lambda e: e.label)
    def test_slope_is_the_least_squares_fit(self, family, exponent):
        grid = geometric_dgrid(10**3, 10**7)
        tr = criterion_trace(family, exponent, grid)
        want = np.polyfit(np.log(grid), np.log(tr.values), 1)[0]
        # atol covers the power-sparse p=2 trace, flat up to rounding
        np.testing.assert_allclose(tr.fitted_log_slope, want, rtol=1e-12, atol=1e-15)

    def test_flat_trace_has_slope_exactly_zero(self):
        grid = geometric_dgrid(10**3, 10**7)
        assert CriterionTrace(grid, (0.3,) * len(grid), False).fitted_log_slope == 0.0

    @pytest.mark.parametrize("exponent", [Exponent.finite(2.0), Exponent.finite(3.0),
                                          Exponent.finite(math.e + 1.0),
                                          Exponent.finite(4.0), SUP],
                             ids=lambda e: e.label)
    def test_semi_sparse_trace_matches_oracle_to_1e300(self, exponent):
        grid = geometric_dgrid(10**3, 10**300)
        tr = criterion_trace(semi_sparse(), exponent, grid)
        for d, value in tr.rows():
            if exponent.is_sup:
                expected = sum(math.exp(t) for t in semi_sparse_log_sup_terms(d))
            else:
                expected = math.exp(semi_sparse_log_criterion(d, exponent.p))
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), d
        assert not tr.saturated

    @pytest.mark.parametrize("family", STOCK_FAMILIES + (
        custom_family(lambda d: np.linspace(-4.0, 4.0, d), "ramp"),
    ), ids=lambda f: f.label)
    def test_runs_agree_with_vector_criteria(self, family):
        grid = (1000, 4321, 50_000)
        for p in (1.0, 2.0, 3.0, 4.5):
            tr = criterion_trace(family, Exponent.finite(p), grid)
            for d, value in tr.rows():
                assert finite_p_criterion(family.theta(d), p) == pytest.approx(
                    value, rel=1e-14, abs=0.0
                )
        tr = criterion_trace(family, SUP, grid)
        for d, value in tr.rows():
            assert sup_criterion(family.theta(d)).ratio_sum == pytest.approx(
                value, rel=1e-14, abs=0.0
            )

    @pytest.mark.parametrize("family", STOCK_FAMILIES, ids=lambda f: f.label)
    @pytest.mark.parametrize("exponent", [Exponent.finite(0.5), Exponent.finite(2.0),
                                          Exponent.finite(3.0), SUP], ids=lambda e: e.label)
    def test_stacking_leaves_every_value_as_its_pair_gives_it(self, family, exponent):
        # one stacked pass over the grid: no value depends on the other rows
        grid = geometric_dgrid(16, 10**300)
        tr = criterion_trace(family, exponent, grid)
        for i in range(len(grid) - 1):
            pair = criterion_trace(family, exponent, grid[i:i + 2])
            assert pair.values == tr.values[i:i + 2], grid[i]

    @pytest.mark.parametrize("spiked", [0, 1], ids=["even-spiked", "odd-spiked"])
    def test_run_count_that_changes_along_the_grid(self, spiked):
        # eleven runs at even d and three at odd d, so the rows stack in two
        # groups; a spike past the sup ratio form's range marks one parity
        def rule(d):
            spike = [60.0 if d % 2 == spiked else 0.5]
            if d % 2:
                return spike + [1.5, 0.0], [1, 7, d - 8]
            steps = np.arange(1.0, 10.0)
            return (np.concatenate([spike, np.sqrt(steps), [0.0]]),
                    np.concatenate([[1], 3 * steps, [d - 136]]))

        family = AlternativeFamily("custom", "alternating", rule)
        grid = (1000, 1001, 1002, 1003, 4000, 4001)
        for exponent in (Exponent.finite(0.5), Exponent.finite(2.0), Exponent.finite(3.0), SUP):
            tr = criterion_trace(family, exponent, grid)
            assert tr.saturated == exponent.is_sup
            for d, value in tr.rows():
                assert value == criterion_trace(family, exponent, (d, d + 2)).values[0], d
                theta = family.theta(d)
                if exponent.is_sup:
                    assert value == pytest.approx(sup_criterion(theta).ratio_sum, rel=1e-14), d
                    continue
                # a row sums as np.sum of its runs alone
                values, counts = family.runs(d)
                weights = detection_weight(values, exponent.p)
                assert value == np.sum(counts * weights) / math.sqrt(d), d
                assert value == pytest.approx(finite_p_criterion(theta, exponent.p),
                                              rel=1e-14), d

    def test_sup_trace_saturating_at_some_dimensions(self):
        # the spike sqrt(d) leaves the ratio form's range between d = 1e3 and 1e4
        family = power_sparse(1.0)
        tr = criterion_trace(family, SUP, geometric_dgrid(10**3, 10**4))
        assert tr.saturated
        flags = [sup_criterion(family.theta(d)).saturated for d in tr.d_grid]
        assert any(flags) and not all(flags)
        for (d, value), flag in zip(tr.rows(), flags):
            if not flag:
                pair = criterion_trace(family, SUP, (d, d + 1))
                assert value == pair.values[0] and not pair.saturated, d

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            criterion_trace(dense(), SUP, (10,))
        with pytest.raises(DomainError):
            criterion_trace(dense(), SUP, (100, 100))
        with pytest.raises(DomainError):
            criterion_trace(dense(), SUP, (2, 100))

    def test_geometric_grid_form(self):
        grid = geometric_dgrid(1000, 10_000)
        assert grid[0] == 1000 and grid[-1] == 10_000
        assert list(grid) == sorted(set(grid))
        assert grid == tuple(
            math.ceil(10 ** (k / 4)) for k in range(12, 17)
        )


class TestRewriteCheck:
    def test_euclidean_parts_coincide(self, rng):
        theta = rng.normal(size=300)
        parts = rewrite_check(theta, 2.0)
        assert parts.two_norm_part == pytest.approx(parts.p_norm_part, rel=1e-12)
        assert parts.criterion == pytest.approx(parts.two_norm_part, rel=1e-12)

    def test_sparse_parts(self):
        d, a, p = 400, 3.0, 4.0
        theta = np.zeros(d)
        theta[0] = a
        parts = rewrite_check(theta, p)
        assert parts.p_norm_part == pytest.approx(a**p / math.sqrt(d), rel=1e-12)
        assert parts.two_norm_part == pytest.approx(a**2 / math.sqrt(d), rel=1e-12)

    def test_min_form_counterexample_below_two(self):
        # one spike at d**(1/(2p)) on top of a d**(-1/4) carpet: both norm
        # parts diverge while the criterion stays at most 2
        p = 1.5
        for d in (10**3, 10**4, 10**5):
            theta = np.full(d, d ** (-0.25))
            theta[-1] = d ** (1.0 / (2.0 * p))
            parts = rewrite_check(theta, p)
            assert parts.criterion <= 2.0 + 1e-9
        # the parts grow like d**(1/6) and d**(1/8): slow but unbounded
        small = rewrite_check(_counterexample(10**3, p), p)
        big = rewrite_check(_counterexample(10**6, p), p)
        assert big.two_norm_part > 2.5 * small.two_norm_part
        assert big.p_norm_part > 1.9 * small.p_norm_part

    def test_domain(self):
        with pytest.raises(DomainError):
            rewrite_check(np.array([]), 2.0)
        with pytest.raises(DomainError, match="exponent must be a positive real, got -2.0"):
            rewrite_check(np.ones(3), -2)

    def test_sandwich_on_normal_vectors(self, rng):
        for p in (2.0, 2.5, 3.0, 4.0, 7.5, 20.0):
            for scale in (0.1, 1.0, 3.0):
                _assert_sandwich(rewrite_check(scale * rng.normal(size=500), p))

    def test_sandwich_on_stock_families(self):
        for fam in STOCK_FAMILIES:
            for p in (2.0, 3.0, 4.0, 8.0):
                _assert_sandwich(rewrite_check(fam.theta(10_000), p))

    def test_sandwich_on_counterexample(self):
        for d in (10**3, 10**4, 10**5):
            for p in (2.0, 3.0, 6.0):
                _assert_sandwich(rewrite_check(_counterexample(d, p), p))

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
        p=st.floats(2.0, 60.0),
    )
    def test_sandwich_on_bounded_vectors(self, theta, p):
        _assert_sandwich(rewrite_check(np.array(theta), p))


def _assert_sandwich(parts):
    # for p >= 2 the weight is max(x**2, |x|**p) pointwise, so the criterion
    # lies between half the larger part and the sum of the parts
    two, p_part, crit = parts.two_norm_part, parts.p_norm_part, parts.criterion
    assert 0.5 * max(two, p_part) <= crit * (1 + 1e-12)
    assert crit <= (two + p_part) * (1 + 1e-12)


def _counterexample(d, p):
    theta = np.full(d, d ** (-0.25))
    theta[-1] = d ** (1.0 / (2.0 * p))
    return theta


class TestMinimaxRadius:
    def test_reference_values(self):
        assert minimax_radius(2.0, 10_000) == pytest.approx(10.0, rel=1e-12)
        assert minimax_radius(4.0, 10_000) == pytest.approx(10.0**0.5, rel=1e-12)
        assert minimax_radius(1.0, 10_000) == pytest.approx(1000.0, rel=1e-12)

    def test_continuous_at_two(self):
        d = 777
        assert minimax_radius(2.0 - 1e-9, d) == pytest.approx(
            minimax_radius(2.0 + 1e-9, d), rel=1e-6
        )
        assert minimax_radius(2.0, d) == pytest.approx(d**0.25, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            minimax_radius(0.0, 100)

    def test_overflow_names_p_and_d(self):
        # d ** ((4 - p) / (4 p)) is 1e598 at p = 0.01
        with pytest.raises(NumericError, match=r"minimax radius overflows at p=0.01, d=1e\+06"):
            minimax_radius(0.01, 10**6)


class TestContourGrid:
    def test_euclidean_levels_are_circular(self):
        axis, grid = contour_grid(Exponent.finite(2.0), -3.0, 3.0, 61)
        # value depends only on x1^2 + x2^2
        i = np.searchsorted(axis, 1.2)
        j = np.searchsorted(axis, -1.2)
        assert grid[i, j] == pytest.approx(grid[j, i], rel=1e-12)
        expected = (axis[i] ** 2 + axis[j] ** 2) / math.sqrt(2.0)
        assert grid[i, j] == pytest.approx(expected, rel=1e-12)

    def test_exponent_free_near_origin(self):
        axis1, g1 = contour_grid(Exponent.finite(1.0), -0.9, 0.9, 31)
        axis3, g3 = contour_grid(Exponent.finite(3.0), -0.9, 0.9, 31)
        np.testing.assert_allclose(g1, g3, rtol=1e-13)

    def test_symmetries(self):
        axis, grid = contour_grid(Exponent.finite(3.0), -4.0, 4.0, 41)
        np.testing.assert_allclose(grid, grid.T, rtol=1e-13)
        np.testing.assert_allclose(grid, grid[::-1, :], rtol=1e-13)

    def test_sup_uses_two_dimensional_centering(self):
        axis, grid = contour_grid(SUP, -2.0, 2.0, 21)
        c2 = sup_centering(2)
        mid = np.searchsorted(axis, 0.0)
        term = float(special.ndtr(-(c2)) / special.ndtr(c2))
        assert grid[mid, mid] == pytest.approx(2 * term, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            contour_grid(SUP, -1.0, 1.0, 1)
        with pytest.raises(DomainError):
            contour_grid(SUP, 2.0, -2.0, 10)
