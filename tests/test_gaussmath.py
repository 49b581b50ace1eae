import math

import numpy as np
import pytest

from pnormlab.errors import DomainError, NumericError
from pnormlab.gaussmath import (
    abs_moment,
    default_tail_weight,
    detection_weight,
    gauss_moments,
    log_abs_moment,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_sf,
    sup_centering,
    sup_detection_weight,
)

from conftest import bisection_solve, quadrature_abs_moment


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_far_tail_against_closed_form_bounds(self):
        # (1/x - 1/x^3) phi(x) <= sf(x) <= phi(x)/x for x > 0
        x = 10.0
        phi = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        sf = std_normal_sf(x)
        assert (1.0 / x - 1.0 / x**3) * phi <= sf <= phi / x
        assert 0.0 < sf < 1e-20
        # 1 - 1e-20 is not representable below 1.0 in double precision
        assert std_normal_cdf(10.0) >= 1.0 - 1e-20

    def test_lower_five_percent_point(self):
        x_star = bisection_solve(std_normal_cdf, 0.05, -10.0, 0.0)
        assert std_normal_cdf(x_star) == pytest.approx(0.05, abs=1e-9)
        assert x_star == pytest.approx(-1.6448536, abs=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_sf(float("inf"))


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_ninety_five_percent_vs_bisection(self):
        oracle = bisection_solve(std_normal_cdf, 0.95, 0.0, 10.0)
        assert std_normal_quantile(0.95) == pytest.approx(oracle, abs=1e-9)
        assert std_normal_quantile(0.95) == pytest.approx(1.6448536, abs=1e-6)

    def test_round_trip(self):
        for q in np.arange(0.01, 1.0, 0.01):
            assert std_normal_cdf(std_normal_quantile(q)) == pytest.approx(
                q, abs=1e-10
            )

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                std_normal_quantile(bad)


class TestAbsMoment:
    def test_small_integer_orders(self):
        assert abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
        assert abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)
        assert abs_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_against_quadrature_grid(self):
        # acceptance tolerance: relative error 1e-8 on r in [0.1, 60]
        for r in np.linspace(0.1, 60.0, 41):
            assert abs_moment(r) == pytest.approx(
                quadrature_abs_moment(r), rel=1e-8
            ), r

    def test_stirling_style_bounds(self):
        # sqrt(2e/pi) r^(r/2} e^(-r/2) <= E|Z|^r < sqrt(2) r^(r/2) e^(-r/2), r > 1
        for r in list(np.linspace(1.01, 60.0, 37)) + [math.e**4 + 1.0]:
            envelope = r ** (r / 2.0) * math.exp(-r / 2.0)
            val = abs_moment(r)
            assert math.sqrt(2.0 * math.e / math.pi) * envelope <= val < math.sqrt(2.0) * envelope

    def test_log_scale_accessor_beyond_double_range(self):
        lv = log_abs_moment(400.0)
        assert lv > 709.0 and math.isfinite(lv)
        assert abs_moment(400.0) == math.inf

    def test_domain(self):
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(DomainError):
                abs_moment(bad)


class TestGaussMoments:
    def test_closed_forms(self):
        m2 = gauss_moments(2.0)
        assert m2.mean == pytest.approx(1.0, rel=1e-14)
        assert m2.variance == pytest.approx(2.0, rel=1e-13)
        m1 = gauss_moments(1.0)
        assert m1.mean == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        assert m1.variance == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-13)
        m4 = gauss_moments(4.0)
        assert m4.mean == pytest.approx(3.0, rel=1e-14)
        assert m4.variance == pytest.approx(105.0 - 9.0, rel=1e-13)

    def test_variance_positive_over_wide_grid(self):
        for p in np.geomspace(1e-4, 250.0, 60):
            m = gauss_moments(p)
            assert math.isfinite(m.log_variance)
            assert m.variance > 0.0 or m.variance == math.inf

    def test_consistency_with_abs_moment(self):
        for p in (0.5, 1.7, 3.0, 12.0):
            m = gauss_moments(p)
            assert m.variance == pytest.approx(
                abs_moment(2 * p) - abs_moment(p) ** 2, rel=1e-10
            )

    def test_total_cancellation_raises(self):
        with pytest.raises(NumericError):
            gauss_moments(1e-9)


class TestDetectionWeight:
    def test_branch_values(self):
        assert detection_weight(0.5, 3.0) == 0.25
        assert detection_weight(2.0, 3.0) == 8.0
        assert detection_weight(2.0, 1.0, cutoff=3.0) == 4.0
        for x in (-1.3, 0.0, 0.4, 2.2):
            assert detection_weight(x, 2.0) == pytest.approx(x * x, rel=1e-15)

    def test_even_and_zero_at_origin(self, rng):
        x = rng.normal(scale=3.0, size=256)
        np.testing.assert_allclose(
            detection_weight(x, 2.7), detection_weight(-x, 2.7), rtol=0.0
        )
        assert detection_weight(0.0, 5.0) == 0.0

    def test_monotone_in_exponent_100k_triples(self, rng):
        # weight never decreases when the exponent grows, at any point
        n = 100_000
        p = rng.uniform(0.05, 12.0, size=n)
        q = p + rng.uniform(0.0, 8.0, size=n)
        x = rng.normal(scale=3.0, size=n)
        # elementwise evaluation of the weight at (x, p) and (x, q)
        ax = np.abs(x)
        lo = np.where(ax <= 1.0, ax * ax, ax**p)
        hi = np.where(ax <= 1.0, ax * ax, ax**q)
        assert np.all(lo <= hi * (1 + 1e-12))
        # spot-check against the public function on a subsample
        idx = rng.choice(n, size=200, replace=False)
        for i in idx:
            assert detection_weight(x[i], p[i]) == pytest.approx(lo[i], rel=1e-12)
            assert detection_weight(x[i], q[i]) == pytest.approx(hi[i], rel=1e-12)

    def test_sandwich_above_two(self, rng):
        x = rng.normal(scale=2.5, size=4096)
        for p in (2.0, 3.5, 7.0):
            w = detection_weight(x, p)
            both = np.abs(x) ** p + x * x
            assert np.all(0.5 * both <= w * (1 + 1e-12))
            assert np.all(w <= both * (1 + 1e-12))

    def test_domain(self):
        with pytest.raises(DomainError):
            detection_weight(1.0, -2.0)
        with pytest.raises(DomainError):
            detection_weight(1.0, 2.0, cutoff=0.0)


class TestSupDetectionWeight:
    def test_continuity_at_kink(self):
        target = math.exp(-0.5)
        assert sup_detection_weight(1.0) == pytest.approx(target, rel=1e-14)
        assert default_tail_weight(1.0) == pytest.approx(target, rel=1e-14)
        assert sup_detection_weight(1.0 - 1e-9) == pytest.approx(target, rel=1e-6)

    def test_value_at_zero(self):
        assert sup_detection_weight(0.0) == 1.0

    def test_strictly_decreasing(self):
        xs = np.linspace(-25.0, 25.0, 2001)
        vals = sup_detection_weight(xs)
        assert np.all(np.diff(vals) < 0.0)


class TestSupCentering:
    def test_dimension_one_is_zero(self):
        assert sup_centering(1) == 0.0

    def test_direct_formula(self):
        for d in (15, 50_000):
            root = math.sqrt(2.0 * math.log(d))
            assert sup_centering(d) == pytest.approx(
                root - math.log(math.log(d)) / (2.0 * root), rel=1e-15
            )

    def test_gap_to_leading_term_shrinks_slowly(self):
        # the gap to sqrt(2 log d) is -log log d/(2 sqrt(2 log d)): it peaks
        # in magnitude near d ~ exp(e^2) and decays (very slowly) beyond
        gaps = [sup_centering(d) - math.sqrt(2 * math.log(d)) for d in (10**4, 10**6, 10**8)]
        assert all(g < 0.0 for g in gaps)
        assert abs(gaps[2]) < abs(gaps[1]) < abs(gaps[0])

    def test_no_clamping_below_e(self):
        # log log 2 < 0, kept as-is
        assert sup_centering(2) > math.sqrt(2.0 * math.log(2.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            sup_centering(0)

