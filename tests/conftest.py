"""Shared independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: quantiles come
from bisection on the cdf, moments from adaptive quadrature, reference
distributions from scipy.stats routines, and the semi-sparse criteria from
their closed form in scalar log space.
"""

import math

import numpy as np
import pytest
from scipy import integrate


def bisection_solve(f, target, lo, hi, tol=1e-13, max_iter=200):
    """Solve f(x) = target for increasing f by bisection."""
    flo, fhi = f(lo) - target, f(hi) - target
    assert flo <= 0.0 <= fhi, "bisection oracle not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - target
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quadrature_abs_moment(r):
    """E|Z|^r by adaptive quadrature, split at 1 to isolate the origin."""

    def integrand(z):
        return 2.0 * z**r * np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)

    head, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
    tail, _ = integrate.quad(integrand, 1.0, np.inf, epsabs=0.0, epsrel=1e-12)
    return head + tail


# Closed form of the semi-sparse array: k_d leading coordinates at tau_d.
# Every value is built from scalars in log space, so d may run far past any
# length a vector could have (up to about 1e300, where the null tail
# probability at the sup centering nears the bottom of double range).


def semi_sparse_k(d):
    """Block size k_d = ceil(sqrt(d) / log d)."""
    return math.ceil(math.sqrt(d) / math.log(d))


def semi_sparse_tau(d):
    """Block height tau_d = sqrt(2 log d) / log log d."""
    return math.sqrt(2.0 * math.log(d)) / math.log(math.log(d))


def semi_sparse_log_criterion(d, p):
    """log of the p-criterion k_d * w_p(tau_d) / sqrt(d).

    tau_d >= sqrt(2) e / 2 > 1 for d >= 16 (its minimum, at log d = e^2),
    so the detection weight takes its outer branch w_p(tau_d) = tau_d^p.
    """
    return (
        math.log(semi_sparse_k(d))
        + p * math.log(semi_sparse_tau(d))
        - 0.5 * math.log(d)
    )


def _log_tail_ratio(x):
    """log(Phi(-x) / Phi(x)) through the complementary error function."""
    upper = 0.5 * math.erfc(x / math.sqrt(2.0))
    assert upper > 0.0, "tail probability left double range"
    return math.log(upper) - math.log1p(-upper)


def semi_sparse_log_sup_terms(d):
    """(log block part, log null part) of the sup ratio sum.

    With the centering c_d = sqrt(2 log d) - log log d / (2 sqrt(2 log d))
    and r(x) = Phi(-x) / Phi(x), the block part is k_d * r(c_d - tau_d)
    and the null part (d - k_d) * r(c_d).
    """
    root = math.sqrt(2.0 * math.log(d))
    centering = root - math.log(math.log(d)) / (2.0 * root)
    k = semi_sparse_k(d)
    block = math.log(k) + _log_tail_ratio(centering - semi_sparse_tau(d))
    null = math.log(d - k) + _log_tail_ratio(centering)
    return block, null


# verdict lines of tests/test_acceptance.py, printed at the end of the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240808)
