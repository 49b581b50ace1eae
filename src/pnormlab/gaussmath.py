"""Scalar Gaussian kernel: cdf/quantile, absolute moments, detection weights.

Everything in this module is a pure function of its inputs and safe to call
from any number of threads.  Array inputs are accepted wherever vectorized
evaluation is useful downstream; scalars in give scalars out.

Numerical conventions
---------------------
* ``std_normal_cdf``/``std_normal_sf`` are backed by the Cephes rational
  erfc approximation (via :mod:`scipy.special`), absolute error below 1e-14
  in double precision.  The survival function is evaluated through the
  complementary branch directly, so there is no catastrophic cancellation
  for large arguments.
* Absolute moments of ``|N(0,1)|`` use the closed form
  ``E|Z|^r = 2^(r/2) * Gamma((r+1)/2) / sqrt(pi)`` evaluated through
  log-Gamma; ``log_abs_moment`` is the log-scale accessor for exponents
  large enough that the linear value overflows (r beyond roughly 300).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, NumericError

__all__ = [
    "std_normal_cdf",
    "std_normal_sf",
    "std_normal_quantile",
    "abs_moment",
    "log_abs_moment",
    "GaussMoments",
    "gauss_moments",
    "detection_weight",
    "default_tail_weight",
    "sup_detection_weight",
    "sup_centering",
]

_LOG_SQRT_PI = 0.5 * math.log(math.pi)

# Relative variance below this leaves fewer than two significant decimal
# digits after the cancellation E|Z|^(2p) - (E|Z|^p)^2 in double precision.
_MIN_RELATIVE_VARIANCE = 1e-14


def _require_finite_scalar(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def std_normal_cdf(x: float) -> float:
    """Standard normal cdf at ``x``."""
    x = _require_finite_scalar(x, "x")
    return float(special.ndtr(x))


def std_normal_sf(x: float) -> float:
    """Upper tail probability ``P(Z >= x)``, cancellation-free for large x."""
    x = _require_finite_scalar(x, "x")
    return float(special.ndtr(-x))


def std_normal_quantile(q: float) -> float:
    """Inverse of :func:`std_normal_cdf` on (0, 1)."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {q!r}")
    return float(special.ndtri(q))


def log_abs_moment(r: float) -> float:
    """log E|Z|^r for standard normal Z, any r > 0."""
    r = float(r)
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"moment order must be a positive real, got {r!r}")
    return float(special.gammaln((r + 1.0) / 2.0) + 0.5 * r * math.log(2.0) - _LOG_SQRT_PI)


def abs_moment(r: float) -> float:
    """E|Z|^r for standard normal Z.

    Returns ``inf`` once the value exceeds the double range (r beyond ~300);
    use :func:`log_abs_moment` there.
    """
    lv = log_abs_moment(r)
    if lv > 709.0:
        return math.inf
    return math.exp(lv)


@dataclass(frozen=True)
class GaussMoments:
    """Log-scale mean and variance of |Z|^p; ``mean`` and ``variance`` are
    their exponentials, inf past the range of ``exp``.

    ``variance`` equals ``abs_moment(2p) - abs_moment(p)**2`` by
    construction; it is assembled in log space, so it is strictly positive
    for every representable p instead of silently degrading to a negative
    round-off residue.
    """

    p: float
    log_mean: float
    log_variance: float

    @property
    def mean(self) -> float:
        return math.exp(self.log_mean) if self.log_mean <= 709.0 else math.inf

    @property
    def variance(self) -> float:
        return math.exp(self.log_variance) if self.log_variance <= 709.0 else math.inf


def gauss_moments(p: float) -> GaussMoments:
    """Moments of |Z|^p used by critical-value formulas."""
    p = float(p)
    if not (p > 0.0 and math.isfinite(p)):
        raise DomainError(f"exponent must be a positive real, got {p!r}")
    log_mean = log_abs_moment(p)
    log_m2 = log_abs_moment(2.0 * p)
    # variance = m2 * (1 - exp(2*log_mean - log_m2)); the ratio is < 1.
    ratio_log = 2.0 * log_mean - log_m2
    one_minus = -math.expm1(ratio_log)
    if one_minus <= _MIN_RELATIVE_VARIANCE:
        raise NumericError(
            f"variance of |Z|^p for p={p!r} cancels to fewer than two "
            "significant digits in double precision"
        )
    return GaussMoments(p=p, log_mean=log_mean, log_variance=log_m2 + math.log(one_minus))


def detection_weight(x, p: float, cutoff: float = 1.0):
    """Pointwise detection weight: ``x**2`` inside ``[-cutoff, cutoff]``,
    ``|x|**p`` outside.

    Even in ``x`` and zero at the origin.  Accepts scalars or arrays.
    """
    p = float(p)
    if not (p > 0.0 and math.isfinite(p)):
        raise DomainError(f"exponent must be a positive real, got {p!r}")
    cutoff = float(cutoff)
    if not (cutoff > 0.0 and math.isfinite(cutoff)):
        raise DomainError(f"cutoff must be a positive real, got {cutoff!r}")
    ax = np.abs(np.asarray(x, dtype=float))
    inside = ax <= cutoff
    with np.errstate(over="ignore"):
        out = np.where(inside, ax * ax, 0.0)
        tail = np.power(ax, p, where=~inside, out=np.zeros_like(ax))
        out = out + tail
    if np.ndim(x) == 0:
        return float(out)
    return out


def default_tail_weight(z):
    """Default weight for the supremum-norm criterion below the kink.

    ``w(z) = exp((z^2 - 2 z)/2)``: positive, continuous, diverging as
    ``z -> -inf``, and equal to ``exp(-1/2)`` at z = 1, which makes the
    assembled sup weight continuous and strictly decreasing.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp((z * z - 2.0 * z) / 2.0)
    if np.ndim(z) == 0:
        return float(out)
    return out


def sup_detection_weight(x):
    """Detection weight for the supremum-norm consistency criterion.

    ``default_tail_weight(x)`` for x < 1 and ``exp(-x^2/2)/x`` for x >= 1:
    continuous and strictly decreasing on the whole line (both branches
    equal ``exp(-1/2)`` at x = 1).  May overflow to ``inf`` for arguments
    far below -37, which signals certain divergence of any sum containing
    such a term.
    """
    ax = np.asarray(x, dtype=float)
    upper = ax >= 1.0
    with np.errstate(over="ignore", divide="ignore"):
        head = np.where(upper, np.exp(-ax * ax / 2.0) / np.where(upper, ax, 1.0), 0.0)
        low = np.where(upper, 1.0, ax)
        tail = np.where(upper, 0.0, np.asarray(default_tail_weight(low), dtype=float))
    out = head + tail
    if np.ndim(x) == 0:
        return float(out)
    return out


def sup_centering(d: int) -> float:
    """Centering sequence for the supremum-norm criterion.

    Zero at d = 1; ``sqrt(2 log d) - log log d / (2 sqrt(2 log d))`` for
    d >= 2.  ``log log 2 < 0`` is kept as-is (no clamping), so the d = 2
    value exceeds ``sqrt(2 log 2)``.
    """
    d = int(d)
    if d <= 0:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    if d == 1:
        return 0.0
    root = math.sqrt(2.0 * math.log(d))
    return root - math.log(math.log(d)) / (2.0 * root)
