"""Consistency criteria, alternative families, growth traces, contour grids.

The criteria are finite-dimensional functionals whose divergence along a
dimension grid characterizes when a norm test's power tends to one.  The
lab reports fitted log-log slopes plus the raw trace and never a boolean
"consistent" verdict: divergence is a limit property, and a finite grid can
only shadow it.  Every criterion is a coordinate sum and every family a
few constant runs, so one stacked pass over the runs of every grid d gives
a whole trace, which reaches any d a float holds, past the semi-sparse
turning points near 1e175.  A mean vector, whether passed to a criterion
or returned by a `custom_family` rule, must have finite entries: a NaN or
infinite one raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import DomainError, NumericError, _require_dimension, _require_positive
from .gaussmath import detection_weight, sup_centering, sup_detection_weight
from .mc import _finite
from .norms import Exponent

__all__ = [
    "AlternativeFamily",
    "dense",
    "sparse",
    "semi_sparse",
    "power_sparse",
    "custom_family",
    "finite_p_criterion",
    "SupCriterion",
    "sup_criterion",
    "CriterionTrace",
    "criterion_trace",
    "geometric_dgrid",
    "RewriteParts",
    "rewrite_check",
    "minimax_radius",
    "contour_grid",
]

# Ratio-form terms saturate at the value attained where the Gaussian cdf
# leaves double range (cdf > 1e-300); beyond that the term only certifies
# divergence, and the saturation flag is raised.
_RATIO_ARG_FLOOR = float(special.ndtri(1e-300))
_RATIO_CAP = float(
    np.exp(special.log_ndtr(-_RATIO_ARG_FLOOR) - special.log_ndtr(_RATIO_ARG_FLOOR))
)


# ---------------------------------------------------------------------------
# Alternative families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlternativeFamily:
    """A rule mapping dimension d to a unit-scale mean vector held as runs.

    ``runs(d)`` returns ``(values, counts)``: the vector is ``values[j]``
    repeated ``counts[j]`` times, in order.  The counts are floats, so the
    stock families reach any d a float holds without allocating anything
    that grows with d.  ``theta(d, scale)`` expands the runs.
    """

    kind: str
    label: str
    rule: Callable[[int], tuple]  # d -> (values, counts)
    min_d: int = 1

    def runs(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        d = int(d)
        if d < self.min_d:
            raise DomainError(f"family {self.label!r} requires d >= {self.min_d}")
        values, counts = self.rule(d)
        return np.asarray(values, dtype=float), np.asarray(counts, dtype=float)

    def theta(self, d: int, scale: float = 1.0) -> np.ndarray:
        values, counts = self.runs(d)
        return float(scale) * np.repeat(values, counts.astype(np.int64))


def dense() -> AlternativeFamily:
    """All coordinates equal: ``scale * (1, ..., 1)``."""
    return AlternativeFamily(kind="dense", label="dense", rule=lambda d: ([1.0], [d]))


def sparse() -> AlternativeFamily:
    """One nonzero coordinate: ``scale * (1, 0, ..., 0)``."""
    return AlternativeFamily(
        kind="sparse", label="sparse", rule=lambda d: ([1.0, 0.0], [1, d - 1])
    )


def _semi_sparse_runs(d: int) -> tuple:
    logd = math.log(d)
    tau = math.sqrt(2.0 * logd) / math.log(logd)
    k = math.ceil(math.sqrt(d) / logd)
    return [tau, 0.0], [k, d - k]


def semi_sparse() -> AlternativeFamily:
    """ceil(sqrt(d)/log d) leading coordinates at sqrt(2 log d)/log log d.

    The semi-sparse array detected by every norm exponent above 2 but by
    neither the Euclidean- nor the sup-norm test in the limit.  Needs
    d >= 16 so that log log d is safely positive.

    Its p-criterion behaves like (log d)^(p/2-1) / (log log d)^p, which
    decreases in d up to the turning point log log d = 2p/(p-2) (about
    d = 1e175 for p = 3 and 5e23 for p = 4) and grows only beyond it.
    Its traces reach past the turning point; the tests pin them to the
    closed form of conftest up to d = 1e300, where check 7 asserts growth.
    """
    return AlternativeFamily("semi_sparse", "semi-sparse", _semi_sparse_runs, min_d=16)


def _power_of_d(d: int, power: float, p: float, what: str) -> float:
    """``d ** power``; a NumericError naming p and d when it passes the
    largest float (a small p gives a large power)."""
    try:
        return float(d) ** power
    except OverflowError:
        raise NumericError(f"{what} overflows at p={p:g}, d={float(d):g}") from None


def power_sparse(exponent: float) -> AlternativeFamily:
    """One spike of height d**(1/(2 p)): borderline for the p-norm test."""
    p = _require_positive("power-sparse exponent", float(exponent))
    return AlternativeFamily(
        kind="power_sparse",
        label=f"power-sparse(p={p:g})",
        rule=lambda d: ([_power_of_d(d, 1.0 / (2.0 * p), p, "power-sparse spike height"), 0.0],
                        [1, d - 1]),
    )


def custom_family(rule: Callable[[int], np.ndarray], label: str = "custom") -> AlternativeFamily:
    """A family given by its finite d-vector; each coordinate is a run of one."""

    def runs(d: int) -> tuple:
        vector = _finite(rule(d))
        if vector.shape != (d,):
            raise DomainError("custom family rule returned the wrong shape")
        return vector, np.ones(d)

    return AlternativeFamily(kind="custom", label=label, rule=runs)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def _vector(theta) -> np.ndarray:
    theta = _finite(theta)
    if theta.ndim != 1 or theta.size == 0:
        raise DomainError("theta must be a non-empty vector")
    return theta


def _ratio_terms(args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Phi(-x) / Phi(x)`` per argument and the mask of capped terms."""
    low = args < _RATIO_ARG_FLOOR
    safe = np.where(low, 0.0, args)
    with np.errstate(over="ignore"):
        log_ratio = special.log_ndtr(-safe) - special.log_ndtr(safe)
        terms = np.where(low, _RATIO_CAP, np.exp(log_ratio))
    return terms, low


def _stacked_sums(values, counts, dims, p: float | None, cutoff: float = 1.0):
    """Criterion of each row of a ``(points, runs)`` stack of dimensions
    ``dims`` (``counts`` broadcasts), the sup ratio sum for p None, and
    whether a sup term saturated.  A row sum adds as ``np.sum`` of that row
    alone, so no value depends on the rows stacked with it."""
    if p is None:
        centering = np.array([sup_centering(d) for d in dims])
        terms, low = _ratio_terms(centering[:, None] - np.abs(values))
        return (counts * terms).sum(axis=1), bool(low.any())
    w = detection_weight(values, p, cutoff=cutoff)
    return (counts * w).sum(axis=1) / np.sqrt(np.asarray(dims, dtype=float)), False


def finite_p_criterion(theta, p: float, cutoff: float = 1.0) -> float:
    """Normalized detection-weight sum whose divergence in d characterizes
    consistency of the p-norm test: ``sum_i w_p(theta_i) / sqrt(d)``."""
    theta = _vector(theta)
    return float(_stacked_sums(theta[None], 1.0, (theta.size,), p, cutoff)[0][0])


@dataclass(frozen=True)
class SupCriterion:
    """Both equivalent forms of the sup-norm criterion.

    ``ratio_sum`` is the cancellation-safe tail/cdf ratio form (weight-free);
    ``weight_sum`` uses the sup detection weight, so below the kink it
    depends on the choice made there (`gaussmath.default_tail_weight`).
    ``saturated`` flags ratio terms capped because the cdf underflowed,
    which certifies divergence.
    """

    ratio_sum: float
    weight_sum: float
    saturated: bool


def sup_criterion(theta) -> SupCriterion:
    """Sup-norm consistency criterion at the centering for dimension d."""
    theta = _vector(theta)
    (ratio,), saturated = _stacked_sums(theta[None], 1.0, (theta.size,), None)
    weights = sup_detection_weight(sup_centering(theta.size) - np.abs(theta))
    return SupCriterion(float(ratio), float(np.sum(weights)), saturated)


# ---------------------------------------------------------------------------
# Traces over dimension grids
# ---------------------------------------------------------------------------


def geometric_dgrid(d_min: int, d_max: int) -> tuple[int, ...]:
    """Quarter-decade grid covering [d_min, d_max]: the float 10**(k/4)
    rounded up to an integer, which is ceil(10**(k/4)) below 2**53."""
    d_min, d_max = int(d_min), int(d_max)
    if not (1 <= d_min <= d_max):
        raise DomainError("need 1 <= d_min <= d_max")
    ks = range(math.floor(4 * math.log10(d_min)), math.ceil(4 * math.log10(d_max)) + 1)
    grid = sorted({math.ceil(10.0 ** (k / 4.0)) for k in ks})
    return tuple(d for d in grid if d_min <= d <= d_max)


@dataclass(frozen=True)
class CriterionTrace:
    """Criterion values over a dimension grid, and whether any sup term
    saturated."""

    d_grid: tuple[int, ...]
    values: tuple[float, ...]
    saturated: bool

    def rows(self):
        return list(zip(self.d_grid, self.values))

    @property
    def fitted_log_slope(self) -> float:
        """Least-squares slope of log(values) on log(d_grid), in closed
        form: x is centred on its mean and y shifted by its first entry,
        which leaves the slope as it is and makes a flat trace's slope
        exactly 0.  NaN when a value is not positive and finite."""
        v = np.asarray(self.values, dtype=float)
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            return float("nan")
        x = np.log(np.asarray(self.d_grid, dtype=float))
        y = np.log(v)
        xc = x - x.mean()
        return float(xc @ (y - y[0]) / (xc @ xc))


def criterion_trace(
    family: AlternativeFamily,
    exponent: Exponent,
    d_grid: Sequence[int],
) -> CriterionTrace:
    """Evaluate the matching criterion on every grid dimension; the trace's
    ``fitted_log_slope`` is the least-squares slope of log(value) on log(d).

    One stacked pass covers every grid d: the runs of ``family.runs(d)``
    form one ``(points, runs)`` matrix per run count (a custom family's
    rows stand alone), evaluated in one array call and summed by row, so d
    may reach any float and each value is the one that d alone gives.
    Finite-p traces use the detection weight's default cutoff 1, on which
    the criterion's divergence does not depend.  Sup traces use the
    weight-free ratio form so that reported numbers do not silently depend
    on the tail-weight choice.
    """
    grid = tuple(int(d) for d in d_grid)
    if len(grid) < 2 or any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise DomainError("d_grid must be strictly increasing with >= 2 points")
    if grid[0] < 3:
        raise DomainError("d_grid entries must be >= 3")
    runs = [family.runs(d) for d in grid]
    values = np.empty(len(grid))
    saturated = False
    for size in {v.size for v, _ in runs}:
        rows = [i for i, (v, _) in enumerate(runs) if v.size == size]
        stack, counts = (np.stack(part) for part in zip(*(runs[i] for i in rows)))
        values[rows], sat = _stacked_sums(stack, counts, [grid[i] for i in rows], exponent.p)
        saturated = saturated or sat
    return CriterionTrace(d_grid=grid, values=tuple(values.tolist()), saturated=saturated)


# ---------------------------------------------------------------------------
# Structure diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteParts:
    """Norm decomposition of the finite-p criterion."""

    two_norm_part: float
    p_norm_part: float
    criterion: float


def rewrite_check(theta, p: float) -> RewriteParts:
    """Scaled squared-Euclidean and p-th-power parts next to the criterion.

    For p >= 2 the criterion is sandwiched between half the larger part and
    the sum of the parts; the tests pin that sandwich.  For p < 2 the
    criterion is dominated by the smaller part (no two-sided bound exists).
    """
    theta = _vector(theta)
    p = _require_positive("exponent", float(p))
    rd = math.sqrt(theta.size)
    a = np.abs(theta)
    two_part = float(np.sum(a * a)) / rd
    with np.errstate(over="ignore"):
        p_part = float(np.sum(a**p)) / rd
    crit = finite_p_criterion(theta, p)
    return RewriteParts(two_norm_part=two_part, p_norm_part=p_part, criterion=crit)


def minimax_radius(p: float, d: int) -> float:
    """Critical separation radius of the p-norm ball testing problem:
    ``d**((4-p)/(4p))`` for p <= 2 and ``d**(1/(2p))`` for p > 2 (both give
    d**(1/4) at p = 2)."""
    p = _require_positive("exponent", float(p))
    d = _require_dimension(int(d))
    power = (4.0 - p) / (4.0 * p) if p <= 2.0 else 1.0 / (2.0 * p)
    return _power_of_d(d, power, p, "minimax radius")


# ---------------------------------------------------------------------------
# Contour grids (two-dimensional criterion surfaces)
# ---------------------------------------------------------------------------


def contour_grid(
    exponent: Exponent,
    lo: float = -5.0,
    hi: float = 5.0,
    resolution: int = 101,
) -> tuple[np.ndarray, np.ndarray]:
    """Criterion surface on a square (x1, x2) grid at dimension two.

    Finite p: ``w_p(x1)/sqrt(2) + w_p(x2)/sqrt(2)``.  Sup: the ratio form at
    the two-dimensional centering.  Returns (axis, matrix) with
    ``matrix[i, j]`` the value at ``(x1=axis[i], x2=axis[j])``.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    lo, hi = float(lo), float(hi)
    if not (lo < hi):
        raise DomainError("need lo < hi")
    axis = np.linspace(lo, hi, resolution)
    if exponent.is_sup:
        terms, _ = _ratio_terms(sup_centering(2) - np.abs(axis))
        grid = terms[:, None] + terms[None, :]
    else:
        w = detection_weight(axis, exponent.p) / math.sqrt(2.0)
        grid = w[:, None] + w[None, :]
    return axis, grid
