"""Critical values, test objects, test builders and calibration artifacts.

Three calibration routes coexist:

* analytic critical values: exact for the sup norm and for p = 2 (chi-square),
  and from the Gaussian CLT of the p-th power statistic for any other finite
  p, its vanishing correction term set to zero (:func:`asymptotic_test`);
* Monte-Carlo-exact critical values: conservative empirical quantiles of
  simulated null statistics, deterministic given a plan (:func:`mc_calibrate`);
* combined ("max of scaled norms") tests whose member critical values and
  global scale are calibrated on one shared simulated null sample, so the
  joint law behind the size constraint is coherent (:func:`build_combined`).

A test name stands for one such calibration (:func:`calibration`), and
:func:`calibrate_suite` calibrates several on one shared null sample.

All test objects are frozen dataclasses implementing a tiny protocol:
``d``, ``label``, ``norm_exponents()`` and ``decide_batch(norms, first)``
operating on equal-shape arrays, with ``first`` the column ``y[:, 0]`` of
the observations.  Only the spike detector of the power enhancement
(:class:`EnhancedTest`) reads ``first``.

A single, combined or minimax test refuses its own out-of-range values when
it is built, and is kept as a ``pnormlab-test/1`` artifact of ``key =
value`` lines: one table, ``_ARTIFACTS``, declares each kind's lines,
:func:`save_test` and :func:`load_test` both loop over it, and
:mod:`pnormlab.report` owns the line format.
"""

from __future__ import annotations

import decimal
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import CalibrationError, ConfigError, DomainError, NumericError
from .errors import _require_dimension, _require_finite, _require_positive, _require_unit
from .gaussmath import gauss_moments, std_normal_cdf, std_normal_quantile, std_normal_sf
from .mc import MonteCarloPlan, empirical_upper_quantile, simulate_null_statistics
from .norms import Exponent, batch_norms, parse_exponent
from .report import read_kv, write_kv

__all__ = [
    "CalibrationWarning",
    "asymptotic_critical_value",
    "minimax_critical_value",
    "mc_calibrate",
    "require_tail_plan",
    "asymptotic_test",
    "AlphaBudget",
    "geometric_budget",
    "member_exponents",
    "PNormTest",
    "CombinedTest",
    "MinimaxAdaptiveTest",
    "EnhancedTest",
    "UnionTest",
    "ConstantTest",
    "build_combined",
    "build_minimax_adaptive",
    "mc_scale_minimax",
    "Calibration",
    "calibration",
    "calibrate_suite",
    "reject_matrix",
    "save_test",
    "load_test",
]


class CalibrationWarning(UserWarning):
    """Non-fatal notice that a finite-d surrogate of an asymptotic
    side condition is violated."""


# ---------------------------------------------------------------------------
# Critical values
# ---------------------------------------------------------------------------


_LOG_SPACE_P = 30.0  # beyond this, assemble the CLT bracket in log space
_UNDEFINED_BRACKET = ("analytic critical value undefined: the centering bracket is "
                      "non-positive at this (p, d, alpha); use Monte Carlo calibration")


def _clt_bracket_root(p: float, d: int, z: float) -> float:
    """[z * sqrt(d * var|Z|^p) + d * E|Z|^p] ** (1/p), in log space for large p
    or a bracket past the largest float; a NumericError when the root passes it."""
    _require_dimension(d)
    mom = gauss_moments(p)
    bracket = math.inf
    if p <= _LOG_SPACE_P:  # here log_variance is at most 93.2, so the variance is finite
        bracket = z * math.sqrt(d * mom.variance) + d * mom.mean
        if bracket <= 0.0:
            raise CalibrationError(_UNDEFINED_BRACKET)
    try:
        if bracket < math.inf:  # else a large p, or a bracket that a large d or z overflowed
            return bracket ** (1.0 / p)
        return math.exp(_log_bracket(d, z, mom) / p)
    except OverflowError:  # the root passes the largest float, as a small p's may
        raise NumericError(f"analytic critical value overflows at p={p:g}, d={d}") from None


def _log_bracket(d: int, z: float, mom) -> float:
    """log of the bracket of :func:`_clt_bracket_root`."""
    log_mu_term = math.log(d) + mom.log_mean
    if z == 0.0:
        return log_mu_term
    log_sd_term = math.log(abs(z)) + 0.5 * (math.log(d) + mom.log_variance)
    if z > 0.0:
        return float(np.logaddexp(log_mu_term, log_sd_term))
    if log_sd_term >= log_mu_term:
        raise CalibrationError(_UNDEFINED_BRACKET)
    return log_mu_term + math.log1p(-math.exp(log_sd_term - log_mu_term))


def asymptotic_critical_value(p: float, d: int, alpha: float) -> float:
    """CLT critical value of the p-norm test at level alpha (finite p),
    with the vanishing correction set to zero."""
    _require_unit("alpha", alpha)
    z = std_normal_quantile(1.0 - alpha)
    return _clt_bracket_root(float(p), int(d), z)


def minimax_critical_value(p: float, d: int, margin: float) -> float:
    """Analytic critical value with an explicit separation margin in place of
    the normal quantile; used by the minimax-adaptive construction."""
    margin = _require_positive("margin", float(margin))
    return _clt_bracket_root(float(p), int(d), margin)


# ---------------------------------------------------------------------------
# Alpha budgets and member exponents
# ---------------------------------------------------------------------------


def _geometric_alphas(
    members: int, alpha: float, success: float, last_share: float
) -> tuple[float, ...]:
    """The geometric allocation of level ``alpha`` over ``members``."""
    if members < 2:
        raise DomainError("geometric budget requires at least two members")
    for name, v in (("success", success), ("last_share", last_share)):
        _require_unit(name, v)
    weights = [success * (1.0 - success) ** j for j in range(members - 1)]
    wsum = math.fsum(weights)
    head = (1.0 - last_share) * alpha
    return tuple(head * w / wsum for w in weights) + (last_share * alpha,)


@dataclass(frozen=True)
class AlphaBudget:
    """Per-member size allocation of a combined test.

    ``alphas[j]`` is the marginal level of member j (0-based, ordered by
    exponent).  The allocation is geometric: a ``1 - last_share`` fraction
    of the total level spreads over the first ``m - 1`` members
    proportionally to a geometric mass function with the given success
    parameter, and ``last_share`` of it sits on the largest exponent.  The
    alphas must be that allocation of their total (to relative 1e-12).
    """

    alphas: tuple[float, ...]
    success: float
    last_share: float

    generator = "geometric"

    def __post_init__(self):
        _require_unit("total level", self.total)
        _require_unit("every member level", min(self.alphas))  # none exceeds the total
        want = _geometric_alphas(self.member_count, self.total, self.success, self.last_share)
        for j, (a, w) in enumerate(zip(self.alphas, want)):
            if abs(a - w) > 1e-12 * w:
                raise DomainError(f"alphas are not the geometric allocation of success "
                                  f"{self.success!r} and last_share {self.last_share!r}:"
                                  f" member {j} has {a!r} where it gives {w!r}")

    @property
    def total(self) -> float:
        return float(math.fsum(self.alphas))

    @property
    def member_count(self) -> int:
        return len(self.alphas)

    def limit_alpha(self, index: int) -> float:
        """Large-dimension limit of the member level (0-based index)."""
        m = self.member_count
        if not (0 <= index < m):
            raise DomainError(f"member index out of range: {index!r}")
        if index == m - 1:
            return self.last_share * self.total
        head = (1.0 - self.last_share) * self.total
        return head * self.success * (1.0 - self.success) ** index


def geometric_budget(
    members: int, alpha: float, success: float = 0.5, last_share: float = 0.5
) -> AlphaBudget:
    """Geometric size allocation over ``members`` ordered exponents."""
    _require_unit("alpha", alpha)
    return AlphaBudget(alphas=_geometric_alphas(int(members), alpha, success, last_share),
                       success=success, last_share=last_share)


def member_exponents(d: int, preset: str = "exp") -> tuple[int, tuple[float, ...]]:
    """Member count and exponents of the combined test for dimension d.

    ``exp`` preset: m = ceil(log log(d^6)) members with exponents
    ``e**(j-1) + 1`` (so the first member is the Euclidean norm).
    ``linear`` preset: m = ceil(3 log d) + 1 members with exponents j + 1.
    """
    d = int(d)
    if d < 3:
        raise DomainError("member presets require d >= 3")
    if preset == "exp":
        m = math.ceil(math.log(6.0 * math.log(d)))
        exps = tuple(math.exp(j) + 1.0 for j in range(m))
    elif preset == "linear":
        m = math.ceil(3.0 * math.log(d)) + 1
        exps = tuple(float(j + 2) for j in range(m))
    else:
        raise DomainError(f"unknown member preset {preset!r} (use 'exp' or 'linear')")
    return m, exps


# ---------------------------------------------------------------------------
# Test objects
# ---------------------------------------------------------------------------


def _max_ratio(
    norms: Mapping[Exponent, np.ndarray],
    exponents: Sequence[Exponent],
    kappas: Sequence[float],
) -> np.ndarray:
    """The max-of-scaled-norms statistic ``max_j ||y||_{p_j} / kappa_j``
    shared by the combined and minimax-adaptive tests."""
    return np.maximum.reduce(
        [np.asarray(norms[e]) / k for e, k in zip(exponents, kappas, strict=True)]
    )


def require_tail_plan(alpha: float, plan: MonteCarloPlan) -> None:
    """Refuse a plan too small for the upper ``alpha`` order statistic: it
    needs at least 1000 replications and ``alpha * replications >= 10``.
    The error names the least replication count that passes: exactly below
    2**53, and to three digits above."""
    _require_unit("alpha", alpha)
    if plan.replications < 1000:
        raise ConfigError("Monte Carlo calibration needs at least 1000 replications")
    if alpha * plan.replications < 10:
        if (quotient := 10 / alpha) < 2**53:
            least = math.ceil(quotient) - 1  # the quotient may round either way
            while alpha * least < 10:
                least += 1
        else:  # in decimal: 10 / alpha passes the float range at a subnormal alpha
            least = format(10 / decimal.Decimal(alpha), ".3g")
        raise ConfigError(f"Monte Carlo calibration at level {alpha:g} needs alpha * replications"
                          f" >= 10, so at least {least} replications, got {plan.replications}")


def _null_statistics(
    d: int, exponents: Sequence[Exponent], alpha: float, plan: MonteCarloPlan,
    workers: int, stats: Mapping[Exponent, np.ndarray] | None,
) -> Mapping[Exponent, np.ndarray]:
    """The null statistic columns a calibration at level ``alpha`` reads:
    simulated under ``plan``, or the precomputed ``stats`` once they hold a
    column of the plan's length for every exponent.  A plan too small for
    the level is refused first (:func:`require_tail_plan`)."""
    require_tail_plan(alpha, plan)
    if stats is None:
        return simulate_null_statistics(d, exponents, plan, workers=workers)
    if any(e not in stats or np.shape(stats[e]) != (plan.replications,) for e in exponents):
        raise DomainError("precomputed statistics do not cover the requested "
                          "exponents at the plan's replication count")
    return stats


@dataclass(frozen=True)
class PNormTest:
    """Single norm test: reject when the statistic reaches the critical value,
    a finite real (0 always rejects), with d >= 1 and alpha in (0, 1)."""

    d: int
    exponent: Exponent
    critical_value: float
    alpha: float
    provenance: str = ""

    def __post_init__(self):
        _require_dimension(self.d)
        _require_unit("alpha", self.alpha)
        _require_finite("critical value", self.critical_value)

    @property
    def label(self) -> str:
        return self.exponent.label

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return (self.exponent,)

    def decide_batch(self, norms: Mapping[Exponent, np.ndarray], first):
        return np.asarray(norms[self.exponent]) >= self.critical_value


@dataclass(frozen=True)
class CombinedTest:
    """Max of scaled member norms with an exact-size multiplier.

    Rejects when ``max_j ||y||_{p_j} / kappa_j >= scale``; ``scale <= 1``
    restores exact size after the conservative union allocation.  Its level
    is the budget's total.  d >= 1, and exponents, kappas and scale are
    positive finite reals, the exponents strictly increasing.
    """

    d: int
    exponents: tuple[float, ...]
    kappas: tuple[float, ...]
    scale: float
    budget: AlphaBudget
    calibration_size: float = float("nan")
    provenance: str = ""

    def __post_init__(self):
        _require_dimension(self.d)
        ps = self.exponents  # each below the next, the last below infinity
        if not all(0.0 < p < q for p, q in zip(ps, (*ps[1:], math.inf))):
            raise DomainError(f"exponents must be strictly increasing finite positive reals, "
                              f"got {ps}")
        if not len(self.exponents) == self.budget.member_count == len(self.kappas):
            raise DomainError(f"{len(self.exponents)} exponents, {self.budget.member_count} "
                              f"alphas and {len(self.kappas)} kappas")
        for name, value in (*(("kappa", k) for k in self.kappas), ("scale", self.scale)):
            _require_positive(name, value)

    @property
    def alpha(self) -> float:
        return self.budget.total

    @property
    def label(self) -> str:
        return f"combined(m={len(self.exponents)})"

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return tuple(Exponent.finite(p) for p in self.exponents)

    def decide_batch(self, norms: Mapping[Exponent, np.ndarray], first):
        return _max_ratio(norms, self.norm_exponents(), self.kappas) >= self.scale


@dataclass(frozen=True)
class MinimaxAdaptiveTest:
    """Max over the integer-norm members 1..max_power, each scaled by its
    analytic critical value at the separation margin; these ``kappas``
    follow from d, margin and max_power and are worked out on construction.
    max_power lies in 1..1000, a bound on the work an artifact can ask for.
    The threshold is a positive finite real and a given alpha lies in (0, 1).

    With ``threshold = 1`` this is the separation-margin construction whose
    size vanishes with the margin; ``mc_scale_minimax`` replaces the
    threshold by an empirical quantile to pin the size at a target level.
    """

    d: int
    margin: float
    max_power: int
    threshold: float = 1.0
    alpha: float | None = None
    provenance: str = ""

    def __post_init__(self):
        if not 1 <= self.max_power <= 1000:
            raise DomainError(f"max_power must lie in 1..1000, got {self.max_power!r}")
        _require_positive("threshold", self.threshold)
        if self.alpha is not None:
            _require_unit("alpha", self.alpha)
        object.__setattr__(self, "kappas", tuple(
            minimax_critical_value(float(j), self.d, self.margin)  # refuses a bad margin
            for j in range(1, self.max_power + 1)))

    @property
    def label(self) -> str:
        return f"minimax(pmax={self.max_power})"

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return tuple(Exponent.finite(float(j)) for j in range(1, self.max_power + 1))

    def decide_batch(self, norms: Mapping[Exponent, np.ndarray], first):
        return _max_ratio(norms, self.norm_exponents(), self.kappas) >= self.threshold


@dataclass(frozen=True)
class EnhancedTest:
    """Base test augmented with a spike detector on coordinate 0.

    Rejects when the base rejects or coordinate 0 exceeds the spike
    threshold in absolute value, so it dominates the base pointwise.  Its
    dimension d is the base's, at least 2.  The spike mean is
    ``sqrt(log(d)/2)`` and the detector threshold is its square root.

    The detector belongs on the base's weakest coordinate, the one where a
    spike of that mean is hardest for the base to detect, and for a base
    that decides from norm statistics alone coordinate 0 is one.  Every
    norm is invariant under coordinate permutations, so such a base's
    rejection region is too; the i.i.d. Gaussian noise is exchangeable, so
    the base's power against a spike on coordinate i is the same for every
    i.  This covers the single, combined, minimax and constant tests, unions
    of them, and duck-typed norm-only bases.  A base that itself reads
    ``first`` (an enhanced test, or a union holding one) is outside the
    argument; coordinate 0, the one column a test can read, is then a fixed
    convention.
    """

    base: object

    def __post_init__(self):
        if int(self.base.d) < 2:
            raise DomainError("enhancement requires d >= 2")

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def spike_mean(self) -> float:
        return math.sqrt(math.log(int(self.d)) / 2.0)

    @property
    def spike_threshold(self) -> float:
        return math.sqrt(self.spike_mean)

    @property
    def spike_power(self) -> float:
        """Exact probability that the detector flags the spike it targets."""
        a, t = self.spike_mean, self.spike_threshold
        return std_normal_sf(t - a) + std_normal_sf(t + a)

    @property
    def spike_size(self) -> float:
        """Exact null rejection probability of the detector, an upper bound
        on the size the enhancement adds to the base's."""
        return 2.0 * std_normal_sf(self.spike_threshold)

    @property
    def label(self) -> str:
        return f"enhanced({self.base.label})"

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return self.base.norm_exponents()

    def decide_batch(self, norms, first):
        spike = np.abs(np.asarray(first)) >= self.spike_threshold
        return np.asarray(self.base.decide_batch(norms, first)) | spike


@dataclass(frozen=True)
class UnionTest:
    """Reject when any member rejects (the max-combination of tests); the
    members share one dimension, the union's."""

    members: tuple

    def __post_init__(self):
        _dimension(self.members)

    @property
    def d(self) -> int:
        return self.members[0].d

    @property
    def label(self) -> str:
        return f"max-comb({','.join(t.label for t in self.members)})"

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return required_exponents(self.members)

    def decide_batch(self, norms, first):
        out = np.asarray(self.members[0].decide_batch(norms, first), dtype=bool)
        for t in self.members[1:]:
            out = out | np.asarray(t.decide_batch(norms, first), dtype=bool)
        return out


@dataclass(frozen=True)
class ConstantTest:
    """The test that never rejects: a degenerate base that reads no norm."""

    d: int

    label = "never-reject"

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return ()

    def decide_batch(self, norms, first):
        return np.zeros(np.shape(first), dtype=bool)


def mc_calibrate(
    exponent: Exponent,
    d: int,
    alpha: float,
    plan: MonteCarloPlan,
    workers: int = 1,
    stats: Mapping[Exponent, np.ndarray] | None = None,
) -> PNormTest:
    """Single norm test with a Monte-Carlo-exact critical value.

    The critical value is the ceil(R*(1-alpha))-th order statistic of R
    simulated null statistics; deterministic for a fixed plan.  ``stats``
    may carry precomputed columns of the same plan as in
    :func:`build_combined`.
    """
    stats = _null_statistics(d, [exponent], alpha, plan, workers, stats)
    return PNormTest(
        d=int(d), exponent=exponent, alpha=alpha,
        critical_value=empirical_upper_quantile(stats[exponent], alpha),
        provenance=f"monte_carlo({plan.descriptor()})",
    )


def asymptotic_test(exponent: Exponent, d: int, alpha: float) -> PNormTest:
    """Single norm test with an analytic critical value c: exact for sup,
    where ``(2 Phi(c) - 1)^d = 1 - alpha``, and for p = 2, where ``c^2`` is
    the upper alpha quantile of chi-square with d degrees of freedom; the CLT
    value of :func:`asymptotic_critical_value` for any other finite p."""
    d = _require_dimension(int(d))
    _require_unit("alpha", alpha)
    if exponent.is_sup:
        half_tail = -math.expm1(math.log1p(-alpha) / d) / 2.0  # P(|Z| > c)
        if half_tail == 0.0:
            raise NumericError(f"sup-norm critical value underflows at alpha={alpha!r}, d={d}")
        kappa = -std_normal_quantile(half_tail)
        prov = f"exact_sup(alpha={alpha:g})"
    elif exponent.p == 2.0:
        kappa = math.sqrt(special.chdtri(d, alpha))
        prov = f"exact_chi2(alpha={alpha:g})"
    else:
        kappa = asymptotic_critical_value(exponent.p, d, alpha)
        prov = f"asymptotic_finite(p={exponent.p:g}, alpha={alpha:g})"
    return PNormTest(d=d, exponent=exponent, critical_value=kappa,
                     alpha=alpha, provenance=prov)


def build_combined(
    d: int,
    exponents: Sequence[float],
    budget: AlphaBudget,
    plan: MonteCarloPlan,
    workers: int = 1,
    stats: Mapping[Exponent, np.ndarray] | None = None,
) -> CombinedTest:
    """Calibrate a combined test on one shared simulated null sample.

    Member critical values are the empirical quantiles of their own columns;
    the global scale is the empirical quantile of the max-ratio statistic on
    the same sample.  Selecting the order statistic directly is the exact
    fixed point of a bisection on the empirical size, which is a step
    function crossing the target between adjacent order statistics.

    ``stats`` may carry precomputed columns from
    :func:`simulate_null_statistics` under the *same* plan, letting several
    calibrations share one simulated sample (the noise a plan generates does
    not depend on which statistics are evaluated on it).
    """
    exps = tuple(float(p) for p in exponents)
    CombinedTest(d, exps, exps, 1.0, budget)  # the constructor's checks, before the draw
    members = [Exponent.finite(p) for p in exps]
    # the smallest member level is the deepest tail the calibration reads
    stats = _null_statistics(d, members, min(budget.alphas), plan, workers, stats)
    kappas = tuple(
        empirical_upper_quantile(stats[e], a) for e, a in zip(members, budget.alphas)
    )
    ratio = _max_ratio(stats, members, kappas)
    scale_raw = empirical_upper_quantile(ratio, budget.total)
    scale = min(1.0, scale_raw)  # the record refuses a scale of 0
    calib_size = float(np.count_nonzero(ratio >= scale)) / plan.replications
    return CombinedTest(
        d=int(d),
        exponents=exps,
        kappas=kappas,
        scale=scale,
        budget=budget,
        calibration_size=calib_size,
        provenance=f"mc({plan.descriptor()})"
        + ("" if scale_raw <= 1.0 else " scale clamped to 1"),
    )


def build_minimax_adaptive(d: int, margin: float, max_power: int) -> MinimaxAdaptiveTest:
    """Minimax-adaptive test over integer norms 1..max_power with analytic
    member critical values at the given separation margin.

    Warns (non-fatally) when the finite-d surrogates of its two asymptotic
    side conditions exceed 0.01.
    """
    test = MinimaxAdaptiveTest(d=int(d), margin=float(margin), max_power=int(max_power),
                               provenance=f"analytic(margin={margin:g})")
    union_bound = test.max_power * std_normal_cdf(-test.margin)
    clt_term = (test.max_power / math.sqrt(test.d)) * (1.5 ** (1.5 * test.max_power))
    if union_bound > 0.01 or clt_term > 0.01:
        warnings.warn("minimax side-condition surrogates are large at this (d, margin, "
                      f"max_power): union bound {union_bound:.3g}, CLT term {clt_term:.3g}",
                      CalibrationWarning, stacklevel=2)
    return test


def mc_scale_minimax(
    test: MinimaxAdaptiveTest,
    alpha: float,
    plan: MonteCarloPlan,
    workers: int = 1,
    stats: Mapping[Exponent, np.ndarray] | None = None,
) -> MinimaxAdaptiveTest:
    """Replace the unit threshold by the empirical null quantile of the
    max-ratio statistic, pinning the size at ``alpha``.

    ``stats`` may carry precomputed columns of the same plan as in
    :func:`build_combined`.
    """
    exponents = test.norm_exponents()
    stats = _null_statistics(test.d, exponents, alpha, plan, workers, stats)
    threshold = empirical_upper_quantile(_max_ratio(stats, exponents, test.kappas), alpha)
    # replace builds a new record, whose kappas are worked out again, bit for
    # bit; an empty provenance gains no leading space, which no artifact keeps
    return replace(test, threshold=threshold, alpha=alpha,
                   provenance=f"{test.provenance} mc-scaled({plan.descriptor()})".lstrip())


class Calibration(NamedTuple):
    label: str  # the calibrated test's label
    exponents: list[Exponent]  # the null statistic columns it reads
    level: float  # the deepest tail level it reads
    d: int  # the dimension and plan it calibrates on
    plan: MonteCarloPlan
    calibrate: Callable  # calibrate(stats=...) -> the test


def calibration(name: str, d: int, alpha: float, plan: MonteCarloPlan,
                option: Callable = lambda key, default: default) -> Calibration:
    """The test a name (``p=<p>``, ``sup``, ``combined``, ``minimax``) stands
    for, as a calibration at level ``alpha`` on ``plan``.  ``option(key,
    default)`` is asked only for the settings the test reads."""
    name = name.strip().lower()
    if name == "combined":
        m, exps = member_exponents(d, option("preset", "exp"))
        budget = geometric_budget(m, alpha, option("budget-success", 0.5),
                                  option("budget-last-share", 0.5))
        return Calibration(f"combined(m={m})", [Exponent.finite(p) for p in exps],
                           min(budget.alphas), d, plan,
                           partial(build_combined, d, exps, budget, plan))
    if name == "minimax":
        t = build_minimax_adaptive(d, option("margin", 5.0), option("max-power", 8))
        return Calibration(t.label, list(t.norm_exponents()), alpha, d, plan,
                           partial(mc_scale_minimax, t, alpha, plan))
    e = parse_exponent(name)
    return Calibration(e.label, [e], alpha, d, plan, partial(mc_calibrate, e, d, alpha, plan))


def calibrate_suite(calibrations: Sequence[Calibration], workers: int = 1) -> list:
    """The tests of ``calibrations`` on one shared null sample of the plan
    they were given.  A column depends only on the plan and its exponent,
    so each test gets the critical values of a calibration of its own.
    Calibrations of different dimensions or plans, or a plan too small for
    the deepest level read, are refused before any draw."""
    if not calibrations:
        return []
    first = calibrations[0]
    d, plan = first.d, first.plan
    for c in calibrations:
        if (c.d, c.plan) != (d, plan):
            raise DomainError(f"a suite calibrates at one d on one plan: {c.label} asks d={c.d}, "
                              f"{c.plan.descriptor()}; {first.label} asks d={d}, "
                              f"{plan.descriptor()}")
    require_tail_plan(min(c.level for c in calibrations), plan)
    stats = simulate_null_statistics(d, [e for c in calibrations for e in c.exponents], plan,
                                     workers=workers)
    return [c.calibrate(stats=stats) for c in calibrations]


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


def _dimension(tests: Sequence) -> int:
    """The one dimension all of ``tests`` (at least one) are calibrated at."""
    dims = {t.d for t in tests}
    if len(dims) != 1:
        raise DomainError(f"need one or more tests of one dimension, got {sorted(dims)}")
    return dims.pop()


def required_exponents(tests: Sequence) -> tuple[Exponent, ...]:
    out: dict[Exponent, None] = {}
    for t in tests:
        for e in t.norm_exponents():
            out[e] = None
    return tuple(out)


def reject_matrix(tests: Sequence, Y: np.ndarray) -> np.ndarray:
    """(n_tests, replications) rejection decisions on the rows of ``Y``,
    computing each needed norm exactly once per chunk."""
    d = _dimension(tests)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != d:
        raise DomainError(f"observations must have shape (replications, {d}), got {Y.shape}")
    norms = batch_norms(Y, required_exponents(tests))
    return np.stack([np.asarray(t.decide_batch(norms, Y[:, 0]), dtype=bool) for t in tests])


# ---------------------------------------------------------------------------
# Plain-text calibration artifacts
# ---------------------------------------------------------------------------

_SCHEMA = "pnormlab-test/1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# each artifact value type: (write, read)
_CODECS = {
    int: (str, int),
    float: (_fmt, float),
    str: (str, str),
    tuple: (lambda xs: ",".join(map(_fmt, xs)), lambda text: tuple(map(float, text.split(",")))),
    Exponent: (lambda e: "sup" if e.is_sup else _fmt(e.p), parse_exponent),
}

# The lines of each artifact kind after ``schema`` and ``kind``, in file
# order: (key, type, required).  A None value is not written, and an absent
# optional key loads as the field's default.  A combined test's ``alphas``
# and ``budget_<name>`` lines are its AlphaBudget's, which is geometric.
# The records refuse their own out-of-range values.  A key that names no
# field (a combined test's ``alpha``, the constant ``budget_generator``, a
# minimax test's ``kappas``) is worked out from the other lines: on load it
# must equal the value worked out, the kappas (which another libm may move
# by an ulp) to relative 1e-12, the rest exactly.
_ARTIFACTS = {
    "single": (PNormTest, (
        ("d", int, True), ("exponent", Exponent, True), ("alpha", float, True),
        ("critical_value", float, True), ("provenance", str, False),
    )),
    "combined": (CombinedTest, (
        ("d", int, True), ("alpha", float, True), ("exponents", tuple, True),
        ("alphas", tuple, True), ("budget_generator", str, False),
        ("budget_success", float, True), ("budget_last_share", float, True),
        ("kappas", tuple, True), ("scale", float, True),
        ("calibration_size", float, False), ("provenance", str, False),
    )),
    "minimax": (MinimaxAdaptiveTest, (
        ("d", int, True), ("margin", float, True), ("max_power", int, True),
        ("kappas", tuple, True), ("threshold", float, True), ("alpha", float, False),
        ("provenance", str, False),
    )),
}


def _budget_attr(key: str) -> str | None:
    """The AlphaBudget attribute an artifact key names, if it names one."""
    return key.removeprefix("budget_") if key == "alphas" or key.startswith("budget_") else None


def _value(test, key: str):
    """The value the artifact line ``key`` of ``test`` records."""
    name = _budget_attr(key)
    return getattr(test.budget, name) if name else getattr(test, key)


def _agrees(found, want) -> bool:
    """Whether a derived line holds the value worked out (see ``_ARTIFACTS``)."""
    if not isinstance(want, tuple):
        return found == want
    return len(found) == len(want) and all(abs(a - w) <= 1e-12 * w for a, w in zip(found, want))


def save_test(test, path) -> None:
    """Serialize a single/combined/minimax test to a key=value text file."""
    kind = next((k for k, (cls, _) in _ARTIFACTS.items() if isinstance(test, cls)), None)
    if kind is None:
        raise DomainError(f"cannot serialize test of type {type(test).__name__}")
    entries = [("schema", _SCHEMA), ("kind", kind)]
    for key, value_type, _ in _ARTIFACTS[kind][1]:
        value = _value(test, key)
        if value is not None:
            entries.append((key, _CODECS[value_type][0](value)))
    write_kv(path, entries)


def load_test(path):
    """Parse, build and check a test that :func:`save_test` wrote (see ``_ARTIFACTS``)."""
    kv = read_kv(path)
    if kv.get("schema") != _SCHEMA:
        raise ConfigError(f"unsupported artifact schema: {kv.get('schema')!r}")
    if kv.get("kind") not in _ARTIFACTS:
        raise ConfigError(f"unknown artifact kind: {kv.get('kind')!r}")
    cls, lines = _ARTIFACTS[kv["kind"]]
    fields, budget, derived = {}, {}, {}
    try:
        for key, value_type, required in lines:
            if required or key in kv:
                value = _CODECS[value_type][1](kv[key])
                if (name := _budget_attr(key)) in AlphaBudget.__dataclass_fields__:
                    budget[name] = value
                elif key in cls.__dataclass_fields__:
                    fields[key] = value
                else:
                    derived[key] = value
    except KeyError as exc:
        raise ConfigError(f"artifact is missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"artifact has a malformed value: {exc}") from exc
    # every line parsed: a constructor's refusal is a value out of range
    try:
        if budget:
            fields["budget"] = AlphaBudget(**budget)
        test = cls(**fields)
    except (DomainError, ArithmeticError) as exc:  # a minimax d past float range overflows
        raise ConfigError(f"artifact value out of range: {exc}") from exc
    bad = [f"{key} = {kv[key]} where the other lines give {_value(test, key)!r}"
           for key, value in derived.items() if not _agrees(value, _value(test, key))]
    if bad:
        raise ConfigError(f"artifact value out of range: {', '.join(bad)}")
    return test
