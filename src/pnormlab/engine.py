"""Critical values, test objects, test builders and calibration artifacts.

Three calibration routes coexist:

* analytic critical values from the Gaussian CLT of the p-th power statistic
  (finite p) or the double-exponential limit of the absolute maximum (sup),
  with every vanishing correction term set to zero (:func:`asymptotic_test`);
* Monte-Carlo-exact critical values: conservative empirical quantiles of
  simulated null statistics, deterministic given a plan (:func:`mc_calibrate`);
* combined ("max of scaled norms") tests whose member critical values and
  global scale are calibrated on one shared simulated null sample, so the
  joint law behind the size constraint is coherent (:func:`build_combined`).

A test name stands for one such calibration (:func:`calibration`), and
:func:`calibrate_suite` calibrates several on one shared null sample.

All test objects are frozen dataclasses implementing a tiny protocol:
``d``, ``label``, ``norm_exponents()``, ``coordinate_indices()`` and
``decide_batch(norms, coords)`` operating on equal-shape arrays.  The
single, combined, minimax and constant tests decide from norm statistics
alone, so their rejection regions are invariant under coordinate
permutations; the power enhancement (:func:`build_enhanced`) therefore puts
its spike detector on coordinate 0.

A single, combined or minimax test is kept as a ``pnormlab-test/1``
artifact of ``key = value`` lines.  One table, ``_ARTIFACTS``, declares each
kind's keys in file order with their types and whether they are required;
:func:`save_test` and :func:`load_test` both loop over it, and
:func:`pnormlab.report.write_kv` and :func:`pnormlab.report.read_kv` own the
line format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CalibrationError, ConfigError, DomainError
from .gaussmath import gauss_moments, std_normal_cdf, std_normal_quantile
from .mc import MonteCarloPlan, empirical_upper_quantile, simulate_null_statistics
from .norms import SUP, Exponent, batch_norms, parse_exponent
from .report import read_kv, write_kv

__all__ = [
    "CalibrationWarning",
    "asymptotic_critical_value",
    "sup_asymptotic_critical_value",
    "minimax_critical_value",
    "mc_calibrate",
    "require_tail_plan",
    "asymptotic_test",
    "AlphaBudget",
    "geometric_budget",
    "custom_budget",
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
    "build_enhanced",
    "reject_matrix",
    "evaluate",
    "save_test",
    "load_test",
]


class CalibrationWarning(UserWarning):
    """Non-fatal notice that a finite-d surrogate of an asymptotic
    side condition is violated, or that an unverifiable input is accepted."""


# ---------------------------------------------------------------------------
# Critical values
# ---------------------------------------------------------------------------

_LOG_SPACE_P = 30.0  # beyond this, assemble the CLT bracket in log space


def _clt_bracket_root(p: float, d: int, z: float) -> float:
    """[z * sqrt(d * var|Z|^p) + d * E|Z|^p] ** (1/p), overflow-safe."""
    if int(d) < 1:
        raise DomainError("dimension must be >= 1")
    mom = gauss_moments(p)
    if p <= _LOG_SPACE_P and math.isfinite(mom.variance):
        bracket = z * math.sqrt(d * mom.variance) + d * mom.mean
        if bracket <= 0.0:
            raise CalibrationError(
                "analytic critical value undefined: the centering bracket is "
                "non-positive at this (p, d, alpha); use Monte Carlo calibration"
            )
        return bracket ** (1.0 / p)
    log_mu_term = math.log(d) + mom.log_mean
    if z == 0.0:
        return math.exp(log_mu_term / p)
    log_sd_term = math.log(abs(z)) + 0.5 * (math.log(d) + mom.log_variance)
    if z > 0.0:
        log_bracket = np.logaddexp(log_mu_term, log_sd_term)
    else:
        if log_sd_term >= log_mu_term:
            raise CalibrationError(
                "analytic critical value undefined: the centering bracket is "
                "non-positive at this (p, d, alpha); use Monte Carlo calibration"
            )
        log_bracket = log_mu_term + math.log1p(-math.exp(log_sd_term - log_mu_term))
    return math.exp(float(log_bracket) / p)


def asymptotic_critical_value(p: float, d: int, alpha: float) -> float:
    """CLT critical value of the p-norm test at level alpha (finite p),
    with the vanishing correction set to zero."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    z = std_normal_quantile(1.0 - alpha)
    return _clt_bracket_root(float(p), int(d), z)


def sup_asymptotic_critical_value(d: int, alpha: float) -> float:
    """Double-exponential-limit critical value of the sup-norm test.

    Requires d >= 3 so that the log log d norming is positive at working
    precision.
    """
    d = int(d)
    if d < 3:
        raise DomainError("sup-norm asymptotic critical value requires d >= 3")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    half_tail = -math.log1p(-alpha) / 2.0
    if half_tail == 0.0:  # only alpha = 5e-324, the smallest subnormal, halves to 0
        raise CalibrationError(f"alpha={alpha!r} underflows the sup-norm critical value")
    root = math.sqrt(2.0 * math.log(d))
    val = root
    val -= (math.log(math.log(d)) + math.log(4.0 * math.pi)) / (2.0 * root)
    val -= math.log(half_tail) / root
    return val


def minimax_critical_value(p: float, d: int, margin: float) -> float:
    """Analytic critical value with an explicit separation margin in place of
    the normal quantile; used by the minimax-adaptive construction."""
    margin = float(margin)
    if not (margin > 0.0 and math.isfinite(margin)):
        raise DomainError(f"margin must be a positive real, got {margin!r}")
    return _clt_bracket_root(float(p), int(d), margin)


# ---------------------------------------------------------------------------
# Alpha budgets and member exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaBudget:
    """Per-member size allocation of a combined test.

    ``alphas[j]`` is the marginal level of member j (0-based, ordered by
    exponent).  The geometric generator spreads a ``1 - last_share`` fraction
    of the total level over the first ``m - 1`` members proportionally to a
    geometric mass function with the given success parameter, and puts
    ``last_share`` of the level on the largest exponent.  Only the geometric
    generator has parameters: any other generator is stored as ``custom``
    with ``success`` and ``last_share`` None.
    """

    alphas: tuple[float, ...]
    generator: str = "custom"
    success: float | None = None
    last_share: float | None = None

    def __post_init__(self):
        if len(self.alphas) < 1:
            raise DomainError("budget needs at least one member")
        for a in self.alphas:
            if not (0.0 < a < 1.0):
                raise DomainError(f"every member level must lie in (0, 1), got {a!r}")
        if not (0.0 < self.total < 1.0):
            raise DomainError("total level must lie in (0, 1)")
        if self.generator != "geometric":
            for name, value in (("generator", "custom"), ("success", None), ("last_share", None)):
                object.__setattr__(self, name, value)
        elif None in (self.success, self.last_share):
            raise DomainError("a geometric budget needs its success and last_share")

    @property
    def total(self) -> float:
        return float(math.fsum(self.alphas))

    @property
    def member_count(self) -> int:
        return len(self.alphas)

    def limit_alpha(self, index: int) -> float:
        """Large-dimension limit of the member level (0-based index).

        Exact for the geometric generator; for custom budgets the finite
        allocation itself is returned with a warning, since no limit rule is
        known.
        """
        m = self.member_count
        if not (0 <= index < m):
            raise DomainError(f"member index out of range: {index!r}")
        if self.generator == "geometric":
            if index == m - 1:
                return self.last_share * self.total
            head = (1.0 - self.last_share) * self.total
            return head * self.success * (1.0 - self.success) ** index
        warnings.warn(
            "custom budget has no declared limit rule; using the finite "
            "allocation as its own limit",
            CalibrationWarning,
            stacklevel=2,
        )
        return self.alphas[index]


def geometric_budget(
    members: int, alpha: float, success: float = 0.5, last_share: float = 0.5
) -> AlphaBudget:
    """Geometric size allocation over ``members`` ordered exponents."""
    members = int(members)
    if members < 2:
        raise DomainError("geometric budget requires at least two members")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    for name, v in (("success", success), ("last_share", last_share)):
        if not (0.0 < v < 1.0):
            raise DomainError(f"{name} must lie in (0, 1), got {v!r}")
    weights = [success * (1.0 - success) ** j for j in range(members - 1)]
    wsum = math.fsum(weights)
    head = (1.0 - last_share) * alpha
    alphas = tuple(head * w / wsum for w in weights) + (last_share * alpha,)
    return AlphaBudget(
        alphas=alphas, generator="geometric", success=success, last_share=last_share
    )


def custom_budget(alphas: Sequence[float]) -> AlphaBudget:
    """Budget from explicit member levels (accepted with a warning: the
    side conditions a combined test needs are only guaranteed for the
    geometric generator)."""
    warnings.warn(
        "custom alpha budgets are accepted but their large-dimension side "
        "conditions cannot be verified",
        CalibrationWarning,
        stacklevel=2,
    )
    return AlphaBudget(alphas=tuple(float(a) for a in alphas), generator="custom")


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
    The error names the least replication count that passes."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if plan.replications < 1000:
        raise ConfigError("Monte Carlo calibration needs at least 1000 replications")
    if alpha * plan.replications < 10:
        least = math.ceil(10 / alpha) - 1  # the quotient may round either way
        while alpha * least < 10:
            least += 1
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
    if any(e not in stats for e in exponents) or any(
        np.shape(stats[e]) != (plan.replications,) for e in exponents
    ):
        raise DomainError("precomputed statistics do not cover the requested "
                          "exponents at the plan's replication count")
    return stats


@dataclass(frozen=True)
class PNormTest:
    """Single norm test: reject when the statistic reaches the critical value."""

    d: int
    exponent: Exponent
    critical_value: float
    alpha: float
    provenance: str = ""

    @property
    def label(self) -> str:
        return self.exponent.label

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return (self.exponent,)

    def coordinate_indices(self) -> tuple[int, ...]:
        return ()

    def decide_batch(self, norms: Mapping[Exponent, np.ndarray], coords=None):
        return np.asarray(norms[self.exponent]) >= self.critical_value


@dataclass(frozen=True)
class CombinedTest:
    """Max of scaled member norms with an exact-size multiplier.

    Rejects when ``max_j ||y||_{p_j} / kappa_j >= scale``; ``scale <= 1``
    restores exact size after the conservative union allocation.
    """

    d: int
    exponents: tuple[float, ...]
    kappas: tuple[float, ...]
    scale: float
    alpha: float
    budget: AlphaBudget
    calibration_size: float = float("nan")
    provenance: str = ""

    def __post_init__(self):
        if not len(self.exponents) == self.budget.member_count == len(self.kappas):
            raise DomainError(f"{len(self.exponents)} exponents, {self.budget.member_count} "
                              f"alphas and {len(self.kappas)} kappas")

    @property
    def label(self) -> str:
        return f"combined(m={len(self.exponents)})"

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return tuple(Exponent.finite(p) for p in self.exponents)

    def coordinate_indices(self) -> tuple[int, ...]:
        return ()

    def ratio_statistic(self, norms: Mapping[Exponent, np.ndarray]) -> np.ndarray:
        return _max_ratio(norms, self.norm_exponents(), self.kappas)

    def decide_batch(self, norms: Mapping[Exponent, np.ndarray], coords=None):
        return self.ratio_statistic(norms) >= self.scale


@dataclass(frozen=True)
class MinimaxAdaptiveTest:
    """Max over integer-norm members with analytic critical values.

    With ``threshold = 1`` this is the separation-margin construction whose
    size vanishes with the margin; ``mc_scale_minimax`` replaces the
    threshold by an empirical quantile to pin the size at a target level.
    """

    d: int
    margin: float
    max_power: int
    kappas: tuple[float, ...]
    threshold: float = 1.0
    alpha: float | None = None
    provenance: str = ""

    def __post_init__(self):
        if len(self.kappas) != self.max_power:
            raise DomainError(f"max_power = {self.max_power} but {len(self.kappas)} kappas")

    @property
    def label(self) -> str:
        return f"minimax(pmax={self.max_power})"

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return tuple(Exponent.finite(float(j)) for j in range(1, self.max_power + 1))

    def coordinate_indices(self) -> tuple[int, ...]:
        return ()

    def ratio_statistic(self, norms: Mapping[Exponent, np.ndarray]) -> np.ndarray:
        return _max_ratio(norms, self.norm_exponents(), self.kappas)

    def decide_batch(self, norms: Mapping[Exponent, np.ndarray], coords=None):
        return self.ratio_statistic(norms) >= self.threshold


@dataclass(frozen=True)
class EnhancedTest:
    """Base test augmented with a one-coordinate spike detector.

    Rejects when the base rejects or the designated coordinate exceeds the
    spike threshold in absolute value, so it dominates the base pointwise.
    """

    base: object
    d: int
    coordinate: int  # 0-based index of the detector's coordinate
    spike_threshold: float
    spike_mean: float

    def __post_init__(self):
        if not 0 <= self.coordinate < self.d:
            raise DomainError(f"coordinate must lie in [0, {self.d}), got {self.coordinate!r}")

    @property
    def label(self) -> str:
        return f"enhanced({self.base.label})"

    @property
    def alpha(self) -> float:
        return getattr(self.base, "alpha", float("nan"))

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return self.base.norm_exponents()

    def coordinate_indices(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys((self.coordinate,) + self.base.coordinate_indices()))

    def decide_batch(self, norms, coords):
        spike = np.abs(np.asarray(coords[self.coordinate])) >= self.spike_threshold
        return np.asarray(self.base.decide_batch(norms, coords)) | spike


@dataclass(frozen=True)
class UnionTest:
    """Reject when any member rejects (the max-combination of tests)."""

    members: tuple
    name: str = "max-comb"

    @property
    def d(self) -> int:
        return self.members[0].d

    @property
    def label(self) -> str:
        return self.name

    @property
    def alpha(self) -> float:
        return float(math.fsum(getattr(t, "alpha", 0.0) or 0.0 for t in self.members))

    def norm_exponents(self) -> tuple[Exponent, ...]:
        return required_exponents(self.members)

    def coordinate_indices(self) -> tuple[int, ...]:
        return required_coordinates(self.members)

    def decide_batch(self, norms, coords=None):
        out = np.asarray(self.members[0].decide_batch(norms, coords), dtype=bool)
        for t in self.members[1:]:
            out = out | np.asarray(t.decide_batch(norms, coords), dtype=bool)
        return out


@dataclass(frozen=True)
class ConstantTest:
    """Always-accept or always-reject test; useful as a degenerate base."""

    d: int
    always_reject: bool = False

    @property
    def label(self) -> str:
        return "always-reject" if self.always_reject else "never-reject"

    @property
    def alpha(self) -> float:
        return 1.0 if self.always_reject else 0.0

    def norm_exponents(self) -> tuple[Exponent, ...]:
        # the sup column only supplies the row count of a batch
        return (SUP,)

    def coordinate_indices(self) -> tuple[int, ...]:
        return ()

    def decide_batch(self, norms, coords=None):
        return np.full(np.shape(norms[SUP]), self.always_reject, dtype=bool)


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
    """Single norm test with the analytic critical value of
    :func:`asymptotic_critical_value` (finite p) or
    :func:`sup_asymptotic_critical_value` (sup)."""
    if exponent.is_sup:
        kappa = sup_asymptotic_critical_value(d, alpha)
        prov = f"asymptotic_sup(alpha={alpha:g})"
    else:
        kappa = asymptotic_critical_value(exponent.p, d, alpha)
        prov = f"asymptotic_finite(p={exponent.p:g}, alpha={alpha:g})"
    return PNormTest(d=int(d), exponent=exponent, critical_value=kappa,
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
    if len(exps) != budget.member_count:
        raise DomainError("budget length must match the number of exponents")
    if any(not (p > 0.0) for p in exps) or any(
        exps[i] >= exps[i + 1] for i in range(len(exps) - 1)
    ):
        raise DomainError("exponents must be strictly increasing positive reals")
    members = [Exponent.finite(p) for p in exps]
    # the smallest member level is the deepest tail the calibration reads
    stats = _null_statistics(d, members, min(budget.alphas), plan, workers, stats)
    kappas = tuple(
        empirical_upper_quantile(stats[e], a) for e, a in zip(members, budget.alphas)
    )
    ratio = _max_ratio(stats, members, kappas)
    scale_raw = empirical_upper_quantile(ratio, budget.total)
    scale = min(1.0, scale_raw)
    if not scale > 0.0:
        raise AssertionError("combined-test scale search left (0, 1]; "
                             "calibration invariants violated")
    calib_size = float(np.count_nonzero(ratio >= scale)) / plan.replications
    return CombinedTest(
        d=int(d),
        exponents=exps,
        kappas=kappas,
        scale=scale,
        alpha=budget.total,
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
    max_power = int(max_power)
    if max_power < 1:
        raise DomainError("max_power must be >= 1")
    d = int(d)
    union_bound = max_power * std_normal_cdf(-float(margin))
    clt_term = (max_power / math.sqrt(d)) * (1.5 ** (1.5 * max_power))
    if union_bound > 0.01 or clt_term > 0.01:
        warnings.warn(
            "minimax side-condition surrogates are large at this (d, margin, "
            f"max_power): union bound {union_bound:.3g}, CLT term {clt_term:.3g}",
            CalibrationWarning,
            stacklevel=2,
        )
    kappas = tuple(
        minimax_critical_value(float(j), d, margin) for j in range(1, max_power + 1)
    )
    return MinimaxAdaptiveTest(
        d=d, margin=float(margin), max_power=max_power, kappas=kappas,
        provenance=f"analytic(margin={margin:g})",
    )


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
    stats = _null_statistics(test.d, test.norm_exponents(), alpha, plan, workers, stats)
    threshold = empirical_upper_quantile(test.ratio_statistic(stats), alpha)
    return replace(
        test,
        threshold=threshold,
        alpha=alpha,
        provenance=test.provenance + f" mc-scaled({plan.descriptor()})",
    )


class Calibration(NamedTuple):
    label: str  # the calibrated test's label
    exponents: list[Exponent]  # the null statistic columns it reads
    level: float  # the deepest tail level it reads
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
                           min(budget.alphas), partial(build_combined, d, exps, budget, plan))
    if name == "minimax":
        t = build_minimax_adaptive(d, option("margin", 5.0), option("max-power", 8))
        return Calibration(t.label, list(t.norm_exponents()), alpha,
                           partial(mc_scale_minimax, t, alpha, plan))
    e = parse_exponent(name.removeprefix("p="))
    return Calibration(e.label, [e], alpha, partial(mc_calibrate, e, d, alpha, plan))


def calibrate_suite(calibrations: Sequence[Calibration], d: int, plan: MonteCarloPlan,
                    workers: int = 1) -> list:
    """The tests of ``calibrations`` on one shared null sample of ``plan``.
    A column depends only on the plan and its exponent, so each test gets
    the critical values of a calibration of its own.  A plan too small for
    the deepest level read is refused before any draw."""
    if not calibrations:
        return []
    require_tail_plan(min(c.level for c in calibrations), plan)
    stats = simulate_null_statistics(d, [e for c in calibrations for e in c.exponents], plan,
                                     workers=workers)
    return [c.calibrate(stats=stats) for c in calibrations]


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


def required_exponents(tests: Sequence) -> tuple[Exponent, ...]:
    out: dict[Exponent, None] = {}
    for t in tests:
        for e in t.norm_exponents():
            out[e] = None
    return tuple(out)


def required_coordinates(tests: Sequence) -> tuple[int, ...]:
    out: dict[int, None] = {}
    for t in tests:
        for i in t.coordinate_indices():
            out[i] = None
    return tuple(out)


def reject_matrix(tests: Sequence, Y: np.ndarray) -> np.ndarray:
    """(n_tests, replications) rejection decisions, computing each needed
    norm exactly once per chunk."""
    Y = np.asarray(Y, dtype=float)
    norms = batch_norms(Y, required_exponents(tests))
    coords = {i: Y[:, i] for i in required_coordinates(tests)}
    return np.stack([np.asarray(t.decide_batch(norms, coords), dtype=bool) for t in tests])


def evaluate(test, y) -> bool:
    """Deterministic accept/reject decision of one test on one observation."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != test.d:
        raise DomainError(
            f"observation has length {y.size if y.ndim == 1 else y.shape}, "
            f"test expects {test.d}"
        )
    return bool(reject_matrix([test], y[None, :])[0, 0])


# ---------------------------------------------------------------------------
# Enhancement
# ---------------------------------------------------------------------------


def build_enhanced(base, d: int) -> EnhancedTest:
    """Augment ``base`` with a spike detector on coordinate 0.

    The spike mean is ``sqrt(log(d)/2)`` and the detector threshold is its
    square root.  The detector belongs on the base's weakest coordinate, the
    one where a spike of that mean is hardest for the base to detect, and
    for a base that decides from norm statistics alone (no
    ``coordinate_indices``) coordinate 0 is one.  Every norm is invariant
    under coordinate permutations, so such a base's rejection region is too;
    the i.i.d. Gaussian noise is exchangeable, so the base's power against a
    spike on coordinate i is the same for every i.  This covers the single,
    combined, minimax and constant tests, unions of them, and duck-typed
    norm-only bases.  A base that reads coordinates (an enhanced test, or a
    union holding one) is outside the argument; coordinate 0 is then a fixed
    convention.
    """
    d = int(d)
    if d < 2:
        raise DomainError("enhancement requires d >= 2")
    spike_mean = math.sqrt(math.log(d) / 2.0)
    return EnhancedTest(
        base=base, d=d, coordinate=0,
        spike_threshold=math.sqrt(spike_mean), spike_mean=spike_mean,
    )


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
# and ``budget_<field>`` lines are the fields of its AlphaBudget.
_ARTIFACTS = {
    "single": (PNormTest, (
        ("d", int, True), ("exponent", Exponent, True), ("alpha", float, True),
        ("critical_value", float, True), ("provenance", str, False),
    )),
    "combined": (CombinedTest, (
        ("d", int, True), ("alpha", float, True), ("exponents", tuple, True),
        ("alphas", tuple, True), ("budget_generator", str, False),
        ("budget_success", float, False), ("budget_last_share", float, False),
        ("kappas", tuple, True), ("scale", float, True),
        ("calibration_size", float, False), ("provenance", str, False),
    )),
    "minimax": (MinimaxAdaptiveTest, (
        ("d", int, True), ("margin", float, True), ("max_power", int, True),
        ("kappas", tuple, True), ("threshold", float, True), ("alpha", float, False),
        ("provenance", str, False),
    )),
}


def _budget_field(key: str) -> str | None:
    """The AlphaBudget field an artifact key names, if it names one."""
    name = key.removeprefix("budget_")
    return name if name in AlphaBudget.__dataclass_fields__ else None


def save_test(test, path) -> None:
    """Serialize a single/combined/minimax test to a key=value text file."""
    kind = next((k for k, (cls, _) in _ARTIFACTS.items() if isinstance(test, cls)), None)
    if kind is None:
        raise DomainError(f"cannot serialize test of type {type(test).__name__}")
    entries = [("schema", _SCHEMA), ("kind", kind)]
    for key, value_type, _ in _ARTIFACTS[kind][1]:
        name = _budget_field(key)
        value = getattr(test.budget, name) if name else getattr(test, key)
        if value is not None:
            entries.append((key, _CODECS[value_type][0](value)))
    write_kv(path, entries)


def load_test(path):
    """Reconstruct a serialized test from :func:`save_test` output."""
    kv = read_kv(path)
    if kv.get("schema") != _SCHEMA:
        raise ConfigError(f"unsupported artifact schema: {kv.get('schema')!r}")
    if kv.get("kind") not in _ARTIFACTS:
        raise ConfigError(f"unknown artifact kind: {kv.get('kind')!r}")
    cls, lines = _ARTIFACTS[kv["kind"]]
    fields, budget = {}, {}
    try:
        for key, value_type, required in lines:
            if required or key in kv:
                value = _CODECS[value_type][1](kv[key])
                if name := _budget_field(key):
                    budget[name] = value
                else:
                    fields[key] = value
        if budget:
            fields["budget"] = AlphaBudget(**budget)
        test = cls(**fields)
    except KeyError as exc:
        raise ConfigError(f"artifact is missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"artifact has a malformed value: {exc}") from exc
    # calibration never writes these; an uncalibrated combined test's
    # calibration_size is nan and stays valid
    bad = [f"d = {test.d}"] if test.d < 1 else []
    if test.alpha is not None and not 0.0 < test.alpha < 1.0:
        bad.append(f"alpha = {test.alpha!r}")
    for name in ("critical_value", "scale", "threshold"):
        if not math.isfinite(getattr(test, name, 0.0)):
            bad.append(f"{name} = {getattr(test, name)!r}")
    bad += [f"kappa = {k!r}" for k in getattr(test, "kappas", ()) if not 0.0 < k < math.inf]
    if bad:
        raise ConfigError(f"artifact value out of range: {', '.join(bad)}")
    return test
