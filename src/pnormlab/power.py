"""Monte Carlo size/power estimation and the numerical-study harness.

Common random numbers: within one estimation call every test and every
mean shift is evaluated on the same simulated noise, each chunk drawn once;
RNG streams are keyed on (seed, chunk, replication) only.  This sharpens
ordering comparisons between tests at the cost of correlated estimates,
which the reported per-cell standard errors do not account for (they are
the usual binomial ones).  Every estimate starts as a rejection count,
and `_rate_se` is the one place a count becomes a rate and its standard
error.  Norms are evaluated by `mc.simulate_shifted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .consistency import AlternativeFamily, dense, power_sparse, semi_sparse, sparse
from .engine import (
    CombinedTest,
    EnhancedTest,
    PNormTest,
    UnionTest,
    _dimension,
    calibrate_suite,
    calibration,
    required_exponents,
)
from .errors import DomainError, RankError
from .gaussmath import std_normal_quantile
from .mc import MonteCarloPlan, Unit, simulate_shifted

__all__ = [
    "PowerTable",
    "estimate_rejection_many",
    "require_distinct_labels",
    "require_scale_grid",
    "power_curve",
    "auto_a_grid",
    "pe_demo",
    "GapScanReport",
    "power_gap_scan",
    "default_gap_grid",
    "regression_reduce",
    "enhancement_demo",
]


def _counts(tests: Sequence, shifts: Sequence[tuple[Unit, float]], plan: MonteCarloPlan,
            workers: int, store: Mapping | None = None) -> np.ndarray:
    """Rejection counts, one row per mean shift ``(unit, scale)`` and one
    column per test, with every chunk drawn at most once and filled kernels
    shared through ``store`` (`mc.simulate_shifted`)."""
    d = _dimension(tests)
    if {unit.d for unit, _ in shifts} != {d}:
        raise DomainError(f"need one or more shifts of the tests' dimension {d}")

    def visit(norms, first) -> list[int]:
        return [int(np.count_nonzero(t.decide_batch(norms, first))) for t in tests]

    per_chunk = simulate_shifted(shifts, required_exponents(tests), plan, visit, workers,
                                 store=store)
    return np.sum(per_chunk, axis=0)


def _rate_se(count: int, r: int) -> tuple[float, float]:
    rate = count / r
    return rate, math.sqrt(rate * (1.0 - rate) / r)


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def estimate_rejection_many(tests: Sequence, theta, plan: MonteCarloPlan, workers: int = 1):
    """Common-random-numbers rejection rates of several tests against one
    mean vector (pass ``theta=0`` or a zero vector for null size)."""
    if np.isscalar(theta) and theta == 0:
        unit = Unit.from_runs([0.0], [_dimension(tests)])
    else:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size == 0:
            raise DomainError(f"a mean vector must be one-dimensional, got shape {theta.shape}")
        unit = Unit.from_runs(theta, np.ones(theta.size))
    counts = _counts(tests, [(unit, 1.0)], plan, workers)
    return [_rate_se(int(c), plan.replications) for c in counts[0]]


@dataclass(frozen=True)
class PowerTable:
    """Rejection counts over the (test, scale) cells of one signal family,
    all on the same simulated noise: test ``tests[i]`` rejected
    ``counts[i][j]`` of the ``replications`` rows at scale ``scales[j]``.
    A cell's power is its count over ``replications``, with the binomial
    standard error."""

    family: str
    d: int
    replications: int
    tests: tuple[str, ...]
    scales: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]

    HEADER = ("test", "family", "a", "d", "power", "stderr", "replications")

    def to_csv(self, path) -> None:
        """One row per cell, test by test, each in scale order."""
        from .report import write_csv

        r = self.replications
        write_csv(path, self.HEADER, [
            (test, self.family, a, self.d, *_rate_se(c, r), r)
            for test, row in zip(self.tests, self.counts) for a, c in zip(self.scales, row)
        ])

    def series(self) -> dict[str, tuple[list[float], list[float]]]:
        """Each test's scales and powers."""
        return {test: (list(self.scales), [c / self.replications for c in row])
                for test, row in zip(self.tests, self.counts)}

    def cell(self, test: str, scale: float) -> tuple[float, float]:
        """The ``(power, stderr)`` of one cell; KeyError when the table lacks it."""
        try:
            count = self.counts[self.tests.index(test)][self.scales.index(scale)]
        except ValueError:
            raise KeyError((test, scale)) from None
        return _rate_se(count, self.replications)


def require_distinct_labels(labels: Sequence[str]) -> None:
    """Refuse a test suite with a repeated label: a power table keys its
    cells and series by label."""
    if len(set(labels)) != len(labels):
        raise DomainError(f"tests need distinct labels, got {', '.join(labels)}")


def require_scale_grid(a_grid: Sequence[float]) -> list[float]:
    """The scales of a power-curve grid, refused unless it is non-empty,
    finite, non-negative and strictly increasing."""
    scales = [float(a) for a in a_grid]
    if not scales or any(not 0.0 <= a < math.inf for a in scales) or any(
        scales[i] >= scales[i + 1] for i in range(len(scales) - 1)
    ):
        raise DomainError("a_grid must be non-empty, finite, non-negative and strictly increasing")
    return scales


def power_curve(
    tests: Sequence,
    family: AlternativeFamily,
    a_grid: Sequence[float] | None,
    d: int,
    plan: MonteCarloPlan,
    workers: int = 1,
) -> PowerTable:
    """The `PowerTable` of every test's rejection count at every scale of
    one signal family.

    All cells share the same simulated noise (common random numbers).
    ``a_grid=None`` takes the grid `auto_a_grid` finds on ``plan``: its
    probes keep the kernels they fill in a store that lives for this call,
    and the curve reuses every one whose chunk, exponents and support (or
    unit and scale) match, so a sparse family's curve draws no noise after
    the first probe when the plan has at most 400 replications; the curve
    only reads the store (a ``types.MappingProxyType``).  The table is the
    one `auto_a_grid` followed by `power_curve` on its grid gives.
    """
    d = int(d)
    require_distinct_labels([t.label for t in tests])
    unit = Unit.from_runs(*family.runs(d))
    store = {}
    if a_grid is None:
        a_grid = auto_a_grid(tests, family, plan, workers=workers, unit=unit, store=store)
    scales = require_scale_grid(a_grid)
    counts = _counts(tests, [(unit, a) for a in scales], plan, workers, MappingProxyType(store))
    return PowerTable(family=family.label, d=d, replications=plan.replications,
                      tests=tuple(t.label for t in tests), scales=tuple(scales),
                      counts=tuple(map(tuple, counts.T.tolist())))


_FAMILY_START_SCALE = {"dense": 0.25, "sparse": 4.0}  # any other family starts at 1
_AUTO_GRID_POINTS = 32
_AUTO_GRID_TOP_POWER = 0.99


def auto_a_grid(
    tests: Sequence,
    family: AlternativeFamily,
    plan: MonteCarloPlan,
    workers: int = 1,
    *,
    unit: Unit | None = None,
    store: dict | None = None,
) -> tuple[float, ...]:
    """Scale grid of 32 points from 0 to the first doubling at which the
    fastest test clears power 0.99 (probed on the first 400 replications at
    most), at the dimension the tests share.

    ``unit`` is the family's `mc.Unit` at that dimension (built when None);
    the probes add the kernels they fill to ``store``
    (`mc.simulate_shifted`), as `power_curve` does to share them."""
    probe_plan = plan.with_replications(min(plan.replications, 400))
    if unit is None:
        unit = Unit.from_runs(*family.runs(_dimension(tests)))
    hi = _FAMILY_START_SCALE.get(family.kind, 1.0)
    for _ in range(12):
        counts = _counts(tests, [(unit, hi)], probe_plan, workers, store)[0]
        if counts.max() / probe_plan.replications >= _AUTO_GRID_TOP_POWER:
            break
        hi *= 2.0
    return tuple(np.linspace(0.0, hi, _AUTO_GRID_POINTS))


# ---------------------------------------------------------------------------
# Demos and scans
# ---------------------------------------------------------------------------


def pe_demo(
    d: int,
    alpha2: float,
    alpha_inf: float,
    plan: MonteCarloPlan,
    calibration_plan: MonteCarloPlan,
    workers: int = 1,
) -> tuple[tuple[str, float, float], ...]:
    """Head-to-head power against the semi-sparse signal, as ``(label,
    power, stderr)`` rows.

    Estimates, on common random numbers: the Euclidean test at ``alpha2``
    (``p=2``), the sup test at ``alpha_inf`` (``sup``), their
    max-combination (``max-comb``, whose rejection event is the per-sample
    union, so its rate never exceeds the sum of the members' rates), the
    combined test (``combined``) and the 3- and 4-norm tests (``p=3``,
    ``p=4``) at the pooled level ``alpha2 + alpha_inf``.

    No power separation is promised: the separation is a limit statement,
    and at desk dimensions (d = 5e4, say) all six powers sit within a few
    points of their levels.
    """
    total = float(alpha2) + float(alpha_inf)
    if not (0.0 < total < 1.0):
        raise DomainError("alpha2 + alpha_inf must lie in (0, 1)")
    d = int(d)
    unit = Unit.from_runs(*semi_sparse().runs(d))
    levels = {"p=2": alpha2, "sup": alpha_inf, "combined": total, "p=3": total, "p=4": total}
    two, supt, combined, p3, p4 = calibrate_suite(
        [calibration(name, d, level, calibration_plan) for name, level in levels.items()], workers)
    tests = [two, supt, UnionTest(members=(two, supt)), combined, p3, p4]
    labels = ["p=2", "sup", "max-comb", "combined", "p=3", "p=4"]
    counts = _counts(tests, [(unit, 1.0)], plan, workers)
    return tuple(
        (label, *_rate_se(int(c), plan.replications)) for label, c in zip(labels, counts[0])
    )


@dataclass(frozen=True)
class GapScanReport:
    """Rejection counts ``counts[i] = (single, combined)`` of a single test
    and a combined test with its exponent as a member, out of the same
    ``replications`` rows at shift ``labels[i]``, and the analytic ceiling
    on their asymptotic power gap."""

    bound: float
    labels: tuple[str, ...]
    replications: int
    counts: tuple[tuple[int, int], ...]

    @property
    def gaps(self) -> tuple[tuple[str, float, float], ...]:
        """Each shift's ``(label, gap, pooled stderr)``: the single test's power
        less the combined test's, and the hypot of their binomial stderrs."""
        gaps = []
        for label, row in zip(self.labels, self.counts):
            (r_single, se_s), (r_comb, se_c) = (_rate_se(c, self.replications) for c in row)
            gaps.append((label, r_single - r_comb, math.hypot(se_s, se_c)))
        return tuple(gaps)

    @property
    def worst(self) -> tuple[str, float, float]:
        """The largest gap's ``(label, gap, pooled stderr)``; the first on a tie."""
        return max(self.gaps, key=lambda g: g[1])


def power_gap_scan(combined: CombinedTest, standalone: PNormTest,
                   shifts: Sequence[tuple[str, Unit, float]], plan: MonteCarloPlan,
                   workers: int = 1) -> GapScanReport:
    """Scan labeled mean shifts ``(label, unit, scale)``, the mean
    ``scale * unit``, for the power gap between ``standalone`` and the
    combined test; the report's ``worst`` is the largest.

    ``standalone`` is a `engine.PNormTest` on one of the combined test's
    exponents, calibrated by the caller; it should be at the combined
    test's level, ``combined.alpha``, which is the comparison the ceiling
    speaks of.  Any other test is refused before anything is drawn.  The
    report's ``bound``, the analytic ceiling on the asymptotic gap, is
    ``(quantile(1 - limit member level) - quantile(1 - level)) / sqrt(2 pi)``.
    """
    if not isinstance(standalone, PNormTest) or standalone.exponent.p not in combined.exponents:
        raise DomainError(f"the standalone test must be a single test on one of the combined "
                          f"test's exponents, got {getattr(standalone, 'label', standalone)!r}")
    limit_a = combined.budget.limit_alpha(combined.exponents.index(standalone.exponent.p))
    bound = (std_normal_quantile(1.0 - limit_a)
             - std_normal_quantile(1.0 - combined.alpha)) / math.sqrt(2.0 * math.pi)
    counts = _counts([standalone, combined], [(unit, a) for _, unit, a in shifts], plan, workers)
    return GapScanReport(bound=bound, labels=tuple(label for label, _, _ in shifts),
                         replications=plan.replications, counts=tuple(map(tuple, counts.tolist())))


def default_gap_grid(d: int) -> list[tuple[str, Unit, float]]:
    """Sixty labeled mean shifts ``(label, unit, scale)``, fifteen for each
    of the four stock families at scales from null to high power; the shifts
    of one family share its one `mc.Unit`, so the grid holds at most one
    d-row."""
    d = int(d)
    fams = [
        (dense(), np.linspace(0.0, 0.4, 15)),
        (sparse(), np.linspace(0.0, 8.0, 15)),
        (semi_sparse(), np.linspace(0.0, 2.5, 15)),
        (power_sparse(4.0), np.linspace(0.0, 2.0, 15)),
    ]
    out = []
    for fam, scales in fams:
        unit = Unit.from_runs(*fam.runs(d))
        out += [(f"{fam.label} a={a:.4g}", unit, float(a)) for a in scales]
    return out


def regression_reduce(X, z) -> np.ndarray:
    """Reduce a full-rank Gaussian regression to the sequence model.

    Returns ``M b_hat`` where ``M`` is the symmetric PSD square root of
    ``X'X`` and ``b_hat`` the least-squares coefficient; under
    ``z = X b + u`` with standard normal noise the output is
    ``N(M b, I_d)``.  The square root is taken through the symmetric
    eigendecomposition; a relative tolerance of 1e-10 on the Gram
    eigenvalues guards rank.
    """
    X = np.asarray(X, dtype=float)
    z = np.asarray(z, dtype=float)
    if X.ndim != 2:
        raise DomainError("design matrix must be two-dimensional")
    n, d = X.shape
    if z.shape != (n,):
        raise DomainError(f"response has shape {z.shape}, expected ({n},)")
    if d > n:
        raise RankError(f"design with d={d} > n={n} cannot have full column rank")
    gram = X.T @ X
    w, v = np.linalg.eigh(gram)
    # the Gram squares the conditioning, so the relative tolerance applies
    # to its eigenvalues: collinear columns land at numerical zero here
    if w[-1] <= 0.0 or w[0] < 1e-10 * w[-1]:
        raise RankError(
            "design matrix is numerically rank deficient "
            f"(Gram eigenvalue ratio {max(w[0], 0.0):.3e} / {w[-1]:.3e})"
        )
    sing = np.sqrt(w)
    # M^{-1} X'z = V diag(1/sigma) V' X'z
    return v @ ((v.T @ (X.T @ z)) / sing)


def enhancement_demo(
    base, plan: MonteCarloPlan, workers: int = 1
) -> tuple[tuple[str, float, float], ...]:
    """Sizes of ``base`` and its `engine.EnhancedTest`, and their power
    against the spike the detector targets, as ``(quantity, estimate,
    stderr)`` rows: ``size_base``, ``size_enhanced``, ``power_base`` and
    ``power_enhanced``.

    The enhanced test's ``spike_power`` and ``spike_size`` are the
    detector's exact spike power and null rejection probability to set
    these against.
    """
    enhanced = EnhancedTest(base)
    d = int(enhanced.d)
    spike = Unit.from_runs([1.0, 0.0], [1, d - 1])
    shifts = [(Unit.from_runs([0.0], [d]), 0.0), (spike, enhanced.spike_mean)]
    counts = _counts([base, enhanced], shifts, plan, workers).ravel()
    names = ("size_base", "size_enhanced", "power_base", "power_enhanced")
    return tuple(
        (name, *_rate_se(int(c), plan.replications)) for name, c in zip(names, counts)
    )
