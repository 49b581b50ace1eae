"""Monte Carlo size/power estimation and the numerical-study harness.

Common random numbers: within one estimation call every test and every
mean shift is evaluated on the same simulated noise, each chunk drawn once;
RNG streams are keyed on (seed, chunk, replication) only.  This sharpens
ordering comparisons between tests at the cost of correlated estimates,
which the reported per-cell standard errors do not account for (they are
the usual binomial ones).  Norms are evaluated by `mc.simulate_shifted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .consistency import AlternativeFamily, dense, power_sparse, semi_sparse, sparse
from .engine import (
    CombinedTest,
    UnionTest,
    build_enhanced,
    calibrate_suite,
    calibration,
    mc_calibrate,
    required_coordinates,
    required_exponents,
)
from .errors import DomainError, RankError
from .gaussmath import std_normal_quantile, std_normal_sf
from .mc import MonteCarloPlan, Unit, simulate_shifted
from .norms import Exponent

__all__ = [
    "PowerRow",
    "PowerTable",
    "estimate_rejection",
    "estimate_rejection_many",
    "require_distinct_labels",
    "require_scale_grid",
    "power_curve",
    "auto_a_grid",
    "PowerEnhancementReport",
    "pe_demo",
    "GapScanReport",
    "power_gap_scan",
    "default_gap_grid",
    "regression_reduce",
    "EnhancementReport",
    "enhancement_demo",
]


def _dimension(tests: Sequence) -> int:
    """The one dimension all of ``tests`` (at least one) are calibrated at."""
    dims = {t.d for t in tests}
    if len(dims) != 1:
        raise DomainError(f"need one or more tests of one dimension, got {sorted(dims)}")
    return dims.pop()


def _counts(tests: Sequence, shifts: Sequence[tuple[Unit, float]], plan: MonteCarloPlan,
            workers: int, store: dict | None = None, read_only: bool = False) -> np.ndarray:
    """Rejection counts, one row per mean shift ``(unit, scale)`` and one
    column per test, with every chunk drawn at most once and filled kernels
    shared through ``store`` (`mc.simulate_shifted`)."""
    d = _dimension(tests)
    if {unit.d for unit, _ in shifts} != {d}:
        raise DomainError(f"need one or more shifts of the tests' dimension {d}")

    def visit(norms, coords) -> list[int]:
        return [int(np.count_nonzero(t.decide_batch(norms, coords))) for t in tests]

    per_chunk = simulate_shifted(shifts, required_exponents(tests), plan, visit, workers,
                                 coordinates=required_coordinates(tests), store=store,
                                 read_only=read_only)
    return np.sum(per_chunk, axis=0)


def _rate_se(count: int, r: int) -> tuple[float, float]:
    rate = count / r
    return rate, math.sqrt(rate * (1.0 - rate) / r)


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def estimate_rejection(test, theta, plan: MonteCarloPlan, workers: int = 1):
    """Rejection rate of ``test`` against mean vector ``theta`` with its
    binomial standard error.  Deterministic for a fixed plan."""
    return estimate_rejection_many([test], theta, plan, workers=workers)[0]


def estimate_rejection_many(tests: Sequence, theta, plan: MonteCarloPlan, workers: int = 1):
    """Common-random-numbers rejection rates of several tests against one
    mean vector (pass ``theta=0`` or a zero vector for null size)."""
    zero = np.isscalar(theta) and theta == 0
    unit = Unit.from_runs([0.0], [_dimension(tests)]) if zero else Unit.from_vector(theta)
    counts = _counts(tests, [(unit, 1.0)], plan, workers)
    return [_rate_se(int(c), plan.replications) for c in counts[0]]


@dataclass(frozen=True)
class PowerRow:
    test: str
    family: str
    scale: float
    d: int
    power: float
    stderr: float
    replications: int


@dataclass(frozen=True)
class PowerTable:
    """Tidy rejection-rate table over (test, scale) cells of one family."""

    rows: tuple[PowerRow, ...]

    HEADER = ("test", "family", "a", "d", "power", "stderr", "replications")

    def to_csv(self, path) -> None:
        from .report import write_csv

        write_csv(
            path,
            self.HEADER,
            [
                (r.test, r.family, r.scale, r.d, r.power, r.stderr, r.replications)
                for r in self.rows
            ],
        )

    def series(self) -> dict[str, tuple[list[float], list[float]]]:
        out: dict[str, tuple[list[float], list[float]]] = {}
        for r in self.rows:
            xs, ys = out.setdefault(r.test, ([], []))
            xs.append(r.scale)
            ys.append(r.power)
        return out

    def cell(self, test: str, scale: float) -> PowerRow:
        for r in self.rows:
            if r.test == test and r.scale == scale:
                return r
        raise KeyError((test, scale))


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
    """Estimated power of every test at every scale of one signal family.

    All cells share the same simulated noise (common random numbers).
    ``a_grid=None`` takes the grid `auto_a_grid` finds on ``plan``: its
    probes keep the kernels they fill in a store that lives for this call,
    and the curve reuses every one whose chunk, exponents and support (or
    unit and scale) match, so a sparse family's curve draws no noise after
    the first probe when the plan has at most 400 replications.  The table
    is the one `auto_a_grid` followed by `power_curve` on its grid gives.
    """
    d = int(d)
    require_distinct_labels([t.label for t in tests])
    unit = Unit.from_runs(*family.runs(d))
    store = None
    if a_grid is None:
        store = {}
        a_grid = auto_a_grid(tests, family, d, plan, workers=workers, unit=unit, store=store)
    scales = require_scale_grid(a_grid)
    counts = _counts(tests, [(unit, a) for a in scales], plan, workers, store, read_only=True)
    rows = []
    for ti, t in enumerate(tests):
        for si, a in enumerate(scales):
            rate, se = _rate_se(int(counts[si, ti]), plan.replications)
            rows.append(
                PowerRow(
                    test=t.label, family=family.label, scale=a, d=d,
                    power=rate, stderr=se, replications=plan.replications,
                )
            )
    return PowerTable(rows=tuple(rows))


_FAMILY_START_SCALE = {
    "dense": 0.25,
    "sparse": 4.0,
    "semi_sparse": 1.0,
    "power_sparse": 1.0,
    "custom": 1.0,
}


def auto_a_grid(
    tests: Sequence,
    family: AlternativeFamily,
    d: int,
    plan: MonteCarloPlan,
    points: int = 32,
    top_power: float = 0.99,
    workers: int = 1,
    *,
    unit: Unit | None = None,
    store: dict | None = None,
) -> tuple[float, ...]:
    """Scale grid from 0 to the first doubling at which the fastest test
    clears ``top_power`` (probed on the first 400 replications at most).

    ``unit`` is the family's `mc.Unit` at ``d`` (built when None); the
    probes add the kernels they fill to ``store``
    (`mc.simulate_shifted`), as `power_curve` does to share them."""
    if points < 2:
        raise DomainError("grid needs at least two points")
    probe_plan = plan.with_replications(min(plan.replications, 400))
    if unit is None:
        unit = Unit.from_runs(*family.runs(d))
    hi = _FAMILY_START_SCALE.get(family.kind, 1.0)
    for _ in range(12):
        counts = _counts(tests, [(unit, hi)], probe_plan, workers, store)[0]
        if counts.max() / probe_plan.replications >= top_power:
            break
        hi *= 2.0
    return tuple(np.linspace(0.0, hi, int(points)))


# ---------------------------------------------------------------------------
# Demos and scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerEnhancementReport:
    """Power against the semi-sparse signal of the Euclidean test, the sup
    test, their max-combination, the combined test, and mid exponents."""

    d: int
    alpha2: float
    alpha_inf: float
    rows: tuple[tuple[str, float, float], ...]  # (label, power, stderr)

    def power(self, label: str) -> float:
        return self._row(label)[0]

    def stderr(self, label: str) -> float:
        return self._row(label)[1]

    def _row(self, label: str) -> tuple[float, float]:
        """The (power, stderr) of the test ``label``; KeyError when absent."""
        return {lbl: (p, se) for lbl, p, se in self.rows}[label]


def pe_demo(
    d: int,
    alpha2: float,
    alpha_inf: float,
    plan: MonteCarloPlan,
    calibration_plan: MonteCarloPlan,
    workers: int = 1,
) -> PowerEnhancementReport:
    """Head-to-head power against the semi-sparse signal.

    Estimates, on common random numbers: the Euclidean test at ``alpha2``,
    the sup test at ``alpha_inf``, their max-combination (whose rejection
    event is the per-sample union, so its rate never exceeds the sum of the
    members' rates), the combined test and the 3- and 4-norm tests at the
    pooled level ``alpha2 + alpha_inf``.

    No power separation is promised: the separation is a limit statement,
    and at desk dimensions (d = 5e4, say) all six powers sit within a few
    points of their levels.
    """
    total = float(alpha2) + float(alpha_inf)
    if not (0.0 < total < 1.0):
        raise DomainError("alpha2 + alpha_inf must lie in (0, 1)")
    d = int(d)
    if d < 16:
        raise DomainError("the semi-sparse signal needs d >= 16")
    levels = {"p=2": alpha2, "sup": alpha_inf, "combined": total, "p=3": total, "p=4": total}
    two, supt, combined, p3, p4 = calibrate_suite(
        [calibration(name, d, level, calibration_plan) for name, level in levels.items()],
        d, calibration_plan, workers,
    )
    maxcomb = UnionTest(members=(two, supt), name="max-comb(2,sup)")
    tests = [two, supt, maxcomb, combined, p3, p4]
    labels = ["p=2", "sup", "max-comb", "combined", "p=3", "p=4"]
    counts = _counts(tests, [(Unit.from_runs(*semi_sparse().runs(d)), 1.0)], plan, workers)
    rows = tuple(
        (label, *_rate_se(int(c), plan.replications)) for label, c in zip(labels, counts[0])
    )
    return PowerEnhancementReport(d=d, alpha2=float(alpha2), alpha_inf=float(alpha_inf), rows=rows)


@dataclass(frozen=True)
class GapScanReport:
    """Worst observed power shortfall of a combined test against one of its
    members recalibrated standalone at the full level."""

    member_exponent: float
    bound: float
    max_gap: float
    max_gap_stderr: float
    max_gap_label: str
    gaps: tuple[tuple[str, float, float], ...]  # (label, gap, pooled stderr)


def power_gap_scan(
    combined: CombinedTest,
    member_index: int,
    shifts: Sequence[tuple[str, Unit, float]],
    plan: MonteCarloPlan,
    calibration_plan: MonteCarloPlan,
    workers: int = 1,
    stats: Mapping[Exponent, np.ndarray] | None = None,
) -> GapScanReport:
    """Scan labeled mean shifts ``(label, unit, scale)``, the mean
    ``scale * unit``, for the largest power gap between the standalone
    member test (at the combined test's full level) and the combined test.

    The analytic ceiling on the asymptotic gap is
    ``(quantile(1 - limit member level) - quantile(1 - level)) / sqrt(2 pi)``.
    ``stats`` may carry precomputed null columns of ``calibration_plan``
    that include the member's exponent, as in :func:`mc_calibrate`.
    """
    m = len(combined.exponents)
    if not (0 <= int(member_index) < m):
        raise DomainError(f"member index out of range: {member_index!r}")
    member_index = int(member_index)
    p = combined.exponents[member_index]
    standalone = mc_calibrate(
        Exponent.finite(p), combined.d, combined.alpha, calibration_plan, workers,
        stats=stats,
    )
    limit_a = combined.budget.limit_alpha(member_index)
    bound = (
        std_normal_quantile(1.0 - limit_a) - std_normal_quantile(1.0 - combined.alpha)
    ) / math.sqrt(2.0 * math.pi)
    counts = _counts([standalone, combined], [(unit, a) for _, unit, a in shifts], plan, workers)
    gaps = []
    for (label, _, _), row in zip(shifts, counts):
        (r_single, se_s), (r_comb, se_c) = (_rate_se(int(c), plan.replications) for c in row)
        gaps.append((label, r_single - r_comb, math.hypot(se_s, se_c)))
    worst = max(gaps, key=lambda g: g[1])
    return GapScanReport(
        member_exponent=p,
        bound=bound,
        max_gap=worst[1],
        max_gap_stderr=worst[2],
        max_gap_label=worst[0],
        gaps=tuple(gaps),
    )


def default_gap_grid(d: int, points_per_family: int = 15) -> list[tuple[str, Unit, float]]:
    """Sixty labeled mean shifts ``(label, unit, scale)`` spanning the four
    stock families at scales from null to high power; the shifts of one
    family share its one `mc.Unit`, so the grid holds at most one d-row."""
    d = int(d)
    fams = [
        (dense(), np.linspace(0.0, 0.4, points_per_family)),
        (sparse(), np.linspace(0.0, 8.0, points_per_family)),
        (semi_sparse(), np.linspace(0.0, 2.5, points_per_family)),
        (power_sparse(4.0), np.linspace(0.0, 2.0, points_per_family)),
    ]
    out = []
    for fam, scales in fams:
        unit = Unit.from_runs(*fam.runs(d))
        out += [(f"{fam.label} a={a:.4g}", unit, float(a)) for a in scales]
    return out


def regression_reduce(X, z, tol: float = 1e-10) -> np.ndarray:
    """Reduce a full-rank Gaussian regression to the sequence model.

    Returns ``M b_hat`` where ``M`` is the symmetric PSD square root of
    ``X'X`` and ``b_hat`` the least-squares coefficient; under
    ``z = X b + u`` with standard normal noise the output is
    ``N(M b, I_d)``.  The square root is taken through the symmetric
    eigendecomposition; a relative singular-value tolerance guards rank.
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
    if w[-1] <= 0.0 or w[0] < tol * w[-1]:
        raise RankError(
            "design matrix is numerically rank deficient "
            f"(Gram eigenvalue ratio {max(w[0], 0.0):.3e} / {w[-1]:.3e})"
        )
    sing = np.sqrt(w)
    # M^{-1} X'z = V diag(1/sigma) V' X'z
    return v @ ((v.T @ (X.T @ z)) / sing)


@dataclass(frozen=True)
class EnhancementReport:
    """Size and spike-power comparison of a base test and its enhancement."""

    d: int
    coordinate: int
    spike_mean: float
    spike_threshold: float
    size_base: float
    size_base_stderr: float
    size_enhanced: float
    size_enhanced_stderr: float
    power_base: float
    power_base_stderr: float
    power_enhanced: float
    power_enhanced_stderr: float
    spike_tail_exact: float
    size_inflation_bound: float


def enhancement_demo(d: int, base, plan: MonteCarloPlan, workers: int = 1) -> EnhancementReport:
    """Build the enhanced test and report sizes and spike power.

    ``spike_tail_exact`` is the closed-form detection probability of the
    one-coordinate detector against the spike it targets;
    ``size_inflation_bound`` is its exact null rejection probability, an
    upper bound on the size the enhancement can add.
    """
    enhanced = build_enhanced(base, d)
    a = enhanced.spike_mean
    t = enhanced.spike_threshold
    i, d = enhanced.coordinate, int(d)
    spike = Unit.from_runs([0.0, 1.0, 0.0], [i, 1, d - i - 1])
    shifts = [(Unit.from_runs([0.0], [d]), 0.0), (spike, a)]
    (sb, sb_se), (se_, se_se), (pb, pb_se), (pe, pe_se) = (
        _rate_se(int(c), plan.replications)
        for c in _counts([base, enhanced], shifts, plan, workers).ravel()
    )
    return EnhancementReport(
        d=d,
        coordinate=i,
        spike_mean=a,
        spike_threshold=t,
        size_base=sb,
        size_base_stderr=sb_se,
        size_enhanced=se_,
        size_enhanced_stderr=se_se,
        power_base=pb,
        power_base_stderr=pb_se,
        power_enhanced=pe,
        power_enhanced_stderr=pe_se,
        spike_tail_exact=std_normal_sf(t - a) + std_normal_sf(t + a),
        size_inflation_bound=2.0 * std_normal_sf(t),
    )
