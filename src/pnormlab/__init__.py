"""pnormlab: norm-based tests for high-dimensional Gaussian sequence models.

A library and batch CLI covering: exact and asymptotic critical values of
p-norm tests (including the supremum norm), combined max-norm tests with
exact Monte Carlo size, minimax-adaptive tests, one-coordinate power
enhancement, finite-dimensional consistency criteria and growth traces,
and a deterministic parallel Monte Carlo power laboratory.
"""

__version__ = "0.1.0"

from .consistency import (
    AlternativeFamily,
    CriterionTrace,
    SupCriterion,
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
from .engine import (
    AlphaBudget,
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
    geometric_budget,
    load_test,
    mc_calibrate,
    mc_scale_minimax,
    member_exponents,
    minimax_critical_value,
    save_test,
    sup_asymptotic_critical_value,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    NumericError,
    PnormLabError,
    RankError,
)
from .gaussmath import (
    GaussMoments,
    abs_moment,
    detection_weight,
    gauss_moments,
    log_abs_moment,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_sf,
    sup_centering,
    sup_detection_weight,
)
from .mc import MonteCarloPlan
from .norms import SUP, Exponent, p_norm_stat
from .power import (
    GapScanReport,
    PowerTable,
    auto_a_grid,
    default_gap_grid,
    enhancement_demo,
    estimate_rejection_many,
    pe_demo,
    power_curve,
    power_gap_scan,
    regression_reduce,
)
