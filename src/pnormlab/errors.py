"""Semantic exception hierarchy for pnormlab.

Public functions never raise bare ValueError/ArithmeticError for contract
violations; they raise one of the classes below so callers (and the CLI)
can map failure modes to exit codes.  The four value rules that every
module applies to its inputs (a level, a positive real, a finite real and a
dimension) are stated once, by the private ``_require_*`` helpers below,
each of which returns the value it accepts.
"""

import math


class PnormLabError(Exception):
    """Base class for all pnormlab errors."""


class DomainError(PnormLabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ConfigError(PnormLabError, ValueError):
    """A plan, budget, or CLI configuration violates its contract."""


class CalibrationError(PnormLabError, ArithmeticError):
    """An analytic critical value is undefined for the requested setting.

    Typically raised when the bracketed quantity of the asymptotic formula
    is non-positive (tiny dimension with extreme level); the Monte Carlo
    calibration path remains available in that case.
    """


class NumericError(PnormLabError, ArithmeticError):
    """A computation lost essentially all significant digits."""


class RankError(PnormLabError):
    """A design matrix is (numerically) rank deficient."""


def _require_unit(name: str, value):
    """``value``, a level in (0, 1); a DomainError naming it otherwise."""
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def _require_positive(name: str, value):
    """``value``, a positive finite real; a DomainError naming it otherwise."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be a positive real, got {value!r}")
    return value


def _require_finite(name: str, value):
    """``value``, a finite real; a DomainError naming it otherwise."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_dimension(d):
    """``d``, a dimension of at least 1; a DomainError otherwise."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d!r}")
    return d
