"""p-norm statistics: the Exponent tag type and overflow-safe evaluation.

The supremum norm is a distinct tag (`SUP`), never a large float stand-in.
Finite-exponent norms are evaluated in max-factored form,

    ||y||_p = m * (sum (|y_i|/m)^p)^(1/p),   m = max_i |y_i|,

so arbitrarily large exponents (the power lab uses p beyond 55 at d in the
hundreds of thousands) cannot overflow.

`_scaled_power_sums` is the one routine that computes power sums: on
workspace buffers it walks small integer exponents through one sequential
multiplication chain and shares the elementwise log across non-integer
exponents.  `batch_norms` (the Monte Carlo hot path) and
`ShiftedNormKernel` both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .workspace import Workspace

__all__ = ["Exponent", "SUP", "parse_exponent", "p_norm_stat", "batch_norms"]

_MAX_INT_CHAIN = 16  # small integer exponents evaluated by multiplication


@dataclass(frozen=True)
class Exponent:
    """Norm exponent: a positive real, or the supremum norm when p is None."""

    p: float | None

    def __post_init__(self):
        if self.p is not None:
            p = float(self.p)
            if not (p > 0.0 and math.isfinite(p)):
                raise DomainError(f"finite norm exponent must be > 0, got {self.p!r}")
            object.__setattr__(self, "p", p)

    @staticmethod
    def finite(p: float) -> "Exponent":
        if p is None:
            raise DomainError("finite exponent requires a positive real")
        return Exponent(float(p))

    @property
    def is_sup(self) -> bool:
        return self.p is None

    @property
    def label(self) -> str:
        if self.is_sup:
            return "sup"
        p = self.p
        if float(p).is_integer():
            return f"p={int(p)}"
        return f"p={p:.6g}"


SUP = Exponent(None)


def parse_exponent(text: str) -> Exponent:
    """Parse 'sup'/'inf' or a positive real."""
    t = str(text).strip().lower()
    if t in ("sup", "inf", "max", "infinity"):
        return SUP
    try:
        return Exponent.finite(float(t))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot parse norm exponent from {text!r}") from exc


def p_norm_stat(y, exponent: Exponent) -> float:
    """Norm statistic of a single observation vector.

    Returns 0.0 on the zero vector; raises DomainError on an empty vector.
    """
    if not isinstance(exponent, Exponent):
        raise DomainError(f"exponent must be an Exponent, got {type(exponent)!r}")
    a = np.abs(np.asarray(y, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise DomainError("observation vector must be one-dimensional and non-empty")
    m = float(a.max())
    if exponent.is_sup:
        return m
    if m == 0.0:
        return 0.0
    z = a / m
    p = exponent.p
    return m * float(np.sum(z**p)) ** (1.0 / p)


def _is_chain_exponent(e: Exponent) -> bool:
    return (not e.is_sup) and float(e.p).is_integer() and e.p <= _MAX_INT_CHAIN


def _scaled_power_sums(
    Z: np.ndarray, exponents: Sequence[Exponent], ws: Workspace
) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """Row max ``m`` of the non-negative matrix ``Z`` and, for every finite
    exponent, the power sums ``sum_i (Z_i/m)^p`` keyed by ``p``.

    Divides ``Z`` by ``m`` in place; rows with ``m == 0`` keep zero sums.
    """
    shape = Z.shape
    m = Z.max(axis=1)
    safe_m = np.where(m > 0.0, m, 1.0)
    Z /= safe_m[:, None]

    power_sums: dict[float, np.ndarray] = {}

    chain_targets = sorted({int(e.p) for e in exponents if _is_chain_exponent(e)})
    if chain_targets:
        top = chain_targets[-1]
        if 1 in chain_targets:
            power_sums[1.0] = Z.sum(axis=1)
        if top >= 2:
            chain = ws.buf("norms.chain", shape)
            np.copyto(chain, Z)
            for j in range(2, top + 1):
                np.multiply(chain, Z, out=chain)
                if j in chain_targets:
                    power_sums[float(j)] = chain.sum(axis=1)

    other = [e for e in exponents if not e.is_sup and not _is_chain_exponent(e)]
    if other:
        logz = ws.buf("norms.log", shape)
        with np.errstate(divide="ignore"):
            np.log(Z, out=logz)
        # the chain's sums are taken, so its buffer is free for the exp pass
        work = ws.buf("norms.chain", shape)
        for e in other:
            if e.p in power_sums:
                continue
            np.multiply(logz, e.p, out=work)
            np.exp(work, out=work)
            power_sums[e.p] = work.sum(axis=1)
    return m, power_sums


def batch_norms(
    Y: np.ndarray,
    exponents: Sequence[Exponent],
    workspace: Workspace | None = None,
) -> dict[Exponent, np.ndarray]:
    """Norm statistics of every row of ``Y`` for every requested exponent.

    Returns a dict keyed by exponent with float arrays of length
    ``Y.shape[0]``; rows that are identically zero get statistic 0.  When a
    workspace is supplied, all large intermediates live on its reusable
    buffers and the call performs no large allocations in steady state.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] == 0:
        raise DomainError("batch_norms expects a non-empty (replications, d) matrix")
    ws = workspace if workspace is not None else Workspace()

    Z = ws.buf("norms.scaled", Y.shape)
    np.abs(Y, out=Z)
    m, power_sums = _scaled_power_sums(Z, exponents, ws)

    out: dict[Exponent, np.ndarray] = {}
    for e in exponents:
        if e.is_sup:
            out[e] = m.copy()
        else:
            out[e] = m * power_sums[e.p] ** (1.0 / e.p)
    return out


class ShiftedNormKernel:
    """Incremental norm evaluation for mean shifts supported on few coordinates.

    Given a noise chunk ``eps`` and a support (column indices), the
    statistics of ``eps`` plus any shift supported there cost one
    `_scaled_power_sums` pass over ``|eps|`` with the support columns zeroed
    (row max ``m_rest``, sums ``S_rest``) plus O(replications x support)
    work per shift: with ``M = max(m_rest, max |shifted support|)``,

        ||y||_p = M * (S_rest * (m_rest/M)^p + sum (|shifted|/M)^p)^(1/p).

    Every term is at most 1 and nothing is subtracted, so no sum overflows
    or cancels.  With an empty support every norm is bit-identical to
    `batch_norms` of ``eps``: ``M = m_rest`` and ``(m_rest/M)^p`` is exactly
    1 (0 on an all-zero row).
    """

    def __init__(
        self,
        eps: np.ndarray,
        support: np.ndarray,
        exponents: Sequence[Exponent],
        workspace: Workspace | None = None,
    ):
        eps = np.asarray(eps, dtype=float)
        support = np.asarray(support, dtype=np.intp)
        self.exponents = tuple(exponents)
        ws = workspace if workspace is not None else Workspace()

        self._eps_support = eps[:, support]
        Z = ws.buf("norms.scaled", eps.shape)
        np.abs(eps, out=Z)
        Z[:, support] = 0.0
        self._max_rest, self._sum_rest = _scaled_power_sums(Z, self.exponents, ws)

    def norms_at(self, values: np.ndarray) -> dict[Exponent, np.ndarray]:
        """Norms of every row of ``eps`` with ``values`` added on the support."""
        shifted = np.abs(self._eps_support + np.asarray(values, dtype=float)[None, :])
        M = np.maximum(self._max_rest, shifted.max(axis=1, initial=0.0))
        safe_M = np.where(M > 0.0, M, 1.0)
        shifted /= safe_M[:, None]
        rest = self._max_rest / safe_M
        out: dict[Exponent, np.ndarray] = {}
        for e in self.exponents:
            if e.is_sup:
                out[e] = M
            else:
                s = self._sum_rest[e.p] * rest**e.p + (shifted**e.p).sum(axis=1)
                out[e] = M * s ** (1.0 / e.p)
        return out
